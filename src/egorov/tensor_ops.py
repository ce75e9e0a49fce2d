"""Tensor utilities: Kronecker products, row-major vectorization, mode
products, the weighted third-derivative tensor, and contractions with the
standard symplectic matrix.

Conventions
-----------
All tensors are dense numpy arrays in row-major (C) order, so ``vec`` is a
plain ravel and the flat index of entry ``(i1, ..., ik)`` is
``i1 * n2*...*nk + i2 * n3*...*nk + ... + ik`` (0-based; the 1-based
convention appears only in documentation).  Phase-space tensors have every
extent equal to ``2d``, with indices ``0..d-1`` addressing positions and
``d..2d-1`` momenta.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kron",
    "vec",
    "mode_multiply",
    "mode_matrix",
    "tilde_weights",
    "tilde_d3",
    "symplectic_j",
    "j_contract_axis",
    "apply_J_triple",
]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices.

    Raises ValueError for non-square input; otherwise defers to numpy's
    implementation, which realizes
    ``(A (x) B)[i1*n + i2, j1*n + j2] = A[i1, j1] * B[i2, j2]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"kron expects square matrices, got shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"kron expects square matrices, got shape {b.shape}")
    return np.kron(a, b)


def vec(tensor: np.ndarray) -> np.ndarray:
    """Flatten a tensor in row-major order (last index fastest)."""
    return np.ravel(np.asarray(tensor))


def mode_multiply(a: np.ndarray, b: np.ndarray, mode: int) -> np.ndarray:
    """Contract matrix ``a`` into slot ``mode`` (0-based) of tensor ``b``.

    Returns ``C`` with ``C[i1..ik..in] = a[ik, l] * b[i1..l..in]``.  This is
    the contraction path; ``vec(C) == mode_matrix(a, b.ndim, mode) @ vec(b)``
    gives the equivalent Kronecker-matrix path used in tests.
    """
    b = np.asarray(b)
    if not 0 <= mode < b.ndim:
        raise ValueError(f"mode {mode} out of range for order-{b.ndim} tensor")
    if a.shape[1] != b.shape[mode]:
        raise ValueError(
            f"matrix columns {a.shape[1]} do not match tensor extent "
            f"{b.shape[mode]} in mode {mode}"
        )
    moved = np.moveaxis(b, mode, 0)
    contracted = np.tensordot(a, moved, axes=(1, 0))
    return np.moveaxis(contracted, 0, mode)


def mode_matrix(a: np.ndarray, order: int, mode: int) -> np.ndarray:
    """Kronecker matrix ``Id (x) ... (x) A (x) ... (x) Id`` with A in slot
    ``mode`` of ``order`` slots, acting on vec'd tensors.  Test-only path:
    materializes an m^order square matrix.
    """
    m = a.shape[0]
    out = np.eye(1)
    for k in range(order):
        out = np.kron(out, a if k == mode else np.eye(m))
    return out


def tilde_weights(n: int) -> np.ndarray:
    """Weight tensor for the symmetrized third derivative: 1/6 on the main
    diagonal, 1/2 where exactly two indices agree, 1 elsewhere."""
    i, j, k = np.indices((n, n, n))
    w = np.ones((n, n, n))
    two_equal = (i == j) | (j == k) | (i == k)
    w[two_equal] = 0.5
    w[(i == j) & (j == k)] = 1.0 / 6.0
    return w


def tilde_d3(d3v: np.ndarray) -> np.ndarray:
    """Apply the 1/6-1/2-1 weights to a symmetric third-derivative tensor.

    Accepts batched input ``(..., n, n, n)``; weights broadcast over leading
    axes.  Rejects input that is not symmetric to 1e-10.
    """
    d3v = np.asarray(d3v)
    n = d3v.shape[-1]
    for perm in ((0, 2, 1), (1, 0, 2)):
        axes = tuple(range(d3v.ndim - 3)) + tuple(d3v.ndim - 3 + p for p in perm)
        if not np.allclose(d3v, np.transpose(d3v, axes), atol=1e-10, rtol=0.0):
            raise ValueError("third-derivative tensor is not symmetric")
    return tilde_weights(n) * d3v


def symplectic_j(d: int) -> np.ndarray:
    """The standard symplectic matrix [[0, Id], [-Id, 0]] of size 2d."""
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def j_contract_axis(tensor: np.ndarray, axis: int) -> np.ndarray:
    """Contract the symplectic matrix into one axis of a phase-space tensor.

    ``(J . T)[.., i, ..] = T[.., i+d, ..]`` for position rows and
    ``-T[.., i-d, ..]`` for momentum rows; implemented as a block swap with a
    sign flip, no matrix product.
    """
    tensor = np.asarray(tensor)
    n = tensor.shape[axis]
    if n % 2:
        raise ValueError("phase-space axis extent must be even")
    d = n // 2
    top = np.take(tensor, range(d, n), axis=axis)
    bottom = -np.take(tensor, range(0, d), axis=axis)
    return np.concatenate((top, bottom), axis=axis)


def apply_J_triple(tensor: np.ndarray) -> np.ndarray:
    """Contract J into all three indices of a phase-space 3-tensor:
    ``out[ijk] = J[il] J[jm] J[kn] T[lmn]`` (batched over leading axes)."""
    tensor = np.asarray(tensor)
    out = tensor
    for axis in (-3, -2, -1):
        out = j_contract_axis(out, out.ndim + axis)
    return out
