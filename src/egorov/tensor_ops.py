"""Tensor utilities: the weighted third-derivative tensor and contractions
with the standard symplectic matrix J = [[0, Id], [-Id, 0]].

All tensors are dense numpy arrays, batched over leading axes.  Phase-space
tensors have every extent equal to ``2d``, with indices ``0..d-1``
addressing positions and ``d..2d-1`` momenta.  The correction stepper
takes its mode products elementwise, in :mod:`egorov.correction`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tilde_weights",
    "tilde_d3",
    "j_contract_axis",
    "apply_J_triple",
]


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
