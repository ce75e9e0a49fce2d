"""Tensor utilities: the weight of the third derivative in Lambda's source,
and contractions with the standard symplectic matrix J = [[0, Id], [-Id, 0]].

All tensors are dense numpy arrays, batched over leading axes.  Phase-space
tensors have every extent equal to ``2d``, with indices ``0..d-1``
addressing positions and ``d..2d-1`` momenta.  The correction stepper
takes its mode products elementwise, in :mod:`egorov.correction`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "D3_WEIGHT",
    "tilde_d3",
    "j_contract_axis",
    "apply_J_triple",
]

# The weight of every entry of D3h in Lambda's source.  The third-order
# bracket {h, .}_3 weights each multi-index alpha with |alpha| = 3 by
# 1/alpha!, and a sum over all index triples (i, j, k) meets alpha in
# 3!/alpha! orderings, so each entry carries (1/alpha!) / (3!/alpha!) = 1/6.
D3_WEIGHT = 1.0 / 6.0


def tilde_d3(d3v: np.ndarray) -> np.ndarray:
    """A symmetric third-derivative tensor times :data:`D3_WEIGHT`.

    Accepts batched input ``(..., n, n, n)``.  Rejects input that is not
    symmetric to 1e-10.
    """
    d3v = np.asarray(d3v)
    for perm in ((0, 2, 1), (1, 0, 2)):
        axes = tuple(range(d3v.ndim - 3)) + tuple(d3v.ndim - 3 + p for p in perm)
        if not np.allclose(d3v, np.transpose(d3v, axes), atol=1e-10, rtol=0.0):
            raise ValueError("third-derivative tensor is not symmetric")
    return d3v * D3_WEIGHT


def j_contract_axis(tensor: np.ndarray, axis: int) -> np.ndarray:
    """Contract the symplectic matrix into one axis of a phase-space tensor.

    ``(J . T)[.., i, ..] = T[.., i+d, ..]`` for position rows and
    ``-T[.., i-d, ..]`` for momentum rows: one slice copy and one negation
    into a new C-ordered array, no matrix product.
    """
    tensor = np.asarray(tensor)
    n = tensor.shape[axis]
    if n % 2:
        raise ValueError("phase-space axis extent must be even")
    d = n // 2
    lead = (slice(None),) * (axis % tensor.ndim)
    top, bottom = lead + (slice(0, d),), lead + (slice(d, n),)
    out = np.empty(tensor.shape, tensor.dtype)
    out[top] = tensor[bottom]
    np.negative(tensor[top], out=out[bottom])
    return out


def apply_J_triple(tensor: np.ndarray) -> np.ndarray:
    """Contract J into all three indices of a phase-space 3-tensor:
    ``out[ijk] = J[il] J[jm] J[kn] T[lmn]`` (batched over leading axes)."""
    out = np.asarray(tensor)
    for axis in (-3, -2, -1):
        out = j_contract_axis(out, axis)
    return out
