"""Phase-space sampling of Gaussian wave packets with Halton points.

The Wigner function of the Gaussian packet used throughout,

    W(z) = (pi eps)^(-d) exp(-|z - (q0, p0)|^2 / eps),

is a normal density with mean (q0, p0) and covariance (eps/2) Id on R^(2d).
Expectation values are quadratures against W, computed quasi-Monte Carlo
style: means over Halton points in (0,1)^(2d), mapped coordinate-wise
through the inverse normal CDF, scaled and shifted.  Everything is deterministic for
fixed (N, skip).  The normal quantile is the standard library's
``NormalDist.inv_cdf``, Wichura's algorithm AS241 (Appl. Statist. 37, 1988),
correct to about 1e-16 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "GaussianPacket",
    "QmcSampler",
    "first_primes",
    "halton",
    "halton_sequence",
    "inverse_normal_cdf",
    "sample_points",
]

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian wave packet parameters: phase-space center and width eps."""

    center: np.ndarray
    epsilon: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or center.size % 2:
            raise ValueError("center must be a flat (q0, p0) vector of even length")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "center", center)

    @property
    def d(self) -> int:
        return self.center.size // 2


@dataclass(frozen=True)
class QmcSampler:
    """Halton-point generator configuration."""

    count: int
    skip: int = 64

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"need at least one sample point, got {self.count}")
        if self.skip < 0:
            raise ValueError("skip must be nonnegative")


def first_primes(count: int) -> list[int]:
    """The first `count` prime numbers."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def halton(index, base: int):
    """Radical inverse of index (1-based, scalar or array) in a prime base.

    The digit sum is taken in float64, which rounds to 1.0 for some large
    indices (``halton(5**22 - 1, 5)``); those come back as the largest double
    below 1, so every point lies in (0, 1)."""
    idx = np.asarray(index, dtype=np.int64)
    if np.any(idx < 1):
        raise ValueError("halton indices start at 1")
    out = np.zeros(idx.shape, dtype=float)
    factor = 1.0 / base
    remaining = idx.copy()
    while np.any(remaining > 0):
        out += factor * (remaining % base)
        remaining //= base
        factor /= base
    np.minimum(out, np.nextafter(1.0, 0.0), out=out)
    if np.isscalar(index) or np.ndim(index) == 0:
        return float(out)
    return out


def halton_sequence(n: int, dim: int, skip: int = 64) -> np.ndarray:
    """n Halton points in (0,1)^dim, the first `skip` entries dropped."""
    # int64 up to the last index skip + n; np.arange(skip + 1, skip + n + 1)
    # turns to float64 when its stop passes 2**63 - 1.
    indices = skip + 1 + np.arange(n)
    bases = first_primes(dim)
    return np.stack([halton(indices, b) for b in bases], axis=-1)


def inverse_normal_cdf(u):
    """Standard normal quantile (``NormalDist().inv_cdf``) on (0, 1); a float
    for scalar input, an array of the input's shape otherwise.  NaN is
    outside the domain and rejected like 0 and 1."""
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    x = np.fromiter(map(_STANDARD_NORMAL.inv_cdf, arr.ravel().tolist()), float, arr.size)
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)


def sample_points(packet: GaussianPacket, sampler: QmcSampler) -> np.ndarray:
    """Deterministic Gaussian sample of the packet's Wigner density.

    Returns an (N, 2d) array: Halton points mapped through the normal
    quantile, scaled by sqrt(eps/2) and shifted to the packet center.
    """
    u = halton_sequence(sampler.count, 2 * packet.d, sampler.skip)
    return packet.center + np.sqrt(packet.epsilon / 2.0) * inverse_normal_cdf(u)
