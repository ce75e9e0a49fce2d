"""Phase-space sampling of Gaussian wave packets with Halton points.

The Wigner function of the Gaussian packet used throughout,

    W(z) = (pi eps)^(-d) exp(-|z - (q0, p0)|^2 / eps),

is a normal density with mean (q0, p0) and covariance (eps/2) Id on R^(2d).
Expectation values are quadratures against W, computed quasi-Monte Carlo
style: means over Halton points in (0,1)^(2d), mapped coordinate-wise
through the inverse normal CDF, scaled and shifted.  Everything is deterministic for
fixed (N, skip).  The normal quantile is Wichura's algorithm AS241 (Appl.
Statist. 37, 1988), correct to about 1e-16 relative, evaluated with numpy
exactly as the standard library's ``NormalDist.inv_cdf`` evaluates it, so
both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianPacket",
    "first_primes",
    "halton",
    "halton_sequence",
    "inverse_normal_cdf",
    "sample_points",
]

# AS241's rational approximations, as the standard library writes them
# (``statistics._normal_dist_inv_cdf``): numerator and denominator
# coefficients, highest power first, for |p - 1/2| <= 0.425 in r = 0.180625 -
# (p - 1/2)^2, and for the tails in r = sqrt(-log(min(p, 1 - p))) - 1.6 when
# that root is at most 5, and minus 5 beyond.
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


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

    The digits are added from the lowest up, in float64, as many as the
    largest index has; a shorter index adds zeros past its last digit, which
    leave the sum as it is.  The sum rounds to 1.0 for some large indices
    (``halton(5**22 - 1, 5)``); those come back as the largest double below
    1, so every point lies in (0, 1).  Each digit is remaining - base *
    quotient, with ``np.floor_divide`` for the quotient: numpy vectorizes
    int64 division by a scalar, but not ``np.divmod``."""
    idx = np.asarray(index, dtype=np.int64)
    if np.any(idx < 1):
        raise ValueError("halton indices start at 1")
    out = np.zeros(idx.shape, dtype=float)
    factor, remaining = 1.0 / base, idx
    largest = int(idx.max()) if idx.size else 0
    while largest:
        largest //= base
        quotient = np.floor_divide(remaining, base)
        out += factor * (remaining - base * quotient)
        factor /= base
        remaining = quotient
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


def _horner(coefficients, r):
    """The polynomial with these coefficients, highest power first, at the
    array r, as ``(c0 * r + c1) * r + ...``, accumulated in one new array."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def _rational(pair, r):
    numerator, denominator = pair
    out = _horner(numerator, r)
    out /= _horner(denominator, r)
    return out


def inverse_normal_cdf(u):
    """Standard normal quantile on (0, 1), bitwise ``NormalDist().inv_cdf``;
    a float for scalar input, an array of the input's shape otherwise.  NaN
    is outside the domain and rejected like 0 and 1.

    Each point takes the branch the standard library takes and the same
    operations in the same order.  The tails' logarithm is ``math.log``:
    ``np.log`` (numpy 2.4, x86-64) differs from it in the last bit of about
    2 in 10^4 tail points.  The rest is IEEE arithmetic and ``sqrt``, which
    round the same in both.
    """
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    p = arr.ravel()
    # x holds q = p - 1/2 until each branch overwrites its points with x.
    x = p - 0.5
    central = np.abs(x) <= 0.425
    tail = ~central
    qc, qt = x[central], x[tail]
    r = qc * qc
    np.subtract(0.180625, r, out=r)
    xc = _horner(_CENTRAL[0], r)
    xc *= qc
    xc /= _horner(_CENTRAL[1], r)
    x[central] = xc
    r = np.where(qt <= 0.0, p[tail], 1.0 - p[tail])
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), float, r.size))
    near = r <= 5.0
    xt = np.empty_like(r)
    xt[near] = _rational(_NEAR_TAIL, r[near] - 1.6)
    xt[~near] = _rational(_FAR_TAIL, r[~near] - 5.0)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)


def sample_points(packet: GaussianPacket, count: int, skip: int = 64) -> np.ndarray:
    """Deterministic Gaussian sample of the packet's Wigner density.

    Returns a (count, 2d) array: the Halton points after the first ``skip``
    mapped through the normal quantile, scaled by sqrt(eps/2) and shifted to
    the packet center.
    """
    if count < 1:
        raise ValueError(f"need at least one sample point, got {count}")
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    if skip + count > np.iinfo(np.int64).max:
        raise ValueError("skip + count must not exceed 2**63 - 1")
    points = inverse_normal_cdf(halton_sequence(count, 2 * packet.d, skip))
    points *= np.sqrt(packet.epsilon / 2.0)
    points += packet.center
    return points
