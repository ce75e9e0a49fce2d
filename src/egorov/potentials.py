"""Smooth potentials with analytic derivative tensors up to fourth order.

Every evaluator is batched: positions have shape ``(..., d)`` and the
order-k derivative tensor comes back with shape ``(..., d, ..., d)`` (k
trailing axes).  Derivatives are supplied analytically because the
correction dynamics consume third and fourth derivatives at every step.

Subclasses supply ``value``, ``gradient`` and ``diagonals``: the gradient and
the main diagonals of the second derivative tensor and of the negated third
and fourth, all of which are diagonal for the shipped models.  The signs
ride in the diagonals so that the correction's sub-flows carry them in
their operations, and the torsional kernel hands the same two arrays out
twice.  Diagonal derivatives mean a separable potential,
V(q) = sum_j V_j(q_j): no coordinate's force depends on another coordinate,
so the correction tensors never couple two coordinates either, and the
correction stepper stores each of its blocks per coordinate, exactly.
The run path reads only the gradient and the diagonals.  The dense
``hessian``, ``third`` and ``fourth`` scatter the diagonals by
:func:`scatter_diagonals`, which also builds the observables' dense tensors
and, in :mod:`egorov.oracle`, the Hamiltonian's and the full correction
tensors; only the references, the checks and the tests read them.
``coordinate`` returns the one-dimensional V_j, which the grid reference
propagates one coordinate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Potential",
    "TorsionalPotential",
    "HarmonicPotential",
    "FreePotential",
    "torsional_potential",
    "harmonic_potential",
    "free_potential",
    "scatter_diagonals",
    "coordinate_sum",
]


def scatter_diagonals(blocks: dict, out: np.ndarray) -> np.ndarray:
    """Write each same-coordinate diagonal of ``blocks``, {slot pattern:
    (..., d)}, onto its block of ``out`` in place, and return ``out``.  A
    pattern gives each trailing axis a slot, 0 for positions and 1 for
    momenta; entry j of the block sits at s*d + j along an axis of slot s."""
    for pattern, diagonal in blocks.items():
        d = np.shape(diagonal)[-1]
        out[(..., *(s * d + np.arange(d) for s in pattern))] = diagonal
    return out


def coordinate_sum(x: np.ndarray) -> np.ndarray:
    """The sum over the trailing (coordinate) axis of ``x``, a fresh array,
    added left to right from +0.0: ((0 + x_1) + x_2) + ...  Up to seven
    coordinates ``np.sum(x, axis=-1)`` adds in this order too, signed zeros
    included, and on a short axis it costs several times more than these d
    additions."""
    total = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


class Potential:
    """Base class bundling a potential's value and derivative tensors.

    Subclasses set ``d`` and implement ``value``, ``gradient`` and
    ``diagonals``.  ``kick_scale``, an exact power of two, is the class's
    kick coordinate: ``kick`` reads x = kick_scale q, and scaling by it is
    exact, so a flow run in (x, p) keeps the bits of one run in (q, p).
    A potential whose derivative tensors are not diagonal cannot implement
    ``diagonals`` or ``coordinate``; it raises NotImplementedError there, and
    neither the correction stepper nor the grid reference runs on it.
    Evaluators are pure and re-entrant; instances carry no mutable state.
    """

    d: int
    kick_scale = 1.0

    def value(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diagonals(self, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """(g, c2, m3, m4), each (..., d): the gradient, then the main
        diagonals of D2V, -D3V and -D4V.  Where D3V or D4V vanishes, m3 or m4
        is -0.0, the negation of the zero.  The arrays may be shared with
        each other or with broadcast constants: callers must not write into
        them."""
        raise NotImplementedError

    def kick(self, t: float, x: np.ndarray, p: np.ndarray) -> None:
        """The exact potential flow for time t in kick coordinates,
        x = kick_scale q: p -= t DV(x / kick_scale), in place."""
        p -= t * self.gradient(x / self.kick_scale)

    def coordinate(self, j: int) -> Potential:
        """The one-dimensional potential V_j of coordinate j (0-based) in
        V(q) = sum_j V_j(q_j).  A potential that is not separable raises
        NotImplementedError, as it does in ``diagonals``."""
        raise NotImplementedError

    def hessian(self, q: np.ndarray) -> np.ndarray:
        return self._dense(q, 2)

    def third(self, q: np.ndarray) -> np.ndarray:
        return self._dense(q, 3)

    def fourth(self, q: np.ndarray) -> np.ndarray:
        return self._dense(q, 4)

    def _dense(self, q: np.ndarray, order: int) -> np.ndarray:
        diagonal = self.diagonals(q)[order - 1]
        if order > 2:
            diagonal = -diagonal
        out = np.zeros(np.shape(diagonal)[:-1] + (self.d,) * order)
        return scatter_diagonals({(0,) * order: diagonal}, out)


def _half_angle(q) -> tuple[np.ndarray, np.ndarray]:
    """(t, t^2) for t = tan(q/2), two fresh arrays of q's shape.  With them
    sin q = 2 (t / (1 + t^2)) and cos q = (1 - t^2) / (1 + t^2).  numpy builds
    that vectorize float64 ``tan`` but not ``sin`` and ``cos`` spend far less
    on this than on either of those."""
    x = np.multiply(q, 0.5, out=np.empty(np.shape(q)))
    return _tangent(x, out=x)


def _tangent(x, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, t^2) for t = tan(x): t is written over ``out``, an array of x's
    shape, and t^2 is fresh."""
    t = np.tan(x, out=out)
    return t, np.multiply(t, t, out=np.empty_like(t))


def _sine_over(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sin q = 2 (t / w) for w = 1 + t^2, written over t."""
    np.divide(t, w, out=t)
    t += t
    return t


@dataclass(frozen=True)
class TorsionalPotential(Potential):
    """V(q) = d - sum_j cos(q_j).

    All derivative tensors are diagonal: the order-k diagonal cycles through
    sin, cos, -sin, -cos, so ``diagonals`` returns (sin, cos, sin, cos), its
    two arrays twice.  The force and the diagonals take sin and cos from the
    half-angle identities: with t = tan(q/2),

        sin q = 2t / (1 + t^2),    cos q = (1 - t^2) / (1 + t^2),

    within 2.2e-16 of ``np.sin`` and ``np.cos``.  ``gradient`` and
    ``diagonals`` take t and t^2 once and compute the sine by the same
    operations, so their forces agree bit for bit.  ``kick`` reads the half
    angle itself, x = q/2 (``kick_scale`` is 1/2), and folds the gradient's
    doubling into the step, with the same bits.  ``value`` keeps ``np.cos``.
    """

    d: int
    kick_scale = 0.5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")

    def value(self, q):
        q = np.asarray(q)
        return self.d - coordinate_sum(np.cos(q))

    def gradient(self, q):
        t, w = _half_angle(q)
        w += 1.0
        return _sine_over(t, w)

    def kick(self, t, x, p):
        # x = q/2 needs no halving pass.  DV = 2 u for u = tan(x) / (1 + tan^2),
        # and t (2 u) rounds as (2 t) u, since doubling is exact: the bits of
        # p - t * gradient(q) with two passes fewer.
        u, w = _tangent(x, out=np.empty(np.shape(x)))
        w += 1.0
        np.divide(u, w, out=u)
        u *= 2.0 * t
        p -= u

    def diagonals(self, q):
        t, t2 = _half_angle(q)
        w = t2 + 1.0
        sin = _sine_over(t, w)
        # cos q = (1 - t^2) / (1 + t^2) overwrites t^2.
        cos = np.subtract(1.0, t2, out=t2)
        cos /= w
        # -D3V = sin q and -D4V = cos q.
        return sin, cos, sin, cos

    def coordinate(self, j):
        return TorsionalPotential(1)


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """V(q) = 1/2 sum_j omega_j^2 q_j^2; third and fourth derivatives vanish,
    so the flow is exactly linear and all correction sources are zero."""

    omega: np.ndarray
    d: int = field(init=False)

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if omega.ndim != 1 or not np.all((omega > 0) & np.isfinite(omega)):
            raise ValueError("stiffness must be a vector of positive entries")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "d", omega.shape[0])

    def value(self, q):
        q = np.asarray(q)
        return 0.5 * coordinate_sum(self.omega**2 * q**2)

    def gradient(self, q):
        return self.omega**2 * np.asarray(q)

    def diagonals(self, q):
        q = np.asarray(q)
        minus_zeros = np.full(q.shape, -0.0)
        return (self.gradient(q), np.broadcast_to(self.omega**2, q.shape),
                minus_zeros, minus_zeros)

    def coordinate(self, j):
        return HarmonicPotential(self.omega[j : j + 1])


@dataclass(frozen=True)
class FreePotential(Potential):
    """V = 0: free motion.  Useful as a reference case with exact dynamics."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")

    def value(self, q):
        q = np.asarray(q)
        return np.zeros(q.shape[:-1])

    def gradient(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))

    def diagonals(self, q):
        zeros, minus_zeros = np.zeros(np.shape(q)), np.full(np.shape(q), -0.0)
        return zeros, zeros, minus_zeros, minus_zeros

    def coordinate(self, j):
        return FreePotential(1)


def torsional_potential(d: int) -> TorsionalPotential:
    """Torsional test potential in d dimensions."""
    return TorsionalPotential(d)


def harmonic_potential(d: int, stiffness) -> HarmonicPotential:
    """Harmonic potential with per-axis stiffness (d entries or a scalar)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    omega = np.atleast_1d(np.asarray(stiffness, dtype=float))
    if omega.shape not in ((1,), (d,)):
        raise ValueError(f"stiffness needs one entry or one per dimension, got {omega.size}")
    return HarmonicPotential(np.broadcast_to(omega, (d,)))


def free_potential(d: int) -> FreePotential:
    """Zero potential in d dimensions."""
    return FreePotential(d)
