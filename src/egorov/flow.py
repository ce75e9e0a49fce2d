"""Symplectic integration of the classical flow for kinetic-plus-potential
Hamiltonians.

Phase points are numpy arrays of shape ``(..., 2d)``: positions in
``z[..., :d]``, momenta in ``z[..., d:]``.  Leading axes batch independent
trajectories; the propagators never modify their input, so trajectories for
distinct sample points can be mapped over in parallel with no shared state.

The building blocks are the exact kinetic flow (:func:`drift`) and the exact
potential flow (:func:`kick`, with the Hamiltonian sign p <- p - t DV), each
updating an ``(x, p)`` pair of arrays in place.  x = kick_scale q is the
potential's kick coordinate (``Potential.kick_scale``, an exact power of
two; 1/2 for the torsional potential, whose force then reads tan(x) with no
halving pass), so the kinetic flow for time s is ``drift(kick_scale * s)``.
The propagators run them on x = kick_scale q and a copy of p, and hand each
snapshot on as q = x / kick_scale: scaling by a power of two is exact, so
every snapshot has the bits of a run in (q, p), apart from results of
subnormal size.  Their Strang composition is second order.
Higher even orders compose it symmetrically (Yoshida, Phys. Lett. A 150, 262
(1990)): order 4 is the triple jump, and orders 6 and 8 are the minimal
compositions of Yoshida's Table 2, solutions A (7 stages) and D (15 stages).
:func:`split_snapshots` runs a composition with adjacent half-drifts merged;
the correction tensors and the grid reference
(:func:`reference.reference_expectations`) step through it too, both at
order 4.  :func:`propagate_snapshots` hands each snapshot to an optional
observer as the run reaches it, so an ensemble chunk that reduces its
snapshots keeps one of them alive, not the whole time series.
"""

from __future__ import annotations

import numpy as np

from .potentials import Potential

__all__ = [
    "drift",
    "kick",
    "strang_step",
    "yoshida_coefficients",
    "step_count",
    "split_snapshots",
    "propagate",
    "propagate_snapshots",
]


def drift(t: float, state):
    """Exact kinetic flow on an (x, p) pair: x += t p, p unchanged.  With
    x = kick_scale q it moves q by time t / kick_scale.  Updates x in place
    and returns the pair."""
    x, p = state
    x += t * p
    return state


def kick(t: float, state, potential: Potential):
    """Exact potential flow on an (x, p) pair in the potential's kick
    coordinates, x = kick_scale q: p -= t DV(q), x unchanged, by
    ``potential.kick``.  Updates p in place and returns the pair."""
    x, p = state
    potential.kick(t, x, p)
    return state


def _kick_pair(z: np.ndarray, scale: float):
    """The (x, p) pair of phase points z, x = scale q, both fresh arrays."""
    d = z.shape[-1] // 2
    return np.multiply(z[..., :d], scale), z[..., d:].copy()


def _phase_point(state, scale: float) -> np.ndarray:
    """The phase point (q, p) of an (x, p) pair, q = x / scale, a new array."""
    x, p = state
    return np.concatenate((x / scale, p), axis=-1)


def strang_step(tau: float, z: np.ndarray, potential: Potential) -> np.ndarray:
    """Symmetric second-order step: half drift, full kick, half drift.  It
    composes the flows :func:`propagate_snapshots` runs, on z's halves in
    kick coordinates."""
    scale = potential.kick_scale
    half = scale * (0.5 * tau)
    state = drift(half, _kick_pair(np.asarray(z, dtype=float), scale))
    state = kick(tau, state, potential)
    return _phase_point(drift(half, state), scale)


# Yoshida (1990), Table 2: w_1 .. w_m of the symmetric compositions
# [w_m .. w_1, w_0, w_1 .. w_m] of a second-order step, w_0 = 1 - 2 sum w_i.
# The order-4 entry is the triple jump, gamma = 1 / (2 - 2^(1/3)).
_YOSHIDA_W = {
    2: (),
    4: (1.0 / (2.0 - 2.0 ** (1.0 / 3.0)),),
    # Solution A.
    6: (-0.117767998417887e1, 0.235573213359357e0, 0.784513610477560e0),
    # Solution D.
    8: (
        0.102799849391985e0, -0.196061023297549e1, 0.193813913762276e1,
        -0.158240635368243e0, -0.144485223686048e1, 0.253693336566229e0,
        0.914844246229740e0,
    ),
}


def yoshida_coefficients(order: int) -> np.ndarray:
    """Sub-step scalings of the symmetric composition of a second-order base
    step: 1, 3, 7 and 15 entries for orders 2, 4, 6 and 8, summing to 1.

    Order 4 is the triple jump; orders 6 and 8 are Yoshida's minimal
    compositions (Phys. Lett. A 150, 262 (1990), Table 2, solutions A and D).
    """
    if order not in _YOSHIDA_W:
        raise ValueError(f"order must be one of 2, 4, 6, 8, got {order}")
    w = np.array(_YOSHIDA_W[order])
    return np.concatenate((w[::-1], [1.0 - 2.0 * np.sum(w)], w))


def step_count(t: float, tau: float) -> int:
    """Number of steps covering [0, t] at nominal step tau.

    The count is rounded to the nearest integer and the step rescaled to
    t / n, keeping all trajectories on a shared time grid; a duration that
    would round to zero steps (or is not a near-multiple of tau) is
    rejected.
    """
    if tau <= 0:
        raise ValueError("step size must be positive")
    if t < 0:
        raise ValueError("duration must be nonnegative")
    ratio = t / tau
    if not np.isfinite(ratio):
        raise ValueError(f"duration {t} takes too many steps of {tau} to count")
    n = round(ratio)
    if t > 0 and n == 0:
        raise ValueError(f"duration {t} is not commensurate with step {tau}")
    if n and abs(ratio - n) > 0.01:
        raise ValueError(f"duration {t} is not commensurate with step {tau}")
    return n


def split_snapshots(state, times, tau: float, order: int, a_flow, b_flow):
    """Symmetric split steps A(s/2) B(s) A(s/2), s = c tau over the Yoshida
    scalings c of ``order``, yielding the state at each snapshot time.

    Each trailing A half-flow merges with the next leading one, across steps
    too, and is flushed only at a snapshot: exact when A leaves its own
    right-hand side frozen, A(a) A(b) = A(a + b), up to rounding.  The flows
    return the new state and may update it in place.
    """
    coeffs = yoshida_coefficients(order).tolist()
    t_prev = 0.0
    for t_snap in times:
        seg = t_snap - t_prev
        if seg < 0:
            raise ValueError("snapshot times must be nondecreasing")
        n = step_count(seg, tau)
        if n:
            subs = [c * (seg / n) for c in coeffs]
            pending = 0.0
            for _ in range(n):
                for s in subs:
                    state = a_flow(pending + 0.5 * s, state)
                    state = b_flow(s, state)
                    pending = 0.5 * s
            state = a_flow(pending, state)
        t_prev = t_snap
        yield state


def propagate(
    z0: np.ndarray, t: float, tau: float, order: int, potential: Potential
) -> np.ndarray:
    """Propagate phase points through the flow for duration t."""
    return propagate_snapshots(z0, [t], tau, order, potential)[0]


def propagate_snapshots(
    z0: np.ndarray, times: np.ndarray, tau: float, order: int, potential: Potential,
    observe=None,
) -> list:
    """States at each requested time, from one continuous propagation, or
    what ``observe`` returns for each of them.

    ``times`` must be nondecreasing and start at >= 0; each segment between
    consecutive snapshot times is covered by whole steps of nominal size tau.
    Drift (A) and kick (B) update, in place, x = kick_scale q and a copy of
    p, both contiguous; A runs for kick_scale times its step.  Each snapshot
    is a new (..., 2d) array, with q = x / kick_scale.  Without ``observe``
    the list holds them all; with it, each goes through ``observe(z)`` as
    soon as it is reached and only the results are kept, so the propagation
    holds the live (x, p) pair and one snapshot at a time.
    """
    scale = potential.kick_scale
    snaps = split_snapshots(
        _kick_pair(np.asarray(z0, dtype=float), scale), times, tau, order,
        lambda s, state: drift(scale * s, state),
        lambda s, state: kick(s, state, potential),
    )
    if observe is None:
        return [_phase_point(snap, scale) for snap in snaps]
    return [observe(_phase_point(snap, scale)) for snap in snaps]
