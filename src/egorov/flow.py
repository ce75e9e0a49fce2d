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
Both take an optional trailing scratch block for their intermediates; with
none, numpy allocates them.
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

Both steppers work on arrays from :func:`aligned_rows`, whose rows start on
64-byte boundaries, so that numpy's AVX-512 loops store whole cache lines:
the transport's (x, p) pair and its kick and drift scratch here, the
correction's rows and scratch in :mod:`egorov.correction`.  Each is made
once per run of a stepper, that is once per ensemble chunk, and owned by it.
Where an array sits changes no bit of an elementwise result.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import Potential

__all__ = [
    "aligned_rows",
    "drift",
    "kick",
    "strang_step",
    "yoshida_coefficients",
    "step_count",
    "split_snapshots",
    "propagate",
    "propagate_snapshots",
]


def drift(t: float, state, scratch=None):
    """Exact kinetic flow on an (x, p) pair: x += t p, p unchanged.  With
    x = kick_scale q it moves q by time t / kick_scale.  Updates x in place
    and returns the pair.  t p is written into ``scratch[0]``, an array of
    x's shape, or a fresh array when ``scratch`` is None."""
    x, p = state
    x += np.multiply(t, p, out=None if scratch is None else scratch[0])
    return state


def kick(t: float, state, potential: Potential, scratch=None):
    """Exact potential flow on an (x, p) pair in the potential's kick
    coordinates, x = kick_scale q: p -= t DV(q), x unchanged, by
    ``potential.kick``, which may use the two rows of ``scratch``, each of
    x's shape, for its intermediates.  Updates p in place and returns the
    pair."""
    x, p = state
    potential.kick(t, x, p, scratch)
    return state


def aligned_rows(k: int, shape: tuple) -> np.ndarray:
    """k rows of ``shape`` as one uninitialised float64 array, each row
    starting on a 64-byte boundary: a view of one buffer, with the row
    stride padded up to whole 64-byte lines.

    numpy's allocations are only 16-byte aligned, and its AVX-512 loops
    store whole 64-byte vectors: on an AVX-512 Xeon a (5000, 2)
    ``np.multiply`` into an aligned row takes about half the time it takes
    into one 16, 32 or 48 bytes past a line (3.3-4.1 us against 6.7-7.7 us,
    best of 9).  The values, and so the bits of every elementwise result,
    do not depend on where an array sits."""
    n = math.prod(shape)
    stride = -(-n // 8) * 8
    buffer = np.empty(k * stride + 7)
    strides = tuple(8 * math.prod(shape[i + 1:]) for i in range(len(shape)))
    return np.ndarray(
        (k, *shape), buffer=buffer, offset=-buffer.ctypes.data % 64,
        strides=(8 * stride, *strides),
    )


def _kick_pair(z: np.ndarray, scale: float):
    """The (x, p) pair of phase points z, x = scale q: the two rows of a
    fresh :func:`aligned_rows` array."""
    d = z.shape[-1] // 2
    x, p = aligned_rows(2, z.shape[:-1] + (d,))
    np.multiply(z[..., :d], scale, out=x)
    p[...] = z[..., d:]
    return x, p


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
    return the new state and may update it in place.  ``times`` must start
    at >= 0 and be nondecreasing.
    """
    coeffs = yoshida_coefficients(order).tolist()
    t_prev = 0.0
    for i, t_snap in enumerate(times):
        seg = t_snap - t_prev
        if seg < 0:
            raise ValueError(
                f"snapshot times must {'be nondecreasing' if i else 'start at >= 0'}"
            )
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
    p, the two rows of one :func:`aligned_rows` array; A runs for kick_scale
    times its step.  Both write their intermediates into a two-row
    :func:`aligned_rows` scratch block that this call owns, so every stage
    writes into cache-line aligned arrays made once per call, that is once
    per ensemble chunk.  Each snapshot is a new (..., 2d) array, with
    q = x / kick_scale.  Without ``observe`` the list holds them all; with
    it, each goes through ``observe(z)`` as soon as it is reached and only
    the results are kept, so the propagation holds the live (x, p) pair and
    one snapshot at a time.
    """
    scale = potential.kick_scale
    pair = _kick_pair(np.asarray(z0, dtype=float), scale)
    # A pair of rows, not the array: the stages index no views.
    scratch = tuple(aligned_rows(2, pair[0].shape))
    snaps = split_snapshots(
        pair, times, tau, order,
        lambda s, state: drift(scale * s, state, scratch),
        lambda s, state: kick(s, state, potential, scratch),
    )
    if observe is None:
        return [_phase_point(snap, scale) for snap in snaps]
    return [observe(_phase_point(snap, scale)) for snap in snaps]
