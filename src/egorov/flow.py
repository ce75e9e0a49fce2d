"""Symplectic integration of the classical flow for kinetic-plus-potential
Hamiltonians.

Phase points are numpy arrays of shape ``(..., 2d)``: positions in
``z[..., :d]``, momenta in ``z[..., d:]``.  Leading axes batch independent
trajectories; the propagators never modify their input, so trajectories for
distinct sample points can be mapped over in parallel with no shared state.

The building blocks are the exact kinetic flow (:func:`drift`) and the exact
potential flow (:func:`kick`, with the Hamiltonian sign p <- p - t DV).
Their Strang composition is second order; higher even orders come from the
Yoshida triple jump, which :func:`split_snapshots` runs with adjacent
half-drifts merged; the correction tensors and the grid reference
(:func:`reference.reference_expectations`) step through it too.
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


def drift(t: float, z: np.ndarray) -> np.ndarray:
    """Exact kinetic flow: q += t p, p unchanged."""
    z = np.asarray(z, dtype=float)
    d = z.shape[-1] // 2
    out = z.copy()
    out[..., :d] += t * z[..., d:]
    return out


def kick(t: float, z: np.ndarray, potential: Potential) -> np.ndarray:
    """Exact potential flow: p -= t DV(q), q unchanged."""
    z = np.asarray(z, dtype=float)
    d = z.shape[-1] // 2
    out = z.copy()
    out[..., d:] -= t * potential.gradient(z[..., :d])
    return out


def strang_step(tau: float, z: np.ndarray, potential: Potential) -> np.ndarray:
    """Symmetric second-order step: half drift, full kick, half drift."""
    z = drift(0.5 * tau, z)
    z = kick(tau, z, potential)
    return drift(0.5 * tau, z)


def yoshida_coefficients(order: int) -> np.ndarray:
    """Sub-step scalings of the triple-jump composition for a symmetric
    second-order base step.

    Level k -> k+2 uses (gamma, 1 - 2 gamma, gamma) with
    gamma = 1 / (2 - 2^(1/(k+1))), so order 2k has 3^(k-1) entries, summing
    to 1 at every level.
    """
    if order not in (2, 4, 6, 8):
        raise ValueError(f"order must be one of 2, 4, 6, 8, got {order}")
    coeffs = np.array([1.0])
    k = 2
    while k < order:
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / (k + 1)))
        coeffs = np.concatenate((gamma * coeffs, (1 - 2 * gamma) * coeffs, gamma * coeffs))
        k += 2
    return coeffs


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
    n = round(t / tau)
    if t > 0 and n == 0:
        raise ValueError(f"duration {t} is not commensurate with step {tau}")
    if n and abs(t / tau - n) > 0.01:
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
    z0: np.ndarray, times: np.ndarray, tau: float, order: int, potential: Potential
) -> list[np.ndarray]:
    """States at each requested time, from one continuous propagation.

    ``times`` must be nondecreasing and start at >= 0; each segment between
    consecutive snapshot times is covered by whole steps of nominal size tau.
    Drift (A) and kick (B) update contiguous copies of q and p in place.
    """
    z0 = np.asarray(z0, dtype=float)
    d = z0.shape[-1] // 2

    def drift_in_place(t, state):
        q, p = state
        q += t * p
        return state

    def kick_in_place(s, state):
        q, p = state
        p -= s * potential.gradient(q)
        return state

    state = (z0[..., :d].copy(), z0[..., d:].copy())
    snaps = split_snapshots(state, times, tau, order, drift_in_place, kick_in_place)
    return [np.concatenate(snap, axis=-1) for snap in snaps]
