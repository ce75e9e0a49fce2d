"""Propagation of the second-order correction tensors alongside the flow.

The correction to the classically transported observable is

    a2(t) = -1/4 ( (D3a o Phi^t)_ijk L^t_kji + 3 (D2a o Phi^t)_ij G^t_ji
                   + (Da o Phi^t)_i X^t_i ),

where the 3-tensor L, matrix G, and vector X start from zero and satisfy a
linear ODE system driven by the flow.  For kinetic-plus-potential
Hamiltonians the third and fourth derivatives of h vanish on momentum
indices, so splitting each tensor by position/momentum index pattern leaves
a sparse block system: with the state grouped as

    Psi1 = q
    Psi2 = (p, L-blocks with one momentum index, all-momentum L-block,
            G-blocks with one momentum index, momentum X-block)
    Psi3 = (all-position L-block, L-blocks with two momentum indices,
            position G-block, momentum-momentum G-block, position X-block)

the derivative of Psi2 depends only on (Psi1, Psi3) and vice versa, plus an
inhomogeneity depending on Psi1 alone.  Each of the three sub-flows is
therefore exact (its right-hand side is frozen along it), and their
symmetric composition gives the second-order step :func:`f2_step`; the
Yoshida triple jump gives :func:`f4_step`.

The sub-flows read the potential's derivatives once per sub-flow, as the
main diagonals returned by ``Potential.diagonals``.  Diagonal derivative
tensors mean a separable potential, V(q) = sum_j V_j(q_j), whose flow
never couples two coordinates: from the zero start every Lambda and Gamma
entry that mixes coordinates stays exactly zero.  So each block is stored as
its same-coordinate diagonal, d numbers, and every mode product becomes an
elementwise product: diag(c) in any slot of the block with diagonal v is the
block with diagonal c v.  :meth:`CorrectionState.lambda_full` and
:meth:`CorrectionState.gamma_full` scatter the diagonals into the full
phase-space tensors that the references read; ``a2_eval`` contracts the
diagonals alone with the matching derivative entries of each observable.  A
potential with coupled derivatives raises NotImplementedError in
``diagonals``.  Beside the run path, this module holds only the conversions
between the block layout and the full tensors.  The independent references, the
unreordered flat form integrated by classic RK4 and the bracket quadrature,
live in :mod:`egorov.oracle`; :mod:`egorov.checks` compares the split-step
tensors with both, and holds the scatter against the Kronecker matrices of
the mode products it replaces.

All states are batched: every field carries leading sample axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow import split_snapshots
from .observables import Observable
from .potentials import Potential
# benchmark/tracing.py wraps egorov.correction.tilde_d3 by attribute.
from .tensor_ops import tilde_d3  # noqa: F401

__all__ = [
    "CorrectionState",
    "sub_flow_psi1",
    "sub_flow_psi2",
    "sub_flow_psi3",
    "f2_step",
    "f4_step",
    "evolve_correction",
    "evolve_correction_snapshots",
    "a2_eval",
]


# The slots of each block's entries that address momenta (1) rather than
# positions (0), in field order.
_LAMBDA_BLOCKS = {
    "lam1": (0, 0, 0), "lam21": (1, 0, 0), "lam22": (0, 1, 0), "lam23": (0, 0, 1),
    "lam31": (0, 1, 1), "lam32": (1, 0, 1), "lam33": (1, 1, 0), "lam4": (1, 1, 1),
}
_GAMMA_BLOCKS = {"gam1": (0, 0), "gam21": (1, 0), "gam22": (0, 1), "gam3": (1, 1)}


def _block(full: np.ndarray, pattern, d: int) -> np.ndarray:
    """View of the block of a full phase-space tensor whose slots run over
    the momenta where ``pattern`` is 1 and over the positions where it is 0."""
    return full[(..., *(slice(m * d, (m + 1) * d) for m in pattern))]


def _diagonal_index(patterns, d: int) -> tuple[np.ndarray, ...]:
    """Index arrays, one per slot, of the same-coordinate diagonals of the
    blocks with the given slot patterns: ``full[(..., *index)]`` holds them
    as (..., n_blocks, d)."""
    patterns = np.asarray(list(patterns))
    j = np.arange(d)
    return tuple(patterns[:, slot, None] * d + j for slot in range(patterns.shape[1]))


def _scatter(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the same-coordinate diagonal v (..., d) onto the main diagonal of
    out (..., d, ..., d), in place, and return out."""
    idx = np.arange(v.shape[-1])
    out[(..., *[idx] * (out.ndim - v.ndim + 1))] = v
    return out


@dataclass(frozen=True)
class CorrectionState:
    """Trajectory-attached correction tensors in the reordered block layout,
    each block stored as its same-coordinate diagonal.

    Block naming: ``lam1`` is the all-position 3-tensor block; ``lam21/22/23``
    carry one momentum index (in slot 1/2/3), ``lam31/32/33`` two momentum
    indices (complement slot 1/2/3), ``lam4`` all momentum.  ``gam21/gam22``
    are the momentum-row / momentum-column matrix blocks, ``gam1/gam3`` the
    pure blocks; ``xi1/xi2`` are the position/momentum vector parts.
    Every field has shape (..., d): entry j of a lam block is the block's
    (j, j, j) entry and entry j of a gam block its (j, j) entry.  The block
    entries that mix two coordinates are zero and not stored.
    """

    q: np.ndarray
    p: np.ndarray
    lam1: np.ndarray
    lam21: np.ndarray
    lam22: np.ndarray
    lam23: np.ndarray
    lam31: np.ndarray
    lam32: np.ndarray
    lam33: np.ndarray
    lam4: np.ndarray
    gam1: np.ndarray
    gam21: np.ndarray
    gam22: np.ndarray
    gam3: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    t: float = 0.0

    @classmethod
    def initial(cls, z0: np.ndarray) -> "CorrectionState":
        """Zero correction tensors attached to phase points z0 (..., 2d)."""
        z0 = np.asarray(z0, dtype=float)
        d = z0.shape[-1] // 2
        zero = np.zeros(z0.shape[:-1] + (d,))
        return cls(
            q=z0[..., :d].copy(), p=z0[..., d:].copy(),
            **{f: zero.copy() for f in (*_LAMBDA_BLOCKS, *_GAMMA_BLOCKS, "xi1", "xi2")},
        )

    @property
    def d(self) -> int:
        return self.q.shape[-1]

    @property
    def z(self) -> np.ndarray:
        """Phase point(s) (..., 2d)."""
        return np.concatenate((self.q, self.p), axis=-1)

    # -- conversions between the block layout and full phase-space tensors --

    def _full(self, blocks) -> np.ndarray:
        d = self.d
        order = len(next(iter(blocks.values())))
        out = np.zeros(self.q.shape[:-1] + (2 * d,) * order)
        for name, pattern in blocks.items():
            _scatter(getattr(self, name), _block(out, pattern, d))
        return out

    def lambda_full(self) -> np.ndarray:
        """Reassembled 3-tensor over phase-space indices, (..., 2d, 2d, 2d)."""
        return self._full(_LAMBDA_BLOCKS)

    def gamma_full(self) -> np.ndarray:
        return self._full(_GAMMA_BLOCKS)

    def xi_full(self) -> np.ndarray:
        return np.concatenate((self.xi1, self.xi2), axis=-1)

    @classmethod
    def from_full(cls, z, lam, gam, xi, t: float = 0.0) -> "CorrectionState":
        """Gather full phase-space tensors into the block layout.

        Raises ValueError if lam or gam has a nonzero entry that mixes two
        coordinates: the layout has no place for it.
        """
        z = np.asarray(z, dtype=float)
        d = z.shape[-1] // 2
        blocks = {}
        for full, table in ((lam, _LAMBDA_BLOCKS), (gam, _GAMMA_BLOCKS)):
            diagonals = full[(..., *_diagonal_index(table.values(), d))]
            blocks.update({name: diagonals[..., b, :] for b, name in enumerate(table)})
        state = cls(
            q=z[..., :d].copy(), p=z[..., d:].copy(),
            **blocks, xi1=xi[..., :d].copy(), xi2=xi[..., d:].copy(), t=t,
        )
        for full, rebuilt in ((lam, state.lambda_full()), (gam, state.gamma_full())):
            if not np.array_equal(full, rebuilt, equal_nan=True):
                raise ValueError(
                    "correction tensor has a nonzero entry that mixes two coordinates"
                )
        return state


def sub_flow_psi1(t: float, state: CorrectionState) -> CorrectionState:
    """Exact drift: q += t p; everything else untouched."""
    return replace(state, q=state.q + t * state.p)


def sub_flow_psi2(t: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Exact sub-flow updating the momentum-type blocks from the frozen
    position-type blocks (plus the inhomogeneity at q)."""
    g, c2, c3, c4 = potential.diagonals(state.q)
    c2_lam1 = c2 * state.lam1
    return replace(
        state,
        p=state.p - t * g,
        lam21=state.lam21 + t * (-c2_lam1 + state.lam33 + state.lam32),
        lam22=state.lam22 + t * (-c2_lam1 + state.lam33 + state.lam31),
        lam23=state.lam23 + t * (-c2_lam1 + state.lam32 + state.lam31),
        # The tilde-weighted third derivative is c3 / 6 on the main diagonal.
        lam4=state.lam4 + t * (
            -(c2 * state.lam31) - c2 * state.lam32 - c2 * state.lam33
            - (1.0 / 6.0) * c3
        ),
        gam21=state.gam21 + t * (-(c3 * state.lam1) - c2 * state.gam1 + state.gam3),
        gam22=state.gam22 + t * (-(state.gam1 * c2) + state.gam3),
        xi2=state.xi2 + t * (
            -c4 * state.lam1 - 3.0 * (c3 * state.gam1) - c2 * state.xi1
        ),
    )


def sub_flow_psi3(t: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Exact sub-flow updating the position-type blocks from the frozen
    momentum-type blocks."""
    _, c2, c3, _ = potential.diagonals(state.q)
    return replace(
        state,
        lam1=state.lam1 + t * (state.lam21 + state.lam22 + state.lam23),
        lam31=state.lam31 + t * (state.lam4 - c2 * state.lam23 - c2 * state.lam22),
        lam32=state.lam32 + t * (state.lam4 - c2 * state.lam23 - c2 * state.lam21),
        lam33=state.lam33 + t * (state.lam4 - c2 * state.lam22 - c2 * state.lam21),
        gam1=state.gam1 + t * (state.gam21 + state.gam22),
        gam3=state.gam3 + t * (
            -(c3 * state.lam23) - c2 * state.gam22 - state.gam21 * c2
        ),
        xi1=state.xi1 + t * state.xi2,
    )


def f2_step(tau: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Symmetric second-order step (Strang composition of the sub-flows)."""
    state = sub_flow_psi2(0.5 * tau, state, potential)
    state = sub_flow_psi1(0.5 * tau, state)
    state = sub_flow_psi3(tau, state, potential)
    state = sub_flow_psi1(0.5 * tau, state)
    state = sub_flow_psi2(0.5 * tau, state, potential)
    return replace(state, t=state.t + tau)


def _snapshots(state: CorrectionState, times, tau: float, potential: Potential):
    """Correction states at each snapshot time: the shared driver at order 4,
    A = psi2 (which freezes its own right-hand side), B = psi1 psi3 psi1."""

    def psi2(t, state):
        return sub_flow_psi2(t, state, potential)

    def psi1_psi3_psi1(s, state):
        state = sub_flow_psi1(0.5 * s, state)
        state = sub_flow_psi3(s, state, potential)
        return sub_flow_psi1(0.5 * s, state)

    return split_snapshots(state, times, tau, 4, psi2, psi1_psi3_psi1)


def f4_step(tau: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Fourth-order triple jump of :func:`f2_step`, with the adjacent psi2
    half-flows merged; tau must be positive."""
    (out,) = _snapshots(state, [tau], tau, potential)
    return replace(out, t=state.t + tau)


def evolve_correction(
    z0: np.ndarray, t: float, tau: float, potential: Potential
) -> CorrectionState:
    """Correction state at time t from zero initial tensors at z0, composed
    fourth-order steps of nominal size tau."""
    return evolve_correction_snapshots(z0, [t], tau, potential)[0]


def evolve_correction_snapshots(
    z0: np.ndarray, times, tau: float, potential: Potential
) -> list[CorrectionState]:
    """Correction states at each snapshot time, from one continuous run."""
    states = _snapshots(CorrectionState.initial(z0), times, tau, potential)
    return [replace(state, t=float(t)) for t, state in zip(times, states)]


def a2_eval(observables, state: CorrectionState) -> np.ndarray:
    """Second-order correction values, one row per observable.

    Only the stored same-coordinate entries of Lambda and Gamma can be
    nonzero, so each block diagonal is contracted with the matching entries
    of the observable's derivative tensors at the transported phase point.
    Those sit on the reversed slot pattern, after the index order (kji / ji)
    of the defining formula.  A single :class:`Observable` gives its row
    alone.
    """
    single = isinstance(observables, Observable)
    z = state.z
    xi = state.xi_full()
    lam = np.stack([getattr(state, name) for name in _LAMBDA_BLOCKS], axis=-2)
    gam = np.stack([getattr(state, name) for name in _GAMMA_BLOCKS], axis=-2)
    lam_index = _diagonal_index((p[::-1] for p in _LAMBDA_BLOCKS.values()), state.d)
    gam_index = _diagonal_index((p[::-1] for p in _GAMMA_BLOCKS.values()), state.d)
    rows = np.stack([
        -0.25 * (
            np.einsum("...bj,...bj->...", obs.third(z)[(..., *lam_index)], lam)
            + 3.0 * np.einsum("...bj,...bj->...", obs.hess(z)[(..., *gam_index)], gam)
            + np.einsum("...i,...i->...", obs.grad(z), xi)
        )
        for obs in ([observables] if single else observables)
    ])
    return rows[0] if single else rows
