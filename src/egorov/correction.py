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
main diagonals returned by ``Potential.diagonals``: those of DV, D2V, -D3V
and -D4V.  Each increment carries the signs of the last two in its
operations, with the bits it has when written with D3V and D4V, so the
only negation pass is the force's, dp = -g.  Diagonal derivative
tensors mean a separable potential, V(q) = sum_j V_j(q_j), whose flow
never couples two coordinates: from the zero start every Lambda and Gamma
entry that mixes coordinates stays exactly zero.  So each block is stored as
its same-coordinate diagonal, d numbers, and every mode product becomes an
elementwise product: diag(c) in any slot of the block with diagonal v is the
block with diagonal c v.  ``a2_eval`` multiplies each derivative entry that
an observable's ``diagonals`` declares, {slot pattern: (..., d)} for every
order, by the state row it pairs with, and sums, so no dense tensor is
built.  A potential with coupled derivatives raises NotImplementedError in
``diagonals``.

Lambda is also symmetric: its source, ``D3_WEIGHT`` D3h, is a
symmetric tensor, and the flow acts on each of its three modes alike, so it
stays symmetric.  Its three blocks with one momentum index are therefore
equal, and so are its three blocks with two, and each triple is one row.
The per-block sub-flows keep each triple bitwise equal, too: once a
triple's inputs are equal, its three increments are the same float
expression.  Merged, two sums become products with the same bits, since a
doubling is exact: the three equal terms of dlam1 add up to 3 lam2, and the
three equal subtractions of dlam4 to -3 (c2 lam3).

The 12 per-coordinate fields are the rows of one (12, ..., d) array, in the
order of :data:`FIELDS`: q, then the rows psi2 advances (p, lam2, lam4,
gam21, gam22, xi2), then the rows psi3 advances (lam1, lam3, gam1, gam3,
xi1).  Each sub-flow updates its own rows in place: it writes the group's
increments into a scratch state of the same shape, scales them by t and
adds them to the group's rows, in the rounding order of the expression
x + t * (increment).  It takes that working memory as a trailing argument,
as the transport's ``drift`` and ``kick`` do: a :func:`scratch_block`, one
allocation of the 12 increment rows and 3 rows for ``Potential.diagonals``.
The run makes the block and every stage takes it: one per run of
:func:`evolve_correction_snapshots`, so chunks of an ensemble stepped in
different threads share nothing, and one per :func:`f2_step`.  Each state
binds its row groups to views once, when it is made, so a sub-flow given a
block allocates no array; given none, it makes its own.  The live rows and
the block's rows each start on a 64-byte boundary
(:func:`egorov.flow.aligned_rows`), so each of the sub-flows' row writes
stores whole AVX-512 vectors into memory the chunk owns.
:func:`evolve_correction_snapshots` can hand each snapshot to an observer
as the run reaches it, so an ensemble chunk that reduces its snapshots
holds the live state alone, not a copy per snapshot time.
A :class:`CorrectionState` is that array and a time,
``CorrectionState(rows, t)``, with each name of :data:`FIELDS` bound to its
row, a view; :data:`BLOCK_PATTERNS` gives each tensor row its blocks of
the full phase-space tensors.  This module holds only the stepper and
``a2_eval``.
The full tensors live in :mod:`egorov.oracle`, whose
``GeneralCorrectionState.from_block`` and ``to_block`` convert between the
two layouts, beside the independent references: the unreordered flat form
integrated by classic RK4, and the bracket quadrature.  :mod:`egorov.checks`
compares the split-step tensors with both.

All states are batched: every field carries leading sample axes.  The
sub-flows update the state they are given; :func:`f2_step`, :func:`f4_step`
and the evolutions step a copy and leave their input as it is.
"""

from __future__ import annotations

import numpy as np

from .flow import aligned_rows, split_snapshots
from .observables import Observable
from .potentials import Potential, coordinate_sum
# benchmark/tracing.py wraps egorov.correction.tilde_d3 by attribute.
from .tensor_ops import D3_WEIGHT, tilde_d3  # noqa: F401

__all__ = [
    "FIELDS",
    "BLOCK_PATTERNS",
    "CorrectionState",
    "scratch_block",
    "sub_flow_psi1",
    "sub_flow_psi2",
    "sub_flow_psi3",
    "f2_step",
    "f4_step",
    "evolve_correction",
    "evolve_correction_snapshots",
    "a2_eval",
]


# The rows of the stacked state: q, the rows psi2 advances, then the rows
# psi3 advances.
FIELDS = (
    "q",
    "p", "lam2", "lam4", "gam21", "gam22", "xi2",
    "lam1", "lam3", "gam1", "gam3", "xi1",
)
(Q, P, LAM2, LAM4, GAM21, GAM22, XI2, LAM1, LAM3, GAM1, GAM3, XI1) = range(len(FIELDS))
# The row groups the sub-flows read and write whole, each bound to a view of
# every state's rows: the rows psi2 advances, the rows psi3 advances, and
# lam2 .. gam22, which psi3 scales by c2.
_ROW_GROUPS = {
    "psi2_rows": slice(P, XI2 + 1),
    "psi3_rows": slice(LAM1, XI1 + 1),
    "lam2_to_gam22": slice(LAM2, GAM22 + 1),
}

# The blocks of Lambda, Gamma or Xi that each tensor row holds, as slot
# patterns: the slots of the block's entries that address momenta (1) rather
# than positions (0); the tensor's order is the pattern's length.  Lambda is
# symmetric, so its blocks on the three orderings of one pattern are one row.
BLOCK_PATTERNS = {
    "lam1": ((0, 0, 0),),
    "lam2": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "lam3": ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    "lam4": ((1, 1, 1),),
    "gam1": ((0, 0),), "gam21": ((1, 0),), "gam22": ((0, 1),), "gam3": ((1, 1),),
    "xi1": ((0,),), "xi2": ((1,),),
}
# The state row that a2_eval pairs with each derivative entry, by the
# entry's slot pattern: the row holding the block on the reversed pattern,
# after the index order (kji / ji / i) of the defining formula.  Sorted by
# order, then by pattern, which is the order a2_eval sums in.
_ENTRY_ROWS = dict(sorted(
    ((p[::-1], FIELDS.index(name)) for name, ps in BLOCK_PATTERNS.items() for p in ps),
    key=lambda item: (len(item[0]), item[0]),
))
# The weights of the orders 1, 2, 3 in a2: Da . Xi + 3 D2a : Gamma + D3a : Lambda.
_ORDER_WEIGHTS = (1.0, 3.0, 1.0)


class CorrectionState:
    """Trajectory-attached correction tensors in the reordered block layout,
    each block stored as its same-coordinate diagonal.

    Block naming: ``lam1`` is the all-position 3-tensor block, ``lam2`` the
    three blocks with one momentum index (in any slot), ``lam3`` the three
    with two, ``lam4`` the all-momentum block; Lambda is symmetric, so the
    blocks of ``lam2`` are equal, and so are those of ``lam3``.
    ``gam21/gam22`` are the momentum-row / momentum-column matrix blocks,
    ``gam1/gam3`` the pure blocks; ``xi1/xi2`` are the position/momentum
    vector parts.  :data:`BLOCK_PATTERNS` gives each field's blocks.
    Every field has shape (..., d): entry j of a lam block is the block's
    (j, j, j) entry and entry j of a gam block its (j, j) entry.  The block
    entries that mix two coordinates are zero and not stored.

    The state is ``rows``, (12, ..., d) in the order of :data:`FIELDS`, at
    time ``t``; it shares the array's memory, and each name in
    :data:`FIELDS` is bound to its row, a view, and each row group the
    sub-flows take whole (``psi2_rows``, ``psi3_rows``, ``lam2_to_gam22``)
    to its view of the rows.  It holds nothing else: the sub-flows take
    their working memory as an argument (:func:`scratch_block`).
    :meth:`initial` takes its rows from :func:`egorov.flow.aligned_rows`,
    starting on a 64-byte boundary, so the sub-flows' AVX-512 loops store
    whole cache lines; :meth:`copy`, which only snapshots without an
    observer use, makes plain contiguous rows.
    """

    def __init__(self, rows: np.ndarray, t: float = 0.0):
        self.rows, self.t = rows, t
        for name, row in zip(FIELDS, rows):
            setattr(self, name, row)
        for name, group in _ROW_GROUPS.items():
            setattr(self, name, rows[group])

    @classmethod
    def initial(cls, z0: np.ndarray) -> "CorrectionState":
        """Zero correction tensors attached to phase points z0 (..., 2d)."""
        z0 = np.asarray(z0, dtype=float)
        d = z0.shape[-1] // 2
        rows = aligned_rows(len(FIELDS), z0.shape[:-1] + (d,))
        rows[Q] = z0[..., :d]
        rows[P] = z0[..., d:]
        rows[P + 1:] = 0.0
        return cls(rows)

    def copy(self) -> "CorrectionState":
        """A state with its own copy of the rows."""
        return CorrectionState(self.rows.copy(), self.t)

    @property
    def d(self) -> int:
        return self.q.shape[-1]

    @property
    def z(self) -> np.ndarray:
        """Phase point(s) (..., 2d)."""
        return np.concatenate((self.q, self.p), axis=-1)


def scratch_block(shape: tuple):
    """The sub-flows' working memory for states whose fields have ``shape``
    (..., d): one :func:`egorov.flow.aligned_rows` allocation of 15 rows,
    as a pair.  First a state on its first 12 rows, which the sub-flows
    overwrite with their increments; then its last 3 rows, which
    ``Potential.diagonals`` writes into."""
    block = aligned_rows(len(FIELDS) + 3, shape)
    return CorrectionState(block[:len(FIELDS)]), block[len(FIELDS):]


def sub_flow_psi1(t: float, state: CorrectionState, scratch=None) -> CorrectionState:
    """Exact drift: q += t p, in place; everything else untouched.  t p is
    written into the q row of the :func:`scratch_block`, or of a fresh one
    when ``scratch`` is None."""
    x, (dx, _) = state, scratch or scratch_block(state.q.shape)
    np.multiply(t, x.p, out=dx.q)
    x.q += dx.q
    return state


def sub_flow_psi2(
    t: float, state: CorrectionState, potential: Potential, scratch=None
) -> CorrectionState:
    """Exact sub-flow updating the momentum-type blocks from the frozen
    position-type blocks (plus the inhomogeneity at q), in place.

    With (g, c2, m3, m4) the diagonals of DV, D2V, -D3V and -D4V, each row x
    moves to x + t * dx, with the increments summed left to right:

        dp     = -g
        dlam2  = lam3 - c2 lam1 + lam3
        dlam4  = (c2 lam3) (-3) + m3 / 6
        dgam21 = m3 lam1 - c2 gam1 + gam3
        dgam22 = gam3 - c2 gam1
        dxi2   = m4 lam1 + (m3 gam1) 3 - c2 xi1

    These are the bits of the increments written with c3 = -m3 and
    c4 = -m4, -c3 lam1 - c2 gam1 + gam3 and so on: a - b is a + (-b), and
    (-a) b is -(a b), so each sign rides in an operation and only dp takes a
    negation pass.  Block by block, dlam4 is ((-y) - y) - y for y = c2 lam3: bitwise
    -3 y, because -y - y is exact.  m3 / 6 stands for m3 times D3_WEIGHT.
    """
    x, (dx, diagonal_rows) = state, scratch or scratch_block(state.q.shape)
    g, c2, m3, m4 = potential.diagonals(x.q, diagonal_rows)
    # dx holds the increments of the psi2 rows; its psi3 rows hold c2 times
    # the matching rows of x, and its q row a product in passing.
    np.multiply(c2, x.psi3_rows, out=dx.psi3_rows)
    np.negative(g, out=dx.p)
    np.subtract(x.lam3, dx.lam1, out=dx.lam2)
    np.add(dx.lam2, x.lam3, out=dx.lam2)
    np.multiply(dx.lam3, -3.0, out=dx.lam4)
    np.multiply(m3, D3_WEIGHT, out=dx.q)
    np.add(dx.lam4, dx.q, out=dx.lam4)
    np.multiply(m3, x.lam1, out=dx.gam21)
    np.subtract(dx.gam21, dx.gam1, out=dx.gam21)
    np.add(dx.gam21, x.gam3, out=dx.gam21)
    np.subtract(x.gam3, dx.gam1, out=dx.gam22)
    np.multiply(m4, x.lam1, out=dx.xi2)
    np.multiply(m3, x.gam1, out=dx.q)
    np.multiply(dx.q, 3.0, out=dx.q)
    np.add(dx.xi2, dx.q, out=dx.xi2)
    np.subtract(dx.xi2, dx.xi1, out=dx.xi2)
    np.multiply(dx.psi2_rows, t, out=dx.psi2_rows)
    np.add(x.psi2_rows, dx.psi2_rows, out=x.psi2_rows)
    return state


def sub_flow_psi3(
    t: float, state: CorrectionState, potential: Potential, scratch=None
) -> CorrectionState:
    """Exact sub-flow updating the position-type blocks from the frozen
    momentum-type blocks, in place.

    With c2 and m3 the diagonals of D2V and -D3V, each row x moves to
    x + t * dx, with the increments summed left to right:

        dlam1 = 3 lam2
        dlam3 = lam4 - c2 lam2 - c2 lam2
        dgam1 = gam21 + gam22
        dgam3 = m3 lam2 - c2 gam22 - c2 gam21
        dxi1  = xi2

    dgam3 has the bits of -c3 lam2 - c2 gam22 - c2 gam21, c3 = -m3, with no
    negation pass.  Block by block, dlam1 is (y + y) + y for y = lam2:
    bitwise 3 y, because y + y is exact.  dlam3's (x - y) - y does not round
    as x - 2 y does.
    """
    x, (dx, diagonal_rows) = state, scratch or scratch_block(state.q.shape)
    _, c2, m3, _ = potential.diagonals(x.q, diagonal_rows)
    # dx holds the increments of the psi3 rows; its rows lam2 .. gam22 hold
    # c2 times the matching rows of x.
    np.multiply(c2, x.lam2_to_gam22, out=dx.lam2_to_gam22)
    np.multiply(x.lam2, 3.0, out=dx.lam1)
    np.subtract(x.lam4, dx.lam2, out=dx.lam3)
    np.subtract(dx.lam3, dx.lam2, out=dx.lam3)
    np.add(x.gam21, x.gam22, out=dx.gam1)
    np.multiply(m3, x.lam2, out=dx.gam3)
    np.subtract(dx.gam3, dx.gam22, out=dx.gam3)
    np.subtract(dx.gam3, dx.gam21, out=dx.gam3)
    np.copyto(dx.xi1, x.xi2)
    np.multiply(dx.psi3_rows, t, out=dx.psi3_rows)
    np.add(x.psi3_rows, dx.psi3_rows, out=x.psi3_rows)
    return state


def f2_step(tau: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Symmetric second-order step (Strang composition of the sub-flows), on
    a copy of the state, with one :func:`scratch_block` for its sub-flows."""
    t, scratch = state.t + tau, scratch_block(state.q.shape)
    state = sub_flow_psi2(0.5 * tau, state.copy(), potential, scratch)
    state = sub_flow_psi1(0.5 * tau, state, scratch)
    state = sub_flow_psi3(tau, state, potential, scratch)
    state = sub_flow_psi1(0.5 * tau, state, scratch)
    state = sub_flow_psi2(0.5 * tau, state, potential, scratch)
    return CorrectionState(state.rows, t)


def _snapshots(state: CorrectionState, times, tau: float, potential: Potential):
    """The live state at each snapshot time, stepped in place by the shared
    driver at order 4, A = psi2 (which freezes its own right-hand side),
    B = psi1 psi3 psi1, every sub-flow on one :func:`scratch_block` made
    here.  The sub-flows are looked up on the module at each call."""
    scratch = scratch_block(state.q.shape)

    def psi2(t, state):
        return sub_flow_psi2(t, state, potential, scratch)

    def psi1_psi3_psi1(s, state):
        state = sub_flow_psi1(0.5 * s, state, scratch)
        state = sub_flow_psi3(s, state, potential, scratch)
        return sub_flow_psi1(0.5 * s, state, scratch)

    return split_snapshots(state, times, tau, 4, psi2, psi1_psi3_psi1)


def f4_step(tau: float, state: CorrectionState, potential: Potential) -> CorrectionState:
    """Fourth-order triple jump of :func:`f2_step`, with the adjacent psi2
    half-flows merged, on a copy of the state; tau must be positive."""
    (out,) = _snapshots(state.copy(), [tau], tau, potential)
    return CorrectionState(out.rows, state.t + tau)


def evolve_correction(
    z0: np.ndarray, t: float, tau: float, potential: Potential
) -> CorrectionState:
    """Correction state at time t from zero initial tensors at z0, composed
    fourth-order steps of nominal size tau."""
    return evolve_correction_snapshots(z0, [t], tau, potential)[0]


def evolve_correction_snapshots(
    z0: np.ndarray, times, tau: float, potential: Potential, observe=None
) -> list:
    """Correction states at each snapshot time, from one continuous run, or
    what ``observe`` returns for each of them.

    One state is stepped in place.  Without ``observe`` each snapshot but
    the last is a copy of its rows, and the list holds them all; the last
    is the live state itself, since no step follows it.  With ``observe``,
    each snapshot goes to it as soon as it is reached, as a state at its
    time whose rows are the live rows themselves: nothing is copied, only
    the results are kept, and the observer must not keep the state, which
    the next step overwrites."""
    states = _snapshots(CorrectionState.initial(z0), times, tau, potential)
    last = len(times) - 1
    out = []
    for i, (t, state) in enumerate(zip(times, states)):
        snap = CorrectionState(state.rows, float(t))
        if observe is not None:
            snap = observe(snap)
        elif i < last:
            snap = snap.copy()
        out.append(snap)
    return out


def a2_eval(observables, state: CorrectionState) -> np.ndarray:
    """Second-order correction values, one row per observable.

    Only the stored same-coordinate entries of Lambda, Gamma and Xi can be
    nonzero, so each is multiplied by the matching entry of the observable's
    derivative at the transported phase point, where the observable's
    ``diagonals`` declares one; no dense derivative tensor is built, and an
    entry it leaves out is zero and skipped.  Per coordinate, the products
    weight x entry x row (weight 1 for Da and D3a, 3 for D2a) are added in
    order 1, 2, 3 and, within an order, by ascending slot pattern; the sum
    over the coordinates, added left to right, times -1/4, is a2.  Every
    step is elementwise on a fresh array, so the bits do not depend on the
    state's memory layout.
    A single :class:`Observable` gives its row alone.
    """
    single = isinstance(observables, Observable)
    observables = [observables] if single else list(observables)
    x, z = state.rows, state.z
    out = np.empty((len(observables),) + z.shape[:-1])
    for i, obs in enumerate(observables):
        diagonals = obs.diagonals(z)
        total = np.zeros(x.shape[1:])
        for pattern, row in _ENTRY_ROWS.items():
            order = len(pattern)
            entry = diagonals[order - 1].get(pattern)
            if entry is not None:
                total += _ORDER_WEIGHTS[order - 1] * entry * x[row]
        out[i] = -0.25 * coordinate_sum(total)
    return out[0] if single else out
