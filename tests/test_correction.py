"""Correction-tensor dynamics: the per-coordinate block layout, exact
sub-flows against the flat general-form derivative, splitting steps, and a2
evaluation."""

from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import egorov.correction as correction_mod
from egorov.correction import (
    FIELDS,
    CorrectionState,
    a2_eval,
    evolve_correction,
    evolve_correction_snapshots,
    f2_step,
    f4_step,
    scratch_block,
    sub_flow_psi1,
    sub_flow_psi2,
    sub_flow_psi3,
)
from egorov.flow import drift, kick, step_count, yoshida_coefficients
from egorov.observables import Observable, default_names, make_observable
from egorov.oracle import GeneralCorrectionState, Hamiltonian, evolve_general, general_rhs
from egorov.potentials import (
    free_potential,
    harmonic_potential,
    torsional_potential,
)
from egorov.tensor_ops import apply_J_triple, tilde_d3

from conftest import (
    ALIGNMENT_SHAPES,
    kick_pair,
    kick_point,
    phase_pair,
    phase_point,
    starts_on_cache_lines,
)

STATE_FIELDS = (
    "q", "p",
    "lam1", "lam2", "lam3", "lam4",
    "gam1", "gam21", "gam22", "gam3", "xi1", "xi2",
)
# The fields each exact sub-flow advances (psi1 advances q alone).
PSI2_FIELDS = ("p", "lam2", "lam4", "gam21", "gam22", "xi2")
PSI3_FIELDS = ("lam1", "lam3", "gam1", "gam3", "xi1")
# The field holding each block, by the block's slot pattern: the slots that
# address momenta (1) rather than positions (0).  Lambda is symmetric, so its
# blocks on the three orderings of one pattern share a field.
LAMBDA_FIELDS = {
    (0, 0, 0): "lam1",
    (1, 0, 0): "lam2", (0, 1, 0): "lam2", (0, 0, 1): "lam2",
    (0, 1, 1): "lam3", (1, 0, 1): "lam3", (1, 1, 0): "lam3",
    (1, 1, 1): "lam4",
}
GAMMA_FIELDS = {(0, 0): "gam1", (1, 0): "gam21", (0, 1): "gam22", (1, 1): "gam3"}
XI_FIELDS = {(0,): "xi1", (1,): "xi2"}
POTENTIALS = {
    "torsional": torsional_potential,
    "harmonic": lambda d: harmonic_potential(d, (1.0, 2.0, 0.5)[:d]),
    "free": free_potential,
}


def state_gap(a: CorrectionState, b: CorrectionState) -> float:
    return max(
        float(np.max(np.abs(getattr(a, f) - getattr(b, f)))) for f in STATE_FIELDS
    )


def make_state(**fields) -> CorrectionState:
    """A state at t = 0 whose rows are copies of the named fields."""
    return CorrectionState(np.stack([np.asarray(fields[f], dtype=float) for f in FIELDS]))


def random_state(rng, d=2) -> CorrectionState:
    """Random phase point and random per-coordinate blocks, (d,) each.  The
    three Lambda blocks of one field are equal, so Lambda is symmetric: the
    layout holds no other kind."""
    return make_state(**{f: rng.standard_normal(d) for f in STATE_FIELDS})


def cross_coordinate(n_slots: int, d: int) -> np.ndarray:
    """Mask of the entries of a (2d)^n_slots phase-space tensor whose
    indices address more than one coordinate (index j and j + d share
    coordinate j)."""
    coord = np.indices((2 * d,) * n_slots) % d
    return np.any(coord != coord[0], axis=0)


@pytest.fixture(scope="module")
def evolved_t1():
    """Block state at t=1 for the standard torsional trajectory, tau=1e-3."""
    pot = torsional_potential(2)
    z0 = np.array([1.0, 0.5, 0.0, 0.0])
    return evolve_correction(z0, 1.0, 1e-3, pot), pot


class TestCorrectionState:
    def test_initial_tensors_vanish(self, z0):
        s = CorrectionState.initial(z0)
        np.testing.assert_array_equal(s.q, [1.0, 0.5])
        np.testing.assert_array_equal(s.p, [0.0, 0.0])
        assert s.t == 0.0
        for f in STATE_FIELDS[2:]:
            np.testing.assert_array_equal(getattr(s, f), 0.0)

    def test_full_tensor_round_trip(self):
        # Scatter the per-coordinate blocks into full tensors and gather
        # them back, in d = 1, 2 and 3: nothing is lost.
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            s = random_state(rng, d)
            flat = GeneralCorrectionState.from_block(s)
            assert flat.lam.shape == (2 * d,) * 3 and flat.gam.shape == (2 * d,) * 2
            assert flat.xi.shape == (2 * d,)
            assert state_gap(flat.to_block(), s) == 0.0

    def test_block_split_covers_everything(self):
        # Every same-coordinate entry of a full tensor belongs to exactly one
        # field: distinct values on all of them, one per field and
        # coordinate, come back through the fields once each and reassemble
        # the tensor exactly; no overlaps, no gaps.  Lambda's fields are
        # keyed by the number of momentum slots, since its blocks on the
        # orderings of one pattern share a field; Gamma's by the pattern.
        for d in (1, 2, 3):
            for n_slots, fields in ((3, STATE_FIELDS[2:6]), (2, STATE_FIELDS[6:10])):
                same = ~cross_coordinate(n_slots, d)
                index = np.indices((2 * d,) * n_slots)
                slots, coord = index // d, index % d
                key = slots.sum(axis=0) if n_slots == 3 else 2 * slots[0] + slots[1]
                full = np.where(same, 1.0 + key * d + coord[0], 0.0)
                lam = full if n_slots == 3 else np.zeros((2 * d,) * 3)
                gam = full if n_slots == 2 else np.zeros((2 * d,) * 2)
                s = GeneralCorrectionState(
                    np.zeros(2 * d), lam, gam, np.zeros(2 * d)
                ).to_block()
                gathered = np.concatenate([getattr(s, f) for f in fields])
                np.testing.assert_array_equal(np.sort(gathered), np.unique(full[same]))
                flat = GeneralCorrectionState.from_block(s)
                np.testing.assert_array_equal(flat.lam if n_slots == 3 else flat.gam, full)

    def test_batched_initial(self):
        z = np.zeros((5, 3, 4))
        s = CorrectionState.initial(z)
        assert s.q.shape == (5, 3, 2)
        for f in STATE_FIELDS[2:]:
            assert getattr(s, f).shape == (5, 3, 2)
        flat = GeneralCorrectionState.from_block(s)
        assert flat.lam.shape == (5, 3, 4, 4, 4)
        assert flat.gam.shape == (5, 3, 4, 4)


class TestGeneralRhs:
    def test_zero_state_derivative_is_pure_source(self, ham_torsional_2d, z0):
        s = GeneralCorrectionState.initial(z0)
        dz, dlam, dgam, dxi = general_rhs(s, ham_torsional_2d)
        np.testing.assert_allclose(dz[:2], z0[2:])
        np.testing.assert_allclose(dz[2:], -np.sin(z0[:2]))
        expected_c1 = apply_J_triple(tilde_d3(ham_torsional_2d.derivatives(z0)[2]))
        np.testing.assert_allclose(dlam, expected_c1, atol=1e-15)
        np.testing.assert_array_equal(dgam, 0.0)
        np.testing.assert_array_equal(dxi, 0.0)

    def test_harmonic_zero_state_stays_zero(self, ham_harmonic_2d):
        s = GeneralCorrectionState.initial(np.array([0.3, -0.2, 0.5, 0.1]))
        _, dlam, dgam, dxi = general_rhs(s, ham_harmonic_2d)
        np.testing.assert_array_equal(dlam, 0.0)
        np.testing.assert_array_equal(dgam, 0.0)
        np.testing.assert_array_equal(dxi, 0.0)

    def test_matches_block_rhs_after_reordering(self):
        # The flat-form derivative, split into the block layout, must equal
        # the increments (sub_flow(t, s) - s) / t of the exact sub-flows,
        # which are linear in t: psi1 moves q, psi2 the momentum-type fields
        # and psi3 the position-type ones, at an arbitrary per-coordinate
        # state.  Random blocks make every coupling act, and with d >= 2 a
        # derivative diagonal applied to the wrong coordinate shows here.
        # The sub-flows update in place, so each steps a copy of s.
        rng = np.random.default_rng(25)
        t = 0.37
        for d in (1, 2, 3):
            pot = torsional_potential(d)
            for _ in range(5):
                s = random_state(rng, d)
                gen = GeneralCorrectionState.from_block(s)
                dz, dlam, dgam, dxi = general_rhs(gen, Hamiltonian(pot))
                dblock = GeneralCorrectionState(dz, dlam, dgam, dxi).to_block()
                for stepped, fields in (
                    (sub_flow_psi1(t, s.copy()), ("q",)),
                    (sub_flow_psi2(t, s.copy(), pot), PSI2_FIELDS),
                    (sub_flow_psi3(t, s.copy(), pot), PSI3_FIELDS),
                ):
                    for f in fields:
                        np.testing.assert_allclose(
                            getattr(dblock, f),
                            (getattr(stepped, f) - getattr(s, f)) / t,
                            rtol=0.0, atol=1e-12, err_msg=f"d={d} {f}",
                        )

    @settings(max_examples=25, deadline=None)
    @given(
        potential=st.one_of(
            st.integers(1, 3).map(torsional_potential),
            st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3, unique=True).map(
                lambda stiffness: harmonic_potential(3, stiffness)
            ),
        ),
        data=st.data(),
    )
    def test_separable_rhs_keeps_coordinates_apart(self, potential, data):
        # The invariant the per-coordinate layout rests on: at any
        # per-coordinate state the flat-form derivative of a separable
        # potential has exactly zero entries that mix two coordinates, so
        # the flow never leaves the layout.
        d = potential.d
        values = data.draw(arrays(float, (len(STATE_FIELDS), d), elements=st.floats(-2.0, 2.0)))
        s = make_state(**dict(zip(STATE_FIELDS, values)))
        _, dlam, dgam, _ = general_rhs(
            GeneralCorrectionState.from_block(s), Hamiltonian(potential)
        )
        np.testing.assert_array_equal(dlam[cross_coordinate(3, d)], 0.0)
        np.testing.assert_array_equal(dgam[cross_coordinate(2, d)], 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        potential=st.one_of(
            st.integers(1, 3).map(torsional_potential),
            st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3, unique=True).map(
                lambda stiffness: harmonic_potential(3, stiffness)
            ),
        ),
        data=st.data(),
    )
    def test_symmetric_state_keeps_lambda_symmetric(self, potential, data):
        # The invariant the merged Lambda fields rest on: at any symmetric
        # per-coordinate state the flat-form dLambda is unchanged by every
        # permutation of its three indices, so the flow keeps Lambda
        # symmetric.  The flat form sums each mode's product in its own
        # order, so the permuted tensors agree to rounding of the largest
        # entry (measured at most 2.2e-16 of it), not bit for bit.
        d = potential.d
        values = data.draw(arrays(float, (len(STATE_FIELDS), d), elements=st.floats(-2.0, 2.0)))
        s = make_state(**dict(zip(STATE_FIELDS, values)))
        _, dlam, _, _ = general_rhs(
            GeneralCorrectionState.from_block(s), Hamiltonian(potential)
        )
        scale = float(np.max(np.abs(dlam)))
        for perm in itertools.permutations(range(3)):
            gap = float(np.max(np.abs(dlam - np.transpose(dlam, perm))))
            assert gap <= 1e-14 * scale, perm


class TestSubFlows:
    def test_psi1_zero_time_identity(self):
        s = random_state(np.random.default_rng(26))
        out = sub_flow_psi1(0.0, s.copy())
        assert state_gap(out, s) == 0.0

    def test_psi1_agrees_with_drift(self):
        s = random_state(np.random.default_rng(27))
        before = s.copy()
        out = sub_flow_psi1(0.4, s)
        np.testing.assert_array_equal(out.z, phase_point(drift(0.4, phase_pair(before.z))))
        # tensors are passed through without copying
        for f in STATE_FIELDS[2:]:
            assert getattr(out, f) is getattr(s, f)

    def test_psi2_zero_time_identity(self, torsional_2d):
        s = random_state(np.random.default_rng(28))
        assert state_gap(sub_flow_psi2(0.0, s.copy(), torsional_2d), s) == 0.0

    def test_psi2_from_initial_state(self, torsional_2d, z0):
        # With Psi3 = 0 only the inhomogeneity acts: the momentum picks up
        # -t DV and the all-momentum block of the full tensor -t tilde D3V.
        s = CorrectionState.initial(z0)
        t = 0.3
        out = sub_flow_psi2(t, s.copy(), torsional_2d)
        np.testing.assert_allclose(out.p, -t * np.sin(z0[:2]))
        np.testing.assert_allclose(
            GeneralCorrectionState.from_block(out).lam[2:, 2:, 2:],
            -t * tilde_d3(torsional_2d.third(z0[:2])),
        )
        np.testing.assert_array_equal(out.q, s.q)
        for f in ("lam1", "lam2", "lam3", "gam1", "gam21", "gam22", "gam3", "xi1", "xi2"):
            np.testing.assert_array_equal(getattr(out, f), 0.0)

    def test_psi3_zero_time_identity(self, torsional_2d):
        s = random_state(np.random.default_rng(29))
        assert state_gap(sub_flow_psi3(0.0, s.copy(), torsional_2d), s) == 0.0

    def test_psi3_ignores_momentum(self, torsional_2d, z0):
        # A state whose Psi2 tensor blocks vanish feeds nothing into Psi3:
        # no A3 column acts on the momentum entries.  The Psi3 blocks are
        # random, to rule out trivial passing.
        rng = np.random.default_rng(30)
        start = CorrectionState.initial(np.array([1.0, 0.5, 0.8, -0.3]))
        s = make_state(
            **{f: getattr(start, f) for f in FIELDS}
            | {f: rng.standard_normal(2) for f in PSI3_FIELDS}
        )
        out = sub_flow_psi3(0.7, s.copy(), torsional_2d)
        assert state_gap(out, s) == 0.0

    def test_psi3_time_linearity(self, torsional_2d):
        s = random_state(np.random.default_rng(31))
        once = sub_flow_psi3(0.8, s.copy(), torsional_2d)
        twice = sub_flow_psi3(0.4, sub_flow_psi3(0.4, s.copy(), torsional_2d), torsional_2d)
        assert state_gap(once, twice) <= 1e-14

    def test_psi2_psi3_commute_with_batching(self, torsional_2d):
        rng = np.random.default_rng(32)
        states = [random_state(rng) for _ in range(3)]
        batched = make_state(
            **{
                f: np.stack([getattr(s, f) for s in states])
                for f in STATE_FIELDS
            }
        )
        out = sub_flow_psi2(0.2, batched, torsional_2d)
        for i, s in enumerate(states):
            single = sub_flow_psi2(0.2, s, torsional_2d)
            for f in STATE_FIELDS:
                np.testing.assert_allclose(getattr(out, f)[i], getattr(single, f), atol=1e-15)


class TestSplittingSteps:
    def test_f2_reversibility(self, torsional_2d):
        s = evolve_correction(np.array([1.0, 0.5, 0.0, 0.0]), 0.5, 1e-2, torsional_2d)
        back = f2_step(-0.05, f2_step(0.05, s, torsional_2d), torsional_2d)
        assert state_gap(back, s) <= 1e-12

    def test_f2_phase_part_is_kick_centered_strang(self, torsional_2d):
        # The phase-space components of f2 traverse kick(tau/2), drift(tau),
        # kick(tau/2) -- the kick-centered Strang variant (the classical
        # propagator uses the drift-centered one; the two differ by O(tau^3)
        # per step but are built from the same exact sub-flows).
        s = random_state(np.random.default_rng(33))
        tau = 0.21
        out = f2_step(tau, s, torsional_2d)
        half_kick = kick(0.5 * tau, kick_pair(s.z, torsional_2d), torsional_2d)
        drifted = drift(torsional_2d.kick_scale * tau, half_kick)
        expected = kick(0.5 * tau, drifted, torsional_2d)
        np.testing.assert_allclose(out.z, kick_point(expected, torsional_2d), atol=1e-14)

    def test_f4_self_convergence_ratio(self, torsional_2d, z0):
        ref = evolve_correction(z0, 1.0, 1e-4, torsional_2d)
        err_coarse = state_gap(evolve_correction(z0, 1.0, 0.02, torsional_2d), ref)
        err_fine = state_gap(evolve_correction(z0, 1.0, 0.01, torsional_2d), ref)
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_harmonic_tensors_stay_exactly_zero(self):
        pot = harmonic_potential(2, (1.0, 2.0))
        s = CorrectionState.initial(np.array([1.0, 0.5, 0.2, -0.1]))
        for _ in range(50):
            s = f4_step(0.05, s, pot)
        for f in STATE_FIELDS[2:]:
            np.testing.assert_array_equal(getattr(s, f), 0.0)

    def test_f4_advances_time(self, torsional_2d, z0):
        s = CorrectionState.initial(z0)
        s = f4_step(0.25, s, torsional_2d)
        assert s.t == pytest.approx(0.25)


class TestEvolveCorrection:
    def test_zero_duration_keeps_zero_tensors(self, torsional_2d, z0):
        s = evolve_correction(z0, 0.0, 1e-3, torsional_2d)
        for f in STATE_FIELDS[2:]:
            np.testing.assert_array_equal(getattr(s, f), 0.0)

    def test_matches_general_form_oracle(self, torsional_2d, ham_torsional_2d, z0):
        # Independent cross-check: flat-form tensors integrated by classic
        # RK4 at tau=1e-4 against the split-step blocks at tau=1e-3.
        block = evolve_correction(z0, 1.0, 1e-3, torsional_2d)
        general = evolve_general(z0, 1.0, 1e-4, ham_torsional_2d)
        assert state_gap(general.to_block(), block) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(
        point=st.integers(1, 3).flatmap(
            lambda d: arrays(float, 2 * d, elements=st.floats(-2.0, 2.0))
        ),
        steps=st.integers(0, 50),
    )
    def test_matches_general_form_in_dimensions_1_to_3(self, point, steps):
        # Criterion 8's bound in d = 1, 2 and 3, to t <= 0.5 in steps of
        # 1e-2: the integrated tensors of every dimension agree.
        pot = torsional_potential(point.size // 2)
        t = steps * 1e-2
        block = evolve_correction(point, t, 1e-2, pot)
        general = evolve_general(point, t, 1e-2, Hamiltonian(pot))
        assert state_gap(general.to_block(), block) <= 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full_tensors_match_general_form_oracle(self, d):
        # The 12 fields scattered onto every block of the full tensors, each
        # merged Lambda field onto all three of its blocks, against the flat
        # form integrated by RK4: no gather picks one block of the oracle's.
        pot = torsional_potential(d)
        z0 = np.random.default_rng(70 + d).uniform(-1.5, 1.5, 2 * d)
        block = GeneralCorrectionState.from_block(evolve_correction(z0, 0.5, 1e-2, pot))
        general = evolve_general(z0, 0.5, 1e-2, Hamiltonian(pot))
        for name in ("z", "lam", "gam", "xi"):
            np.testing.assert_allclose(
                getattr(block, name), getattr(general, name), rtol=0.0, atol=1e-8,
                err_msg=name,
            )

    @settings(max_examples=10, deadline=None)
    @given(
        point=arrays(float, 6, elements=st.floats(-2.0, 2.0)),
        stiffness=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3, unique=True),
        steps=st.integers(0, 50),
    )
    def test_harmonic_3d_both_forms_stay_exactly_zero(self, point, stiffness, steps):
        pot = harmonic_potential(3, stiffness)
        t = steps * 1e-2
        block = evolve_correction(point, t, 1e-2, pot)
        general = evolve_general(point, t, 1e-2, Hamiltonian(pot))
        for f in STATE_FIELDS[2:]:
            np.testing.assert_array_equal(getattr(block, f), 0.0)
        for tensor in (general.lam, general.gam, general.xi):
            np.testing.assert_array_equal(tensor, 0.0)

    def test_lambda_symmetric_at_t5(self, torsional_2d, z0):
        s = evolve_correction(z0, 5.0, 1e-2, torsional_2d)
        lam = GeneralCorrectionState.from_block(s).lam
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_allclose(lam, np.transpose(lam, perm), atol=1e-10)

    def test_snapshots_match_direct_evolution(self, torsional_2d, z0):
        times = np.array([0.0, 0.25, 1.0])
        snaps = evolve_correction_snapshots(z0, times, 1e-2, torsional_2d)
        assert len(snaps) == 3
        for t_snap, snap in zip(times, snaps):
            direct = evolve_correction(z0, float(t_snap), 1e-2, torsional_2d)
            assert state_gap(snap, direct) <= 1e-13

    def test_snapshots_reject_decreasing_times(self, torsional_2d, z0):
        with pytest.raises(ValueError, match="nondecreasing"):
            evolve_correction_snapshots(z0, [0.5, 0.25], 1e-2, torsional_2d)

    def test_batched_evolution_matches_loop(self, torsional_2d):
        rng = np.random.default_rng(34)
        batch = rng.uniform(-1.0, 1.0, size=(4, 4))
        together = evolve_correction(batch, 0.5, 1e-2, torsional_2d)
        for i in range(4):
            single = evolve_correction(batch[i], 0.5, 1e-2, torsional_2d)
            for f in STATE_FIELDS:
                np.testing.assert_allclose(
                    getattr(together, f)[i], getattr(single, f), atol=1e-14
                )


@settings(max_examples=15, deadline=None)
@given(
    points=arrays(float, st.tuples(st.integers(2, 4), st.just(4)),
                  elements=st.floats(-1.5, 1.5)),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_fused_correction_matches_unfused_f2_and_per_point(points, gaps):
    # The shared driver merges the psi2 half-flows of adjacent f2 steps;
    # batched and per-point runs agree, and both match the unmerged triple
    # jump of f2_step up to rounding.
    pot = torsional_potential(2)
    tau = 0.125
    times = tau * np.cumsum(gaps)
    batched = evolve_correction_snapshots(points, times, tau, pot)
    for i, point in enumerate(points):
        state, t_prev = CorrectionState.initial(point), 0.0
        singles = evolve_correction_snapshots(point, times, tau, pot)
        for t, got, single in zip(times, batched, singles):
            n = step_count(t - t_prev, tau)
            for _ in range(n):
                for c in yoshida_coefficients(4):
                    state = f2_step(c * ((t - t_prev) / n), state, pot)
            t_prev = t
            for f in STATE_FIELDS:
                np.testing.assert_allclose(
                    getattr(got, f)[i], getattr(single, f), rtol=0.0, atol=1e-14
                )
                np.testing.assert_allclose(
                    getattr(single, f), getattr(state, f), rtol=0.0, atol=1e-13
                )


def per_field_psi1(t, s):
    return {**{f: getattr(s, f) for f in STATE_FIELDS}, "q": s.q + t * s.p}


def per_field_psi2(t, s, potential):
    """psi2 field by field, each update written as x + t * (increment), with
    one term per block of the 16-block form; m3 and m4 are the diagonals of
    -D3V and -D4V."""
    g, c2, m3, m4 = potential.diagonals(s.q)
    c2_lam1 = c2 * s.lam1
    return {
        **{f: getattr(s, f) for f in STATE_FIELDS},
        "p": s.p - t * g,
        "lam2": s.lam2 + t * (-c2_lam1 + s.lam3 + s.lam3),
        "lam4": s.lam4 + t * (
            -(c2 * s.lam3) - c2 * s.lam3 - c2 * s.lam3 + (1.0 / 6.0) * m3
        ),
        "gam21": s.gam21 + t * (m3 * s.lam1 - c2 * s.gam1 + s.gam3),
        "gam22": s.gam22 + t * (-(s.gam1 * c2) + s.gam3),
        "xi2": s.xi2 + t * (m4 * s.lam1 + 3.0 * (m3 * s.gam1) - c2 * s.xi1),
    }


def per_field_psi3(t, s, potential):
    """psi3 field by field, each update written as x + t * (increment), with
    one term per block of the 16-block form; m3 is the diagonal of -D3V."""
    _, c2, m3, _ = potential.diagonals(s.q)
    return {
        **{f: getattr(s, f) for f in STATE_FIELDS},
        "lam1": s.lam1 + t * (s.lam2 + s.lam2 + s.lam2),
        "lam3": s.lam3 + t * (s.lam4 - c2 * s.lam2 - c2 * s.lam2),
        "gam1": s.gam1 + t * (s.gam21 + s.gam22),
        "gam3": s.gam3 + t * (m3 * s.lam2 - c2 * s.gam22 - s.gam21 * c2),
        "xi1": s.xi1 + t * s.xi2,
    }


class TestInPlaceStepper:
    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_snapshots_own_their_memory(self, name, d, n, monkeypatch):
        # One state is stepped in place: z0 stays as it was, every snapshot
        # but the last (repeated times too) is a copy apart from the others
        # and from the live state, the last is the live rows, and a second
        # run gives the same arrays.  Each evolution makes one scratch block
        # and hands it to every sub-flow call; no snapshot, copy or second
        # evolution shares it.
        pot = POTENTIALS[name](d)
        z0 = np.random.default_rng(40 + d).uniform(-1.5, 1.5, (n, 2 * d))
        kept = z0.copy()
        times = [0.0, 0.25, 0.25, 0.75]
        live, blocks, made = [], [], []
        make_block = correction_mod.scratch_block

        def recording(flow):
            def recorded(*args):
                live.append(args[1])
                blocks.append(args[-1])
                return flow(*args)

            return recorded

        def recording_block(shape):
            made.append(make_block(shape))
            return made[-1]

        for flow in (sub_flow_psi1, sub_flow_psi2, sub_flow_psi3):
            monkeypatch.setattr(correction_mod, flow.__name__, recording(flow))
        monkeypatch.setattr(correction_mod, "scratch_block", recording_block)
        snaps = evolve_correction_snapshots(z0, times, 0.125, pot)
        assert z0.tobytes() == kept.tobytes()
        assert live and all(state.rows is live[0].rows for state in live)
        assert len(made) == 1 and all(block is made[0] for block in blocks)
        dx, diagonal_rows = made[0]
        assert dx.rows.shape == live[0].rows.shape
        assert not np.shares_memory(dx.rows.base, live[0].rows)
        for i, snap in enumerate(snaps):
            assert snap.t == times[i]
            assert not np.shares_memory(snap.rows, z0)
            assert not np.shares_memory(snap.rows, dx.rows.base)
            for other in snaps[i + 1:]:
                assert not np.shares_memory(snap.rows, other.rows)
            if i < len(snaps) - 1:
                assert not np.shares_memory(snap.rows, live[0].rows)
        assert snaps[-1].rows is live[0].rows
        copied = live[0].copy()
        assert not np.shares_memory(copied.rows, dx.rows.base)
        blocks.clear()
        again = evolve_correction_snapshots(z0, times, 0.125, pot)
        assert len(made) == 2 and all(block is made[1] for block in blocks)
        assert not np.shares_memory(made[1][0].rows.base, dx.rows.base)
        for snap, repeat in zip(snaps, again, strict=True):
            assert snap.t == repeat.t
            assert snap.rows.tobytes() == repeat.rows.tobytes()

    def test_f2_step_hands_one_block_to_its_sub_flows(self, monkeypatch):
        # f2_step makes one scratch block and passes it to all five of its
        # sub-flow calls.
        pot = torsional_potential(2)
        state = random_state(np.random.default_rng(46), 2)
        blocks = []

        def recording(flow):
            def recorded(*args):
                blocks.append(args[-1])
                return flow(*args)

            return recorded

        for flow in (sub_flow_psi1, sub_flow_psi2, sub_flow_psi3):
            monkeypatch.setattr(correction_mod, flow.__name__, recording(flow))
        f2_step(0.1, state, pot)
        assert len(blocks) == 5 and blocks[0] is not None
        assert all(block is blocks[0] for block in blocks)

    @pytest.mark.parametrize("name, d", [("torsional", 2), ("harmonic", 3), ("free", 1)])
    def test_observer_sees_each_snapshot_in_time_order(self, name, d):
        # Each snapshot goes to the observer, passed positionally, as it is
        # reached: a state at its time whose rows are the live rows, not a
        # copy.  The results are the observer's on the default list, bit
        # for bit.
        pot = POTENTIALS[name](d)
        z0 = np.random.default_rng(60 + d).uniform(-1.5, 1.5, (30, 2 * d))
        times = [0.0, 0.25, 0.25, 0.75]
        observables = [make_observable(obs, pot) for obs in default_names(d)]
        seen, views = [], []

        def observe(state):
            seen.append((state.t, state.rows.tobytes()))
            views.append(state.rows)
            return np.sum(a2_eval(observables, state), axis=-1)

        got = evolve_correction_snapshots(z0, times, 0.125, pot, observe)
        snaps = evolve_correction_snapshots(z0, times, 0.125, pot)
        assert [snap.t for snap in snaps] == times
        assert seen == [(snap.t, snap.rows.tobytes()) for snap in snaps]
        assert all(np.shares_memory(view, views[0]) for view in views)
        assert len(got) == len(times)
        for result, snap in zip(got, snaps):
            want = np.sum(a2_eval(observables, snap), axis=-1)
            assert result.tobytes() == want.tobytes()

    @pytest.mark.parametrize("observed", [False, True])
    def test_last_snapshot_is_not_copied(self, observed, monkeypatch):
        # Without an observer every snapshot but the last is copied, and the
        # last is the live state's rows, since no step follows it; with one,
        # nothing is copied and each snapshot is observed on the live rows.
        pot = torsional_potential(2)
        z0 = np.random.default_rng(45).uniform(-1.5, 1.5, (8, 4))
        events, live = [], []
        copy = CorrectionState.copy
        psi2 = correction_mod.sub_flow_psi2

        def recording_psi2(t, state, potential, scratch=None):
            live.append(state.rows)
            return psi2(t, state, potential, scratch)

        def recording_copy(state):
            events.append(("copy", state.t))
            return copy(state)

        def observe(state):
            events.append(("observe", state.t, state.rows))
            return state.t

        monkeypatch.setattr(correction_mod, "sub_flow_psi2", recording_psi2)
        monkeypatch.setattr(CorrectionState, "copy", recording_copy)
        times = [0.0, 0.25, 0.5]
        got = evolve_correction_snapshots(z0, times, 0.125, pot, observe if observed else None)
        if observed:
            assert got == times
            assert [event[:2] for event in events] == [("observe", t) for t in times]
            assert all(event[2] is live[0] for event in events)
        else:
            assert events == [("copy", 0.0), ("copy", 0.25)]
            assert got[-1].rows is live[0] and got[-1].t == 0.5

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_sub_flows_keep_per_field_rounding(self, name, d):
        # The in-place row-group updates give the bits of the per-field
        # expressions x + t * (increment), signed zeros included; a quarter
        # of the entries are +0 or -0 so the signs of zero sums act.
        pot = POTENTIALS[name](d)
        rng = np.random.default_rng(43 + d)
        values = rng.standard_normal((len(STATE_FIELDS), 6, d))
        signed_zero = rng.integers(0, 8, values.shape)
        values[signed_zero == 0] = 0.0
        values[signed_zero == 1] = -0.0
        s = make_state(**dict(zip(STATE_FIELDS, values)))
        for t in (0.3, -0.7):
            for flow, per_field in (
                (lambda s: sub_flow_psi1(t, s), lambda s: per_field_psi1(t, s)),
                (lambda s: sub_flow_psi2(t, s, pot), lambda s: per_field_psi2(t, s, pot)),
                (lambda s: sub_flow_psi3(t, s, pot), lambda s: per_field_psi3(t, s, pot)),
            ):
                want = per_field(s)
                got = flow(s.copy())
                for f in STATE_FIELDS:
                    assert getattr(got, f).tobytes() == want[f].tobytes(), f

    def test_fields_are_rows_of_one_array(self):
        s = random_state(np.random.default_rng(41), 3)
        assert s.rows.shape == (12, 3)
        for i, name in enumerate(correction_mod.FIELDS):
            assert np.shares_memory(getattr(s, name), s.rows)
            np.testing.assert_array_equal(getattr(s, name), s.rows[i])
        assert sorted(correction_mod.FIELDS) == sorted(STATE_FIELDS)


class TestAlignedRows:
    @pytest.mark.parametrize("n, d", ALIGNMENT_SHAPES)
    def test_rows_and_scratch_start_on_cache_lines(self, n, d):
        z0 = np.random.default_rng(n).uniform(-1.5, 1.5, (n, 2 * d))
        state = CorrectionState.initial(z0)
        dx, _ = scratch_block(state.q.shape)
        assert state.rows.shape == dx.rows.shape == (12, n, d)
        assert starts_on_cache_lines(state.rows)
        assert starts_on_cache_lines(dx.rows)
        assert not np.shares_memory(state.rows, dx.rows)
        np.testing.assert_array_equal(state.z, z0)
        assert not np.any(state.rows[2:])

    @pytest.mark.parametrize("n, d", ALIGNMENT_SHAPES)
    def test_bits_match_a_run_on_misaligned_rows(self, n, d, monkeypatch):
        # The live rows and the scratch rows sit on cache lines; the same
        # run on plain arrays that start 8 bytes past a 16-byte boundary,
        # never on a cache line, gives the same bytes, and so do its a2 sums.
        pot = torsional_potential(d)
        z0 = np.random.default_rng(n).uniform(-1.5, 1.5, (n, 2 * d))
        times = [0.0, 0.0625, 0.125]
        observables = [make_observable(obs, pot) for obs in default_names(d)]

        def run():
            sums = evolve_correction_snapshots(
                z0, times, 0.03125, pot, lambda state: np.sum(a2_eval(observables, state), -1)
            )
            snaps = evolve_correction_snapshots(z0, times, 0.03125, pot)
            return [a.tobytes() for a in sums], [snap.rows.tobytes() for snap in snaps]

        aligned = run()
        made = []

        def misaligned_rows(k, shape):
            made.append(np.empty(k * int(np.prod(shape)) + 1)[1:].reshape(k, *shape))
            return made[-1]

        monkeypatch.setattr(correction_mod, "aligned_rows", misaligned_rows)
        assert aligned == run()
        # Each of the two runs makes its live rows and one scratch block.
        assert len(made) == 4 and all(rows.ctypes.data % 16 == 8 for rows in made)


    @pytest.mark.parametrize("n, d", ALIGNMENT_SHAPES)
    def test_diagonal_rows_come_from_the_scratch_allocation(self, n, d):
        # Potential.diagonals writes into three more rows of the scratch
        # block's allocation, aligned, beside the twelve increment rows.  A
        # state holds no scratch: only its rows, its time and views of them.
        dx, diagonal_rows = scratch_block((n, d))
        assert diagonal_rows.shape == (3, n, d)
        assert starts_on_cache_lines(diagonal_rows)
        assert diagonal_rows.base is dx.rows.base
        assert not np.shares_memory(diagonal_rows, dx.rows)
        state = CorrectionState.initial(np.zeros((n, 2 * d)))
        assert set(vars(state)) == {"rows", "t", *FIELDS, "psi2_rows", "psi3_rows", "lam2_to_gam22"}
        assert all(
            np.shares_memory(value, state.rows)
            for name, value in vars(state).items() if name not in ("rows", "t")
        )

    @pytest.mark.parametrize(
        "make", [lambda: torsional_potential(2), lambda: harmonic_potential(2, (1.0, 2.0)),
                 lambda: free_potential(2)],
        ids=["torsional", "harmonic", "free"],
    )
    def test_sub_flows_allocate_no_array(self, make):
        # Given a scratch block, the sub-flows write into it and the state's
        # own rows: no call allocates as much as one row, and the state moves
        # as it does on a block each sub-flow makes for itself.
        pot = make()
        z0 = np.random.default_rng(3).uniform(-1.5, 1.5, (5000, 4))
        state, fresh = CorrectionState.initial(z0), CorrectionState.initial(z0)
        scratch = scratch_block(state.q.shape)
        flows = [lambda s, *block: sub_flow_psi1(0.1, s, *block),
                 lambda s, *block: sub_flow_psi2(0.1, s, pot, *block),
                 lambda s, *block: sub_flow_psi3(0.1, s, pot, *block)]
        for flow in flows:
            flow(state, scratch)
            flow(fresh)
        assert state.rows.tobytes() == fresh.rows.tobytes()
        tracemalloc.start()
        try:
            for flow in flows:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                flow(state, scratch)
                assert tracemalloc.get_traced_memory()[1] - before < state.q.nbytes
        finally:
            tracemalloc.stop()


def constant_observable(d: int) -> Observable:
    zeros2, zeros3 = np.zeros((2 * d, 2 * d)), np.zeros((2 * d,) * 3)
    return Observable(
        name="one",
        value=lambda z: np.ones(np.asarray(z).shape[:-1]),
        grad=lambda z: np.zeros(np.asarray(z).shape),
        hess=lambda z: np.broadcast_to(zeros2, np.asarray(z).shape[:-1] + zeros2.shape),
        third=lambda z: np.broadcast_to(zeros3, np.asarray(z).shape[:-1] + zeros3.shape),
        diagonals=lambda z: (gather_diagonals(np.zeros(np.asarray(z).shape), 1, d), {}, {}),
    )


def gather_diagonals(full: np.ndarray, order: int, d: int) -> dict:
    """{slot pattern: (..., d)}: the same-coordinate diagonal of every block
    of a (..., 2d, ..., 2d) tensor with ``order`` trailing axes."""
    j = np.arange(d)
    return {
        pattern: full[(..., *(s * d + j for s in pattern))]
        for pattern in np.ndindex((2,) * order)
    }


def dense_a2(obs: Observable, state: CorrectionState) -> np.ndarray:
    """a2 read off the dense derivative tensors: the entries of obs.grad,
    obs.hess and obs.third on each block's reversed slot pattern, gathered
    with one index per slot, times the block diagonal and the order's
    weight, added per coordinate in order 1, 2, 3 and then by ascending
    reversed pattern, and summed over the coordinates."""
    d, z = state.d, state.z
    j = np.arange(d)
    total = np.zeros(z.shape[:-1] + (d,))
    for weight, full, fields in (
        (1.0, obs.grad(z), XI_FIELDS),
        (3.0, obs.hess(z), GAMMA_FIELDS),
        (1.0, obs.third(z), LAMBDA_FIELDS),
    ):
        for pattern, name in sorted(fields.items(), key=lambda item: item[0][::-1]):
            entry = full[(..., *(s * d + j for s in pattern[::-1]))]
            total += weight * entry * getattr(state, name)
    return -0.25 * total.sum(axis=-1)


class TestA2Eval:
    def test_zero_at_time_zero(self, torsional_2d, z0):
        s = CorrectionState.initial(z0)
        for name in ("q1", "q2", "p1", "p2", "kinetic", "potential", "total"):
            assert a2_eval(make_observable(name, torsional_2d), s) == 0.0

    def test_frozen_values_at_t1(self, evolved_t1):
        # Deterministic split-step run (tau=1e-3); values cross-checked
        # against the brute-force quadrature oracle to ~1e-11 relative.
        state, pot = evolved_t1
        expected = {
            "q1": -0.00019252459556848116,
            "p1": -0.0011852462524842163,
            "kinetic": -0.0037454296521140886,
            "potential": 0.0037454296521225606,
        }
        for name, value in expected.items():
            got = float(a2_eval(make_observable(name, pot), state))
            assert got == pytest.approx(value, abs=5e-12), name

    def test_kinetic_and_potential_corrections_cancel(self, evolved_t1):
        # a = h is conserved, so the kinetic and potential corrections are
        # opposite up to integration error.
        state, pot = evolved_t1
        kin = float(a2_eval(make_observable("kinetic", pot), state))
        pot_corr = float(a2_eval(make_observable("potential", pot), state))
        assert kin + pot_corr == pytest.approx(0.0, abs=1e-12)

    def test_total_energy_correction_stays_small(self, torsional_2d, z0):
        # {h, h} brackets vanish identically, so a2 for the energy is pure
        # splitting error: O(tau^4), measured 1.7e-10 at tau = 2^-8 out to
        # t = 15.
        times = np.arange(0.0, 15.5, 3.0)
        snaps = evolve_correction_snapshots(z0, times, 2.0**-8, torsional_2d)
        obs = make_observable("total", torsional_2d)
        for snap in snaps:
            assert abs(float(a2_eval(obs, snap))) <= 1e-8

    def test_constant_observable_exactly_zero(self, torsional_2d, z0):
        s = evolve_correction(z0, 1.0, 1e-2, torsional_2d)
        assert a2_eval(constant_observable(2), s) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        point=arrays(float, 4, elements=st.floats(-2.0, 2.0)),
        stiffness=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
    )
    def test_harmonic_corrections_all_zero(self, point, stiffness):
        # A quadratic potential has D3V = D4V = 0, so the tensors have no
        # source: they and every a2 vanish exactly, not just to rounding.
        pot = harmonic_potential(2, stiffness)
        s = evolve_correction(point, 2.0, 1e-2, pot)
        for f in STATE_FIELDS[2:]:
            np.testing.assert_array_equal(getattr(s, f), 0.0)
        for name in ("q1", "p2", "kinetic", "potential", "total"):
            assert a2_eval(make_observable(name, pot), s) == 0.0

    def test_gather_matches_dense_scatter_formula(self):
        # a2_eval reads only the stored diagonals; the defining formula
        # contracts the scattered full tensors with index order kji / ji.
        # Unsymmetric random derivative tensors tell the slot orders apart,
        # and the observable's diagonals, keyed by its own slot patterns, are
        # read on each block's reversed pattern.
        rng = np.random.default_rng(37)
        for d in (1, 2, 3):
            state = make_state(
                **{f: rng.standard_normal((5, d)) for f in STATE_FIELDS}
            )
            tensors = [rng.standard_normal((5,) + (2 * d,) * k) for k in (1, 2, 3)]
            diagonals = tuple(gather_diagonals(tensors[k - 1], k, d) for k in (1, 2, 3))
            obs = Observable(
                name="random", value=lambda z: np.zeros(z.shape[:-1]),
                grad=lambda z: tensors[0], hess=lambda z: tensors[1],
                third=lambda z: tensors[2], diagonals=lambda z: diagonals,
            )
            flat = GeneralCorrectionState.from_block(state)
            dense = -0.25 * (
                np.einsum("...ijk,...kji->...", tensors[2], flat.lam)
                + 3.0 * np.einsum("...ij,...ji->...", tensors[1], flat.gam)
                + np.einsum("...i,...i->...", tensors[0], flat.xi)
            )
            np.testing.assert_allclose(a2_eval(obs, state), dense, rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(a2_eval(obs, state), dense_a2(obs, state))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_matches_dense_contraction(self, name, d):
        # The built-in observables hand a2_eval their block diagonals; the
        # values, signed zeros included, are those of the gather from the
        # dense derivative tensors.
        pot = POTENTIALS[name](d)
        z0 = np.random.default_rng(42 + d).uniform(-1.5, 1.5, (40, 2 * d))
        for state in evolve_correction_snapshots(z0, [0.0, 0.5, 1.5], 2.0**-5, pot):
            for obs_name in default_names(d):
                obs = make_observable(obs_name, pot)
                got, want = a2_eval(obs, state), dense_a2(obs, state)
                np.testing.assert_array_equal(got, want, err_msg=obs_name)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bits_do_not_depend_on_state_layout(self, d):
        # The same rows as a C-contiguous array, in Fortran order and as a
        # strided view of a larger array give the same bits.
        pot = torsional_potential(d)
        z0 = np.random.default_rng(50 + d).uniform(-1.5, 1.5, (100, 2 * d))
        (state,) = evolve_correction_snapshots(z0, [1.0], 2.0**-5, pot)
        wide = np.zeros((len(FIELDS), 200, 2 * d))
        wide[:, ::2, 1::2] = state.rows
        layouts = {
            "fortran": CorrectionState(np.asfortranarray(state.rows)),
            "strided": CorrectionState(wide[:, ::2, 1::2]),
        }
        observables = [make_observable(name, pot) for name in default_names(d)]
        want = a2_eval(observables, state)
        for layout, other in layouts.items():
            assert a2_eval(observables, other).tobytes() == want.tobytes(), layout

    def test_batched_evaluation(self, torsional_2d):
        batch = np.random.default_rng(35).uniform(-1.0, 1.0, size=(6, 4))
        s = evolve_correction(batch, 0.5, 1e-2, torsional_2d)
        obs = make_observable("q1", torsional_2d)
        vals = a2_eval(obs, s)
        assert vals.shape == (6,)
        one = evolve_correction(batch[2], 0.5, 1e-2, torsional_2d)
        np.testing.assert_allclose(vals[2], a2_eval(obs, one), atol=1e-14)


class TestGeneralCorrectionState:
    def test_initial_zeros(self, z0):
        s = GeneralCorrectionState.initial(z0)
        np.testing.assert_array_equal(s.lam, np.zeros((4, 4, 4)))
        np.testing.assert_array_equal(s.gam, np.zeros((4, 4)))
        np.testing.assert_array_equal(s.xi, np.zeros(4))

    def test_block_round_trip(self):
        rng = np.random.default_rng(36)
        for d in (1, 2, 3):
            s = random_state(rng, d)
            back = GeneralCorrectionState.from_block(s).to_block()
            assert state_gap(back, s) == 0.0

    def test_to_block_rejects_cross_coordinate_entry(self):
        # The layout has no place for an entry that mixes two coordinates,
        # so a single nonzero one is an error, not silently dropped.
        flat = GeneralCorrectionState.from_block(random_state(np.random.default_rng(23)))
        for index in ((0, 1, 0), (0, 3, 2), (3, 2, 2)):
            lam = flat.lam.copy()
            lam[index] = 1e-300
            with pytest.raises(ValueError, match="mixes two coordinates"):
                replace(flat, lam=lam).to_block()
        for index in ((2, 1), (0, 1)):
            gam = flat.gam.copy()
            gam[index] = -0.5
            with pytest.raises(ValueError, match="mixes two coordinates"):
                replace(flat, gam=gam).to_block()

    def test_to_block_takes_lambda_symmetric_to_rounding(self):
        # The flat-form references are symmetric up to rounding only; a gap
        # of a few units in the last place between two blocks that share a
        # field is accepted, and the field is read from the first block.
        s = random_state(np.random.default_rng(24), 2)
        flat = GeneralCorrectionState.from_block(s)
        lam = flat.lam.copy()
        lam[0, 0, 2] = np.nextafter(lam[0, 0, 2], np.inf)
        lam[2, 2, 0] = np.nextafter(lam[2, 2, 0], -np.inf)
        back = replace(flat, lam=lam).to_block()
        assert state_gap(back, s) == 0.0

    def test_to_block_rejects_asymmetric_lambda(self):
        # Two blocks that share a field and differ beyond rounding have no
        # place in the layout.
        flat = GeneralCorrectionState.from_block(random_state(np.random.default_rng(22)))
        for index in ((0, 0, 2), (2, 0, 0), (2, 0, 2), (3, 3, 1)):
            lam = flat.lam.copy()
            lam[index] += 1e-9 * np.max(np.abs(lam))
            with pytest.raises(ValueError, match="share a row"):
                replace(flat, lam=lam).to_block()

    def test_zero_duration(self, ham_torsional_2d, z0):
        s = evolve_general(z0, 0.0, 1e-3, ham_torsional_2d)
        np.testing.assert_array_equal(s.z, z0)
        np.testing.assert_array_equal(s.lam, 0.0)
