"""Symplectic flow integration: exact sub-flows, Strang composition,
Yoshida high-order compositions, and their conservation properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import egorov.flow as flow_mod
from egorov.correction import evolve_correction_snapshots
from egorov.flow import (
    aligned_rows,
    drift,
    kick,
    propagate,
    propagate_snapshots,
    split_snapshots,
    step_count,
    strang_step,
    yoshida_coefficients,
)
from egorov.oracle import Hamiltonian
from egorov.potentials import (
    TorsionalPotential,
    free_potential,
    harmonic_potential,
    torsional_potential,
)

from conftest import (
    ALIGNMENT_SHAPES,
    kick_pair,
    kick_point,
    phase_pair,
    phase_point,
    starts_on_cache_lines,
    symplectic_j,
)


class TestDrift:
    def test_zero_time_is_identity(self):
        z = np.array([0.3, -0.7, 1.1, 0.2])
        np.testing.assert_array_equal(phase_point(drift(0.0, phase_pair(z))), z)

    def test_straight_line(self):
        np.testing.assert_array_equal(phase_point(drift(2.0, phase_pair([0.0, 1.0]))), [2.0, 1.0])

    def test_group_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.standard_normal(4)
            s, t = rng.standard_normal(2)
            np.testing.assert_allclose(
                phase_point(drift(t, drift(s, phase_pair(z)))),
                phase_point(drift(t + s, phase_pair(z))),
                atol=1e-14,
            )


class TestKick:
    def test_zero_time_is_identity(self, torsional_2d):
        z = np.array([0.3, -0.7, 1.1, 0.2])
        np.testing.assert_array_equal(phase_point(kick(0.0, phase_pair(z), torsional_2d)), z)

    def test_harmonic_gradient_sign(self):
        # DV = q for unit stiffness, and the kick uses the Hamiltonian sign
        # p <- p - t DV.
        pot = harmonic_potential(1, 1.0)
        out = kick(0.1, (np.array([1.0]), np.array([0.0])), pot)
        np.testing.assert_allclose(phase_point(out), [1.0, -0.1])

    def test_strang_energy_error_third_order_per_step(self, torsional_2d):
        # One kick-drift-kick step changes h by O(tau^3); halving tau shrinks
        # the change by about 8.  The point needs p != 0: the leading error
        # coefficient carries a factor of D2V.p and degenerates to tau^4 at
        # momentum zero.
        ham = Hamiltonian(torsional_2d)
        z = np.array([0.4, -0.3, 0.8, 0.6])
        h0 = ham.value(z)

        scale = torsional_2d.kick_scale

        def energy_error(tau):
            half_kick = kick(tau / 2, kick_pair(z, torsional_2d), torsional_2d)
            stepped = kick(tau / 2, drift(scale * tau, half_kick), torsional_2d)
            return abs(ham.value(kick_point(stepped, torsional_2d)) - h0)

        ratio = energy_error(0.02) / energy_error(0.01)
        assert ratio == pytest.approx(8.0, rel=0.25)


class TestStrangStep:
    def test_harmonic_full_period_return(self):
        # Unit-frequency oscillator: 50 periods bring the exact flow back to
        # the start.  The Strang step rotates by arccos(1 - tau^2/2) per
        # step, a relative frequency excess of tau^2/24, so the phase slips
        # by 100 pi tau^2 / 24 = 1.31e-3 over the run, plus 7.3e-4 because
        # 100 pi / tau rounds to 31416 steps; the measured miss is 2.044e-3.
        pot = harmonic_potential(1, 1.0)
        tau = 0.01
        z = np.array([1.0, 0.0])
        for _ in range(round(100.0 * np.pi / tau)):
            z = strang_step(tau, z, pot)
        np.testing.assert_allclose(z, [1.0, 0.0], atol=2.5e-3)
        assert abs(z[0] - 1.0) <= 1e-5  # the miss is almost purely a phase slip

    def test_reversibility(self, torsional_2d):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(4)
        back = strang_step(-0.1, strang_step(0.1, z, torsional_2d), torsional_2d)
        np.testing.assert_allclose(back, z, atol=1e-12)

    def test_global_error_halving_ratio(self, torsional_2d, z0):
        exact = propagate(z0, 1.0, 1e-5, 2, torsional_2d)
        err_coarse = np.max(np.abs(propagate(z0, 1.0, 0.02, 2, torsional_2d) - exact))
        err_fine = np.max(np.abs(propagate(z0, 1.0, 0.01, 2, torsional_2d) - exact))
        assert 3.5 <= err_coarse / err_fine <= 4.5


class TestYoshidaCoefficients:
    def test_order_two_is_single_step(self):
        np.testing.assert_array_equal(yoshida_coefficients(2), [1.0])

    def test_triple_jump_structure(self):
        # Symmetric compositions [w_m .. w_1, w_0, w_1 .. w_m] summing to 1.
        # Order 4 is the triple jump of order 2; orders 6 and 8 are Yoshida's
        # (1990, Table 2) minimal solutions A and D, not triple jumps.
        published = {
            6: [-0.117767998417887e1, 0.235573213359357e0, 0.784513610477560e0],
            8: [0.102799849391985e0, -0.196061023297549e1, 0.193813913762276e1,
                -0.158240635368243e0, -0.144485223686048e1, 0.253693336566229e0,
                0.914844246229740e0],
        }
        for order, size in ((2, 1), (4, 3), (6, 7), (8, 15)):
            coeffs = yoshida_coefficients(order)
            assert coeffs.size == size
            np.testing.assert_array_equal(coeffs, coeffs[::-1])
            assert np.sum(coeffs) == pytest.approx(1.0, abs=1e-14)
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        lower = yoshida_coefficients(2)
        np.testing.assert_array_equal(
            yoshida_coefficients(4),
            np.concatenate((gamma * lower, (1 - 2 * gamma) * lower, gamma * lower)),
        )
        for order, w in published.items():
            m = len(w)
            np.testing.assert_array_equal(yoshida_coefficients(order)[m + 1:], w)

    def test_order_four_leading_coefficient(self):
        coeffs = yoshida_coefficients(4)
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        np.testing.assert_allclose(coeffs, [gamma, 1 - 2 * gamma, gamma])

    @pytest.mark.parametrize("order", [0, 3, 5, 10])
    def test_rejects_unsupported_orders(self, order):
        with pytest.raises(ValueError):
            yoshida_coefficients(order)


class TestComposeOrder:
    def test_order_two_is_one_strang_step(self, torsional_2d):
        z = np.array([0.4, -0.2, 0.3, 0.8])
        np.testing.assert_allclose(
            propagate(z, 0.1, 0.1, 2, torsional_2d),
            strang_step(0.1, z, torsional_2d),
            rtol=0.0, atol=1e-15,
        )

    def test_order_four_error_ratio_on_harmonic(self):
        pot = harmonic_potential(1, 1.0)

        def exact(t, z):
            c, s = np.cos(t), np.sin(t)
            return np.array([c * z[0] + s * z[1], -s * z[0] + c * z[1]])

        z0 = np.array([1.0, 0.0])
        ref = exact(1.0, z0)
        errs = []
        for tau in (0.05, 0.025):
            errs.append(np.max(np.abs(propagate(z0, 1.0, tau, 4, pot) - ref)))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_order_six_and_eight_error_ratio_on_harmonic(self):
        # Against the exact rotation, halving tau divides the error by about
        # 2^6 = 64 (read 64.0) and 2^8 = 256 (read 258.6).
        pot = harmonic_potential(1, 1.0)
        z0 = np.array([1.0, 0.0])
        ref = np.array([np.cos(4.0), -np.sin(4.0)])

        def err(tau, order):
            return np.max(np.abs(propagate(z0, 4.0, tau, order, pot) - ref))

        assert 48.0 <= err(0.2, 6) / err(0.1, 6) <= 80.0
        assert 200.0 <= err(0.1, 8) / err(0.05, 8) <= 320.0

    def test_order_eight_substep_lengths_telescope(self):
        coeffs = yoshida_coefficients(8)
        assert coeffs.size == 15  # Yoshida's solution D: 15 Strang steps
        tau = 0.37
        assert np.sum(coeffs * tau) == pytest.approx(tau)


class TestStepCount:
    def test_exact_multiples(self):
        assert step_count(1.0, 0.1) == 10
        assert step_count(0.0, 0.1) == 0

    def test_rejects_non_commensurate(self):
        with pytest.raises(ValueError, match="commensurate"):
            step_count(0.05, 0.1)
        with pytest.raises(ValueError, match="commensurate"):
            step_count(1.04, 0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            step_count(1.0, 0.0)
        with pytest.raises(ValueError):
            step_count(-1.0, 0.1)

    def test_rejects_overflowing_count(self):
        # A count that overflows to inf, or an infinite duration, is refused,
        # not passed to round().
        for t, tau in ((1e300, 1e-10), (float("inf"), 0.1)):
            with pytest.raises(ValueError, match="too many steps"):
                step_count(t, tau)

    def test_tolerates_float_representation(self):
        assert step_count(0.3, 0.1) == 3


class TestPropagate:
    def test_zero_duration(self, torsional_2d, z0):
        np.testing.assert_array_equal(propagate(z0, 0.0, 0.1, 8, torsional_2d), z0)

    def test_order_eight_energy_drift(self, torsional_2d, z0):
        # Yoshida's order-8 solution D drifts by 4.1e-12 at tau = 0.1 on this
        # trajectory, a truncation constant that scales as tau^8.
        ham = Hamiltonian(torsional_2d)
        h0 = ham.value(z0)
        drift_at = lambda tau: abs(ham.value(propagate(z0, 15.0, tau, 8, torsional_2d)) - h0)
        assert drift_at(0.1) <= 2e-11

    def test_order_eight_tau_scaling(self, torsional_2d, z0):
        ham = Hamiltonian(torsional_2d)
        h0 = ham.value(z0)
        coarse = abs(ham.value(propagate(z0, 15.0, 0.2, 8, torsional_2d)) - h0)
        fine = abs(ham.value(propagate(z0, 15.0, 0.1, 8, torsional_2d)) - h0)
        # 2^8 = 256.  The fine error, 4.1e-12, is about 3.7e4 ulp of h0, so
        # roundoff cannot move the ratio out of the band; at tau = 0.05 it
        # would sit at the roundoff floor (1.8e-14).
        assert coarse / fine == pytest.approx(256.0, rel=0.15)

    def test_matches_fine_strang_reference(self, torsional_2d, z0):
        ref = propagate(z0, 1.0, 1e-5, 2, torsional_2d)
        for order in (4, 6, 8):
            out = propagate(z0, 1.0, 1e-2, order, torsional_2d)
            np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_batched_trajectories(self, torsional_2d):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((8, 4))
        all_at_once = propagate(batch, 1.0, 0.05, 4, torsional_2d)
        for i in range(8):
            one = propagate(batch[i], 1.0, 0.05, 4, torsional_2d)
            np.testing.assert_allclose(all_at_once[i], one, atol=1e-14)


class TestPropagateSnapshots:
    def test_matches_individual_propagation(self, torsional_2d, z0):
        times = np.array([0.0, 0.5, 1.0, 2.5])
        snaps = propagate_snapshots(z0, times, 0.05, 4, torsional_2d)
        assert len(snaps) == 4
        for t, snap in zip(times, snaps):
            np.testing.assert_allclose(snap, propagate(z0, t, 0.05, 4, torsional_2d), atol=1e-13)

    def test_rejects_decreasing_times(self, torsional_2d, z0):
        with pytest.raises(ValueError, match="nondecreasing"):
            propagate_snapshots(z0, np.array([1.0, 0.5]), 0.05, 4, torsional_2d)

    @pytest.mark.parametrize("stepper", ["transport", "correction"])
    def test_rejects_negative_first_time(self, stepper, torsional_2d, z0):
        # Both steppers name the broken rule: the times start at >= 0.
        run = {
            "transport": lambda times: propagate_snapshots(z0, times, 0.05, 4, torsional_2d),
            "correction": lambda times: evolve_correction_snapshots(z0, times, 0.05, torsional_2d),
        }[stepper]
        with pytest.raises(ValueError, match="start at >= 0"):
            run([-0.5])
        with pytest.raises(ValueError, match="nondecreasing"):
            run([0.0, -0.5])

    def test_first_snapshot_can_be_zero(self, torsional_2d, z0):
        snaps = propagate_snapshots(z0, np.array([0.0]), 0.05, 4, torsional_2d)
        np.testing.assert_array_equal(snaps[0], z0)

    @pytest.mark.parametrize("name, d", [("torsional", 2), ("harmonic", 3), ("free", 1)])
    def test_observer_sees_each_snapshot_in_time_order(self, name, d):
        # Each snapshot goes to the observer, passed positionally, as it is
        # reached; the results are the observer's on the default list, bit
        # for bit.
        pot = {
            "torsional": torsional_potential,
            "harmonic": lambda d: harmonic_potential(d, (1.0, 2.0, 0.5)[:d]),
            "free": free_potential,
        }[name](d)
        z0 = np.random.default_rng(70 + d).uniform(-1.5, 1.5, (30, 2 * d))
        times = [0.0, 0.3, 0.3, 0.8]
        seen = []

        def observe(z):
            seen.append(z.tobytes())
            return [np.sum(z[..., :d] ** 2), np.sum(np.cos(z[..., d:]))]

        got = propagate_snapshots(z0, times, 0.1, 8, pot, observe)
        snaps = propagate_snapshots(z0, times, 0.1, 8, pot)
        assert snaps[0].tobytes() == z0.tobytes()
        assert seen == [snap.tobytes() for snap in snaps]
        assert len(got) == len(times)
        for result, snap in zip(got, snaps):
            assert np.array(result).tobytes() == np.array(observe(snap)).tobytes()


def unfused_snapshots(z, times, tau, order, potential):
    """The reference for the fused driver: whole Strang steps, each built
    from separate drift/kick stages, with no half-drifts merged."""
    out, t_prev = [], 0.0
    for t in times:
        n = step_count(t - t_prev, tau)
        for _ in range(n):
            for c in yoshida_coefficients(order):
                z = strang_step(c * ((t - t_prev) / n), z, potential)
        out.append(z)
        t_prev = t
    return out


def one_step(z, order, potential):
    """One production (fused) step of size 0.1."""
    return propagate(z, 0.1, 0.1, order, potential)


@settings(max_examples=40, deadline=None)
@given(
    points=arrays(float, st.tuples(st.integers(1, 6), st.just(4)),
                  elements=st.floats(-2.0, 2.0)),
    order=st.sampled_from([2, 4, 6, 8]),
    gaps=st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_fused_matches_unfused_strang_composition(points, order, gaps):
    # Merging adjacent half-drifts changes results only by rounding, on any
    # batch and any nondecreasing snapshot grid.
    pot = torsional_potential(2)
    times = 0.1 * np.cumsum(gaps)
    fused = propagate_snapshots(points, times, 0.1, order, pot)
    for got, want in zip(fused, unfused_snapshots(points, times, 0.1, order, pot)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def unscaled_kick(t, q, p, potential):
    """p -= t DV(q) on unscaled positions: for the torsional potential by
    tan(0.5 q), halved in its own pass, else as p - t gradient(q)."""
    if not isinstance(potential, TorsionalPotential):
        p -= t * potential.gradient(q)
        return
    u = np.multiply(q, 0.5, out=np.empty(np.shape(q)))
    np.tan(u, out=u)
    w = np.multiply(u, u, out=np.empty_like(u))
    w += 1.0
    np.divide(u, w, out=u)
    u *= 2.0 * t
    p -= u


def unscaled_drift(t, state):
    q, p = state
    q += t * p
    return state


def unscaled_snapshots(z, times, tau, order, potential):
    """The fused driver run on (q, p) itself, with no kick coordinates."""
    d = z.shape[-1] // 2

    def b_flow(s, state):
        unscaled_kick(s, *state, potential)
        return state

    state = (z[..., :d].copy(), z[..., d:].copy())
    snaps = split_snapshots(state, times, tau, order, unscaled_drift, b_flow)
    return [np.concatenate(snap, axis=-1) for snap in snaps]


def unscaled_strang_step(tau, z, potential):
    d = z.shape[-1] // 2
    q, p = unscaled_drift(0.5 * tau, (z[..., :d].copy(), z[..., d:].copy()))
    unscaled_kick(tau, q, p, potential)
    return np.concatenate(unscaled_drift(0.5 * tau, (q, p)), axis=-1)


# Entries of magnitude 1e-200 and up, or zero, so that no product of the runs
# is subnormal: scaling by 1/2 is exact only above the subnormal range.
PHASE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 1e3, -1e3]),
    st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-200),
)
SCALED_CASES = [
    torsional_potential(1), torsional_potential(2), torsional_potential(3),
    harmonic_potential(3, (1.0, 2.0, 0.5)), free_potential(1),
]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    pot=st.sampled_from(SCALED_CASES),
    order=st.sampled_from([2, 4, 6, 8]),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    tau=st.sampled_from([0.1, -0.37, 2.0**-5]),
)
def test_kick_coordinates_keep_the_bits_of_unscaled_transport(data, pot, order, gaps, tau):
    # The transport runs x = kick_scale q, a power of two: every snapshot and
    # every Strang step has the bytes of the same composition run on q, with
    # the torsional force halving q in its own pass, repeated snapshot
    # times and signed zeros included.
    z = data.draw(arrays(float, st.tuples(st.integers(1, 5), st.just(2 * pot.d)),
                         elements=PHASE_ENTRIES))
    kept = z.copy()
    times = 0.1 * np.cumsum(gaps)
    got = propagate_snapshots(z, times, 0.1, order, pot)
    want = unscaled_snapshots(z, times, 0.1, order, pot)
    assert [snap.tobytes() for snap in got] == [snap.tobytes() for snap in want]
    assert strang_step(tau, z, pot).tobytes() == unscaled_strang_step(tau, z, pot).tobytes()
    assert z.tobytes() == kept.tobytes()


class TestAlignedWorkArrays:
    @pytest.mark.parametrize("shape", [*ALIGNMENT_SHAPES, (3,), (), (0, 2)])
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_rows_start_on_cache_lines(self, k, shape):
        rows = aligned_rows(k, shape)
        assert rows.shape == (k, *shape) and rows.dtype == np.float64
        assert starts_on_cache_lines(rows)
        assert all(rows[i, ...].flags.c_contiguous for i in range(k))
        # The rows do not overlap: each keeps what was written into it.
        for i in range(k):
            rows[i, ...] = i
        assert all(np.all(rows[i, ...] == i) for i in range(k))

    @pytest.mark.parametrize("pot", [
        torsional_potential(2), harmonic_potential(2, (1.0, 2.0)), free_potential(2),
    ])
    def test_scratch_keeps_the_bits(self, pot):
        # drift and kick write their intermediates into a given scratch
        # block, or into fresh arrays without one, with the same bits.
        z = np.random.default_rng(6).uniform(-4.0, 4.0, (37, 4))
        scratch = aligned_rows(2, (37, 2))
        for t in (0.1, -0.37):
            got = kick(t, drift(t, kick_pair(z, pot), scratch), pot, scratch)
            want = kick(t, drift(t, kick_pair(z, pot)), pot)
            assert phase_point(got).tobytes() == phase_point(want).tobytes()

    @pytest.mark.parametrize("n, d", ALIGNMENT_SHAPES)
    def test_transport_steps_aligned_arrays_with_the_bits_of_plain_ones(
        self, n, d, monkeypatch
    ):
        # One order-8 run hands drift and kick the same aligned (x, p) pair
        # and two scratch rows at every stage, and gives the bytes of the
        # same composition on plain arrays with a fresh temporary per
        # operation.
        calls = []

        def record(name, x, p, scratch):
            assert all(a.shape == (n, d) for a in (x, p, *scratch))
            calls.append((name, *(a.ctypes.data for a in (x, p, *scratch))))

        class Recording(TorsionalPotential):
            def kick(self, t, x, p, scratch=None):
                record("kick", x, p, scratch)
                super().kick(t, x, p, scratch)

        def recording_drift(t, state, scratch=None):
            record("drift", *state, scratch)
            return drift(t, state, scratch)

        monkeypatch.setattr(flow_mod, "drift", recording_drift)
        z = np.random.default_rng(n).uniform(-2.0, 2.0, (n, 2 * d))
        times = [0.0, 0.2]
        got = propagate_snapshots(z, times, 0.1, 8, Recording(d))
        want = unscaled_snapshots(z, times, 0.1, 8, torsional_potential(d))
        assert [snap.tobytes() for snap in got] == [snap.tobytes() for snap in want]
        assert {name for name, *_ in calls} == {"drift", "kick"}
        addresses = calls[0][1:]
        assert len(set(addresses)) == 4 and all(a % 64 == 0 for a in addresses)
        assert all(call[1:] == addresses for call in calls)


@settings(max_examples=20, deadline=None)
@given(
    points=arrays(float, st.tuples(st.integers(2, 6), st.just(4)),
                  elements=st.floats(-2.0, 2.0)),
    order=st.sampled_from([2, 4, 6, 8]),
)
def test_batched_transport_equals_per_point(points, order):
    pot = torsional_potential(2)
    times = [0.0, 0.3, 0.5]
    batched = propagate_snapshots(points, times, 0.1, order, pot)
    for i, point in enumerate(points):
        for snap, single in zip(batched, propagate_snapshots(point, times, 0.1, order, pot)):
            np.testing.assert_allclose(snap[i], single, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("order", [2, 4, 8])
def test_step_jacobian_is_symplectic(order, torsional_2d):
    # Finite-difference Jacobian M of one fused step satisfies M^T J M = J.
    z = np.array([0.4, -0.2, 0.3, 0.8])
    eps = 1e-6
    m = np.zeros((4, 4))
    for i in range(4):
        dz = np.zeros(4)
        dz[i] = eps
        m[:, i] = (
            one_step(z + dz, order, torsional_2d) - one_step(z - dz, order, torsional_2d)
        ) / (2.0 * eps)
    j = symplectic_j(2)
    np.testing.assert_allclose(m.T @ j @ m, j, atol=1e-6)


@pytest.mark.parametrize("order", [4, 6, 8])
def test_reversibility_high_order(order, torsional_2d):
    # With R(q, p) = (q, -p), a symmetric step of a kinetic-plus-potential
    # flow satisfies step(-tau) = R step(tau) R, so R step R undoes a step.
    flip = np.array([1.0, 1.0, -1.0, -1.0])
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4)
    back = flip * one_step(flip * one_step(z, order, torsional_2d), order, torsional_2d)
    np.testing.assert_allclose(back, z, atol=1e-12)


def test_harmonic_energy_bounded_over_many_steps():
    # Symplectic integrators conserve a modified Hamiltonian: the energy
    # oscillates but does not drift across 1e5 Strang steps.
    pot = harmonic_potential(1, 1.0)
    ham = Hamiltonian(pot)
    z = np.array([1.0, 0.0])
    tau = 0.05
    h0 = ham.value(z)
    max_dev = 0.0
    for i in range(100_000):
        z = strang_step(tau, z, pot)
        if i % 100 == 0:
            max_dev = max(max_dev, abs(ham.value(z) - h0))
    max_dev = max(max_dev, abs(ham.value(z) - h0))
    assert max_dev <= 1e-3  # oscillation amplitude ~ tau^2 / 8
