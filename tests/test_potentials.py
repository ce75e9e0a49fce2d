"""Potential models and their derivative tensors."""

from __future__ import annotations

import numpy as np
import pytest

from egorov.correction import evolve_correction
from egorov.flow import propagate
from egorov.oracle import GeneralCorrectionState, Hamiltonian, evolve_general
from egorov.potentials import (
    FreePotential,
    HarmonicPotential,
    Potential,
    TorsionalPotential,
    coordinate_sum,
    free_potential,
    harmonic_potential,
    torsional_potential,
)

from conftest import CoupledPotential, finite_difference_check


class TestTorsional:
    def test_cosine_maximum(self):
        pot = torsional_potential(2)
        q = np.zeros(2)
        assert pot.value(q) == 0.0
        np.testing.assert_array_equal(pot.gradient(q), [0.0, 0.0])

    def test_quarter_turn_values(self):
        pot = torsional_potential(2)
        q = np.array([np.pi / 2, 0.0])
        assert pot.value(q) == pytest.approx(1.0)
        np.testing.assert_allclose(pot.gradient(q), [1.0, 0.0], atol=1e-15)
        assert pot.third(q)[0, 0, 0] == pytest.approx(-1.0)

    def test_frozen_value(self):
        pot = torsional_potential(2)
        v = pot.value(np.array([1.0, 0.5]))
        assert v == pytest.approx(2.0 - np.cos(1.0) - np.cos(0.5))
        assert v == pytest.approx(0.5821151322414875, abs=1e-12)

    def test_gradient_reconstruction(self):
        pot = torsional_potential(2)
        err = finite_difference_check(pot, np.array([1.0, 0.5]), order=1, step=1e-4)
        assert err <= 1e-8

    def test_off_diagonal_tensors_vanish(self):
        pot = torsional_potential(3)
        q = np.array([0.3, -1.2, 2.5])
        hess = pot.hessian(q)
        np.testing.assert_allclose(np.diag(hess), np.cos(q))
        assert np.count_nonzero(hess - np.diag(np.diag(hess))) == 0
        third = pot.third(q)
        for i in range(3):
            assert third[i, i, i] == pytest.approx(-np.sin(q[i]))
        third[tuple(np.arange(3) for _ in range(3))] = 0.0
        assert np.count_nonzero(third) == 0

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            torsional_potential(0)

    def test_batched_shapes(self):
        pot = torsional_potential(2)
        q = np.random.default_rng(0).standard_normal((5, 3, 2))
        assert pot.value(q).shape == (5, 3)
        assert pot.gradient(q).shape == (5, 3, 2)
        assert pot.hessian(q).shape == (5, 3, 2, 2)
        assert pot.fourth(q).shape == (5, 3, 2, 2, 2, 2)


class TestTorsionalKernel:
    """The diagonals, which take sin and cos from t = tan(q/2), and the
    gradient, their first, against numpy's sin and cos to 2 ulp of 1.  The
    diagonals are those of DV, D2V, -D3V and -D4V: sin, cos, sin, cos."""

    @staticmethod
    def check(q):
        pot = torsional_potential(q.shape[-1])
        sin, cos = np.sin(q), np.cos(q)
        np.testing.assert_allclose(pot.gradient(q), sin, rtol=0, atol=4.5e-16)
        for got, want in zip(pot.diagonals(q), (sin, cos, sin, cos)):
            assert got.shape == q.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=4.5e-16)

    def test_uniform_sample(self):
        self.check(np.random.default_rng(3).uniform(-50.0, 50.0, size=(100_000, 2)))

    def test_special_points(self):
        self.check(np.array([[0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 1e6, -1e6]]))

    def test_signed_zero(self):
        pot = torsional_potential(2)
        q = np.array([0.0, -0.0])
        np.testing.assert_array_equal(np.signbit(pot.gradient(q)), [False, True])
        sin, cos, minus_third, minus_fourth = pot.diagonals(q)
        np.testing.assert_array_equal(np.signbit(sin), [False, True])
        np.testing.assert_array_equal(np.signbit(minus_third), [False, True])
        np.testing.assert_array_equal(cos, [1.0, 1.0])
        np.testing.assert_array_equal(minus_fourth, [1.0, 1.0])
        # -D3V = DV and -D4V = D2V: the same arrays, with no negation pass.
        assert minus_third is sin and minus_fourth is cos

    def test_around_odd_multiples_of_pi(self):
        # tan(q/2) is largest here: at the double nearest pi it is 1.6e16.
        centres = (2 * np.arange(-10, 10) + 1) * np.pi
        offsets = np.geomspace(1e-15, 1e-3, 13)
        near = centres[:, None] + np.concatenate([-offsets, offsets])
        steps = [np.nextafter(centres, np.inf), np.nextafter(centres, -np.inf)]
        self.check(np.concatenate([centres, near.ravel(), *steps])[:, None])

    def test_batched(self):
        self.check(np.random.default_rng(4).uniform(-50.0, 50.0, size=(5, 3, 2)))

    @pytest.mark.parametrize("shape", [(), (5,), (5000, 2)])
    def test_kick_is_bitwise_p_minus_t_gradient(self, shape):
        # kick reads x = q/2 and folds the gradient's doubling into the step:
        # p -= (2 t) u for sin q = 2 u, which rounds as t (2 u), in place.
        special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3.0, -3.0, 1e3])
        rng = np.random.default_rng(5)
        pot = torsional_potential(1 if shape == () else shape[-1])
        q = np.array(rng.choice(special, size=shape))
        for t in (0.1, -0.37, 2.0**-5, -1e-3):
            p = np.array(rng.standard_normal(shape))
            want = p - t * pot.gradient(q)
            out = p
            pot.kick(t, q / 2, p)
            assert p is out and p.shape == shape
            assert p.tobytes() == want.tobytes(), t


class TestHarmonic:
    def test_unit_frequency_value(self):
        pot = harmonic_potential(1, 1.0)
        q = np.array([2.0])
        assert pot.value(q) == pytest.approx(2.0)
        np.testing.assert_array_equal(pot.third(q), np.zeros((1, 1, 1)))

    def test_mixed_frequencies(self):
        pot = harmonic_potential(2, (1.0, 2.0))
        assert pot.value(np.array([1.0, 1.0])) == pytest.approx(2.5)

    def test_fourth_derivative_identically_zero(self):
        pot = harmonic_potential(2, (1.0, 2.0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            q = rng.standard_normal(2) * 3.0
            np.testing.assert_array_equal(pot.fourth(q), np.zeros((2, 2, 2, 2)))

    def test_rejects_nonpositive_stiffness(self):
        with pytest.raises(ValueError):
            harmonic_potential(2, (1.0, 0.0))
        with pytest.raises(ValueError):
            HarmonicPotential(np.array([-1.0]))
        with pytest.raises(ValueError):
            harmonic_potential(0, 1.0)

    @pytest.mark.parametrize("stiffness, count", [((1.0, 2.0, 3.0), 3), ((), 0)])
    def test_rejects_stiffness_of_another_length(self, stiffness, count):
        # The rule and its message are the potential's own, not only the
        # config's: a scalar or one entry per axis.
        message = f"stiffness needs one entry or one per dimension, got {count}"
        with pytest.raises(ValueError, match=message):
            harmonic_potential(2, stiffness)

    @pytest.mark.parametrize(
        "stiffness", [float("nan"), float("inf"), (1.0, float("nan"), 2.0)]
    )
    def test_rejects_non_finite_stiffness(self, stiffness):
        # NaN fails every comparison, so a check of omega <= 0 alone lets it
        # through and the potential's value comes out NaN.
        with pytest.raises(ValueError, match="positive entries"):
            harmonic_potential(3, stiffness)
        with pytest.raises(ValueError, match="positive entries"):
            HarmonicPotential(np.broadcast_to(np.asarray(stiffness, dtype=float), (3,)))

    def test_scalar_stiffness_broadcast(self):
        pot = harmonic_potential(3, 2.0)
        np.testing.assert_array_equal(pot.omega, [2.0, 2.0, 2.0])
        assert pot.d == 3


class TestFree:
    def test_everything_zero(self):
        pot = free_potential(2)
        q = np.array([1.3, -0.4])
        assert pot.value(q) == 0.0
        for evaluate in (pot.gradient, pot.hessian, pot.third, pot.fourth):
            np.testing.assert_array_equal(evaluate(q), 0.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            FreePotential(0)


class TestCoordinateSum:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_bitwise_numpy_sum(self, d):
        # Up to seven coordinates np.sum adds left to right from +0.0, so the
        # bits agree, signed zeros included.
        rng = np.random.default_rng(d)
        x = rng.standard_normal((500, d)) * 10.0 ** rng.integers(-8, 8, (500, d))
        zeros = rng.random(x.shape) < 0.5
        x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        for view in (x, x[0], x[:, None, :]):
            total = coordinate_sum(view)
            assert total.tobytes() == np.sum(view, axis=-1).tobytes()
            assert not np.shares_memory(total, view)


class TestFiniteDifferenceCheck:
    def test_torsional_hessian(self):
        pot = torsional_potential(2)
        assert finite_difference_check(pot, np.array([1.0, 0.5]), order=2, step=1e-4) <= 1e-6

    def test_harmonic_third_is_exact(self):
        # The hessian is constant, so its central difference is exactly zero.
        pot = harmonic_potential(2, (1.0, 2.0))
        assert finite_difference_check(pot, np.array([0.7, -0.2]), order=3, step=0.1) == 0.0

    def test_torsional_gradient_at_origin(self):
        pot = torsional_potential(2)
        assert finite_difference_check(pot, np.zeros(2), order=1, step=1e-4) <= 1e-8

    def test_second_order_step_scaling(self):
        # Central differences are O(step^2): halving the step should shrink
        # the discrepancy by a factor of about 4.
        pot = torsional_potential(2)
        q = np.array([1.0, 0.5])
        coarse = finite_difference_check(pot, q, order=1, step=2e-3)
        fine = finite_difference_check(pot, q, order=1, step=1e-3)
        assert coarse / fine == pytest.approx(4.0, rel=0.3)

    def test_rejects_bad_arguments(self):
        pot = torsional_potential(1)
        with pytest.raises(ValueError):
            finite_difference_check(pot, np.zeros(1), order=1, step=0.0)
        with pytest.raises(ValueError):
            finite_difference_check(pot, np.zeros(1), order=5, step=1e-4)


MAKERS = [
    lambda: torsional_potential(2), lambda: harmonic_potential(2, (1.0, 2.0)),
    lambda: free_potential(2),
]


@pytest.mark.parametrize("make", MAKERS)
def test_diagonals_lead_with_the_gradient(make):
    # The correction's kick reads g from diagonals(), the transport's kick
    # gives the bits of p - t gradient(); both must be the same force.
    pot = make()
    q = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(5, 3, 2))
    diagonals = pot.diagonals(q)
    np.testing.assert_array_equal(diagonals[0], pot.gradient(q))
    assert [c.shape for c in diagonals] == [q.shape] * 4


@pytest.mark.parametrize("make", MAKERS)
def test_diagonals_into_out_keep_their_bits(make):
    # Written into the caller's three arrays, the diagonals have the bytes
    # of fresh ones, whatever the arrays held before; each returned array
    # that is not a broadcast constant is one of the caller's.
    pot = make()
    q = np.random.default_rng(12).uniform(-np.pi, np.pi, size=(1001, 2))
    q[:4] = [[0.0, -0.0], [np.pi, -np.pi], [1e3, -1e3], [0.5, -0.5]]
    want = [c.tobytes() for c in pot.diagonals(q)]
    out = np.full((3,) + q.shape, np.nan)
    got = pot.diagonals(q, out)
    assert [c.tobytes() for c in got] == want
    for c in got:
        assert c.base is out or not c.flags.writeable


@pytest.mark.parametrize("make", MAKERS[1:])
def test_kick_without_override_is_p_minus_t_gradient(make):
    # Only the torsional potential overrides kick; the others take the base
    # class's p -= t * gradient(q), in place, in kick coordinates x = q.
    pot = make()
    assert type(pot).kick is Potential.kick and pot.kick_scale == 1.0
    rng = np.random.default_rng(8)
    q = rng.uniform(-np.pi, np.pi, size=(5000, 2))
    for t in (0.1, -0.37):
        p = rng.standard_normal((5000, 2))
        want = p - t * pot.gradient(q)
        out = p
        pot.kick(t, q, p)
        assert p is out
        assert p.tobytes() == want.tobytes(), t


def test_potential_without_diagonals_is_rejected():
    pot = CoupledPotential()
    with pytest.raises(NotImplementedError):
        pot.hessian(np.zeros(2))
    with pytest.raises(NotImplementedError):
        evolve_correction(np.zeros(4), 0.1, 0.1, pot)
    with pytest.raises(NotImplementedError):
        pot.coordinate(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TorsionalPotential(2.5), lambda: TorsionalPotential(True),
        lambda: TorsionalPotential("2"), lambda: torsional_potential(0),
        lambda: FreePotential(True), lambda: free_potential(np.float64(2.0)),
        lambda: harmonic_potential(2.5, 1.0), lambda: harmonic_potential(False, 1.0),
        lambda: harmonic_potential(-1, 1.0),
    ],
    ids=[
        "torsional-2.5", "torsional-True", "torsional-str", "torsional-0", "free-True",
        "free-float64", "harmonic-2.5", "harmonic-False", "harmonic-minus-1",
    ],
)
def test_rejects_a_dimension_that_is_not_a_positive_integer(make):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        make()


def test_accepts_a_numpy_integer_dimension():
    assert torsional_potential(np.int64(2)).value(np.zeros(2)) == 0.0
    assert free_potential(np.int32(3)).d == 3
    assert harmonic_potential(np.int16(2), 1.0).d == 2


class QuarticPotential(Potential):
    """V(q) = sum_j q_j^4 / 4, stating only value, diagonals and coordinate:
    its gradient, dense tensors and kick are the base class's."""

    def __init__(self, d):
        self.d = d

    def value(self, q):
        return coordinate_sum(np.asarray(q) ** 4) / 4.0

    def diagonals(self, q, out=None):
        q = np.asarray(q)
        g, c2, m3 = (np.empty(q.shape) for _ in range(3)) if out is None else out
        np.multiply(q, q, out=c2)
        np.multiply(c2, q, out=g)
        c2 *= 3.0
        np.multiply(q, -6.0, out=m3)
        return g, c2, m3, np.broadcast_to(-6.0, q.shape)

    def coordinate(self, j):
        return QuarticPotential(1)


class TestDefaultGradient:
    """A potential that states no gradient gets the first of its diagonals,
    and every route that reads a force runs on it."""

    def test_gradient_is_the_first_diagonal(self):
        pot = QuarticPotential(2)
        assert type(pot).gradient is Potential.gradient
        q = np.random.default_rng(21).uniform(-2.0, 2.0, size=(1001, 2))
        q[:3] = [[0.0, -0.0], [np.pi, -np.pi], [1e3, -1e3]]
        assert pot.gradient(q).tobytes() == pot.diagonals(q)[0].tobytes()
        for order in (1, 2, 3, 4):
            assert finite_difference_check(pot, q[3:8], order=order) <= 1e-7, order

    def test_torsional_gradient_is_inherited(self):
        assert TorsionalPotential.gradient is Potential.gradient

    def test_hamiltonian_gradient_reads_it(self):
        pot = QuarticPotential(2)
        z = np.random.default_rng(22).uniform(-2.0, 2.0, size=(7, 4))
        grad = Hamiltonian(pot).gradient(z)
        assert grad[:, :2].tobytes() == pot.diagonals(z[:, :2])[0].tobytes()
        np.testing.assert_array_equal(grad[:, 2:], z[:, 2:])

    def test_transport_and_correction_match_the_general_form(self):
        # The transport kicks by the inherited gradient and the correction
        # reads the diagonals; classic RK4 of the flat general form checks
        # both.
        pot = QuarticPotential(2)
        z0 = np.array([0.8, -0.5, 0.3, 0.1])
        general = evolve_general(z0, 1.0, 1e-3, Hamiltonian(pot))
        np.testing.assert_allclose(propagate(z0, 1.0, 1e-2, 8, pot), general.z, rtol=0, atol=1e-10)
        block = GeneralCorrectionState.from_block(evolve_correction(z0, 1.0, 2.5e-3, pot))
        for name in ("z", "lam", "gam", "xi"):
            np.testing.assert_allclose(
                getattr(block, name), getattr(general, name), rtol=0, atol=1e-8,
                err_msg=name,
            )


@pytest.mark.parametrize(
    "make", MAKERS + [lambda: harmonic_potential(3, (1.0, 2.0, 3.0))]
)
def test_coordinates_sum_to_the_potential(make):
    # V(q) = sum_j V_j(q_j), with each V_j a potential of one coordinate
    # whose diagonals are the j-th entries of V's.
    pot = make()
    q = np.random.default_rng(11).uniform(-np.pi, np.pi, size=(5, pot.d))
    axes = [pot.coordinate(j) for j in range(pot.d)]
    assert [axis.d for axis in axes] == [1] * pot.d
    np.testing.assert_allclose(
        sum(axis.value(q[:, j : j + 1]) for j, axis in enumerate(axes)),
        pot.value(q), rtol=0, atol=1e-14,
    )
    for j, axis in enumerate(axes):
        for own, full in zip(axis.diagonals(q[:, j : j + 1]), pot.diagonals(q)):
            np.testing.assert_array_equal(own[:, 0], full[:, j])


def test_coordinate_potentials():
    assert torsional_potential(3).coordinate(2) == TorsionalPotential(1)
    assert free_potential(2).coordinate(1) == FreePotential(1)
    harmonic = harmonic_potential(3, (1.0, 2.0, 3.0)).coordinate(1)
    assert isinstance(harmonic, HarmonicPotential)
    assert harmonic.omega.tolist() == [2.0]


@pytest.mark.parametrize("make", MAKERS)
def test_derivative_tensors_are_permutation_symmetric(make):
    pot = make()
    rng = np.random.default_rng(42)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        hess = pot.hessian(q)
        np.testing.assert_allclose(hess, hess.T, atol=1e-14)
        third = pot.third(q)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_allclose(third, np.transpose(third, perm), atol=1e-14)
        fourth = pot.fourth(q)
        for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
            np.testing.assert_allclose(fourth, np.transpose(fourth, perm), atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_analytic_derivatives_match_finite_differences(order):
    pot = torsional_potential(2)
    rng = np.random.default_rng(order)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=2)
        assert finite_difference_check(pot, q, order=order, step=1e-4) <= 1e-5


class TestHamiltonian:
    def test_value_and_gradient(self, ham_torsional_2d, z0):
        d = 2
        expected = 0.5 * np.dot(z0[d:], z0[d:]) + ham_torsional_2d.potential.value(z0[:d])
        assert ham_torsional_2d.value(z0) == pytest.approx(expected)
        grad = ham_torsional_2d.gradient(z0)
        np.testing.assert_allclose(grad[:d], np.sin(z0[:d]))
        np.testing.assert_allclose(grad[d:], z0[d:])

    def test_hessian_blocks(self, ham_torsional_2d, z0):
        hess = ham_torsional_2d.derivatives(z0)[1]
        np.testing.assert_array_equal(hess[2:, 2:], np.eye(2))
        np.testing.assert_array_equal(hess[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(hess[2:, :2], np.zeros((2, 2)))
        np.testing.assert_allclose(np.diag(hess[:2, :2]), np.cos(z0[:2]))

    def test_higher_derivatives_avoid_momentum_block(self, ham_torsional_2d, z0):
        _, _, third, fourth = ham_torsional_2d.derivatives(z0)
        for axis in range(3):
            momentum_rows = np.take(third, [2, 3], axis=axis)
            np.testing.assert_array_equal(momentum_rows, 0.0)
        for axis in range(4):
            momentum_rows = np.take(fourth, [2, 3], axis=axis)
            np.testing.assert_array_equal(momentum_rows, 0.0)

    def test_kinetic_only_for_free_particle(self):
        ham = Hamiltonian(free_potential(2))
        z = np.array([5.0, -3.0, 1.0, 2.0])
        assert ham.value(z) == pytest.approx(2.5)

    def test_batched_value(self, ham_torsional_2d):
        z = np.random.default_rng(3).standard_normal((7, 4))
        vals = ham_torsional_2d.value(z)
        assert vals.shape == (7,)
        np.testing.assert_allclose(vals[0], ham_torsional_2d.value(z[0]))
