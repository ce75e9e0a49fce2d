"""Built-in observables: values, derivative tensors, and energy conservation
along the numerical flow."""

from __future__ import annotations

import numpy as np
import pytest

from egorov.flow import propagate_snapshots
from egorov.observables import OBSERVABLE_NAMES, default_names, make_observable, parse_name
from egorov.potentials import free_potential, harmonic_potential, torsional_potential

FREE_2D = free_potential(2)


def finite_difference_gradient(fn, z, step=1e-6):
    out = np.zeros_like(z)
    for i in range(z.size):
        dz = np.zeros_like(z)
        dz[i] = step
        out[i] = (fn(z + dz) - fn(z - dz)) / (2.0 * step)
    return out


class TestCoordinates:
    def test_position_value(self, z0):
        assert make_observable("q1", FREE_2D).value(z0) == 1.0
        assert make_observable("q2", FREE_2D).value(z0) == 0.5

    def test_momentum_gradient_is_unit_vector(self):
        grad = make_observable("p2", FREE_2D).grad(np.zeros(4))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0, 1.0])

    def test_higher_derivatives_vanish(self, z0):
        for obs in (make_observable("q1", FREE_2D), make_observable("p1", FREE_2D)):
            np.testing.assert_array_equal(obs.hess(z0), np.zeros((4, 4)))
            np.testing.assert_array_equal(obs.third(z0), np.zeros((4, 4, 4)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            make_observable("q3", FREE_2D)
        with pytest.raises(ValueError):
            make_observable("p0", FREE_2D)


class TestEnergies:
    def test_kinetic_at_rest(self, z0):
        assert make_observable("kinetic", FREE_2D).value(z0) == 0.0

    def test_kinetic_hessian_momentum_block(self):
        hess = make_observable("kinetic", FREE_2D).hess(np.ones(4))
        expected = np.zeros((4, 4))
        expected[2:, 2:] = np.eye(2)
        np.testing.assert_array_equal(hess, expected)
        third = make_observable("kinetic", FREE_2D).third(np.ones(4))
        np.testing.assert_array_equal(third, np.zeros((4, 4, 4)))

    def test_total_energy_frozen_value(self, torsional_2d, z0):
        # V(1, 0.5) = 2 - cos(1) - cos(0.5) with p = 0.
        assert make_observable("total", torsional_2d).value(z0) == pytest.approx(
            2.0 - np.cos(1.0) - np.cos(0.5)
        )

    def test_total_third_is_embedded_potential_third(self, torsional_2d, z0):
        third = make_observable("total", torsional_2d).third(z0)
        np.testing.assert_allclose(third[:2, :2, :2], torsional_2d.third(z0[:2]))
        # every slice touching the momentum block vanishes
        assert np.count_nonzero(third[2:, :, :]) == 0
        assert np.count_nonzero(third[:, 2:, :]) == 0
        assert np.count_nonzero(third[:, :, 2:]) == 0

    def test_total_is_kinetic_plus_potential(self, torsional_2d):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4)
        total = make_observable("total", torsional_2d).value(z)
        parts = (
            make_observable("kinetic", torsional_2d).value(z)
            + make_observable("potential", torsional_2d).value(z)
        )
        assert total == pytest.approx(parts)


class TestMakeObservable:
    def test_all_names_resolve(self, torsional_2d):
        for name in OBSERVABLE_NAMES:
            obs = make_observable(name, torsional_2d)
            assert obs.name == name

    def test_unknown_name(self, torsional_2d):
        with pytest.raises(ValueError, match="unknown observable"):
            make_observable("angular", torsional_2d)
        with pytest.raises(ValueError):
            make_observable("q3", torsional_2d)

    @pytest.mark.parametrize("name", ["q01", "p007"])
    def test_parse_name_rejects_non_canonical_index(self, name):
        # The name labels the result rows, and the grid reference and the run
        # must label them alike: make_observable names index 1 "q1".
        with pytest.raises(ValueError, match="write its index as"):
            parse_name(name, 8)


@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_gradient_matches_finite_differences(name, torsional_2d):
    obs = make_observable(name, torsional_2d)
    rng = np.random.default_rng(OBSERVABLE_NAMES.index(name))
    for _ in range(3):
        z = rng.uniform(-1.5, 1.5, size=4)
        fd = finite_difference_gradient(obs.value, z)
        np.testing.assert_allclose(obs.grad(z), fd, atol=1e-6)


@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_hessian_symmetric_and_consistent(name):
    # D2a and D3a are symmetric and match central differences of Da and
    # D2a, for each potential at d = 1..3 where the name exists.  This holds
    # the dense tensors independently of the scatter that builds them.
    rng = np.random.default_rng(1 + OBSERVABLE_NAMES.index(name))
    step = 1e-6
    for d in (1, 2, 3):
        if name not in default_names(d):
            continue
        for pot in (
            torsional_potential(d),
            harmonic_potential(d, np.arange(1.0, d + 1.0)),
            free_potential(d),
        ):
            obs = make_observable(name, pot)
            z = rng.uniform(-1.5, 1.5, size=2 * d)
            hess, third = obs.hess(z), obs.third(z)
            np.testing.assert_allclose(hess, hess.T, atol=1e-14)
            for perm in ((1, 0, 2), (0, 2, 1)):
                np.testing.assert_allclose(third, third.transpose(perm), atol=1e-14)
            for i in range(2 * d):
                dz = np.zeros(2 * d)
                dz[i] = step
                fd_hess = (obs.grad(z + dz) - obs.grad(z - dz)) / (2.0 * step)
                fd_third = (obs.hess(z + dz) - obs.hess(z - dz)) / (2.0 * step)
                np.testing.assert_allclose(hess[i], fd_hess, atol=1e-6)
                np.testing.assert_allclose(third[i], fd_third, atol=1e-6)


def test_batched_evaluation(torsional_2d):
    obs = make_observable("total", torsional_2d)
    z = np.random.default_rng(9).standard_normal((6, 4))
    vals = obs.value(z)
    assert vals.shape == (6,)
    assert obs.third(z).shape == (6, 4, 4, 4)


def test_total_energy_drift_along_numerical_flow(torsional_2d, z0):
    # Exact trajectories conserve h; the order-8 integrator (Yoshida's
    # solution D) at tau = 0.1 leaves a truncation-constant drift measured at
    # 4.4e-12 over [0, 15] (scales as tau^8), hence the 2e-11 bound here.
    obs = make_observable("total", torsional_2d)
    times = np.arange(16.0)
    points = np.array(propagate_snapshots(z0, times, 0.1, 8, torsional_2d))
    energies = obs.value(points)
    drift = np.max(np.abs(energies - energies[0]))
    assert drift <= 2e-11
