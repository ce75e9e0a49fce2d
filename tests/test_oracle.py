"""Ground-truth machinery: generalized brackets, variational flow, and the
quadrature route to the correction term."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from egorov.correction import a2_eval, evolve_correction
from egorov.flow import propagate
from egorov.observables import make_observable
from egorov.oracle import (
    GeneralCorrectionState,
    Hamiltonian,
    JetFunction,
    VariationalState,
    a2_quadrature,
    composed_third_derivative,
    flow_integral,
    general_rhs,
    multi_indices,
    poisson_k,
    quadrature_tensors,
    variational_flow,
)
from egorov.potentials import (
    TorsionalPotential,
    free_potential,
    harmonic_potential,
    torsional_potential,
)
from egorov.tensor_ops import apply_J_triple, tilde_d3

from conftest import symplectic_j


def quadratic_jet(rng, n=4):
    """Random quadratic f(z) = z.A z / 2 + b.z with exact tensors."""
    a = rng.standard_normal((n, n))
    a = a + a.T
    b = rng.standard_normal(n)

    def value(z):
        return 0.5 * z @ a @ z + b @ z

    jet = JetFunction.from_tensors(
        value,
        lambda z: a @ z + b,
        lambda z: a,
        lambda z: np.zeros((n, n, n)),
    )
    return jet, a, b


def smooth_jet(seed):
    """Non-polynomial smooth test function with finite-difference jets."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(4)
    c = rng.standard_normal(4)

    def f(z):
        z = np.asarray(z)
        return np.sin(w[0] * z[..., 0] + w[1] * z[..., 3]) + np.cos(
            w[2] * z[..., 1]
        ) * (1.0 + c[0] * z[..., 2]) + c[1] * z[..., 0] * z[..., 2] ** 2

    return JetFunction.from_callable(f, step=1e-4)


class TestMultiIndices:
    def test_enumeration_d2(self):
        assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert multi_indices(2, 1) == [(1, 0), (0, 1)]

    def test_counts(self):
        # |alpha| = k over d slots: C(d + k - 1, k) compositions
        assert len(multi_indices(3, 3)) == math.comb(5, 3)
        assert len(multi_indices(2, 0)) == 1

    def test_orders_sum_correctly(self):
        for alpha in multi_indices(3, 4):
            assert sum(alpha) == 4


class TestJetFunction:
    def test_from_tensors_partial_lookup(self):
        rng = np.random.default_rng(40)
        jet, a, b = quadratic_jet(rng)
        z = rng.standard_normal(4)
        grad = a @ z + b
        assert jet.partial((1, 0), (0, 0), z) == pytest.approx(grad[0])
        assert jet.partial((0, 0), (0, 1), z) == pytest.approx(grad[3])
        assert jet.partial((1, 0), (0, 1), z) == pytest.approx(a[0, 3])
        assert jet.partial((0, 2), (0, 0), z) == pytest.approx(a[1, 1])
        assert jet.partial((0, 0), (0, 0), z) == pytest.approx(jet.value(z))

    def test_from_callable_matches_analytic(self):
        f = lambda z: np.sin(z[..., 0]) * np.cos(z[..., 3]) + z[..., 1] ** 2 * z[..., 2]
        jet = JetFunction.from_callable(f, step=1e-4)
        z = np.array([0.3, -0.7, 0.4, 0.9])
        checks = [
            ((1, 0), (0, 0), np.cos(0.3) * np.cos(0.9)),
            ((3, 0), (0, 0), -np.cos(0.3) * np.cos(0.9)),
            ((1, 0), (0, 1), -np.cos(0.3) * np.sin(0.9)),
            ((0, 2), (1, 0), 2.0),
            ((0, 1), (1, 0), 2.0 * z[1]),
        ]
        for alpha, beta, expected in checks:
            assert jet.partial(alpha, beta, z) == pytest.approx(expected, abs=1e-7)

    def test_rejects_order_overflow(self):
        jet = smooth_jet(0)
        with pytest.raises(ValueError, match="order"):
            jet.partial((2, 0), (0, 2), np.zeros(4))

    def test_hamiltonian_jets(self, ham_torsional_2d):
        jet = JetFunction.from_hamiltonian(ham_torsional_2d)
        z = np.array([1.0, 0.5, 0.3, -0.2])
        assert jet.partial((0, 0), (1, 0), z) == pytest.approx(0.3)
        assert jet.partial((1, 0), (0, 0), z) == pytest.approx(np.sin(1.0))
        assert jet.partial((3, 0), (0, 0), z) == pytest.approx(-np.sin(1.0))


class TestPoissonK:
    def test_k1_is_classical_bracket(self):
        rng = np.random.default_rng(41)
        f, af, bf = quadratic_jet(rng)
        g, ag, bg = quadratic_jet(rng)
        z = rng.standard_normal(4)
        gf = af @ z + bf
        gg = ag @ z + bg
        classic = gf[2:] @ gg[:2] - gf[:2] @ gg[2:]
        assert poisson_k(f, g, 1, z) == pytest.approx(classic, rel=1e-12)

    def test_k1_self_bracket_roundoff_only(self):
        # The implementation sums over multi-index pairs rather than forming
        # an explicit antisymmetric difference, so cancellation is to machine
        # precision rather than bitwise.
        rng = np.random.default_rng(42)
        f, _, _ = quadratic_jet(rng)
        z = rng.standard_normal(4)
        assert poisson_k(f, f, 1, z) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exchange_identity(self, k):
        # {a,b}_k - {b,a}_k is zero for even k and 2{a,b}_k for odd k.
        for seed in range(5):
            f = smooth_jet(2 * seed)
            g = smooth_jet(2 * seed + 1)
            z = np.random.default_rng(100 + seed).uniform(-1, 1, size=4)
            fg = poisson_k(f, g, k, z)
            gf = poisson_k(g, f, k, z)
            if k % 2 == 0:
                assert fg - gf == pytest.approx(0.0, abs=1e-5)
            else:
                assert fg - gf == pytest.approx(2.0 * fg, abs=1e-5)

    @pytest.mark.parametrize("k", [1, 3])
    def test_self_bracket_vanishes_odd(self, k):
        f = smooth_jet(7)
        z = np.array([0.2, -0.5, 0.7, 0.1])
        assert poisson_k(f, f, k, z) == pytest.approx(0.0, abs=1e-6)

    def test_energy_self_bracket_order3(self, ham_torsional_2d):
        jet = JetFunction.from_hamiltonian(ham_torsional_2d)
        z = np.array([1.0, 0.5, 0.4, -0.3])
        assert poisson_k(jet, jet, 3, z) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_order(self):
        f = smooth_jet(9)
        with pytest.raises(ValueError):
            poisson_k(f, f, 0, np.zeros(4))
        with pytest.raises(ValueError):
            poisson_k(f, f, 4, np.zeros(4))


class TestVariationalFlow:
    def test_initial_data(self, z0):
        s = VariationalState.initial(z0)
        np.testing.assert_array_equal(s.dphi, np.eye(4))
        np.testing.assert_array_equal(s.d2phi, 0.0)
        np.testing.assert_array_equal(s.d3phi, 0.0)

    def test_zero_duration(self, torsional_2d, z0):
        s = variational_flow(z0, 0.0, 1e-3, torsional_2d)
        np.testing.assert_array_equal(s.z, z0)
        np.testing.assert_array_equal(s.dphi, np.eye(4))

    def test_harmonic_jacobian_is_rotation(self):
        pot = harmonic_potential(1, 1.0)
        t = 0.9
        s = variational_flow(np.array([0.7, -0.2]), t, 1e-3, pot)
        rotation = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(s.dphi, rotation, atol=1e-8)
        np.testing.assert_allclose(s.d2phi, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.d3phi, 0.0, atol=1e-12)

    def test_jacobian_symplectic(self, torsional_2d, z0):
        s = variational_flow(z0, 1.0, 1e-3, torsional_2d)
        j = symplectic_j(2)
        np.testing.assert_allclose(s.dphi.T @ j @ s.dphi, j, atol=1e-8)
        assert np.linalg.det(s.dphi) == pytest.approx(1.0, abs=1e-8)

    def test_jacobian_matches_flow_perturbation(self, torsional_2d, z0):
        # Independent check: differentiate the order-8 splitting flow by
        # central differences and compare to the integrated Jacobian.
        t = 1.0
        s = variational_flow(z0, t, 1e-3, torsional_2d)
        eps = 1e-6
        fd = np.zeros((4, 4))
        for i in range(4):
            dz = np.zeros(4)
            dz[i] = eps
            plus = propagate(z0 + dz, t, 1e-3, 8, torsional_2d)
            minus = propagate(z0 - dz, t, 1e-3, 8, torsional_2d)
            fd[:, i] = (plus - minus) / (2.0 * eps)
        np.testing.assert_allclose(s.dphi, fd, atol=1e-5)

    def test_second_derivative_matches_jacobian_perturbation(self, torsional_2d, z0):
        # D2Phi equals the derivative of DPhi in the initial point.
        t = 0.5
        s = variational_flow(z0, t, 1e-3, torsional_2d)
        eps = 1e-5
        for k in range(4):
            dz = np.zeros(4)
            dz[k] = eps
            plus = variational_flow(z0 + dz, t, 1e-3, torsional_2d).dphi
            minus = variational_flow(z0 - dz, t, 1e-3, torsional_2d).dphi
            fd = (plus - minus) / (2.0 * eps)
            np.testing.assert_allclose(s.d2phi[:, :, k], fd, atol=1e-5)

    def test_third_derivative_matches_second_derivative_perturbation(self, torsional_2d, z0):
        # D3Phi equals the derivative of D2Phi in the initial point.
        t = 0.5
        s = variational_flow(z0, t, 1e-3, torsional_2d)
        eps = 1e-5
        for l in range(4):
            dz = np.zeros(4)
            dz[l] = eps
            plus = variational_flow(z0 + dz, t, 1e-3, torsional_2d).d2phi
            minus = variational_flow(z0 - dz, t, 1e-3, torsional_2d).d2phi
            fd = (plus - minus) / (2.0 * eps)
            np.testing.assert_allclose(s.d3phi[..., l], fd, atol=1e-5)


class TestHamiltonianDerivatives:
    def test_one_evaluation_per_right_hand_side(self, monkeypatch):
        calls = []
        diagonals = TorsionalPotential.diagonals

        def counted(self, q):
            calls.append(q.shape)
            return diagonals(self, q)

        monkeypatch.setattr(TorsionalPotential, "diagonals", counted)
        pot = torsional_potential(3)
        ham = Hamiltonian(pot)
        z = np.random.default_rng(37).uniform(-2.0, 2.0, size=(5, 6))
        general_rhs(GeneralCorrectionState.initial(z), ham)
        assert len(calls) == 1
        calls.clear()
        variational_flow(z, 0.1, 0.1, pot)  # one RK4 step: four stages
        assert len(calls) == 4
        # The third derivative comes out symmetric by construction, which is
        # what lets the flat form weight it without tilde_d3's symmetry scan.
        dh, _, d3h, _ = ham.derivatives(z)
        for perm in permutations((1, 2, 3)):
            np.testing.assert_array_equal(d3h, np.transpose(d3h, (0, *perm)))
        # The flow field reads the force from the same evaluation, bit for bit.
        np.testing.assert_array_equal(dh, ham.gradient(z))


class TestQuadratureTensors:
    def test_validation(self, torsional_2d, z0):
        with pytest.raises(ValueError, match="even"):
            quadrature_tensors(z0, 1.0, 15, torsional_2d)
        with pytest.raises(ValueError, match="even"):
            quadrature_tensors(z0, 1.0, 0, torsional_2d)
        with pytest.raises(ValueError, match="single"):
            quadrature_tensors(np.zeros((2, 4)), 1.0, 16, torsional_2d)

    def test_matches_split_step_tensors(self, torsional_2d, z0):
        # The integral representation evaluated by Simpson against the
        # split-step ODE propagation: two fully independent routes.
        z_end, lam, gam, xi = quadrature_tensors(z0, 1.0, 64, torsional_2d, tau_var=1e-3)
        blk = GeneralCorrectionState.from_block(evolve_correction(z0, 1.0, 1e-3, torsional_2d))
        np.testing.assert_allclose(z_end, blk.z, atol=1e-10)
        np.testing.assert_allclose(lam, blk.lam, atol=1e-8)
        np.testing.assert_allclose(gam, blk.gam, atol=1e-8)
        np.testing.assert_allclose(xi, blk.xi, atol=1e-8)


class TestA2Quadrature:
    def test_zero_time(self, torsional_2d, z0):
        a = make_observable("q1", torsional_2d)
        assert a2_quadrature(a, z0, 0.0, 16, torsional_2d) == 0.0

    @pytest.mark.parametrize("n_quad, tau_var, message", [
        (8, -1e-3, "step size must be positive"),
        (8, 0.0, "step size must be positive"),
        (3, 1e-3, "n_quad must be even and >= 2, got 3"),
        (0, 1e-3, "n_quad must be even and >= 2, got 0"),
    ])
    def test_zero_time_validates(self, torsional_2d, z0, n_quad, tau_var, message):
        # t = 0 is no shortcut: the arguments are checked as at t = 1.
        q1 = make_observable("q1", torsional_2d)
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match=message):
                a2_quadrature(q1, z0, t, n_quad, torsional_2d, tau_var=tau_var)

    def test_harmonic_identically_zero(self, z0):
        pot = harmonic_potential(2, (1.0, 2.0))
        for name in ("q1", "p2", "total"):
            a = make_observable(name, pot)
            assert a2_quadrature(a, z0, 0.5, 8, pot) == 0.0

    def test_matches_split_step_a2(self, torsional_2d, z0):
        # Smaller panel count than the acceptance run; Simpson error scales
        # as n^-4 so n=64 already sits near 1e-9.
        a = make_observable("q1", torsional_2d)
        val = a2_quadrature(a, z0, 1.0, 64, torsional_2d, tau_var=1e-3)
        blk = evolve_correction(z0, 1.0, 1e-3, torsional_2d)
        assert val == pytest.approx(float(a2_eval(a, blk)), abs=1e-6)

    def test_observable_list_shares_tensors(self, torsional_2d, z0):
        names = ("q1", "p1", "kinetic")
        observables = [make_observable(n, torsional_2d) for n in names]
        together = a2_quadrature(observables, z0, 1.0, 16, torsional_2d, tau_var=1e-2)
        assert isinstance(together, list) and len(together) == 3
        for obs, val in zip(observables, together):
            alone = a2_quadrature(obs, z0, 1.0, 16, torsional_2d, tau_var=1e-2)
            assert val == pytest.approx(alone, rel=1e-12)


class TestFlowIntegral:
    def test_rejects_odd_panels(self, torsional_2d, z0):
        with pytest.raises(ValueError):
            flow_integral(lambda s, y: 1.0, z0, 1.0, 5, torsional_2d)

    def test_rejects_negative_duration_and_step(self, torsional_2d, z0):
        # Both Simpson routes start from the reference trajectory, which
        # would otherwise integrate each panel by one RK4 step of any sign.
        q1 = make_observable("q1", torsional_2d)
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            flow_integral(lambda s, y: y[0], z0, -1.0, 8, torsional_2d)
        with pytest.raises(ValueError, match="step size must be positive"):
            flow_integral(lambda s, y: y[0], z0, 1.0, 8, torsional_2d, tau_flow=-1e-3)
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            a2_quadrature(q1, z0, -1.0, 8, torsional_2d)
        with pytest.raises(ValueError, match="step size must be positive"):
            a2_quadrature(q1, z0, 1.0, 8, torsional_2d, tau_var=-1e-3)

    def test_free_particle_closed_form(self):
        # For V = 0 the flow is exact under RK4 and
        # int_0^t q1(Phi^{t-s} z) ds = t q1 + t^2/2 p1.
        pot = free_potential(2)
        z0 = np.array([0.3, 0.0, 0.7, 0.0])
        val = flow_integral(lambda s, y: y[0], z0, 2.0, 8, pot, tau_flow=0.25)
        assert val == pytest.approx(2.0 * 0.3 + 2.0 * 0.7, abs=1e-12)

    def test_constant_integrand(self, torsional_2d, z0):
        assert flow_integral(lambda s, y: 1.0, z0, 3.0, 6, torsional_2d, tau_flow=0.25) == pytest.approx(3.0)

    def test_transport_differentiation_identity(self, torsional_2d, z0):
        # d/dt of I(t) = int_0^t b(Phi^{t-s} z0) f(s) ds equals
        # int_0^t b(Phi^{t-s} z0) f'(s) ds + b(Phi^t z0) f(0): differentiating
        # the transported integral moves the derivative onto the weight plus
        # a boundary term.
        b = lambda z: z[..., 0] ** 2 * z[..., 3]

        def integral(t):
            return flow_integral(
                lambda s, y: b(y) * np.cos(s), z0, t, 32, torsional_2d, tau_flow=1e-3
            )

        dt = 1e-3
        lhs = (integral(1.0 + dt) - integral(1.0 - dt)) / (2.0 * dt)
        rhs = flow_integral(
            lambda s, y: b(y) * -np.sin(s), z0, 1.0, 32, torsional_2d, tau_flow=1e-3
        ) + b(propagate(z0, 1.0, 1e-3, 8, torsional_2d)) * np.cos(0.0)
        assert lhs == pytest.approx(rhs, abs=1e-4)


class TestBracketIntegrandEquivalence:
    @pytest.mark.parametrize("name", ["potential", "kinetic", "q1"])
    def test_direct_bracket_matches_tensor_contraction(self, name, torsional_2d, ham_torsional_2d):
        # {h, a o Phi^sigma}_3 evaluated two ways: the bracket sum with
        # finite-difference jets of the numerically composed observable, and
        # the chain-rule tensor contraction against the weighted, J-applied
        # third derivative.  Validates the weight convention end to end.
        sigma = 1.0
        y = np.array([0.8, -0.4, 0.5, 0.2])
        a = make_observable(name, torsional_2d)
        var = variational_flow(y, sigma, 1e-3, torsional_2d)
        tensor_val = np.einsum(
            "ijk,kji->",
            composed_third_derivative(a, var),
            apply_J_triple(tilde_d3(ham_torsional_2d.derivatives(y)[2])),
        )

        def a_composed(z):
            return a.value(propagate(z, sigma, 1e-2, 8, torsional_2d))

        direct = poisson_k(
            JetFunction.from_hamiltonian(ham_torsional_2d),
            JetFunction.from_callable(a_composed, step=1e-4),
            3,
            y,
        )
        assert direct == pytest.approx(float(tensor_val), abs=1e-5)
        assert direct == pytest.approx(float(tensor_val), rel=1e-5)

    def test_a2_from_bracket_integral(self, torsional_2d, ham_torsional_2d, z0):
        # a2(t) = -1/4 int_0^t {h, a o Phi^s}_3 o Phi^{t-s} ds, with the
        # integrand built from the tensor contraction at each Simpson node.
        a = make_observable("q1", torsional_2d)

        def integrand(s, y):
            if s <= 0:
                var = VariationalState.initial(y)
            else:
                n = max(1, math.ceil(s / 1e-2))
                var = variational_flow(y, s, s / n, torsional_2d)
            return np.einsum(
                "ijk,kji->",
                composed_third_derivative(a, var),
                apply_J_triple(tilde_d3(ham_torsional_2d.derivatives(y)[2])),
            )

        val = -0.25 * flow_integral(integrand, z0, 1.0, 16, torsional_2d, tau_flow=1e-2)
        blk = evolve_correction(z0, 1.0, 1e-3, torsional_2d)
        assert val == pytest.approx(float(a2_eval(a, blk)), abs=1e-6)
