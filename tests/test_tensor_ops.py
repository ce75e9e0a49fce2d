"""Tensor utilities: the weighted third derivative, symplectic
contractions, and the identity behind the correction stepper's elementwise
mode products, each checked against brute-force loop oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from egorov.oracle import GeneralCorrectionState, _factorial_mi, general_rhs, multi_indices
from egorov.potentials import Potential, scatter_diagonals, torsional_potential
from egorov.tensor_ops import apply_J_triple, j_contract_axis, tilde_d3

from conftest import DenseHamiltonian, symplectic_j


def mode_multiply_loops(a: np.ndarray, b: np.ndarray, mode: int) -> np.ndarray:
    """Brute-force mode product: contract a into slot ``mode`` of b."""
    out = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        for l in range(b.shape[mode]):
            src = list(idx)
            src[mode] = l
            out[idx] += a[idx[mode], l] * b[tuple(src)]
    return out


def scatter(v: np.ndarray) -> np.ndarray:
    """The 3-tensors (..., d, d, d) that production's scatter builds from
    same-coordinate diagonals v (..., d)."""
    return scatter_diagonals({(0, 0, 0): v}, np.zeros(v.shape + v.shape[-1:] * 2))


class TestModeMultiply:
    """The identity the per-coordinate correction kernel rests on: diag(c)
    in any slot of the tensor scattered from v is the tensor scattered from
    c v."""

    def test_identity_matrix_is_noop(self):
        v = np.random.default_rng(2).standard_normal(3)
        for mode in range(3):
            np.testing.assert_array_equal(
                mode_multiply_loops(np.eye(3), scatter(v), mode), scatter(v)
            )

    def test_scaling(self):
        v = np.random.default_rng(3).standard_normal(2)
        np.testing.assert_allclose(
            mode_multiply_loops(2.0 * np.eye(2), scatter(v), 1), scatter(2.0 * v)
        )

    def test_matches_loop_oracle_all_modes(self):
        # a batch of distinct diagonals, scattered at once and one at a time
        rng = np.random.default_rng(5)
        c = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        batched = scatter(v)
        for ci, vi, bi in zip(c, v, batched):
            np.testing.assert_array_equal(bi, scatter(vi))
            for mode in range(3):
                np.testing.assert_allclose(
                    mode_multiply_loops(np.diag(ci), bi, mode), scatter(ci * vi),
                    rtol=0.0, atol=1e-12,
                )


def random_symmetric(rng, d: int) -> np.ndarray:
    """A random symmetric (d, d, d) tensor: the sum of a normal draw over
    the six orderings of its indices."""
    raw = rng.standard_normal((d, d, d))
    return sum(raw.transpose(perm) for perm in itertools.permutations(range(3)))


def multi_index_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over the multi-indices alpha with |alpha| = 3 of a_alpha b_alpha
    / alpha!, the weighting of the third-order bracket; a_alpha is the entry
    of a at the sorted index triple of alpha."""
    d = a.shape[0]
    total = 0.0
    for alpha in multi_indices(d, 3):
        index = tuple(np.repeat(np.arange(d), alpha))
        total += a[index] * b[index] / _factorial_mi(alpha)
    return total


class CubicPotential(Potential):
    """V = (1/6) a_ijk q_i q_j q_k for a symmetric a: its third derivative is
    a everywhere, and its dense derivatives couple the coordinates."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.d = a.shape[0]

    def dense(self, q):
        hessian = np.einsum("ijk,...k->...ij", self.a, q)
        gradient = 0.5 * np.einsum("...ij,...j->...i", hessian, q)
        batch = np.shape(q)[:-1]
        third = np.broadcast_to(self.a, batch + self.a.shape)
        return gradient, hessian, third, np.zeros(batch + (self.d,) * 4)


class TestD3Weight:
    """Summed over every index triple, the weighted D3h against a symmetric
    b is the third-order bracket's sum over multi-indices: each alpha occurs
    in 3!/alpha! orderings and the bracket weights it by 1/alpha!, so every
    entry carries 1/6.  At d = 1 only the main diagonal exists."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tilde_d3_matches_multi_index_sum(self, d):
        rng = np.random.default_rng(60 + d)
        a, b = random_symmetric(rng, d), random_symmetric(rng, d)
        got = float(np.sum(tilde_d3(a) * b))
        assert got == pytest.approx(multi_index_sum(a, b), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_general_rhs_source_matches_multi_index_sum(self, d):
        # From zero tensors, dlam is Lambda's source alone, the J-contracted
        # weighted D3h.  J is orthogonal, so contracting dlam with the
        # J-contracted b undoes the three contractions.
        rng = np.random.default_rng(70 + d)
        a, b = random_symmetric(rng, d), random_symmetric(rng, d)
        z = rng.standard_normal(2 * d)
        h = DenseHamiltonian(CubicPotential(a))
        _, dlam, _, _ = general_rhs(GeneralCorrectionState.initial(z), h)
        b_full = np.zeros((2 * d,) * 3)
        b_full[:d, :d, :d] = b
        got = float(np.sum(dlam * apply_J_triple(b_full)))
        assert got == pytest.approx(multi_index_sum(a, b), rel=1e-12, abs=0.0)


class TestTildeD3:
    def test_torsional_origin_is_zero(self):
        pot = torsional_potential(1)
        out = tilde_d3(pot.third(np.zeros(1)))
        np.testing.assert_array_equal(out, np.zeros((1, 1, 1)))

    def test_torsional_quarter_turn_entry(self):
        # d=1 at q = pi/2: V = 1 - cos(q), so V''' = -sin(q) = -1 there, and
        # the 1/6 diagonal weight gives -1/6.
        pot = torsional_potential(1)
        out = tilde_d3(pot.third(np.array([np.pi / 2])))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(-1.0 / 6.0)

    def test_torsional_2d_diagonal_entries(self):
        pot = torsional_potential(2)
        out = tilde_d3(pot.third(np.array([np.pi / 2, np.pi / 2])))
        assert out[0, 0, 0] == pytest.approx(-1.0 / 6.0)
        assert out[1, 1, 1] == pytest.approx(-1.0 / 6.0)
        rest = out.copy()
        rest[0, 0, 0] = 0.0
        rest[1, 1, 1] = 0.0
        np.testing.assert_array_equal(rest, np.zeros((2, 2, 2)))

    def test_rejects_asymmetric_input(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 1, 0] = 1.0  # no matching entries under index permutation
        with pytest.raises(ValueError, match="symmetric"):
            tilde_d3(bad)

    def test_tolerates_roundoff_asymmetry(self):
        t = np.full((2, 2, 2), 0.25)
        t[0, 1, 0] += 1e-12
        tilde_d3(t)  # should not raise


class TestSymplectic:
    def test_j_squares_to_minus_identity(self):
        for d in (1, 2, 3):
            j = symplectic_j(d)
            np.testing.assert_array_equal(j @ j, -np.eye(2 * d))
            np.testing.assert_array_equal(j.T, -j)

    def test_contract_axis_matches_matrix_product(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 4))
        j = symplectic_j(2)
        np.testing.assert_allclose(j_contract_axis(t, 0), j @ t, atol=1e-14)
        np.testing.assert_allclose(j_contract_axis(t, 1), t @ j.T, atol=1e-14)

    def test_contract_axis_batched_and_negative_axes(self):
        # J contracted into each phase axis of a batched tensor, named from
        # either end, is the matrix product on that axis.
        rng = np.random.default_rng(11)
        t = rng.standard_normal((3, 4, 4, 4))
        j = symplectic_j(2)
        for axis in (1, 2, 3):
            want = np.moveaxis(np.tensordot(j, t, axes=(1, axis)), 0, axis)
            np.testing.assert_array_equal(j_contract_axis(t, axis), want)
            np.testing.assert_array_equal(j_contract_axis(t, axis - 4), want)

    def test_contract_axis_rejects_odd_extent(self):
        with pytest.raises(ValueError):
            j_contract_axis(np.zeros((3, 3)), 0)


def apply_J_triple_loops(t: np.ndarray) -> np.ndarray:
    j = symplectic_j(t.shape[0] // 2)
    n = t.shape[0]
    out = np.zeros_like(t)
    for i in range(n):
        for jj in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        for nn in range(n):
                            out[i, jj, k] += j[i, l] * j[jj, m] * j[k, nn] * t[l, m, nn]
    return out


class TestApplyJTriple:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(apply_J_triple(np.zeros((4, 4, 4))), np.zeros((4, 4, 4)))

    def test_single_entry_block_swap(self):
        # d=1: a lone 1 at (0,0,0) (position block) lands at (1,1,1)
        # (momentum block).  Each of the three contractions picks the -Id
        # block of J, so the value is (-1)^3 = -1; the loop oracle below
        # settles the sign.
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        out = apply_J_triple(t)
        expected = np.zeros((2, 2, 2))
        expected[1, 1, 1] = -1.0
        np.testing.assert_array_equal(out, expected)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for d in (1, 2):
            t = rng.standard_normal((2 * d,) * 3)
            np.testing.assert_allclose(apply_J_triple(t), apply_J_triple_loops(t), atol=1e-12)

    def test_preserves_symmetry_bidirectional(self):
        # Full symmetry survives the triple J contraction, and conversely a
        # tensor that is not symmetric stays not symmetric (the map is
        # invertible and commutes with index permutations).
        rng = np.random.default_rng(10)

        def is_symmetric(t):
            return all(
                np.allclose(t, np.transpose(t, perm), atol=1e-12)
                for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0))
            )

        for _ in range(200):
            raw = rng.standard_normal((4, 4, 4))
            sym = np.zeros((4, 4, 4))
            for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                sym += np.transpose(raw, perm)
            sym /= 6.0
            assert is_symmetric(apply_J_triple(sym))

        for _ in range(50):
            raw = rng.standard_normal((4, 4, 4))
            if is_symmetric(raw):  # pragma: no cover - measure-zero event
                continue
            assert not is_symmetric(apply_J_triple(raw))

    def test_involution_up_to_sign(self):
        # J^2 = -Id on every slot, so applying the triple contraction twice
        # flips the overall sign.
        rng = np.random.default_rng(13)
        t = rng.standard_normal((4, 4, 4))
        np.testing.assert_allclose(apply_J_triple(apply_J_triple(t)), -t, atol=1e-12)
