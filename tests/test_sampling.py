"""Halton points, the normal quantile, and QMC means over the sampled
Wigner density."""

import inspect
import math
from statistics import NormalDist

import numpy as np
import pytest

import egorov.sampling as sampling
from egorov.oracle import Hamiltonian
from egorov.potentials import torsional_potential
from egorov.sampling import (
    GaussianPacket,
    first_primes,
    halton,
    halton_sequence,
    inverse_normal_cdf,
    sample_points,
)

EPS = 0.1
CENTER = np.array([1.0, 0.5, 0.0, 0.0])


@pytest.fixture
def packet():
    return GaussianPacket(CENTER, EPS)


class TestGaussianPacket:
    def test_dimension(self, packet):
        assert packet.d == 2

    def test_rejects_odd_center(self):
        with pytest.raises(ValueError, match="even"):
            GaussianPacket(np.zeros(3), 0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            GaussianPacket(np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            GaussianPacket(np.zeros(4), -0.1)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            GaussianPacket([0.0, 0.0], epsilon)

    @pytest.mark.parametrize("center", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]])
    def test_rejects_non_finite_center(self, center):
        with pytest.raises(ValueError, match="finite"):
            GaussianPacket(center, 0.1)


class TestQmcSampler:
    """sample_points' count and skip: the quasi-Monte Carlo sampler's input."""

    def test_defaults(self):
        assert inspect.signature(sample_points).parameters["skip"].default == 64

    def test_rejects_empty(self, packet):
        with pytest.raises(ValueError, match="need at least one sample point, got 0"):
            sample_points(packet, 0)

    def test_rejects_negative_skip(self, packet):
        with pytest.raises(ValueError, match="skip must be nonnegative"):
            sample_points(packet, 10, skip=-1)


class TestFirstPrimes:
    def test_known_prefix(self):
        assert first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_empty(self):
        assert first_primes(0) == []


def radical_inverse(index: int, base: int) -> float:
    """The radical inverse of a Python int, digit by digit from the lowest,
    in float64, below 1."""
    out, factor = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        out += factor * digit
        factor /= base
    return min(out, math.nextafter(1.0, 0.0))


class TestHalton:
    def test_base2_prefix(self):
        # Radical inverse by hand: 1 -> .1, 2 -> .01, 3 -> .11 in base 2.
        assert halton(1, 2) == 0.5
        assert halton(2, 2) == 0.25
        assert halton(3, 2) == 0.75

    def test_base3_prefix(self):
        assert halton(1, 3) == pytest.approx(1 / 3)
        assert halton(2, 3) == pytest.approx(2 / 3)
        assert halton(3, 3) == pytest.approx(1 / 9)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match="start at 1"):
            halton(0, 2)
        with pytest.raises(ValueError, match="start at 1"):
            halton(np.array([3, 0]), 5)

    def test_open_interval(self):
        for base in first_primes(6):
            vals = halton(np.arange(1, 2000), base)
            assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_vectorized_matches_scalar(self):
        idx = np.arange(1, 50)
        vec = halton(idx, 7)
        np.testing.assert_array_equal(vec, [halton(int(i), 7) for i in idx])

    @pytest.mark.parametrize("base", [2, 3, 5, 7, 11, 13])
    def test_bitwise_digit_sum(self, base):
        # The radical inverse adds factor * digit from the lowest digit up,
        # in float64: a Python loop doing the same gives the same bits, for
        # small and large indices, on the array and on the scalar path.  The
        # indices b^k - 1, b^k and b^k + 1 change the digit count, up to the
        # int64 limit; in one array, the shorter indices add zeros past
        # their last digit.
        indices = [1, 2, base, base**2 - 1] + list(range(10**12, 10**12 + 50))
        k = 1
        while base**k + 1 <= 2**63 - 1:
            indices += [base**k - 1, base**k, base**k + 1]
            k += 1
        indices.append(2**63 - 1)
        expected = np.array([radical_inverse(i, base) for i in indices])
        assert halton(np.array(indices), base).tobytes() == expected.tobytes()
        for i, want in zip(indices, expected.tolist()):
            got = halton(i, base)
            assert isinstance(got, float) and got == want
        zero_d = halton(np.array(2**63 - 1), base)
        assert isinstance(zero_d, float) and zero_d == expected[-1]
        empty = halton(np.array([], dtype=np.int64), base)
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert halton(np.zeros((2, 0), dtype=np.int64), base).shape == (2, 0)

    def test_large_index_stays_below_one(self):
        # The float64 digit sum of 5**22 - 1 in base 5 (all digits 4) rounds
        # to exactly 1.0.
        assert halton(5**22 - 1, 5) == np.nextafter(1.0, 0.0)
        assert halton(np.array([5**22 - 1]), 5)[0] < 1.0


class TestHaltonSequence:
    def test_shape_and_range(self):
        pts = halton_sequence(200, 4)
        assert pts.shape == (200, 4)
        assert np.all((pts > 0) & (pts < 1))

    def test_skip_drops_prefix(self):
        full = halton_sequence(30, 3, skip=0)
        tail = halton_sequence(20, 3, skip=10)
        np.testing.assert_array_equal(tail, full[10:])

    def test_column_bases(self):
        pts = halton_sequence(5, 2, skip=0)
        np.testing.assert_allclose(pts[:, 0], [halton(i, 2) for i in range(1, 6)])
        np.testing.assert_allclose(pts[:, 1], [halton(i, 3) for i in range(1, 6)])


class TestInverseNormalCdf:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == 0.0

    def test_frozen_quantile(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_antisymmetry(self):
        u = np.array([0.01, 0.2, 0.37, 0.49, 0.6, 0.999])
        np.testing.assert_allclose(
            inverse_normal_cdf(1.0 - u), -inverse_normal_cdf(u), atol=1e-12
        )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="strictly"):
                inverse_normal_cdf(bad)

    @pytest.mark.parametrize("bad", [np.nan, [0.3, np.nan], [[0.2], [np.nan]]])
    def test_rejects_nan(self, bad):
        with pytest.raises(ValueError, match="strictly"):
            inverse_normal_cdf(bad)

    def test_matches_scipy_ndtri(self):
        # The 4e4 quantiles of a 1e4-point sample at d = 2: AS241 against
        # scipy's cephes ndtri, measured at most 8.5e-16 relative apart.
        special = pytest.importorskip("scipy.special")
        u = halton_sequence(10_000, 4, skip=64)
        np.testing.assert_allclose(inverse_normal_cdf(u), special.ndtri(u), rtol=2e-15, atol=0)

    def test_bitwise_standard_library(self):
        # Every branch of AS241 gives the bits of NormalDist().inv_cdf, on
        # arrays and on scalars: the centre, both tails to 1e-300 and
        # 1 - 1e-16, and the points where the branches meet.
        normal = NormalDist()
        rng = np.random.default_rng(7)
        u = np.concatenate([
            halton_sequence(25_000, 4, skip=64).ravel(),
            rng.random(100_000),
            10.0 ** -rng.uniform(0.0, 300.0, 10_000),
            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000),
            [5e-324, 0.075, 0.925, 0.5, np.nextafter(0.075, 0.0),
             np.nextafter(0.925, 1.0), np.nextafter(1.0, 0.0)],
        ])
        expected = np.array([normal.inv_cdf(x) for x in u.tolist()])
        assert inverse_normal_cdf(u).tobytes() == expected.tobytes()
        # The scalar path too, on every 97th point and the branch edges.
        scalars = np.concatenate([u[::97], u[-7:]])
        got = np.array([inverse_normal_cdf(x) for x in scalars.tolist()])
        want = np.array([normal.inv_cdf(x) for x in scalars.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_scalar_and_shape(self):
        assert isinstance(inverse_normal_cdf(0.3), float)
        assert inverse_normal_cdf(np.full((3, 2), 0.3)).shape == (3, 2)


class TestSamplePoints:
    def test_shape(self, packet):
        assert sample_points(packet, 50).shape == (50, 4)

    def test_mean_near_center(self, packet):
        n = 10_000
        pts = sample_points(packet, n)
        bound = 3.0 * np.sqrt(EPS / 2.0) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(pts.mean(axis=0) - CENTER), bound)

    def test_covariance_diagonal(self, packet):
        pts = sample_points(packet, 10_000)
        np.testing.assert_allclose(np.diag(np.cov(pts.T)), EPS / 2.0, rtol=0.1)

    def test_median_point_maps_to_center(self, packet, monkeypatch):
        # The coordinate-wise median of the normal is zero, so the Halton
        # point (1/2, ..., 1/2) lands exactly on the packet center.
        monkeypatch.setattr(
            sampling, "halton_sequence", lambda n, dim, skip=64: np.full((n, dim), 0.5)
        )
        pts = sampling.sample_points(packet, 1)
        np.testing.assert_array_equal(pts, CENTER[None, :])

    def test_finite_where_the_radical_inverse_rounds_to_one(self, packet):
        # Index skip + 1 = 5**22 - 1 in base 5, the third of the 2d = 4 axes.
        pts = sample_points(packet, 1, skip=5**22 - 2)
        assert pts.shape == (1, 4)
        assert np.all(np.isfinite(pts))

    @pytest.mark.parametrize("d, skip", [(1, 64), (2, 64), (3, 64), (2, 10**12)])
    def test_bitwise_scaled_standard_library_quantiles(self, d, skip):
        # Each coordinate is center + sqrt(eps/2) * NormalDist().inv_cdf(u)
        # of its Halton coordinate u, bit for bit.
        packet = GaussianPacket(np.linspace(-1.0, 1.0, 2 * d), 0.02)
        u = halton_sequence(300, 2 * d, skip)
        normal = NormalDist()
        quantiles = np.array([normal.inv_cdf(x) for x in u.ravel().tolist()])
        expected = packet.center + np.sqrt(packet.epsilon / 2.0) * quantiles.reshape(u.shape)
        assert sample_points(packet, 300, skip).tobytes() == expected.tobytes()

    def test_largest_valid_call(self, packet):
        # The last index, skip + count, is 2**63 - 1: each coordinate is
        # center + sqrt(eps/2) * NormalDist().inv_cdf(u) of the radical
        # inverse of its index, bit for bit.
        skip, normal = 2**63 - 4, NormalDist()
        scale = math.sqrt(packet.epsilon / 2.0)
        expected = np.array([
            [c + scale * normal.inv_cdf(radical_inverse(skip + i, b))
             for c, b in zip(packet.center.tolist(), first_primes(4))]
            for i in (1, 2, 3)
        ])
        assert sample_points(packet, 3, skip).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count, skip", [(10, 2**63 - 5), (1, 2**63 - 1), (4, 2**64)])
    def test_rejects_indices_past_int64(self, packet, count, skip):
        # The Halton indices skip + 1 .. skip + count are int64; past the
        # limit they would wrap, or not convert.
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            sample_points(packet, count, skip)

    def test_deterministic(self, packet):
        a = sample_points(packet, 500, skip=64)
        b = sample_points(packet, 500, skip=64)
        np.testing.assert_array_equal(a, b)


class TestQmcExpectation:
    """Plain means over sample_points, as the ensemble runs take them."""

    def test_coordinate_mean(self, packet):
        pts = sample_points(packet, 10_000)
        assert pts[:, 0].mean() == pytest.approx(1.0, abs=1e-2)

    def test_energy_moment_expansion(self):
        # Gaussian moments of the torsional Hamiltonian are exact:
        # E[|p|^2/2] = d eps/4 and E[cos q_i] = cos(q0_i) e^{-eps/4}.
        # The second-order expansion V(q0) + (eps/4) tr D2V(q0) agrees with
        # the exact value to O(eps^2).
        eps = 0.01
        pot = torsional_potential(2)
        ham = Hamiltonian(pot)
        pts = sample_points(GaussianPacket(CENTER, eps), 10_000)
        got = ham.value(pts).mean()
        exact = 2 * eps / 4 + 2.0 - (np.cos(1.0) + np.cos(0.5)) * np.exp(-eps / 4)
        expansion = (
            2 * eps / 4
            + pot.value(CENTER[:2])
            + (eps / 4) * np.trace(pot.hessian(CENTER[:2]))
        )
        assert exact == pytest.approx(expansion, abs=1e-5)
        assert got == pytest.approx(exact, abs=5e-4)

    @pytest.mark.parametrize(
        "f,truth",
        [
            (lambda z: z[:, 0], 1.0),
            (lambda z: np.cos(z[:, 0]), np.cos(1.0) * np.exp(-EPS / 4)),
        ],
    )
    def test_convergence_rate(self, packet, f, truth):
        # Empirical decay of the quadrature error for a smooth integrand;
        # Halton sits a little below the ideal 1/N (measured -0.79).
        errs = []
        for n in (1000, 10_000, 100_000):
            pts = sample_points(packet, n)
            errs.append(abs(f(pts).mean() - truth))
        slope = np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(errs), 1)[0]
        assert -1.1 < slope < -0.7
