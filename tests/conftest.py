"""Shared fixtures and helpers: the standard torsional/harmonic setups used
across the suite, the symplectic matrix, a finite-difference check of
potential derivatives, a coupled potential that is not separable, the
Hamiltonian of a potential with dense derivatives, the d-dimensional grid
propagation, and the Gauss-Hermite rule of a packet's Wigner Gaussian."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

import egorov.reference as reference
from egorov import harmonic_potential, torsional_potential
from egorov.flow import split_snapshots
from egorov.oracle import Hamiltonian
from egorov.potentials import Potential
from egorov.reference import WaveFunctionGrid, expectation, init_packet


def symplectic_j(d: int) -> np.ndarray:
    """The standard symplectic matrix [[0, Id], [-Id, 0]] of size 2d."""
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def phase_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """Copies of z's position and momentum halves: the (q, p) pair that
    flow.drift updates in place."""
    z = np.asarray(z, dtype=float)
    d = z.shape[-1] // 2
    return z[..., :d].copy(), z[..., d:].copy()


def phase_point(pair) -> np.ndarray:
    """The phase point of a (q, p) pair."""
    return np.concatenate(pair, axis=-1)


def kick_pair(z, potential: Potential) -> tuple[np.ndarray, np.ndarray]:
    """The (x, p) pair of z in the potential's kick coordinates,
    x = kick_scale q: the pair flow.kick reads, and flow.drift moves for
    kick_scale times its time."""
    q, p = phase_pair(z)
    return potential.kick_scale * q, p


def kick_point(pair, potential: Potential) -> np.ndarray:
    """The phase point of an (x, p) pair in the potential's kick coordinates."""
    x, p = pair
    return phase_point((x / potential.kick_scale, p))


# Shapes (N, d) of the alignment checks: N d is off a multiple of 8 at
# (7693, 3) and (1001, 1), so rows of those need padding, and on one at
# (5000, 2).
ALIGNMENT_SHAPES = [(7693, 3), (1001, 1), (5000, 2)]


def starts_on_cache_lines(rows) -> bool:
    """Whether every row of ``rows`` starts at an address divisible by 64."""
    return all(rows[i, ...].ctypes.data % 64 == 0 for i in range(len(rows)))


class CoupledPotential(Potential):
    """V = q1 q2: its hessian is not diagonal, and it is not a sum of
    per-coordinate terms."""

    d = 2

    def value(self, q):
        q = np.asarray(q)
        return q[..., 0] * q[..., 1]

    def gradient(self, q):
        return np.asarray(q)[..., ::-1]


class DenseHamiltonian(Hamiltonian):
    """h = |p|^2 / 2 + V(q) for a potential that states its dense
    derivatives DV to D4V, (..., d, ..., d), through ``dense(q)``: the
    flat-form oracle on a potential whose derivatives couple coordinates,
    which ``Hamiltonian.derivatives`` cannot read from ``diagonals``."""

    def derivatives(self, z):
        z = np.asarray(z)
        d = self.d
        out = []
        for order, tensor in enumerate(self.potential.dense(z[..., :d]), 1):
            full = np.zeros(z.shape[:-1] + (2 * d,) * order)
            full[(...,) + (slice(0, d),) * order] = tensor
            out.append(full)
        out[0][..., d:] = z[..., d:]
        out[1][..., d:, d:] += np.eye(d)
        return tuple(out)


def grid_oracle(spec, packet, potential, times, tau, observable_names):
    """The d-dimensional propagation that :func:`reference_expectations`
    factorizes: one order-4 split-step run on the full tensor grid, with the
    monitors read on the d-dimensional state at every snapshot."""
    grid = init_packet(spec, packet)
    eps = grid.epsilon
    v = spec.mesh_value(potential)
    flows = reference._grid_flows(spec, v, eps)
    table = {name: np.empty(len(times)) for name in observable_names}
    snaps = split_snapshots(grid.psi, times, tau, reference._ORDER, *flows)
    for i, (t_snap, psi) in enumerate(zip(times, snaps)):
        grid = WaveFunctionGrid(psi=psi, spec=spec, epsilon=eps, t=t_snap)
        drift = abs(grid.norm() - 1.0)
        if drift > 1e-10:
            raise RuntimeError(f"unitarity lost: norm drift {drift:.3e} at t={t_snap}")
        shell = grid.boundary_mass()
        if shell > reference._BOUNDARY_RUN_TOL:
            raise RuntimeError(
                f"boundary mass {shell:.3e} at t={t_snap}: packet reached the domain edge"
            )
        readings = reference._Readings(grid, potential, v)
        for name in observable_names:
            table[name][i] = expectation(grid, name, potential, readings)
    return table


def gauss_hermite_rule(center, epsilon: float, n: int):
    """Tensor Gauss-Hermite rule with n nodes per axis for the packet's
    Wigner Gaussian, the normal density N(center, (eps/2) Id) on R^(2d):
    nodes center + sqrt(eps) x, weights prod(w) / pi^d."""
    x, w = hermgauss(n)
    dim = len(center)
    axes = np.meshgrid(*([x] * dim), indexing="ij")
    nodes = np.asarray(center) + np.sqrt(epsilon) * np.stack(
        [a.ravel() for a in axes], axis=-1
    )
    weights = reduce(np.multiply.outer, [w] * dim).ravel() / np.pi ** (dim // 2)
    return nodes, weights


def finite_difference_check(
    potential: Potential, q: np.ndarray, order: int, step: float = 1e-5
) -> float:
    """Max absolute difference between the analytic order-k derivative and a
    central difference of the order-(k-1) evaluator.  O(step^2) accurate."""
    if step <= 0:
        raise ValueError("step must be positive")
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    evaluators = (
        potential.value, potential.gradient, potential.hessian,
        potential.third, potential.fourth,
    )
    q = np.asarray(q, dtype=float)
    analytic = evaluators[order](q)
    fd = np.empty_like(analytic)
    for j in range(potential.d):
        dq = np.zeros_like(q)
        dq[..., j] = step
        plus = evaluators[order - 1](q + dq)
        minus = evaluators[order - 1](q - dq)
        fd[..., j] = (plus - minus) / (2.0 * step)
    return float(np.max(np.abs(analytic - fd)))


@pytest.fixture
def torsional_2d():
    return torsional_potential(2)


@pytest.fixture
def torsional_1d():
    return torsional_potential(1)


@pytest.fixture
def harmonic_2d():
    return harmonic_potential(2, (1.0, 2.0))


@pytest.fixture
def ham_torsional_2d(torsional_2d):
    return Hamiltonian(torsional_2d)


@pytest.fixture
def ham_harmonic_2d(harmonic_2d):
    return Hamiltonian(harmonic_2d)


@pytest.fixture
def z0():
    """The reference initial phase-space point (q, p) = ((1, 0.5), (0, 0))."""
    return np.array([1.0, 0.5, 0.0, 0.0])
