"""Shared fixtures and helpers: the standard torsional/harmonic setups used
across the suite, the symplectic matrix, a finite-difference check of
potential derivatives, and a coupled potential that is not separable."""

from __future__ import annotations

import numpy as np
import pytest

from egorov import harmonic_potential, torsional_potential
from egorov.oracle import Hamiltonian
from egorov.potentials import Potential


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


class CoupledPotential(Potential):
    """V = q1 q2: its hessian is not diagonal, and it is not a sum of
    per-coordinate terms."""

    d = 2

    def value(self, q):
        q = np.asarray(q)
        return q[..., 0] * q[..., 1]

    def gradient(self, q):
        return np.asarray(q)[..., ::-1]


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
