"""Numerical cross-checks, each defined once.

Every check is one function that runs production code on fixed inputs and
returns its measured numbers by name; it asserts nothing.  Production is
held against the references in :mod:`egorov.oracle`, or against Kronecker
matrices built with numpy for the mode products the correction stepper
takes elementwise.
``egorov selftest`` runs the :data:`BATTERY`, which holds the band each
number must lie in.  The acceptance tests call the same functions (criteria 1, 2, 7 and
8) and assert their own literal bounds.

Inputs follow the acceptance criteria: the torsional trajectory from
:data:`Z0` to t = 1 for the tensor checks, criterion 2's three phase points
for the harmonic one, and one generator seeded with :data:`IDENTITY_SEED`
for the random tensors of the identity checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import potentials
from .correction import a2_eval, evolve_correction
from .flow import propagate
from .observables import make_observable
from .oracle import (
    GeneralCorrectionState, Hamiltonian, JetFunction, a2_quadrature, evolve_general,
    flow_integral, poisson_k,
)
from .potentials import harmonic_potential, torsional_potential
from .tensor_ops import apply_J_triple, tilde_d3

__all__ = [
    "BATTERY",
    "IDENTITY_SEED",
    "ORACLE_OBSERVABLES",
    "Z0",
    "CheckResult",
    "block_general_equivalence",
    "bracket_antisymmetry",
    "harmonic_zero_correction",
    "integrator_orders",
    "oracle_equivalence",
    "run_check",
    "selftest",
    "symmetry_preservation",
    "transport_integral_identity",
    "vectorization_identities",
]

Z0 = np.array([1.0, 0.5, 0.0, 0.0])
ORACLE_OBSERVABLES = ("q1", "p1", "kinetic", "potential")
IDENTITY_SEED = 20260825


def _peak(*arrays) -> float:
    """Largest absolute entry over all arrays; NaN if any entry is NaN."""
    return float(np.max(np.abs(np.concatenate([np.ravel(a) for a in arrays]))))


def oracle_equivalence() -> dict[str, float]:
    """Relative difference of a2 between the split-step tensors (tau = 1e-3)
    and the bracket-quadrature oracle (256 nodes), per observable."""
    pot = torsional_potential(2)
    observables = [make_observable(name, pot) for name in ORACLE_OBSERVABLES]
    state = evolve_correction(Z0, 1.0, 1e-3, pot)
    quad = a2_quadrature(observables, Z0, 1.0, 256, pot, tau_var=1e-3)
    return {
        obs.name: abs(float(a2_eval(obs, state)) - q) / abs(q)
        for obs, q in zip(observables, quad)
    }


def block_general_equivalence() -> dict[str, float]:
    """Largest entrywise gap between the split-step tensors and the flat
    general-form tensors integrated by RK4, both at tau = 1e-3."""
    pot = torsional_potential(2)
    block = GeneralCorrectionState.from_block(evolve_correction(Z0, 1.0, 1e-3, pot))
    general = evolve_general(Z0, 1.0, 1e-3, Hamiltonian(pot))
    gap = _peak(block.lam - general.lam, block.gam - general.gam, block.xi - general.xi)
    return {"gap": gap}


def _identity_inputs():
    """The identity checks' random tensors, drawn in a fixed order from one
    seeded generator: 200 raw 4x4x4 tensors, then three 3x3 matrices and a
    3x3x3 tensor."""
    rng = np.random.default_rng(IDENTITY_SEED)
    raw = rng.standard_normal((200, 4, 4, 4))
    base, other = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    mat, ten = rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 3))
    return raw, (base, other, mat, ten)


def symmetry_preservation() -> dict[str, float]:
    """Largest asymmetry left by tilde_d3 and by apply_J_triple o tilde_d3 on
    200 random symmetric 3-tensors."""
    raw, _ = _identity_inputs()
    sym = sum(
        raw.transpose((0,) + perm) for perm in itertools.permutations((1, 2, 3))
    )
    weighted = tilde_d3(sym)
    gap = _peak(*(
        tensor - tensor.transpose(perm)
        for tensor in (weighted, apply_J_triple(weighted))
        for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1))
    ))
    return {"gap": gap}


def vectorization_identities() -> dict[str, float]:
    """Largest gap in vec(A X B^T) = (A kron B) vec(X), and in the identity
    the correction stepper rests on: the Kronecker matrix with diag(c) in
    slot k, applied to vec(scatter(v)), gives vec(scatter(c v)).

    v is the diagonal of the seeded 3-tensor and c runs over the diagonals
    of the three seeded matrices, for k = 1, 2 and 3.  The scatter is
    :func:`egorov.potentials.scatter_diagonals`, which builds every dense
    derivative and correction tensor; it is looked up on
    :mod:`egorov.potentials` when the check runs.  vec is the row-major
    ravel.
    """
    _, (base, other, mat, ten) = _identity_inputs()
    residuals = [np.kron(base, other) @ mat.ravel() - (base @ mat @ other.T).ravel()]
    v = np.einsum("iii->i", ten)
    eye = np.eye(len(v))

    def scatter(diagonal):
        out = np.zeros(ten.shape)
        return potentials.scatter_diagonals({(0, 0, 0): diagonal}, out).ravel()

    for c in np.diagonal(np.stack((base, other, mat)), axis1=-2, axis2=-1):
        for mode in range(3):
            factors = [eye, eye, eye]
            factors[mode] = np.diag(c)
            residuals.append(reduce(np.kron, factors) @ scatter(v) - scatter(c * v))
    return {"gap": _peak(*residuals)}


def bracket_antisymmetry() -> dict[str, float]:
    """Largest residual of {f, g}_k = (-1)^(k+1) {g, f}_k for k = 1, 2, 3 on
    finite-difference jets of two fixed functions."""

    def f(z):
        return np.sin(z[..., 0]) * z[..., 2] + 0.3 * z[..., 1] * z[..., 3] ** 2

    def g(z):
        return np.cos(z[..., 1]) + z[..., 0] ** 2 * z[..., 3]

    jet_f, jet_g = JetFunction.from_callable(f), JetFunction.from_callable(g)
    z = np.array([0.4, -0.3, 0.8, 0.6])
    residuals = [
        poisson_k(jet_f, jet_g, k, z) + sign * poisson_k(jet_g, jet_f, k, z)
        for k, sign in ((1, 1.0), (2, -1.0), (3, 1.0))
    ]
    return {"gap": _peak(residuals)}


def transport_integral_identity() -> dict[str, float]:
    """Residual of d/dt int_0^t f(s, Phi^(t-s) z) ds = int_0^t d_s f(s, ...)
    ds + f(0, Phi^t z), the t-derivative taken by central differences."""
    pot = torsional_potential(2)
    z0 = np.array([0.8, 0.3, 0.2, -0.4])

    def integrand(s, z):
        return np.sin(z[..., 0]) * np.cos(s) + z[..., 2] ** 2

    def integrand_ds(s, z):
        return -np.sin(z[..., 0]) * np.sin(s)

    t, dt = 1.0, 1e-3
    derivative = (
        flow_integral(integrand, z0, t + dt, 128, pot)
        - flow_integral(integrand, z0, t - dt, 128, pot)
    ) / (2 * dt)
    boundary = float(integrand(0.0, propagate(z0, t, 1e-3, 8, pot)))
    gap = abs(derivative - (flow_integral(integrand_ds, z0, t, 128, pot) + boundary))
    return {"gap": gap}


def integrator_orders() -> dict[str, float]:
    """Step-halving error ratios of the order-2 transport and the order-4
    correction stepper (tau 2e-2 to 1e-2, against tau = 1e-4), and the
    energy drift of the order-8 transport over t = 15 at tau = 0.1."""
    pot = torsional_potential(2)
    fine = propagate(Z0, 1.0, 1e-4, 2, pot)
    coarse, halved = (
        _peak(propagate(Z0, 1.0, tau, 2, pot) - fine) for tau in (2e-2, 1e-2)
    )
    ham = Hamiltonian(pot)
    drift = abs(float(ham.value(propagate(Z0, 15.0, 0.1, 8, pot)) - ham.value(Z0)))

    def lam(tau):
        return GeneralCorrectionState.from_block(evolve_correction(Z0, 1.0, tau, pot)).lam

    fine_c = lam(1e-4)
    coarse_c, halved_c = (_peak(lam(tau) - fine_c) for tau in (2e-2, 1e-2))
    return {
        "transport_ratio": coarse / halved,
        "energy_drift": drift,
        "correction_ratio": coarse_c / halved_c,
    }


def harmonic_zero_correction() -> dict[str, float]:
    """Largest absolute entry of the correction tensors and of a2 for four
    observables under a harmonic potential, at three phase points, t = 1,
    tau = 0.05.  Every one vanishes exactly, not just to rounding."""
    pot = harmonic_potential(2, (1.0, 2.0))
    points = np.array([Z0, [0.7, -0.2, 0.1, 0.5], [-0.3, 1.1, -0.6, 0.2]])
    state = evolve_correction(points, 1.0, 0.05, pot)
    values = [
        a2_eval(make_observable(name, pot), state)
        for name in ("q1", "p2", "kinetic", "total")
    ]
    flat = GeneralCorrectionState.from_block(state)
    return {"peak": _peak(flat.lam, flat.gam, flat.xi, *values)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Selftest name -> (check, closed band for each number it returns).
BATTERY = {
    "oracle-equivalence": (
        oracle_equivalence, {name: (0.0, 1e-5) for name in ORACLE_OBSERVABLES}
    ),
    "block-general-equivalence": (block_general_equivalence, {"gap": (0.0, 1e-8)}),
    "symmetry-preservation": (symmetry_preservation, {"gap": (0.0, 1e-12)}),
    "vectorization-identities": (vectorization_identities, {"gap": (0.0, 1e-12)}),
    "bracket-antisymmetry": (bracket_antisymmetry, {"gap": (0.0, 1e-5)}),
    "transport-integral-identity": (transport_integral_identity, {"gap": (0.0, 1e-4)}),
    "integrator-orders": (
        integrator_orders,
        {
            "transport_ratio": (3.0, 5.0),
            "energy_drift": (0.0, 2e-11),
            "correction_ratio": (12.0, 20.0),
        },
    ),
    "harmonic-zero-correction": (harmonic_zero_correction, {"peak": (0.0, 0.0)}),
}


def run_check(name: str) -> CheckResult:
    """Run one battery check and hold each of its numbers against its band."""
    check, bands = BATTERY[name]
    try:
        numbers = check()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the battery
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    passed = all(lo <= numbers[key] <= hi for key, (lo, hi) in bands.items())
    detail = ", ".join(
        f"{key} {numbers[key]:.2e} (band [{lo:g}, {hi:g}])"
        for key, (lo, hi) in bands.items()
    )
    return CheckResult(name, passed, detail)


def selftest() -> list[CheckResult]:
    """Every battery check; all must pass on a healthy build."""
    return [run_check(name) for name in BATTERY]
