"""Ground-truth machinery: generalized brackets, a quadrature route to a2,
and the flat general form of the correction system.

The correction tensors have an integral representation: each is a time
integral over contractions of flow derivatives with the symplectically
contracted, tilde-weighted third derivative of the Hamiltonian, the whole
integrand precomposed with the flow over the remaining time.  This module
evaluates that representation by brute force (variational equations
integrated with a generic Runge-Kutta method, composite Simpson in the
integration variable), independent of the split-step block propagation, so
the two routes validate each other.

The correction system itself has a second reference here: its unreordered
flat form over full phase-space tensors (:func:`general_rhs`), integrated
by classic RK4 (:func:`evolve_general`) rather than by splitting.  The
dense derivative tensors of the :class:`Hamiltonian` and the full correction
tensors exist only here.  Each right-hand side, of the flat form and of the
variational equations, reads all four derivative tensors from one
``Hamiltonian.derivatives`` evaluation, and the flat form keeps its tensors
in their full shapes.  ``GeneralCorrectionState.from_block`` and
``to_block`` are the one conversion between the full tensors and the
per-coordinate block layout of the production stepper.

Also here: the generalized Poisson brackets

    {f, g}_k = sum over |alpha + beta| = k of
               ((-1)^|beta| / alpha! beta!) d_q^alpha d_p^beta g
                                          * d_q^beta d_p^alpha f

with jets supplied analytically or by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .correction import BLOCK_PATTERNS, FIELDS, CorrectionState, a2_eval
from .flow import step_count
from .observables import Observable
from .potentials import Potential, scatter_diagonals
from .tensor_ops import apply_J_triple, j_contract_axis, tilde_weights

__all__ = [
    "GeneralCorrectionState",
    "Hamiltonian",
    "JetFunction",
    "VariationalState",
    "multi_indices",
    "poisson_k",
    "variational_flow",
    "quadrature_tensors",
    "a2_quadrature",
    "flow_integral",
    "composed_third_derivative",
    "general_rhs",
    "evolve_general",
]


def multi_indices(d: int, order: int):
    """All length-d multi-indices with |alpha| = order, lexicographic."""
    out = []
    for combo in combinations_with_replacement(range(d), order):
        alpha = [0] * d
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


def _factorial_mi(alpha) -> int:
    prod = 1
    for a in alpha:
        prod *= math.factorial(a)
    return prod


@dataclass(frozen=True)
class Hamiltonian:
    """h(q, p) = |p|^2 / 2 + V(q) with its phase-space derivative tensors.

    ``derivatives`` gives the dense tensors of orders 1 to 4 together; the
    Hessian's momentum block is the identity, and the third and fourth
    derivatives vanish on any index touching the momentum block.  The
    reference trajectory needs only the force, ``gradient``.
    """

    potential: Potential

    @property
    def d(self) -> int:
        return self.potential.d

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        d = self.d
        q, p = z[..., :d], z[..., d:]
        return 0.5 * np.sum(p**2, axis=-1) + self.potential.value(q)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        d = self.d
        out = np.empty_like(z, dtype=float)
        out[..., :d] = self.potential.gradient(z[..., :d])
        out[..., d:] = z[..., d:]
        return out

    def derivatives(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """(Dh, D2h, D3h, D4h) at z, each order-k tensor (..., 2d, ..., 2d)
        scattered from one evaluation of the potential's diagonals."""
        z = np.asarray(z)
        d = self.d
        g, c2, m3, m4 = self.potential.diagonals(z[..., :d])
        table = ({(0,): g, (1,): z[..., d:]}, {(0, 0): c2, (1, 1): np.ones(d)},
                 {(0, 0, 0): -m3}, {(0, 0, 0, 0): -m4})
        return tuple(
            scatter_diagonals(blocks, np.zeros(z.shape[:-1] + (2 * d,) * order))
            for order, blocks in enumerate(table, 1)
        )


# stencil sizes giving at least 4th-order central differences
_STENCIL_POINTS = {1: 5, 2: 5, 3: 7}


def _stencil_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Central offsets and weights for a derivative of the given order.

    Weights w solve sum_j w_j s_j^r = order! * delta_{r,order} for all r up
    to the stencil size, i.e. exactness on polynomials; solved on the fly
    rather than tabulated.
    """
    npts = _STENCIL_POINTS[order]
    half = npts // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    vander = np.vander(offsets, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[order] = math.factorial(order)
    return offsets, np.linalg.solve(vander, rhs)


class JetFunction:
    """Scalar phase-space function with mixed partials up to order 3.

    ``partial(alpha, beta, z)`` returns d_q^alpha d_p^beta f(z) where alpha
    and beta are length-d multi-indices.  Construct from analytic derivative
    tensors where available, or from a plain (batch-capable) callable with
    finite differences.
    """

    def __init__(self, value: Callable, partial: Callable, order: int = 3):
        self.value = value
        self._partial = partial
        self.order = order

    def partial(self, alpha, beta, z: np.ndarray) -> float:
        k = sum(alpha) + sum(beta)
        if k > self.order:
            raise ValueError(f"jet only supports order <= {self.order}, got {k}")
        if k == 0:
            return float(self.value(np.asarray(z, dtype=float)))
        return self._partial(tuple(alpha), tuple(beta), np.asarray(z, dtype=float))

    @classmethod
    def from_tensors(cls, value, grad, hess, third) -> "JetFunction":
        tensors = {1: grad, 2: hess, 3: third}

        def partial(alpha, beta, z):
            d = len(alpha)
            idx = []
            for j, m in enumerate(alpha):
                idx.extend([j] * m)
            for j, m in enumerate(beta):
                idx.extend([d + j] * m)
            return float(tensors[len(idx)](z)[tuple(idx)])

        return cls(value, partial)

    @classmethod
    def from_callable(cls, f: Callable, step: float = 1e-4) -> "JetFunction":
        """Finite-difference jets of a batch-capable scalar function.

        The per-axis step grows with the total derivative order (the usual
        truncation/roundoff balance): h = step^(4/(4+k)) * (1 + |z|_inf).
        """

        def partial(alpha, beta, z):
            d = len(alpha)
            mult = list(alpha) + list(beta)
            k = sum(mult)
            h = step ** (4.0 / (4.0 + k)) * (1.0 + np.abs(z).max())
            axes = [j for j, m in enumerate(mult) if m > 0]
            grids = [_stencil_weights(mult[j]) for j in axes]
            offset_mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
            weight_mesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
            pts = np.broadcast_to(z, offset_mesh[0].shape + z.shape).copy()
            for axis, off in zip(axes, offset_mesh):
                pts[..., axis] += off * h
            weights = np.ones_like(offset_mesh[0])
            for w in weight_mesh:
                weights = weights * w
            vals = np.asarray(f(pts), dtype=float)
            return float(np.sum(weights * vals) / h**k)

        return cls(lambda z: float(np.asarray(f(z))), partial)

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "JetFunction":
        return cls.from_tensors(
            h.value, *(lambda z, k=k: h.derivatives(z)[k] for k in range(3))
        )


def poisson_k(f: JetFunction, g: JetFunction, k: int, z: np.ndarray) -> float:
    """k-th generalized Poisson bracket {f, g}_k at the phase point z.

    k=1 is the classical bracket d_p f . d_q g - d_q f . d_p g; odd-k
    brackets are antisymmetric, even-k symmetric.
    """
    z = np.asarray(z, dtype=float)
    if k < 1:
        raise ValueError("bracket order k must be >= 1")
    if k > min(f.order, g.order):
        raise ValueError(f"bracket order {k} exceeds available jet order")
    d = z.shape[-1] // 2
    total = 0.0
    for m_a in range(k + 1):
        m_b = k - m_a
        for alpha in multi_indices(d, m_a):
            for beta in multi_indices(d, m_b):
                coeff = (-1.0) ** m_b / (_factorial_mi(alpha) * _factorial_mi(beta))
                total += coeff * g.partial(alpha, beta, z) * f.partial(beta, alpha, z)
    return total


# ---------------------------------------------------------------------------
# Variational equations: flow derivatives along a trajectory.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationalState:
    """Flow derivatives to third order at time t, batched like z."""

    z: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    t: float = 0.0

    @classmethod
    def initial(cls, z0: np.ndarray) -> "VariationalState":
        z0 = np.asarray(z0, dtype=float)
        n = z0.shape[-1]
        batch = z0.shape[:-1]
        dphi = np.broadcast_to(np.eye(n), batch + (n, n)).copy()
        return cls(
            z=z0.copy(),
            dphi=dphi,
            d2phi=np.zeros(batch + (n,) * 3),
            d3phi=np.zeros(batch + (n,) * 4),
        )


def _contract_first(m: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Batched contraction of a matrix into the first tensor index."""
    flat = tensor.reshape(tensor.shape[: m.ndim - 2] + (m.shape[-1], -1))
    return (m @ flat).reshape(tensor.shape)


def _rk4_step(rhs: Callable, y: tuple, dt: float) -> tuple:
    """One classic RK4 step of y' = rhs(y), y a tuple of arrays."""

    def at(c, k):
        return tuple(yi + c * ki for yi, ki in zip(y, k))

    k1 = rhs(y)
    k2 = rhs(at(0.5 * dt, k1))
    k3 = rhs(at(0.5 * dt, k2))
    k4 = rhs(at(dt, k3))
    return tuple(
        yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
        for yi, a, b, c, e in zip(y, k1, k2, k3, k4)
    )


def _variational_rhs(y: tuple, h: Hamiltonian):
    # every contraction is one batched matmul on an unfolding: matrices act
    # on the last two axes, with the Jacobian transposed for middle indices
    z, dphi, d2phi, d3phi = y
    n = z.shape[-1]
    batch = z.shape[:-1]
    dh, d2h, d3h, d4h = h.derivatives(z)
    m = j_contract_axis(d2h, axis=-2)
    jd3 = j_contract_axis(d3h, axis=-3)
    jd4 = j_contract_axis(d4h, axis=-4)

    dz = j_contract_axis(dh, axis=-1)
    d_dphi = m @ dphi

    dphi_t = np.swapaxes(dphi, -1, -2)[..., None, :, :]
    jd3_k = jd3 @ dphi[..., None, :, :]  # jd3_imn dphi_nk
    d_d2phi = dphi_t @ jd3_k + _contract_first(m, d2phi)

    t = jd4 @ dphi[..., None, None, :, :]  # jd4_imnu dphi_ul
    t = dphi_t[..., None, :, :] @ t  # contract n with dphi_nk
    term1 = (dphi_t @ t.reshape(batch + (n, n, n * n))).reshape(t.shape)
    jd3_j = dphi_t @ jd3  # jd3_imn dphi_mj
    # pair[i, a, b, c] = jd3_k_ima d2phi_mbc; the middle terms of d_d3phi
    # at ijkl are pair[i, k, j, l] and pair[i, l, j, k]
    pair = (
        np.swapaxes(jd3_k, -1, -2).reshape(batch + (n * n, n))
        @ d2phi.reshape(batch + (n, n * n))
    ).reshape(t.shape)
    d_d3phi = (
        term1
        + (jd3_j.reshape(batch + (n * n, n)) @ d2phi.reshape(batch + (n, n * n))).reshape(
            t.shape
        )
        + np.swapaxes(pair, -3, -2)
        + np.moveaxis(pair, -3, -1)
        + _contract_first(m, d3phi)
    )
    return dz, d_dphi, d_d2phi, d_d3phi


def _variational_rk4(state: VariationalState, dt: float, h: Hamiltonian) -> VariationalState:
    y = (state.z, state.dphi, state.d2phi, state.d3phi)
    return VariationalState(
        *_rk4_step(lambda y: _variational_rhs(y, h), y, dt), t=state.t + dt
    )


def variational_flow(
    z0: np.ndarray, t: float, tau: float, potential: Potential
) -> VariationalState:
    """Integrate flow plus first three variational equations to time t."""
    h = Hamiltonian(potential)
    state = VariationalState.initial(z0)
    n = step_count(t, tau)
    if n == 0:
        return state
    dt = t / n
    for _ in range(n):
        state = _variational_rk4(state, dt, h)
    return state


# ---------------------------------------------------------------------------
# Quadrature route to the correction tensors and a2.
# ---------------------------------------------------------------------------


def _flow_snapshots(z0: np.ndarray, n: int, delta: float, tau: float, h: Hamiltonian):
    """States of the trajectory from z0 at times 0, delta, ..., n*delta."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    if delta < 0:
        raise ValueError("duration must be nonnegative")
    steps = max(1, math.ceil(delta / tau))
    dt = delta / steps
    snaps = [np.asarray(z0, dtype=float).copy()]
    y = (snaps[0],)

    def rhs(y):
        return (j_contract_axis(h.gradient(y[0]), axis=-1),)

    for _ in range(n):
        for _ in range(steps):
            y = _rk4_step(rhs, y, dt)
        snaps.append(y[0])
    return snaps


def _simpson_weights(n: int, delta: float) -> np.ndarray:
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * delta / 3.0


def quadrature_tensors(
    z0: np.ndarray,
    t: float,
    n_quad: int,
    potential: Potential,
    tau_var: float = 1e-3,
):
    """Correction tensors at time t by composite Simpson over the integral
    representation; returns (z_end, Lambda, Gamma, Xi) for a single z0.

    Node s of the rule needs flow derivatives over duration s*delta started
    at the trajectory point a time s*delta before the end.  All nodes are
    advanced together in blocks of length delta, dropping each node from the
    batch as its duration completes, so the whole rule costs one wave of
    variational integration.
    """
    if n_quad < 2 or n_quad % 2:
        raise ValueError(f"n_quad must be even and >= 2, got {n_quad}")
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1:
        raise ValueError("quadrature_tensors expects a single phase point")
    h = Hamiltonian(potential)
    n = n_quad
    delta = t / n
    snaps = _flow_snapshots(z0, n, delta, tau_var, h)
    z_end = snaps[n]

    dim = z0.shape[-1]
    jd3t = apply_J_triple(tilde_weights(dim) * h.derivatives(np.stack(snaps))[2])

    lam_nodes = np.empty((n + 1, dim, dim, dim))
    gam_nodes = np.empty((n + 1, dim, dim))
    xi_nodes = np.empty((n + 1, dim))

    # node s = 0: identity Jacobian, zero higher derivatives, at the endpoint
    lam_nodes[0] = jd3t[n].transpose(2, 1, 0)
    gam_nodes[0] = 0.0
    xi_nodes[0] = 0.0

    # active batch ordered s = 1..n; node s starts at the snapshot n-s
    starts = np.stack([snaps[n - s] for s in range(1, n + 1)])
    state = VariationalState.initial(starts)
    weights = jd3t[n - 1 :: -1]  # evaluation point of node s is its start
    steps = max(1, math.ceil(delta / tau_var))
    dt = delta / steps
    for block in range(1, n + 1):
        for _ in range(steps):
            state = _variational_rk4(state, dt, h)
        # node s = block (batch row 0) has reached its full duration
        jw = weights[0]
        lam_nodes[block] = np.einsum(
            "il,jm,kn,nml->ijk", state.dphi[0], state.dphi[0], state.dphi[0], jw
        )
        gam_nodes[block] = np.einsum(
            "ikl,jm,mlk->ij", state.d2phi[0], state.dphi[0], jw
        )
        xi_nodes[block] = np.einsum("ijkl,lkj->i", state.d3phi[0], jw)
        state = VariationalState(
            z=state.z[1:],
            dphi=state.dphi[1:],
            d2phi=state.d2phi[1:],
            d3phi=state.d3phi[1:],
            t=state.t,
        )
        weights = weights[1:]

    w = _simpson_weights(n, delta)
    lam = np.einsum("s,sijk->ijk", w, lam_nodes)
    gam = np.einsum("s,sij->ij", w, gam_nodes)
    xi = np.einsum("s,si->i", w, xi_nodes)
    return z_end, lam, gam, xi


def a2_quadrature(
    a,
    z0: np.ndarray,
    t: float,
    n_quad: int,
    potential: Potential,
    tau_var: float = 1e-3,
):
    """Second-order correction by brute-force quadrature.

    ``a`` may be a single observable (returns a float) or a sequence of
    observables (returns a list, from one shared tensor computation).
    """
    single = isinstance(a, Observable)
    observables = [a] if single else list(a)
    z_end, lam, gam, xi = quadrature_tensors(z0, t, n_quad, potential, tau_var)
    state = GeneralCorrectionState(z_end, lam, gam, xi, t).to_block()
    values = [float(a2_eval(obs, state)) for obs in observables]
    return values[0] if single else values


def flow_integral(
    func: Callable,
    z0: np.ndarray,
    t: float,
    n_quad: int,
    potential: Potential,
    tau_flow: float = 1e-3,
) -> float:
    """Composite Simpson for integrals of the form
    int_0^t func(tau, .) o Phi^(t-tau) (z0) dtau."""
    if n_quad < 2 or n_quad % 2:
        raise ValueError(f"n_quad must be even and >= 2, got {n_quad}")
    h = Hamiltonian(potential)
    delta = t / n_quad
    snaps = _flow_snapshots(z0, n_quad, delta, tau_flow, h)
    vals = np.array(
        [func(s * delta, snaps[n_quad - s]) for s in range(n_quad + 1)]
    )
    return float(_simpson_weights(n_quad, delta) @ vals)


def composed_third_derivative(
    a: Observable, var: VariationalState
) -> np.ndarray:
    """Third derivative tensor of (a o flow) at the variational base point,
    by the chain rule through the stored flow derivatives.

    Jets of a are taken at the transported point var.z composed through the
    derivatives; intended for single (unbatched) states.
    """
    da = a.grad(var.z)
    d2a = a.hess(var.z)
    d3a = a.third(var.z)
    dphi, d2phi, d3phi = var.dphi, var.d2phi, var.d3phi
    return (
        np.einsum("ijk,il,jm,kn->lmn", d3a, dphi, dphi, dphi)
        + np.einsum("ij,ilm,jn->lmn", d2a, d2phi, dphi)
        + np.einsum("ij,iln,jm->lmn", d2a, d2phi, dphi)
        + np.einsum("ij,imn,jl->lmn", d2a, d2phi, dphi)
        + np.einsum("i,ilmn->lmn", da, d3phi)
    )


# ---------------------------------------------------------------------------
# Unreordered phase-space form of the correction system, the reference for
# the split-step blocks of egorov.correction.  It works with the full
# (2d)-index tensors and a generic one-step integrator, sharing no code path
# with the blocks.
# ---------------------------------------------------------------------------


# How far, relative to lam's largest entry, two blocks of lam that the block
# layout stores as one row may differ in ``to_block``.  The flat-form
# references are symmetric only up to rounding (a few units in the last
# place of the largest entry); an asymmetric tensor differs at order one.
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GeneralCorrectionState:
    """Correction tensors in flat phase-space form: the full ``lam``
    (..., 2d, 2d, 2d), ``gam`` (..., 2d, 2d) and ``xi`` (..., 2d), indexed
    over the whole phase space rather than split into per-coordinate
    blocks.  Batched like :class:`CorrectionState`.
    """

    z: np.ndarray
    lam: np.ndarray
    gam: np.ndarray
    xi: np.ndarray
    t: float = 0.0

    @classmethod
    def initial(cls, z0: np.ndarray) -> "GeneralCorrectionState":
        z0 = np.asarray(z0, dtype=float)
        n = z0.shape[-1]
        batch = z0.shape[:-1]
        return cls(
            z=z0.copy(),
            lam=np.zeros(batch + (n,) * 3),
            gam=np.zeros(batch + (n,) * 2),
            xi=np.zeros(batch + (n,)),
        )

    @classmethod
    def from_block(cls, s: CorrectionState) -> "GeneralCorrectionState":
        """The flat form of a block state: each block's diagonal scattered
        onto its entries of the full tensors, every other entry zero."""
        batch = s.q.shape[:-1]
        blocks = {p: getattr(s, name) for name, ps in BLOCK_PATTERNS.items() for p in ps}
        lam, gam, xi = (
            scatter_diagonals(
                {p: row for p, row in blocks.items() if len(p) == order},
                np.zeros(batch + (2 * s.d,) * order),
            )
            for order in (3, 2, 1)
        )
        return cls(s.z, lam, gam, xi, s.t)

    def to_block(self) -> CorrectionState:
        """Gather the full tensors into the block layout, each row from the
        first of its blocks in ``BLOCK_PATTERNS``.

        Raises ValueError if lam or gam has a nonzero entry that mixes two
        coordinates, for which the layout has no place, or if two lam blocks
        that share a row differ by more than ``_SYMMETRY_RTOL`` times lam's
        largest finite entry: the layout holds a symmetric lam only.
        """
        d = self.z.shape[-1] // 2
        j = np.arange(d)
        full = {3: self.lam, 2: self.gam, 1: self.xi}
        blocks = {"q": self.z[..., :d], "p": self.z[..., d:]}
        for name, (p, *_) in BLOCK_PATTERNS.items():
            blocks[name] = full[len(p)][(..., *(k * d + j for k in p))]
        state = CorrectionState(np.stack([blocks[name] for name in FIELDS]), self.t)
        rebuilt = GeneralCorrectionState.from_block(state)
        for tensor, again in ((self.lam, rebuilt.lam), (self.gam, rebuilt.gam)):
            coordinate = np.indices(tensor.shape[self.z.ndim - 1:]) % d
            if np.any(tensor[..., np.any(coordinate != coordinate[0], axis=0)] != 0.0):
                raise ValueError(
                    "correction tensor has a nonzero entry that mixes two coordinates"
                )
            scale = np.max(np.abs(tensor), initial=0.0, where=np.isfinite(tensor))
            atol = _SYMMETRY_RTOL * scale
            if not np.allclose(tensor, again, rtol=0.0, atol=atol, equal_nan=True):
                raise ValueError(
                    "correction tensor's blocks that share a row differ beyond rounding"
                )
        return state


def general_rhs(state: GeneralCorrectionState, h: Hamiltonian):
    """Time derivative (dz, dlam, dgam, dxi) of the flat-form system.

    The tensor equations, with M the symplectic contraction of the Hessian
    of h at z and the inhomogeneities built from third/fourth derivatives:

        dLam = M on each of the three modes of Lam + tilde-weighted,
               triply contracted third-derivative source
        dGam = (single-contraction third-derivative source) : Lam
               + M Gam + Gam M^T
        dXi  = (fourth-derivative source) : Lam + 3 source : Gam + M Xi
    """
    z = state.z
    lam, gam, xi = state.lam, state.gam, state.xi

    dh, d2h, d3h, d4h = h.derivatives(z)
    m = j_contract_axis(d2h, axis=-2)
    c1 = apply_J_triple(tilde_weights(z.shape[-1]) * d3h)
    c2 = j_contract_axis(d3h, axis=-3)
    c3 = j_contract_axis(d4h, axis=-4)

    dz = j_contract_axis(dh, axis=-1)
    dlam = (
        np.einsum("...il,...ljk->...ijk", m, lam)
        + np.einsum("...jl,...ilk->...ijk", m, lam)
        + np.einsum("...kl,...ijl->...ijk", m, lam)
        + c1
    )
    dgam = (
        np.einsum("...ikl,...lkj->...ij", c2, lam)
        + np.einsum("...il,...lj->...ij", m, gam)
        + np.einsum("...jl,...il->...ij", m, gam)
    )
    dxi = (
        np.einsum("...ijkl,...lkj->...i", c3, lam)
        + 3.0 * np.einsum("...ijk,...kj->...i", c2, gam)
        + np.einsum("...il,...l->...i", m, xi)
    )
    return dz, dlam, dgam, dxi


def evolve_general(
    z0: np.ndarray, t: float, tau: float, h: Hamiltonian
) -> GeneralCorrectionState:
    """Classic fixed-step RK4 integration of the flat-form system.

    Deliberately not the splitting integrator, so that agreement with
    :func:`evolve_correction` validates both.
    """
    state = GeneralCorrectionState.initial(z0)
    n = step_count(t, tau)
    if n == 0:
        return state
    dt = t / n
    y = (state.z, state.lam, state.gam, state.xi)
    for _ in range(n):
        y = _rk4_step(lambda y: general_rhs(GeneralCorrectionState(*y), h), y, dt)
    return GeneralCorrectionState(*y, t=n * dt)
