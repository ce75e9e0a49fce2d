"""Grid-based reference dynamics: split-step Fourier propagation.

Solves i eps d_t psi = (-eps^2/2 Laplace + V) psi on a periodic tensor grid,
with numpy's FFT (``numpy.fft.fftn``/``ifftn``).  The Strang step is a half
step of the potential phase, a full kinetic step applied in Fourier space,
and another half step of the potential.
:func:`reference_expectations` composes it to fourth order (Yoshida 1990)
through the shared driver :func:`flow.split_snapshots`, which merges
adjacent half-potential phases; :func:`schrodinger_step` is one plain
Strang step of the same flows on the d-dimensional grid.  Position
observables are quadratures of |psi|^2 on the grid; momentum observables
use Fourier multipliers (the momentum operator is eps k after transforming).

:func:`reference_expectations` runs one 1-D solve per coordinate.  The
potential is separable, V = sum_j V_j(q_j) (:meth:`Potential.coordinate`),
and the packet is a product of one Gaussian per coordinate, so the wave
function stays a product of d one-dimensional ones: the potential phase and
the FFT both factorize on a tensor grid, and the d line solves equal the
d-dimensional solve up to rounding.  The d line solves step as one stacked
(d, n) array whose row j is coordinate j's, so each kinetic step is one
batched FFT pair over the rows; every row keeps the bits of its own 1-D
solve.
Positions and momenta are read on their own row, the energies are sums over
the rows.  A potential that is not separable raises NotImplementedError.

Steps are unitary, so the discrete norm is conserved to roundoff; the
boundary shell of the (formally periodic) domain is monitored because the
packet must stay essentially inside for the periodification to be harmless.
The monitors combine as the d-dimensional ones factor: the norm is the
product of the axes' norms, and the mass inside the shell the product of
theirs.  A third monitor reads the Fourier weights the expectations use: the
weight in the wavenumbers around Nyquist, combined over the axes as the
boundary mass is, stays small while the grid resolves the packet's momenta.
:func:`schrodinger_step` runs no monitor.

The module does no I/O; :func:`experiments.run_reference` makes its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fftn, ifftn

from .flow import split_snapshots
from .observables import parse_name
from .potentials import Potential
from .sampling import GaussianPacket

__all__ = [
    "SCHEME",
    "GridSpec",
    "WaveFunctionGrid",
    "init_packet",
    "schrodinger_step",
    "expectation",
    "reference_expectations",
]

_BOUNDARY_INIT_TOL = 1e-12
_BOUNDARY_RUN_TOL = 1e-8
# The largest Fourier weight in the 2 * _SHELL_WIDTH wavenumbers around
# Nyquist: a state with more there aliases momenta the grid cannot hold.
# Table rows 1-4 to T = 5 at 256 points read at most 1.6e-10; rows 3 and 4
# at 128 points read 1.4e-5 and 1.3e-1, and row 4's table is off by 1.97.
_FOURIER_RUN_TOL = 1e-6
# The largest norm drift from one: of the sampled packet, and of the
# propagated state at every snapshot.
_NORM_TOL = 1e-10
_SHELL_WIDTH = 2

# The reference propagation's splitting order, and its scheme's name and
# version, which ``egorov reference`` reports in metadata.json.
_ORDER = 4
SCHEME = (
    f"split-step Fourier, Strang composed to order {_ORDER}, "
    "one 1-D solve per coordinate, v2"
)


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product collocation grid, the same on every axis."""

    d: int
    n: int
    x_min: float = -3.0
    x_max: float = 3.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"points per axis must be a power of two, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError("empty grid interval")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def axis(self) -> np.ndarray:
        """Collocation points along one axis (right endpoint excluded)."""
        return self.x_min + self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def mesh_value(self, potential: Potential) -> np.ndarray:
        axes = np.meshgrid(*[self.axis()] * self.d, indexing="ij")
        return potential.value(np.stack(axes, axis=-1))


@dataclass
class WaveFunctionGrid:
    psi: np.ndarray
    spec: GridSpec
    epsilon: float
    t: float = 0.0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.spec.dx**self.spec.d))

    def boundary_mass(self) -> float:
        """Fraction of discrete mass in the outer shell of the domain."""
        density = np.abs(self.psi) ** 2
        total = density.sum()
        inner = density
        for axis in range(self.spec.d):
            sl = [slice(None)] * self.spec.d
            sl[axis] = slice(_SHELL_WIDTH, self.spec.n - _SHELL_WIDTH)
            inner = inner[tuple(sl)]
        return float((total - inner.sum()) / total)


def _outside_mass(spec: GridSpec, packet: GaussianPacket) -> float:
    """Analytic |psi0|^2 mass outside the computational box, one ``erfc``
    pair per axis."""
    scale = math.sqrt(packet.epsilon)
    inside = 1.0
    for q0 in packet.center[: packet.d].tolist():
        upper = 0.5 * math.erfc((spec.x_max - q0) / scale)
        lower = 0.5 * math.erfc((q0 - spec.x_min) / scale)
        inside *= 1.0 - upper - lower
    return 1.0 - inside


def _check_packet(spec: GridSpec, packet: GaussianPacket) -> None:
    """Reject a packet of another dimension than the grid, or one with more
    than the start-up tolerance of its mass outside the box."""
    if packet.d != spec.d:
        raise ValueError("packet dimension does not match the grid")
    outside = _outside_mass(spec, packet)
    if outside > _BOUNDARY_INIT_TOL:
        raise ValueError(
            f"packet mass outside the domain is {outside:.3e}, "
            f"exceeds {_BOUNDARY_INIT_TOL}"
        )


def init_packet(spec: GridSpec, packet: GaussianPacket) -> WaveFunctionGrid:
    """Sample the Gaussian packet on the grid and renormalize to norm one.
    The packet is normalized on the real line, so a sampled norm more than
    the norm monitor's tolerance (1e-10) from one means the grid does not
    resolve it, and it is rejected."""
    _check_packet(spec, packet)
    eps = packet.epsilon
    x = spec.axis()
    q0 = packet.center[: spec.d]
    p0 = packet.center[spec.d :]
    psi = np.array((np.pi * eps) ** (-spec.d / 4.0), dtype=complex)
    for j in range(spec.d):
        dq = x - q0[j]
        factor = np.exp(-(dq**2) / (2.0 * eps) + 1j * p0[j] * dq / eps)
        shape = [1] * spec.d
        shape[j] = spec.n
        psi = psi * factor.reshape(shape)
    grid = WaveFunctionGrid(psi=psi, spec=spec, epsilon=eps)
    norm = grid.norm()
    # An eps below the grid spacing misses the norm, and one far below it
    # underflows every sample to zero.
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(
            f"packet sampled on the grid has norm {norm}: "
            f"epsilon {eps} is not resolved by the grid"
        )
    grid.psi /= norm
    return grid


def _grid_flows(spec: GridSpec, v: np.ndarray, eps: float):
    """The A and B flows of the grid split step, for :func:`split_snapshots`,
    with the potential ``v`` on the mesh.

    A is the potential phase ``psi *= exp(-i V a / eps)``, applied in place.
    B is the kinetic step ``ifftn(phase * fftn(psi))`` over the trailing
    ``spec.d`` axes, with the kinetic phase applied as one 1-D factor per
    axis in place into ``psi_hat``.  Leading axes of ``psi`` and ``v`` stack
    independent solves: row by row, the bits are those of a solve alone.
    """
    k2 = spec.wavenumbers() ** 2
    axis_shapes = [(-1,) + (1,) * (spec.d - 1 - j) for j in range(spec.d)]
    # With the lengths given, numpy's fftn skips the axis bookkeeping that
    # costs more than a 256-point transform.
    lengths = (spec.n,) * spec.d
    axes = tuple(range(-spec.d, 0))

    # An order-4 step has three distinct merged A lengths and two B lengths.
    # The caches are bounded because segment lengths that differ in the last
    # bit would otherwise add a grid-sized entry per snapshot.
    @functools.lru_cache(maxsize=3)
    def potential_phase(a):
        return np.exp((-1j * a / eps) * v)

    @functools.lru_cache(maxsize=2)
    def kinetic_phase(s):
        return np.exp((-0.5j * eps * s) * k2)

    def potential_flow(a, psi):
        psi *= potential_phase(a)
        return psi

    def kinetic_flow(s, psi):
        psi_hat = fftn(psi, lengths, axes)
        factor = kinetic_phase(s)
        for shape in axis_shapes:
            psi_hat *= factor.reshape(shape)
        return ifftn(psi_hat, lengths, axes)

    return potential_flow, kinetic_flow


def schrodinger_step(
    grid: WaveFunctionGrid, tau: float, potential: Potential
) -> WaveFunctionGrid:
    """One Strang split step (potential half, kinetic full, potential half):
    the order-2 step of the flows :func:`reference_expectations` uses."""
    flows = _grid_flows(grid.spec, grid.spec.mesh_value(potential), grid.epsilon)
    (psi,) = split_snapshots(grid.psi.astype(complex), [tau], tau, 2, *flows)
    return WaveFunctionGrid(psi=psi, spec=grid.spec, epsilon=grid.epsilon, t=grid.t + tau)


class _Readings:
    """What the expectations of one state read: the normalized density, the
    normalized Fourier weights and the potential on the mesh, each computed
    once, on first use.  A given ``v`` is the potential on the mesh."""

    def __init__(self, grid: WaveFunctionGrid, potential: Potential, v=None):
        self.grid = grid
        self.potential = potential
        if v is not None:
            self.v = v

    @functools.cached_property
    def density(self) -> np.ndarray:
        density = np.abs(self.grid.psi) ** 2
        return density / density.sum()

    @functools.cached_property
    def weights(self) -> np.ndarray:
        w = np.abs(fftn(self.grid.psi)) ** 2
        return w / w.sum()

    @functools.cached_property
    def v(self) -> np.ndarray:
        return self.grid.spec.mesh_value(self.potential)


def expectation(
    grid: WaveFunctionGrid, obs_name: str, potential: Potential, readings=None
) -> float:
    """Expectation value of a built-in observable in the current state.

    The readings of one snapshot share ``readings``, a ``_Readings`` of this
    grid and potential; without it they are computed for this call alone.
    """
    spec = grid.spec
    kind, j = parse_name(obs_name, spec.d)
    if readings is None:
        readings = _Readings(grid, potential)

    def along(axis_values, axis):
        shape = [1] * spec.d
        shape[axis] = spec.n
        return axis_values.reshape(shape)

    if kind == "q":
        return float(np.sum(along(spec.axis(), j - 1) * readings.density))
    if kind == "potential":
        return float(np.sum(readings.v * readings.density))
    w = readings.weights
    k = spec.wavenumbers()
    if kind == "p":
        return grid.epsilon * float(np.sum(along(k, j - 1) * w))
    kinetic = 0.5 * grid.epsilon**2 * sum(
        float(np.sum(along(k**2, axis) * w)) for axis in range(spec.d)
    )
    if kind == "kinetic":
        return kinetic
    return kinetic + expectation(grid, "potential", potential, readings)


def reference_expectations(
    spec: GridSpec,
    packet: GaussianPacket,
    potential: Potential,
    times,
    tau: float,
    observable_names,
):
    """Expectation table {name: values over `times`} from one propagation
    per coordinate.

    Coordinate j's packet (q0_j, p0_j) steps on the line of ``spec`` under
    V_j through :func:`flow.split_snapshots`, with the order-4 composition of
    the Strang step: A is the potential phase, B the kinetic step in Fourier
    space.  The d packets and meshes stack into (d, n) arrays that step
    together.  Snapshot times must be nondecreasing and commensurate with
    tau.
    """
    times = [float(t) for t in times]
    names = list(observable_names)
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("snapshot times must be nondecreasing")
    _check_packet(spec, packet)
    if potential.d != spec.d:
        raise ValueError("potential dimension does not match the grid")
    potentials = [potential.coordinate(j) for j in range(spec.d)]
    kinds = [parse_name(name, spec.d) for name in names]

    line = GridSpec(1, spec.n, spec.x_min, spec.x_max)
    eps = packet.epsilon
    psi = np.stack([
        init_packet(line, GaussianPacket(packet.center[j :: spec.d], eps)).psi
        for j in range(spec.d)
    ])
    v = np.stack([line.mesh_value(axis_potential) for axis_potential in potentials])
    snaps = split_snapshots(psi, times, tau, _ORDER, *_grid_flows(line, v, eps))
    nyquist = slice(spec.n // 2 - _SHELL_WIDTH, spec.n // 2 + _SHELL_WIDTH)

    table = {name: np.empty(len(times)) for name in names}
    for i, (t_snap, psi) in enumerate(zip(times, snaps)):
        grids = [WaveFunctionGrid(psi=row, spec=line, epsilon=eps, t=t_snap) for row in psi]
        # Written so that a NaN state trips them too.
        drift = abs(math.prod(grid.norm() for grid in grids) - 1.0)
        if not drift <= _NORM_TOL:
            raise RuntimeError(f"unitarity lost: norm drift {drift:.3e} at t={t_snap}")
        shell = 1.0 - math.prod(1.0 - grid.boundary_mass() for grid in grids)
        if not shell <= _BOUNDARY_RUN_TOL:
            raise RuntimeError(
                f"boundary mass {shell:.3e} at t={t_snap}: packet reached the domain edge"
            )
        readings = [_Readings(*axis) for axis in zip(grids, potentials, v)]
        shell = 1.0 - math.prod(1.0 - float(r.weights[nyquist].sum()) for r in readings)
        if not shell <= _FOURIER_RUN_TOL:
            raise RuntimeError(
                f"Fourier weight {shell:.3e} near Nyquist at t={t_snap}: "
                "the grid does not resolve the packet's momenta"
            )
        for name, (kind, j) in zip(names, kinds):
            if j:
                table[name][i] = _axis_sum(kind + "1", readings[j - 1 : j])
            elif kind == "total":
                table[name][i] = _axis_sum("kinetic", readings) + _axis_sum("potential", readings)
            else:
                table[name][i] = _axis_sum(kind, readings)
    return table


def _axis_sum(kind: str, readings) -> float:
    """The sum over the axes of ``readings`` of their 1-D ``kind`` reading."""
    return sum(expectation(r.grid, kind, r.potential, r) for r in readings)
