"""Grid-based reference dynamics: split-step Fourier propagation.

Solves i eps d_t psi = (-eps^2/2 Laplace + V) psi on a periodic tensor grid,
with numpy's FFT: :func:`fftn`/:func:`ifftn` run one ``numpy.fft.fft``/``ifft``
per grid axis.  The Strang step is a half step of the potential phase, a
full kinetic step applied in Fourier space, and another half step of the
potential.
:func:`reference_expectations` composes it to fourth order (Yoshida 1990)
through the shared driver :func:`flow.split_snapshots`, which merges
adjacent half-potential phases; :func:`schrodinger_propagate` takes plain
Strang steps of the same flows over a duration on the d-dimensional grid.
Position observables are quadratures of |psi|^2 on the grid; momentum
observables use Fourier multipliers (the momentum operator is eps k after
transforming).

:func:`reference_expectations` runs one 1-D solve per coordinate.  The
potential is separable, V = sum_j V_j(q_j) (:meth:`Potential.coordinate`),
and the packet is a product of one Gaussian per coordinate, so the wave
function stays a product of d one-dimensional ones: the potential phase and
the FFT both factorize on a tensor grid, and the d line solves equal the
d-dimensional solve up to rounding.  They step as one stacked (d, n) array
whose row j is coordinate j's: each kinetic step is one batched FFT pair
over the rows, run in place, and a snapshot is read once for the whole
stack, as every reading reduces over the trailing ``spec.d`` axes.  Every
row keeps the bits of its own 1-D solve.  Positions and momenta are read on
their own row, the energies are sums over the rows.  A potential that is not
separable raises NotImplementedError.

Steps are unitary, so the discrete norm is conserved to roundoff; the
boundary shell of the (formally periodic) domain is monitored because the
packet must stay essentially inside for the periodification to be harmless.
The monitors combine as the d-dimensional ones factor: the norm is the
product of the axes' norms, and the mass inside the shell the product of
theirs.  A third monitor reads the Fourier weights the expectations use: the
weight in the wavenumbers around Nyquist, combined over the axes as the
boundary mass is, stays small while the grid resolves the packet's momenta.
Each monitor's largest reading over the snapshots is kept for the caller;
:func:`schrodinger_propagate` runs no monitor.

The module does no I/O; :func:`experiments.run_reference` makes its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .flow import split_snapshots
from .observables import parse_name
from .potentials import Potential, check_dimension
from .sampling import GaussianPacket

__all__ = [
    "SCHEME",
    "GridSpec",
    "WaveFunctionGrid",
    "init_packet",
    "schrodinger_propagate",
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
# Each monitor's tolerance and message, in the order they are checked.
_MONITORS = {
    "max_norm_drift": (_NORM_TOL, "unitarity lost: norm drift {:.3e} at t={}"),
    "max_boundary_mass": (_BOUNDARY_RUN_TOL,
                          "boundary mass {:.3e} at t={}: packet reached the domain edge"),
    "max_fourier_shell": (_FOURIER_RUN_TOL, "Fourier weight {:.3e} near Nyquist at t={}: "
                          "the grid does not resolve the packet's momenta"),
}

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
        check_dimension(self.d)
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"points per axis must be a power of two, got {self.n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid interval must be finite")
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

    @property
    def axes(self) -> tuple:
        """A state's grid axes, from the end; leading axes stack solves."""
        return tuple(range(-self.d, 0))

    def along(self, values: np.ndarray, axis: int) -> np.ndarray:
        """The 1-D ``values`` shaped to lie along grid axis ``axis``."""
        return values.reshape((-1,) + (1,) * (self.d - 1 - axis))

    def mesh_value(self, potential: Potential) -> np.ndarray:
        if potential.d != self.d:
            raise ValueError("potential dimension does not match the grid")
        axes = np.meshgrid(*[self.axis()] * self.d, indexing="ij")
        return potential.value(np.stack(axes, axis=-1))


@dataclass
class WaveFunctionGrid:
    """A state on ``spec``; leading axes of ``psi`` stack independent solves."""

    psi: np.ndarray
    spec: GridSpec
    epsilon: float
    t: float = 0.0

    def norm(self):
        mass = (np.abs(self.psi) ** 2).sum(axis=self.spec.axes)
        return _reading(np.sqrt(mass * self.spec.dx**self.spec.d))

    def boundary_mass(self):
        """Fraction of discrete mass in the outer shell of the domain."""
        density = np.abs(self.psi) ** 2
        inner = (slice(_SHELL_WIDTH, self.spec.n - _SHELL_WIDTH),) * self.spec.d
        total = density.sum(axis=self.spec.axes)
        return _reading((total - density[(..., *inner)].sum(axis=self.spec.axes)) / total)


def _reading(value):
    """A float for one solve, or the array of one value per stacked solve."""
    return value if isinstance(value, np.ndarray) else float(value)


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
        psi = psi * spec.along(np.exp(-(dq**2) / (2.0 * eps) + 1j * p0[j] * dq / eps), j)
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


def fftn(a, axes, out=None):
    """``numpy.fft.fftn(a, axes=axes, out=out)``, bit for bit: one
    ``numpy.fft.fft`` per axis, from the last of ``axes`` to the first, the
    order numpy's own loop takes.  It skips numpy's n-d argument handling,
    about 15 % of the grid's in-place kinetic pair: on (2, 256) data,
    18.3 µs through numpy's ``fftn``/``ifftn`` with the lengths given and
    15.6 µs this way (best of 7 x 3000, 2-core Xeon, numpy 2.4)."""
    for axis in reversed(axes):
        a = np.fft.fft(a, axis=axis, out=out)
    return a


def ifftn(a, axes, out=None):
    """``numpy.fft.ifftn(a, axes=axes, out=out)``, bit for bit, as
    :func:`fftn` is numpy's ``fftn``."""
    for axis in reversed(axes):
        a = np.fft.ifft(a, axis=axis, out=out)
    return a


def _grid_flows(spec: GridSpec, v: np.ndarray, eps: float):
    """The A and B flows of the grid split step, for :func:`split_snapshots`,
    with the potential ``v`` on the mesh.

    A is the potential phase ``psi *= exp(-i V a / eps)``, applied in place.
    B is the kinetic step ``ifftn(phase * fftn(psi))`` over the trailing
    ``spec.d`` axes (:func:`fftn`, one 1-D transform per axis), run in place
    in ``psi``, with the kinetic phase applied as one 1-D factor per axis.
    Leading axes of ``psi`` and ``v`` stack independent solves: row by row,
    the bits are those of a solve alone.
    """
    k2 = spec.wavenumbers() ** 2
    axes = spec.axes

    # An order-4 step has three distinct merged A lengths and two B lengths.
    # The caches are bounded because segment lengths that differ in the last
    # bit would otherwise add a grid-sized entry per snapshot.
    @functools.lru_cache(maxsize=3)
    def potential_phase(a):
        return np.exp((-1j * a / eps) * v)

    @functools.lru_cache(maxsize=2)
    def kinetic_phase(s):
        factor = np.exp((-0.5j * eps * s) * k2)
        return [spec.along(factor, axis) for axis in range(spec.d)]

    def potential_flow(a, psi):
        psi *= potential_phase(a)
        return psi

    def kinetic_flow(s, psi):
        psi = fftn(psi, axes, out=psi)
        for factor in kinetic_phase(s):
            psi *= factor
        return ifftn(psi, axes, out=psi)

    return potential_flow, kinetic_flow


def schrodinger_propagate(
    grid: WaveFunctionGrid, t: float, tau: float, potential: Potential
) -> WaveFunctionGrid:
    """The state after duration ``t`` in Strang split steps (potential half,
    kinetic full, potential half) of nominal size ``tau``: the order-2 step
    of the flows :func:`reference_expectations` uses, built once per call.
    Returns a new grid at ``grid.t + t``; ``grid`` is left as it is."""
    flows = _grid_flows(grid.spec, grid.spec.mesh_value(potential), grid.epsilon)
    (psi,) = split_snapshots(grid.psi.astype(complex), [t], tau, 2, *flows)
    return WaveFunctionGrid(psi=psi, spec=grid.spec, epsilon=grid.epsilon, t=grid.t + t)


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
        return density / density.sum(axis=self.grid.spec.axes, keepdims=True)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        w = np.abs(fftn(self.grid.psi, self.grid.spec.axes)) ** 2
        return w / w.sum(axis=self.grid.spec.axes, keepdims=True)

    @functools.cached_property
    def v(self) -> np.ndarray:
        return self.grid.spec.mesh_value(self.potential)


def expectation(grid: WaveFunctionGrid, obs_name: str, potential: Potential, readings=None):
    """Expectation of a built-in observable: a float, or one value per solve
    on a stacked grid.  The readings of one snapshot share ``readings``, a
    ``_Readings`` of this grid and potential, made for this call if None."""
    spec = grid.spec
    kind, j = parse_name(obs_name, spec.d)
    if readings is None:
        readings = _Readings(grid, potential)

    def mean(axis_values, axis, weights):
        return _reading((spec.along(axis_values, axis) * weights).sum(axis=spec.axes))

    if kind == "q":
        return mean(spec.axis(), j - 1, readings.density)
    if kind == "potential":
        return _reading((readings.v * readings.density).sum(axis=spec.axes))
    w = readings.weights
    k = spec.wavenumbers()
    if kind == "p":
        return grid.epsilon * mean(k, j - 1, w)
    kinetic = 0.5 * grid.epsilon**2 * sum(mean(k**2, axis, w) for axis in range(spec.d))
    if kind == "kinetic":
        return kinetic
    return kinetic + expectation(grid, "potential", potential, readings)


def reference_expectations(
    spec: GridSpec, packet: GaussianPacket, potential: Potential, times, tau: float,
    observable_names, monitors=None,
):
    """Expectation table {name: values over `times`}, one propagation per coordinate.

    Coordinate j's packet (q0_j, p0_j) steps on the line of ``spec`` under
    V_j through :func:`flow.split_snapshots`, with the order-4 composition of
    the Strang step: A is the potential phase, B the kinetic step in Fourier
    space.  The d packets and meshes stack into (d, n) arrays that step
    together.  Snapshot times must be nondecreasing and commensurate with
    tau.  A dict ``monitors`` receives the largest of each monitor reading
    over the snapshots, under the keys of ``_MONITORS``.
    """
    times = [float(t) for t in times]
    names = list(observable_names)
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("snapshot times must be nondecreasing")
    _check_packet(spec, packet)
    if potential.d != spec.d:
        raise ValueError("potential dimension does not match the grid")
    line = GridSpec(1, spec.n, spec.x_min, spec.x_max)
    v = np.stack([line.mesh_value(potential.coordinate(j)) for j in range(spec.d)])
    kinds = [parse_name(name, spec.d) for name in names]

    eps = packet.epsilon
    psi = np.stack([
        init_packet(line, GaussianPacket(packet.center[j :: spec.d], eps)).psi
        for j in range(spec.d)
    ])
    snaps = split_snapshots(psi, times, tau, _ORDER, *_grid_flows(line, v, eps))
    nyquist = slice(spec.n // 2 - _SHELL_WIDTH, spec.n // 2 + _SHELL_WIDTH)

    table = {name: np.empty(len(times)) for name in names}
    peaks = dict.fromkeys(_MONITORS, 0.0)
    for i, (t_snap, psi) in enumerate(zip(times, snaps)):
        grid = WaveFunctionGrid(psi=psi, spec=line, epsilon=eps, t=t_snap)
        readings = _Readings(grid, potential, v)
        # The d-dimensional monitors, from the lines' factors.
        found = dict(zip(_MONITORS, (
            abs(math.prod(grid.norm().tolist()) - 1.0),
            1.0 - math.prod((1.0 - grid.boundary_mass()).tolist()),
            1.0 - math.prod((1.0 - readings.weights[:, nyquist].sum(axis=-1)).tolist()),
        )))
        for key, (tol, message) in _MONITORS.items():
            if not found[key] <= tol:  # so that a NaN state trips it too
                raise RuntimeError(message.format(found[key], t_snap))
            peaks[key] = max(peaks[key], found[key])
        # Each line's reading of a kind, for the whole stack at once.
        read = functools.cache(lambda kind: expectation(grid, kind, potential, readings).tolist())
        for name, (kind, j) in zip(names, kinds):
            if j:
                table[name][i] = read(kind + "1")[j - 1]
            elif kind == "total":
                table[name][i] = sum(read("kinetic")) + sum(read("potential"))
            else:
                table[name][i] = sum(read(kind))
    if monitors is not None:
        monitors.update(peaks)
    return table
