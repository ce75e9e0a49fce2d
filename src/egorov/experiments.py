"""Configuration-driven experiment runner.

Turns a flat key=value config into trajectory ensembles: the plain
classical-transport estimate from N0 samples under the order-8 flow, the
second-order correction from N2 samples of the split correction dynamics,
their combination, and optionally the grid reference.  Also provides
comparison tables (per-time errors plus mean/max summaries) and parameter
sweeps with log-log slope estimates.

Every file a command writes goes through one writer that fills a temporary
file beside the target and renames it into place, so no path ever holds a
partial file; it makes the output directory with the first file, so a
command rejected before writing leaves none.

Determinism contract: no RNG anywhere; sampling is Halton with a fixed
skip.  An ensemble of n samples is split into ceil(n / CHUNK_SIZE)
contiguous chunks whose sizes differ by at most one, so the chunks depend on
n alone, never on the thread count.  Each chunk is reduced by numpy's
pairwise summation, and an ensemble's chunk totals are combined pairwise in
chunk order.  A chunk reduces each snapshot as its run reaches it: a
transport chunk keeps its live (x, p) pair and one snapshot, which
:func:`egorov.observables.snapshot_sums` reduces in one pass, with the bits
of summing each observable's value; a correction chunk keeps its live state
and no copy, reduced by ``a2_eval``; neither keeps the whole time series.
Only :func:`run_corrected` takes a thread count.  One thread, the default,
and every :func:`sweep` map the chunks inline.  With more, each ensemble's
chunk i runs on worker i mod W, W = min(threads, chunks, usable CPUs):
worker 0 is the calling process, which always runs chunk 0, and the others
are forked processes that send their chunk sums back through a pipe.  The
correction ensemble runs, and its children are reaped, before the
transport's first fork.  Processes, not threads: the chunks' short numpy
calls would convoy on the interpreter lock.  Without ``os.fork`` every
chunk runs inline.  The sums are the same whichever process made them, so
the thread count moves no output byte.  Two runs with the
same config produce byte-identical CSV; wall-clock data, including each
ensemble's wall time, lives only in the metadata file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import pickle
import time
import uuid
# Not called: benchmark/tracing.py patches this name on the module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .correction import a2_eval, evolve_correction_snapshots
from .flow import propagate_snapshots, step_count, yoshida_coefficients
from .observables import default_names, make_observable, parse_name, snapshot_sums
from .potentials import (
    Potential,
    check_dimension,
    free_potential,
    harmonic_potential,
    torsional_potential,
)
from .reference import SCHEME, GridSpec, reference_expectations
from .sampling import GaussianPacket, sample_points

__all__ = [
    "CHUNK_SIZE",
    "CSV_HEADER",
    "ResultRow",
    "RunConfig",
    "SweepResult",
    "build_potential",
    "compare",
    "correction_metadata",
    "format_cell",
    "load_config",
    "parse_config",
    "read_rows_csv",
    "reference_metadata",
    "run_corrected",
    "run_reference",
    "snapshot_times",
    "sweep",
    "table_row_config",
    "transport_metadata",
    "write_csv",
    "write_metadata",
    "write_rows_csv",
    "write_summary_csv",
    "write_sweep_csv",
]

CHUNK_SIZE = 8192

_POTENTIALS = ("torsional", "harmonic", "free")
_SWEEP_AXES = ("epsilon", "N2", "tau2")


def _is_multiple(a: float, b: float) -> bool:
    """True when a is one or more whole multiples of b (up to rounding slack);
    False when a / b overflows."""
    ratio = a / b
    if not math.isfinite(ratio):
        return False
    whole = round(ratio)
    return whole >= 1 and abs(ratio - whole) <= 1e-9 * max(1.0, abs(ratio))


@dataclass(frozen=True)
class RunConfig:
    """One experiment: packet, potential, sampling and stepping parameters.

    ``n_samples`` and ``tau_flow`` drive the plain transport term,
    ``n_correction`` and ``tau_correction`` the correction term; snapshot
    times must land on whole steps of both.  ``tau_reference`` is the step
    of the order-4 grid reference and must divide ``snapshot_stride``; zero
    selects the largest step of at most epsilon/16 that does.
    """

    epsilon: float
    dimension: int
    potential: str
    center: tuple[float, ...]
    n_samples: int
    tau_flow: float
    n_correction: int
    tau_correction: float
    t_final: float = 15.0
    snapshot_stride: float = 0.1
    flow_order: int = 8
    stiffness: tuple[float, ...] = (1.0,)
    observables: tuple[str, ...] = ()
    grid_points: int = 256
    grid_lo: float = -3.0
    grid_hi: float = 3.0
    tau_reference: float = 0.0
    halton_skip: int = 64
    sweep_axis: str = ""
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        d = self.dimension
        for name in ("epsilon", "center", "tau_flow", "tau_correction", "tau_reference",
                     "t_final", "snapshot_stride", "stiffness", "grid_lo", "grid_hi",
                     "sweep_values"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), float))):
                raise ValueError(f"{name} must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        check_dimension(d)
        if self.potential not in _POTENTIALS:
            raise ValueError(
                f"unknown potential {self.potential!r}; choose from {_POTENTIALS}"
            )
        if len(self.center) != 2 * d:
            raise ValueError(
                f"center needs {2 * d} entries (q then p), got {len(self.center)}"
            )
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.n_correction < 0:
            raise ValueError("n_correction must be nonnegative")
        if self.n_correction > self.n_samples:
            raise ValueError("n_correction must not exceed n_samples")
        for name, value in (
            ("tau_flow", self.tau_flow),
            ("tau_correction", self.tau_correction),
            ("snapshot_stride", self.snapshot_stride),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.tau_reference < 0:
            raise ValueError("tau_reference must be nonnegative")
        if self.tau_reference > 0 and not _is_multiple(
            self.snapshot_stride, self.tau_reference
        ):
            raise ValueError(
                "snapshot stride must be a whole multiple of tau_reference"
            )
        if self.flow_order not in (2, 4, 6, 8):
            raise ValueError("flow_order must be one of 2, 4, 6, 8")
        if self.halton_skip < 0:
            raise ValueError("halton_skip must be nonnegative")
        if self.halton_skip + self.n_samples > np.iinfo(np.int64).max:
            raise ValueError("halton_skip + n_samples must not exceed 2**63 - 1")
        if not _is_multiple(self.t_final, self.snapshot_stride):
            raise ValueError("t_final must be a whole number of snapshot strides")
        if not _is_multiple(self.snapshot_stride, self.tau_flow):
            raise ValueError(
                "snapshot stride must be a whole multiple of tau_flow"
            )
        if self.n_correction and not _is_multiple(
            self.snapshot_stride, self.tau_correction
        ):
            raise ValueError(
                "snapshot stride must be a whole multiple of tau_correction"
            )
        n = self.grid_points
        if n < 2 or n & (n - 1):
            raise ValueError("grid_points must be a power of two, at least 2")
        if self.grid_hi <= self.grid_lo:
            raise ValueError("grid_hi must exceed grid_lo")
        if self.sweep_axis and self.sweep_axis not in _SWEEP_AXES:
            raise ValueError(
                f"sweep_axis must be one of {_SWEEP_AXES}, got {self.sweep_axis!r}"
            )
        build_potential(self)
        names = self.observables or default_names(d)
        for name in names:
            parse_name(name, d)
        if len(set(names)) < len(names):
            raise ValueError(f"observables must not repeat a name: {', '.join(names)}")
        object.__setattr__(self, "observables", tuple(names))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(
            self, "stiffness", tuple(float(s) for s in self.stiffness)
        )
        object.__setattr__(
            self, "sweep_values", tuple(float(v) for v in self.sweep_values)
        )

    @property
    def tau_reference_effective(self) -> float:
        if self.tau_reference > 0:
            return self.tau_reference
        stride = self.snapshot_stride
        steps = 16.0 * stride / self.epsilon
        if not math.isfinite(steps):
            raise ValueError("16 * snapshot_stride / epsilon overflows: set tau_reference")
        return stride / math.ceil(steps)


def build_potential(config: RunConfig) -> Potential:
    """The potential object a config describes."""
    if config.potential == "torsional":
        return torsional_potential(config.dimension)
    if config.potential == "harmonic":
        return harmonic_potential(config.dimension, config.stiffness)
    return free_potential(config.dimension)


def snapshot_times(config: RunConfig) -> list[float]:
    """Snapshot times 0, stride, 2*stride, ..., t_final."""
    n = round(config.t_final / config.snapshot_stride)
    return [i * config.snapshot_stride for i in range(n + 1)]


# ---------------------------------------------------------------------------
# Config file parsing: flat key=value lines, '#' comments, blank lines.  The
# keys are RunConfig's fields, each parsed by its annotation; the fields
# without a default are required.
# ---------------------------------------------------------------------------


def _parse_int(value: str) -> int:
    """An integer literal, read exactly, or a float form of a whole number
    such as ``1e4``."""
    try:
        return int(value)
    except ValueError:
        number = float(value)
    if not math.isfinite(number) or number != round(number):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _parse_names(value: str) -> tuple[str, ...]:
    """The comma-separated items of ``value``; an empty value is no items,
    and an empty item, such as one a trailing comma leaves, is an error."""
    if not value:
        return ()
    items = tuple(part.strip() for part in value.split(","))
    if not all(items):
        raise ValueError(f"empty item in {value!r}")
    return items


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _parse_names(value))


# Keyed by the annotation's text, which is what ``dataclasses.fields`` holds
# under ``from __future__ import annotations``.
_PARSERS = {
    "float": float,
    "int": _parse_int,
    "str": str,
    "tuple[float, ...]": _parse_floats,
    "tuple[str, ...]": _parse_names,
}


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text into a validated RunConfig."""
    fields = {field.name: field for field in dataclasses.fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[key] = _PARSERS[fields[key].type](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    missing = [
        name for name, field in fields.items()
        if field.default is dataclasses.MISSING and name not in values
    ]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def table_row_config(row: int, **overrides) -> RunConfig:
    """Default experiment rows: the shipped (epsilon, N0, tau0, N2, tau2) sets.

    Row 1 through 4: (0.1, 1e5, 0.1, 500, 2^-2), (0.05, 1e6, 0.1, 1e3, 2^-3),
    (0.02, 1e7, 0.1, 1e4, 2^-5), (0.01, 1e8, 0.1, 1e4, 2^-5), torsional d=2,
    packet center (1, 0.5, 0, 0).  The snapshot stride defaults to 0.5 here,
    the smallest value commensurate with every row's step sizes.
    """
    rows = {
        1: (0.1, 100_000, 0.1, 500, 0.25),
        2: (0.05, 1_000_000, 0.1, 1_000, 0.125),
        3: (0.02, 10_000_000, 0.1, 10_000, 0.03125),
        4: (0.01, 100_000_000, 0.1, 10_000, 0.03125),
    }
    if row not in rows:
        raise ValueError(f"row must be 1..4, got {row}")
    epsilon, n0, tau0, n2, tau2 = rows[row]
    settings = dict(
        epsilon=epsilon,
        dimension=2,
        potential="torsional",
        center=(1.0, 0.5, 0.0, 0.0),
        n_samples=n0,
        tau_flow=tau0,
        n_correction=n2,
        tau_correction=tau2,
        snapshot_stride=0.5,
    )
    settings.update(overrides)
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# Result rows and CSV round-trip.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    """One (time, observable) cell of a run; missing fields stay None."""

    time: float
    observable: str
    egorov: float | None = None
    correction: float | None = None
    corrected: float | None = None
    reference: float | None = None
    err_egorov: float | None = None
    err_corrected: float | None = None


_ROW_COLUMNS = tuple(field.name for field in dataclasses.fields(ResultRow))
CSV_HEADER = ",".join(_ROW_COLUMNS)


def format_cell(value) -> str:
    """A CSV cell: the float's repr, or empty for None."""
    return "" if value is None else repr(float(value))


def _write_atomic(path, chunks) -> None:
    """Write the strings ``chunks`` to a temporary file beside ``path`` and
    rename it into place, so the path never holds a partial file.  The
    temporary file is created exclusively with the mode a plain write gives,
    so a shared directory stays readable.  Missing parent directories are
    made here, when the first file goes into them."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """A table with the columns ``header``, one line per row.  Each row is a
    mapping, and a column it lacks is an empty cell; strings are written as
    they are, everything else by :func:`format_cell`."""

    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            cells = (row.get(name) for name in header)
            yield ",".join(c if isinstance(c, str) else format_cell(c) for c in cells) + "\n"

    _write_atomic(path, lines())


def write_rows_csv(rows, path) -> None:
    write_csv(path, _ROW_COLUMNS, map(vars, rows))


def read_rows_csv(path) -> list[ResultRow]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized results file: {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_ROW_COLUMNS):
            raise ValueError(f"malformed results row: {line!r}")
        cells = [None if cell == "" else float(cell) for cell in parts[2:]]
        rows.append(ResultRow(float(parts[0]), parts[1], *cells))
    return rows


def write_metadata(out_dir, config: RunConfig | None, elapsed: dict, **entries) -> None:
    """Wall-clock info and the config echo; the only place timestamps go.
    Each keyword entry, such as ``reference`` (:func:`reference_metadata`) or
    ``transport`` (:func:`transport_metadata`), is added under its name."""
    payload = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": {key: float(val) for key, val in elapsed.items()},
        **entries,
    }
    if config is not None:
        payload["config"] = dataclasses.asdict(config)
    _write_atomic(
        Path(out_dir) / "metadata.json", [json.dumps(payload, indent=2, sort_keys=True), "\n"]
    )


# ---------------------------------------------------------------------------
# Ensemble runs.
# ---------------------------------------------------------------------------


def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    """ceil(n / CHUNK_SIZE) contiguous (start, stop) ranges covering [0, n),
    their sizes differing by at most one."""
    m = -(-n // CHUNK_SIZE)
    return [(i * n // m, (i + 1) * n // m) for i in range(m)]


def _pairwise_combine(stack: np.ndarray) -> np.ndarray:
    """Reduce axis 0 by adjacent pairing; order-stable, whichever worker made each row."""
    while stack.shape[0] > 1:
        even = stack.shape[0] // 2 * 2
        stack = np.concatenate(
            [stack[0:even:2] + stack[1:even:2], stack[even:]], axis=0
        )
    return stack[0]


def _chunk_points(config: RunConfig, start: int, stop: int) -> np.ndarray:
    packet = GaussianPacket(np.array(config.center), config.epsilon)
    return sample_points(packet, stop - start, config.halton_skip + start)


def _egorov_chunk_sums(config, potential, observables, times, start, stop):
    """Each observable's sum over the chunk's transported points, one row
    per snapshot time, each reduced as the propagation reaches it by
    :func:`egorov.observables.snapshot_sums`, which shares |p|^2 / 2 and V
    between the energies."""
    names = [obs.name for obs in observables]

    def sums(z):
        return snapshot_sums(names, potential, z)

    points = _chunk_points(config, start, stop)
    return np.array(propagate_snapshots(
        points, times, config.tau_flow, config.flow_order, potential, sums
    ))


def _correction_chunk_sums(config, potential, observables, times, start, stop):
    """Each observable's sum of a2 over the chunk's points, one row per
    snapshot time, each reduced on the live state as the run reaches it."""

    def sums(state):
        return np.sum(a2_eval(observables, state), axis=-1)

    points = _chunk_points(config, start, stop)
    return np.stack(evolve_correction_snapshots(
        points, times, config.tau_correction, potential, sums
    ))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child_exit(fn, tasks, write_fd):
    """The body of a forked worker: pickle ``(True, [fn(task) ...])``, or
    ``(False, exception)`` when one raises, into ``write_fd``, and leave by
    ``os._exit``, so that no ``finally`` or atexit handler of the parent runs
    here.  A worker that dies first sends nothing."""
    code = 1
    try:
        try:
            payload = True, [fn(task) for task in tasks]
        except Exception as exc:
            payload = False, exc
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def _map_chunks(fn, tasks, threads):
    """``[fn(task) for task in tasks]``, with task i run by worker i mod W,
    W = min(threads, len(tasks), usable CPUs).  Worker 0 is this process and
    workers 1 .. W-1 are forked children, so task 0 always runs here; with
    W <= 1, or without ``os.fork``, every task does.  A child's exception is
    raised here with its own type, and a child that ends without a result
    raises RuntimeError.  Every child is reaped before this returns or
    raises."""
    workers = min(threads, len(tasks), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [fn(task) for task in tasks]
    children = []  # (pid, read end of its pipe) until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child_exit(fn, tasks[worker::workers], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [None] * len(tasks)
        results[0::workers] = [fn(task) for task in tasks[0::workers]]
        for worker in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"ensemble worker {pid} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[worker::workers] = value
        return results
    finally:
        if children:
            import signal

            for pid, pipe in children:
                pipe.close()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _ensemble_mean(config, potential, observables, times, threads, n, chunk_fn):
    """The mean over an ensemble of n samples: ``chunk_fn`` runs on each
    chunk, in this process or a forked one (:func:`_map_chunks`), and the
    chunk sums are combined pairwise in chunk order, whichever process made
    them."""

    def chunk(bounds):
        return chunk_fn(config, potential, observables, times, *bounds)

    sums = _map_chunks(chunk, _chunk_ranges(n), threads)
    if not sums:
        return np.zeros((len(times), len(observables)))
    return _pairwise_combine(np.stack(sums)) / n


def run_corrected(config: RunConfig, threads: int = 1, elapsed=None) -> list[ResultRow]:
    """Transport term from N0 samples plus correction term from N2 samples.

    The correction samples are the leading N2 points of the same Halton
    stream, so shrinking N2 never perturbs the transport term.  Row identity:
    corrected = egorov + epsilon^2 * correction, exactly as stored.  With
    ``threads`` above one, each ensemble's chunks are spread over this
    process and up to ``threads - 1`` forked ones, at most one per usable
    CPU and chunk; the correction ensemble finishes before the transport
    starts, and the rows keep their bytes.  With a dict ``elapsed``, the
    wall seconds of the two ensembles are stored under ``correction`` and
    ``transport``.
    """
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return _run_corrected(config, threads, elapsed=elapsed)[0]


def _run_corrected(config: RunConfig, threads=1, egorov_mean=None, elapsed=None):
    """run_corrected's rows and its transport mean; a given ``egorov_mean``
    is reused, which holds while the packet, potential, N0 and tau0 do."""
    potential = build_potential(config)
    observables = [make_observable(name, potential) for name in config.observables]
    times = snapshot_times(config)
    ensemble = (config, potential, observables, times, threads)
    elapsed = {} if elapsed is None else elapsed
    start = time.perf_counter()
    correction_mean = _ensemble_mean(*ensemble, config.n_correction, _correction_chunk_sums)
    elapsed["correction"] = time.perf_counter() - start
    if egorov_mean is None:
        start = time.perf_counter()
        egorov_mean = _ensemble_mean(*ensemble, config.n_samples, _egorov_chunk_sums)
        elapsed["transport"] = time.perf_counter() - start
    eps2 = config.epsilon**2
    rows = []
    for i, t in enumerate(times):
        for j, obs in enumerate(observables):
            egorov = float(egorov_mean[i, j])
            corr = float(correction_mean[i, j])
            rows.append(
                ResultRow(
                    time=t,
                    observable=obs.name,
                    egorov=egorov,
                    correction=corr,
                    corrected=egorov + eps2 * corr,
                )
            )
    return rows, egorov_mean


def run_reference(config: RunConfig, monitors=None) -> list[ResultRow]:
    """Grid-solver expectations on the config's snapshot grid.  With a dict
    ``monitors``, the largest monitor readings are stored in it
    (:func:`reference.reference_expectations`)."""
    potential = build_potential(config)
    spec = GridSpec(
        d=config.dimension,
        n=config.grid_points,
        x_min=config.grid_lo,
        x_max=config.grid_hi,
    )
    packet = GaussianPacket(center=np.array(config.center), epsilon=config.epsilon)
    times = snapshot_times(config)
    tau = config.tau_reference_effective
    names = config.observables
    table = reference_expectations(spec, packet, potential, times, tau, names, monitors=monitors)
    return [
        ResultRow(time=t, observable=name, reference=float(table[name][i]))
        for i, t in enumerate(times)
        for name in names
    ]


def _total_steps(config: RunConfig, tau: float) -> int:
    times = snapshot_times(config)
    return sum(step_count(b - a, tau) for a, b in zip(times, times[1:]))


def reference_metadata(config: RunConfig) -> dict:
    """The scheme, step and step count behind :func:`run_reference`'s table."""
    tau = config.tau_reference_effective
    return {"scheme": SCHEME, "tau": tau, "steps": _total_steps(config, tau)}


def transport_metadata(config: RunConfig) -> dict:
    """The splitting order, Strang stages per step, step count, force
    evaluations (N0 x steps x stages) and chunks behind the transport column."""
    stages = len(yoshida_coefficients(config.flow_order))
    steps = _total_steps(config, config.tau_flow)
    return {
        "order": config.flow_order,
        "stages_per_step": stages,
        "steps": steps,
        "force_evaluations": config.n_samples * steps * stages,
        "chunks": len(_chunk_ranges(config.n_samples)),
    }


def correction_metadata(config: RunConfig) -> dict:
    """The samples (N2), order-4 step count and chunks behind the correction
    column of :func:`run_corrected`; with N2 = 0 no step runs."""
    n = config.n_correction
    return {
        "samples": n,
        "steps": _total_steps(config, config.tau_correction) if n else 0,
        "chunks": len(_chunk_ranges(n)),
    }


# ---------------------------------------------------------------------------
# Comparison and sweeps.
# ---------------------------------------------------------------------------


def _baseline(row: ResultRow, column: str):
    value = getattr(row, column)
    return row.reference if value is None else value


def compare(rows_a, rows_b):
    """Per-(time, observable) absolute errors of A against B, plus summaries.

    Each error column compares like with like: A's egorov against B's egorov
    and A's corrected against B's corrected, falling back to B's reference
    column when B lacks the method columns (the run-vs-reference case).
    Returns (merged rows, per-observable summary dicts with mean/max over
    time).  Comparing a run against itself yields all-zero errors.
    """
    by_key_b = {(row.time, row.observable): row for row in rows_b}
    keys_a = [(row.time, row.observable) for row in rows_a]
    if len(by_key_b) != len(rows_b) or len(set(keys_a)) != len(keys_a):
        raise ValueError("duplicate (time, observable) rows")
    if set(keys_a) != set(by_key_b):
        raise ValueError("snapshot grids or observable sets differ")
    merged = []
    errors = {}
    for row in rows_a:
        other = by_key_b[(row.time, row.observable)]
        err_e = err_c = None
        base_e = _baseline(other, "egorov")
        base_c = _baseline(other, "corrected")
        val_e = _baseline(row, "egorov")
        val_c = _baseline(row, "corrected")
        if val_e is not None and base_e is not None:
            err_e = abs(val_e - base_e)
        if val_c is not None and base_c is not None:
            err_c = abs(val_c - base_c)
        merged.append(
            dataclasses.replace(
                row, reference=base_c, err_egorov=err_e, err_corrected=err_c
            )
        )
        errors.setdefault(row.observable, []).append((err_e, err_c))
    summaries = []
    for observable, pairs in errors.items():
        es = [e for e, _ in pairs if e is not None]
        cs = [c for _, c in pairs if c is not None]
        summaries.append(
            {
                "observable": observable,
                "mean_err_egorov": float(np.mean(es)) if es else None,
                "max_err_egorov": float(np.max(es)) if es else None,
                "mean_err_corrected": float(np.mean(cs)) if cs else None,
                "max_err_corrected": float(np.max(cs)) if cs else None,
            }
        )
    return merged, summaries


_SUMMARY_COLUMNS = (
    "observable", "mean_err_egorov", "max_err_egorov",
    "mean_err_corrected", "max_err_corrected",
)


def write_summary_csv(summaries, path) -> None:
    """:func:`compare`'s per-observable summaries as a table."""
    write_csv(path, _SUMMARY_COLUMNS, summaries)


def _config_for_value(config: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "epsilon":
        # Sampling sizes follow the 1/epsilon^2 scaling of the shipped rows.
        scale = (config.epsilon / value) ** 2
        return dataclasses.replace(
            config,
            epsilon=value,
            n_samples=max(1, round(config.n_samples * scale)),
            n_correction=round(config.n_correction * scale),
        )
    if axis == "N2":
        if value != round(value):
            raise ValueError(f"N2 sweep values must be integers, got {value}")
        return dataclasses.replace(config, n_correction=int(round(value)))
    return dataclasses.replace(config, tau_correction=value)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's summary rows and slopes, and ``runs``: per value, in value
    order, the value and the work behind its ``correction`` column, and
    behind its ``transport`` column where a transport ran (every value along
    epsilon, the first value on the other axes, which reuse its mean), with
    the wall seconds of each ensemble that ran under ``elapsed_seconds``."""

    axis: str
    values: tuple[float, ...]
    rows: tuple[dict, ...]
    slopes: tuple[dict, ...]
    runs: tuple[dict, ...]


def _loglog_slope(xs, ys) -> float | None:
    """The least-squares slope of log y against log x, over the pairs with
    both positive; None when fewer than two remain."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y is not None and y > 0]
    if len(pairs) < 2:
        return None
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    return float(np.polyfit(lx, ly, 1)[0])


def sweep(
    config: RunConfig,
    axis: str,
    values,
    baseline_rows=None,
) -> SweepResult:
    """Corrected runs across one axis, each compared to a baseline.

    The baseline defaults to the grid reference (recomputed per value for the
    epsilon axis, shared otherwise), and every reference is computed before
    the first ensemble runs; pass ``baseline_rows`` to compare against a
    fixed run instead, e.g. a high-resolution correction run.  Summary rows
    carry mean/max errors per (value, observable); slopes are least-squares
    log-log fits of the errors against the axis values.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep needs at least one value")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be sorted strictly ascending")
    # Every value's config is validated before anything runs.
    configs = [_config_for_value(config, axis, value) for value in values]
    if baseline_rows is not None:
        baselines = [baseline_rows] * len(configs)
    elif axis == "epsilon":
        baselines = [run_reference(cfg) for cfg in configs]
    else:
        baselines = [run_reference(config)] * len(configs)
    summary_rows = []
    runs = []
    transport = None
    for value, cfg, baseline in zip(values, configs, baselines):
        # Only the epsilon axis changes the transport term (packet and N0).
        reuse = None if axis == "epsilon" else transport
        run = {"value": value, "correction": correction_metadata(cfg), "elapsed_seconds": {}}
        if reuse is None:
            run["transport"] = transport_metadata(cfg)
        runs.append(run)
        rows, transport = _run_corrected(cfg, egorov_mean=reuse, elapsed=run["elapsed_seconds"])
        _, summaries = compare(rows, baseline)
        for summary in summaries:
            summary_rows.append({"axis": axis, "value": value, **summary})
    slopes = []
    observables = list(dict.fromkeys(row["observable"] for row in summary_rows))
    for observable in observables:
        rows_for = [r for r in summary_rows if r["observable"] == observable]
        slopes.append(
            {
                "observable": observable,
                "slope_mean_corrected": _loglog_slope(
                    [r["value"] for r in rows_for],
                    [r["mean_err_corrected"] for r in rows_for],
                ),
                "slope_max_corrected": _loglog_slope(
                    [r["value"] for r in rows_for],
                    [r["max_err_corrected"] for r in rows_for],
                ),
            }
        )
    return SweepResult(
        axis=axis,
        values=tuple(values),
        rows=tuple(summary_rows),
        slopes=tuple(slopes),
        runs=tuple(runs),
    )


_SWEEP_COLUMNS = (
    "axis", "value", *_SUMMARY_COLUMNS, "slope_mean_corrected", "slope_max_corrected",
)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One line per (value, observable) summary, then one slope line per
    observable."""
    slopes = ({"axis": result.axis, **slope} for slope in result.slopes)
    write_csv(path, _SWEEP_COLUMNS, [*result.rows, *slopes])
