"""Benchmark of `egorov`: three workloads, timed end to end and per layer.

    python3 benchmark/run.py --workload transport-row1 --seed 3 --seconds 10 --trace 0

Each operation is one `egorov run` or `egorov reference` command, called
through `egorov.cli.main` in this process with a fresh `--out` directory, and
its outputs are checked (see checks.py).  One untimed operation warms up,
then timed operations repeat until `--seconds` have passed; at least one
runs.  The package is imported from `src/` next to this directory; without
it the benchmark exits with code 1.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters importing egorov and parsing the config), wall_s (median
command time), both scaled by a calibration kernel timed beside them,
peak_rss_mb after the first operation, and max_dev_corrected.  --trace 1 adds one traced
operation after the untimed ones and prints the per-layer metrics, with the
tracing overhead; the spans go to benchmark/runs/trace-<workload>-<seed>.json.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# At most two threads: the ensemble pool's, and none from BLAS underneath it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

THREADS = 2
# The seed moves the start of the Halton stream by seed % SHIFTS points.
# Jumps of a million points change max_dev_corrected by up to 3x, which is
# the sampling error of the 1e4-point means, not a property of the
# program; shifts this small move it by a few percent (README.md).
SHIFTS = 16

SYSTEM = {
    "epsilon": 0.1,
    "dimension": 2,
    "potential": "torsional",
    "center": "1.0, 0.5, 0.0, 0.0",
    "snapshot_stride": 0.5,
}
ROW1 = {"n_samples": 100_000, "tau_flow": 0.1, "n_correction": 500, "tau_correction": 0.25}

# command, --threads, config keys on top of SYSTEM.  Each operation takes a
# few seconds, so a run times several and reports their median.
WORKLOADS = {
    # Table row 1 with N0 = 1e4, to T = 5: nearly all time is the order-8
    # transport.
    "transport-row1": ("run", THREADS, {**ROW1, "n_samples": 10_000, "t_final": 5.0}),
    # Row 3's correction step (tau2 = 2^-5) with N2 = 1e3 on a 1e4-point
    # transport, to T = 5: most of the time is the correction stepper, in one
    # ensemble chunk.
    "correction-row3": (
        "run",
        THREADS,
        {**ROW1, "n_samples": 10_000, "n_correction": 1_000,
         "tau_correction": 0.03125, "t_final": 5.0},
    ),
    # The grid solver on row 1's packet to T = 0.125 at the default step
    # eps/800: 1000 Strang steps.  The snapshot times must be whole steps of
    # tau0 and tau2, which steer only the quadrature check.
    "reference-grid": (
        "reference",
        None,
        {**ROW1, "tau_flow": 0.025, "tau_correction": 0.125,
         "snapshot_stride": 0.125, "t_final": 0.125},
    ),
}

# The machine is shared, and its speed swings by up to 1.6x within tens of
# seconds and drifts over minutes; raw command times of runs minutes apart
# measure that, not the program.  So a fixed calibration kernel of the kind
# of work the command does runs before the first timed operation and after
# every one, and wall_s scales each command time by the kernel's nominal
# time over the mean of the two kernel times around it (README.md).  The
# kernels call nothing of egorov.
CALIBRATION_NOMINAL_S = {"run": 0.3, "reference": 0.3}


class Calibration:
    """`run`: leapfrog steps of a 1e4-point ensemble in a cosine potential.
    `reference`: split steps, each two 256^2 FFTs and two phase products."""

    def __init__(self, command: str):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np, self.command = np, command
        self.nominal = CALIBRATION_NOMINAL_S[command]
        self.z = rng.standard_normal((10_000, 4))
        self.psi = rng.standard_normal((256, 256)) + 0j
        self.phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 256, 256)))

    def __call__(self) -> float:
        from scipy.fft import fftn, ifftn

        np = self.np
        start = time.perf_counter()
        if self.command == "run":
            q, p = self.z[:, :2], self.z[:, 2:]
            for _ in range(800):
                p = p - 0.01 * np.sin(q)
                q = q + 0.01 * p
        else:
            psi = self.psi
            for _ in range(160):
                psi = self.phase[0] * ifftn(self.phase[1] * fftn(psi))
        return time.perf_counter() - start


SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import egorov.cli
from egorov.experiments import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def config_text(workload: str, seed: int) -> str:
    settings = {**SYSTEM, **WORKLOADS[workload][2]}
    settings["halton_skip"] = 64 + seed % SHIFTS
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def import_egorov():
    """Import egorov from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import egorov.cli

    if SRC.resolve() not in Path(egorov.cli.__file__).resolve().parents:
        raise ImportError(f"egorov was imported from {egorov.cli.__file__}")
    return egorov.cli


def setup_seconds(config_path: Path) -> float:
    """One fresh interpreter's time to import egorov and load the config."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Operation:
    """One egorov command on the workload's config, and its checks."""

    def __init__(self, cli, workload: str, config_path: Path, scratch: Path):
        import checks

        self.cli, self.checks = cli, checks
        self.command, threads, self.settings = WORKLOADS[workload]
        self.argv = [self.command, "--config", str(config_path)]
        if threads:
            self.argv += ["--threads", str(threads)]
        self.scratch = scratch
        self.quadrature = None
        if self.command == "reference":
            stride = self.settings["snapshot_stride"]
            times = [stride * i for i in range(round(self.settings["t_final"] / stride) + 1)]
            self.quadrature = checks.quadrature_corrected(
                times, ("q1", "q2", "p1", "p2"),
                self.settings["tau_flow"], self.settings["tau_correction"],
            )

    def __call__(self):
        """Returns (wall seconds, failure messages, max_dev_corrected)."""
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.scratch))
        try:
            with contextlib.redirect_stdout(sys.stderr):
                start = time.perf_counter()
                code = self.cli.main(self.argv + ["--out", str(out)])
                wall = time.perf_counter() - start
            if code != 0:
                return wall, [f"egorov {self.command} exited with {code}"], 0.0
            if self.command == "reference":
                failures, dev = self.checks.check_reference(
                    out / "reference.csv", self.quadrature
                )
            else:
                failures, dev = self.checks.check_run(
                    out / "results.csv",
                    self.settings["n_samples"],
                    self.settings["tau_correction"],
                )
            return wall, failures, dev
        finally:
            shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_egorov()
    except ImportError as exc:
        print(f"cannot import egorov from {SRC}: {exc}", file=sys.stderr)
        return 1

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        config_path = scratch / "workload.cfg"
        config_path.write_text(config_text(args.workload, args.seed))
        operation = Operation(cli, args.workload, config_path, scratch)

        # The first operation pays for first calls and cold caches; it is
        # checked but not timed.  A user runs one command per process, so the
        # peak resident memory is read after it, before the calibration
        # kernel and further operations reshape the heap.
        _, failures, dev = operation()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calibration = Calibration(operation.command)
        walls, failed, devs, problems = [], int(bool(failures)), [dev], list(failures)
        scaled_walls, scaled_setups = [], []
        kernel = calibration()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            wall, failures, dev = operation()
            # Set-up is sampled after every operation, so that its samples
            # spread over the run as the operations' do.
            setup = None if args.trace else setup_seconds(config_path)
            kernel_before, kernel = kernel, calibration()
            walls.append(wall)
            scaled_walls.append(wall * calibration.nominal * 2 / (kernel_before + kernel))
            if setup is not None:
                scaled_setups.append(setup * calibration.nominal / kernel)
            print(f"operation {wall:.4f} s, set-up {setup or 0:.4f} s, "
                  f"calibration kernel {kernel:.4f} s", file=sys.stderr)
            devs.append(dev)
            failed += bool(failures)
            problems += failures
        attempted = 1 + len(walls)

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, failures, _ = operation()
            finally:
                tracer.remove()
            attempted += 1
            failed += bool(failures)
            problems += failures
            kernel_before, kernel = kernel, calibration()
            traced_wall *= calibration.nominal * 2 / (kernel_before + kernel)
            tracer.write(RUNS / f"trace-{args.workload}-{args.seed}.json")
            metrics = tracer.layer_metrics()
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - statistics.median(scaled_walls), "s")
        else:
            metrics = {
                "setup_s": (statistics.median(scaled_setups), "s"),
                "wall_s": (statistics.median(scaled_walls), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
                "max_dev_corrected": (max(devs), "abs"),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
