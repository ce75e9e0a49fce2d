"""Make the grid-reference table that the trajectory workloads check against.

    python3 benchmark/make_reference.py

Runs the split-step Fourier solver of `egorov.reference` for the benchmark's
packet (torsional d = 2, centre (1, 0.5, 0, 0), eps = 0.1) on the default
256^2 grid over [-3, 3)^2, with the step pinned to eps/800, to T = 5 with
stride 0.5, for the seven default observables.  The t = 0 row is checked
against the analytic Gaussian moments before the table is written to
benchmark/data/grid_reference.csv.  Takes about two minutes on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from egorov.potentials import torsional_potential  # noqa: E402
from egorov.reference import GridSpec, reference_expectations  # noqa: E402
from egorov.sampling import GaussianPacket  # noqa: E402

T_FINAL = 5.0
STRIDE = 0.5


def main() -> int:
    times = [i * STRIDE for i in range(round(T_FINAL / STRIDE) + 1)]
    packet = GaussianPacket(center=np.array(checks.CENTER), epsilon=checks.EPSILON)
    table = reference_expectations(
        GridSpec(d=2, n=256),
        packet,
        torsional_potential(2),
        times,
        checks.EPSILON / 800.0,
        checks.OBSERVABLES,
    )
    rows = {(t, name): float(table[name][i]) for i, t in enumerate(times) for name in table}
    failures = checks.t0_failures(rows, checks.GRID_T0, "grid")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    worst = max(abs(rows[0.0, n] - v) for n, v in checks.analytic_moments().items())
    energy = table["total"]
    lines = ["time,observable,value"]
    lines += [f"{t!r},{name},{value!r}" for (t, name), value in rows.items()]
    checks.GRID_TABLE.parent.mkdir(exist_ok=True)
    checks.GRID_TABLE.write_text("\n".join(lines) + "\n")
    print(
        f"wrote {checks.GRID_TABLE.relative_to(ROOT)}: t=0 row within {worst:.1e} "
        f"of the analytic moments, total drifts by "
        f"{float(np.max(np.abs(energy - energy[0]))):.1e}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
