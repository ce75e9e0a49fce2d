"""Command-line entry point.

Subcommands: ``run`` (transport + correction ensembles), ``reference``
(grid solver), ``compare`` (error tables from two result files), ``sweep``
(one axis, summary with log-log slopes), ``selftest`` (numerical battery).
Exit codes: 0 on success, 1 on validation problems (bad config, bad files,
mismatched grids), 2 when a numerical check fails (selftest failure, or the
reference solver tripping its unitarity/boundary monitors).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiments import (
    compare,
    correction_metadata,
    format_cell,
    load_config,
    read_rows_csv,
    reference_metadata,
    run_corrected,
    run_reference,
    sweep,
    transport_metadata,
    write_metadata,
    write_rows_csv,
    write_summary_csv,
    write_sweep_csv,
)

def _out_dir(args, config=None) -> Path:
    """The output directory; it is made when the first file is written, so a
    rejected command leaves none behind."""
    return Path(args.out or (config.output_dir if config else "results"))


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    # The run's wall seconds, and those of each ensemble within it.
    stages = {}
    start = time.perf_counter()
    rows = run_corrected(config, threads=args.threads, elapsed=stages)
    elapsed = time.perf_counter() - start
    write_rows_csv(rows, out / "results.csv")
    write_metadata(
        out, config, {"run": elapsed, **stages},
        transport=transport_metadata(config), correction=correction_metadata(config),
    )
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows, {elapsed:.1f}s)")
    return 0


def _cmd_reference(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    start = time.perf_counter()
    rows = run_reference(config)
    elapsed = time.perf_counter() - start
    write_rows_csv(rows, out / "reference.csv")
    write_metadata(
        out, config, {"reference": elapsed}, reference=reference_metadata(config)
    )
    print(f"wrote {out / 'reference.csv'} ({len(rows)} rows, {elapsed:.1f}s)")
    return 0


def _cmd_compare(args) -> int:
    rows_a = read_rows_csv(args.run_csv)
    rows_b = read_rows_csv(args.baseline_csv)
    merged, summaries = compare(rows_a, rows_b)
    out = _out_dir(args)
    write_rows_csv(merged, out / "errors.csv")
    write_summary_csv(summaries, out / "summary.csv")
    write_metadata(out, None, {})
    for s in summaries:
        print(
            f"{s['observable']}: mean {format_cell(s['mean_err_corrected'])} "
            f"max {format_cell(s['max_err_corrected'])} (corrected)"
        )
    print(f"wrote {out / 'errors.csv'} and {out / 'summary.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if not config.sweep_axis or not config.sweep_values:
        raise ValueError("sweep needs sweep_axis and sweep_values in the config")
    out = _out_dir(args, config)
    start = time.perf_counter()
    result = sweep(config, config.sweep_axis, config.sweep_values, threads=args.threads)
    elapsed = time.perf_counter() - start
    write_sweep_csv(result, out / "sweep.csv")
    write_metadata(out, config, {"sweep": elapsed}, transport=transport_metadata(config))
    for slope in result.slopes:
        print(
            f"{slope['observable']}: log-log slope "
            f"{format_cell(slope['slope_max_corrected'])} (max corrected error)"
        )
    print(f"wrote {out / 'sweep.csv'} ({elapsed:.1f}s)")
    return 0


def _cmd_selftest(args) -> int:
    del args
    # Imported here so that `egorov run` does not pay for the checks and the
    # quadrature oracle they use.
    from .checks import selftest

    results = selftest()
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
        failed += not check.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egorov",
        description=(
            "Semiclassical expectation values from classical trajectories, "
            "with grid-based reference dynamics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=True):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", help="output directory")
        if threads:
            p.add_argument(
                "--threads", type=int, default=1,
                help="worker threads for each ensemble's chunks; the correction "
                "ensemble runs before the transport",
            )

    run_p = sub.add_parser("run", help="transport + correction ensemble run")
    common(run_p)
    run_p.set_defaults(handler=_cmd_run)

    ref_p = sub.add_parser("reference", help="grid reference expectations")
    common(ref_p, threads=False)
    ref_p.set_defaults(handler=_cmd_reference)

    cmp_p = sub.add_parser("compare", help="error table from two result files")
    cmp_p.add_argument("run_csv", help="results file being evaluated")
    cmp_p.add_argument("baseline_csv", help="baseline results file")
    cmp_p.add_argument("--out", help="output directory")
    cmp_p.set_defaults(handler=_cmd_compare)

    sweep_p = sub.add_parser("sweep", help="run one config axis and summarize")
    common(sweep_p)
    sweep_p.set_defaults(handler=_cmd_sweep)

    self_p = sub.add_parser("selftest", help="numerical cross-check battery")
    self_p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
