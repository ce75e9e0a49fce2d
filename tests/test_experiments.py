"""Config parsing, ensemble runs, comparisons, sweeps, self-test, CLI."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egorov
import egorov.checks as checks
import egorov.cli as cli
import egorov.correction as correction_mod
import egorov.experiments as experiments
import egorov.observables as observables
import egorov.potentials as potentials
import egorov.reference as reference
from egorov.experiments import (
    CSV_HEADER,
    ResultRow,
    RunConfig,
    build_potential,
    compare,
    load_config,
    parse_config,
    read_rows_csv,
    run_corrected,
    run_reference,
    snapshot_times,
    sweep,
    table_row_config,
    write_metadata,
    write_rows_csv,
    write_sweep_csv,
)
from egorov.experiments import _config_for_value, _loglog_slope
from egorov.flow import step_count
from egorov.potentials import Potential, TorsionalPotential
from egorov.sampling import GaussianPacket, sample_points


def tiny_config(**overrides):
    base = dict(
        epsilon=0.1,
        dimension=2,
        potential="torsional",
        center=(1.0, 0.5, 0.0, 0.0),
        n_samples=64,
        tau_flow=0.05,
        n_correction=16,
        tau_correction=0.125,
        t_final=0.5,
        snapshot_stride=0.25,
    )
    base.update(overrides)
    return RunConfig(**base)


def _recording_forks(monkeypatch, events, cpus):
    """Let the mappers see ``cpus`` usable CPUs, and wrap ``os.fork`` and
    ``os.waitpid`` so that the parent appends ("fork", pid) and ("reap",
    pid) to ``events``."""
    fork, waitpid = os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:
            events.append(("fork", pid))
        return pid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        events.append(("reap", pid))
        return reaped

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)


def _refuse_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(os, "fork", no_fork)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recording_chunks(monkeypatch, calls):
    """Replace both chunk functions by ones that append their ensemble's
    name to ``calls`` as they start."""
    for kind, name in (("correction", "_correction_chunk_sums"),
                       ("transport", "_egorov_chunk_sums")):

        def recorded(*args, _kind=kind, _original=getattr(experiments, name)):
            calls.append(_kind)
            return _original(*args)

        monkeypatch.setattr(experiments, name, recorded)


def rows_by_key(rows):
    return {(row.time, row.observable): row for row in rows}


def _csv_bytes(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_rows_csv(rows, path)
        return path.read_bytes()


class TestRunConfig:
    def test_default_observables(self):
        assert tiny_config().observables == (
            "q1", "q2", "p1", "p2", "kinetic", "potential", "total",
        )

    def test_tau_reference_default_scales_with_epsilon(self):
        assert tiny_config().tau_reference_effective == pytest.approx(0.1 / 16)
        assert tiny_config(tau_reference=1e-3).tau_reference_effective == 1e-3

    @settings(max_examples=100, deadline=None)
    @given(epsilon=st.floats(1e-3, 1.0), stride=st.floats(1e-3, 10.0))
    def test_default_tau_reference_divides_stride(self, epsilon, stride):
        config = tiny_config(
            epsilon=epsilon, snapshot_stride=stride, t_final=stride,
            tau_flow=stride, tau_correction=stride,
        )
        tau = config.tau_reference_effective
        assert tau <= epsilon / 16 * (1 + 1e-12)
        assert step_count(stride, tau) >= 1

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(epsilon=0.0), "epsilon"),
            (dict(dimension=0, center=()), "dimension"),
            (dict(potential="morse"), "unknown potential"),
            (dict(center=(1.0, 0.5, 0.0)), "center"),
            (dict(n_samples=0), "n_samples"),
            (dict(n_correction=-1), "n_correction"),
            (dict(n_correction=65), "must not exceed"),
            (dict(tau_flow=0.0), "tau_flow"),
            (dict(t_final=-1.0), "t_final"),
            (dict(flow_order=3), "flow_order"),
            (dict(snapshot_stride=0.125), "multiple of tau_flow"),
            (dict(t_final=0.4), "whole number of snapshot strides"),
            (dict(tau_correction=0.2), "multiple of tau_correction"),
            (dict(grid_points=100), "power of two"),
            (dict(grid_hi=-4.0), "grid_hi"),
            (dict(sweep_axis="N0"), "sweep_axis"),
            (dict(observables=("q3",)), "out of range"),
            (dict(observables=("spin",)), "unknown observable"),
            (dict(halton_skip=-1), "halton_skip"),
            (dict(tau_reference=0.03), "multiple of tau_reference"),
            (dict(observables=("q1", "q1", "kinetic")), "must not repeat"),
            (dict(potential="harmonic", stiffness=(1.0, 2.0, 3.0)), "stiffness"),
            (dict(potential="harmonic", stiffness=(-1.0, 2.0)), "positive"),
            (dict(halton_skip=10**19), "halton_skip \\+ n_samples"),
            # A step longer than its stride rounds to zero whole steps.
            (dict(tau_flow=1e10), "multiple of tau_flow"),
            (dict(tau_correction=1e10), "multiple of tau_correction"),
            (dict(tau_reference=1e10), "multiple of tau_reference"),
            (dict(t_final=1e-12), "whole number of snapshot strides"),
            # A ratio that overflows to inf is no whole number.
            (dict(t_final=1e300, snapshot_stride=1e-10), "whole number of snapshot strides"),
            (dict(dimension=True, center=(1.0, 0.0)), "dimension must be a positive integer"),
            (dict(dimension=1.0, center=(1.0, 0.0)), "dimension must be a positive integer"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_last_halton_index_fits_int64(self):
        # The sampler's last index is halton_skip + n_samples, counted in int64.
        assert tiny_config(halton_skip=2**63 - 65).halton_skip == 2**63 - 65
        with pytest.raises(ValueError, match="halton_skip \\+ n_samples"):
            tiny_config(halton_skip=2**63 - 64)

    def test_correction_stride_unchecked_when_disabled(self):
        # tau_correction incommensurate with the stride is fine when no
        # correction trajectories run.
        config = tiny_config(n_correction=0, tau_correction=0.2)
        assert config.n_correction == 0

    def test_harmonic_stiffness_per_axis(self):
        # stiffness entries are the per-axis frequencies: V = sum w_j^2 q_j^2 / 2
        config = tiny_config(potential="harmonic", stiffness=(1.0, 2.0))
        pot = build_potential(config)
        assert pot.value(np.array([1.0, 1.0])) == pytest.approx(2.5)


class TestParseConfig:
    GOOD = """
    # packet
    epsilon = 0.1
    dimension = 2
    potential = torsional
    center = 1.0, 0.5, 0.0, 0.0

    n_samples = 64
    tau_flow = 0.05
    n_correction = 16
    tau_correction = 0.125
    t_final = 0.5
    snapshot_stride = 0.25
    observables = q1, total
    """

    def test_round_trip(self):
        config = parse_config(self.GOOD)
        assert config.epsilon == 0.1
        assert config.center == (1.0, 0.5, 0.0, 0.0)
        assert config.observables == ("q1", "total")
        assert config == tiny_config(observables=("q1", "total"))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_echo_round_trip(self, data):
        # The key=value text of the config's fields parses back to the same
        # config.
        row = data.draw(st.integers(1, 4))
        base = table_row_config(row)
        d, names = base.dimension, base.observables
        finite = st.floats(-1e3, 1e3)
        n_samples = data.draw(st.integers(1, 10**8))
        overrides = dict(
            epsilon=data.draw(st.floats(1e-3, 1.0)),
            center=tuple(data.draw(st.lists(finite, min_size=2 * d, max_size=2 * d))),
            n_samples=n_samples,
            n_correction=data.draw(st.integers(0, n_samples)),
            t_final=data.draw(st.integers(1, 40)) * 0.5,
            stiffness=tuple(data.draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=d))),
            observables=tuple(data.draw(
                st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)
            )),
            grid_points=2 ** data.draw(st.integers(1, 10)),
            grid_lo=data.draw(st.floats(-10.0, -0.5)),
            grid_hi=data.draw(st.floats(0.5, 10.0)),
            tau_reference=data.draw(st.sampled_from((0.0, 0.5, 0.125, 2.0**-10))),
            halton_skip=data.draw(st.integers(0, 10**4)),
            sweep_axis=data.draw(st.sampled_from(("", "epsilon", "N2", "tau2"))),
            sweep_values=tuple(data.draw(st.lists(finite, max_size=4))),
        )
        config = table_row_config(row, **overrides)
        lines = []
        for key, value in dataclasses.asdict(config).items():
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        assert parse_config("\n".join(lines)) == config

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2: unknown config key 'colour'"):
            parse_config("epsilon = 0.1\ncolour = blue\n")

    def test_duplicate_key(self):
        text = self.GOOD + "\nepsilon = 0.2\n"
        with pytest.raises(ValueError, match="duplicate config key 'epsilon'"):
            parse_config(text)

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required config keys"):
            parse_config("epsilon = 0.1\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_config("epsilon 0.1\n")

    def test_integer_keys_reject_fractions(self):
        text = self.GOOD.replace("n_samples = 64", "n_samples = 64.5")
        with pytest.raises(ValueError, match="expected an integer"):
            parse_config(text)

    @pytest.mark.parametrize("value", ["1e400", "inf", "-inf"])
    def test_integer_keys_reject_infinity(self, value):
        text = self.GOOD.replace("n_samples = 64", f"n_samples = {value}")
        with pytest.raises(ValueError, match="bad value for n_samples: expected an integer"):
            parse_config(text)

    @pytest.mark.parametrize("name", ["q01", "p007"])
    def test_observables_reject_non_canonical_index(self, name):
        text = self.GOOD.replace("observables = q1, total", f"observables = {name}, total")
        with pytest.raises(ValueError, match="write its index as"):
            parse_config(text)

    def test_scientific_notation_counts(self):
        text = self.GOOD.replace("n_samples = 64", "n_samples = 1e2")
        assert parse_config(text).n_samples == 100

    def test_integer_literal_read_exactly(self, tmp_path):
        # 2**63 - 65 is the last skip whose Halton index skip + n_samples
        # fits int64; read through float64 it would round to 2**63.
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD + "\nhalton_skip = 9223372036854775743\n")
        assert load_config(path).halton_skip == 2**63 - 65
        path.write_text(self.GOOD + "\nhalton_skip = 9223372036854775744\n")
        with pytest.raises(ValueError, match="halton_skip \\+ n_samples"):
            load_config(path)

    def test_halton_skip_in_float_form(self):
        assert parse_config(self.GOOD + "\nhalton_skip = 1e4\n").halton_skip == 10**4

    @pytest.mark.parametrize("value", ["1.5", "inf"])
    def test_halton_skip_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="bad value for halton_skip: expected an integer"):
            parse_config(self.GOOD + f"\nhalton_skip = {value}\n")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("center", "1.0, , 0.5, 0.0, 0.0"), ("center", "1.0, 0.5, 0.0, 0.0,"),
            ("observables", "q1,,p1"), ("observables", "q1, total,"),
            ("stiffness", ", 1.0"), ("sweep_values", "0.1,,0.2"),
        ],
    )
    def test_list_keys_reject_empty_items(self, key, value):
        # An empty item, one a trailing comma leaves included, is an error
        # on its line, not dropped.
        lines = [line for line in self.GOOD.splitlines() if line.split("=")[0].strip() != key]
        text = "\n".join(lines + [f"{key} = {value}"])
        match = f"line {len(lines) + 1}: bad value for {key}: empty item"
        with pytest.raises(ValueError, match=match):
            parse_config(text)

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD)
        assert load_config(path) == parse_config(self.GOOD)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epsilon", "nan"), ("epsilon", "inf"), ("center", "nan, 0.5, 0.0, 0.0"),
            ("tau_flow", "nan"), ("tau_correction", "inf"), ("tau_reference", "nan"),
            ("t_final", "inf"), ("snapshot_stride", "nan"), ("stiffness", "inf"),
            ("grid_lo", "-inf"), ("grid_hi", "nan"), ("sweep_values", "0.1, nan"),
        ],
    )
    def test_non_finite_values_exit_one(self, key, value, tmp_path, capsys):
        lines = [line for line in self.GOOD.splitlines() if line.split("=")[0].strip() != key]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err


class TestTableRowConfig:
    def test_shipped_rows(self):
        expected = {
            1: (0.1, 100_000, 0.1, 500, 0.25),
            2: (0.05, 1_000_000, 0.1, 1_000, 0.125),
            3: (0.02, 10_000_000, 0.1, 10_000, 0.03125),
            4: (0.01, 100_000_000, 0.1, 10_000, 0.03125),
        }
        for row, (eps, n0, tau0, n2, tau2) in expected.items():
            config = table_row_config(row)
            assert config.epsilon == eps
            assert config.n_samples == n0
            assert config.tau_flow == tau0
            assert config.n_correction == n2
            assert config.tau_correction == tau2
            assert config.potential == "torsional"
            assert config.center == (1.0, 0.5, 0.0, 0.0)

    def test_unknown_row(self):
        with pytest.raises(ValueError, match="row"):
            table_row_config(5)

    def test_overrides(self):
        config = table_row_config(1, t_final=5.0, n_samples=1000, n_correction=100)
        assert config.t_final == 5.0
        assert config.n_samples == 1000


class TestSnapshotTimes:
    def test_values(self):
        times = snapshot_times(tiny_config())
        np.testing.assert_allclose(times, [0.0, 0.25, 0.5])

    def test_includes_endpoints(self):
        config = tiny_config(t_final=1.0, snapshot_stride=0.25)
        times = snapshot_times(config)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert len(times) == 5


class TestRowsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ResultRow(0.0, "q1", egorov=1.0, correction=0.1, corrected=1.001),
            ResultRow(0.5, "total", egorov=0.59, reference=0.5901, err_egorov=1e-4),
        ]
        path = tmp_path / "results.csv"
        write_rows_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert read_rows_csv(path) == rows

    def test_none_cells_round_trip_empty(self, tmp_path):
        path = tmp_path / "results.csv"
        write_rows_csv([ResultRow(0.0, "q1")], path)
        assert ",q1,,,,,," in path.read_text()
        assert read_rows_csv(path)[0].egorov is None

    def test_write_csv_cells(self, tmp_path):
        # Strings as they are, None and absent columns empty, numbers by repr.
        path = tmp_path / "t.csv"
        experiments.write_csv(
            path, ("name", "x", "y", "z"),
            [{"name": "q1", "x": 1, "y": None}, {"name": "p1", "x": np.float64(0.1), "z": 2.5}],
        )
        assert path.read_text() == "name,x,y,z\nq1,1.0,,\np1,0.1,,2.5\n"
        assert CSV_HEADER == (
            "time,observable,egorov,correction,corrected,reference,err_egorov,err_corrected"
        )

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,observable,value\n0.0,q1,1.0\n")
        with pytest.raises(ValueError, match="unrecognized"):
            read_rows_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0.0,q1,1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_rows_csv(path)

    def test_file_mode_follows_umask(self, tmp_path):
        # The temporary file is renamed into place, so the table keeps the
        # mode a plain write would give it, not a private one.
        path = tmp_path / "table.csv"
        write_rows_csv([ResultRow(0.0, "q1", reference=0.5)], path)
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failure", ["row", "rename"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, failure):
        # The table goes to a temporary file that is renamed into place, so
        # a write that fails mid-way leaves nothing at the final path.
        class Unwritable:
            def __float__(self):
                raise OSError("disk full")

        path = tmp_path / "table.csv"
        rows = [ResultRow(0.0, "q1", reference=0.5), ResultRow(0.1, "q1", reference=0.25)]
        if failure == "row":
            rows[1] = ResultRow(0.1, "q1", reference=Unwritable())
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(experiments.os, "replace", refuse)
        with pytest.raises(OSError):
            write_rows_csv(rows, path)
        assert list(tmp_path.iterdir()) == []


class TestRunCorrected:
    def test_row_identity(self):
        rows = run_corrected(tiny_config())
        assert rows
        for row in rows:
            assert row.corrected == row.egorov + 0.1**2 * row.correction
            assert row.reference is None

    def test_initial_moments_match_qmc(self):
        config = tiny_config()
        rows = rows_by_key(run_corrected(config))
        packet = GaussianPacket(np.array(config.center), config.epsilon)
        points = sample_points(packet, config.n_samples, skip=64)
        assert rows[(0.0, "q1")].egorov == pytest.approx(
            points[:, 0].mean(), rel=1e-13
        )
        assert rows[(0.0, "p2")].egorov == pytest.approx(
            points[:, 3].mean(), rel=1e-13
        )

    def test_initial_correction_vanishes(self):
        rows = rows_by_key(run_corrected(tiny_config()))
        for name in ("q1", "p1", "total"):
            assert rows[(0.0, name)].correction == 0.0

    def test_correction_count_does_not_touch_transport(self):
        # Correction samples are a prefix of the same Halton stream, so
        # changing N2 must leave the transport column bitwise intact.
        a = run_corrected(tiny_config(n_correction=16))
        b = run_corrected(tiny_config(n_correction=8))
        for row_a, row_b in zip(a, b):
            assert row_a.egorov == row_b.egorov

    def test_run_egorov_degenerate(self):
        # N2 = 0 is plain transport: the correction is the empty sum 0.
        config = tiny_config()
        rows_plain = run_corrected(dataclasses.replace(config, n_correction=0))
        for row, row_full in zip(rows_plain, run_corrected(config), strict=True):
            assert row.correction == 0.0
            assert row.corrected == row.egorov == row_full.egorov

    def test_harmonic_transport_is_rotation(self):
        # Quadratic Hamiltonian: the transported expectation equals the
        # rotated center up to QMC error only.
        n = 4096
        config = tiny_config(
            dimension=1,
            potential="harmonic",
            center=(1.0, 0.0),
            n_samples=n,
            n_correction=0,
            tau_flow=0.1,
            t_final=1.0,
            snapshot_stride=0.5,
        )
        rows = rows_by_key(run_corrected(config))
        bound = 3.0 * np.sqrt(config.epsilon / 2.0) / np.sqrt(n)
        for t in (0.5, 1.0):
            assert abs(rows[(t, "q1")].egorov - np.cos(t)) < bound
            assert abs(rows[(t, "p1")].egorov + np.sin(t)) < bound

    def test_one_thread_runs_inline(self, monkeypatch):
        # With one thread, the default, the chunks run in the caller, where
        # profilers see them; no worker process is forked.
        _refuse_fork(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        assert run_corrected(tiny_config(), threads=1)
        assert run_corrected(tiny_config())
        assert cli._build_parser().parse_args(["run", "--config", "run.cfg"]).threads == 1

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.integers(3, 40),
        n_samples=st.integers(1, 64),
        n_correction=st.integers(0, 64),
        threads=st.integers(2, 4),
    )
    def test_csv_bytes_identical_across_threads(self, chunk, n_samples, n_correction, threads):
        # Shrink the chunk size so several chunks exist, with the pool larger
        # or smaller than the chunk count; the pairwise reduction must give
        # the inline run's bytes.
        config = tiny_config(n_samples=n_samples, n_correction=min(n_correction, n_samples))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "CHUNK_SIZE", chunk)
            one, many = (
                _csv_bytes(run_corrected(config, threads=count)) for count in (1, threads)
            )
        assert one == many

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**6))
    def test_chunk_ranges_are_even_and_cover(self, n):
        ranges = experiments._chunk_ranges(n)
        assert len(ranges) == -(-n // experiments.CHUNK_SIZE)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - start for start, stop in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_correction_children_reaped_before_transport_forks(self, monkeypatch):
        # At two workers each ensemble forks one child, which runs its odd
        # chunks while this process runs the even ones, from chunk 0.  The
        # correction's child is reaped before the transport's is forked, so
        # the two ensembles never run side by side.
        events = []
        _recording_forks(monkeypatch, events, cpus=2)
        _recording_chunks(monkeypatch, events)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        config = tiny_config(n_samples=64, n_correction=16)
        expected = _csv_bytes(run_corrected(config, threads=1))
        del events[:]
        assert _csv_bytes(run_corrected(config, threads=2)) == expected
        kinds = [event if isinstance(event, str) else event[0] for event in events]
        assert kinds == ["fork", *["correction"] * 2, "reap", "fork", *["transport"] * 5, "reap"]
        pids = [event for event in events if isinstance(event, tuple)]
        assert [pid for kind, pid in pids if kind == "fork"] == [
            pid for kind, pid in pids if kind == "reap"
        ]
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "cpus, threads, n_samples, n_correction, forks",
        [(8, 4, 7, 0, 0), (8, 5, 21, 0, 2), (2, 4, 64, 0, 1), (8, 3, 21, 14, 3)],
        ids=["no-correction-chunks", "threads-above-chunks", "threads-above-cpus",
             "both-ensembles"],
    )
    def test_children_per_ensemble(
        self, monkeypatch, cpus, threads, n_samples, n_correction, forks
    ):
        # Each ensemble forks min(threads, chunks, usable CPUs) - 1 children:
        # an ensemble of no chunks (N2 = 0) or of one forks none.  The rows
        # keep the inline run's bytes.
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        config = tiny_config(n_samples=n_samples, n_correction=n_correction)
        expected = _csv_bytes(run_corrected(config, threads=1))
        events = []
        _recording_forks(monkeypatch, events, cpus)
        assert _csv_bytes(run_corrected(config, threads=threads)) == expected
        assert sum(event[0] == "fork" for event in events) == forks
        _assert_no_child_left()

    def test_without_fork_maps_inline(self, monkeypatch):
        # A platform without os.fork runs every chunk in the caller, with the
        # same bytes.
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        config = tiny_config(n_samples=64, n_correction=16)
        expected = _csv_bytes(run_corrected(config, threads=1))
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert _csv_bytes(run_corrected(config, threads=4)) == expected

    @pytest.mark.parametrize("error, code", [(ValueError, 1), (RuntimeError, 2)])
    def test_child_exception_keeps_its_type(self, monkeypatch, tmp_path, capsys, error, code):
        # A transport chunk that raises in a child raises the same type in
        # run_corrected, so `egorov run` exits as if it had raised inline, and
        # no child is left behind.
        parent = os.getpid()
        original = experiments._egorov_chunk_sums

        def refused_in_child(*args):
            if os.getpid() != parent:
                raise error("chunk refused in a worker")
            return original(*args)

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "_egorov_chunk_sums", refused_in_child)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        config = tiny_config(n_samples=14, n_correction=0)
        with pytest.raises(error, match="chunk refused in a worker"):
            run_corrected(config, threads=2)
        _assert_no_child_left()
        path = tmp_path / "run.cfg"
        path.write_text(
            "epsilon = 0.1\ndimension = 2\npotential = torsional\n"
            "center = 1.0, 0.5, 0.0, 0.0\nn_samples = 14\ntau_flow = 0.05\n"
            "n_correction = 0\ntau_correction = 0.125\nt_final = 0.5\n"
            "snapshot_stride = 0.25\n"
        )
        assert load_config(path) == config
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--threads", "2"]) == code
        assert "chunk refused in a worker" in capsys.readouterr().err
        assert not out.exists()
        _assert_no_child_left()

    def test_child_killed_without_result_raises(self, monkeypatch):
        # A child that dies before it sends its sums, here by SIGKILL, is a
        # RuntimeError that names the signal.
        parent = os.getpid()
        original = experiments._egorov_chunk_sums

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "_egorov_chunk_sums", killed_in_child)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        with pytest.raises(RuntimeError, match=f"killed by signal {int(signal.SIGKILL)}"):
            run_corrected(tiny_config(n_samples=14, n_correction=0), threads=2)
        _assert_no_child_left()

    def test_children_reaped_when_this_process_raises(self, monkeypatch):
        # When the caller's own share raises, its children are reaped before
        # the exception leaves run_corrected.
        parent = os.getpid()
        original = experiments._egorov_chunk_sums

        def refused_here(*args):
            if os.getpid() == parent:
                raise ValueError("chunk refused in the caller")
            return original(*args)

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(experiments, "_egorov_chunk_sums", refused_here)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        with pytest.raises(ValueError, match="chunk refused in the caller"):
            run_corrected(tiny_config(n_samples=21, n_correction=0), threads=3)
        _assert_no_child_left()

    def test_chunks_pass_observers_positionally(self, monkeypatch):
        # Wrappers that forward positional arguments alone, as the sweep
        # test's counter and the benchmark tracer's do, see every snapshot
        # call with its observer, and the rows keep their bytes.
        config = tiny_config()
        expected = _csv_bytes(run_corrected(config))
        calls = []
        for name in ("propagate_snapshots", "evolve_correction_snapshots"):

            def positional(*args, _original=getattr(experiments, name), _name=name):
                calls.append((_name, len(args), callable(args[-1])))
                return _original(*args)

            monkeypatch.setattr(experiments, name, positional)
        assert _csv_bytes(run_corrected(config)) == expected
        assert sorted(set(calls)) == [
            ("evolve_correction_snapshots", 5, True), ("propagate_snapshots", 6, True),
        ]

    @pytest.mark.parametrize("kind", ["transport", "correction"])
    def test_chunk_peak_does_not_grow_with_snapshots(self, kind):
        # numpy reports its buffers to tracemalloc.  A chunk reduces each
        # snapshot as its run reaches it, so its peak at 41 snapshots stays
        # within one snapshot's bytes of its peak at 11.
        n, d = 2000, 2
        config = tiny_config(n_samples=n, n_correction=n, tau_flow=0.05, tau_correction=0.05)
        chunk_fn, snapshot_bytes = {
            "transport": (experiments._egorov_chunk_sums, n * 2 * d * 8),
            "correction": (experiments._correction_chunk_sums, 16 * n * d * 8),
        }[kind]
        potential = build_potential(config)
        observables = [experiments.make_observable(name, potential) for name in config.observables]

        def peak(count):
            times = [0.05 * i for i in range(count)]
            chunk_fn(config, potential, observables, times, 0, n)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                sums = chunk_fn(config, potential, observables, times, 0, n)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sums.shape == (count, len(observables))
            return top - before

        short, long = peak(11), peak(41)
        assert long <= short + snapshot_bytes, (short, long, snapshot_bytes)

    def test_run_path_builds_no_dense_tensor(self, monkeypatch):
        # The correction reads the potential's diagonals and the
        # observables' block diagonals only: with every dense derivative
        # tensor refused, the rows keep their bytes.
        configs = [
            tiny_config(),
            tiny_config(potential="harmonic", stiffness=(1.0, 2.0)),
            tiny_config(dimension=1, potential="free", center=(0.5, 0.25)),
        ]
        expected = [repr(run_corrected(config, threads=1)) for config in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("a dense derivative tensor was built")

        for name in ("hessian", "third", "fourth"):
            monkeypatch.setattr(Potential, name, refuse)
        for module in (potentials, observables):
            monkeypatch.setattr(module, "scatter_diagonals", refuse)
        for config, rows in zip(configs, expected):
            assert repr(run_corrected(config, threads=1)) == rows

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_thread_count_rejected_before_sampling(self, monkeypatch, threads):
        def no_sampling(*args):
            raise AssertionError("sampled before checking --threads")

        monkeypatch.setattr(experiments, "sample_points", no_sampling)
        with pytest.raises(ValueError, match="--threads"):
            run_corrected(tiny_config(), threads=threads)


class TestRunReference:
    def test_rows_carry_reference_only(self):
        config = tiny_config(
            dimension=1,
            center=(1.0, 0.0),
            grid_points=64,
            tau_reference=0.01,
            t_final=0.2,
            snapshot_stride=0.1,
            tau_flow=0.05,
            tau_correction=0.025,
        )
        rows = run_reference(config)
        assert {row.observable for row in rows} == set(config.observables)
        for row in rows:
            assert row.egorov is None and row.corrected is None
            assert row.reference is not None
        by_key = rows_by_key(rows)
        assert by_key[(0.0, "q1")].reference == pytest.approx(1.0, abs=1e-10)

    def test_default_step_divides_any_stride(self):
        # eps/800 = 8.75e-5 does not divide the stride 0.5; the default step
        # 0.5/115 does.
        config = tiny_config(
            epsilon=0.07, snapshot_stride=0.5, t_final=0.5, grid_points=64,
        )
        rows = rows_by_key(run_reference(config))
        assert rows[(0.0, "q1")].reference == pytest.approx(1.0, abs=1e-10)
        assert np.isfinite(rows[(0.5, "q1")].reference)


class TestCompare:
    def test_self_comparison_is_zero(self):
        rows = run_corrected(tiny_config())
        merged, summaries = compare(rows, rows)
        for row in merged:
            assert row.err_egorov == 0.0
            assert row.err_corrected == 0.0
        for summary in summaries:
            assert summary["max_err_corrected"] == 0.0

    def test_reference_fallback_and_summary_stats(self):
        rows_a = [
            ResultRow(0.0, "q1", egorov=1.0, corrected=1.5),
            ResultRow(1.0, "q1", egorov=2.0, corrected=2.5),
        ]
        rows_b = [
            ResultRow(0.0, "q1", reference=1.0),
            ResultRow(1.0, "q1", reference=1.0),
        ]
        merged, summaries = compare(rows_a, rows_b)
        assert [row.err_egorov for row in merged] == [0.0, 1.0]
        assert [row.err_corrected for row in merged] == [0.5, 1.5]
        assert merged[0].reference == 1.0
        (summary,) = summaries
        assert summary["mean_err_egorov"] == 0.5
        assert summary["max_err_egorov"] == 1.0
        assert summary["mean_err_corrected"] == 1.0
        assert summary["max_err_corrected"] == 1.5

    def test_rejects_duplicate_rows(self):
        row = ResultRow(0.0, "q1", egorov=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            compare([row, row], [row])

    def test_rejects_mismatched_grids(self):
        rows_a = [ResultRow(0.0, "q1", egorov=1.0)]
        rows_b = [ResultRow(0.5, "q1", egorov=1.0)]
        with pytest.raises(ValueError, match="differ"):
            compare(rows_a, rows_b)


class TestSweepHelpers:
    def test_epsilon_axis_rescales_sample_counts(self):
        config = tiny_config(n_samples=1000, n_correction=10)
        smaller = _config_for_value(config, "epsilon", 0.05)
        assert smaller.epsilon == 0.05
        assert smaller.n_samples == 4000
        assert smaller.n_correction == 40

    def test_n2_axis_requires_integers(self):
        with pytest.raises(ValueError, match="integer"):
            _config_for_value(tiny_config(), "N2", 12.5)
        assert _config_for_value(tiny_config(), "N2", 8.0).n_correction == 8

    def test_tau2_axis(self):
        assert _config_for_value(tiny_config(), "tau2", 0.0625).tau_correction == 0.0625

    def test_loglog_slope(self):
        xs = [1.0, 2.0, 4.0]
        assert _loglog_slope(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert _loglog_slope(xs, [1.0, None, None]) is None
        assert _loglog_slope(xs, [0.0, 0.0, 0.0]) is None

    def test_loglog_slope_skips_nonpositive_values(self):
        # An N2 sweep may include 0; log(0) must not reach the fit.
        xs = [0.0, 1.0, 2.0, 4.0]
        assert _loglog_slope(xs, [5.0] + [x**-0.5 for x in xs[1:]]) == pytest.approx(-0.5)
        assert _loglog_slope([0.0, 1.0], [1.0, 1.0]) is None


class TestSweep:
    def test_validation(self):
        config = tiny_config()
        with pytest.raises(ValueError, match="axis"):
            sweep(config, "N0", [1.0])
        with pytest.raises(ValueError, match="at least one"):
            sweep(config, "tau2", [])
        with pytest.raises(ValueError, match="sorted"):
            sweep(config, "tau2", [0.25, 0.125])

    @pytest.mark.parametrize(
        "axis,values,message",
        [
            ("N2", [8.0, 16.0, 1000.0], "must not exceed"),
            ("tau2", [0.0625, 0.125, 0.2], "multiple of tau_correction"),
            # Equal values would leave the log-log fit rank-deficient.
            ("N2", [4.0, 4.0], "strictly ascending"),
            # A step longer than the stride is no whole fraction of it.
            ("tau2", [0.125, 1e10], "multiple of tau_correction"),
        ],
    )
    def test_every_value_checked_before_any_run(self, monkeypatch, axis, values, message):
        # A bad last value fails the sweep before the grid reference or the
        # first values run.
        def boom(*a, **k):
            raise AssertionError("ran before every value was checked")

        monkeypatch.setattr(experiments, "run_reference", boom)
        with pytest.raises(ValueError, match=message):
            sweep(tiny_config(), axis, values)

    def test_single_value_equals_run_plus_compare(self):
        config = tiny_config()
        baseline = run_corrected(tiny_config(tau_correction=0.0625))
        result = sweep(config, "tau2", [0.125], baseline_rows=baseline)
        _, summaries = compare(run_corrected(config), baseline)
        expected = {s["observable"]: s for s in summaries}
        assert result.values == (0.125,)
        for row in result.rows:
            assert row["value"] == 0.125
            for key in ("mean_err_corrected", "max_err_corrected"):
                assert row[key] == expected[row["observable"]][key]
        # a single point cannot support a slope fit
        for slope in result.slopes:
            assert slope["slope_max_corrected"] is None

    @pytest.mark.parametrize(
        "axis,values,propagations",
        [("tau2", [0.0625, 0.125], 1), ("N2", [8.0, 16.0], 1), ("epsilon", [0.1, 0.2], 2)],
    )
    def test_transport_computed_once_unless_epsilon_moves(
        self, monkeypatch, axis, values, propagations
    ):
        # The N0 transport mean depends on the packet and N0, which only the
        # epsilon axis changes; every value's rows match its own full run.
        config = tiny_config()
        baseline = run_corrected(tiny_config(tau_correction=0.0625))
        expected = [
            summary
            for value in values
            for summary in compare(
                run_corrected(_config_for_value(config, axis, value)), baseline
            )[1]
        ]
        calls = []
        original = experiments.propagate_snapshots

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "propagate_snapshots", counted)
        result = sweep(config, axis, values, baseline_rows=baseline)
        assert len(calls) == propagations
        assert [
            {k: v for k, v in row.items() if k not in ("axis", "value")}
            for row in result.rows
        ] == expected

    def test_reused_transport_maps_only_correction_chunks(self, monkeypatch):
        # The first value runs both ensembles, the others only the
        # correction; a sweep maps its chunks inline, forking no worker.
        baseline = run_corrected(tiny_config(tau_correction=0.0625))
        calls = []
        _refuse_fork(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 7)
        _recording_chunks(monkeypatch, calls)
        sweep(tiny_config(), "tau2", [0.0625, 0.125, 0.25], baseline_rows=baseline)
        assert calls == [*["correction"] * 3, *["transport"] * 10, *["correction"] * 6]

    def test_epsilon_references_computed_before_any_sampling(self, monkeypatch):
        # Along epsilon each value has its own reference, and every one is
        # computed before the first ensemble: a value the grid cannot
        # resolve fails the sweep before a single point is sampled.
        def no_sampling(*args):
            raise AssertionError("sampled before every reference was computed")

        monkeypatch.setattr(experiments, "sample_points", no_sampling)
        config = tiny_config(dimension=1, center=(1.0, 0.0), grid_points=64)
        with pytest.raises(ValueError, match="not resolved by the grid"):
            sweep(config, "epsilon", [0.001, 0.1])

    def test_sweep_csv_layout(self, tmp_path):
        config = tiny_config(observables=("q1",))
        baseline = run_corrected(tiny_config(observables=("q1",), tau_correction=0.03125))
        result = sweep(config, "tau2", [0.0625, 0.125], baseline_rows=baseline)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value,observable")
        # one row per (value, observable) plus one slope row per observable
        assert len(lines) == 1 + 2 + 1
        assert lines[1].startswith("tau2,0.0625,q1,")
        assert lines[-1].split(",")[-1] != ""


class TestMetadata:
    def test_metadata_holds_timestamp_and_config(self, tmp_path):
        config = tiny_config()
        write_metadata(tmp_path, config, {"run": 1.25})
        payload = json.loads((tmp_path / "metadata.json").read_text())
        assert payload["elapsed_seconds"]["run"] == 1.25
        assert payload["config"]["epsilon"] == 0.1
        assert payload["config"]["center"] == [1.0, 0.5, 0.0, 0.0]
        assert "created_utc" in payload

    def test_results_csv_carries_no_timestamp(self, tmp_path):
        rows = run_corrected(tiny_config(observables=("q1",)))
        write_rows_csv(rows, tmp_path / "a.csv")
        write_rows_csv(rows, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSelftest:
    def test_battery_passes(self):
        results = checks.selftest()
        failures = [r for r in results if not r.passed]
        assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
        assert len(results) == 8

    def test_sign_mutation_detected(self, monkeypatch):
        # Flip the sign of one coupling of the production sub-flows: the gam3
        # increment of psi3, driven by the w3:Lambda contraction and the
        # second-derivative terms.  The comparison with the general form
        # must fail.  The sub-flow updates in place, so the state is copied
        # first, and the flip is written into the live row.
        original = correction_mod.sub_flow_psi3

        def flipped(t, state, potential, scratch=None):
            before = state.copy()
            out = original(t, state, potential, scratch)
            out.gam3[...] = 2.0 * before.gam3 - out.gam3
            return out

        monkeypatch.setattr(correction_mod, "sub_flow_psi3", flipped)
        assert not checks.run_check("block-general-equivalence").passed

    def test_symmetry_input_is_exactly_symmetric(self):
        # The check's input tensors are symmetric to the bit, and tilde_d3
        # and apply_J_triple keep them so: the gap is the maps' own, zero.
        assert checks.symmetry_preservation() == {"gap": 0.0}

    def test_mode_product_mutation_detected(self, monkeypatch):
        # Write the diagonal one index off in the scatter that builds every
        # dense tensor ((j, j, j + 1) instead of (j, j, j)); criterion 7's
        # vectorization check must see it.
        def shifted(blocks, out):
            for v in blocks.values():
                idx = np.arange(v.shape[-1])
                out[..., idx, idx, np.roll(idx, -1)] = v
            return out

        monkeypatch.setattr(potentials, "scatter_diagonals", shifted)
        assert not checks.run_check("vectorization-identities").passed


class TestCli:
    CONFIG = """
    epsilon = 0.1
    dimension = 1
    potential = torsional
    center = 1.0, 0.0
    n_samples = 64
    tau_flow = 0.05
    n_correction = 16
    tau_correction = 0.025
    t_final = 0.2
    snapshot_stride = 0.1
    grid_points = 64
    tau_reference = 0.01
    """

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CONFIG)
        return path

    def test_run_command(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert "results.csv" in capsys.readouterr().out
        rows = read_rows_csv(out / "results.csv")
        assert rows
        assert json.loads((out / "metadata.json").read_text())["config"]["n_samples"] == 64

    def test_run_metadata_counts_transport_work(self, config_file, tmp_path, monkeypatch):
        # N0 x steps x stages = 64 x 4 x 15, and it equals the sample rows
        # the transport hands to the potential's kick, which evaluates the
        # force (no correction samples here, and the correction reads its
        # force from the diagonals anyway).
        config_file.write_text(self.CONFIG.replace("n_correction = 16", "n_correction = 0"))
        rows = []
        original = TorsionalPotential.kick

        def counted(self, t, q, p, scratch=None):
            rows.append(np.shape(q)[0])
            return original(self, t, q, p, scratch)

        monkeypatch.setattr(TorsionalPotential, "kick", counted)
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 30)
        out = tmp_path / "out"
        args = ["run", "--config", str(config_file), "--out", str(out), "--threads", "1"]
        assert cli.main(args) == 0
        metadata = json.loads((out / "metadata.json").read_text())
        transport = metadata["transport"]
        assert transport == {
            "order": 8, "stages_per_step": 15, "steps": 4, "force_evaluations": 3840,
            "chunks": 3,
        }
        assert sum(rows) == transport["force_evaluations"]
        # Three chunks of 21, 21 and 22 samples reach the kicks.
        assert sorted(set(rows)) == [21, 22]
        assert metadata["correction"] == {"samples": 0, "steps": 0, "chunks": 0}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_run_metadata_times_each_ensemble(self, config_file, tmp_path, threads):
        # The two ensembles run one after the other, so each has its own wall
        # time; both lie within the run's, and the table keeps its bytes.
        out = tmp_path / "out"
        args = ["run", "--config", str(config_file), "--out", str(out), "--threads", threads]
        assert cli.main(args) == 0
        elapsed = json.loads((out / "metadata.json").read_text())["elapsed_seconds"]
        assert sorted(elapsed) == ["correction", "run", "transport"]
        assert 0.0 < elapsed["correction"] and 0.0 < elapsed["transport"]
        assert elapsed["correction"] + elapsed["transport"] <= elapsed["run"]
        write_rows_csv(
            run_corrected(load_config(config_file), threads=int(threads)), tmp_path / "direct.csv"
        )
        assert (out / "results.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_run_without_correction_writes_both_files(self, tmp_path):
        # With N2 = 0 no correction step runs, so a tau_correction that does
        # not divide the stride is never used: the run writes its results and
        # its metadata, which counts no correction step.
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "epsilon = 0.1\ndimension = 2\npotential = torsional\n"
            "center = 1.0, 0.5, 0.0, 0.0\nn_samples = 200\ntau_flow = 0.1\n"
            "n_correction = 0\ntau_correction = 0.3\nt_final = 1\n"
            "snapshot_stride = 0.5\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["metadata.json", "results.csv"]
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["correction"] == {"samples": 0, "steps": 0, "chunks": 0}

    def test_reference_compare_pipeline(self, config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        ref_dir = tmp_path / "ref"
        cmp_dir = tmp_path / "cmp"
        assert cli.main(["run", "--config", str(config_file), "--out", str(run_dir)]) == 0
        assert cli.main(["reference", "--config", str(config_file), "--out", str(ref_dir)]) == 0
        code = cli.main([
            "compare",
            str(run_dir / "results.csv"),
            str(ref_dir / "reference.csv"),
            "--out", str(cmp_dir),
        ])
        assert code == 0
        assert (cmp_dir / "errors.csv").exists()
        summary = (cmp_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("observable,")
        assert len(summary) == 6  # q1, p1, kinetic, potential, total
        assert "corrected" in capsys.readouterr().out

    def test_sweep_command(self, config_file, tmp_path, capsys):
        text = self.CONFIG + "sweep_axis = tau2\nsweep_values = 0.025, 0.05\n"
        config_file.write_text(text)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert "slope" in capsys.readouterr().out
        # One run entry per value; the second reuses the first's transport,
        # so it times the correction alone.
        metadata = json.loads((out / "metadata.json").read_text())
        assert "transport" not in metadata
        seconds = [run.pop("elapsed_seconds") for run in metadata["runs"]]
        assert [sorted(entry) for entry in seconds] == [["correction", "transport"], ["correction"]]
        assert all(value > 0.0 for entry in seconds for value in entry.values())
        assert sum(value for entry in seconds for value in entry.values()) <= (
            metadata["elapsed_seconds"]["sweep"]
        )
        first, second = (
            _config_for_value(load_config(config_file), "tau2", value) for value in (0.025, 0.05)
        )
        assert metadata["runs"] == [
            {"value": 0.025, "correction": experiments.correction_metadata(first),
             "transport": experiments.transport_metadata(first)},
            {"value": 0.05, "correction": experiments.correction_metadata(second)},
        ]

    def test_sweep_command_metadata_along_epsilon(self, config_file, tmp_path):
        # Along epsilon every value runs its own transport, with N0 and N2
        # scaled by (0.1 / value)^2, and its run entry counts that work.
        config_file.write_text(self.CONFIG + "sweep_axis = epsilon\nsweep_values = 0.05, 0.1\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        runs = json.loads((out / "metadata.json").read_text())["runs"]
        assert [run["value"] for run in runs] == [0.05, 0.1]
        for run in runs:
            assert sorted(run["elapsed_seconds"]) == ["correction", "transport"]
            config = _config_for_value(load_config(config_file), "epsilon", run["value"])
            assert run["correction"] == experiments.correction_metadata(config)
            assert run["transport"] == experiments.transport_metadata(config)
        assert [run["correction"]["samples"] for run in runs] == [64, 16]
        assert runs[0]["transport"]["force_evaluations"] == 4 * runs[1]["transport"][
            "force_evaluations"
        ]

    def test_sweep_along_n2_through_zero(self, config_file, tmp_path):
        # N2 = 0 is plain transport; the slope fit skips it instead of
        # taking log(0).
        config_file.write_text(self.CONFIG + "sweep_axis = N2\nsweep_values = 0, 8, 16\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 5 + 5
        for line in lines[-5:]:
            assert all(np.isfinite(float(cell)) for cell in line.split(",")[-2:])

    def test_benchmark_tracer_wraps_live_names(self, config_file, tmp_path, monkeypatch):
        # benchmark/tracing.py wraps program names by attribute; removing or
        # renaming one of them breaks `benchmark/run.py --trace 1`.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
        import tracing

        owners = [
            cli, experiments, reference, correction_mod, egorov.flow,
            TorsionalPotential, reference.WaveFunctionGrid,
        ]
        before = [dict(vars(owner)) for owner in owners]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            patched = [
                name for owner, names in zip(owners, before)
                for name, value in names.items() if vars(owner)[name] is not value
            ]
            run = cli.main(["run", "--config", str(config_file),
                            "--out", str(tmp_path / "run"), "--threads", "1"])
            ref = cli.main(["reference", "--config", str(config_file),
                            "--out", str(tmp_path / "ref")])
        finally:
            tracer.remove()
        assert run == ref == 0
        assert {"load_config", "write_rows_csv", "drift", "kick", "expectation"} <= set(patched)
        for owner, names in zip(owners, before):
            assert all(vars(owner).get(name) is value for name, value in names.items())
        metrics = tracer.layer_metrics()
        for name in ("flow.propagate_snapshots_s", "correction.evolve_correction_snapshots_s",
                     "flow.drift_calls", "flow.kick_calls", "reference.fftn_calls",
                     "correction.sub_flow_psi1_calls", "correction.sub_flow_psi2_calls",
                     "correction.sub_flow_psi3_calls", "correction.a2_eval_calls"):
            assert metrics[name][0] > 0, name

    def test_sweep_without_axis_fails_validation(self, config_file, tmp_path, capsys):
        code = cli.main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_threads_exits_one(self, config_file, tmp_path, capsys):
        args = ["run", "--config", str(config_file), "--out", str(tmp_path / "o"), "--threads", "0"]
        assert cli.main(args) == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize(
        "command, extra, flags",
        [
            ("run", "", ["--threads", "0"]),
            ("sweep", "sweep_axis = N2\nsweep_values = 8, 16, 1000\n", []),
            ("sweep", "sweep_axis = N2\nsweep_values = 4, 4\n", []),
        ],
        ids=["run-threads-0", "sweep-N2-out-of-range", "sweep-N2-repeated"],
    )
    def test_rejected_command_leaves_no_out_dir(
        self, command, extra, flags, config_file, tmp_path, capsys
    ):
        # The --out directory is made when the first file is written, so a
        # command rejected before that leaves nothing behind.
        config_file.write_text(self.CONFIG + extra)
        out = tmp_path / "rejected"
        assert cli.main([command, "--config", str(config_file), "--out", str(out), *flags]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_run_into_nested_new_out_dir(self, config_file, tmp_path):
        out = tmp_path / "a" / "b"
        assert cli.main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert read_rows_csv(out / "results.csv")

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon = 0.1\ncolour = blue\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_output_dir_key_is_unknown(self, config_file, tmp_path, capsys):
        # --out is the one way to name the output directory.
        config_file.write_text(self.CONFIG + "output_dir = elsewhere\n")
        code = cli.main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config key 'output_dir'" in capsys.readouterr().err

    def test_out_defaults_to_results(self, config_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", str(config_file)]) == 0
        assert read_rows_csv(tmp_path / "results" / "results.csv")

    def test_incommensurate_tau_reference_exits_one(self, config_file, tmp_path, capsys):
        config_file.write_text(self.CONFIG.replace("tau_reference = 0.01", "tau_reference = 0.03"))
        code = cli.main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "tau_reference" in capsys.readouterr().err

    def test_commands_write_only_their_tables(self, config_file, tmp_path):
        # A reference is recomputed, never stored: a second `egorov reference`
        # into the same --out writes the same bytes, and neither it nor
        # `egorov sweep` leaves anything beside its table and metadata.
        out = tmp_path / "ref"
        args = ["reference", "--config", str(config_file), "--out", str(out)]
        assert cli.main(args) == 0
        first = (out / "reference.csv").read_bytes()
        assert cli.main(args) == 0
        assert (out / "reference.csv").read_bytes() == first
        assert sorted(path.name for path in out.iterdir()) == ["metadata.json", "reference.csv"]
        config_file.write_text(self.CONFIG + "sweep_axis = tau2\nsweep_values = 0.025, 0.05\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["metadata.json", "sweep.csv"]

    def test_unresolved_packet_writes_no_reference(self, tmp_path, capsys):
        # Row 1's packet at eps = 1e-300 samples to zero on the grid.  The
        # command fails instead of writing a table of NaN.
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "epsilon = 1e-300\ndimension = 2\npotential = torsional\n"
            "center = 1.0, 0.5, 0.0, 0.0\nn_samples = 64\ntau_flow = 0.25\n"
            "n_correction = 16\ntau_correction = 0.25\nt_final = 0.5\n"
            "snapshot_stride = 0.25\ntau_reference = 0.25\n"
        )
        out = tmp_path / "ref"
        code = cli.main(["reference", "--config", str(config_file), "--out", str(out)])
        assert code != 0
        assert "not resolved by the grid" in capsys.readouterr().err
        assert not (out / "reference.csv").exists()

    def test_overflowing_default_reference_step_exits_one(self, tmp_path, capsys):
        # At eps = 1e-300 and a stride of 1e10 the default reference step,
        # stride / ceil(16 stride / eps), does not exist.  `reference` exits
        # 1 and makes no --out; `run`, which needs no reference, still works.
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "epsilon = 1e-300\ndimension = 1\npotential = torsional\n"
            "center = 1.0, 0.0\nn_samples = 64\ntau_flow = 1e10\n"
            "n_correction = 16\ntau_correction = 1e10\nt_final = 1e10\n"
            "snapshot_stride = 1e10\n"
        )
        out = tmp_path / "ref"
        code = cli.main(["reference", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert "error: 16 * snapshot_stride / epsilon overflows" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["run", "--config", str(config_file), "--out", str(tmp_path / "run")]) == 0

    def test_packet_narrower_than_grid_writes_no_reference(self, tmp_path, capsys):
        # Row 1's packet at eps = 1e-5 is far narrower than the 256-point
        # grid's spacing: its sampled norm misses one, and the command exits 1
        # instead of writing a table that starts away from the packet.
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "epsilon = 1e-5\ndimension = 2\npotential = torsional\n"
            "center = 1.0, 0.5, 0.0, 0.0\nn_samples = 64\ntau_flow = 0.25\n"
            "n_correction = 16\ntau_correction = 0.25\nt_final = 0.5\n"
            "snapshot_stride = 0.25\ntau_reference = 0.25\n"
        )
        out = tmp_path / "ref"
        code = cli.main(["reference", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert "not resolved by the grid" in capsys.readouterr().err
        assert not (out / "reference.csv").exists()

    def test_reference_metadata_names_scheme_and_step(self, config_file, tmp_path):
        out = tmp_path / "ref"
        assert cli.main(["reference", "--config", str(config_file), "--out", str(out)]) == 0
        entry = json.loads((out / "metadata.json").read_text())["reference"]
        scheme = {key: entry[key] for key in ("scheme", "tau", "steps")}
        assert scheme == {"scheme": reference.SCHEME, "tau": 0.01, "steps": 20}
        # The metadata goes beside the table, never into it.
        write_rows_csv(run_reference(load_config(config_file)), tmp_path / "direct.csv")
        assert (out / "reference.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_reference_metadata_records_the_monitor_maxima(self, config_file, tmp_path):
        # The largest norm drift, boundary mass and Fourier-shell weight seen
        # over the snapshots, each finite and inside the tolerance it is
        # checked against, on a 2-D torsional packet.
        config_file.write_text(
            self.CONFIG.replace("dimension = 1", "dimension = 2")
            .replace("center = 1.0, 0.0", "center = 1.0, 0.5, 0.0, 0.0")
        )
        out = tmp_path / "ref"
        assert cli.main(["reference", "--config", str(config_file), "--out", str(out)]) == 0
        entry = json.loads((out / "metadata.json").read_text())["reference"]
        tolerances = {"max_norm_drift": 1e-10, "max_boundary_mass": 1e-8,
                      "max_fourier_shell": 1e-6}
        for key, tol in tolerances.items():
            assert np.isfinite(entry[key]) and 0.0 <= entry[key] <= tol, key
        # Nothing of them goes into the table.
        write_rows_csv(run_reference(load_config(config_file)), tmp_path / "direct.csv")
        assert (out / "reference.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, config_file, tmp_path, monkeypatch, capsys):
        def tripped(config, monitors=None):
            raise RuntimeError("boundary mass 3.1e-07 at t=0.2")

        monkeypatch.setattr(cli, "run_reference", tripped)
        code = cli.main(["reference", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numerical check failed" in capsys.readouterr().err

    def test_selftest_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            checks, "selftest", lambda: [checks.CheckResult("ok", True, "fine")]
        )
        assert cli.main(["selftest"]) == 0
        assert "PASS ok" in capsys.readouterr().out
        monkeypatch.setattr(
            checks, "selftest", lambda: [checks.CheckResult("broken", False, "boom")]
        )
        assert cli.main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert "FAIL broken" in captured.out
        assert "1 of 1 checks failed" in captured.err

    def test_import_loads_neither_checks_nor_oracle(self):
        # `egorov run` must not pay for the checks or the quadrature oracle;
        # only `egorov selftest` imports them.
        code = (
            "import sys, egorov.cli; "
            "print(sorted(m for m in ('egorov.checks', 'egorov.oracle') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(egorov.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_start_up_imports_no_scipy(self, config_file):
        # Every command imports the CLI and loads its config; scipy's import
        # alone would cost more than a benchmark-sized run, so neither step
        # may pull it in.  Nor may they load the dense oracle or the checks
        # that use it: only `egorov selftest` imports those.
        code = (
            "import sys, egorov.cli; "
            "from egorov.experiments import load_config; "
            "load_config(sys.argv[1]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('egorov.oracle', 'egorov.checks')))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(egorov.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(config_file)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "command, flag",
        [("reference", ["--threads", "2"]), ("run", ["--long-run"]),
         ("sweep", ["--threads", "2"])],
    )
    def test_flag_without_effect_is_rejected(self, command, flag, config_file, tmp_path, capsys):
        # `reference` runs no ensemble, `run` builds no grid and `sweep`
        # maps its ensembles inline, so none accepts the flag that would
        # only be echoed.
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(config_file), "--out", str(tmp_path / "o"), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
