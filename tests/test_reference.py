"""Split-step Fourier reference solver on a periodic tensor grid."""

import os

import numpy as np
import pytest

import egorov.experiments as experiments
import egorov.reference as reference
from egorov.experiments import CSV_HEADER, ResultRow, RunConfig, run_reference, write_rows_csv
from egorov.observables import OBSERVABLE_NAMES, make_observable
from egorov.potentials import free_potential, harmonic_potential, torsional_potential
from egorov.reference import (
    GridSpec,
    expectation,
    init_packet,
    reference_expectations,
    schrodinger_step,
)
from egorov.sampling import GaussianPacket

EPS = 0.1


@pytest.fixture
def packet_2d():
    return GaussianPacket(np.array([1.0, 0.5, 0.0, 0.0]), EPS)


def _cache_config(**overrides):
    """The 64^2 torsional reference of ``packet_2d`` at tau = 1e-2, with
    snapshots at 0, 0.1 and 0.2, as a config for ``run_reference``."""
    settings = dict(
        epsilon=EPS, dimension=2, potential="torsional", center=(1.0, 0.5, 0.0, 0.0),
        n_samples=1, tau_flow=0.1, n_correction=0, tau_correction=0.1,
        t_final=0.2, snapshot_stride=0.1, grid_points=64, tau_reference=1e-2,
        observables=("q1",),
    )
    settings.update(overrides)
    return RunConfig(**settings)


class TestGridSpec:
    def test_spacing(self):
        assert GridSpec(2, 8).dx == 0.75

    def test_axis_excludes_right_endpoint(self):
        ax = GridSpec(1, 16).axis()
        assert ax[0] == -3.0
        assert ax[-1] == pytest.approx(3.0 - 0.375)
        assert len(ax) == 16

    def test_wavenumbers(self):
        spec = GridSpec(1, 8)
        k = spec.wavenumbers()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2.0 * np.pi / 6.0)
        assert k[4] == pytest.approx(-8.0 * np.pi / 6.0)

    def test_mesh_value_shape(self):
        spec = GridSpec(2, 8)
        v = spec.mesh_value(torsional_potential(2))
        assert v.shape == (8, 8)
        assert v[0, 0] == pytest.approx(2.0 - 2.0 * np.cos(3.0))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(2, 100)
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(2, 1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            GridSpec(0, 64)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="interval"):
            GridSpec(1, 64, x_min=1.0, x_max=1.0)


class TestInitPacket:
    def test_norm_is_one(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        assert grid.norm() == pytest.approx(1.0, abs=1e-12)

    def test_position_moments(self, packet_2d):
        grid = init_packet(GridSpec(2, 128), packet_2d)
        pot = torsional_potential(2)
        assert expectation(grid, "q1", pot) == pytest.approx(1.0, abs=1e-10)
        assert expectation(grid, "q2", pot) == pytest.approx(0.5, abs=1e-10)

    def test_momentum_moments(self):
        packet = GaussianPacket(np.array([-0.5, 0.0, 0.5, -0.25]), EPS)
        grid = init_packet(GridSpec(2, 128), packet)
        pot = free_potential(2)
        assert expectation(grid, "p1", pot) == pytest.approx(0.5, abs=1e-10)
        assert expectation(grid, "p2", pot) == pytest.approx(-0.25, abs=1e-10)

    def test_kinetic_moment(self):
        # E[|p|^2/2] for the packet is |p0|^2/2 + d eps/4.
        packet = GaussianPacket(np.array([-0.5, 0.0, 0.5, 0.0]), EPS)
        grid = init_packet(GridSpec(2, 128), packet)
        assert expectation(grid, "kinetic", free_potential(2)) == pytest.approx(
            0.5 * 0.25 + 2 * EPS / 4, abs=1e-10
        )

    def test_rejects_dimension_mismatch(self, packet_2d):
        with pytest.raises(ValueError, match="dimension"):
            init_packet(GridSpec(1, 64), packet_2d)

    def test_rejects_packet_near_boundary(self):
        packet = GaussianPacket(np.array([2.9, 0.0, 0.0, 0.0]), EPS)
        with pytest.raises(ValueError, match="outside the domain"):
            init_packet(GridSpec(2, 64), packet)


class TestSchrodingerStep:
    def test_unitary_per_step(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        pot = torsional_potential(2)
        for _ in range(10):
            grid = schrodinger_step(grid, 0.01, pot)
            assert abs(grid.norm() - 1.0) <= 1e-12

    def test_advances_time(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        grid = schrodinger_step(grid, 0.25, torsional_potential(2))
        assert grid.t == 0.25

    def test_free_particle_exact(self):
        # With V = 0 both split factors commute, so the step is exact in
        # time and <q>(t) = q0 + p0 t holds to grid quadrature accuracy.
        packet = GaussianPacket(np.array([-0.5, 0.0, 0.5, 0.0]), EPS)
        pot = free_potential(2)
        grid = init_packet(GridSpec(2, 128), packet)
        for _ in range(2):
            grid = schrodinger_step(grid, 0.5, pot)
        assert expectation(grid, "q1", pot) == pytest.approx(0.0, abs=1e-12)
        assert expectation(grid, "p1", pot) == pytest.approx(0.5, abs=1e-12)

    def test_harmonic_ehrenfest(self, packet_2d):
        # Quadratic potential: Ehrenfest is exact, <q_j>, <p_j> rotate at
        # frequency w_j.  Measured errors at this resolution sit below 6e-7.
        pot = harmonic_potential(2, (1.0, 2.0))
        table = reference_expectations(
            GridSpec(2, 128), packet_2d, pot, [1.0], 1e-3,
            ["q1", "q2", "p1", "p2", "total"],
        )
        assert table["q1"][0] == pytest.approx(np.cos(1.0), abs=1e-6)
        assert table["q2"][0] == pytest.approx(0.5 * np.cos(2.0), abs=1e-6)
        assert table["p1"][0] == pytest.approx(-np.sin(1.0), abs=1e-6)
        assert table["p2"][0] == pytest.approx(-np.sin(2.0), abs=1e-6)
        energy = 0.5 * (1.0 + 4.0 * 0.25) + (EPS / 4) * (2.0 + 5.0)
        assert table["total"][0] == pytest.approx(energy, abs=1e-5)

    def test_boundary_guard_trips(self):
        # A fast free packet translates into the outer shell and the run
        # aborts rather than silently wrapping around.
        packet = GaussianPacket(np.array([0.0, 2.0]), EPS)
        with pytest.raises(RuntimeError, match="boundary"):
            reference_expectations(
                GridSpec(1, 128), packet, free_potential(1), [1.5], 0.01, ["q1"]
            )


class TestExpectation:
    def test_unknown_observable(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        with pytest.raises(ValueError, match="unknown"):
            expectation(grid, "spin", torsional_potential(2))

    def test_index_range(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        pot = torsional_potential(2)
        with pytest.raises(ValueError, match="out of range"):
            expectation(grid, "q3", pot)
        with pytest.raises(ValueError, match="out of range"):
            expectation(grid, "p0", pot)

    def test_names_parsed_as_a_run_parses_them(self, packet_2d):
        # One grammar for observable names: the reference accepts exactly
        # the names an ensemble run accepts.
        grid = init_packet(GridSpec(2, 64), packet_2d)
        pot = torsional_potential(2)
        for name in ("Q1", " q1", "Total", "q3", "p0", "spin"):
            with pytest.raises(ValueError):
                make_observable(name, pot)
            with pytest.raises(ValueError):
                expectation(grid, name, pot)
        for name in OBSERVABLE_NAMES:
            make_observable(name, pot)
            assert np.isfinite(expectation(grid, name, pot))

    def test_total_is_kinetic_plus_potential(self, packet_2d):
        grid = init_packet(GridSpec(2, 64), packet_2d)
        pot = torsional_potential(2)
        assert expectation(grid, "total", pot) == pytest.approx(
            expectation(grid, "kinetic", pot) + expectation(grid, "potential", pot),
            rel=1e-14,
        )

    def test_energy_constant_along_run(self):
        # The split step conserves a modified energy, so <H> oscillates at
        # O(tau^4) without secular growth; measured drift 5.4e-11 at the
        # default step eps/16.
        packet = GaussianPacket(np.array([1.0, 0.0]), EPS)
        table = reference_expectations(
            GridSpec(1, 256), packet, torsional_potential(1),
            np.arange(0.0, 15.5, 2.5), EPS / 16, ["total"],
        )
        drift = np.max(np.abs(table["total"] - table["total"][0]))
        assert drift <= 1e-8

    def test_self_convergence_second_order(self):
        # schrodinger_step is the plain Strang step: halving tau divides
        # the error by 4.
        packet = GaussianPacket(np.array([1.0, 0.0]), EPS)
        pot = torsional_potential(1)
        vals = []
        for tau in (4e-3, 2e-3, 1e-3):
            grid = init_packet(GridSpec(1, 256), packet)
            for _ in range(round(1.0 / tau)):
                grid = schrodinger_step(grid, tau, pot)
            vals.append(expectation(grid, "q1", pot))
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 2.8 < ratio < 5.2

    def test_self_convergence_fourth_order(self):
        # reference_expectations composes Strang to order 4: halving tau
        # divides the error by 16 (measured 16.00).  At tau = 4e-3 the
        # differences reach roundoff, so the steps stay coarser.
        packet = GaussianPacket(np.array([1.0, 0.0]), EPS)
        pot = torsional_potential(1)
        vals = [
            reference_expectations(GridSpec(1, 256), packet, pot, [1.0], tau, ["q1"])["q1"][0]
            for tau in (0.05, 0.025, 0.0125)
        ]
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 11.2 < ratio < 20.8


class TestReferenceExpectations:
    def test_rejects_decreasing_times(self, packet_2d):
        with pytest.raises(ValueError, match="nondecreasing"):
            reference_expectations(
                GridSpec(2, 64), packet_2d, torsional_potential(2),
                [1.0, 0.5], 1e-2, ["q1"],
            )

    def test_snapshot_times_share_one_propagation(self, packet_2d):
        pot = torsional_potential(2)
        spec = GridSpec(2, 64)
        both = reference_expectations(spec, packet_2d, pot, [0.1, 0.2], 1e-2, ["q1"])
        single = reference_expectations(spec, packet_2d, pot, [0.2], 1e-2, ["q1"])
        assert both["q1"][1] == pytest.approx(single["q1"][0], rel=1e-13)

    def test_readings_computed_once_per_snapshot(self, packet_2d, monkeypatch):
        # The seven observables of a snapshot share one Fourier transform,
        # one density and the potential mesh the flows already hold; each
        # value has the bits it has when read alone.
        pot = torsional_potential(2)
        spec = GridSpec(2, 64)
        args = (spec, packet_2d, pot, [0.0, 0.02, 0.04], 1e-2)
        alone = {name: reference_expectations(*args, [name])[name] for name in OBSERVABLE_NAMES}
        counts = {"fftn": 0, "mesh_value": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*a, **k):
                counts[name] += 1
                return original(*a, **k)

            monkeypatch.setattr(owner, name, call)

        counted(reference, "fftn")
        counted(GridSpec, "mesh_value")
        together = reference_expectations(*args, OBSERVABLE_NAMES)
        # 4 order-4 steps of 3 FFT pairs, and one transform per snapshot.
        assert counts == {"fftn": 4 * 3 + 3, "mesh_value": 1}
        for name in OBSERVABLE_NAMES:
            assert together[name].tobytes() == alone[name].tobytes(), name

    # The grid-reference cache: experiments.run_reference stores the rows it
    # returns as a results table.

    def test_cache_round_trip(self, grid_cache):
        cache = grid_cache / "round_trip"
        config = _cache_config(observables=("q1", "total"))
        first = run_reference(config, cache_dir=cache)
        files = list(cache.glob("*.csv"))
        assert len(files) == 1
        assert files[0].read_text().startswith(CSV_HEADER + "\n")
        second = run_reference(config, cache_dir=cache)
        assert second == first

    def test_cache_actually_reused(self, grid_cache, monkeypatch):
        cache = grid_cache / "reused"
        config = _cache_config()
        expected = run_reference(config, cache_dir=cache)

        def boom(*a, **k):
            raise AssertionError("propagated instead of reading the cache")

        monkeypatch.setattr(reference, "init_packet", boom)
        cached = run_reference(config, cache_dir=cache)
        assert cached == expected

    def test_scheme_change_forces_recompute(self, grid_cache, monkeypatch):
        # A table made by another scheme at the same tau is never read back.
        cache = grid_cache / "scheme"
        config = _cache_config()
        run_reference(config, cache_dir=cache)
        monkeypatch.setattr(experiments, "SCHEME", reference.SCHEME + ", changed")
        calls = []
        monkeypatch.setattr(
            reference, "init_packet",
            lambda *a: calls.append(a) or init_packet(*a),
        )
        run_reference(config, cache_dir=cache)
        assert len(calls) == 1
        assert len(list(cache.glob("*.csv"))) == 2

    def test_cache_file_mode_follows_umask(self, tmp_path):
        # The temporary file is renamed into place, so the table keeps the
        # mode a plain write would give it, not a private one.
        path = tmp_path / "table.csv"
        write_rows_csv([ResultRow(0.0, "q1", reference=0.5)], path)
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failure", ["row", "rename"])
    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch, failure):
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

    def test_corrupt_cache_detected(self, grid_cache):
        cache = grid_cache / "corrupt"
        config = _cache_config()
        run_reference(config, cache_dir=cache)
        path = next(cache.glob("*.csv"))
        path.write_text("time,observable,value\n0.1,p9,nonsense\n")
        with pytest.raises(ValueError, match="corrupt"):
            run_reference(config, cache_dir=cache)
        # A readable results table whose rows are not the expected ones.
        path.write_text(f"{CSV_HEADER}\n0.0,p9,,,,0.5,,\n")
        with pytest.raises(ValueError, match="corrupt"):
            run_reference(config, cache_dir=cache)
