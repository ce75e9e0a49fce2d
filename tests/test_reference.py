"""Split-step Fourier reference solver on a periodic tensor grid."""

import dataclasses
import re

import numpy as np
import pytest

import egorov.cli as cli
import egorov.reference as reference
from egorov.experiments import run_reference, table_row_config
from egorov.flow import split_snapshots
from egorov.observables import OBSERVABLE_NAMES, default_names, make_observable
from egorov.potentials import free_potential, harmonic_potential, torsional_potential
from egorov.reference import (
    GridSpec,
    WaveFunctionGrid,
    expectation,
    init_packet,
    reference_expectations,
    schrodinger_step,
)
from egorov.sampling import GaussianPacket

from conftest import CoupledPotential

EPS = 0.1


def grid_oracle(spec, packet, potential, times, tau, observable_names):
    """The d-dimensional propagation that :func:`reference_expectations`
    factorizes: one order-4 split-step run on the full tensor grid, with the
    monitors read on the d-dimensional state at every snapshot."""
    grid = init_packet(spec, packet)
    eps = grid.epsilon
    v = spec.mesh_value(potential)
    flows = reference._grid_flows(spec, v, eps)
    table = {name: np.empty(len(times)) for name in observable_names}
    snaps = split_snapshots(grid.psi, times, tau, reference._ORDER, *flows)
    for i, (t_snap, psi) in enumerate(zip(times, snaps)):
        grid = WaveFunctionGrid(psi=psi, spec=spec, epsilon=eps, t=t_snap)
        drift = abs(grid.norm() - 1.0)
        if drift > 1e-10:
            raise RuntimeError(f"unitarity lost: norm drift {drift:.3e} at t={t_snap}")
        shell = grid.boundary_mass()
        if shell > reference._BOUNDARY_RUN_TOL:
            raise RuntimeError(
                f"boundary mass {shell:.3e} at t={t_snap}: packet reached the domain edge"
            )
        readings = reference._Readings(grid, potential, v)
        for name in observable_names:
            table[name][i] = expectation(grid, name, potential, readings)
    return table


@pytest.fixture
def packet_2d():
    return GaussianPacket(np.array([1.0, 0.5, 0.0, 0.0]), EPS)


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

    def test_rejects_packet_below_grid_resolution(self):
        # eps = 1e-300 underflows every sample of the packet to zero.
        packet = GaussianPacket(np.array([1.0, 0.0]), 1e-300)
        with pytest.raises(ValueError, match="norm 0.0: epsilon 1e-300 is not resolved"):
            init_packet(GridSpec(1, 64), packet)

    @pytest.mark.parametrize("eps", [1e-3, 5e-4, 1e-5])
    def test_rejects_packet_narrower_than_grid(self, eps):
        # At 256 points on [-3, 3] these packets sample to a norm 8e-9 to 0.9
        # away from one, above the norm monitor's 1e-10.
        packet = GaussianPacket(np.array([1.0, 0.0]), eps)
        with pytest.raises(ValueError, match=f"epsilon {eps} is not resolved"):
            init_packet(GridSpec(1, 256), packet)

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
        # 4 order-4 steps of 3 FFT pairs on the stacked lines, then on each
        # of the d axes one transform per snapshot and one potential mesh.
        d = spec.d
        assert counts == {"fftn": 4 * 3 + 3 * d, "mesh_value": d}
        for name in OBSERVABLE_NAMES:
            assert together[name].tobytes() == alone[name].tobytes(), name


class TestFactorizedReference:
    """One 1-D solve per coordinate against the d-dimensional grid."""

    @pytest.mark.parametrize(
        "spec, center, potential, t_final",
        [
            (GridSpec(2, 128), (1.0, 0.5, 0.0, 0.0), torsional_potential(2), 0.5),
            # Axis 3's packet squeezes to three times its momentum spread by
            # t = 0.5; at 32 points on [-3, 3] that put 4 % of its weight
            # near Nyquist, so the grid is refined where the packet lives.
            (GridSpec(3, 64, -2.0, 2.0), (0.3, -0.2, 0.1, 0.0, 0.2, -0.1),
             harmonic_potential(3, (1.0, 2.0, 3.0)), 0.5),
            (GridSpec(2, 64), (0.3, -0.2, 0.4, 0.1), free_potential(2), 1.0),
        ],
        ids=["torsional-row1-128^2", "harmonic-d3-64^3", "free-d2-64^2"],
    )
    def test_matches_d_dimensional_oracle(self, spec, center, potential, t_final):
        packet = GaussianPacket(np.array(center), EPS)
        times = np.linspace(0.0, t_final, 5)
        names = default_names(spec.d)
        args = (spec, packet, potential, times, EPS / 16, names)
        factorized = reference_expectations(*args)
        oracle = grid_oracle(*args)
        for name in names:
            np.testing.assert_allclose(factorized[name], oracle[name], rtol=0, atol=1e-13,
                                       err_msg=name)

    def test_one_dimension_is_the_oracle_bitwise(self):
        args = (GridSpec(1, 128), GaussianPacket(np.array([1.0, 0.5]), EPS),
                torsional_potential(1), [0.0, 0.25, 0.5], EPS / 16, default_names(1))
        factorized = reference_expectations(*args)
        oracle = grid_oracle(*args)
        for name in args[-1]:
            assert factorized[name].tobytes() == oracle[name].tobytes(), name

    @pytest.mark.parametrize(
        "center, potential",
        [
            ((1.0, 0.5, 0.0, 0.0), torsional_potential(2)),
            ((0.3, -0.2, 0.1, 0.0, 0.2, -0.1), harmonic_potential(3, (1.0, 2.0, 0.5))),
        ],
        ids=["torsional-d2", "harmonic-d3"],
    )
    def test_each_axis_is_its_own_line_solve_bitwise(self, center, potential):
        # The stacked solve steps every axis with the bits of that
        # coordinate's own GridSpec(1, n) solve under V_j, and the energies
        # are the axes' sums in coordinate order.
        d = potential.d
        packet = GaussianPacket(np.array(center), EPS)
        times = [0.0, 0.25, 0.5]
        names = default_names(d)
        table = reference_expectations(GridSpec(d, 64), packet, potential, times, EPS / 16, names)
        lines = [
            reference_expectations(
                GridSpec(1, 64), GaussianPacket(packet.center[j::d], EPS),
                potential.coordinate(j), times, EPS / 16, default_names(1),
            )
            for j in range(d)
        ]
        for j, line in enumerate(lines, start=1):
            for kind in ("q", "p"):
                assert table[f"{kind}{j}"].tobytes() == line[f"{kind}1"].tobytes()
        for name in ("kinetic", "potential"):
            assert table[name].tobytes() == sum(line[name] for line in lines).tobytes()

    def test_nan_state_trips_the_norm_monitor(self, packet_2d, monkeypatch):
        # NaN compares false with every bound, so the monitors are written
        # to trip on it rather than let a NaN table through.
        original = reference.ifftn
        monkeypatch.setattr(
            reference, "ifftn", lambda *a, **k: np.full_like(original(*a, **k), np.nan)
        )
        with pytest.raises(RuntimeError, match="unitarity lost: norm drift nan at t=0.1"):
            reference_expectations(
                GridSpec(2, 64), packet_2d, torsional_potential(2), [0.0, 0.1], 1e-2, ["q1"]
            )

    def test_boundary_mass_trips_at_the_oracles_snapshot(self):
        # A fast packet reaches the shell of the 2-D box along both axes at
        # once.  The combined monitor trips at the snapshot where the 2-D one
        # does, and reads the same mass: both axes' shares, not the larger.
        args = (GridSpec(2, 128), GaussianPacket(np.array([0.0, 0.0, 2.0, 2.0]), EPS),
                free_potential(2), np.arange(0.25, 1.75, 0.25), 0.01, ["q1"])
        messages = []
        for solve in (reference_expectations, grid_oracle):
            with pytest.raises(RuntimeError, match="boundary mass") as info:
                solve(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert re.search(r"at t=(\S+):", messages[0]).group(1) != "0.25"

    def test_start_up_check_is_d_dimensional(self):
        # Each axis alone has 7e-13 of its mass outside the box, under the
        # 1e-12 start-up tolerance; the 2-D packet has 1.4e-12, over it.
        packet = GaussianPacket(np.array([1.416, 1.416, 0.0, 0.0]), EPS)
        args = (GridSpec(2, 64), packet, torsional_potential(2), [0.1], 1e-2, ["q1"])
        messages = []
        for solve in (reference_expectations, grid_oracle):
            with pytest.raises(ValueError, match="outside the domain") as info:
                solve(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        for j in range(2):
            axis = GaussianPacket(packet.center[j::2], EPS)
            assert reference._outside_mass(GridSpec(1, 64), axis) < 1e-12

    def test_non_separable_potential_raises_before_any_fft(self, packet_2d, monkeypatch):
        calls = []
        original = reference.fftn

        def counted(*a, **k):
            calls.append(1)
            return original(*a, **k)

        monkeypatch.setattr(reference, "fftn", counted)
        with pytest.raises(NotImplementedError):
            reference_expectations(
                GridSpec(2, 64), packet_2d, CoupledPotential(), [0.0, 0.1], 1e-2, ["q1"]
            )
        assert calls == []

    def test_rejects_potential_of_another_dimension(self, packet_2d):
        with pytest.raises(ValueError, match="potential dimension"):
            reference_expectations(
                GridSpec(2, 64), packet_2d, torsional_potential(1), [0.1], 1e-2, ["q1"]
            )


class TestFourierShellMonitor:
    """The weight near Nyquist: a grid too coarse for the packet's momenta
    aliases them while the norm and the position shell stay clean."""

    @pytest.mark.parametrize("row", [1, 2, 3, 4])
    def test_table_rows_pass_at_256_points(self, row):
        rows = run_reference(table_row_config(row, grid_points=256, t_final=5.0))
        assert all(np.isfinite(r.reference) for r in rows)

    def test_row_4_at_128_points_exits_two_without_a_table(self, tmp_path, capsys):
        # At 128 points on [-3, 3] the grid holds |p| up to 0.67, and row 4's
        # trajectory reaches 0.96: the table would be off by up to 1.97.
        config = table_row_config(4, grid_points=128, t_final=5.0)
        lines = []
        for key, value in dataclasses.asdict(config).items():
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}\n")
        path = tmp_path / "row4.cfg"
        path.write_text("".join(lines))
        out = tmp_path / "out"
        assert cli.main(["reference", "--config", str(path), "--out", str(out)]) == 2
        assert "near Nyquist" in capsys.readouterr().err
        assert not (out / "reference.csv").exists()
