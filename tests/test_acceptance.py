"""Acceptance battery: one test per release criterion.

Each test prints a single verdict line (criterion number, PASS/FAIL, measured
numbers, elapsed time) directly to the real stdout so the lines survive
pytest's capture, then asserts the stated bounds.  Budgets are asserted too;
they are generous against measured runtimes on a desktop core.

Criteria 1, 7, 8 and the tensor part of 2 take their numbers from the
functions in :mod:`egorov.checks`, which ``egorov selftest`` runs too; each
bound is written out here, so no edit to the package can move it.

Two criteria measure quantities that the production sampling or step size
would swamp, and are set up so that they resolve them:

* criterion 3 takes the phase-space means by Gauss-Hermite quadrature, not
  by Halton ensembles.  At eps=0.05 the corrected method's error (6.8e-7) is
  below the QMC sampling error of any affordable ensemble, so an
  ensemble-based eps-ratio measures sampling noise, not the eps-order.
  The ratio is checked at the row steps and at a resolved tau2 = 2^-6.
* criterion 6 runs the correction at tau2 = 2^-8.  The exact energy
  correction a2(h) is zero, so its split-step value is pure O(tau2^4)
  truncation error (1.4e-2 per trajectory at the production 2^-2), and the
  1e-8 / 1e-6 bounds are stated for tau2 = 2^-8.  At the production step
  the residual is checked to be fourth order, and its size is printed.
"""

import time

import numpy as np

from egorov import checks
from egorov.correction import a2_eval, evolve_correction_snapshots
from egorov.experiments import compare, run_corrected, run_reference
from egorov.experiments import (
    ResultRow,
    RunConfig,
    build_potential,
    snapshot_times,
    table_row_config,
)
from egorov.flow import propagate_snapshots
from egorov.observables import make_observable
from egorov.potentials import (
    free_potential,
    harmonic_potential,
    torsional_potential,
)
from egorov.reference import GridSpec, expectation, init_packet, schrodinger_propagate
from egorov.sampling import GaussianPacket, sample_points

from conftest import gauss_hermite_rule

Z0 = np.array([1.0, 0.5, 0.0, 0.0])
OBS6 = ("q1", "q2", "p1", "p2", "kinetic", "potential")


def _verdict(capsys, num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {status} {detail}", flush=True)


def test_criterion_1_correction_matches_quadrature_oracle(capsys):
    """Split-step correction tensors against the bracket-quadrature oracle."""
    t0 = time.perf_counter()
    rels = checks.oracle_equivalence()
    names = tuple(rels)
    worst = max(rels.values())
    elapsed = time.perf_counter() - t0
    detail = f"worst rel diff {worst:.2e} (tol 1e-5) over {names} [{elapsed:.1f}s/30s]"
    _verdict(capsys, 1, "oracle equivalence", worst <= 1e-5 and elapsed <= 30.0, detail)
    for name, rel in rels.items():
        assert rel <= 1e-5, f"{name}: relative difference {rel:.2e} > 1e-5"
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s over 30s budget"


def test_criterion_2_harmonic_exactness(capsys):
    """Quadratic Hamiltonian: zero correction, transport matches the rotation."""
    t0 = time.perf_counter()
    omega = np.array([1.0, 2.0])

    # Correction tensors and values must vanish identically, not just smally.
    peak = checks.harmonic_zero_correction()["peak"]

    # Transported q/p expectations against the exact normal-mode rotation,
    # within the quasi-Monte Carlo allowance per coordinate, for two epsilons.
    n0 = 10_000
    worst_ratio = 0.0
    for eps in (0.1, 0.4):
        cfg = RunConfig(
            epsilon=eps,
            dimension=2,
            potential="harmonic",
            stiffness=(1.0, 2.0),
            center=(1.0, 0.5, 0.0, 0.0),
            n_samples=n0,
            tau_flow=0.05,
            n_correction=0,
            tau_correction=0.25,
            t_final=1.0,
            snapshot_stride=0.25,
            observables=("q1", "q2", "p1", "p2"),
        )
        bound = 3.0 * np.sqrt(eps / 2.0) / np.sqrt(n0)
        q0, p0 = np.array([1.0, 0.5]), np.array([0.0, 0.0])
        for row in run_corrected(cfg):
            wt = omega * row.time
            j = int(row.observable[1]) - 1
            if row.observable.startswith("q"):
                exact = np.cos(wt[j]) * q0[j] + np.sin(wt[j]) * p0[j] / omega[j]
            else:
                exact = -omega[j] * np.sin(wt[j]) * q0[j] + np.cos(wt[j]) * p0[j]
            worst_ratio = max(worst_ratio, abs(row.egorov - exact) / bound)

    elapsed = time.perf_counter() - t0
    detail = (
        f"tensor peak {peak:.1e} (must be 0), worst rotation error "
        f"{worst_ratio:.2f}x the QMC allowance [{elapsed:.1f}s/10s]"
    )
    _verdict(capsys, 2, "harmonic exactness", peak == 0.0 and worst_ratio <= 1.0 and elapsed <= 10.0, detail)
    assert peak == 0.0, f"harmonic correction tensors reach {peak:.2e}"
    assert worst_ratio <= 1.0, f"rotation mismatch {worst_ratio:.2f}x QMC allowance"
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s over 10s budget"


def _quadrature_rows(cfg, n_transport, n_correction):
    """Corrected-method rows for cfg with both phase-space means (transport
    term and correction term) taken by Gauss-Hermite quadrature instead of
    Halton ensembles; the flow, correction stepper and observables are the
    production ones."""
    pot = build_potential(cfg)
    observables = [make_observable(name, pot) for name in cfg.observables]
    times = snapshot_times(cfg)
    nodes, weights = gauss_hermite_rule(cfg.center, cfg.epsilon, n_transport)
    snaps = propagate_snapshots(nodes, times, cfg.tau_flow, cfg.flow_order, pot)
    nodes2, weights2 = gauss_hermite_rule(cfg.center, cfg.epsilon, n_correction)
    states = evolve_correction_snapshots(nodes2, times, cfg.tau_correction, pot)
    rows = []
    for t, z, state in zip(times, snaps, states):
        for obs in observables:
            egorov = float(weights @ obs.value(z))
            corr = float(weights2 @ a2_eval(obs, state))
            rows.append(
                ResultRow(
                    time=t,
                    observable=obs.name,
                    egorov=egorov,
                    correction=corr,
                    corrected=egorov + cfg.epsilon**2 * corr,
                )
            )
    return rows


def test_criterion_3_epsilon_order(capsys):
    """Error ratios between eps=0.1 and eps=0.05 against the grid reference.

    Rows 1 and 2 (their eps, tau0, tau2; order-8 flow, T=5, stride 0.5) are
    compared with the grid reference.  The phase-space means are taken by
    tensor Gauss-Hermite quadrature of the Wigner Gaussian, not by the Halton
    ensembles: the corrected error at eps=0.05 is 6.8e-7, below the QMC
    sampling error even of the 1e6-sample paper-table ensemble (2.6e-6 to
    6.7e-6), so an ensemble-based ratio measures sampling noise rather than
    the eps-order.  Two rule sizes (8^4 transport / 6^4 correction nodes and
    16^4 / 10^4) must agree on every max error to 1%, which shows the
    quadrature resolved.

    The row steps do not resolve tau2 at T=5: their truncation error partly
    cancels the O(eps^4) error, which lifts the corrected ratio to about 26.
    The corrected ratio is therefore also taken with tau2 = 2^-6 in both
    rows, where it is about 13.5, and must lie in the same band.
    """
    t0 = time.perf_counter()
    rules = ((8, 6), (16, 10))
    coarse, fine = rules
    errs = {}
    resolved = {}
    for row_num in (1, 2):
        over = dict(t_final=5.0, snapshot_stride=0.5, observables=OBS6)
        cfg = table_row_config(row_num, **over)
        ref = run_reference(cfg)
        for rule in rules:
            _, summaries = compare(_quadrature_rows(cfg, *rule), ref)
            errs[cfg.epsilon, rule] = np.array(
                [
                    max(s["max_err_egorov"] for s in summaries),
                    max(s["max_err_corrected"] for s in summaries),
                ]
            )
        cfg_resolved = table_row_config(row_num, **over, tau_correction=2.0**-6)
        _, summaries = compare(_quadrature_rows(cfg_resolved, *fine), ref)
        resolved[cfg.epsilon] = max(s["max_err_corrected"] for s in summaries)
    agreement = max(
        float(np.max(np.abs(errs[eps, coarse] - errs[eps, fine]) / errs[eps, fine]))
        for eps in (0.1, 0.05)
    )
    ratio_ego, ratio_corr = errs[0.1, fine] / errs[0.05, fine]
    ratio_resolved = resolved[0.1] / resolved[0.05]
    elapsed = time.perf_counter() - t0
    detail = (
        f"egorov ratio {ratio_ego:.2f} (band [2,8]), corrected ratio "
        f"{ratio_corr:.2f} at the row steps and {ratio_resolved:.2f} at "
        f"tau2=2^-6 (band [8,32]); Gauss-Hermite rules agree to "
        f"{agreement:.1e} (need <= 1e-2) [{elapsed:.0f}s/900s]"
    )
    passed = (
        2.0 <= ratio_ego <= 8.0
        and 8.0 <= ratio_corr <= 32.0
        and 8.0 <= ratio_resolved <= 32.0
        and agreement <= 1e-2
        and elapsed <= 900.0
    )
    _verdict(capsys, 3, "epsilon order", passed, detail)
    assert agreement <= 1e-2, f"quadrature rules differ by {agreement:.1e} > 1e-2"
    assert 2.0 <= ratio_ego <= 8.0, f"egorov ratio {ratio_ego:.2f} outside [2, 8]"
    assert 8.0 <= ratio_corr <= 32.0, f"corrected ratio {ratio_corr:.2f} outside [8, 32]"
    assert 8.0 <= ratio_resolved <= 32.0, (
        f"corrected ratio at tau2=2^-6 {ratio_resolved:.2f} outside [8, 32]"
    )
    assert elapsed <= 900.0, f"runtime {elapsed:.0f}s over 15min budget"


def test_criterion_4_correction_step_order(capsys):
    """Fourth-order convergence of the correction integrator in tau2."""
    t0 = time.perf_counter()
    base = dict(n_samples=1000, n_correction=1000, t_final=2.0, observables=OBS6)
    ref = run_corrected(table_row_config(1, **base, tau_correction=2.0**-8))
    taus = [2.0**-2, 2.0**-3, 2.0**-4]
    errs = []
    for tau2 in taus:
        rows = run_corrected(table_row_config(1, **base, tau_correction=tau2))
        _, summaries = compare(rows, ref)
        errs.append(max(s["max_err_corrected"] for s in summaries))
    order = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    detail = f"observed order {order:.2f} (need >= 3.5) [{elapsed:.0f}s/300s]"
    _verdict(capsys, 4, "tau2 order", order >= 3.5 and elapsed <= 300.0, detail)
    assert order >= 3.5, f"observed tau2 order {order:.2f} < 3.5"
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s over 5min budget"


def test_criterion_5_correction_sample_decay(capsys):
    """QMC decay of the correction term as the correction ensemble grows."""
    t0 = time.perf_counter()
    base = dict(
        n_samples=100_000, t_final=1.0, tau_correction=2.0**-4, observables=OBS6
    )
    ref = run_corrected(table_row_config(1, **base, n_correction=100_000))
    counts = [100, 1000, 10_000]
    errs = []
    for n2 in counts:
        rows = run_corrected(table_row_config(1, **base, n_correction=n2))
        _, summaries = compare(rows, ref)
        errs.append(max(s["max_err_corrected"] for s in summaries))
    slope = float(np.polyfit(np.log(counts), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    detail = f"log-log slope {slope:.3f} (need <= -0.7) [{elapsed:.0f}s/300s]"
    _verdict(capsys, 5, "correction QMC decay", slope <= -0.7 and elapsed <= 300.0, detail)
    assert slope <= -0.7, f"decay slope {slope:.3f} > -0.7"
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s over 5min budget"


def test_criterion_6_energy_conservation(capsys):
    """Corrected total energy over [0, 15] with row-1 ensembles at tau2 = 2^-8.

    The exact a2(h) vanishes (the odd Moyal brackets {h, h} are zero), so
    whatever the split-step integrator leaves is its O(tau2^4) truncation
    error: 1.4e-2 per trajectory at the production step 2^-2, falling by 16
    per halving to 1.0e-9 at 2^-8.  The check therefore runs at tau2 = 2^-8,
    the step at which the 1e-8 / 1e-6 bounds are stated; N0, N2 and the
    horizon are row 1's.

    Two numbers keep the production step in view.  The per-trajectory
    maximum must fall by a factor in [8, 32] (fourth order: 2^4 = 16) from
    2^-2 to 2^-3, which shows the residual there is truncation error; and
    the corrected-energy deviation at 2^-2 is printed, not bounded.
    """
    t0 = time.perf_counter()
    cfg = table_row_config(1, observables=("total",), tau_correction=2.0**-8)
    rows = run_corrected(cfg)
    base = next(r for r in rows if r.time == 0.0)
    dev = max(abs(r.corrected - base.corrected) for r in rows)
    floor = max(abs(r.egorov - base.egorov) for r in rows)

    # Row 1 at its production step.  The correction column does not depend
    # on N0, so it comes from a small transport ensemble and is combined
    # with the full transport term above.
    prod_cfg = table_row_config(1, observables=("total",), n_samples=cfg.n_correction)
    prod = [
        r.egorov + cfg.epsilon**2 * p.correction
        for r, p in zip(rows, run_corrected(prod_cfg))
    ]
    prod_dev = max(abs(v - prod[0]) for v in prod)

    pot = torsional_potential(2)
    obs_h = make_observable("total", pot)
    packet = GaussianPacket(np.asarray(cfg.center), cfg.epsilon)
    points = sample_points(packet, 100, skip=cfg.halton_skip)

    def per_trajectory(tau2):
        states = evolve_correction_snapshots(points, (5.0, 10.0, 15.0), tau2, pot)
        return max(float(np.max(np.abs(a2_eval(obs_h, state)))) for state in states)

    per_traj = per_trajectory(cfg.tau_correction)
    per_traj_prod = per_trajectory(prod_cfg.tau_correction)
    halving = per_traj_prod / per_trajectory(prod_cfg.tau_correction / 2)

    elapsed = time.perf_counter() - t0
    bound = 1e-6 + floor
    detail = (
        f"corrected-energy deviation {dev:.2e} (bound {bound:.2e}), "
        f"per-trajectory a2(h) {per_traj:.2e} (bound 1e-8); at tau2=2^-2 "
        f"deviation {prod_dev:.2e}, per-trajectory {per_traj_prod:.2e}, "
        f"falling {halving:.1f}x per halving (band [8,32]) [{elapsed:.0f}s/120s]"
    )
    passed = (
        dev <= bound and per_traj <= 1e-8 and 8.0 <= halving <= 32.0 and elapsed <= 120.0
    )
    _verdict(capsys, 6, "energy conservation", passed, detail)
    assert dev <= bound, f"corrected-energy deviation {dev:.2e} > {bound:.2e}"
    assert per_traj <= 1e-8, f"per-trajectory a2(h) reaches {per_traj:.2e} > 1e-8"
    assert 8.0 <= halving <= 32.0, f"residual falls {halving:.1f}x per halving, not ~16x"
    assert elapsed <= 120.0, f"runtime {elapsed:.0f}s over 2min budget"


def test_criterion_7_identity_suites(capsys):
    """Symmetry, vectorization, bracket exchange, and transport-integral
    identities; the vectorization gap measures the correction stepper's own
    mode products against their Kronecker matrices."""
    t0 = time.perf_counter()
    sym_gap = checks.symmetry_preservation()["gap"]
    vec_gap = checks.vectorization_identities()["gap"]
    bracket_gap = checks.bracket_antisymmetry()["gap"]
    transport_gap = checks.transport_integral_identity()["gap"]

    elapsed = time.perf_counter() - t0
    detail = (
        f"symmetry {sym_gap:.1e}<=1e-12, vectorization {vec_gap:.1e}<=1e-12, "
        f"brackets {bracket_gap:.1e}<=1e-5, transport {transport_gap:.1e}<=1e-4 "
        f"[{elapsed:.1f}s/60s]"
    )
    passed = (
        sym_gap <= 1e-12
        and vec_gap <= 1e-12
        and bracket_gap <= 1e-5
        and transport_gap <= 1e-4
        and elapsed <= 60.0
    )
    _verdict(capsys, 7, "identity suites", passed, detail)
    assert sym_gap <= 1e-12, f"symmetry preservation off by {sym_gap:.2e}"
    assert vec_gap <= 1e-12, f"vectorization identities off by {vec_gap:.2e}"
    assert bracket_gap <= 1e-5, f"bracket exchange off by {bracket_gap:.2e}"
    assert transport_gap <= 1e-4, f"transport identity off by {transport_gap:.2e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s over 1min budget"


def test_criterion_8_block_general_equivalence(capsys):
    """Reordered block evolution equals the general flat-form evolution."""
    t0 = time.perf_counter()
    gap = checks.block_general_equivalence()["gap"]
    elapsed = time.perf_counter() - t0
    detail = f"tensor gap {gap:.2e} (tol 1e-8) [{elapsed:.1f}s/60s]"
    _verdict(capsys, 8, "block/general equivalence", gap <= 1e-8 and elapsed <= 60.0, detail)
    assert gap <= 1e-8, f"block vs general tensors differ by {gap:.2e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s over 1min budget"


def test_criterion_9_reference_solver_sanity(capsys):
    """Unitarity, Ehrenfest checks, and Strang self-convergence at 256^2."""
    t0 = time.perf_counter()
    spec = GridSpec(2, 256)
    eps = 0.1

    # The runs from Z0 share one start; each leaves it as it is.
    start = init_packet(spec, GaussianPacket(Z0, eps))

    # Norm preservation over 1000 torsional steps.
    pot = torsional_potential(2)
    grid = schrodinger_propagate(start, 1.0, 1e-3, pot)
    unitarity = abs(grid.norm() - 1.0)

    # Free packet: <q> rides the straight line, <p> frozen.
    free = free_potential(2)
    center = np.array([0.5, 0.25, 0.5, -0.25])
    fgrid = init_packet(spec, GaussianPacket(center, eps))
    fgrid = schrodinger_propagate(fgrid, 1.0, 2e-3, free)
    ehrenfest = 0.0
    for j in range(2):
        ehrenfest = max(
            ehrenfest,
            abs(expectation(fgrid, f"q{j + 1}", free) - (center[j] + center[2 + j])),
            abs(expectation(fgrid, f"p{j + 1}", free) - center[2 + j]),
        )

    # Harmonic packet: exact normal-mode rotation of <q>, <p>.
    omega = np.array([1.0, 2.0])
    harm = harmonic_potential(2, (1.0, 2.0))
    hgrid = schrodinger_propagate(start, 1.0, 5e-4, harm)
    for j in range(2):
        wt = omega[j] * 1.0
        ehrenfest = max(
            ehrenfest,
            abs(expectation(hgrid, f"q{j + 1}", harm) - np.cos(wt) * Z0[j]),
            abs(expectation(hgrid, f"p{j + 1}", harm) + omega[j] * np.sin(wt) * Z0[j]),
        )

    # Strang self-convergence on <q1> at t = 0.5.
    vals = []
    for tau in (4e-3, 2e-3, 1e-3):
        sgrid = schrodinger_propagate(start, 0.5, tau, pot)
        vals.append(expectation(sgrid, "q1", pot))
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])

    elapsed = time.perf_counter() - t0
    detail = (
        f"unitarity drift {unitarity:.1e}<=1e-10, Ehrenfest {ehrenfest:.1e}<=1e-6, "
        f"Strang ratio {ratio:.2f} in [2.8,5.2] [{elapsed:.0f}s/180s]"
    )
    passed = (
        unitarity <= 1e-10
        and ehrenfest <= 1e-6
        and 2.8 <= ratio <= 5.2
        and elapsed <= 180.0
    )
    _verdict(capsys, 9, "reference sanity", passed, detail)
    assert unitarity <= 1e-10, f"norm drift {unitarity:.2e} > 1e-10"
    assert ehrenfest <= 1e-6, f"Ehrenfest error {ehrenfest:.2e} > 1e-6"
    assert 2.8 <= ratio <= 5.2, f"Strang self-convergence ratio {ratio:.2f}"
    assert elapsed <= 180.0, f"runtime {elapsed:.0f}s over 3min budget"
