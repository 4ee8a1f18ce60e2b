"""Acceptance suite: the twelve checks that gate a release.

Each test exercises one documented guarantee end to end and logs a
PASS/FAIL line with the measured values through ``criterion_log``; pytest
prints the collected lines as a summary block after the run.  Tolerances
are stated next to each assertion.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from curveflow import geometry, harness
from curveflow.flows import (
    CURVE_DIFFUSION,
    WILLMORE,
    FlowSpec,
    State,
    assemble,
)
from curveflow.grid import CLOSED, OPEN, Grid
from curveflow.harness import main
from curveflow.integrator import (
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    run,
    run_ensemble,
)
from curveflow.noise import BasisFunction, BrownianDriver, NoiseModel

TWO_PI = 2.0 * math.pi
NO_NOISE = NoiseModel()


def _perturbed_state(grid):
    """Curvature 1 + 0.1 cos(2s) along a length-2*pi curve."""
    return State(1.0 + 0.1 * np.cos(2.0 * TWO_PI * grid.nodes), TWO_PI)


def _timed_run(kind, grid, state, stepper):
    start = time.perf_counter()
    traj = run(FlowSpec(kind, CLOSED, NO_NOISE), grid, state, stepper)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def willmore_circle_run():
    grid = Grid(CLOSED, 64)
    stepper = StepperConfig(IMEX_EM, 1e-4, 0.5, 100)
    return _timed_run(WILLMORE, grid, State(np.ones(64), TWO_PI), stepper)


@pytest.fixture(scope="module")
def diffusion_circle_run():
    grid = Grid(CLOSED, 64)
    stepper = StepperConfig(IMEX_EM, 1e-4, 0.5, 100)
    return _timed_run(CURVE_DIFFUSION, grid, State(np.ones(64), TWO_PI), stepper)


@pytest.fixture(scope="module")
def diffusion_perturbed_run():
    grid = Grid(CLOSED, 128)
    stepper = StepperConfig(IMEX_EM, 1e-5, 0.2, 200)
    return _timed_run(CURVE_DIFFUSION, grid, _perturbed_state(grid), stepper)


@pytest.fixture(scope="module")
def willmore_perturbed_run():
    grid = Grid(CLOSED, 128)
    stepper = StepperConfig(IMEX_EM, 1e-5, 0.2, 200)
    return _timed_run(WILLMORE, grid, _perturbed_state(grid), stepper)


def test_c01_circle_law_bending_flow(willmore_circle_run, criterion_log):
    """A unit circle under the bending flow follows the exact radius law."""
    traj, elapsed = willmore_circle_run
    length_ref = TWO_PI * 2.0**0.25  # radius (1 + 2t)^(1/4) at t = 1/2
    f_ref = 2.0**-0.25
    length_err = abs(traj.final_state.length - length_ref) / length_ref
    f_err = float(np.abs(traj.final_state.f - f_ref).max())
    passed = (
        traj.terminal_status is TerminalStatus.REACHED_T
        and length_err < 1e-3
        and f_err < 1e-3
        and elapsed < 30.0
    )
    criterion_log(
        "01 circle law under the bending flow",
        passed,
        f"rel length err {length_err:.3g}, curvature err {f_err:.3g} "
        f"(bounds 1e-3), {elapsed:.1f}s",
    )
    assert traj.terminal_status is TerminalStatus.REACHED_T
    assert length_err < 1e-3
    assert f_err < 1e-3
    assert elapsed < 30.0


def test_c02_circle_stationary_curve_diffusion(diffusion_circle_run, criterion_log):
    """A circle is an exact steady state of curve diffusion."""
    traj, elapsed = diffusion_circle_run
    f_dev = float(np.abs(traj.final_state.f - 1.0).max())
    length_dev = abs(traj.final_state.length - TWO_PI)
    passed = f_dev < 1e-8 and length_dev < 1e-8 and elapsed < 30.0
    criterion_log(
        "02 circle stationarity under curve diffusion",
        passed,
        f"curvature dev {f_dev:.3g}, length dev {length_dev:.3g} (bounds 1e-8), {elapsed:.1f}s",
    )
    assert f_dev < 1e-8
    assert length_dev < 1e-8
    assert elapsed < 30.0


def test_c03_curve_diffusion_preserves_area(diffusion_perturbed_run, criterion_log):
    traj, _ = diffusion_perturbed_run
    grid = Grid(CLOSED, 128)
    area0 = geometry.enclosed_area(
        geometry.reconstruct(grid, _perturbed_state(grid)), advisory_warning=False
    )
    area1 = geometry.enclosed_area(
        geometry.reconstruct(grid, traj.final_state), advisory_warning=False
    )
    drift = abs(area1 - area0) / abs(area0)
    lengths = [snap.length for snap in traj.snapshots]
    growth = max(b - a for a, b in zip(lengths, lengths[1:]))
    passed = drift < 1e-3 and growth <= 1e-8
    criterion_log(
        "03 enclosed-area conservation",
        passed,
        f"relative area drift {drift:.3g} (bound 1e-3), "
        f"max length growth {growth:.3g} (bound 1e-8)",
    )
    assert drift < 1e-3
    assert growth <= 1e-8


def test_c04_bending_energy_dissipates(willmore_perturbed_run, criterion_log):
    traj, _ = willmore_perturbed_run
    energies = [snap.energy for snap in traj.snapshots]
    worst_increase = max(b - a for a, b in zip(energies, energies[1:]))
    decrease = energies[0] - energies[-1]
    passed = worst_increase <= 1e-8 and decrease > 0
    criterion_log(
        "04 bending-energy dissipation",
        passed,
        f"max energy increase {worst_increase:.3g} (bound 1e-8), "
        f"total decrease {decrease:.3g}",
    )
    assert worst_increase <= 1e-8
    assert decrease > 0


def test_c05_turning_number_conserved(
    willmore_circle_run,
    diffusion_circle_run,
    diffusion_perturbed_run,
    willmore_perturbed_run,
    criterion_log,
):
    """All deterministic closed runs keep the discrete turning within 1e-5.

    Without its zero-mode projection the first-order-in-time scheme would
    leave an O(dt) residue in the discrete turning integral, largest on the
    half-unit-time circle run.  The measured values are logged.
    """
    runs = {
        "circle/bending": willmore_circle_run,
        "circle/diffusion": diffusion_circle_run,
        "perturbed/diffusion": diffusion_perturbed_run,
        "perturbed/bending": willmore_perturbed_run,
    }
    worst = {
        name: max(abs(snap.turning - TWO_PI) for snap in traj.snapshots)
        for name, (traj, _) in runs.items()
    }
    failures = {name: value for name, value in worst.items() if not value < 1e-5}
    detail = ", ".join(f"{name} {value:.3g}" for name, value in worst.items())
    criterion_log("05 turning-number conservation", not failures, detail + " (bound 1e-5)")
    assert not failures, f"turning drift exceeds 1e-5: {failures}"


def test_c06_length_noise_coefficient_exact(criterion_log):
    """Closed scalar noise always couples to the length with weight -2*pi."""
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.05))
    rng = np.random.Generator(np.random.PCG64(321))
    worst = 0.0
    for _ in range(100):
        f, length = rng.standard_normal(64), 0.3 + 3.0 * rng.random()
        lam = assemble(spec, grid, f, length).rows_lam[0]
        worst = max(worst, abs(float(lam) + TWO_PI))
    criterion_log(
        "06 exact length noise coefficient",
        worst == 0.0,
        f"worst |b_L + 2pi| = {worst:.3g} over 100 random states",
    )
    assert worst == 0.0


def test_c07_scheme_agreement_under_shared_noise(criterion_log):
    """Semi-implicit and Heun means agree on coupled scalar-noise ensembles."""
    n, n_paths, dt, t_end = 16, 2000, 1e-4, 0.1
    grid = Grid(CLOSED, n)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.05))
    f0 = np.ones(n)
    start = time.perf_counter()
    results = {
        scheme: run_ensemble(
            spec, grid, f0, TWO_PI, StepperConfig(scheme, dt, t_end, 10**9), n_paths, 2024
        )
        for scheme in (IMEX_EM, HEUN_STRATONOVICH)
    }
    elapsed = time.perf_counter() - start
    assert all(
        s is TerminalStatus.REACHED_T for r in results.values() for s in r.statuses
    )
    final_i = results[IMEX_EM].final_lengths
    final_h = results[HEUN_STRATONOVICH].final_lengths
    diff = abs(final_i.mean() - final_h.mean())
    stderr = math.sqrt(final_i.var(ddof=1) / n_paths + final_h.var(ddof=1) / n_paths)
    bound = 3.0 * (stderr + 5.0 * dt)
    passed = diff < bound and elapsed < 600.0
    criterion_log(
        "07 Ito/Stratonovich scheme agreement",
        passed,
        f"|mean length gap| {diff:.3g} < {bound:.3g} over {n_paths} coupled paths, "
        f"{elapsed:.1f}s",
    )
    assert diff < bound
    assert elapsed < 600.0


def test_c08_spectral_basis_degenerates_to_scalar(criterion_log):
    """A flat first mode plus zero modes reproduces scalar noise exactly."""
    amplitude = 0.3
    scalar = FlowSpec(WILLMORE, OPEN, NoiseModel(mode="scalar", amplitude=amplitude))
    basis = (BasisFunction("const", 0, 1.0),) + tuple(BasisFunction("zero") for _ in range(7))
    degenerate = FlowSpec(
        WILLMORE,
        OPEN,
        NoiseModel(mode="spectral", amplitude=amplitude, n_modes=8, basis=basis),
    )
    grid = Grid(OPEN, 33)
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(100):
        f, length = rng.standard_normal(grid.n), 0.3 + 3.0 * rng.random()
        a_s = assemble(scalar, grid, f, length)
        a_d = assemble(degenerate, grid, f, length)
        worst = max(
            worst,
            float(np.abs(a_s.stiff - a_d.stiff).max()),
            float(np.abs((a_s.det_f + a_s.corr_f) - (a_d.det_f + a_d.corr_f)).max()),
            abs(float(a_s.det_L + a_s.corr_L) - float(a_d.det_L + a_d.corr_L)),
            float(np.abs(a_s.rows_beta[0] - a_d.rows_beta[0]).max()),
            abs(float(a_s.rows_lam[0]) - float(a_d.rows_lam[0])),
        )
        assert a_d.rows_beta.shape[0] == 8
        for b_f, b_L in zip(a_d.rows_beta[1:], a_d.rows_lam[1:]):
            worst = max(worst, float(np.abs(b_f).max()), abs(float(b_L)))
    criterion_log(
        "08 spectral basis degenerates to scalar noise",
        worst < 1e-12,
        f"worst drift/diffusion gap {worst:.3g} over 100 random open states (bound 1e-12)",
    )
    assert worst < 1e-12


def test_c09_reconstruction_fidelity(criterion_log):
    grid = Grid(CLOSED, 128)
    state = State(np.ones(128), TWO_PI)
    sample = geometry.reconstruct(grid, state)
    defect = geometry.closure_defect(sample)
    area_err = abs(geometry.enclosed_area(sample, advisory_warning=False) - math.pi)

    rng = np.random.Generator(np.random.PCG64(17))
    equivariance = 0.0
    for _ in range(5):
        anchor = tuple(rng.standard_normal(2))
        angle = float(TWO_PI * rng.random())
        moved = geometry.reconstruct(grid, state, anchor=anchor, theta0=angle)
        c, s = math.cos(angle), math.sin(angle)
        rotation = np.array([[c, -s], [s, c]])
        mapped = (sample.points - sample.points[0]) @ rotation.T + np.asarray(anchor)
        equivariance = max(equivariance, float(np.max(np.abs(mapped - moved.points))))

    passed = defect < 1e-6 and area_err < 1e-4 and equivariance < 1e-10
    criterion_log(
        "09 curve reconstruction fidelity",
        passed,
        f"closure defect {defect:.3g} (bound 1e-6), area err {area_err:.3g} (bound 1e-4), "
        f"rigid-motion gap {equivariance:.3g} (bound 1e-10)",
    )
    assert defect < 1e-6
    assert area_err < 1e-4
    assert equivariance < 1e-10


def test_c10_convergence_orders(criterion_log):
    cfg = harness.default_config()
    time_report = harness._study_time(cfg, [4e-4, 2e-4, 1e-4])
    space_report = harness._study_space(cfg, [32, 64, 128])
    strong_report = harness._study_strong(cfg, 32)

    time_ok = 0.9 <= time_report["slope"] <= 1.5
    floor = space_report["roundoff_floor"]
    space_ok = all(
        ratio > 10.0 or space_report["errors"][i + 1] < floor
        for i, ratio in enumerate(space_report["ratios"])
    )
    strong_ok = strong_report["slope"] >= 0.4
    criterion_log(
        "10 convergence orders",
        time_ok and space_ok and strong_ok,
        f"time slope {time_report['slope']:.3f} in [0.9, 1.5], "
        f"space ratios {[f'{r:.3g}' for r in space_report['ratios']]} (> 10 per doubling), "
        f"strong slope {strong_report['slope']:.3f} >= 0.4",
    )
    assert time_ok
    assert space_ok
    assert strong_ok
    assert time_report["passed"] and space_report["passed"] and strong_report["passed"]


def test_c11_stop_statuses_and_sign_regression(criterion_log):
    """Stops report the matching status with finite snapshots; the flipped
    fourth-order sign trips the energy check."""
    statuses = {}
    all_finite = True

    def record(tag, traj):
        nonlocal all_finite
        statuses[tag] = traj.terminal_status
        all_finite = all_finite and all(
            np.all(np.isfinite(snap.f)) and math.isfinite(snap.length)
            for snap in traj.snapshots
        )

    grid = Grid(CLOSED, 64)
    stepper = StepperConfig(IMEX_EM, 1e-4, 0.5, 10)
    record(
        "length_growth",
        run(
            FlowSpec(WILLMORE, CLOSED, NO_NOISE),
            grid,
            State(np.ones(64), TWO_PI),
            stepper,
            stop=StopCriteria(1e-6, 1.01 * TWO_PI, 1e6),
        ),
    )

    noisy_grid = Grid(CLOSED, 16)
    noisy_spec = FlowSpec(CURVE_DIFFUSION, CLOSED, NoiseModel(mode="scalar", amplitude=1.0))
    noisy_stepper = StepperConfig(IMEX_EM, 1e-3, 1.0, 10)
    record(
        "length_collapse",
        run(
            noisy_spec,
            noisy_grid,
            State(np.ones(16), TWO_PI),
            noisy_stepper,
            stop=StopCriteria(0.9 * TWO_PI, 10.0 * TWO_PI, 1e6),
            driver=BrownianDriver(0, 0),
        ),
    )
    record(
        "curvature_bound",
        run(
            noisy_spec,
            noisy_grid,
            State(np.ones(16), TWO_PI),
            noisy_stepper,
            stop=StopCriteria(1e-6, 1e6, 1.05),
            driver=BrownianDriver(0, 0),
        ),
    )

    with pytest.warns(UserWarning, match="stability bound mid-run"):
        record(
            "divergence",
            run(
                FlowSpec(CURVE_DIFFUSION, CLOSED, NoiseModel(mode="scalar", amplitude=0.8)),
                noisy_grid,
                State(np.ones(16), TWO_PI),
                StepperConfig(HEUN_STRATONOVICH, 2e-4, 2.0, 1000),
                stop=StopCriteria(1e-6 * TWO_PI, 1e6 * TWO_PI, 1e300),
                driver=BrownianDriver(3, 0),
            ),
        )

    flipped = harness._check_energy_dissipation(12345, True)

    expected = {
        "length_growth": TerminalStatus.BLOWUP_LENGTH_INFINITE,
        "length_collapse": TerminalStatus.BLOWUP_LENGTH_ZERO,
        "curvature_bound": TerminalStatus.BLOWUP_CURVATURE,
        "divergence": TerminalStatus.NUMERICAL_FAILURE,
    }
    passed = statuses == expected and all_finite and not flipped["passed"]
    criterion_log(
        "11 stop statuses and sign regression",
        passed,
        f"statuses {[s.value for s in statuses.values()]}, snapshots finite: {all_finite}, "
        f"flipped-sign energy check fails: {not flipped['passed']}",
    )
    assert statuses == expected
    assert all_finite
    assert not flipped["passed"]


def test_c12_byte_identical_outputs(tmp_path, criterion_log):
    simulate_cfg = tmp_path / "sim.cfg"
    simulate_cfg.write_text(
        "flow.kind = curve_diffusion\n"
        "grid.n = 32\n"
        "noise.amplitude = 0.4\n"
        "stepper.dt = 1e-3\n"
        "stepper.t_end = 0.05\n"
        "stepper.snapshot_every = 10\n"
        "run.seed = 7\n"
    )
    blobs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(simulate_cfg), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    simulate_identical = blobs[0] == blobs[1]

    ensemble_cfg = tmp_path / "ens.cfg"
    ensemble_cfg.write_text(
        "flow.kind = curve_diffusion\n"
        "grid.n = 16\n"
        "noise.amplitude = 0.2\n"
        "stepper.dt = 1e-3\n"
        "stepper.t_end = 0.02\n"
        "stepper.snapshot_every = 5\n"
        "run.trajectories = 4\n"
        "run.seed = 42\n"
    )
    ensemble_blobs = []
    for tag, extra in (("w1", []), ("w2", ["--workers", "2"])):
        out = tmp_path / f"{tag}.json"
        rc = main(["ensemble", "--config", str(ensemble_cfg), "--out", str(out)] + extra)
        assert rc == 0
        ensemble_blobs.append(
            tuple(
                (tmp_path / f"{tag}{suffix}").read_bytes()
                for suffix in (".json", ".csv", "_paths.csv")
            )
        )
    ensemble_identical = ensemble_blobs[0] == ensemble_blobs[1]

    criterion_log(
        "12 byte-identical deterministic outputs",
        simulate_identical and ensemble_identical,
        f"repeat simulate identical: {simulate_identical}, "
        f"ensemble across worker counts identical: {ensemble_identical}",
    )
    assert simulate_identical
    assert ensemble_identical
