"""Acceptance suite: the twelve checks that gate a release.

Each test exercises one documented guarantee end to end and logs a
PASS/FAIL line with the measured values through ``criterion_log``; pytest
prints the collected lines as a summary block after the run.  Checks c01-c06,
c08, c09 and c11 are computed by ``curveflow.checks``, which ``curveflow
invariants`` runs too; their tests pin each record's bound and require every
record to pass.
"""

from __future__ import annotations

import math
import time

import numpy as np

from curveflow import checks, harness
from curveflow.flows import WILLMORE, FlowSpec
from curveflow.grid import Grid
from curveflow.harness import main
from curveflow.integrator import (
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    TerminalStatus,
    run_ensemble,
)
from curveflow.noise import NoiseModel

TWO_PI = 2.0 * math.pi


def _gate(criterion_log, label, records, bounds, detail, *also):
    """Log and assert one criterion: every record passes at its pinned bound."""
    passed = all(r["passed"] for r in records) and all(also)
    criterion_log(label, passed, detail)
    assert [r["bound"] for r in records] == bounds
    assert passed, records


def _timed(check):
    start = time.perf_counter()
    records = check()
    return records, [r["value"] for r in records], time.perf_counter() - start


def test_c01_circle_law_bending_flow(criterion_log):
    """A unit circle under the bending flow follows the exact radius law."""
    records, (length_err, f_err), elapsed = _timed(checks.circle_law)
    detail = f"rel length err {length_err:.3g}, curvature err {f_err:.3g} (bounds 1e-3), "
    label = "01 circle law under the bending flow"
    _gate(criterion_log, label, records, [1e-3] * 2, f"{detail}{elapsed:.1f}s", elapsed < 30.0)
    assert records[0]["status"] == TerminalStatus.REACHED_T.value


def test_c02_circle_stationary_curve_diffusion(criterion_log):
    """A circle is an exact steady state of curve diffusion."""
    records, (f_dev, length_dev), elapsed = _timed(checks.circle_stationary)
    detail = f"curvature dev {f_dev:.3g}, length dev {length_dev:.3g} (bounds 1e-8), {elapsed:.1f}s"
    label = "02 circle stationarity under curve diffusion"
    _gate(criterion_log, label, records, [1e-8] * 2, detail, elapsed < 30.0)


def test_c03_curve_diffusion_preserves_area(criterion_log):
    records, (drift, growth), _ = _timed(checks.area_conservation)
    detail = (
        f"relative area drift {drift:.3g} (bound 1e-3), "
        f"max length growth {growth:.3g} (bound 1e-8)"
    )
    _gate(criterion_log, "03 enclosed-area conservation", records, [1e-3, 1e-8], detail)


def test_c04_bending_energy_dissipates(criterion_log):
    records, (worst_increase,), _ = _timed(checks.energy_dissipation)
    detail = (
        f"max energy increase {worst_increase:.3g} (bound 1e-8), "
        f"total decrease {records[0]['total_decrease']:.3g}"
    )
    _gate(criterion_log, "04 bending-energy dissipation", records, [1e-8], detail)


def test_c05_turning_number_conserved(criterion_log):
    """All deterministic closed runs keep the discrete turning within 1e-5.

    Without its zero-mode projection the first-order-in-time scheme would
    leave an O(dt) residue in the discrete turning integral, largest on the
    half-unit-time circle run.  The measured values are logged.
    """
    records = checks.turning_number()
    detail = ", ".join(f"{r['run']} {r['value']:.3g}" for r in records) + " (bound 1e-5)"
    _gate(criterion_log, "05 turning-number conservation", records, [1e-5] * 4, detail)


def test_c06_length_noise_coefficient_exact(criterion_log):
    """Closed scalar noise always couples to the length with weight -2*pi."""
    records, (worst,), _ = _timed(checks.diffusion_coefficient)
    detail = f"worst |b_L + 2pi| = {worst:.3g} over 100 random states"
    _gate(criterion_log, "06 exact length noise coefficient", records, [0.0], detail)


def test_c07_scheme_agreement_under_shared_noise(criterion_log):
    """Semi-implicit and Heun means agree on coupled scalar-noise ensembles."""
    n, n_paths, dt, t_end = 16, 2000, 1e-4, 0.1
    grid = Grid(n)
    spec = FlowSpec(WILLMORE, NoiseModel(mode="scalar", amplitude=0.05))
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
    records, (worst,), _ = _timed(checks.spectral_degeneracy)
    detail = (
        f"worst drift/diffusion gap {worst:.3g} over 100 band-limited closed states "
        "(bound 1e-12)"
    )
    label = "08 spectral basis degenerates to scalar noise"
    _gate(criterion_log, label, records, [1e-12], detail, records[0]["modes"] == 8)


def test_c09_reconstruction_fidelity(criterion_log):
    records, (defect, area_err, equivariance), _ = _timed(checks.reconstruction)
    detail = (
        f"closure defect {defect:.3g} (bound 1e-6), area err {area_err:.3g} (bound 1e-4), "
        f"rigid-motion gap {equivariance:.3g} (bound 1e-10)"
    )
    _gate(criterion_log, "09 curve reconstruction fidelity", records, [1e-6, 1e-4, 1e-10], detail)


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
    records = checks.stop_statuses()
    stops, finite, flipped = records
    detail = (
        f"statuses {stops['statuses']}, snapshots finite: {finite['passed']}, "
        f"flipped-sign energy check fails: {flipped['passed']}"
    )
    label = "11 stop statuses and sign regression"
    # the diverging run must also have crossed the stability bound mid-run
    _gate(criterion_log, label, records, [0, 0, 1e-8], detail, stops["stability_warning"])


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
