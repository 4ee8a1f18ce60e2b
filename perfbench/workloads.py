"""Workload definitions and output checks for the curveflow benchmark.

Each workload is one ``curveflow`` CLI call (``simulate`` or ``ensemble``)
described by a flat config.  The benchmark seed reaches the program only as
``run.seed``.  The checks here read the files the CLI wrote and decide, per
path-run, whether the run counts as failed.

Only the standard library is imported at module level, so the runner can pin
the BLAS/OpenMP thread environment before NumPy is loaded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass

# Every workload is a single-threaded process; these are read by the BLAS and
# OpenMP runtimes when NumPy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

REACHED_T = "reached_t"


def pin_threads():
    os.environ.update(THREAD_ENV)


@dataclass(frozen=True)
class Workload:
    """One CLI call: the subcommand and every config key that differs from the defaults."""

    name: str
    command: str  # "simulate" or "ensemble"
    config: dict
    # c03 bounds: relative area drift and per-snapshot length growth
    area_drift_max: float | None = None
    length_growth_max: float | None = None
    # ensemble rows compared bitwise against single runs, drawn from the seed
    sampled_rows: int = 0

    @property
    def n_paths(self):
        return int(self.config.get("run.trajectories", 1)) if self.command == "ensemble" else 1

    @property
    def state_bytes(self):
        """Bytes of the (paths, n) curvature state, as computed from its shape."""
        return self.n_paths * int(self.config["grid.n"]) * 8


def _steps(n, dt):
    return {"stepper.dt": dt, "stepper.t_end": n * dt}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="path_spectral",
            command="simulate",
            config={
                "flow.kind": "willmore",
                "grid.topology": "closed",
                "grid.n": 64,
                "noise.mode": "spectral",
                "noise.n_modes": 8,
                "noise.amplitude": 0.1,
                "stepper.scheme": "imex_em",
                **_steps(600, 1e-4),
                "stepper.snapshot_every": 100,
                "init.kind": "perturbed_circle",
            },
        ),
        Workload(
            name="ensemble_scalar",
            command="ensemble",
            config={
                "flow.kind": "willmore",
                "grid.topology": "closed",
                "grid.n": 64,
                "noise.mode": "scalar",
                "noise.amplitude": 0.1,
                "stepper.scheme": "imex_em",
                **_steps(16, 1e-4),
                "stepper.snapshot_every": 50,
                "init.kind": "perturbed_circle",
                "run.trajectories": 2048,
            },
            sampled_rows=2,
        ),
        Workload(
            name="path_snapshots",
            command="simulate",
            config={
                "flow.kind": "curve_diffusion",
                "grid.topology": "closed",
                "grid.n": 256,
                "noise.amplitude": 0.0,
                "stepper.scheme": "imex_em",
                **_steps(300, 1e-5),
                "stepper.snapshot_every": 1,
                "init.kind": "perturbed_circle",
            },
            area_drift_max=1e-3,
            length_growth_max=1e-8,
        ),
    )
}


def config_text(workload, seed):
    cfg = dict(workload.config)
    cfg["run.seed"] = int(seed)
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in cfg.items())


def _fmt(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def cli_argv(workload, config_path, out_path):
    return [workload.command, "--config", str(config_path), "--out", str(out_path), "--workers", "1"]


def output_files(workload, out_path):
    out = str(out_path)
    if workload.command == "simulate":
        return [out]
    stem = out[:-5] if out.endswith(".json") else out
    return [out, stem + ".csv", stem + "_paths.csv"]


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class RepCheck:
    """Outcome of checking one CLI call's outputs."""

    failed: int  # failed path-runs out of workload.n_paths
    problems: list
    accepted_steps: int = 0  # per path for simulate, per batch for ensemble
    path_steps: int = 0  # accepted steps summed over paths
    output_bytes: int = 0


def check_rep(workload, out_path, exit_code, reference_digest=None):
    """Check one CLI call.  A whole-output problem fails every path of the call."""
    files = output_files(workload, out_path)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        if workload.command == "simulate":
            result = _check_simulate(workload, files[0], problems)
        else:
            result = _check_ensemble(workload, files, problems)
        result.output_bytes = sum(os.path.getsize(p) for p in files)
        if reference_digest is not None and digest(files) != reference_digest:
            problems.append("outputs differ from the first call with this seed")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        result = RepCheck(failed=0, problems=[])
    result.problems = problems
    if problems:
        result.failed = workload.n_paths
    return result


def _check_simulate(workload, path, problems):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if records[0]["record"] != "meta" or records[-1]["record"] != "final":
        raise ValueError("simulate output must start with meta and end with final")
    snaps = [r for r in records[1:-1] if r["record"] == "snapshot"]
    final = records[-1]
    if final["status"] != REACHED_T:
        problems.append(f"status {final['status']}")
    if any(s.get("area_advisory") for s in snaps):
        problems.append("snapshot with area_advisory")
    if workload.area_drift_max is not None:
        area0, area1 = snaps[0]["area"], snaps[-1]["area"]
        drift = abs(area1 - area0) / abs(area0)
        if not drift <= workload.area_drift_max:
            problems.append(f"relative area drift {drift:.3g} > {workload.area_drift_max:g}")
    if workload.length_growth_max is not None:
        lengths = [s["length"] for s in snaps]
        growth = max(b - a for a, b in zip(lengths, lengths[1:]))
        if not growth <= workload.length_growth_max:
            problems.append(f"length growth {growth:.3g} > {workload.length_growth_max:g}")
    steps = int(final["steps"])
    return RepCheck(failed=0, problems=[], accepted_steps=steps, path_steps=steps)


def _check_ensemble(workload, files, problems):
    summary_path, _, paths_csv = files
    with open(summary_path) as fh:
        summary = json.loads(fh.read())
    m = workload.n_paths
    if summary["n_paths"] != m:
        problems.append(f"summary reports {summary['n_paths']} paths, expected {m}")
    with open(paths_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != m or [int(r["path"]) for r in rows] != list(range(m)):
        problems.append("paths table does not list every path once, in order")
    dt = float(workload.config["stepper.dt"])
    n_steps = int(round(float(workload.config["stepper.t_end"]) / dt))
    failed = 0
    path_steps = 0
    for row in rows:
        if row["status"] == REACHED_T:
            path_steps += n_steps
        else:
            failed += 1
            path_steps += int(round(float(row["stop_time"]) / dt))
    if summary["status_counts"].get(REACHED_T) != m - failed:
        problems.append("summary status counts disagree with the paths table")
    return RepCheck(failed=failed, problems=[], accepted_steps=n_steps, path_steps=path_steps)


def sampled_rows(workload, seed):
    """Ensemble rows re-run alone for the bitwise check; fixed by the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return sorted(rng.sample(range(workload.n_paths), workload.sampled_rows))


def check_rows_match_single_runs(workload, config_path, out_path, seed):
    """Rows of an ensemble output must equal single ``run`` calls bit for bit.

    The paths table prints final lengths at 17 significant digits, which
    round-trips doubles exactly, so string equality is bitwise equality.
    """
    from curveflow import harness
    from curveflow.integrator import run
    from curveflow.noise import BrownianDriver

    cfg = harness.load_config(str(config_path))
    grid = harness.build_grid(cfg)
    spec = harness.build_spec(cfg)
    stepper = harness.build_stepper(cfg)
    state = harness.build_state(cfg, grid)
    stop = harness.build_stop(cfg, state)
    with open(output_files(workload, out_path)[2], newline="") as fh:
        table = list(csv.DictReader(fh))
    problems = []
    for i in sampled_rows(workload, seed):
        traj = run(spec, grid, state, stepper, stop=stop, driver=BrownianDriver(cfg["run.seed"], i))
        single = format(traj.final_state.length, ".17g")
        if table[i]["final_length"] != single or traj.terminal_status.value != table[i]["status"]:
            problems.append(f"row {i}: ensemble {table[i]['final_length']} != single run {single}")
    return problems
