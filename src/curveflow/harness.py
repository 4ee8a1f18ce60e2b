"""Command-line front end: configs, runs, ensembles, studies, reports.

Subcommands:

* simulate      - one trajectory, written as JSON Lines (meta record, one
                  record per snapshot, final status record).
* ensemble      - many trajectories, optionally on parallel workers;
                  aggregated summary JSON plus CSV tables.
* convergence   - time-order, spatial-resolution, or strong (pathwise)
                  convergence study with a JSON report.
* invariants    - run the invariant catalog and report pass/fail.
* reconstruct   - state or trajectory file -> curve CSV.
* print-config  - show the effective configuration.

Configuration is a flat text file of dotted keys, ``key = value`` per line
(``#`` starts a comment line); every key has a default, so an empty or
missing config is valid.  ``print-config`` lists them all.  CLI flags
--seed, --dt, --tend override single keys; --workers (or the environment
variable CURVEFLOW_WORKERS) sets parallelism and is deliberately NOT part of
the config: outputs are byte-identical for any worker count, because
trajectory i always draws from the (seed, i) substream and aggregation is in
index order.

Outputs use JSON Lines / JSON / CSV with doubles printed to 17 significant
digits, which round-trips exactly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 blow-up stop (simulate); invariants exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import flows, geometry
from .flows import CURVE_DIFFUSION, WILLMORE, FlowSpec, State
from .grid import CLOSED, OPEN, Grid
from .integrator import (
    EXPLICIT_EM,
    HEUN_STRATONOVICH,
    IMEX_EM,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    run,
    run_ensemble,
)
from .noise import BrownianDriver, NoiseModel, substream_seed

TWO_PI = 2.0 * math.pi


class ConfigError(Exception):
    """Invalid configuration; reported with the offending key and exit code 2."""


# key -> (type, default, choices, help)
_SCHEMA = {
    "flow.kind": (str, WILLMORE, (WILLMORE, CURVE_DIFFUSION), "normal velocity driving the flow"),
    "grid.topology": (str, CLOSED, (CLOSED, OPEN), "periodic (closed curve) or interval (open)"),
    "grid.n": (int, 64, None, "number of spatial nodes"),
    "noise.mode": (str, "scalar", ("scalar", "spectral"), "single flat mode or decaying Fourier basis"),
    "noise.amplitude": (float, 0.0, None, "noise strength; 0 disables noise"),
    "noise.n_modes": (int, 8, None, "number of basis modes (spectral mode)"),
    "noise.decay_exponent": (float, 6.0, None, "spectral coefficient decay (> 5)"),
    "stepper.scheme": (str, IMEX_EM, (IMEX_EM, HEUN_STRATONOVICH, EXPLICIT_EM), "time scheme"),
    "stepper.dt": (float, 1e-4, None, "time step"),
    "stepper.t_end": (float, 0.1, None, "final time"),
    "stepper.snapshot_every": (int, 50, None, "steps between recorded snapshots"),
    "stop.l_min_factor": (float, 1e-3, None, "stop when length < factor * initial length"),
    "stop.l_max_factor": (float, 1e3, None, "stop when length > factor * initial length"),
    "stop.f_max_factor": (float, 1e3, None, "stop when sup|f| > factor * max(1, initial sup)"),
    "init.kind": (str, "circle", ("circle", "perturbed_circle", "constant"), "initial state family"),
    "init.radius": (float, 1.0, None, "circle / perturbed_circle radius"),
    "init.epsilon": (float, 0.1, None, "perturbation amplitude (perturbed_circle)"),
    "init.mode": (int, 2, None, "perturbation wavenumber (perturbed_circle)"),
    "init.value": (float, 1.0, None, "constant curvature value (constant)"),
    "init.length": (float, TWO_PI, None, "initial length (constant)"),
    "run.seed": (int, 12345, None, "master seed; trajectory i uses substream (seed, i)"),
    "run.trajectories": (int, 16, None, "ensemble size M"),
    "run.check_turning": (bool, True, None, "require closed initial turning near a 2*pi multiple"),
}


def default_config():
    return {key: spec[1] for key, spec in _SCHEMA.items()}


def _parse_value(key, raw):
    typ, _, choices, _ = _SCHEMA[key]
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if choices is not None and raw not in choices:
        raise ConfigError(f"{key}: must be one of {choices}, got {raw!r}")
    return raw


def load_config(path=None):
    """Defaults overlaid with the dotted-key assignments in ``path``."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw)
    return cfg


def effective_config(args):
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg["run.seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        cfg["stepper.dt"] = args.dt
    if getattr(args, "tend", None) is not None:
        cfg["stepper.t_end"] = args.tend
    return cfg


def resolve_workers(args):
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return args.workers
    env = os.environ.get("CURVEFLOW_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"CURVEFLOW_WORKERS must be an integer, got {env!r}") from None
        if value < 1:
            raise ConfigError(f"CURVEFLOW_WORKERS must be >= 1, got {value}")
        return value
    return 1


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_grid(cfg):
    try:
        return Grid(cfg["grid.topology"], cfg["grid.n"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_spec(cfg):
    try:
        noise = NoiseModel(
            mode=cfg["noise.mode"],
            amplitude=cfg["noise.amplitude"],
            n_modes=cfg["noise.n_modes"],
            decay_exponent=cfg["noise.decay_exponent"],
        )
        return FlowSpec(cfg["flow.kind"], cfg["grid.topology"], noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_stepper(cfg):
    try:
        return StepperConfig(
            scheme=cfg["stepper.scheme"],
            dt=cfg["stepper.dt"],
            t_end=cfg["stepper.t_end"],
            snapshot_every=cfg["stepper.snapshot_every"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_state(cfg, grid):
    kind = cfg["init.kind"]
    r = grid.nodes
    if kind == "circle":
        radius = cfg["init.radius"]
        if radius <= 0:
            raise ConfigError(f"init.radius must be positive, got {radius}")
        return State(np.full(grid.n, 1.0 / radius), TWO_PI * radius)
    if kind == "perturbed_circle":
        radius = cfg["init.radius"]
        if radius <= 0:
            raise ConfigError(f"init.radius must be positive, got {radius}")
        mode = cfg["init.mode"]
        if mode < 1:
            raise ConfigError(f"init.mode must be >= 1, got {mode}")
        f = 1.0 / radius + cfg["init.epsilon"] * np.cos(TWO_PI * mode * r)
        return State(f, TWO_PI * radius)
    length = cfg["init.length"]
    if not (length > 0 and math.isfinite(length)):
        raise ConfigError(f"init.length must be positive and finite, got {length}")
    return State(np.full(grid.n, cfg["init.value"]), length)


def build_stop(cfg, state):
    try:
        return StopCriteria.from_initial(
            state,
            l_min_factor=cfg["stop.l_min_factor"],
            l_max_factor=cfg["stop.l_max_factor"],
            f_max_factor=cfg["stop.f_max_factor"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Serialization: doubles at 17 significant digits, fixed key order
# ---------------------------------------------------------------------------


def _dumps(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return "null"
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dumps(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _version():
    from . import __version__

    return __version__


def _meta_record(command, cfg):
    return {
        "record": "meta",
        "version": _version(),
        "command": command,
        "config": {key: cfg[key] for key in _SCHEMA},
    }


def _snapshot_record(grid, snap):
    rec = {
        "record": "snapshot",
        "step": snap.step,
        "t": snap.time,
        "length": snap.length,
        "turning": snap.turning,
        "energy": snap.energy,
        "sup_curvature": snap.sup_f,
        "full_resolution": snap.full_resolution,
        "f": snap.f,
    }
    if grid.closed and snap.f.shape[-1] == grid.n:
        sample = geometry.reconstruct(grid, State(snap.f, snap.length, snap.time))
        defect = geometry.closure_defect(sample)
        rec["area"] = geometry.enclosed_area(sample, advisory_warning=False)
        rec["closure_defect"] = defect
        rec["area_advisory"] = bool(defect > 1e-3 * snap.length)
    return rec


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    cfg = effective_config(args)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    stepper = build_stepper(cfg)
    state = build_state(cfg, grid)
    stop = build_stop(cfg, state)
    driver = BrownianDriver(cfg["run.seed"], 0) if spec.noise.amplitude > 0 else None
    try:
        traj = run(
            spec,
            grid,
            state,
            stepper,
            stop=stop,
            driver=driver,
            check_turning=cfg["run.check_turning"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = args.out or "trajectory.jsonl"
    lines = [_dumps(_meta_record("simulate", cfg))]
    for snap in traj.snapshots:
        lines.append(_dumps(_snapshot_record(grid, snap)))
    lines.append(
        _dumps(
            {
                "record": "final",
                "status": traj.terminal_status.value,
                "steps": traj.steps,
                "stability_warning": traj.stability_warning,
            }
        )
    )
    _write_text(out, "\n".join(lines) + "\n")
    print(f"status: {traj.terminal_status.value}")
    print(f"wrote {out}")
    if traj.terminal_status is TerminalStatus.REACHED_T:
        return 0
    if traj.terminal_status is TerminalStatus.NUMERICAL_FAILURE:
        return 3
    return 4


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def _ensemble_worker(payload):
    cfg, start, count = payload
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    stepper = build_stepper(cfg)
    state = build_state(cfg, grid)
    stop = build_stop(cfg, state)
    return run_ensemble(
        spec,
        grid,
        state.f,
        state.length,
        stepper,
        count,
        cfg["run.seed"],
        stop=stop,
        check_turning=cfg["run.check_turning"],
        first_path=start,
    )


def _split_indices(total, workers):
    base, extra = divmod(total, workers)
    sizes = [base + (1 if w < extra else 0) for w in range(workers)]
    starts = [sum(sizes[:w]) for w in range(workers)]
    return [(starts[w], sizes[w]) for w in range(workers) if sizes[w] > 0]


def cmd_ensemble(args):
    cfg = effective_config(args)
    n_paths = cfg["run.trajectories"]
    if n_paths < 2:
        raise ConfigError(f"run.trajectories must be >= 2 for an ensemble, got {n_paths}")
    workers = min(resolve_workers(args), n_paths)
    # validate before spawning anything
    build_stepper(cfg)
    build_stop(cfg, build_state(cfg, build_grid(cfg)))
    build_spec(cfg)

    payloads = [(cfg, start, count) for start, count in _split_indices(n_paths, workers)]
    try:
        if workers == 1:
            results = [_ensemble_worker(payloads[0])]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_ensemble_worker, payloads))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    times = results[0].times
    lengths = np.concatenate([r.lengths for r in results], axis=1)
    energies = np.concatenate([r.energies for r in results], axis=1)
    active = np.concatenate([r.active for r in results], axis=1)
    statuses = [s for r in results for s in r.statuses]
    stop_times = np.concatenate([r.stop_times for r in results])
    final_lengths = np.concatenate([r.final_lengths for r in results])

    mean_l = lengths.mean(axis=1)
    var_l = lengths.var(axis=1, ddof=1)
    stderr_l = np.sqrt(var_l / n_paths)
    mean_e = energies.mean(axis=1)
    n_active = active.sum(axis=1)
    counts = {status.value: 0 for status in TerminalStatus}
    for s in statuses:
        counts[s.value] += 1
    blowup = sum(
        counts[s.value]
        for s in (
            TerminalStatus.BLOWUP_CURVATURE,
            TerminalStatus.BLOWUP_LENGTH_ZERO,
            TerminalStatus.BLOWUP_LENGTH_INFINITE,
        )
    )

    out = args.out or "ensemble.json"
    stem = out[:-5] if out.endswith(".json") else out
    summary = _meta_record("ensemble", cfg)
    summary.update(
        {
            "record": "ensemble_summary",
            "n_paths": n_paths,
            "times": times,
            "mean_length": mean_l,
            "var_length": var_l,
            "stderr_length": stderr_l,
            "mean_energy": mean_e,
            "n_active": n_active,
            "status_counts": counts,
            "blowup_fraction": blowup / n_paths,
        }
    )
    _write_text(out, _dumps(summary) + "\n")

    table = ["t,mean_length,var_length,stderr_length,mean_energy,n_active"]
    for k in range(times.shape[0]):
        table.append(
            ",".join(
                [
                    _fmt(times[k]),
                    _fmt(mean_l[k]),
                    _fmt(var_l[k]),
                    _fmt(stderr_l[k]),
                    _fmt(mean_e[k]),
                    str(int(n_active[k])),
                ]
            )
        )
    _write_text(stem + ".csv", "\n".join(table) + "\n")

    rows = ["path,status,stop_time,final_length"]
    for i in range(n_paths):
        stop_t = "" if math.isnan(stop_times[i]) else _fmt(stop_times[i])
        rows.append(f"{i},{statuses[i].value},{stop_t},{_fmt(final_lengths[i])}")
    _write_text(stem + "_paths.csv", "\n".join(rows) + "\n")

    print(
        f"paths: {n_paths}  E[L(T)]: {mean_l[-1]:.6g} +/- {stderr_l[-1]:.2g}  "
        f"blowup fraction: {blowup / n_paths:.3g}"
    )
    print(f"wrote {out}, {stem}.csv, {stem}_paths.csv")
    return 0


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def _parse_floats(raw):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}") from None


def _parse_ints(raw):
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None


def _study_time(cfg, dts):
    if len(dts) < 3:
        raise ConfigError(f"time study needs at least 3 dt levels, got {len(dts)}")
    dts = sorted(dts, reverse=True)
    quiet = dict(cfg)
    quiet["noise.amplitude"] = 0.0
    grid = build_grid(quiet)
    spec = build_spec(quiet)
    state0 = build_state(quiet, grid)
    t_end = quiet["stepper.t_end"]

    analytic = quiet["flow.kind"] == WILLMORE and quiet["init.kind"] == "circle"
    if analytic:
        radius = quiet["init.radius"]
        reference = TWO_PI * (radius**4 + 2.0 * t_end) ** 0.25
        reference_kind = "analytic_circle"
    else:
        fine = StepperConfig(quiet["stepper.scheme"], dts[-1] / 4.0, t_end, 10**9)
        reference = run(spec, grid, state0, fine, check_turning=False).final_state.length
        reference_kind = "fine_dt"

    errors = []
    for dt in dts:
        stepper = StepperConfig(quiet["stepper.scheme"], dt, t_end, 10**9)
        traj = run(spec, grid, state0, stepper, check_turning=False)
        errors.append(abs(traj.final_state.length - reference))

    if max(errors) < 1e-12:
        return {
            "study": "time",
            "dts": dts,
            "errors": errors,
            "reference": reference_kind,
            "slope": None,
            "converged_to_roundoff": True,
            "passed": True,
        }
    slope = float(np.polyfit(np.log(dts), np.log(np.maximum(errors, 1e-300)), 1)[0])
    return {
        "study": "time",
        "dts": dts,
        "errors": errors,
        "reference": reference_kind,
        "slope": slope,
        "converged_to_roundoff": False,
        "passed": bool(0.9 <= slope <= 1.5),
    }


def _poisson_profile(r, pole=0.6, amp=0.1):
    # all-mode smooth profile: coefficients decay like pole^m, mean exactly 1
    c = np.cos(TWO_PI * r)
    kernel = (1.0 - pole * pole) / (1.0 - 2.0 * pole * c + pole * pole)
    return 1.0 + amp * (kernel - 1.0)


def _study_space(cfg, ns):
    if len(ns) < 3:
        raise ConfigError(f"space study needs at least 3 grid levels, got {len(ns)}")
    ns = sorted(ns)
    n_ref = 2 * ns[-1]
    for n in ns:
        if n_ref % n:
            raise ConfigError(f"grid level {n} must divide the reference size {n_ref}")
    dt, t_end = 1e-5, 2e-3
    kind = cfg["flow.kind"]
    spec = FlowSpec(kind, CLOSED, NoiseModel())
    stepper = StepperConfig(IMEX_EM, dt, t_end, 10**9)

    def evolve(n):
        grid = Grid(CLOSED, n)
        state = State(_poisson_profile(grid.nodes), TWO_PI)
        return run(spec, grid, state, stepper, check_turning=False).final_state.f

    f_ref = evolve(n_ref)
    errors = []
    for n in ns:
        f_n = evolve(n)
        errors.append(float(np.max(np.abs(f_n - f_ref[:: n_ref // n]))))
    ratios = [errors[i] / max(errors[i + 1], 1e-300) for i in range(len(errors) - 1)]
    floor = 1e-12
    passed = all(
        ratios[i] > 10.0 or errors[i + 1] < floor for i in range(len(ratios))
    )
    return {
        "study": "space",
        "ns": ns,
        "reference_n": n_ref,
        "errors": errors,
        "ratios": ratios,
        "roundoff_floor": floor,
        "passed": bool(passed),
    }


def _study_strong(cfg, n_paths):
    if n_paths < 2:
        raise ConfigError(f"strong study needs at least 2 paths, got {n_paths}")
    amplitude = cfg["noise.amplitude"] if cfg["noise.amplitude"] > 0 else 0.05
    seed = cfg["run.seed"]
    n = 16
    grid = Grid(CLOSED, n)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=amplitude))
    dt_fine = 1e-4
    n_fine = 512
    t_end = n_fine * dt_fine
    f0 = np.ones(n)
    length0 = TWO_PI

    fine = np.stack(
        [BrownianDriver(seed, i).increment_block(n_fine, 1, dt_fine) for i in range(n_paths)],
        axis=1,
    )

    def terminal(dt, increments):
        stepper = StepperConfig(IMEX_EM, dt, t_end, 10**9)
        result = run_ensemble(
            spec, grid, f0, length0, stepper, n_paths, seed, increments=increments
        )
        if any(s is not TerminalStatus.REACHED_T for s in result.statuses):
            raise ConfigError("strong study path stopped early; lower the amplitude")
        return result.final_lengths

    l_fine = terminal(dt_fine, fine)
    dts, errors = [], []
    for factor in (8, 4, 2):
        coarse = fine.reshape(n_fine // factor, factor, n_paths, 1).sum(axis=1)
        l_coarse = terminal(factor * dt_fine, coarse)
        dts.append(factor * dt_fine)
        errors.append(float(np.mean(np.abs(l_coarse - l_fine))))
    slope = float(np.polyfit(np.log(dts), np.log(np.maximum(errors, 1e-300)), 1)[0])
    return {
        "study": "strong",
        "n_paths": n_paths,
        "amplitude": amplitude,
        "dt_fine": dt_fine,
        "dts": dts,
        "errors": errors,
        "slope": slope,
        "passed": bool(slope >= 0.4),
    }


def cmd_convergence(args):
    cfg = effective_config(args)
    if args.study == "time":
        report = _study_time(cfg, _parse_floats(args.dts))
    elif args.study == "space":
        report = _study_space(cfg, _parse_ints(args.ns))
    else:
        report = _study_strong(cfg, args.paths)
    report = {"record": "convergence", **report}
    out = args.out or "convergence.json"
    _write_text(out, _dumps(report) + "\n")
    if report.get("slope") is not None:
        print(f"{args.study} study: slope {report['slope']:.3f}  passed: {report['passed']}")
    elif "ratios" in report:
        ratios = ", ".join(f"{x:.3g}" for x in report["ratios"])
        print(f"space study: ratios {ratios}  passed: {report['passed']}")
    else:
        print(f"{args.study} study: passed: {report['passed']}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _energy_series(spec, grid, state, stepper):
    traj = run(spec, grid, state, stepper, check_turning=False)
    return [snap.energy for snap in traj.snapshots]


def _check_turning_number(seed):
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel())
    stepper = StepperConfig(IMEX_EM, 1e-4, 0.02, 10)
    traj = run(spec, grid, State(np.ones(64), TWO_PI), stepper)
    value = max(abs(s.turning - TWO_PI) for s in traj.snapshots)
    return {"name": "turning_number", "value": value, "bound": 1e-5, "passed": value <= 1e-5}


def _check_energy_dissipation(seed, flipped):
    if flipped:
        # deliberately anti-dissipative configuration: the fourth-order term
        # enters with the wrong sign, so high modes grow out of round-off and
        # the monotonicity check below must trip
        grid = Grid(CLOSED, 64)
        spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(), stiff_sign=1.0)
        state = State(1.0 + 0.1 * np.cos(2 * TWO_PI * grid.nodes), TWO_PI)
        stepper = StepperConfig(EXPLICIT_EM, 1e-5, 6e-4, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            energies = _energy_series(spec, grid, state, stepper)
    else:
        grid = Grid(CLOSED, 128)
        spec = FlowSpec(WILLMORE, CLOSED, NoiseModel())
        state = State(1.0 + 0.1 * np.cos(2 * TWO_PI * grid.nodes), TWO_PI)
        stepper = StepperConfig(IMEX_EM, 1e-5, 0.02, 100)
        energies = _energy_series(spec, grid, state, stepper)
    increases = [b - a for a, b in zip(energies, energies[1:])]
    worst = max(increases) if increases else 0.0
    decrease = energies[0] - energies[-1]
    passed = worst <= 1e-8 and decrease > 0
    return {
        "name": "energy_dissipation",
        "value": worst,
        "bound": 1e-8,
        "total_decrease": decrease,
        "passed": bool(passed),
    }


def _check_area_and_length(seed):
    grid = Grid(CLOSED, 128)
    spec = FlowSpec(CURVE_DIFFUSION, CLOSED, NoiseModel())
    state = State(1.0 + 0.1 * np.cos(2 * TWO_PI * grid.nodes), TWO_PI)
    stepper = StepperConfig(IMEX_EM, 1e-5, 0.2, 2000)
    traj = run(spec, grid, state, stepper)
    area0 = geometry.enclosed_area(geometry.reconstruct(grid, state), advisory_warning=False)
    area1 = geometry.enclosed_area(
        geometry.reconstruct(grid, traj.final_state), advisory_warning=False
    )
    drift = abs(area1 - area0) / abs(area0)
    lengths = [s.length for s in traj.snapshots]
    growth = max((b - a for a, b in zip(lengths, lengths[1:])), default=0.0)
    return [
        {
            "name": "area_conservation",
            "value": drift,
            "bound": 1e-3,
            "passed": bool(drift <= 1e-3),
        },
        {
            "name": "length_monotonicity",
            "value": growth,
            "bound": 1e-8,
            "passed": bool(growth <= 1e-8),
        },
    ]


def _check_diffusion_coefficient(seed):
    grid = Grid(CLOSED, 64)
    spec = FlowSpec(WILLMORE, CLOSED, NoiseModel(mode="scalar", amplitude=0.05))
    gen = np.random.Generator(np.random.PCG64(substream_seed(seed, 10001)))
    worst = 0.0
    for _ in range(100):
        f = gen.standard_normal(64)
        length = 0.3 + 3.0 * gen.random()
        lam = flows.assemble(spec, grid, f, length).rows_lam[0]
        worst = max(worst, abs(float(lam) + TWO_PI))
    return {
        "name": "diffusion_coefficient",
        "value": worst,
        "bound": 1e-12,
        "passed": bool(worst <= 1e-12),
    }


def _check_equivariance(seed):
    grid = Grid(CLOSED, 128)
    state = State(np.ones(128), TWO_PI)
    gen = np.random.Generator(np.random.PCG64(substream_seed(seed, 10002)))
    base = geometry.reconstruct(grid, state)
    worst = 0.0
    for _ in range(5):
        anchor = tuple(gen.standard_normal(2))
        angle = float(TWO_PI * gen.random())
        moved = geometry.reconstruct(grid, state, anchor=anchor, theta0=angle)
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        mapped = (base.points - base.points[0]) @ rot.T + np.asarray(anchor)
        worst = max(worst, float(np.max(np.abs(mapped - moved.points))))
    return {
        "name": "reconstruction_equivariance",
        "value": worst,
        "bound": 1e-10,
        "passed": bool(worst <= 1e-10),
    }


def cmd_invariants(args):
    cfg = effective_config(args)
    seed = cfg["run.seed"]
    flipped = bool(args.flip_stiff_sign)
    checks = [_check_turning_number(seed), _check_energy_dissipation(seed, flipped)]
    checks.extend(_check_area_and_length(seed))
    checks.append(_check_diffusion_coefficient(seed))
    checks.append(_check_equivariance(seed))
    all_passed = all(c["passed"] for c in checks)
    report = {
        "record": "invariants",
        "flipped_stiff_sign": flipped,
        "checks": checks,
        "all_passed": all_passed,
    }
    out = args.out or "invariants.json"
    _write_text(out, _dumps(report) + "\n")
    for c in checks:
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"{verdict}  {c['name']}: {c['value']:.3g} (bound {c['bound']:.3g})")
    print(f"wrote {out}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def _load_state_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from None
    if not text.strip():
        raise ConfigError(f"state file {path} is empty")
    try:
        records = [json.loads(text)]
    except json.JSONDecodeError:
        # JSON Lines: a simulate run's meta record followed by its snapshots
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    first = records[0]
    if isinstance(first, dict) and first.get("record") == "meta":
        topology = first["config"]["grid.topology"]
        chosen = None
        for rec in records[1:]:
            if rec.get("record") == "snapshot" and rec.get("full_resolution"):
                chosen = rec
        if chosen is None:
            raise ConfigError(f"no full-resolution snapshot in {path}")
        return topology, np.asarray(chosen["f"], dtype=float), float(chosen["length"])
    if len(records) > 1 or not isinstance(first, dict) or "f" not in first or "length" not in first:
        raise ConfigError(f"state file {path} needs 'f' and 'length' fields")
    topology = first.get("topology", CLOSED)
    return topology, np.asarray(first["f"], dtype=float), float(first["length"])


def cmd_reconstruct(args):
    topology, f, length = _load_state_file(args.state)
    try:
        grid = Grid(topology, f.shape[0])
        state = State(f, length)
        anchor = (0.0, 0.0)
        if args.anchor:
            parts = _parse_floats(args.anchor)
            if len(parts) != 2:
                raise ConfigError(f"--anchor needs 'x,y', got {args.anchor!r}")
            anchor = (parts[0], parts[1])
        sample = geometry.reconstruct(
            grid, state, anchor=anchor, theta0=args.theta0, samples=args.samples
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = args.out or "curve.csv"
    geometry.write_csv(sample, out)
    defect = geometry.closure_defect(sample)
    print(f"closure defect: {defect:.6g}")
    if grid.closed:
        area = geometry.enclosed_area(sample, advisory_warning=False)
        note = " (advisory)" if defect > 1e-3 * sample.length else ""
        print(f"enclosed area: {area:.6g}{note}")
    print(f"wrote {out}")
    return 0


def cmd_print_config(args):
    cfg = effective_config(args)
    lines = [f"{key} = {_fmt(cfg[key])}" for key in _SCHEMA]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a dotted-key config file")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--out", help="output path")
    common.add_argument("--workers", type=int, help="parallel workers (ensemble)")
    common.add_argument("--dt", type=float, help="override stepper.dt")
    common.add_argument("--tend", type=float, help="override stepper.t_end")

    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Stochastic curvature flows of planar curves in the curvature-length frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run one trajectory to JSON Lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", parents=[common], help="run many trajectories, aggregate")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("convergence", parents=[common], help="order-of-accuracy studies")
    p.add_argument("--study", choices=("time", "space", "strong"), default="time")
    p.add_argument("--dts", default="4e-4,2e-4,1e-4", help="time study dt levels")
    p.add_argument("--ns", default="32,64,128", help="space study grid sizes")
    p.add_argument("--paths", type=int, default=32, help="strong study ensemble size")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("invariants", parents=[common], help="run the invariant catalog")
    p.add_argument(
        "--flip-stiff-sign",
        action="store_true",
        help="diagnostic: run the energy check with the fourth-order sign flipped",
    )
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reconstruct", parents=[common], help="state/trajectory file -> curve CSV")
    p.add_argument("--state", required=True, help="JSON state or simulate JSONL file")
    p.add_argument("--samples", type=int, help="polyline segments (closed grids)")
    p.add_argument("--anchor", help="start point 'x,y'")
    p.add_argument("--theta0", type=float, default=0.0, help="initial tangent angle")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("print-config", parents=[common], help="show the effective config")
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
