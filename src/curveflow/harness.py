"""Command-line front end: configs, runs, ensembles, studies, reports.

Subcommands:

* simulate      - one trajectory, written as JSON Lines (meta record, one
                  record per snapshot, final status record).
* ensemble      - many trajectories, optionally on parallel workers;
                  aggregated summary JSON plus CSV tables.
* convergence   - time-order, spatial-resolution, or strong (pathwise)
                  convergence study with a JSON report.
* invariants    - run the acceptance checks of ``checks`` (c01-c06, c08,
                  c09, c11) at their gated settings and report pass/fail;
                  it reads no config and takes only --out.
* reconstruct   - closed-curve state or trajectory file -> curve CSV; it
                  reads no config either.
* print-config  - show the effective configuration.

Configuration is a flat text file of dotted keys, ``key = value`` per line
(``#`` starts a comment line); every key has a default, so an empty or
missing config is valid.  ``print-config`` lists them all.  Only closed
curves are supported: ``grid.topology`` is kept in the schema, and in every
meta record, with ``closed`` as its only legal value.  CLI flags --seed and
--tend override single keys, and so does --dt, which only ``simulate``,
``ensemble`` and ``print-config`` take: no convergence study reads
``stepper.dt``, each steps at its own sizes.  --workers sets the parallelism
of ``ensemble`` and is deliberately NOT part of the config: outputs are
byte-identical for any worker count, because trajectory i always draws from
the (seed, i) substream and aggregation is in index order.  ``simulate``
accepts only --workers 1; the other commands have no --workers flag.

Outputs use JSON Lines / JSON / CSV with doubles printed to 17 significant
digits, which round-trips exactly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 blow-up stop (simulate); invariants exits 1 when any check fails.  Exit 2
is for input only: a ConfigError from the builders and parsers, or a start
the integrator refuses (StartRefused).  Any other exception is a fault of
the program and propagates.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import flows, geometry, integrator
from ._dtoa import format_doubles as _format_doubles
from .flows import WILLMORE, FlowSpec, State
from .grid import Grid
from .integrator import (
    IMEX_EM,
    StartRefused,
    StepperConfig,
    StopCriteria,
    TerminalStatus,
    run,
    run_ensemble,
)
from .noise import SCALAR, SPECTRAL, BrownianDriver, NoiseModel, _generators, increment_blocks

TWO_PI = 2.0 * math.pi
CLOSED = "closed"


class ConfigError(Exception):
    """Invalid configuration; reported with the offending key and exit code 2."""


# key -> (type, default, choices); the README's table of config keys says what each means
_SCHEMA = {
    "flow.kind": (str, WILLMORE, flows._KINDS),
    "grid.topology": (str, CLOSED, (CLOSED,)),
    "grid.n": (int, 64, None),
    "noise.mode": (str, SCALAR, (SCALAR, SPECTRAL)),
    "noise.amplitude": (float, 0.0, None),
    "noise.n_modes": (int, 8, None),
    "noise.decay_exponent": (float, 6.0, None),
    "stepper.scheme": (str, IMEX_EM, integrator._SCHEMES),
    "stepper.dt": (float, 1e-4, None),
    "stepper.t_end": (float, 0.1, None),
    "stepper.snapshot_every": (int, 50, None),
    "stop.l_min_factor": (float, 1e-3, None),
    "stop.l_max_factor": (float, 1e3, None),
    "stop.f_max_factor": (float, 1e3, None),
    "init.kind": (str, "circle", ("circle", "perturbed_circle", "constant")),
    "init.radius": (float, 1.0, None),
    "init.epsilon": (float, 0.1, None),
    "init.mode": (int, 2, None),
    "init.value": (float, 1.0, None),
    "init.length": (float, TWO_PI, None),
    "run.seed": (int, 12345, None),
    "run.trajectories": (int, 16, None),
}


def default_config():
    return {key: spec[1] for key, spec in _SCHEMA.items()}


def _parse_value(key, raw):
    typ, _, choices = _SCHEMA[key]
    raw = raw.strip()
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
        hint = "; open curves were removed" if key == "grid.topology" else ""
        raise ConfigError(f"{key}: must be one of {choices}, got {raw!r}{hint}")
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
    workers = 1 if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_grid(cfg):
    try:
        return Grid(cfg["grid.n"])
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
        return FlowSpec(cfg["flow.kind"], noise)
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
    if kind == "constant":
        key, length = "init.length", cfg["init.length"]
        if not (length > 0 and math.isfinite(length)):
            raise ConfigError(f"init.length must be positive and finite, got {length}")
        value = cfg["init.value"]
        if not math.isfinite(value):
            raise ConfigError(f"init.value must be finite, got {value}")
        if abs(value * length) < math.pi:
            # the nearest whole number of turns is 0: a straight segment, or
            # one that barely bends, which cannot close
            raise ConfigError(
                "init.value must be at least pi / init.length in magnitude, half a "
                f"turn, for a closed curve; it turns the curve by {value * length:.3g}"
            )
        f = np.full(grid.n, value)
    else:
        key, radius = "init.radius", cfg["init.radius"]
        if not radius > 0:
            raise ConfigError(f"init.radius must be positive, got {radius}")
        length, f = TWO_PI * radius, np.full(grid.n, 1.0 / radius)
        if kind == "perturbed_circle":
            mode = cfg["init.mode"]
            if mode < 2:
                # a mode-1 perturbation does not close: at epsilon 0.1 the ends
                # of the unit-radius curve lie 0.31 apart
                raise ConfigError(f"init.mode must be >= 2 for a closed curve, got {mode}")
            if 2 * mode >= grid.n:
                # the nodes sample it as a lower mode; mode n samples as a constant
                raise ConfigError(
                    f"init.mode must be below grid.n / 2 = {grid.n // 2}, got {mode}"
                )
            epsilon = cfg["init.epsilon"]
            if not math.isfinite(epsilon):
                raise ConfigError(f"init.epsilon must be finite, got {epsilon}")
            f += epsilon * np.cos(TWO_PI * mode * grid.nodes)
    if not math.isfinite(length * length):
        # the curve's area, about length squared over 4 pi, would overflow
        raise ConfigError(f"{key} = {cfg[key]:g}: the curve's length squared overflows")
    return State(f, length)


def build_stop(cfg, state):
    for key in ("stop.l_min_factor", "stop.l_max_factor", "stop.f_max_factor"):
        if not (math.isfinite(cfg[key]) and cfg[key] > 0):
            raise ConfigError(f"{key} = {cfg[key]:g}: must be positive and finite")
    l_min = cfg["stop.l_min_factor"] * state.length  # as StopCriteria.from_initial forms it
    if not l_min > 0:
        raise ConfigError(
            f"stop.l_min_factor = {cfg['stop.l_min_factor']:g}: times the initial length "
            f"{state.length:.6g}, the bound underflows to 0"
        )
    if cfg["stop.l_max_factor"] <= cfg["stop.l_min_factor"]:
        raise ConfigError(
            f"stop.l_max_factor = {cfg['stop.l_max_factor']:g}: must exceed "
            f"stop.l_min_factor = {cfg['stop.l_min_factor']:g}"
        )
    l_max = cfg["stop.l_max_factor"] * state.length
    if l_max <= l_min:
        # ordered factors whose subnormal bounds round to the same value
        raise ConfigError(
            f"stop.l_max_factor = {cfg['stop.l_max_factor']:g}: times the initial length "
            f"{state.length:.6g}, the bound {l_max:.6g} does not exceed the "
            f"stop.l_min_factor bound {l_min:.6g}"
        )
    stop = StopCriteria.from_initial(
        state,
        l_min_factor=cfg["stop.l_min_factor"],
        l_max_factor=cfg["stop.l_max_factor"],
        f_max_factor=cfg["stop.f_max_factor"],
    )
    # a start outside the window would be reported as a blow-up after one
    # step, so it is judged by the loop's own stop masks
    sup = float(np.max(np.abs(state.f)))
    _, _, low, curv, high = integrator._stop_masks(sup, state.length, stop)
    for key, outside in (
        ("stop.l_min_factor", low),
        ("stop.f_max_factor", curv),
        ("stop.l_max_factor", high),
    ):
        if outside:
            raise ConfigError(
                f"{key} = {cfg[key]:g}: the stop window excludes the initial state "
                f"(length {state.length:.6g}, sup|f| {sup:.6g})"
            )
    return stop


def _setup(cfg):
    """The run cfg describes: (grid, spec, stepper, initial state, stop window)."""
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    stepper = build_stepper(cfg)
    state = build_state(cfg, grid)
    return grid, spec, stepper, state, build_stop(cfg, state)


# ---------------------------------------------------------------------------
# Serialization: doubles at 17 significant digits, fixed key order
# ---------------------------------------------------------------------------


def _number(value):
    """A float as JSON writes it here: ``%.17g``, or null if not finite."""
    return format(value, ".17g") if math.isfinite(value) else "null"


def _dumps(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dumps(v) for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        return "[" + _format_doubles(obj, null="null") + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_lines(path, lines):
    """Write each of lines, a line feed after each, as lines yields them."""
    try:
        with open(path, "w", newline="") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _check_writable(*paths):
    """Raise the ConfigError that writing would, before any work is done.

    Each path must name a file, existing and writable or not yet there, in
    a writable directory; nothing is created.
    """
    for path in paths:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            reason = "it is a directory"
        elif not os.path.isdir(folder):
            reason = f"no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise ConfigError(f"cannot write {path}: {reason}")


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


def _snapshot_records(grid, snaps):
    """The JSON text lines of a run's snapshot records, in order, one at a time.

    Snapshots go in blocks of up to integrator._BLOCK_VALUES // (m + 1)
    consecutive ones whose f has one size, m the samples per curve.  The f
    fields of a block are one ``_format_doubles`` call, every value at
    ``%.17g`` and null for a non-finite one, as ``_dumps`` writes them; the
    scalars go through ``_number``, as in ``_dumps``.  A block of
    full-resolution snapshots is reconstructed as one stack, whose
    (rows, m + 1) arrays stay within 128 KiB as the integrator's row blocks
    do, and each of its records carries its curve's area, closure defect
    and advisory flag; the rows equal single reconstructions bit for bit.

    Lines are yielded for the caller to write as they come, not to collect:
    the 301 lines of a run at n = 256, held and joined, raise its peak
    memory by about 3 MiB.
    """
    rows = max(1, integrator._BLOCK_VALUES // (max(grid.n, geometry._DEFAULT_MIN_SAMPLES) + 1))
    head = (
        '{"record":"snapshot","step":%d,"t":%s,"length":%s,"turning":%s,'
        '"energy":%s,"sup_curvature":%s,"full_resolution":%s,"f":['
    )
    lo = 0
    while lo < len(snaps):
        size, hi = snaps[lo].f.size, lo + 1
        while hi < min(len(snaps), lo + rows) and snaps[hi].f.size == size:
            hi += 1
        block = snaps[lo:hi]
        f = np.stack([snap.f for snap in block])
        fields = _format_doubles(f, null="null").split("\n")
        tails = ["]}"] * len(block)
        if size == grid.n:
            sample = geometry.reconstruct(grid, State(f, np.array([s.length for s in block])))
            defect = geometry.closure_defect(sample)
            advisory = geometry.area_advisory(sample, defect)
            columns = (geometry.enclosed_area(sample), defect, advisory)
            tails = [
                '],"area":%s,"closure_defect":%s,"area_advisory":%s}'
                % (_number(area), _number(gap), _dumps(flag))
                for area, gap, flag in zip(*(c.tolist() for c in columns))
            ]
        for snap, field, tail in zip(block, fields, tails):
            scalars = (snap.time, snap.length, snap.turning, snap.energy, snap.sup_f)
            flag = _dumps(snap.full_resolution)
            yield head % (snap.step, *map(_number, scalars), flag) + field + tail
        lo = hi


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    if args.workers not in (None, 1):
        raise ConfigError(f"--workers {args.workers}: a single trajectory runs on one worker")
    cfg = effective_config(args)
    grid, spec, stepper, state, stop = _setup(cfg)
    out = args.out or "trajectory.jsonl"
    _check_writable(out)
    driver = BrownianDriver(cfg["run.seed"], 0) if spec.noise.amplitude > 0 else None
    traj = run(spec, grid, state, stepper, stop=stop, driver=driver)

    final = {
        "record": "final",
        "status": traj.terminal_status.value,
        "steps": traj.steps,
        "stability_warning": traj.stability_warning,
    }
    _write_lines(
        out,
        itertools.chain(
            [_dumps(_meta_record("simulate", cfg))],
            _snapshot_records(grid, traj.snapshots),
            [_dumps(final)],
        ),
    )
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
    grid, spec, stepper, state, stop = _setup(cfg)
    return run_ensemble(
        spec, grid, state.f, state.length, stepper, count, cfg["run.seed"],
        stop=stop, first_path=start,
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
    _setup(cfg)  # validate before spawning anything
    out = args.out or "ensemble.json"
    stem = out[:-5] if out.endswith(".json") else out
    _check_writable(out, stem + ".csv", stem + "_paths.csv")

    payloads = [(cfg, start, count) for start, count in _split_indices(n_paths, workers)]
    if workers == 1:
        results = [_ensemble_worker(payloads[0])]
    else:
        # only this branch needs the pool; every other call starts without it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_worker, payloads))

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
    _write_lines(out, [_dumps(summary)])

    # n_active counts paths; integers below 2**53 print as integers at 17 digits
    table = np.column_stack([times, mean_l, var_l, stderr_l, mean_e, n_active])
    header = "t,mean_length,var_length,stderr_length,mean_energy,n_active"
    _write_lines(stem + ".csv", [header, _format_doubles(table)])

    # a path that reached t_end has a NaN stop time and an empty cell; final
    # lengths are always finite, frozen at the last valid state
    ends = _format_doubles(np.column_stack([stop_times, final_lengths]), null="").split("\n")
    rows = ["path,status,stop_time,final_length"]
    rows += [f"{i},{statuses[i].value},{ends[i]}" for i in range(n_paths)]
    _write_lines(stem + "_paths.csv", ["\n".join(rows)])  # one write, not one per path

    print(
        f"paths: {n_paths}  E[L(min(T,tau))]: {mean_l[-1]:.6g} +/- {stderr_l[-1]:.2g}  "
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
    if len(set(dts)) < len(dts):
        raise ConfigError(f"time study dt levels must be distinct, got {dts}")
    dts = sorted(dts, reverse=True)
    quiet = dict(cfg)
    quiet["noise.amplitude"] = 0.0
    quiet["stepper.snapshot_every"] = 10**9
    grid = build_grid(quiet)
    spec = build_spec(quiet)
    state0 = build_state(quiet, grid)
    t_end = quiet["stepper.t_end"]

    def stepper(dt):
        return build_stepper({**quiet, "stepper.dt": dt})

    analytic = quiet["flow.kind"] == WILLMORE and quiet["init.kind"] == "circle"
    if analytic:
        radius = quiet["init.radius"]
        reference = TWO_PI * (radius**4 + 2.0 * t_end) ** 0.25
        reference_kind = "analytic_circle"
    else:
        reference = run(spec, grid, state0, stepper(dts[-1] / 4.0)).final_state.length
        reference_kind = "fine_dt"

    errors = []
    for dt in dts:
        traj = run(spec, grid, state0, stepper(dt))
        errors.append(abs(traj.final_state.length - reference))

    roundoff = bool(max(errors) < 1e-12)
    log_errors = np.log(np.maximum(errors, 1e-300))
    slope = None if roundoff else float(np.polyfit(np.log(dts), log_errors, 1)[0])
    return {
        "study": "time",
        "dts": dts,
        "errors": errors,
        "reference": reference_kind,
        "slope": slope,
        "converged_to_roundoff": roundoff,
        "passed": roundoff or bool(0.9 <= slope <= 1.5),
    }


def _poisson_state(grid, pole=0.6, amp=0.1):
    """A smooth state of length 2*pi whose curvature has every mode, decaying
    like pole^m.  The profile has mean 1, but its modes alias on a grid (at
    n = 16 the turning would miss 2*pi by 3.5e-4), so it is shifted to
    discrete mean 1: the turning is 2*pi on every grid.  The curve does not
    close, since the mode-1 term leaves a closure defect of 0.384 at every
    level; the study compares curvature fields, which needs no closed curve."""
    c = np.cos(TWO_PI * grid.nodes)
    f = 1.0 + amp * ((1.0 - pole * pole) / (1.0 - 2.0 * pole * c + pole * pole) - 1.0)
    f += 1.0 - grid.integrate(f)
    return State(f, TWO_PI)


def _study_space(cfg, ns):
    if len(ns) < 3:
        raise ConfigError(f"space study needs at least 3 grid levels, got {len(ns)}")
    if len(set(ns)) < len(ns):
        raise ConfigError(f"space study grid levels must be distinct, got {ns}")
    ns = sorted(ns)
    try:
        grids = [Grid(n) for n in ns]
    except ValueError as exc:
        raise ConfigError(f"space study level: {exc}") from None
    n_ref = 2 * ns[-1]
    for n in ns:
        if n_ref % n:
            raise ConfigError(f"grid level {n} must divide the reference size {n_ref}")
    dt, t_end = 1e-5, 2e-3
    kind = cfg["flow.kind"]
    spec = FlowSpec(kind, NoiseModel())
    stepper = StepperConfig(IMEX_EM, dt, t_end, 10**9)

    def evolve(grid):
        return run(spec, grid, _poisson_state(grid), stepper).final_state.f

    f_ref = evolve(Grid(n_ref))
    errors = [float(np.max(np.abs(evolve(g) - f_ref[:: n_ref // g.n]))) for g in grids]
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
    grid = Grid(n)
    try:
        spec = FlowSpec(WILLMORE, NoiseModel(mode=SCALAR, amplitude=amplitude))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dt_fine = 1e-4
    n_fine = 512
    t_end = n_fine * dt_fine
    f0 = np.ones(n)
    length0 = TWO_PI

    fine = increment_blocks(_generators(seed, range(n_paths)), n_fine, 1, dt_fine)  # (n_fine, M, 1)

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
    _write_lines(out, [_dumps(report)])
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


def cmd_invariants(args):
    from . import checks  # only this command needs them; other commands start without

    records = checks.catalog()
    all_passed = all(c["passed"] for c in records)
    report = {"record": "invariants", "checks": records, "all_passed": all_passed}
    out = args.out or "invariants.json"
    _write_lines(out, [_dumps(report)])
    for c in records:
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
        records = []
        for lineno, line in enumerate(text.splitlines(), 1):
            try:
                records += [json.loads(line)] if line.strip() else []
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed JSON: {exc}") from None
    first = records[0]
    if isinstance(first, dict) and first.get("record") == "meta":
        config = first.get("config")
        if not isinstance(config, dict) or "grid.topology" not in config:
            raise ConfigError(f"meta record of {path} has no config.grid.topology")
        topology = config["grid.topology"]
        chosen = None
        for rec in records[1:]:
            if isinstance(rec, dict) and rec.get("record") == "snapshot":
                if rec.get("full_resolution"):
                    chosen = rec
        if chosen is None:
            raise ConfigError(f"no full-resolution snapshot in {path}")
        if "f" not in chosen or "length" not in chosen:
            raise ConfigError(f"snapshot in {path} needs 'f' and 'length' fields")
    elif len(records) > 1 or not (isinstance(first, dict) and "f" in first and "length" in first):
        raise ConfigError(f"state file {path} needs 'f' and 'length' fields")
    else:
        topology, chosen = first.get("topology", CLOSED), first
    if topology != CLOSED:
        raise ConfigError(
            f"state file {path} has topology {topology!r}; open curves were removed, "
            "only closed states can be reconstructed"
        )
    f, length = chosen["f"], chosen["length"]
    if not isinstance(f, list) or any(isinstance(v, list) for v in f):
        raise ConfigError(f"state file {path}: 'f' must be a flat list of numbers")
    # JSON numbers load as int or float; true and false load as bool, an int
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in [length, *f]):
        raise ConfigError(f"state file {path}: 'f' and 'length' must be numbers")
    try:
        return np.array(f, dtype=float), float(length)
    except OverflowError:  # an integer beyond the largest double
        raise ConfigError(f"state file {path}: 'f' and 'length' must fit a double") from None


def cmd_reconstruct(args):
    f, length = _load_state_file(args.state)
    anchor = (0.0, 0.0)
    if args.anchor:
        parts = _parse_floats(args.anchor)
        if len(parts) != 2:
            raise ConfigError(f"--anchor needs 'x,y', got {args.anchor!r}")
        anchor = (parts[0], parts[1])
    try:
        grid = Grid(f.shape[0])
        sample = geometry.reconstruct(
            grid, State(f, length), anchor=anchor, theta0=args.theta0, samples=args.samples
        )
    except ValueError as exc:  # a state the grid or the reconstruction refuses
        raise ConfigError(str(exc)) from None
    out = args.out or "curve.csv"
    _write_lines(out, ["x,y", _format_doubles(sample.points)])
    defect = geometry.closure_defect(sample)
    print(f"closure defect: {defect:.6g}")
    area = geometry.enclosed_area(sample)
    note = " (advisory)" if geometry.area_advisory(sample, defect) else ""
    print(f"enclosed area: {area:.6g}{note}")
    print(f"wrote {out}")
    return 0


def cmd_print_config(args):
    cfg = effective_config(args)
    lines = [f"{key} = {_fmt(cfg[key])}" for key in _SCHEMA]
    if args.out:
        _write_lines(args.out, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output path")
    # invariants and reconstruct read no config, so only output is theirs
    config = argparse.ArgumentParser(add_help=False, parents=[output])
    config.add_argument("--config", help="path to a dotted-key config file")
    config.add_argument("--seed", type=int, help="override run.seed")
    config.add_argument("--tend", type=float, help="override stepper.t_end")
    # no convergence study reads stepper.dt, so the other config readers take --dt
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--dt", type=float, help="override stepper.dt")
    # only ensemble runs in parallel; simulate takes --workers 1 for a uniform CLI
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, help="parallel workers (ensemble)")

    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Stochastic curvature flows of planar curves in the curvature-length frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", parents=[common, workers], help="run one trajectory to JSON Lines"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "ensemble", parents=[common, workers], help="run many trajectories, aggregate"
    )
    p.set_defaults(func=cmd_ensemble)

    # no abbreviations, or --dt would be read as --dts
    p = sub.add_parser(
        "convergence", parents=[config], help="order-of-accuracy studies", allow_abbrev=False
    )
    p.add_argument("--study", choices=("time", "space", "strong"), default="time")
    p.add_argument("--dts", default="4e-4,2e-4,1e-4", help="time study dt levels")
    p.add_argument("--ns", default="32,64,128", help="space study grid sizes")
    p.add_argument("--paths", type=int, default=32, help="strong study ensemble size")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("invariants", parents=[output], help="run the invariant catalog")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reconstruct", parents=[output], help="state/trajectory file -> curve CSV")
    p.add_argument("--state", required=True, help="JSON state or simulate JSONL file")
    p.add_argument("--samples", type=int, help="polyline segments")
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
    except (ConfigError, StartRefused) as exc:  # input that no run can start from
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
