"""End-to-end tests for the command-line front end.

Every subcommand is exercised through ``main(argv)`` with outputs routed
into ``tmp_path``; exit codes, file formats, and determinism guarantees
are pinned exactly.
"""

from __future__ import annotations

import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curveflow import geometry, harness, integrator
from curveflow.flows import FlowSpec, State
from curveflow.grid import Grid
from curveflow.harness import ConfigError, default_config, load_config, main
from curveflow.integrator import TerminalStatus, run, run_ensemble
from curveflow.noise import BrownianDriver, NoiseModel

TWO_PI = 2.0 * math.pi

# deterministic shrinking-circle run: curve shortening under the scalar noise
# drags the length down until the Heun predictor crosses its stability bound
# and diverges -- a reproducible in-band numerical failure
FAILING_CFG = """\
flow.kind = curve_diffusion
grid.n = 16
noise.amplitude = 0.8
stepper.scheme = heun_stratonovich
stepper.dt = 2e-4
stepper.t_end = 2.0
stepper.snapshot_every = 1000
stop.l_min_factor = 1e-6
stop.l_max_factor = 1e6
stop.f_max_factor = 1e300
run.seed = 3
"""


def _cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_print_config_lists_all_defaults(capsys):
    assert main(["print-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(harness._SCHEMA) == 22
    assert [line.split(" = ")[0] for line in lines] == list(harness._SCHEMA)
    assert lines[0] == "flow.kind = willmore"
    assert "grid.topology = closed" in lines
    assert "stepper.dt = 0.0001" in lines


def test_readme_config_table_matches_print_config(capsys):
    # the README's key table lists what print-config prints, in its order
    # and with its default text
    assert main(["print-config"]) == 0
    printed = [tuple(line.split(" = ")) for line in capsys.readouterr().out.splitlines()]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| key | default | meaning |\n|---|---|---|\n"
    assert readme.count(head) == 1
    rows = readme.split(head)[1].split("\n\n")[0].splitlines()
    table = [tuple(cell.strip().strip("`") for cell in row.split("|")[1:3]) for row in rows]
    assert table == printed


def test_print_config_round_trips_through_load(tmp_path):
    out = str(tmp_path / "defaults.cfg")
    assert main(["print-config", "--out", out]) == 0
    assert load_config(out) == default_config()


def test_print_config_shows_overlay(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "grid.n = 48\n")
    assert main(["print-config", "--config", cfg]) == 0
    assert "grid.n = 48" in capsys.readouterr().out.splitlines()


def test_config_overlay_types_and_comments(tmp_path):
    cfg = load_config(
        _cfg_file(
            tmp_path,
            "# heading comment\n"
            "\n"
            "flow.kind = curve_diffusion\n"
            "grid.n=48\n"
            "noise.amplitude =   2.5e-1\n"
            "init.mode = 5\n",
        )
    )
    assert cfg["flow.kind"] == "curve_diffusion"
    assert cfg["grid.n"] == 48
    assert cfg["noise.amplitude"] == 0.25
    assert cfg["init.mode"] == 5
    assert cfg["stepper.dt"] == 1e-4  # untouched default


def test_config_unknown_key_reports_location(tmp_path):
    path = _cfg_file(tmp_path, "# one\n# two\nfoo.bar = 1\n")
    with pytest.raises(ConfigError, match="unknown config key 'foo.bar'"):
        load_config(path)
    with pytest.raises(ConfigError, match=":3:"):
        load_config(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("run.check_turning = true", "unknown config key"),
        ("grid.n = 4.5", "expected an integer"),
        ("stepper.dt = fast", "expected a number"),
        ("stepper.dt 1e-3", "expected 'key = value'"),
        ("flow.kind = mean_curvature", "must be one of"),
        ("stepper.scheme = explicit_em", "must be one of"),
        ("grid.dealias = false", "unknown config key"),
        ("grid.topology = open", "open curves were removed"),
    ],
)
def test_config_value_errors(tmp_path, text, message):
    path = _cfg_file(tmp_path, text + "\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_cli_overrides_take_precedence(tmp_path):
    cfg_path = _cfg_file(tmp_path, "run.seed = 1\nstepper.dt = 1e-3\nstepper.t_end = 1.0\n")
    parser = harness.build_parser()
    args = parser.parse_args(
        ["simulate", "--config", cfg_path, "--seed", "7", "--dt", "5e-4", "--tend", "0.25"]
    )
    cfg = harness.effective_config(args)
    assert cfg["run.seed"] == 7
    assert cfg["stepper.dt"] == 5e-4
    assert cfg["stepper.t_end"] == 0.25
    # without flags the file values stand
    cfg = harness.effective_config(parser.parse_args(["simulate", "--config", cfg_path]))
    assert (cfg["run.seed"], cfg["stepper.dt"], cfg["stepper.t_end"]) == (1, 1e-3, 1.0)


def test_workers_resolution_order():
    parser = harness.build_parser()
    assert harness.resolve_workers(parser.parse_args(["ensemble", "--workers", "3"])) == 3
    assert harness.resolve_workers(parser.parse_args(["ensemble"])) == 1
    with pytest.raises(ConfigError, match=">= 1"):
        harness.resolve_workers(parser.parse_args(["ensemble", "--workers", "0"]))


def test_split_indices_partitions():
    assert harness._split_indices(10, 3) == [(0, 4), (4, 3), (7, 3)]
    assert harness._split_indices(10, 1) == [(0, 10)]
    assert harness._split_indices(3, 5) == [(0, 1), (1, 1), (2, 1)]
    for total in (2, 7, 16, 33):
        for workers in (1, 2, 3, 8):
            chunks = harness._split_indices(total, workers)
            covered = [i for start, count in chunks for i in range(start, start + count)]
            assert covered == list(range(total))


def test_json_formatting_round_trips():
    for value in (1.0 / 3.0, 0.1, 1e-300, TWO_PI, -1.5e208):
        assert json.loads(harness._dumps(value)) == value
    assert harness._dumps(math.nan) == "null"
    assert harness._dumps(math.inf) == "null"
    assert harness._dumps(True) == "true"
    assert harness._dumps(np.bool_(False)) == "false"
    assert harness._dumps(np.int64(7)) == "7"
    assert harness._dumps(None) == "null"
    assert harness._dumps(np.array([1.5, math.nan])) == "[1.5,null]"
    assert harness._dumps({"b": 1, "a": [True, "x\"y"]}) == '{"b":1,"a":[true,"x\\"y"]}'
    with pytest.raises(TypeError):
        harness._dumps(object())


def _per_element(values, null=None):
    if null is None:
        return ",".join([format(x, ".17g") for x in values])
    return ",".join([format(x, ".17g") if math.isfinite(x) else null for x in values])


def _assert_same_cells(got, want):
    """got == want, else a failure that names the first differing cell: the
    diff pytest makes of two texts of megabytes takes minutes and gigabytes."""
    if got == want:
        return
    a, b = got.replace("\n", ",").split(","), want.replace("\n", ",").split(",")
    i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
    pytest.fail(f"cell {i}: {a[i : i + 1]} != {b[i : i + 1]} ({len(a)} and {len(b)} cells)")


def test_format_doubles_matches_per_element_format():
    """``_format_doubles`` forms the 17 digits of most doubles in exact
    integer arithmetic of its own; every cell must read as ``format(x,
    ".17g")``, the text CPython writes."""
    rng = np.random.default_rng(3)
    # a million random bit patterns with binary exponents from -16 to 52,
    # about 1.5e-5 to 9e15: the exact path's range and past both its ends
    mantissas = rng.integers(0, 2**52, 1_000_000, dtype=np.uint64)
    exponents = rng.integers(1023 - 16, 1023 + 53, mantissas.size)
    signs = rng.integers(0, 2, mantissas.size)
    patterns = (mantissas | (exponents + 2048 * signs).astype(np.uint64) << 52).view(np.float64)
    _assert_same_cells(harness._format_doubles(patterns), _per_element(patterns.tolist()))
    decades = 10.0 ** rng.uniform(-8.0, 18.0, 30_000)
    near_powers = [
        np.nextafter(10.0**k, toward) for k in range(-20, 21) for toward in (0.0, math.inf)
    ]
    rows = [
        # any 64 bits: every exponent, subnormals and NaN payloads included
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
        decades * rng.choice([-1.0, 1.0], decades.size),
        rng.standard_normal(256),
        rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64),
        np.array(near_powers + [float(f"1e{k}") for k in range(-20, 21)]),
        # ties of the 17th digit round to even, in fixed notation and beyond
        np.array([100000000000000.125, 100000000000000.375, 0.5, 2.5, -1000000000000000.25]),
        np.array([1000000000000000.25, 2251799813685247.5, 4503599627370495.5]),
        np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310]),
        np.array([1.7976931348623157e308, -1e300, 1e22, 2.0**53, 123456789.0, 0.1]),
        np.array([1.0, math.nan, -0.0, math.inf, -math.inf]),
        np.array([]),
    ]
    for row in rows:
        values = row.tolist()
        for null in (None, "null", ""):
            _assert_same_cells(harness._format_doubles(row, null=null), _per_element(values, null))
        _assert_same_cells(harness._dumps(row), "[" + _per_element(values, "null") + "]")
    table = np.stack([rows[2][:6], rows[3][:6], rows[9].tolist() + [2.5]], axis=1)
    # (700, 3) holds more values than one pass takes, and a pass ends mid-row
    tables = [table, table[:1], table[:, :1], np.empty((0, 3)), np.empty((3, 0))]
    tables.append(rng.standard_normal((700, 3)))
    for t in tables:
        for null in (None, "null", ""):
            want = "\n".join(_per_element(line, null) for line in t.tolist())
            _assert_same_cells(harness._format_doubles(t, null=null), want)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_trajectory_records(tmp_path, capsys):
    cfg_path = _cfg_file(
        tmp_path, "stepper.dt = 1e-4\nstepper.t_end = 0.01\nstepper.snapshot_every = 20\n"
    )
    out = str(tmp_path / "traj.jsonl")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == "status: reached_t"
    assert stdout[1] == f"wrote {out}"

    recs = _records(out)
    assert len(recs) == 8  # meta + snapshots at steps 0,20,...,100 + final
    meta, snaps, final = recs[0], recs[1:-1], recs[-1]

    assert meta["record"] == "meta"
    assert meta["command"] == "simulate"
    from curveflow import __version__

    assert meta["version"] == __version__
    assert list(meta["config"]) == list(harness._SCHEMA)
    assert meta["config"] == load_config(cfg_path)

    assert [s["record"] for s in snaps] == ["snapshot"] * 6
    assert [s["step"] for s in snaps] == [0, 20, 40, 60, 80, 100]
    first = snaps[0]
    assert list(first) == [
        "record",
        "step",
        "t",
        "length",
        "turning",
        "energy",
        "sup_curvature",
        "full_resolution",
        "f",
        "area",
        "closure_defect",
        "area_advisory",
    ]
    assert first["t"] == 0
    assert first["length"] == TWO_PI
    assert first["energy"] == math.pi
    assert first["sup_curvature"] == 1.0
    assert first["full_resolution"] is True
    assert first["f"] == [1.0] * 64
    assert abs(first["area"] - math.pi) < 1e-4
    assert first["closure_defect"] < 1e-9
    assert first["area_advisory"] is False

    # shrinking-circle radius obeys the quartic growth law for the length
    reference = TWO_PI * (1.0 + 2.0 * 0.01) ** 0.25
    assert abs(snaps[-1]["length"] - reference) / reference < 1e-5

    assert final == {
        "record": "final",
        "status": "reached_t",
        "steps": 100,
        "stability_warning": False,
    }


def _workload_config(name, seed=201):
    """The config text of a benchmark workload (perfbench/workloads.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.config_text(workloads.WORKLOADS[name], seed)


def test_simulate_state_fields_are_per_element_17_digits(tmp_path):
    """Every double of every snapshot record, f's values, area and
    closure_defect included, reads as format(x, ".17g") of the in-process
    run's value and of a single reconstruction of its state: a reference
    apart from the kernel that ``_format_doubles`` and ``_dumps`` share.  On
    a noisy n = 32 run and on the benchmark's path_snapshots config."""
    spectral = (
        "grid.n = 32\n"
        "noise.mode = spectral\n"
        "noise.amplitude = 0.1\n"
        "stepper.dt = 1e-4\n"
        "stepper.t_end = 0.005\n"
        "stepper.snapshot_every = 10\n"
        "init.kind = perturbed_circle\n"
        "run.seed = 9\n"
    )
    for source, count in ((spectral, 6), (_workload_config("path_snapshots"), 301)):
        cfg_path = _cfg_file(tmp_path, source)
        out = tmp_path / "traj.jsonl"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        grid, spec, stepper, state, stop = harness._setup(cfg)
        driver = BrownianDriver(cfg["run.seed"], 0) if spec.noise.amplitude > 0 else None
        traj = run(spec, grid, state, stepper, stop=stop, driver=driver)
        lines = out.read_text().splitlines()[1:-1]
        assert len(lines) == len(traj.snapshots) == count
        for line, snap in zip(lines, traj.snapshots):
            sample = geometry.reconstruct(grid, State(snap.f, snap.length))
            defect = geometry.closure_defect(sample)
            advisory = "true" if geometry.area_advisory(sample, defect) else "false"
            scalars = (snap.time, snap.length, snap.turning, snap.energy, snap.sup_f)
            t, length, turning, energy, sup = (format(x, ".17g") for x in scalars)
            area = format(float(geometry.enclosed_area(sample)), ".17g")
            defect = format(float(defect), ".17g")
            assert line == (
                f'{{"record":"snapshot","step":{snap.step},"t":{t},"length":{length},'
                f'"turning":{turning},"energy":{energy},"sup_curvature":{sup},'
                f'"full_resolution":true,"f":[{_per_element(snap.f.tolist())}],'
                f'"area":{area},"closure_defect":{defect},"area_advisory":{advisory}}}'
            )


@pytest.mark.parametrize("n, steps, records, full", [(64, 40, 41, 41), (512, 6, 8, 1)])
def test_simulate_reconstructs_snapshots_in_blocks(tmp_path, monkeypatch, n, steps, records, full):
    """simulate reconstructs its full-resolution snapshots as stacks of
    _BLOCK_VALUES // (m + 1) rows (15 at m = 1024): one reconstruct call per
    block, each record's geometry that of a single reconstruction of its
    state.  Past n = 256 only the final snapshot is full, an extra record
    after the decimated one of the same step."""
    calls = []
    reconstruct = geometry.reconstruct
    monkeypatch.setattr(
        geometry, "reconstruct", lambda grid, state: calls.append(1) or reconstruct(grid, state)
    )
    cfg_path = _cfg_file(
        tmp_path,
        f"grid.n = {n}\nstepper.dt = 1e-6\nstepper.t_end = {steps}e-6\n"
        "stepper.snapshot_every = 1\ninit.kind = perturbed_circle\n",
    )
    out = str(tmp_path / "traj.jsonl")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    snaps = _records(out)[1:-1]
    assert len(snaps) == records
    rows = integrator._BLOCK_VALUES // (max(n, 1024) + 1)
    assert len(calls) == -(-full // rows)
    grid = Grid(n)
    assert sum(rec["full_resolution"] for rec in snaps) == full
    for rec in snaps:
        if not rec["full_resolution"]:
            assert "area" not in rec
            continue
        sample = reconstruct(grid, State(np.array(rec["f"]), rec["length"]))
        assert rec["area"] == geometry.enclosed_area(sample)
        assert rec["closure_defect"] == geometry.closure_defect(sample)
        assert rec["area_advisory"] == geometry.area_advisory(sample)


def _snapshot_dict(grid, snap):
    """A snapshot's record as a dict, in the key order of its line, with the
    geometry of its own single reconstruction: the reference that
    ``_snapshot_records``' lines must match through ``_dumps``."""
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
    if snap.f.shape[-1] == grid.n:
        sample = geometry.reconstruct(grid, State(snap.f, snap.length))
        defect = geometry.closure_defect(sample)
        rec["area"] = geometry.enclosed_area(sample)
        rec["closure_defect"] = defect
        rec["area_advisory"] = geometry.area_advisory(sample, defect)
    return rec


_STRIDED_CFG = (
    "grid.n = 512\nstepper.dt = 1e-6\nstepper.t_end = 6e-6\nstepper.snapshot_every = 1\n"
    "init.kind = perturbed_circle\n"
)
_HALTING_CFG = "stop.l_max_factor = 1.01\nstepper.t_end = 0.1\nstepper.dt = 1e-4\n"


@pytest.mark.parametrize(
    "source",
    ["path_spectral", "ensemble_scalar", "path_snapshots", _STRIDED_CFG, _HALTING_CFG],
    ids=["path_spectral", "ensemble_scalar", "path_snapshots", "strided_n512", "halted"],
)
def test_snapshot_lines_equal_dumps_of_their_records(tmp_path, capsys, source):
    """simulate's snapshot lines, their f fields formatted a block at a time,
    are byte for byte ``_dumps`` of the record dict, on the benchmark's three configs (the
    ensemble one run as a single path), decimated snapshots at n = 512, and a
    run that halts on its stop window."""
    if source in ("path_spectral", "ensemble_scalar", "path_snapshots"):
        source = _workload_config(source)
    cfg_path = _cfg_file(tmp_path, source)
    out = tmp_path / "traj.jsonl"
    code = main(["simulate", "--config", cfg_path, "--out", str(out)])
    capsys.readouterr()
    cfg = load_config(cfg_path)
    grid, spec, stepper, state, stop = harness._setup(cfg)
    driver = BrownianDriver(cfg["run.seed"], 0) if spec.noise.amplitude > 0 else None
    traj = run(spec, grid, state, stepper, stop=stop, driver=driver)
    assert code == (0 if traj.terminal_status is TerminalStatus.REACHED_T else 4)
    want = [harness._dumps(_snapshot_dict(grid, snap)) for snap in traj.snapshots]
    assert out.read_text().splitlines()[1:-1] == want
    assert list(harness._snapshot_records(grid, traj.snapshots)) == want
    if source is _STRIDED_CFG:
        assert [snap.full_resolution for snap in traj.snapshots] == [False] * 7 + [True]
    if source is _HALTING_CFG:
        assert traj.terminal_status is TerminalStatus.BLOWUP_LENGTH_INFINITE
        assert traj.snapshots[-1].step % stepper.snapshot_every != 0


def test_snapshot_line_spells_a_non_finite_value_null():
    # hand-made snapshots of the unit circle, full and decimated, with an
    # energy that overflowed either way and one that did not, and a decimated
    # field holding a NaN
    grid = Grid(16)
    fields = [np.ones(16), np.ones(8), np.array([1.0, np.nan] * 4)]
    snaps = [
        integrator.Snapshot(
            time=0.5, length=TWO_PI, turning=TWO_PI, energy=energy, sup_f=1.0,
            f=f, step=3, full_resolution=f.size == grid.n,
        )
        for energy in (math.inf, -math.inf, math.pi)
        for f in fields
    ]
    lines = list(harness._snapshot_records(grid, snaps))
    assert lines == [harness._dumps(_snapshot_dict(grid, snap)) for snap in snaps]
    records = [json.loads(line) for line in lines]
    assert [rec["energy"] for rec in records] == [None] * 6 + [math.pi] * 3
    assert records[-1]["f"] == [1.0, None] * 4


def test_simulate_seed_override_and_rerun_identical(tmp_path):
    cfg_path = _cfg_file(
        tmp_path,
        "flow.kind = curve_diffusion\n"
        "grid.n = 32\n"
        "noise.amplitude = 0.4\n"
        "stepper.dt = 1e-3\n"
        "stepper.t_end = 0.05\n"
        "stepper.snapshot_every = 10\n"
        "run.seed = 11\n",
    )
    out1 = str(tmp_path / "a.jsonl")
    out2 = str(tmp_path / "b.jsonl")
    assert main(["simulate", "--config", cfg_path, "--seed", "7", "--out", out1]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "7", "--out", out2]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    recs = _records(out1)
    assert recs[0]["config"]["run.seed"] == 7
    assert recs[-1]["status"] == "reached_t"
    # closed-curve turning is conserved up to the weak discretization error
    assert max(abs(r["turning"] - TWO_PI) for r in recs[1:-1]) < 0.05


def test_simulate_stops_on_length_growth(tmp_path, capsys):
    cfg_path = _cfg_file(
        tmp_path, "stop.l_max_factor = 1.01\nstepper.t_end = 0.1\nstepper.dt = 1e-4\n"
    )
    out = str(tmp_path / "blow.jsonl")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 4
    assert capsys.readouterr().out.splitlines()[0] == "status: blowup_length_infinite"
    recs = _records(out)
    assert recs[-1]["status"] == "blowup_length_infinite"
    assert 0 < recs[-1]["steps"] < 1000
    assert recs[-2]["length"] > TWO_PI * 1.0099


def test_simulate_reports_numerical_failure(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, FAILING_CFG)
    out = str(tmp_path / "fail.jsonl")
    with pytest.warns(UserWarning, match="stability bound mid-run"):
        rc = main(["simulate", "--config", cfg_path, "--out", out])
    assert rc == 3
    assert capsys.readouterr().out.splitlines()[0] == "status: numerical_failure"
    recs = _records(out)
    assert recs[-1]["status"] == "numerical_failure"
    assert recs[-1]["stability_warning"] is True
    assert recs[-1]["steps"] > 0


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, "stepper.dt 1e-3\n")
    out = str(tmp_path / "never.jsonl")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "never.jsonl").exists()


def test_simulate_rejects_unstable_dt(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, "stepper.dt = 0.05\nstepper.t_end = 0.1\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "stability bound" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("value", ["2", "-1", "0"])
def test_scalar_noise_rejects_turning_other_than_two_pi(tmp_path, capsys, value):
    # a constant curvature v on a length-2*pi curve turns by 2*pi*v.  run and
    # run_ensemble hold the rule; the CLI refuses v = 0, a straight segment,
    # before the rule is reached (see test_states_that_cannot_close_exit_2)
    cfg = default_config()
    cfg.update({"init.kind": "constant", "noise.amplitude": 0.3})
    grid, spec = harness.build_grid(cfg), harness.build_spec(cfg)
    stepper = harness.build_stepper(cfg)
    f = np.full(grid.n, float(value))
    with pytest.raises(ValueError, match="scalar noise requires"):
        run(spec, grid, State(f, TWO_PI), stepper, driver=BrownianDriver(1, 0))
    with pytest.raises(ValueError, match="scalar noise requires"):
        run_ensemble(spec, grid, f, TWO_PI, stepper, 2, 1)
    if value == "0":
        return
    cfg_path = _cfg_file(
        tmp_path, f"init.kind = constant\ninit.value = {value}\nnoise.amplitude = 0.3\n"
    )
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert "scalar noise requires" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize(
    "text, key",
    [
        # ends 0.31 apart on a unit-radius curve at the default epsilon 0.1
        ("init.kind = perturbed_circle\ninit.mode = 1\n", "init.mode"),
        # a straight segment: closure defect L
        ("init.kind = constant\ninit.value = 0\n", "init.value"),
        # mode n samples as 1 at every node: f = 0 there, a straight segment
        ("init.kind = perturbed_circle\ninit.mode = 64\ninit.epsilon = -1\n", "init.mode"),
        # turns by 2*pi*1e-7, whose nearest whole number of turns is 0: the
        # turning rule would take it, and it would run as a straight segment
        ("init.kind = constant\ninit.value = 1e-7\n", "init.value"),
    ],
    ids=["mode_one", "straight_segment", "aliased_mode", "nearly_straight"],
)
def test_states_that_cannot_close_exit_2(tmp_path, capsys, text, key):
    cfg_path = _cfg_file(tmp_path, text)
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")
        assert not (tmp_path / out).exists()


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

ENSEMBLE_CFG = """\
flow.kind = curve_diffusion
grid.n = 16
noise.amplitude = 0.2
stepper.dt = 1e-3
stepper.t_end = 0.02
stepper.snapshot_every = 5
run.trajectories = 4
run.seed = 42
"""


def test_ensemble_outputs_and_aggregation(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, ENSEMBLE_CFG)
    out = str(tmp_path / "ens.json")
    assert main(["ensemble", "--config", cfg_path, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "paths: 4" in stdout

    summary = json.loads((tmp_path / "ens.json").read_text())
    assert summary["record"] == "ensemble_summary"
    assert summary["command"] == "ensemble"
    assert summary["n_paths"] == 4
    assert summary["times"] == [0, 0.005, 0.01, 0.015, 0.02]
    assert summary["n_active"] == [4, 4, 4, 4, 4]
    assert summary["status_counts"]["reached_t"] == 4
    assert sum(summary["status_counts"].values()) == 4
    assert summary["blowup_fraction"] == 0

    # the aggregates must match an in-process reference run bit for bit
    cfg = load_config(cfg_path)
    grid = harness.build_grid(cfg)
    spec = harness.build_spec(cfg)
    stepper = harness.build_stepper(cfg)
    state = harness.build_state(cfg, grid)
    result = run_ensemble(
        spec,
        grid,
        state.f,
        state.length,
        stepper,
        4,
        42,
        stop=harness.build_stop(cfg, state),
    )
    assert np.array_equal(summary["mean_length"], result.lengths.mean(axis=1))
    assert np.array_equal(summary["var_length"], result.lengths.var(axis=1, ddof=1))
    assert np.array_equal(
        summary["stderr_length"], np.sqrt(result.lengths.var(axis=1, ddof=1) / 4.0)
    )
    assert np.array_equal(summary["mean_energy"], result.energies.mean(axis=1))

    table = (tmp_path / "ens.csv").read_text().splitlines()
    assert table[0] == "t,mean_length,var_length,stderr_length,mean_energy,n_active"
    assert len(table) == 6
    first = table[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == TWO_PI
    assert first[5] == "4"

    paths = (tmp_path / "ens_paths.csv").read_text().splitlines()
    assert paths[0] == "path,status,stop_time,final_length"
    assert len(paths) == 5
    for i, row in enumerate(paths[1:]):
        index, status, stop_time, final_length = row.split(",")
        assert index == str(i)
        assert status == "reached_t"
        assert stop_time == ""  # never stopped early
        assert float(final_length) == result.final_lengths[i]


def test_ensemble_tables_are_per_cell_17_digits(tmp_path):
    # strong noise and a narrow length window stop some paths early, so both
    # stop_time spellings and a falling n_active column appear
    cfg_path = _cfg_file(
        tmp_path,
        ENSEMBLE_CFG.replace("noise.amplitude = 0.2", "noise.amplitude = 3.0").replace(
            "run.trajectories = 4", "run.trajectories = 24"
        )
        + "stop.l_min_factor = 0.7\nstop.l_max_factor = 1.3\n",
    )
    out = str(tmp_path / "ens.json")
    assert main(["ensemble", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(cfg_path)
    grid = harness.build_grid(cfg)
    state = harness.build_state(cfg, grid)
    result = run_ensemble(
        harness.build_spec(cfg),
        grid,
        state.f,
        state.length,
        harness.build_stepper(cfg),
        24,
        42,
        stop=harness.build_stop(cfg, state),
    )
    stopped = ~np.isnan(result.stop_times)
    assert 0 < stopped.sum() < 24

    lengths, energies = result.lengths, result.energies
    columns = zip(
        result.times,
        lengths.mean(axis=1),
        lengths.var(axis=1, ddof=1),
        np.sqrt(lengths.var(axis=1, ddof=1) / 24),
        energies.mean(axis=1),
    )
    table = ["t,mean_length,var_length,stderr_length,mean_energy,n_active"]
    for row, active in zip(columns, result.active.sum(axis=1)):
        table.append(",".join(format(x, ".17g") for x in row) + f",{int(active)}")
    assert (tmp_path / "ens.csv").read_text() == "\n".join(table) + "\n"

    rows = ["path,status,stop_time,final_length"]
    for i, status in enumerate(result.statuses):
        stop = format(result.stop_times[i], ".17g") if stopped[i] else ""
        rows.append(f"{i},{status.value},{stop},{format(result.final_lengths[i], '.17g')}")
    assert (tmp_path / "ens_paths.csv").read_text() == "\n".join(rows) + "\n"


def test_ensemble_identical_across_worker_counts(tmp_path):
    cfg_path = _cfg_file(tmp_path, ENSEMBLE_CFG)
    blobs = []
    for tag, extra in (("w1", []), ("w2", ["--workers", "2"]), ("w3", ["--workers", "3"])):
        out = str(tmp_path / f"{tag}.json")
        assert main(["ensemble", "--config", cfg_path, "--out", out] + extra) == 0
        blobs.append(
            tuple(
                (tmp_path / f"{tag}{suffix}").read_bytes()
                for suffix in (".json", ".csv", "_paths.csv")
            )
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_single_worker_calls_start_without_the_process_pool(tmp_path):
    # a fresh interpreter, since this test process may have loaded the pool
    cfg_path = _cfg_file(tmp_path, ENSEMBLE_CFG)
    simulate = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "t.jsonl")]
    ensemble = ["ensemble", "--config", cfg_path, "--out", str(tmp_path / "e.json")]
    code = (
        "import sys\n"
        "import curveflow\n"
        "from curveflow import harness\n"
        f"assert harness.main({simulate!r}) == 0\n"
        f"assert harness.main({ensemble + ['--workers', '1']!r}) == 0\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "t.jsonl").exists() and (tmp_path / "e_paths.csv").exists()


def test_noise_basis_the_grid_aliases_exits_2(tmp_path, capsys):
    # at 16 nodes the default basis of 40 modes reaches wavenumber 20
    text = "grid.n = 16\nnoise.mode = spectral\nnoise.n_modes = 40\nnoise.amplitude = 0.01\n"
    cfg_path = _cfg_file(tmp_path, text)
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert "wavenumber 20 is not below n/2 = 8" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize("scheme", ["imex_em", "heun_stratonovich"])
def test_tiny_radius_exits_2(tmp_path, capsys, scheme):
    # sup|f| = 1e200 squares past the largest double: the stability bound
    # reads 0 and refuses the run as a config error, without an overflow warning
    cfg_path = _cfg_file(tmp_path, f"init.radius = 1e-200\nstepper.scheme = {scheme}\n")
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert "stability bound 0 " in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("init.radius = 1e200\n", "init.radius"),
        ("init.kind = perturbed_circle\ninit.radius = 1e200\n", "init.radius"),
        (
            f"init.kind = constant\ninit.length = 1e200\ninit.value = {TWO_PI / 1e200!r}\n",
            "init.length",
        ),
    ],
)
def test_huge_initial_curve_exits_2(tmp_path, capsys, text, key):
    # a length of about 6e200 squares past the largest double, so the
    # curve's area would overflow: the setting that sized it is refused
    cfg_path = _cfg_file(tmp_path, text)
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert f"{key} = 1e+200: the curve's length squared overflows" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize(
    "key, factor",
    [("stop.l_min_factor", 2.0), ("stop.l_max_factor", 0.5), ("stop.f_max_factor", 0.5)],
)
def test_stop_window_excluding_the_start_exits_2(tmp_path, capsys, key, factor):
    # the unit circle, of length 2*pi and sup|f| = 1, lies outside each
    # window: the run would stop after one step and report a blow-up
    cfg_path = _cfg_file(tmp_path, f"{key} = {factor}\n")
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} = {factor:g}: ")
        assert not (tmp_path / out).exists()
    # a factor of exactly 1 puts the start on the window's edge, which runs
    cfg = default_config()
    cfg[key] = 1.0
    harness.build_stop(cfg, harness.build_state(cfg, harness.build_grid(cfg)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("stop.l_min_factor = nan", "stop.l_min_factor = nan: must be positive and finite"),
        ("stop.f_max_factor = nan", "stop.f_max_factor = nan: must be positive and finite"),
        (
            "stop.l_max_factor = 0.0001",
            "stop.l_max_factor = 0.0001: must exceed stop.l_min_factor = 0.001",
        ),
        (
            "init.kind = constant\ninit.length = 0.6\ninit.value = 10.471975511965978\n"
            "stop.l_min_factor = 5e-324\nstop.l_max_factor = 1e-323",
            "stop.l_max_factor = 9.88131e-324: times the initial length 0.6, the bound "
            "4.94066e-324 does not exceed the stop.l_min_factor bound 4.94066e-324",
        ),
        (
            "init.radius = 0.05\nstop.l_min_factor = 5e-324",
            "stop.l_min_factor = 4.94066e-324: times the initial length 0.314159, "
            "the bound underflows to 0",
        ),
    ],
)
def test_invalid_stop_factor_exits_2_naming_its_key(tmp_path, capsys, text, message):
    # checked before the window is built, so the message names the config
    # key rather than a field of StopCriteria; a positive factor whose bound
    # underflows is refused too
    cfg_path = _cfg_file(tmp_path, text + "\n")
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / out).exists()


def test_ensemble_needs_at_least_two_paths(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, "run.trajectories = 1\n")
    assert main(["ensemble", "--config", cfg_path, "--out", str(tmp_path / "x.json")]) == 2
    assert "must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_ensemble_rejects_zero_workers(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, ENSEMBLE_CFG)
    rc = main(["ensemble", "--config", cfg_path, "--out", str(tmp_path / "x.json"), "--workers", "0"])
    assert rc == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_workers_flag_only_where_it_applies(tmp_path, capsys):
    cfg_path = _cfg_file(tmp_path, "stepper.t_end = 0.001\n")
    out = str(tmp_path / "t.jsonl")
    rc = main(["simulate", "--config", cfg_path, "--out", out, "--workers", "5"])
    assert rc == 2
    assert "a single trajectory runs on one worker" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()
    assert main(["simulate", "--config", cfg_path, "--out", out, "--workers", "1"]) == 0
    # convergence and print-config run nothing in parallel: a usage error
    for command in ("convergence", "print-config"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "1"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_time_study_first_order_against_circle(tmp_path, capsys):
    out = str(tmp_path / "time.json")
    assert main(["convergence", "--study", "time", "--out", out]) == 0
    assert "passed: True" in capsys.readouterr().out
    report = json.loads((tmp_path / "time.json").read_text())
    assert report["record"] == "convergence"
    assert report["study"] == "time"
    assert report["reference"] == "analytic_circle"
    assert report["converged_to_roundoff"] is False
    assert report["errors"][0] > report["errors"][1] > report["errors"][2] > 0
    assert 0.9 <= report["slope"] <= 1.5
    assert report["passed"] is True
    # no study reads stepper.dt, so --dt is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--study", "time", "--dt", "1", "--out", out])
    assert exc.value.code == 2


@pytest.mark.parametrize("flow", ["willmore", "curve_diffusion"])
def test_time_study_first_order_against_fine_dt(flow):
    # no analytic law off the Willmore circle: the reference is a run at a
    # quarter of the finest dt
    cfg = default_config()
    cfg["flow.kind"] = flow
    cfg["init.kind"] = "perturbed_circle"
    report = harness._study_time(cfg, [4e-4, 2e-4, 1e-4])
    assert report["reference"] == "fine_dt"
    assert report["errors"][0] > report["errors"][1] > report["errors"][2] > 0
    assert 0.9 <= report["slope"] <= 1.5
    assert report["passed"] is True


def test_space_study_spectral_collapse(tmp_path):
    out = str(tmp_path / "space.json")
    assert main(["convergence", "--study", "space", "--ns", "32,64,128", "--out", out]) == 0
    report = json.loads((tmp_path / "space.json").read_text())
    assert report["study"] == "space"
    assert report["ns"] == [32, 64, 128]
    assert report["reference_n"] == 256
    assert len(report["errors"]) == 3
    assert report["ratios"][0] > 10.0
    assert report["passed"] is True


@pytest.mark.parametrize("kind", ["willmore", "curve_diffusion"])
def test_space_convergence_stays_above_roundoff(kind):
    """The space study's setup on a rougher start, pole 0.85, where every
    level's error lies far above round-off: each doubling of n, 32 -> 64 on
    the dense route of the stiff solve and 64 -> 128 onto the FFT route,
    cuts the error by more than 10 with no floor to fall back on."""
    spec = FlowSpec(kind, NoiseModel())
    stepper = integrator.StepperConfig(integrator.IMEX_EM, 1e-5, 2e-3, 10**9)

    def evolve(n):
        grid = Grid(n)
        return run(spec, grid, harness._poisson_state(grid, pole=0.85), stepper).final_state.f

    f_ref = evolve(256)
    errors = [np.abs(evolve(n) - f_ref[:: 256 // n]).max() for n in (32, 64, 128)]
    assert errors[-1] > 1e-11  # above round-off: the ratios measure truncation
    assert all(coarse > 10.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


def test_strong_study_pathwise_order(tmp_path):
    out = str(tmp_path / "strong.json")
    assert main(["convergence", "--study", "strong", "--paths", "16", "--out", out]) == 0
    report = json.loads((tmp_path / "strong.json").read_text())
    assert report["study"] == "strong"
    assert report["n_paths"] == 16
    assert report["dt_fine"] == 1e-4
    assert report["dts"] == [8e-4, 4e-4, 2e-4]
    assert all(err > 0 for err in report["errors"])
    assert report["slope"] >= 0.4
    assert report["passed"] is True


def test_strong_study_rejects_stopped_paths(monkeypatch):
    # a path that stops keeps its state from then on, so its terminal length
    # no longer measures the scheme's pathwise error
    def one_stopped(*args, **kwargs):
        result = run_ensemble(*args, **kwargs)
        result.statuses[0] = TerminalStatus.BLOWUP_LENGTH_ZERO
        return result

    monkeypatch.setattr(harness, "run_ensemble", one_stopped)
    with pytest.raises(ConfigError, match="stopped early"):
        harness._study_strong(default_config(), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--study", "time", "--dts", "4e-4,2e-4"],
        ["convergence", "--study", "time", "--dts", "a,b,c"],
        ["convergence", "--study", "time", "--dts=-1e-4,-2e-4,-4e-4"],
        ["convergence", "--study", "space", "--ns", "32,48,128"],
        # repeated levels would give a degenerate fit or a ratio of 1
        ["convergence", "--study", "time", "--dts", "1e-4,1e-4,1e-4"],
        ["convergence", "--study", "space", "--ns", "32,32,64"],
        # levels are grid sizes before they are divisors of the reference
        ["convergence", "--study", "space", "--ns", "0,32,64"],
        ["convergence", "--study", "space", "--ns", "6,32,64"],
    ],
)
def test_convergence_rejects_bad_levels(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--study", "space", "--ns", "32,64"], "space study needs at least 3 grid levels, got 2"),
        (["--study", "space", "--ns", "32,x"], "expected comma-separated integers, got '32,x'"),
        (["--study", "strong", "--paths", "1"], "strong study needs at least 2 paths, got 1"),
    ],
    ids=["two-grid-levels", "non-integer-level", "one-path"],
)
def test_convergence_refusals_name_the_fault(tmp_path, capsys, argv, message):
    out = tmp_path / "x.json"
    assert main(["convergence", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

CHECK_NAMES = [
    "circle_law_length",
    "circle_law_curvature",
    "circle_stationary_curvature",
    "circle_stationary_length",
    "area_conservation",
    "length_monotonicity",
    "energy_dissipation",
    "turning_number[circle/bending]",
    "turning_number[circle/diffusion]",
    "turning_number[perturbed/diffusion]",
    "turning_number[perturbed/bending]",
    "diffusion_coefficient",
    "spectral_degeneracy",
    "closure_defect",
    "circle_area",
    "reconstruction_equivariance",
    "stop_statuses",
    "nonfinite_snapshots",
    "flipped_sign_energy_dissipation",
]


def test_invariant_catalog_passes(tmp_path, capsys):
    blobs = []
    for name in ("inv1", "inv2"):
        out = tmp_path / f"{name}.json"
        assert main(["invariants", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    # every check has fixed settings and generators
    assert blobs[0] == blobs[1]
    stdout = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in stdout) == 2 * len(CHECK_NAMES)
    report = json.loads(blobs[0])
    assert report["record"] == "invariants"
    assert report["all_passed"] is True
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert all(c["passed"] for c in report["checks"])
    # the catalog reads no config, so config flags are usage errors
    for flag in ("--seed", "--dt", "--workers", "--config"):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", flag, "1"])
        assert exc.value.code == 2


def test_invariants_reports_a_failing_check(tmp_path, capsys, monkeypatch):
    from curveflow import checks

    failing = {"name": "energy_dissipation", "value": 0.5, "bound": 1e-8, "passed": False}
    monkeypatch.setattr(checks, "catalog", lambda: [failing])
    out = tmp_path / "invfail.json"
    assert main(["invariants", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out.splitlines()
    assert [line for line in stdout if line.startswith("FAIL")] == [
        "FAIL  energy_dissipation: 0.5 (bound 1e-08)"
    ]
    report = json.loads(out.read_text())
    assert report == {"record": "invariants", "checks": [failing], "all_passed": False}
    # the flag that flipped the fourth-order sign is gone
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--flip-stiff-sign"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_from_trajectory_file(tmp_path):
    cfg_path = _cfg_file(
        tmp_path, "stepper.dt = 1e-4\nstepper.t_end = 0.01\nstepper.snapshot_every = 20\n"
    )
    traj = str(tmp_path / "traj.jsonl")
    assert main(["simulate", "--config", cfg_path, "--out", traj]) == 0

    csv_path = str(tmp_path / "curve.csv")
    assert main(["reconstruct", "--state", traj, "--out", csv_path, "--samples", "64"]) == 0
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) == 66  # closed polyline: samples + 1 points
    points = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    center = points[:-1].mean(axis=0)
    radii = np.hypot(*(points - center).T)
    assert abs(radii - (1.0 + 2.0 * 0.01) ** 0.25).max() < 1e-5


def test_reconstruct_from_plain_state(tmp_path):
    state_path = tmp_path / "state.json"
    csv_path = str(tmp_path / "c.csv")
    state = {"f": [1.0] * 64, "length": TWO_PI, "topology": "closed"}
    for indent in (None, 2):  # compact and pretty-printed JSON
        state_path.write_text(json.dumps(state, indent=indent))
        assert main(["reconstruct", "--state", str(state_path), "--out", csv_path]) == 0
        rows = (tmp_path / "c.csv").read_text().splitlines()
        assert len(rows) == 1026  # default refinement of a 64-node circle

    rc = main(
        [
            "reconstruct",
            "--state",
            str(state_path),
            "--out",
            csv_path,
            "--anchor",
            "2.0,-1.0",
            "--theta0",
            "0.5",
            "--samples",
            "128",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()
    assert len(rows) == 130
    assert rows[1] == "2,-1"


def test_reconstruct_error_paths(tmp_path, capsys):
    missing_field = tmp_path / "bad.json"
    missing_field.write_text(json.dumps({"length": 1.0}))
    assert main(["reconstruct", "--state", str(missing_field)]) == 2

    assert main(["reconstruct", "--state", str(tmp_path / "absent.json")]) == 2

    decimated = tmp_path / "decimated.jsonl"
    decimated.write_text(
        '{"record":"meta","version":"x","command":"simulate",'
        '"config":{"grid.topology":"closed"}}\n'
        '{"record":"snapshot","step":0,"t":0,"length":6.28,"turning":6.28,'
        '"energy":3.14,"sup_curvature":1,"full_resolution":false,"f":[1,1,1,1]}\n'
    )
    assert main(["reconstruct", "--state", str(decimated)]) == 2
    assert "no full-resolution snapshot" in capsys.readouterr().err

    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"f": [1.0] * 16, "length": TWO_PI}))
    assert main(["reconstruct", "--state", str(state_path), "--anchor", "1.0"]) == 2

    # a state or sample count that the grid or the reconstruction refuses
    # is input as well
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"f": [1.0] * 6, "length": TWO_PI}))
    assert main(["reconstruct", "--state", str(short)]) == 2
    assert "grid needs an even n >= 8" in capsys.readouterr().err
    assert main(["reconstruct", "--state", str(state_path), "--samples", "3"]) == 2
    assert "samples must be an even number" in capsys.readouterr().err

    # reconstruct reads no config: the shared config flags are usage errors
    for flags in (
        ["--config", "absent.cfg"],
        ["--dt", "5"],
        ["--workers", "3"],
        ["--seed", "9"],
        ["--tend", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--state", str(state_path), *flags])
        assert exc.value.code == 2


_SNAPSHOT = (
    '{"record":"snapshot","step":0,"t":0,"length":6.28,"turning":6.28,'
    '"energy":3.14,"sup_curvature":1,"full_resolution":true,"f":' + json.dumps([1.0] * 16) + "}"
)


@pytest.mark.parametrize(
    "meta, snapshot, message",
    [
        ('{"record":"meta","config":{}}', _SNAPSHOT, "no config.grid.topology"),
        ('{"record":"meta"}', _SNAPSHOT, "no config.grid.topology"),
        (
            '{"record":"meta","config":{"grid.topology":"closed"}}',
            _SNAPSHOT.replace('"f":', '"g":'),
            "needs 'f' and 'length'",
        ),
        (
            '{"record":"meta","config":{"grid.topology":"closed"}}',
            _SNAPSHOT.replace('"length":', '"size":'),
            "needs 'f' and 'length'",
        ),
    ],
    ids=["empty-config", "no-config", "snapshot-without-f", "snapshot-without-length"],
)
def test_reconstruct_rejects_incomplete_records(tmp_path, capsys, meta, snapshot, message):
    path = tmp_path / "traj.jsonl"
    path.write_text(meta + "\n" + snapshot + "\n")
    assert main(["reconstruct", "--state", str(path), "--out", str(tmp_path / "c.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", " is empty"),
        (
            json.dumps({"f": [[1, 1], [1, 1]], "length": TWO_PI}),
            ": 'f' must be a flat list of numbers",
        ),
        (json.dumps({"f": ["a", "b"], "length": TWO_PI}), ": 'f' and 'length' must be numbers"),
        # JSON text and booleans that float() would take as numbers
        (
            json.dumps({"f": ["1"] * 16, "length": str(TWO_PI)}),
            ": 'f' and 'length' must be numbers",
        ),
        (json.dumps({"f": [True] * 16, "length": True}), ": 'f' and 'length' must be numbers"),
        (
            json.dumps({"f": [1.0] * 16, "length": 10**400}),
            ": 'f' and 'length' must fit a double",
        ),
    ],
    ids=["empty", "nested-f", "text-f", "numeric-text", "booleans", "huge-length"],
)
def test_reconstruct_rejects_malformed_state_files(tmp_path, capsys, text, message):
    path = tmp_path / "state.json"
    path.write_text(text)
    assert main(["reconstruct", "--state", str(path), "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: state file {path}{message}")
    assert not (tmp_path / "c.csv").exists()


def test_reconstruct_names_the_malformed_line(tmp_path, capsys):
    path = tmp_path / "traj.jsonl"
    meta = '{"record":"meta","config":{"grid.topology":"closed"}}'
    path.write_text(meta + "\n" + _SNAPSHOT[:40] + "\n")  # a truncated snapshot
    assert main(["reconstruct", "--state", str(path), "--out", str(tmp_path / "c.csv")]) == 2
    assert f"{path}:2: malformed JSON" in capsys.readouterr().err


def test_reconstruct_rejects_open_states(tmp_path, capsys):
    plain = tmp_path / "open.json"
    plain.write_text(json.dumps({"f": [0.5] * 16, "length": 2.0, "topology": "open"}))
    trajectory = tmp_path / "open.jsonl"
    trajectory.write_text(
        '{"record":"meta","version":"x","command":"simulate",'
        '"config":{"grid.topology":"open"}}\n'
        '{"record":"snapshot","step":0,"t":0,"length":2,"turning":1,'
        '"energy":0.25,"sup_curvature":0.5,"full_resolution":true,"f":' + json.dumps([0.5] * 16)
        + "}\n"
    )
    for path in (plain, trajectory):
        assert main(["reconstruct", "--state", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert "open curves were removed" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_state_families():
    cfg = default_config()
    grid = harness.build_grid(cfg)

    cfg["init.kind"] = "constant"
    cfg["init.value"] = -2.0
    cfg["init.length"] = 3.0
    state = harness.build_state(cfg, grid)
    assert np.all(state.f == -2.0) and state.length == 3.0

    cfg["init.kind"] = "perturbed_circle"
    cfg["init.radius"] = 2.0
    cfg["init.epsilon"] = 0.05
    cfg["init.mode"] = 3
    state = harness.build_state(cfg, grid)
    expected = 0.5 + 0.05 * np.cos(TWO_PI * 3 * grid.nodes)
    assert np.array_equal(state.f, expected)
    assert state.length == 2.0 * TWO_PI


@pytest.mark.parametrize(
    "overrides",
    [
        {"init.kind": "circle", "init.radius": 0.0},
        {"init.kind": "perturbed_circle", "init.radius": -1.0},
        {"init.kind": "perturbed_circle", "init.mode": 0},
        {"init.kind": "constant", "init.length": -1.0},
        {"init.kind": "constant", "init.length": math.inf},
        {"init.kind": "constant", "init.value": math.nan},
        {"init.kind": "perturbed_circle", "init.epsilon": math.inf},
    ],
)
def test_state_validation(overrides):
    cfg = default_config()
    cfg.update(overrides)
    grid = harness.build_grid(default_config())
    # the message names the key set last
    with pytest.raises(ConfigError, match=f"^{list(overrides)[-1]} must be"):
        harness.build_state(cfg, grid)


def test_builder_validation():
    cfg = default_config()
    cfg["grid.n"] = 7
    with pytest.raises(ConfigError):
        harness.build_grid(cfg)
    cfg = default_config()
    cfg["noise.mode"] = "purple"
    with pytest.raises(ConfigError):
        harness.build_spec(cfg)
    cfg = default_config()
    cfg["stepper.dt"] = -1.0
    with pytest.raises(ConfigError):
        harness.build_stepper(cfg)


def test_benchmark_workload_configs_build(tmp_path):
    """Every benchmark workload's config loads and builds, so a schema change
    that would break the benchmark fails here first."""
    # run_path compiles the source without writing bytecode next to it; the
    # module imports only the standard library
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(source))
    for name, workload in workloads["WORKLOADS"].items():
        path = _cfg_file(tmp_path, workloads["config_text"](workload, 201), name=f"{name}.cfg")
        cfg = load_config(path)
        grid = harness.build_grid(cfg)
        harness.build_spec(cfg)
        harness.build_stepper(cfg)
        harness.build_stop(cfg, harness.build_state(cfg, grid))


@pytest.mark.parametrize("command", ["simulate", "ensemble", "reconstruct", "print-config"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # an output path in a directory that does not exist: exit 2 with the
    # path named, not an uncaught FileNotFoundError; simulate and ensemble
    # find out before they step, and nothing is created
    cfg_path = _cfg_file(tmp_path, "grid.n = 16\nstepper.t_end = 5e-4\nrun.trajectories = 2\n")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"f": [1.0] * 16, "length": TWO_PI}))
    out = str(tmp_path / "absent" / "out")
    inputs = ["--state", str(state)] if command == "reconstruct" else ["--config", cfg_path]

    def must_not_step(*args, **kwargs):
        raise AssertionError("stepped before checking the output path")

    monkeypatch.setattr(harness, "run", must_not_step)
    monkeypatch.setattr(harness, "run_ensemble", must_not_step)
    assert main([command, *inputs, "--out", out]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err
    assert not (tmp_path / "absent").exists()
    # an existing directory is no output file either
    if command in ("simulate", "ensemble"):
        assert main([command, *inputs, "--out", str(tmp_path)]) == 2
        assert f"config error: cannot write {tmp_path}: " in capsys.readouterr().err


def test_benchmark_tracer_counts_and_restores(tmp_path):
    """The benchmark's tracer, installed around a tiny simulate and ensemble,
    counts kernel steps and transforms, and uninstalling puts every wrapped
    original back; a kernel bound at import time or a renamed entry point
    fails here rather than only under traced benchmark runs."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = runpy.run_path(str(source))
    targets = tracing["_targets"]()
    originals = [tracing["_get"](owner, key) for owner, key, _ in targets]
    tracer = tracing["Tracer"]()
    cfg_path = _cfg_file(
        tmp_path, "grid.n = 16\nnoise.amplitude = 0.1\nstepper.t_end = 5e-4\nrun.trajectories = 2\n"
    )
    tracer.install()
    try:
        assert harness.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "t")]) == 0
        steps = tracer.calls("integrator.step")
        assert steps > 0 and tracer.calls("grid.fft") > 0
        assert harness.main(["ensemble", "--config", cfg_path, "--out", str(tmp_path / "e")]) == 0
        assert tracer.calls("integrator.step") > steps
    finally:
        tracer.uninstall()
    for (owner, key, _), original in zip(targets, originals):
        assert tracing["_get"](owner, key) is original, key


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_fault_during_a_run_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # exit 2 is for input: a ValueError that the stepping kernel raises
    # mid-run is a fault of the program, and it propagates
    def faulty_kernel(*args):
        raise ValueError("kernel fault")

    monkeypatch.setitem(integrator._STEPPERS, "imex_em", faulty_kernel)
    monkeypatch.setitem(integrator._BATCH_STEPPERS, "imex_em", faulty_kernel)
    cfg_path = _cfg_file(tmp_path, "grid.n = 16\nstepper.t_end = 5e-4\nrun.trajectories = 2\n")
    for command, out in (("simulate", "x.jsonl"), ("ensemble", "x.json")):
        with pytest.raises(ValueError, match="kernel fault"):
            main([command, "--config", cfg_path, "--out", str(tmp_path / out)])
        assert "config error" not in capsys.readouterr().err
        assert not (tmp_path / out).exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    # python -m curveflow from a source checkout writes what main writes
    cfg_path = _cfg_file(tmp_path, "grid.n = 16\nstepper.t_end = 5e-4\nstepper.snapshot_every = 2\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a.jsonl")]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "curveflow", "simulate", "--config", cfg_path,
         "--out", str(tmp_path / "b.jsonl")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "status: reached_t"
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
