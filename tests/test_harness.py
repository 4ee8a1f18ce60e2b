"""End-to-end tests for the command-line front end.

Every subcommand is exercised through ``main(argv)`` with outputs routed
into ``tmp_path``; exit codes, file formats, and determinism guarantees
are pinned exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from curveflow import harness
from curveflow.harness import ConfigError, default_config, load_config, main
from curveflow.integrator import run_ensemble

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
    assert len(lines) == len(harness._SCHEMA)
    assert [line.split(" = ")[0] for line in lines] == list(harness._SCHEMA)
    assert lines[0] == "flow.kind = willmore"
    assert "stepper.dt = 0.0001" in lines
    assert "run.check_turning = true" in lines


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
            "run.check_turning = off\n"
            "init.mode = 5\n",
        )
    )
    assert cfg["flow.kind"] == "curve_diffusion"
    assert cfg["grid.n"] == 48
    assert cfg["noise.amplitude"] == 0.25
    assert cfg["run.check_turning"] is False
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
        ("run.check_turning = maybe", "expected a boolean"),
        ("grid.n = 4.5", "expected an integer"),
        ("stepper.dt = fast", "expected a number"),
        ("stepper.dt 1e-3", "expected 'key = value'"),
        ("flow.kind = mean_curvature", "must be one of"),
        ("grid.dealias = false", "unknown config key"),
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


def test_workers_resolution_order(monkeypatch):
    parser = harness.build_parser()
    monkeypatch.setenv("CURVEFLOW_WORKERS", "5")
    assert harness.resolve_workers(parser.parse_args(["ensemble", "--workers", "3"])) == 3
    assert harness.resolve_workers(parser.parse_args(["ensemble"])) == 5
    monkeypatch.delenv("CURVEFLOW_WORKERS")
    assert harness.resolve_workers(parser.parse_args(["ensemble"])) == 1
    monkeypatch.setenv("CURVEFLOW_WORKERS", "two")
    with pytest.raises(ConfigError, match="must be an integer"):
        harness.resolve_workers(parser.parse_args(["ensemble"]))
    monkeypatch.setenv("CURVEFLOW_WORKERS", "0")
    with pytest.raises(ConfigError, match=">= 1"):
        harness.resolve_workers(parser.parse_args(["ensemble"]))
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
        check_turning=True,
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


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--study", "time", "--dts", "4e-4,2e-4"],
        ["convergence", "--study", "time", "--dts", "a,b,c"],
        ["convergence", "--study", "space", "--ns", "32,48,128"],
    ],
)
def test_convergence_rejects_bad_levels(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

CHECK_NAMES = [
    "turning_number",
    "energy_dissipation",
    "area_conservation",
    "length_monotonicity",
    "diffusion_coefficient",
    "reconstruction_equivariance",
]


def test_invariant_catalog_passes(tmp_path, capsys):
    out = str(tmp_path / "inv.json")
    assert main(["invariants", "--out", out]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in stdout) == 6
    report = json.loads((tmp_path / "inv.json").read_text())
    assert report["record"] == "invariants"
    assert report["flipped_stiff_sign"] is False
    assert report["all_passed"] is True
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert all(c["passed"] for c in report["checks"])


def test_flipped_sign_trips_energy_check(tmp_path, capsys):
    out = str(tmp_path / "invflip.json")
    assert main(["invariants", "--flip-stiff-sign", "--out", out]) == 1
    assert any(line.startswith("FAIL  energy_dissipation") for line in capsys.readouterr().out.splitlines())
    report = json.loads((tmp_path / "invflip.json").read_text())
    assert report["flipped_stiff_sign"] is True
    assert report["all_passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["energy_dissipation"]


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
    ],
)
def test_state_validation(overrides):
    cfg = default_config()
    cfg.update(overrides)
    grid = harness.build_grid(default_config())
    with pytest.raises(ConfigError):
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


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
