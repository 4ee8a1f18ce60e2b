"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload, shrunk to a few steps, in both modes and with two
seeds, and checks that:

* every metric in BENCHMARK.json is printed with its unit, and the result
  line carries exactly those metrics;
* both seeds pass every output check;
* layer self times add up to the traced wall time;
* a corrupted output, a wrong terminal status and an ensemble row that
  differs from its single run are each counted as failed;
* without the package sources the runner exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "path_spectral": {"stepper.t_end": 20 * 1e-4},
    "ensemble_scalar": {"stepper.t_end": 4 * 1e-4, "run.trajectories": 8},
    "path_snapshots": {"stepper.t_end": 20 * 1e-5},
}


def tiny(workload):
    return dataclasses.replace(workload, config={**workload.config, **TINY[workload.name]})


def check_printed_metrics(bench, spec):
    for workload in map(tiny, W.WORKLOADS.values()):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for seed in (1, 2):
                result, lines = bench.run(workload, seed, 0.3, trace)
                label = f"{workload.name} seed {seed} trace {trace}"
                assert result["correct"] and result["failed"] == 0, (label, lines)
                assert result["attempted"] >= workload.n_paths, label
                expected = {m["name"]: m["unit"] for m in spec[section]}
                assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, label
                for name, unit in expected.items():
                    assert any(
                        line.startswith(f"{name} = ") and line.split()[3] == unit for line in lines
                    ), (label, name)
                assert any(line.startswith("failed_frac = 0/") for line in lines), label
                if trace:
                    shares = sum(
                        m["value"] for k, m in result["metrics"].items() if k.endswith(".share")
                    )
                    assert abs(shares - 1.0) < 0.02, (label, shares)
            print(f"ok  {workload.name} trace {trace}: metrics, units and checks, seeds 1 and 2")


def check_failures_counted(bench):
    workdir = bench.OUT_DIR / "smoke-failures"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in map(tiny, W.WORKLOADS.values()):
            session = bench.Session(workload, 5, workdir)
            session.first_call()
            assert session.failed == 0 and not session.row_mismatches, workload.name
            files = W.output_files(workload, session.out)
            pristine = [Path(p).read_bytes() for p in files]

            # a single changed digit is caught by the digest
            blob = pristine[0]
            i = blob.rindex(b"5")
            Path(files[0]).write_bytes(blob[:i] + b"6" + blob[i + 1 :])
            check = W.check_rep(workload, session.out, 0, session.reference)
            assert check.failed == workload.n_paths, workload.name

            # a wrong status is caught by the content checks alone
            Path(files[0]).write_bytes(pristine[0])
            if workload.command == "simulate":
                Path(files[0]).write_bytes(pristine[0].replace(b'"reached_t"', b'"blowup_curvature"'))
            else:
                Path(files[2]).write_bytes(pristine[2].replace(b"reached_t", b"blowup_curvature", 1))
            check = W.check_rep(workload, session.out, 0)
            assert check.failed >= 1, workload.name
            for path, data in zip(files, pristine):
                Path(path).write_bytes(data)

            if workload.sampled_rows:
                row = W.sampled_rows(workload, 5)[0]
                lines = pristine[2].decode().splitlines()
                fields = lines[row + 1].split(",")
                fields[-1] = repr(float(fields[-1]) * (1 + 1e-15))
                lines[row + 1] = ",".join(fields)
                Path(files[2]).write_text("\n".join(lines) + "\n")
                assert W.check_rows_match_single_runs(workload, session.config, session.out, 5)
            print(f"ok  {workload.name}: corrupted outputs are counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(bench):
    bare = bench.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "path_spectral",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, proc.stdout
        for line in proc.stdout.splitlines():
            assert not line.startswith("{"), line
        print("ok  no package sources: non-zero exit, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    W.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench

    spec = bench.load_metric_spec()
    check_printed_metrics(bench, spec)
    check_failures_counted(bench)
    check_bare_directory(bench)
    print("smoke test passed")


if __name__ == "__main__":
    main()
