"""Benchmark of the curveflow CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload (see ``workloads.py``) is one ``curveflow`` CLI call,
made in-process through ``curveflow.harness.main`` with ``--workers 1`` and
BLAS/OpenMP threads pinned to one.  The call is repeated for ``--seconds``
seconds and every call's outputs are checked.

``--trace 0`` reports the end-to-end metrics: path-steps per second of one
call (median over calls), fresh-interpreter set-up time (median over child
processes) and peak resident memory of a fresh process making one call.
``--trace 1`` alternates untraced and traced calls and reports the per-layer
metrics from ``tracing.py``; the first traced call's spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

Metric names and units come from ``BENCHMARK.json``.  Human-readable lines,
provenance included, come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as W
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 9
RSS_PROBES = 3
CHILD_TIMEOUT_S = 120


class Session:
    """One workload and seed: the config, the output path and the failure tally."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "run.cfg"
        self.config.write_text(W.config_text(workload, seed))
        suffix = ".json" if workload.command == "ensemble" else ".jsonl"
        self.out = workdir / ("out" + suffix)
        self.argv = W.cli_argv(workload, self.config, self.out)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.row_mismatches = []

    def tally(self, check):
        self.attempted += self.workload.n_paths
        self.failed += check.failed
        self.problems += check.problems

    def call(self):
        """One CLI call, timed from argv to outputs written, then checked."""
        from curveflow import harness

        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = harness.main(self.argv)
            seconds = perf_counter() - start
        check = W.check_rep(self.workload, self.out, code, self.reference)
        self.tally(check)
        return seconds, check

    def first_call(self):
        """Untimed call that fixes the reference digest and runs the one-off checks."""
        _, check = self.call()
        self.reference = W.digest(W.output_files(self.workload, self.out))
        if self.workload.sampled_rows and not check.problems:
            # every later call is byte-identical to this one, so a mismatched
            # row is a failed path-run in every call of the session
            self.row_mismatches = W.check_rows_match_single_runs(
                self.workload, self.config, self.out, self.seed
            )
        return check

    def child(self, *args):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=self.workdir,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"probe {args[0]} exited with {proc.returncode}: {proc.stderr}")
        return proc.stdout.split()

    def setup_seconds(self):
        """Medians over fresh interpreters, as timed and scaled to the reference
        host speed by a kernel timing made in the same child right after.

        One unrecorded child compiles the bytecode first.
        """
        raw, scaled = [], []
        for i in range(SETUP_PROBES + 1):
            seconds, slowdown = map(float, self.child("setup", str(self.config))[-2:])
            if i:
                raw.append(seconds)
                scaled.append(seconds / slowdown)
        return statistics.median(scaled), statistics.median(raw), len(raw)

    def peak_rss_mib(self):
        samples = []
        for _ in range(RSS_PROBES):
            out = self.workdir / ("rss_" + self.out.name)
            argv = W.cli_argv(self.workload, self.config, out)
            code, kib = map(int, self.child("rss", *argv)[-2:])
            self.tally(W.check_rep(self.workload, out, code, self.reference))
            samples.append(kib / 1024.0)
        return statistics.median(samples), len(samples)


def measure_end_to_end(session, seconds):
    first = session.first_call()
    setup_s, raw_setup_s, n_setup = session.setup_seconds()
    rss, n_rss = session.peak_rss_mib()
    host = HostSpeed()
    rates, raw_rates = [], []
    deadline = perf_counter() + seconds
    while not rates or perf_counter() < deadline:
        (wall, check), slowdown = host.around(session.call)
        raw_rates.append(check.path_steps / wall)
        rates.append(raw_rates[-1] * slowdown)
    values = {
        "path_steps_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    samples = {"path_steps_per_s": len(rates), "setup_s": n_setup, "peak_rss_mb": n_rss}
    notes = [
        f"path-steps per call: {first.path_steps}",
        f"unscaled path_steps_per_s = {statistics.median(raw_rates):.6g} 1/s (median of {len(raw_rates)})",
        f"unscaled setup_s = {raw_setup_s:.6g} s (median of {n_setup})",
        f"host slowdown against the reference: median {statistics.median(host.slowdowns):.4g}, "
        f"range {min(host.slowdowns):.4g}-{max(host.slowdowns):.4g}",
    ]
    return values, samples, notes


def measure_layers(session, seconds):
    from tracing import ROOT as ROOT_SPAN
    from tracing import Tracer

    first = session.first_call()
    tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(session.call()[0])
        tracer.record = not traced
        tracer.install()
        try:
            wall, _ = session.call()
        finally:
            tracer.uninstall()
            tracer.record = False
        traced.append(wall)

    reps = len(traced)
    wall = sum(traced) / reps
    steps = first.accepted_steps
    step_calls = tracer.calls("integrator.step") / reps
    self_s = {name: tracer.self_s(name) / reps for name in tracer.stats}

    def per_step(name):
        return tracer.calls(name) / reps / steps

    values = {
        "grid.fft.calls_per_step": per_step("grid.fft"),
        "grid.fft.bytes_per_step": tracer.fft_bytes / reps / steps,
        "grid.check_field.calls_per_step": per_step("grid.check_field"),
        "noise.basis_eval.calls_per_step": per_step("noise.basis_eval"),
        "flows.assemble.calls_per_step": per_step("flows.assemble"),
        "integrator.attempts_per_step": step_calls / steps,
        "integrator.active_fraction": first.path_steps / (step_calls * session.workload.n_paths),
        "geometry.reconstruct.calls": tracer.calls("geometry.reconstruct") / reps,
        "harness.output_bytes": first.output_bytes,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    # every span name is present, called or not, and the self times of all of
    # them partition the traced wall time
    for name, seconds in self_s.items():
        values[name + ".self_s"] = seconds
        values[name + ".self_s.share"] = seconds / wall

    unattributed = wall - sum(self_s.values())
    notes = [
        f"traced calls: {reps}, untraced calls: {len(untraced)}",
        f"traced wall per call {wall:.6f} s; layer self times sum to "
        f"{sum(self_s.values()):.6f} s ({unattributed / wall:+.2%} outside {ROOT_SPAN})",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{session.workload.name}-seed{session.seed}.json"
    write_spans(spans_path, session, tracer.spans)
    notes.append(f"spans of the first traced call: {spans_path.relative_to(ROOT)}")
    return values, {}, notes


def write_spans(path, session, spans):
    names = sorted({s[2] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = min((s[3] for s in spans), default=0.0)
    doc = {
        "workload": session.workload.name,
        "seed": session.seed,
        "request": 0,
        "names": names,
        "columns": ["id", "parent", "name", "start_us", "end_us"],
        "spans": [
            [sid, parent, index[name], round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3)]
            for sid, parent, name, a, b in sorted(spans)
        ],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def provenance(workload):
    import numpy

    sources = sorted((SRC / "curveflow").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    caches = _cache_sizes()
    return {
        "commit": _git_commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "thread_env": {key: os.environ.get(key) for key in W.THREAD_ENV},
        "state_bytes": workload.state_bytes,
        "llc": caches.get("L3", caches.get("L2")),
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = "L" + (index / "level").read_text().strip()
            sizes[level] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def load_metric_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace):
    """Measure one workload; returns (result object, human-readable lines)."""
    spec = load_metric_spec()
    workdir = OUT_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        session = Session(workload, seed, workdir)
        measure = measure_layers if trace else measure_end_to_end
        values, samples, notes = measure(session, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = session.attempted // workload.n_paths
    failed = min(session.attempted, session.failed + len(session.row_mismatches) * calls)
    section = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    lines = [f"workload {workload.name} seed {seed} trace {int(bool(trace))}"]
    lines.append("provenance " + json.dumps(provenance(workload)))
    lines += notes
    for name, m in metrics.items():
        count = samples.get(name)
        suffix = f"  (median of {count})" if count else ""
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{suffix}")
    lines.append(
        f"failed_frac = {failed}/{session.attempted} = {failed / session.attempted:.6g} "
        "(failed path-runs / attempted path-runs)"
    )
    problems = session.problems + session.row_mismatches
    lines += [f"problem: {p}" for p in dict.fromkeys(problems)]
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curveflow" / "__init__.py").is_file():
        print(f"no curveflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, lines = run(W.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    W.pin_threads()
    sys.path.insert(0, str(SRC))
    sys.exit(main())
