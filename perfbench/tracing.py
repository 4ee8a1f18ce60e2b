"""Span tracer that wraps curveflow's layer entry points from outside the package.

``Tracer.install`` replaces module attributes, class methods and stepper-table
entries with timing wrappers; ``uninstall`` puts the originals back, so
untraced calls in the same process run the unmodified code.  Self time is
stack based: a span's duration minus the time covered by its child spans, so
the self times of all spans under the root ``harness`` span (the CLI's
``main``) add up to that span's duration.

Counters and self times accumulate for every traced call.  Full span records
(id, parent, name, start, end) are kept in memory only while ``record`` is
set, and the runner writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter

import numpy as np

from curveflow import flows, geometry, grid, harness, integrator, noise

ROOT = "harness"


def _targets():
    """(owner, attribute or key, span name) for every wrapped entry point."""
    out = [(np.fft, "rfft", "grid.fft"), (np.fft, "irfft", "grid.fft")]
    for method in ("deriv", "cumint", "integrate", "solve_stiff", "resample", "check_field"):
        out.append((grid.Grid, method, f"grid.{method}"))
    out += [
        (flows, "assemble", "flows.assemble"),
        # flows imports basis_eval by name, so its global is the one to wrap
        (flows, "basis_eval", "noise.basis_eval"),
        (noise.BrownianDriver, "increments", "noise.increments"),
        (harness, "run", "integrator"),
        (harness, "run_ensemble", "integrator"),
        (geometry, "reconstruct", "geometry.reconstruct"),
        (geometry, "enclosed_area", "geometry.diagnostics"),
        (geometry, "closure_defect", "geometry.diagnostics"),
        (harness, "main", ROOT),
    ]
    for table in (integrator._STEPPERS, integrator._BATCH_STEPPERS):
        out += [(table, key, "integrator.step") for key in table]
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [self seconds, calls]
        self.fft_bytes = 0
        self.record = False
        self.spans = []  # (id, parent id or -1, name, start, end)
        self._stack = []  # open spans: [id, start, time covered by children]
        self._ids = itertools.count()
        self._saved = []

    def self_s(self, name):
        return self.stats.get(name, (0.0, 0))[0]

    def calls(self, name):
        return self.stats.get(name, (0.0, 0))[1]

    def wrap(self, name, fn, count_bytes=False):
        stack, spans, ids = self._stack, self.spans, self._ids
        stats = self.stats.setdefault(name, [0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                stats[0] += duration - frame[2]
                stats[1] += 1
                if stack:
                    stack[-1][2] += duration
                if self.record:
                    spans.append((frame[0], stack[-1][0] if stack else -1, name, frame[1], end))
            if count_bytes:
                # bytes computed from array sizes, not measured traffic
                self.fft_bytes += np.asarray(args[0]).nbytes + out.nbytes
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, key, name in _targets():
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self.wrap(name, original, count_bytes=name == "grid.fft"))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)
