"""The benchmark's tracer still finds and counts what it wraps.

``perfbench/tracing.py`` wraps layer entry points by name from outside the
package: ``Grid`` methods, ``flows.assemble``, both kernel tables and the
CLI.  A rename inside the package would make it fail to install, or leave a
span that never counts.  One tiny traced ``simulate`` call checks both.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from curveflow import harness, integrator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_the_layers_it_wraps(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    config = tmp_path / "run.cfg"
    config.write_text(workloads.config_text(workloads.WORKLOADS["path_spectral"], 5))
    out = tmp_path / "out.jsonl"
    steppers = dict(integrator._STEPPERS)
    rfft = np.fft.rfft
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = harness.main(
            ["simulate", "--config", str(config), "--out", str(out), "--tend", "5e-4"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    spans = ("flows.assemble", "integrator.step", "grid.cumint", "grid.integrate", "grid.solve_stiff")
    for span in spans:
        assert tracer.calls(span) >= 5, span
    assert tracer.calls("grid.fft") > 0 and tracer.fft_bytes > 0
    assert integrator._STEPPERS == steppers and np.fft.rfft is rfft
