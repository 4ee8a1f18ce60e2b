"""Fresh-interpreter child of the benchmark runner.

    python3 perfbench/probe.py setup <config>
        prints the seconds spent importing curveflow and building and
        validating the workload's inputs from the config, before the first step,
        then the host slowdown measured right after (see hostspeed.py);
    python3 perfbench/probe.py rss <curveflow argv...>
        runs one CLI call and prints its exit code and the process's peak
        resident set in KiB.

Nothing but the standard library is imported before the clock starts.
"""

import contextlib
import io
import resource
import sys
from pathlib import Path
from time import perf_counter


def main(mode, *args):
    start = perf_counter()
    from curveflow import harness

    if mode == "setup":
        cfg = harness.load_config(args[0])
        grid = harness.build_grid(cfg)
        harness.build_spec(cfg)
        harness.build_stepper(cfg)
        state = harness.build_state(cfg, grid)
        harness.build_stop(cfg, state)
        seconds = perf_counter() - start
        import hostspeed

        print(repr(seconds), repr(hostspeed.slowdown()))
        return 0
    with contextlib.redirect_stdout(io.StringIO()):
        code = harness.main(list(args))
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(*sys.argv[1:]))
