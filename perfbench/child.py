"""One CLI pass in a fresh process: python3 child.py STATS TRACE REFINE -- CLI_ARGS...

Records into the JSON file STATS what only this process sees: the
CLOCK_MONOTONIC instant at which `spinsqueeze.cli` is imported and ready,
the wall time of the CLI command, its exit code and, with TRACE=1, the
spans of the traced layers.  REFINE > 1 runs `evolve` with the step
control refined by that factor, which the CLI itself cannot ask for.
With no CLI_ARGS it only imports the CLI, to time set-up alone.  The
package is found through PYTHONPATH, which the parent sets.
"""

import sys
import time

import spinsqueeze.cli as cli

READY = time.monotonic()


def main():
    import contextlib
    import json

    stats_path, trace, refine = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    if not cli_args:  # a set-up probe: import only
        with open(stats_path, "w") as fh:
            json.dump({"ready": READY, "sweep_s": None, "rc": 0, "spans": None}, fh)
        return 0
    if refine > 1:
        import functools
        from spinsqueeze.evolve import StepControl
        cli.run_time_curve = functools.partial(
            cli.run_time_curve, control=StepControl().refined(refine))
    tracer, scope = None, contextlib.nullcontext()
    if trace:
        from layers import instrument
        from spans import Tracer, propagate_to_pools
        tracer = Tracer()
        instrument(tracer)
        scope = propagate_to_pools(tracer)
    with scope:
        start = time.perf_counter()
        rc = cli.main(cli_args)
        sweep = time.perf_counter() - start
    with open(stats_path, "w") as fh:
        json.dump({"ready": READY, "sweep_s": sweep, "rc": rc,
                   "spans": tracer.dump() if tracer else None}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
