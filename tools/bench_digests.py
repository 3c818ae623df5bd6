"""Digests of the benchmark's output files, for a byte-identity check.

    python3 tools/bench_digests.py > digests.txt

Runs every benchmark command line, each workload of perfbench/run.py at
each value of its pool, in this process on this checkout's src/, and
prints one line per output file: workload, pool value and the file's
sha256. Run it in two checkouts and `diff` the two listings: no
difference means both write byte-identical files on every command line.
The CLI's own stdout (its "wrote ..." and fit lines) is not digested.
Outputs go to a temporary directory, and no bytecode is written, so the
checkout is left as it was.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# spinsqueeze first: it sets the BLAS thread count before numpy is imported
from spinsqueeze import cli  # noqa: E402
from run import WORKLOADS  # noqa: E402  (perfbench/run.py)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for wl in WORKLOADS.values():
            for value in wl.pool:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([*wl.argv(value, wl.threads), "--out", str(out)])
                if rc != 0:
                    sys.exit(f"{wl.name} {value}: exit code {rc}")
                print(wl.name, value, hashlib.sha256(out.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
