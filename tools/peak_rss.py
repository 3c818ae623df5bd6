"""Wall time and peak resident memory of CLI command lines, each in a fresh child.

    python3 tools/peak_rss.py "scan-n --hamiltonians full --n-list 2000 --out full.json" ...

Each argument is one `spinsqueeze` command line, split as a shell would
split it. It runs in a new interpreter on this checkout's src/, with no
bytecode written, and one line per command is printed: its wall time in
seconds, its peak resident set size (ru_maxrss, from wait4 on that child
alone) in MB, and the command line. A command without --out writes to a
temporary file. A command that fails stops the run with its exit code.
"""

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = ("import sys; from spinsqueeze import cli; "
         "sys.exit(cli.main(sys.argv[1:]))")


def measure(argv):
    """(wall seconds, peak RSS in MB) of one CLI run in a fresh child."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"exit code {child.returncode}: {shlex.join(argv)}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(lines):
    if not lines:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines:
            argv = shlex.split(line)
            if not any(a == "--out" or a.startswith("--out=") for a in argv):
                argv += ["--out", str(Path(tmp) / "out")]
            wall, peak = measure(argv)
            print(f"{wall:8.3f} s {peak:8.1f} MB  {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
