"""spinsqueeze benchmark: closed-loop CLI passes, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S]   # every workload, one table
    python3 perfbench/run.py --make-reference               # rewrite reference.json

Each pass runs `spinsqueeze.cli.main` in a fresh interpreter (child.py), the
way a CLI user pays import time and cold operator caches on every run.  One
client, closed loop: the next pass starts when the previous one has exited,
and passes repeat until --seconds have gone by and at least MIN_PASSES have
run.  SETUP_PROBES import-only spawns add set-up samples.  Untraced passes
give the end-to-end figures (medians over the passes); --trace 1 adds one
traced pass for the per-layer figures.  Every pass's output file goes
through the correctness gate (check.py) against reference.json, and all
passes of a run must write byte-identical files.  The last stdout line is
the result JSON; the full record, with the environment, goes to
perfbench/.work/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from check import check, read_columns
from layers import PER_LAYER, layer_metrics, self_shares
from spans import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
REGENERATE = "python3 perfbench/run.py --make-reference"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 15
MIN_PASSES = 2
# import-only spawns per run, so setup_s is a median of several set-ups
SETUP_PROBES = 3
# A run must end within 180 s; a pass still going at this point is killed.
RUN_LIMIT_S = 170.0
REFERENCE_LIMIT_S = 600.0

END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str
    # One value per seed slot, an offset of a physics parameter that leaves
    # the amount of work unchanged; reference.json holds one entry per value.
    pool: tuple
    argv: Callable  # (pool value, threads) -> CLI arguments without --out
    threads: int = 1


# BENCHMARK.json and README.md say why each workload is here.
WORKLOADS = {w.name: w for w in (
    Workload(
        "driven-ratio",
        "csv", tuple(round(0.20 + 0.01 * k, 2) for k in range(8)),
        lambda r0, threads: ["scan-ratio", "--n", "32", "--omega", "1000",
                             "--ratios", f"{r0:.2f}:{r0 + 0.8:.2f}:0.4",
                             "--threads", str(threads), "--format", "csv"]),
    Workload(
        "driven-curve",
        "json", tuple(1812.0 + 8.0 * k for k in range(8)),
        lambda g, threads: ["evolve", "--hamiltonian", "full", "--n", "100",
                            "--g", f"{g:g}", "--omega", "2000", "--tmax", "0.3",
                            "--samples", "400", "--format", "json"]),
    Workload(
        "static-scan-n",
        "json", tuple(round(0.50 + 0.02 * k, 2) for k in range(8)),
        lambda a, threads: ["scan-n", "--hamiltonians", "tat-xz,oat,mixed",
                            "--a", f"{a:.2f}", "--n-list", "100,200,300,400,600",
                            "--threads", str(threads), "--format", "json"]),
    Workload(
        "driven-scan-n",
        "json", tuple(round(0.906 + 0.004 * k, 3) for k in range(8)),
        lambda r, threads: ["scan-n", "--hamiltonians", "tat-xz,oat,full",
                            "--n-list", "4,6,8,10,12", "--ratio", f"{r:.3f}",
                            "--threads", str(threads), "--format", "json"],
        threads=2),
)}
# evolve.step_halving_delta is measured on this workload's problem
STEP_HALVING = WORKLOADS["driven-curve"]


def pool_index(seed, pool):
    return random.Random(seed).randrange(len(pool))


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _blas_threads(numpy):
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    """Versions, BLAS and its configured thread count (left at its default)."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, deadline, stderr_path=os.devnull):
    """Run argv to completion; (exit code, rusage of that child alone).

    The child is killed if it is still running at `deadline` (monotonic).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    return os.waitstatus_to_exitcode(status), usage


def run_pass(cli_args, tag, deadline, trace=False, refine=1):
    """One CLI pass in a fresh process; its timings, usage and output path."""
    out = WORK / f"{tag}.out"
    stats = WORK / f"{tag}.stats.json"
    err = WORK / f"{tag}.err"
    for path in (out, stats):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(stats),
            "1" if trace else "0", str(refine), "--", *cli_args]
    if cli_args:
        argv += ["--out", str(out)]
    load_before = loadavg()
    spawned = time.monotonic()
    rc, usage = spawn(argv, deadline, err)
    record = {"tag": tag, "rc": rc, "out": out,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB
              "load_before": load_before, "load_after": loadavg(),
              "setup_s": None, "sweep_s": None, "spans": None}
    try:
        with open(stats) as fh:
            child = json.load(fh)
        record.update(setup_s=child["ready"] - spawned, sweep_s=child["sweep_s"],
                      spans=child["spans"])
        if child["rc"] != 0:
            record["rc"] = child["rc"]
    except (OSError, ValueError, KeyError):
        if rc == 0:
            record["rc"] = -1
    if record["rc"] != 0:
        try:
            record["stderr"] = err.read_text()[-2000:]
        except OSError:
            pass
    return record


def gate(record, fmt, ref_columns):
    """Set points, failed, xi2_dev and digest on a pass record."""
    points = check(ref_columns, ref_columns)[0]
    record.update(points=points, failed=points, xi2_dev=0.0, digest=None)
    if record["rc"] != 0:
        return record
    try:
        data = record["out"].read_bytes()
        _, failed, dev = check(read_columns(record["out"], fmt), ref_columns)
    except (OSError, ValueError, KeyError, IndexError):
        return record
    record.update(failed=failed, xi2_dev=dev, digest=hashlib.sha256(data).hexdigest())
    return record


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def measure(wl, seed, seconds, trace, reference):
    """One benchmark run of workload `wl`; returns (result, record)."""
    index = pool_index(seed, wl.pool)
    value = wl.pool[index]
    ref_columns = reference["workloads"][wl.name][index]
    cli_args = wl.argv(value, wl.threads)
    deadline = time.monotonic() + RUN_LIMIT_S
    # write .pyc files and warm the page cache; users pay neither per run
    spawn([sys.executable, "-c", "import spinsqueeze.cli"], deadline)
    probes = [run_pass([], f"setup-{i}", deadline) for i in range(SETUP_PROBES)]

    timed = []
    loop_start = time.monotonic()
    while ((len(timed) < MIN_PASSES or time.monotonic() - loop_start < seconds)
           and time.monotonic() < deadline):
        timed.append(gate(run_pass(cli_args, f"{wl.name}-{len(timed)}", deadline),
                          wl.fmt, ref_columns))
    sweeps = [p["sweep_s"] for p in timed if p["rc"] == 0]
    gated = list(timed)
    layers = shares = None
    if trace:
        traced = gate(run_pass(cli_args, f"{wl.name}-traced", deadline, trace=True),
                      wl.fmt, ref_columns)
        gated.append(traced)
        spans = [Span(**s) for s in traced["spans"] or []]
        layers = layer_metrics(spans)
        shares = self_shares(spans)
        layers["trace.overhead_s"] = (traced["sweep_s"] - statistics.median(sweeps)
                                      if sweeps and traced["rc"] == 0 else 0.0)
        layers["experiments.pool_speedup"] = 1.0  # no pool: its own baseline
        if wl.threads > 1:
            single = gate(run_pass(wl.argv(value, 1), f"{wl.name}-threads1", deadline),
                          wl.fmt, ref_columns)
            gated.append(single)
            if single["rc"] == 0 and sweeps:
                layers["experiments.pool_speedup"] = (
                    single["sweep_s"] / statistics.median(sweeps))
        delta, halving = step_halving_delta(index, deadline)
        layers["evolve.step_halving_delta"] = delta
        gated.extend(halving)
        layers["squeezing.xi2_max_dev"] = max(p["xi2_dev"] for p in gated)

    # every gated pass of the run must write the same bytes as the first good one
    digest = next((p["digest"] for p in timed if p["digest"]), None)
    for p in gated:
        if p.get("digest") is not None and p["digest"] != digest:
            p["failed"] = p["points"]
    attempted = sum(p["points"] for p in gated)
    failed = sum(p["failed"] for p in gated)
    if trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        ok = [p for p in timed if p["rc"] == 0]
        samples = {name: [p[name] for p in ok] for name, _ in END_TO_END}
        samples["setup_s"] += [p["setup_s"] for p in probes if p["rc"] == 0]
        metrics = {name: {"value": statistics.median(samples[name]) if samples[name] else 0.0,
                          "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": wl.name, "seed": seed, "pool_index": index, "cli_args": cli_args,
        "seconds": seconds, "trace": trace, "output_sha256": digest,
        "failed_share": failed / attempted if attempted else 1.0,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "passes": [{k: (str(v) if isinstance(v, Path) else v)
                    for k, v in p.items() if k != "spans"} for p in gated],
        "self_shares": shares,
        "result": result,
    }
    return result, record


def step_halving_delta(index, deadline):
    """Worst |xi^2| change on the driven-curve problem when the step is halved."""
    args = STEP_HALVING.argv(STEP_HALVING.pool[index], 1)
    base = run_pass(args, "halving-default", deadline)
    fine = run_pass(args, "halving-refined", deadline, refine=2)
    passes = [dict(p, points=1, failed=int(p["rc"] != 0), xi2_dev=0.0, digest=None)
              for p in (base, fine)]
    if base["rc"] or fine["rc"]:
        return 0.0, passes
    a = read_columns(base["out"], STEP_HALVING.fmt)["xi_squared"]
    b = read_columns(fine["out"], STEP_HALVING.fmt)["xi_squared"]
    return max(abs(x - y) for x, y in zip(a, b)), passes


def summarize(record):
    file = sys.stderr
    for p in record["passes"]:
        figures = " ".join(f"{k} {p[k]:.4g}" for k in ("setup_s", "sweep_s", "cpu_s",
                                                       "peak_rss_mb")
                           if p.get(k) is not None)
        print(f"  {p['tag']:24s} rc {p['rc']} {figures} "
              f"load {p['load_before']}->{p['load_after']} "
              f"failed {p['failed']}/{p['points']}", file=file)
    if record["self_shares"]:
        print("  self-time share of the traced pass:", file=file)
        for name, share in list(record["self_shares"].items())[:8]:
            print(f"    {share:6.1%}  {name}", file=file)
    print(f"  failed_share {record['failed_share']:.4g}  "
          f"output sha256 {record['output_sha256']}", file=file)


def make_reference():
    """Run every pool value of every workload once and store its output columns."""
    WORK.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + REFERENCE_LIMIT_S * len(WORKLOADS)
    stored = {}
    for wl in WORKLOADS.values():
        stored[wl.name] = []
        for i, value in enumerate(wl.pool):
            p = run_pass(wl.argv(value, wl.threads), f"reference-{wl.name}-{i}", deadline)
            if p["rc"] != 0:
                sys.exit(f"reference pass {wl.name}[{i}] failed: {p.get('stderr')}")
            stored[wl.name].append(read_columns(p["out"], wl.fmt))
            print(f"{wl.name}[{i}] {p['sweep_s']:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"regenerate": REGENERATE, "commit": _git_commit(),
                   "workloads": stored}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "spinsqueeze" / "cli.py").is_file():
        print(f"error: no spinsqueeze sources under {SRC}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = measure(WORKLOADS[name], args.seed, args.seconds,
                                 bool(args.trace), reference)
        record["env"] = env
        with open(WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"{name} (seed {args.seed}, pool value {record['pool_index']}):",
              file=sys.stderr)
        summarize(record)
        results[name] = result
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:14s} {metric:40s} {m['value']:.6g} {m['unit']}")
            print(f"{name:14s} {'failed_share':40s} {record['failed_share']:.6g} share")
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
