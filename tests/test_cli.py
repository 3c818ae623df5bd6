import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsqueeze
from spinsqueeze import cli, experiments
from spinsqueeze.cli import _parse_n_list, _parse_range, build_parser, main


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env(**extra):
    """The environment for a subprocess that imports the package from this
    checkout: this one's, less the BLAS thread variables, which importing
    the package here has set, so the child picks its own default."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(Path(spinsqueeze.__file__).parents[1]), **extra)


def test_import_loads_no_scipy():
    # scipy costs ~0.3 s of start-up; only solve-ratio and bessel_j0 need it
    env = _cli_env()
    code = ("import sys, spinsqueeze.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_driven_evolve_loads_no_scipy(tmp_path):
    # scipy on the driven path would cost ~27 MB of memory and ~0.35 s
    env = _cli_env()
    out_file = tmp_path / "driven.csv"
    code = ("import sys; from spinsqueeze.cli import main; "
            "assert main(['evolve', '--hamiltonian', 'full', '--n', '8', "
            "'--g', '181.2', '--omega', '200', '--tmax', '0.2', "
            f"'--samples', '20', '--out', {str(out_file)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert out_file.exists()


def test_static_scan_loads_no_scipy():
    # scipy.linalg alone costs 0.22-0.27 s of import on the static path
    env = _cli_env()
    code = ("import sys; from spinsqueeze import TATxz, run_n_scaling; "
            "run_n_scaling([TATxz()], [4, 6, 8, 10, 12]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("preset, pinned", [
    ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, None),
], ids=["unset", "openblas-2", "omp-2"])
def test_import_pins_blas_to_one_thread_unless_set(preset, pinned):
    # a user's own thread count, in any of the three variables, wins
    code = "import os, spinsqueeze; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(**preset),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == str(pinned)


def test_openblas_runs_one_thread_after_import():
    # read back from OpenBLAS itself, as perfbench/run.py records it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import spinsqueeze, numpy; from run import _blas_threads; "
            "print(_blas_threads(numpy))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         env=_cli_env(PYTHONDONTWRITEBYTECODE="1"), check=True,
                         capture_output=True, text=True).stdout
    if out.strip() == "None":
        pytest.skip("no OpenBLAS thread-count symbol found")
    assert out.strip() == "1"


def test_sweeps_load_no_masked_arrays_or_scipy(tmp_path):
    # numpy.ma costs 10-14 ms of import (a bare np.unique loads it), scipy
    # ~0.3 s; solve-ratio needs scipy and stays out
    env = _cli_env()
    runs = [
        ["evolve", "--hamiltonian", "full", "--n", "8", "--g", "90.6",
         "--omega", "100", "--tmax", "0.3", "--samples", "40"],  # jumps
        # jumps, read off every third knot and caught up by column steps
        ["evolve", "--hamiltonian", "full", "--n", "100", "--g", "1860",
         "--omega", "2000", "--tmax", "0.3", "--samples", "40"],
        ["scan-ratio", "--n", "8", "--omega", "300", "--ratios", "0.5:0.9:0.4"],
        ["scan-n", "--hamiltonians", "tat-xz,oat,full", "--n-list", "4,5,6,7,8"],
        ["scan-n", "--hamiltonians", "tat-xz,oat,mixed", "--a", "0.5",
         "--n-list", "4,5,6,7,8"],
    ]
    argvs = [argv + ["--out", str(tmp_path / f"{i}.csv")]
             for i, argv in enumerate(runs)]
    code = ("import sys; from spinsqueeze.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy.ma' or m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert all((tmp_path / f"{i}.csv").exists() for i in range(len(runs)))


SHARED = {"chi": 1.0, "axis": "y", "out": "o", "format": "csv"}


@pytest.mark.parametrize("argv, parsed", [
    # the four perfbench workloads, at their first pool value
    (["scan-ratio", "--n", "32", "--omega", "1000", "--ratios", "0.20:1.00:0.4",
      "--threads", "1", "--format", "csv"],
     dict(SHARED, command="scan-ratio", threads=1, n=32, omega=1000.0,
          ratios="0.20:1.00:0.4")),
    (["evolve", "--hamiltonian", "full", "--n", "100", "--g", "1812", "--omega", "2000",
      "--tmax", "0.3", "--samples", "400", "--format", "json"],
     dict(SHARED, command="evolve", format="json", hamiltonian="full", n=100, g=1812.0,
          omega=2000.0, a=None, tmax=0.3, samples=400)),
    (["scan-n", "--hamiltonians", "tat-xz,oat,mixed", "--a", "0.50",
      "--n-list", "100,200,300,400,600", "--threads", "1", "--format", "json"],
     dict(SHARED, command="scan-n", format="json", threads=1,
          hamiltonians="tat-xz,oat,mixed", n_list="100,200,300,400,600",
          ratio=0.906, a=0.5)),
    (["scan-n", "--hamiltonians", "tat-xz,oat,full", "--n-list", "4,6,8,10,12",
      "--ratio", "0.906", "--threads", "2", "--format", "json"],
     dict(SHARED, command="scan-n", format="json", threads=2,
          hamiltonians="tat-xz,oat,full", n_list="4,6,8,10,12", ratio=0.906, a=None)),
    # minimal lines: every default
    (["evolve", "--hamiltonian", "oat", "--n", "4", "--tmax", "1"],
     dict(SHARED, command="evolve", hamiltonian="oat", n=4, g=None, omega=None,
          a=None, tmax=1.0, samples=400)),
    (["scan-n", "--hamiltonians", "oat", "--n-list", "4,5"],
     dict(SHARED, command="scan-n", threads=1, hamiltonians="oat", n_list="4,5",
          ratio=0.906, a=None)),
    (["scan-ratio", "--n", "4", "--omega", "300", "--ratios", "0:1:0.5"],
     dict(SHARED, command="scan-ratio", threads=1, n=4, omega=300.0, ratios="0:1:0.5")),
    (["solve-ratio", "--target-a", "0.5"], {"command": "solve-ratio", "target_a": 0.5}),
    # evolve has no --threads
    (["evolve", "--hamiltonian", "oat", "--n", "4", "--tmax", "1", "--threads", "1"],
     None),
], ids=["driven-ratio", "driven-curve", "static-scan-n", "driven-scan-n",
        "evolve", "scan-n", "scan-ratio", "solve-ratio", "evolve-threads"])
def test_parser_reads_each_line(capsys, argv, parsed):
    argv = argv + (["--out", "o"] if argv[0] != "solve-ratio" else [])
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        return
    args = vars(build_parser().parse_args(argv))
    assert args.pop("run") is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))
    assert args == parsed


def readme_cli_lines():
    """Every `spinsqueeze ...` command of the README's CLI block, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line.split()[1:] for line in joined.splitlines()
            if line.startswith("spinsqueeze ")]


def test_readme_cli_examples_parse():
    lines = readme_cli_lines()
    assert len(lines) == 5
    for argv in lines:
        args = build_parser().parse_args(argv)
        assert args.run is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))


class TestSolveRatio:
    def test_prints_first_root(self, capsys):
        code, out, _ = run(capsys, "solve-ratio", "--target-a", "0.3333333333")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.906, abs=1e-3)

    def test_root_below_the_first_grid_step(self, capsys):
        code, out, _ = run(capsys, "solve-ratio", "--target-a", "0.99995")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.0070711, abs=1e-7)

    def test_no_roots(self, capsys):
        code, out, _ = run(capsys, "solve-ratio", "--target-a", "-0.5")
        assert code == 0
        assert "no roots" in out


class TestEvolve:
    def test_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "tat.csv"
        code, out, _ = run(capsys, "evolve", "--hamiltonian", "tat-xz",
                           "--n", "10", "--tmax", "0.6", "--samples", "50",
                           "--out", str(out_file), "--format", "csv")
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "time,xi_squared"
        assert len(lines) == 51

    def test_full_requires_drive_params(self, tmp_path, capsys):
        code, _, err = run(capsys, "evolve", "--hamiltonian", "full",
                           "--n", "10", "--tmax", "0.1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--g" in err

    def test_mixed_requires_a(self, tmp_path, capsys):
        code, _, err = run(capsys, "evolve", "--hamiltonian", "mixed",
                           "--n", "10", "--tmax", "0.1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_unknown_hamiltonian_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--hamiltonian", "bogus", "--n", "4", "--tmax", "0.1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("omega,t_max", [("1e300", "0.1"), ("100", "1e6"),
                                             ("1e300", "1e10")],
                             ids=["periods-overflow", "1.6e7-jumps", "periods-inf"])
    def test_costly_driven_run_fails_fast(self, tmp_path, omega, t_max):
        # about 1.6e298, 1.6e7 and inf period jumps: over the work budget, so
        # the run is refused with its estimate, on one stderr line, instead of
        # hanging; a subprocess with a timeout, so a run that does start
        # cannot hang the suite, and a warning would reach stderr
        env = _cli_env()
        argv = ["evolve", "--hamiltonian", "full", "--n", "10", "--g", "10",
                "--omega", omega, "--tmax", t_max, "--samples", "3",
                "--out", str(tmp_path / "x.csv")]
        code = ("import sys, time; from spinsqueeze.cli import main; "
                f"start = time.perf_counter(); code = main({argv!r}); "
                "print(code, time.perf_counter() - start)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        code, seconds = out.stdout.split()
        assert code == "1" and float(seconds) < 1.0
        assert "period jumps" in out.stderr and "budget" in out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("g, omega, message", [
        ("1e300", "1e-10", "drive ratio g/omega must be finite, got 1e+300/1e-10"),
        ("0", "2.09e-305", "too long for the RK4 step grid"),
    ], ids=["ratio-overflow", "period-steps-overflow"])
    def test_drive_past_float_range_is_exit_1(self, tmp_path, capsys, g, omega, message):
        # an inf g/omega failed the norm drift check, which blamed the step;
        # 4 quarters of 1e308 steps crashed with an OverflowError
        code, out, err = run(capsys, "evolve", "--hamiltonian", "full", "--n", "8",
                             "--g", g, "--omega", omega, "--tmax", "0.5",
                             "--samples", "5", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("drive", [[], ["--g", "1", "--omega", "10"]],
                             ids=["oat", "full"])
    def test_chi_past_float_range_is_exit_1(self, tmp_path, capsys, drive):
        # the static run died in eigh, the driven one on a zero RK4 step
        name = "full" if drive else "oat"
        code, out, err = run(capsys, "evolve", "--hamiltonian", name, "--n", "8",
                             *drive, "--tmax", "1", "--samples", "3", "--chi", "1e308",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: chi=1e+308 ") and "N = 8" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_absurd_sample_count_is_refused(self, tmp_path, capsys):
        # 1e13 samples: refused before the time grid is built
        code, out, err = run(capsys, "evolve", "--hamiltonian", "oat",
                             "--n", "4", "--tmax", "1", "--samples", "10000000000000",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: 10000000000000 samples are over the limit")
        assert err.count("\n") == 1 and "limit of 8388608" in err
        assert not (tmp_path / "x.csv").exists()

    def test_physics_error_is_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "evolve", "--hamiltonian", "oat",
                           "--n", "0", "--tmax", "0.1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error" in err

    def test_io_error_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "evolve", "--hamiltonian", "oat",
                           "--n", "4", "--tmax", "0.1", "--samples", "3",
                           "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_non_finite_tmax_is_exit_1(self, tmp_path, capsys, tmax):
        code, _, err = run(capsys, "evolve", "--hamiltonian", "oat",
                           "--n", "4", "--tmax", tmax,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err == f"error: t_max must be finite, got {tmax}\n"

    def test_deterministic_output(self, tmp_path, capsys):
        args = ["evolve", "--hamiltonian", "mixed", "--a", "0.3333333333",
                "--n", "8", "--tmax", "0.5", "--samples", "40",
                "--format", "json"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_deterministic_driven_output(self, tmp_path, capsys):
        # about 16 drive periods and 40 samples: period jumps, so the samples
        # are read out of W(tau)
        args = ["evolve", "--hamiltonian", "full", "--n", "8", "--g", "181.2",
                "--omega", "200", "--tmax", "0.5", "--samples", "40",
                "--format", "json"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestScanN:
    def test_emits_table_and_fit_block(self, tmp_path, capsys):
        out_file = tmp_path / "scaling.json"
        code, out, _ = run(capsys, "scan-n", "--hamiltonians", "tat-xz",
                           "--n-list", "10,14,20,28,40",
                           "--out", str(out_file), "--format", "json")
        assert code == 0
        assert "fit tat-xz: exponent=" in out
        payload = json.loads(out_file.read_text())
        assert len(payload["columns"]["optimal_xi2_tat-xz"]) == 5
        assert payload["metadata"]["fits"]["tat-xz"]["r_squared"] > 0.98

    def test_large_ratio_full_scan_runs(self, tmp_path, capsys):
        # the paper's scan at g/omega = 2.5 failed at N = 16 on a grid that
        # did not resolve the drive phase; from +y, xi^2 stays near 0.29
        out_file = tmp_path / "scaling.json"
        code, out, _ = run(capsys, "scan-n", "--hamiltonians", "tat-xz,oat,full",
                           "--n-list", "16,32,64,128,256", "--ratio", "2.5",
                           "--out", str(out_file), "--format", "json")
        assert code == 0 and "fit full: exponent=" in out
        payload = json.loads(out_file.read_text())
        assert np.all(np.abs(np.array(payload["columns"]["optimal_xi2_full"]) - 0.29) < 0.05)

    def test_unknown_hamiltonian_is_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "scan-n", "--hamiltonians", "oat,bogus",
                           "--n-list", "4,5,6,7,8",
                           "--out", str(tmp_path / "scaling.csv"))
        assert code == 1
        assert err.startswith("error:") and "'bogus'" in err

    @pytest.mark.parametrize("names", [",", " "])
    def test_empty_hamiltonian_list_is_exit_1(self, tmp_path, capsys, names):
        out_file = tmp_path / "scaling.csv"
        code, _, err = run(capsys, "scan-n", "--hamiltonians", names,
                           "--n-list", "4,5,6,7,8", "--out", str(out_file))
        assert code == 1
        assert err == "error: n scaling needs at least one Hamiltonian\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("token", ["8.5", "x"])
    def test_bad_n_list_entry_is_exit_1(self, tmp_path, capsys, token):
        code, _, err = run(capsys, "scan-n", "--hamiltonians", "oat",
                           "--n-list", f"4,6,{token},10,12",
                           "--out", str(tmp_path / "scaling.csv"))
        assert code == 1
        assert err == f"error: --n-list entries must be integers, got '{token}'\n"

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-1"])
    def test_bad_ratio_is_exit_1(self, tmp_path, capsys, ratio):
        # the full template's g at omega = 1 was blamed as a drive amplitude
        out_file = tmp_path / "scaling.json"
        code, out, err = run(capsys, "scan-n", "--hamiltonians", "full",
                             "--n-list", "4,6,8,10,12", "--ratio", ratio,
                             "--out", str(out_file))
        assert code == 1 and out == ""
        assert err == f"error: --ratio (g/omega) must be finite and >= 0, got {float(ratio)!r}\n"
        assert not out_file.exists()

    def test_ratio_ignored_without_full(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan-n", "--hamiltonians", "oat",
                         "--n-list", "4,6,8,10,12", "--ratio", "nan",
                         "--out", str(tmp_path / "scaling.csv"))
        assert code == 0

    def test_empty_n_list_token_is_skipped(self):
        assert _parse_n_list("4,,6") == [4, 6]

    def test_threads_flag_accepted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan-n", "--hamiltonians", "oat",
                         "--n-list", "4,5,6,7,8", "--threads", "2",
                         "--out", str(tmp_path / "scaling.csv"))
        assert code == 0

    def test_refinement_ends_where_ulp_exceeds_tolerance(self, tmp_path):
        # at chi = 1e-13 the optima sit near t = 1e12-1e13, where ulp(t) is
        # about 1e-3 > REFINE_TIME_TOL. The sweep refines in units of 1/chi,
        # so it no longer meets that stop (test_squeezing's
        # test_refinement_ends_where_ulp_exceeds_tolerance does); this keeps
        # the CLI's tiny-chi scan ending, in a subprocess with a timeout, so
        # a search that never ends fails instead of hanging the suite
        env = _cli_env()
        tables = []
        for chi in ("1e-13", "1"):
            out_file = tmp_path / f"scaling-{chi}.json"
            argv = ["scan-n", "--hamiltonians", "oat", "--n-list", "4,5,6,7,8",
                    "--chi", chi, "--format", "json", "--out", str(out_file)]
            code = f"from spinsqueeze.cli import main; raise SystemExit(main({argv!r}))"
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True, timeout=60)
            tables.append(json.loads(out_file.read_text())["columns"])
        slow, unit = tables
        # xi^2 does not depend on chi, and the optimal time scales as 1 / chi
        assert np.allclose(slow["optimal_xi2_oat"], unit["optimal_xi2_oat"],
                           rtol=0, atol=1e-8)
        assert np.allclose(np.array(slow["optimal_time_oat"]) * 1e-13,
                           unit["optimal_time_oat"], rtol=1e-3)


class TestScanRatio:
    def test_scan_with_range(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan-ratio", "--n", "10", "--omega", "300",
                         "--ratios", "0.0:0.9:0.45",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "ratio,optimal_xi2,optimal_time"
        assert len(lines) == 4  # 0, 0.45, 0.9

    def test_large_ratio_runs(self, tmp_path, capsys):
        # g/omega = 2.5 tripped the one-period drift guard (1.2e-8) on a grid
        # that did not resolve the drive phase
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan-ratio", "--n", "8", "--omega", "300",
                         "--ratios", "2.5:2.5:1", "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().strip().split("\n")) == 2

    def test_threads_flag_accepted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan-ratio", "--n", "4", "--omega", "300",
                         "--ratios", "0.0:0.4:0.4", "--threads", "2",
                         "--out", str(tmp_path / "scan.csv"))
        assert code == 0

    @pytest.mark.parametrize("n, chi", [("0", "1"), ("-4", "1"), ("10", "0")])
    def test_bad_n_or_chi_is_exit_1(self, tmp_path, capsys, n, chi):
        code, _, err = run(capsys, "scan-ratio", "--n", n, "--chi", chi,
                           "--omega", "300", "--ratios", "0:0.4:0.4",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("ratios", ["1:0:-1", "0:nan:0.1", "0:inf:0.1",
                                        "0:1:nan", "0:1e9:1e-3", "0:x:0.1"])
    def test_bad_range_is_exit_1(self, tmp_path, capsys, ratios):
        code, _, _ = run(capsys, "scan-ratio", "--n", "10", "--omega", "300",
                         "--ratios", ratios, "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("ratios,grid", [
        ("0:1:0.6", [0.0, 0.6]),
        ("1:1.5:1", [1.0]),
        # the README example: its last point rounds above the stop
        ("0.1:1.4:0.1", [0.1 + 0.1 * k for k in range(14)]),
        # perfbench's driven-ratio ranges
        *[(f"{r0:.2f}:{r0 + 0.8:.2f}:0.4", [r0, r0 + 0.4, r0 + 0.8])
          for r0 in (round(0.20 + 0.01 * k, 2) for k in range(8))],
    ])
    def test_range_stops_at_its_stop(self, ratios, grid):
        assert _parse_range(ratios) == grid

    @pytest.mark.parametrize("name, n_points, slot", [
        pytest.param(name, n_points, slot,
                     id=f"{name}-{n_points}" + (f"-pool{slot}" if slot else ""))
        for name, n_points, slots in [
            ("driven-ratio", 3, [0]), ("driven-curve", 400, [0]),
            ("static-scan-n", 15, range(8)), ("driven-scan-n", 15, [0])]
        for slot in slots])
    def test_bench_point_passes_the_correctness_gate(self, tmp_path, capsys,
                                                     monkeypatch, name, n_points,
                                                     slot):
        # a perfbench/run.py workload's command at pool value `slot` (every
        # value of the cheap static scan, whose --a reaches the band builder),
        # gated by perfbench/check.py against its stored reference columns, so
        # a change that moves a gated value fails here before the bench runs
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
        from check import check, read_columns
        from run import WORKLOADS, load_reference
        workload = WORKLOADS[name]
        out_file = tmp_path / f"bench.{workload.fmt}"
        code, _, _ = run(capsys, *workload.argv(workload.pool[slot], workload.threads),
                         "--out", str(out_file))
        assert code == 0
        reference = load_reference()["workloads"][name][slot]
        points, failed, _ = check(read_columns(out_file, workload.fmt), reference)
        assert (points, failed) == (n_points, 0)


BENCH = Path(__file__).parents[1] / "perfbench"


@pytest.mark.parametrize("name, budget", [
    ("driven-scan-n", 47), ("driven-ratio", 12), ("static-scan-n", 30)])
def test_bench_sweep_refines_in_few_advance_calls(tmp_path, capsys, monkeypatch,
                                                  name, budget):
    # a perfbench/run.py refining workload's command at pool value 0: each
    # optimum's golden-section points come in batches of up to 16 times,
    # one trajectory `advance` call each
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
    from run import WORKLOADS
    calls = []
    optimum = experiments.optimal_squeezing

    def counted(traj):
        def advance(psi, t_from, times):
            calls.append(len(times))
            return traj.advance(psi, t_from, times)
        return optimum(dataclasses.replace(traj, advance=advance))

    monkeypatch.setattr(experiments, "optimal_squeezing", counted)
    workload = WORKLOADS[name]
    code, _, _ = run(capsys, *workload.argv(workload.pool[0], workload.threads),
                     "--out", str(tmp_path / f"bench.{workload.fmt}"))
    assert code == 0
    assert 0 < len(calls) <= budget and max(calls) <= 16


@pytest.mark.parametrize("name, count", [("static-scan-n", 30), ("driven-ratio", 2)])
def test_bench_static_points_decompose_only_occupied_halves(tmp_path, capsys, monkeypatch,
                                                            name, count):
    # a perfbench/run.py workload's command at pool value 0: every static
    # point is at even N from a coherent state, which holds one reversal half
    # of each parity block, so it makes two half-size eigh (static-scan-n's
    # 15 points; driven-ratio's one TAT reference point, its driven points
    # none), not four
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
    from run import WORKLOADS
    calls = []
    real = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    workload = WORKLOADS[name]
    code, _, _ = run(capsys, *workload.argv(workload.pool[0], workload.threads),
                     "--out", str(tmp_path / f"bench.{workload.fmt}"))
    assert code == 0
    assert len(calls) == count


def bench_files():
    return sorted((str(p), p.stat().st_mtime_ns) for p in BENCH.rglob("*"))


def bench_child(tmp_path, stats, trace, refine, *cli_args):
    """One perfbench/child.py pass, as perfbench/run.py spawns it; writes no
    bytecode under perfbench/."""
    env = _cli_env(PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(BENCH / "child.py"), str(stats), trace, refine,
            "--", *cli_args]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_bench_step_halving_hook_refines(tmp_path):
    # perfbench/run.py measures evolve.step_halving_delta by running
    # perfbench/child.py with REFINE 1 and 2; both passes must succeed, and
    # the refined one must really refine (a nonzero, converged change)
    before = bench_files()
    curves = []
    for refine in ("1", "2"):
        out_file = tmp_path / f"curve-{refine}.json"
        bench_child(tmp_path, tmp_path / f"stats-{refine}.json", "0", refine,
                    "evolve", "--hamiltonian", "full", "--n", "10", "--g", "271.8",
                    "--omega", "300", "--tmax", "0.5", "--samples", "50",
                    "--format", "json", "--out", str(out_file))
        curves.append(np.array(json.loads(out_file.read_text())["columns"]["xi_squared"]))
    delta = np.max(np.abs(curves[0] - curves[1]))
    assert 0 < delta < 1e-6
    assert bench_files() == before


def test_bench_traced_pass_sees_the_layers(tmp_path):
    # perfbench/run.py --trace 1 wraps the functions perfbench/layers.py
    # names in TRACED; a renamed one fails the pass or loses its spans.
    # No CLI command calls driven_state_at, so it leaves no span here
    before = bench_files()
    stats = tmp_path / "stats.json"
    bench_child(tmp_path, stats, "1", "1",
                "scan-n", "--hamiltonians", "tat-xz,oat,full", "--n-list", "4,5,6,7,8",
                "--threads", "2", "--format", "json", "--out", str(tmp_path / "scan.json"))
    names = {span["name"] for span in json.loads(stats.read_text())["spans"]}
    assert {"evolve.propagate_driven", "evolve.propagate_static",
            "squeezing.optimal_squeezing", "cli.main"} <= names
    assert bench_files() == before
