import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsqueeze
from spinsqueeze.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_scipy():
    # scipy costs ~0.3 s of start-up; only solve-ratio and bessel_j0 need it
    env = dict(os.environ, PYTHONPATH=str(Path(spinsqueeze.__file__).parents[1]))
    code = ("import sys, spinsqueeze.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestSolveRatio:
    def test_prints_first_root(self, capsys):
        code, out, _ = run(capsys, "solve-ratio", "--target-a", "0.3333333333")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.906, abs=1e-3)

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

    def test_unknown_hamiltonian_is_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "scan-n", "--hamiltonians", "oat,bogus",
                           "--n-list", "4,5,6,7,8",
                           "--out", str(tmp_path / "scaling.csv"))
        assert code == 1
        assert err.startswith("error:") and "'bogus'" in err

    def test_threads_flag_accepted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan-n", "--hamiltonians", "oat",
                         "--n-list", "4,5,6,7,8", "--threads", "2",
                         "--out", str(tmp_path / "scaling.csv"))
        assert code == 0


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

    def test_threads_flag_accepted(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan-ratio", "--n", "4", "--omega", "300",
                         "--ratios", "0.0:0.4:0.4", "--threads", "2",
                         "--out", str(tmp_path / "scan.csv"))
        assert code == 0

    @pytest.mark.parametrize("ratios", ["1:0:-1", "0:nan:0.1", "0:inf:0.1",
                                        "0:1:nan", "0:1e9:1e-3"])
    def test_bad_range_is_exit_1(self, tmp_path, capsys, ratios):
        code, _, _ = run(capsys, "scan-ratio", "--n", "10", "--omega", "300",
                         "--ratios", ratios, "--out", str(tmp_path / "x.csv"))
        assert code == 1
