import json

import numpy as np
import pytest

from spinsqueeze import (DriveParams, FullDriven, OAT, SweepTable, TATxz,
                         ValidationError, default_t_max, emit, fit_scaling,
                         run_n_scaling, run_ratio_scan, run_time_curve)


class TestRunTimeCurve:
    def test_tat_curve_minimum(self):
        table = run_time_curve(TATxz(), 10, "y", 0.6, 300)
        assert list(table.columns) == ["time", "xi_squared"]
        assert table.columns["xi_squared"].min() == pytest.approx(0.1381, rel=0.02)

    def test_single_sample_is_css(self):
        table = run_time_curve(OAT(), 8, "y", 0.0, 1)
        assert table.n_rows() == 1
        assert table.columns["xi_squared"][0] == pytest.approx(1, abs=1e-9)

    def test_driven_metadata_carries_rwa(self):
        spec = FullDriven(DriveParams(0.906 * 300, 300.0))
        table = run_time_curve(spec, 10, "y", 0.1, 5)
        assert table.metadata["rwa_ratio"] == pytest.approx(30)
        assert table.metadata["rwa_valid"] is True

    def test_rejects_bad_axis(self):
        with pytest.raises(ValidationError):
            run_time_curve(OAT(), 8, "z", 0.1, 5)


class TestScalingFit:
    def test_recovers_synthetic_power_law(self):
        ns = np.array([10, 20, 40, 80, 160])
        fit = fit_scaling(ns, 2.5 * ns ** -0.8)
        assert fit.exponent == pytest.approx(-0.8, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.5, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_range == (10, 160)

    def test_needs_five_points(self):
        with pytest.raises(ValidationError):
            fit_scaling([10, 20, 40, 80], [1, 1, 1, 1])


class TestRunNScaling:
    def test_static_specs(self):
        table, fits = run_n_scaling([TATxz(), OAT()], [10, 14, 20, 28, 40],
                                    grid_samples=120)
        assert "optimal_xi2_tat-xz" in table.columns
        assert "optimal_xi2_oat" in table.columns
        assert -1.05 < fits["tat-xz"].exponent < -0.75
        assert -0.75 < fits["oat"].exponent < -0.5
        assert fits["tat-xz"].r_squared > 0.98
        assert table.metadata["fits"]["oat"]["exponent"] == fits["oat"].exponent

    def test_rejects_short_or_unsorted_lists(self):
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [10, 20, 40, 80])
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [10, 20, 15, 40, 80])
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [2, 10, 20, 40, 80])


class TestRunRatioScan:
    def test_zero_ratio_reduces_to_oat(self):
        table = run_ratio_scan(10, "y", [0.0], 300.0, grid_samples=120)
        oat_curve = run_time_curve(OAT(), 10, "y", default_t_max(10), 200)
        assert table.columns["optimal_xi2"][0] == pytest.approx(
            oat_curve.columns["xi_squared"].min(), rel=0.02)

    def test_metadata_carries_tat_reference(self):
        table = run_ratio_scan(10, "y", [0.0], 300.0, grid_samples=120)
        assert table.metadata["tat_reference_xi2"] == pytest.approx(0.1381, rel=0.02)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValidationError):
            run_ratio_scan(10, "y", [-0.1], 300.0)


class TestDefaultTMax:
    def test_clamped_window(self):
        assert default_t_max(4) == 2.0
        assert 0.05 <= default_t_max(2000) <= 2.0
        assert default_t_max(100, chi=2.0) == pytest.approx(default_t_max(100) / 2)

    def test_contains_known_optima(self):
        assert default_t_max(10) > 0.43   # slowest optimum in the tests
        assert default_t_max(100) > 0.08


class TestEmit:
    def test_csv_empty_table(self, tmp_path):
        table = SweepTable("time_curve", {"time": [], "xi_squared": []}, {})
        path = tmp_path / "empty.csv"
        emit(table, "csv", path)
        assert path.read_text() == "time,xi_squared\n"

    def test_csv_self_consistent(self, tmp_path):
        table = run_time_curve(TATxz(), 10, "y", 0.6, 50)
        path = tmp_path / "curve.csv"
        emit(table, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,xi_squared"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert min(values) == pytest.approx(table.columns["xi_squared"].min(),
                                            rel=1e-11)

    def test_json_roundtrip_exact(self, tmp_path):
        table = run_time_curve(OAT(), 6, "y", 0.3, 20)
        path = tmp_path / "curve.json"
        emit(table, "json", path)
        payload = json.loads(path.read_text())
        for name, column in table.columns.items():
            assert np.array_equal(np.array(payload["columns"][name]), column)
        assert payload["metadata"]["n_atoms"] == 6

    def test_svg_is_wellformed_enough(self, tmp_path):
        table = run_time_curve(OAT(), 6, "y", 0.3, 20)
        path = tmp_path / "curve.svg"
        emit(table, "svg", path)
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_unknown_format_rejected(self, tmp_path):
        table = run_time_curve(OAT(), 6, "y", 0.3, 5)
        with pytest.raises(ValidationError):
            emit(table, "xlsx", tmp_path / "x")

    def test_io_error_carries_path(self, tmp_path):
        table = run_time_curve(OAT(), 6, "y", 0.3, 5)
        bad = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit(table, "csv", bad)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError):
            SweepTable("time_curve", {"a": [1.0, 2.0], "b": [1.0]}, {})
