import json
import math
import tracemalloc

import numpy as np
import pytest

from spinsqueeze import (DriveParams, FullDriven, OAT, SweepTable, TATxz,
                         ValidationError, default_t_max, emit, evolve,
                         experiments, fit_scaling, run_n_scaling, run_ratio_scan,
                         run_time_curve, squeezing_curve)

from test_readout import public_trajectory


class TestRunTimeCurve:
    def test_tat_curve_minimum(self):
        table = run_time_curve(TATxz(), 10, "y", 0.6, 300)
        assert list(table.columns) == ["time", "xi_squared"]
        assert table.columns["xi_squared"].min() == pytest.approx(0.1381, rel=0.02)

    def test_single_sample_is_css(self):
        table = run_time_curve(OAT(), 8, "y", 0.0, 1)
        assert table.n_rows() == 1
        assert table.columns["xi_squared"][0] == pytest.approx(1, abs=1e-9)

    def test_metadata_counts_the_rows_made(self):
        # t_max = 0 makes one row whatever n_samples says, and the metadata
        # records that one; the sample limit counts it too, and refuses a
        # grid over it before building it
        table = run_time_curve(OAT(), 2000, "y", 0.0, 100_000_000)
        assert table.n_rows() == 1 and table.metadata["n_samples"] == 1
        table = run_time_curve(OAT(), 8, "y", 0.5, 7)
        assert table.n_rows() == 7 and table.metadata["n_samples"] == 7
        too_many = experiments.CURVE_SAMPLES_MAX + 1
        with pytest.raises(ValidationError, match=f"{too_many} samples are over the limit"):
            run_time_curve(OAT(), 2000, "y", 0.5, too_many)

    def test_driven_metadata_carries_rwa(self):
        spec = FullDriven(DriveParams(0.906 * 300, 300.0))
        table = run_time_curve(spec, 10, "y", 0.1, 5)
        assert table.metadata["rwa_ratio"] == pytest.approx(30)
        assert table.metadata["rwa_valid"] is True

    def test_rejects_bad_axis(self):
        with pytest.raises(ValidationError):
            run_time_curve(OAT(), 8, "z", 0.1, 5)

    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_rejects_non_finite_t_max(self, t_max):
        with pytest.raises(ValidationError, match="t_max must be finite"):
            run_time_curve(OAT(), 8, "y", t_max, 5)

    def test_rejects_non_integer_samples(self):
        with pytest.raises(ValidationError, match="n_samples must be an integer"):
            run_time_curve(OAT(), 10, "y", 0.1, 2.5)

    @pytest.mark.parametrize("t_max, n_samples", [(-0.1, 5), (0.1, 0)],
                             ids=["negative-t-max", "no-samples"])
    def test_rejects_empty_window(self, t_max, n_samples):
        with pytest.raises(ValidationError, match="need t_max >= 0 and n_samples >= 1"):
            run_time_curve(OAT(), 8, "y", t_max, n_samples)

    @pytest.mark.parametrize("spec,n", [(TATxz(), 10),
                                        (FullDriven(DriveParams(90.6, 100.0)), 8)],
                             ids=["static", "driven"])
    def test_xi_column_is_the_records(self, spec, n):
        # the column comes straight off the squeezing arrays, no record per
        # sample, with the records' very values
        table = run_time_curve(spec, n, "y", 0.3, 40)
        traj = public_trajectory(spec, n, table.columns["time"])
        assert list(table.columns["xi_squared"]) == [
            record.xi_squared for record in squeezing_curve(traj)]


class TestScalingFit:
    def test_recovers_synthetic_power_law(self):
        ns = np.array([10, 20, 40, 80, 160])
        fit = fit_scaling(ns, 2.5 * ns ** -0.8)
        assert fit.exponent == pytest.approx(-0.8, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.5, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_range == (10, 160)

    def test_n_range_spans_unsorted_points(self):
        ns = np.array([40, 10, 20, 80, 160])
        assert fit_scaling(ns, 2.5 * ns ** -0.8).n_range == (10, 160)

    def test_needs_five_points(self):
        with pytest.raises(ValidationError):
            fit_scaling([10, 20, 40, 80], [1, 1, 1, 1])

    @pytest.mark.parametrize("n_atoms,xi_opt", [
        ([0, 20, 40, 80, 160], [0.5, 0.4, 0.3, 0.2, 0.1]),
        ([-10, 20, 40, 80, 160], [0.5, 0.4, 0.3, 0.2, 0.1]),
        ([10, 20, np.inf, 80, 160], [0.5, 0.4, 0.3, 0.2, 0.1]),
        ([10, 20, 40, 80, 160], [0.5, 0.4, 0.0, 0.2, 0.1]),
        ([10, 20, 40, 80, 160], [0.5, -0.4, 0.3, 0.2, 0.1]),
        ([10, 20, 40, 80, 160], [0.5, 0.4, 0.3, np.nan, 0.1]),
        ([10, 20, 40, 80, 160], [0.5, 0.4, 0.3, 0.2, np.inf]),
        ([10, 20, 40, 80, 160], [0.5, 0.4, 0.3, 0.2]),
        ([10, 20, 40, 80, 160, 320], [0.5, 0.4, 0.3, 0.2, 0.1]),
        ([10] * 5, [1, 0.5, 0.3, 0.2, 0.1]),
        ([10, 20, 40, 80, 160], [1] * 5),
    ], ids=["zero-n", "negative-n", "inf-n", "zero-xi2", "negative-xi2",
            "nan-xi2", "inf-xi2", "fewer-xi2", "fewer-n", "one-n", "one-xi2"])
    def test_rejects_bad_points(self, n_atoms, xi_opt):
        # numpy warned or raised TypeError on these, or fitted NaN; on one N
        # polyfit warned and returned an arbitrary exponent, on one xi2 r2
        # was 0/0
        with pytest.raises(ValidationError, match="scaling fit needs"):
            fit_scaling(n_atoms, xi_opt)


class TestRunNScaling:
    def test_static_specs(self, monkeypatch):
        monkeypatch.setattr(experiments, "GRID_SAMPLES", 120)
        table, fits = run_n_scaling([TATxz(), OAT()], [10, 14, 20, 28, 40])
        assert table.metadata["grid_samples"] == 120
        assert "optimal_xi2_tat-xz" in table.columns
        assert "optimal_xi2_oat" in table.columns
        assert -1.05 < fits["tat-xz"].exponent < -0.75
        assert -0.75 < fits["oat"].exponent < -0.5
        assert fits["tat-xz"].r_squared > 0.98
        assert table.metadata["fits"]["oat"]["exponent"] == fits["oat"].exponent

    def test_driven_template_records_its_ratio(self):
        # each point runs at omega = 70 N chi, never at the template's omega
        n_list = [4, 6, 8, 10, 12]
        table, _ = run_n_scaling([TATxz(), FullDriven(DriveParams(0.906, 1.0))],
                                 n_list)
        assert table.metadata["specs"] == [
            {"hamiltonian": "tat-xz", "chi": 1.0},
            {"hamiltonian": "full", "chi": 1.0, "ratio": 0.906},
        ]

    def test_rejects_short_or_unsorted_lists(self):
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [10, 20, 40, 80])
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [10, 20, 15, 40, 80])
        with pytest.raises(ValidationError):
            run_n_scaling([OAT()], [2, 10, 20, 40, 80])

    def test_rejects_empty_spec_list(self):
        with pytest.raises(ValidationError, match="at least one Hamiltonian"):
            run_n_scaling([], [4, 5, 6, 7, 8])

    def test_rejects_repeated_variant(self):
        # two columns of one name would overwrite each other
        with pytest.raises(ValidationError, match="duplicate Hamiltonian variants"):
            run_n_scaling([OAT(), OAT()], [4, 5, 6, 7, 8])

    @pytest.mark.parametrize("bad", [4.5, float("nan")])
    def test_rejects_non_integer_n(self, bad):
        # checked as given, never rounded to a neighbouring N
        with pytest.raises(ValidationError, match="positive integer"):
            run_n_scaling([TATxz()], [bad, 5, 6, 7, 8])

    def test_paper_scale_point_builds_no_dense_operator(self):
        # one dense complex (N+1)^2 operator alone would be 61 MiB at N = 2000
        n = 2000
        tracemalloc.start()
        try:
            experiments._optimal_point(TATxz(), n, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) ** 2 * 16


class TestRunRatioScan:
    def test_zero_ratio_reduces_to_oat(self, monkeypatch):
        monkeypatch.setattr(experiments, "GRID_SAMPLES", 120)
        table = run_ratio_scan(10, "y", [0.0], 300.0)
        oat_curve = run_time_curve(OAT(), 10, "y", default_t_max(10), 200)
        assert table.columns["optimal_xi2"][0] == pytest.approx(
            oat_curve.columns["xi_squared"].min(), rel=0.02)

    def test_metadata_carries_tat_reference(self, monkeypatch):
        monkeypatch.setattr(experiments, "GRID_SAMPLES", 120)
        table = run_ratio_scan(10, "y", [0.0], 300.0)
        assert table.metadata["tat_reference_xi2"] == pytest.approx(0.1381, rel=0.02)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValidationError):
            run_ratio_scan(10, "y", [-0.1], 300.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_ratio(self, ratio):
        # these were let through to DriveParams, which named the amplitude
        with pytest.raises(ValidationError, match=r"drive ratios must be finite and >= 0"):
            run_ratio_scan(10, "y", [ratio], 300.0)

    @pytest.mark.parametrize("ratios, omega", [([0.5], -5.0), ([0.0], math.inf),
                                               ([0.5], math.nan), ([], -1.0)],
                             ids=["negative", "inf", "nan", "no-ratios"])
    def test_bad_omega_is_named_before_any_spec(self, ratios, omega):
        # omega is checked before any r * omega, so a bad omega is named as
        # such, not as a drive amplitude of -2.5 or nan
        with pytest.raises(ValidationError, match=r"drive frequency must be finite and > 0"):
            run_ratio_scan(10, "y", ratios, omega)


class TestUnitsOfChi:
    """Sweeps refine in units of 1/chi: xi^2 and chi t do not depend on chi.

    The refinement stops at an absolute bracket width, so a sweep that
    refined in time itself stopped early for chi > 1: OAT's optimum moved
    by 1.2e-5 in xi^2 at chi = 1000, N = 20..36."""

    def test_static_scaling(self):
        n_list = [20, 24, 28, 32, 36]
        unit, _ = run_n_scaling([OAT(), TATxz()], n_list)
        fast, _ = run_n_scaling([OAT(1000.0), TATxz(1000.0)], n_list)
        for name in ("oat", "tat-xz"):
            xi2, time = (f"optimal_{column}_{name}" for column in ("xi2", "time"))
            assert np.max(np.abs(fast.columns[xi2] - unit.columns[xi2])) <= 1e-15
            assert np.max(np.abs(1000.0 * fast.columns[time] - unit.columns[time])) <= 1e-15

    @pytest.mark.parametrize("chi", [10.0, 1000.0])
    def test_driven_scaling(self, chi):
        # g/chi and omega/chi round apart from the chi = 1 drive in the
        # last bits, so the two agree to rounding, not bit for bit
        n_list = [4, 5, 6, 7, 8]
        unit, _ = run_n_scaling([FullDriven(DriveParams(0.906, 1.0))], n_list)
        fast, _ = run_n_scaling([FullDriven(DriveParams(0.906, 1.0), chi)], n_list)
        assert np.max(np.abs(fast.columns["optimal_xi2_full"]
                             - unit.columns["optimal_xi2_full"])) <= 1e-14
        assert np.allclose(chi * fast.columns["optimal_time_full"],
                           unit.columns["optimal_time_full"], rtol=1e-14, atol=0)

    def test_ratio_scan(self):
        unit = run_ratio_scan(8, "y", [0.0, 0.5], 300.0)
        fast = run_ratio_scan(8, "y", [0.0, 0.5], 3000.0, chi=10.0)
        assert np.max(np.abs(fast.columns["optimal_xi2"] - unit.columns["optimal_xi2"])) <= 1e-15
        assert np.max(np.abs(10.0 * fast.columns["optimal_time"]
                             - unit.columns["optimal_time"])) <= 1e-15
        assert abs(fast.metadata["tat_reference_xi2"]
                   - unit.metadata["tat_reference_xi2"]) <= 1e-15
        assert abs(10.0 * fast.metadata["tat_reference_time"]
                   - unit.metadata["tat_reference_time"]) <= 1e-15

    def test_drive_scaled_past_float_range_names_chi(self):
        # g/chi = omega/chi = 1e310 overflow: the message names chi and the
        # scaled drive, not an amplitude the caller never gave
        with pytest.raises(ValidationError,
                           match=r"^chi=1e-10 scales the drive out of float range: "
                                 r"g/chi = inf, omega/chi = inf$"):
            run_ratio_scan(8, "y", [0.5], 1e300, chi=1e-10)


class TestDrivenSweepTraffic:
    def test_sweeps_jump_only_from_t_zero(self, monkeypatch):
        # every driven scan-n and scan-ratio point builds its one-period
        # propagator W_T once (from t = 0, as every build is), and every
        # refinement batch starts at t = 0 too and builds none: no sweep
        # makes a run from a start off the multiples of T/2, which takes a
        # lead-in
        built, runs = [], []
        refining = [False]
        build, states = evolve._period_propagator, evolve._driven_states
        optimum = experiments.optimal_squeezing

        def spy_build(spec, n_atoms, *args):
            built.append(n_atoms)
            return build(spec, n_atoms, *args)

        def spy_states(spec, n_atoms, psi, t_start, times, *args, **kwargs):
            before = len(built)
            rows = states(spec, n_atoms, psi, t_start, times, *args, **kwargs)
            runs.append((refining[0], t_start, len(built) - before))
            return rows

        def spy_optimum(traj):
            refining[0] = True
            try:
                return optimum(traj)
            finally:
                refining[0] = False

        monkeypatch.setattr(evolve, "_period_propagator", spy_build)
        monkeypatch.setattr(evolve, "_driven_states", spy_states)
        monkeypatch.setattr(experiments, "optimal_squeezing", spy_optimum)
        run_n_scaling([TATxz(), FullDriven(DriveParams(0.906, 1.0))], [4, 5, 6, 7, 8])
        run_ratio_scan(32, "y", [0.2], 1000.0)
        assert built == [4, 5, 6, 7, 8, 32]
        batches = [(t_start, builds) for refine, t_start, builds in runs if refine]
        assert len(batches) > 6 and set(batches) == {(0.0, 0)}

    def test_refinement_restarts_reuse_the_trajectory_propagator(self, monkeypatch):
        # at omega = 1e5 each refinement batch, read from t = 0, spans many
        # periods and jumps; the trajectory holds W_h and W_T from its own
        # run, so the whole point builds them once, not once a batch
        built = []
        build = evolve._period_propagator

        def spy_build(spec, n_atoms, *args):
            built.append(n_atoms)
            return build(spec, n_atoms, *args)

        monkeypatch.setattr(evolve, "_period_propagator", spy_build)
        table = run_ratio_scan(8, "y", [0.5], 1e5)
        assert built == [8]
        assert table.columns["optimal_xi2"][0] == pytest.approx(0.19608811, abs=1e-8)


class TestDefaultTMax:
    def test_clamped_window(self):
        assert default_t_max(4) == 2.0
        assert 0.05 <= default_t_max(2000) <= 2.0
        assert default_t_max(100, chi=2.0) == pytest.approx(default_t_max(100) / 2)

    def test_contains_known_optima(self):
        assert default_t_max(10) > 0.43   # slowest optimum in the tests
        assert default_t_max(100) > 0.08

    @pytest.mark.parametrize("n_atoms, chi", [(0, 1.0), (-4, 1.0), (10, 0.0)])
    def test_rejects_bad_n_or_chi(self, n_atoms, chi):
        with pytest.raises(ValidationError):
            default_t_max(n_atoms, chi)


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

    def test_svg_of_one_row_is_an_empty_chart(self, tmp_path):
        table = SweepTable("time_curve", {"time": [0.0], "xi_squared": [1.0]}, {})
        path = tmp_path / "point.svg"
        emit(table, "svg", path)
        assert path.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480"/>\n')

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
