"""Chunked readout: row functions hand their rows to a reducer chunk by chunk.

A sweep (`experiments._optimal_point`, `run_time_curve`) reduces each chunk
of rows to xi^2 and keeps no trajectory, so its memory does not grow with
its samples; the public path (`propagate_*`, `optimal_squeezing`,
`squeezing_curve`) makes and reduces its rows in the same chunks and gives
the same bits. A driven run's held period chain lets later calls pick up
where earlier ones left off.
"""

import tracemalloc

import numpy as np
import pytest

from spinsqueeze import (DriveParams, FullDriven, OAT, TATxz, coherent_spin_state,
                         default_t_max, evolve, experiments, optimal_squeezing,
                         propagate_driven, propagate_static, spin_core,
                         squeezing_curve)
from spinsqueeze.squeezing import _squeezing


def scan_spec(n):
    """The driven scan-n point at N: g/omega = 0.906, omega = 70 N chi."""
    return experiments._spec_for_n(FullDriven(DriveParams(0.906, 1.0)), n)


def public_trajectory(spec, n, times):
    """The trajectory the public API makes for a sweep point from +y."""
    if isinstance(spec, FullDriven):
        return propagate_driven(spec, coherent_spin_state(n, "y"), times)
    return propagate_static(spec, coherent_spin_state(n, "y"), times)


def small_chunks(monkeypatch, n, rows):
    """Chunks of `rows` rows at N from now on."""
    monkeypatch.setattr(spin_core, "ROW_CHUNK_BYTES", rows * 16 * (n + 1))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SWEEP_POINTS = [(TATxz(), 12), (OAT(), 13), (scan_spec(12), 12), (scan_spec(13), 13)]
SWEEP_IDS = ["static-even", "static-odd", "driven-even", "driven-odd"]


class TestSweepIdentity:
    @pytest.mark.parametrize("spec, n", SWEEP_POINTS, ids=SWEEP_IDS)
    def test_optimum_is_the_public_paths(self, monkeypatch, spec, n):
        # 7 rows a chunk: the 200-sample grid comes in 29 chunks and each
        # refinement batch of 15 or 16 points in three; the sweep, which
        # holds no trajectory, finds the public path's optimum bit for bit
        small_chunks(monkeypatch, n, 7)
        reduced = []

        def counted(n_atoms, rows):
            reduced.append(len(rows))
            return _squeezing(n_atoms, rows)

        monkeypatch.setattr(experiments, "_squeezing", counted)
        xi2, time = experiments._optimal_point(spec, n, "y")
        assert reduced[:29] == [7] * 28 + [4] and max(reduced) == 7
        assert len(reduced) > 29 + 3
        times = np.linspace(0.0, default_t_max(n), experiments.GRID_SAMPLES)
        record = optimal_squeezing(public_trajectory(spec, n, times))
        assert (xi2, time) == (record.xi_squared, record.time)

    @pytest.mark.parametrize("spec, n", SWEEP_POINTS, ids=SWEEP_IDS)
    def test_curve_is_the_public_paths(self, monkeypatch, spec, n):
        small_chunks(monkeypatch, n, 5)
        table = experiments.run_time_curve(spec, n, "y", 0.3, 48)
        records = squeezing_curve(public_trajectory(spec, n, table.columns["time"]))
        assert list(table.columns["xi_squared"]) == [r.xi_squared for r in records]

    @pytest.mark.parametrize("spec, n", SWEEP_POINTS, ids=SWEEP_IDS)
    def test_chunks_move_xi2_only_by_rounding(self, monkeypatch, spec, n):
        # the chunked curve is the one-chunk curve to rounding: every row is
        # made on its own, and only the grouping of products differs
        whole = experiments.run_time_curve(spec, n, "y", 0.3, 48).columns["xi_squared"]
        small_chunks(monkeypatch, n, 5)
        chunked = experiments.run_time_curve(spec, n, "y", 0.3, 48).columns["xi_squared"]
        assert np.max(np.abs(chunked - whole)) <= 1e-13


class TestHeldChain:
    def setup_method(self):
        self.n = 10
        self.spec = FullDriven(DriveParams(0.906 * 7000.0, 7000.0))  # 0.3 spans 334 periods
        self.psi = coherent_spin_state(self.n, "y").amplitudes

    def rows(self, times, held, t_start=0.0, psi=None):
        return evolve._driven_states(self.spec, self.n, self.psi if psi is None else psi,
                                     t_start, times, None, held=held)

    def counted_matvecs(self, monkeypatch):
        calls = []
        real = evolve._band_matvec

        def counting(band):
            product = real(band)

            def matvec(vector):
                calls.append(1)
                return product(vector)
            return matvec

        monkeypatch.setattr(evolve, "_band_matvec", counting)
        return calls

    def test_continuation_is_a_fresh_calls_rows(self, monkeypatch):
        # a call from the start the chain was made from picks its columns
        # up from the held ones, at or below each: the same bits as a fresh
        # call that chains from v_0, for far fewer period products
        small_chunks(monkeypatch, self.n, 4)
        held = {}
        self.rows(np.linspace(0.0, 0.3, 40), held)
        matvecs = self.counted_matvecs(monkeypatch)
        later = [0.1301, 0.1303, 0.2507, 0.2999]
        continued = self.rows(later, held)
        picked_up = len(matvecs)
        fresh = self.rows(later, {})
        assert np.array_equal(continued, fresh)
        # chunks of 4 samples span 34 periods; a fresh call chains 334
        assert picked_up < 60 and len(matvecs) - picked_up > 300

    def test_another_start_begins_its_own_chain(self):
        held = {}
        self.rows(np.linspace(0.0, 0.3, 40), held)
        t_half = 20 * (2 * np.pi / self.spec.drive.frequency_omega / 2)  # 10 periods on
        start = self.rows([t_half], {})[0]
        times = [t_half, t_half + 0.05, t_half + 0.2]
        assert np.array_equal(self.rows(times, held, t_half, start),
                              self.rows(times, {}, t_half, start))
        (t_from, psi), _ = held["chain"]
        assert t_from == t_half and np.array_equal(psi, start)

    def test_held_columns_are_bounded_by_the_chunks(self, monkeypatch):
        # 334 periods, 40 samples in 10 chunks: the chain keeps the first
        # and the last column each chunk needed, not one a period
        small_chunks(monkeypatch, self.n, 4)
        held = {}
        self.rows(np.linspace(0.0, 0.3, 40), held)
        _, columns = held["chain"]
        assert len(columns) <= 1 + 2 * 10
        assert max(columns) >= 300


class TestMemory:
    def test_paper_scale_point_holds_less_than_its_grid(self):
        # the 200 grid rows at N = 2000 would alone take 6.4 MB; the point
        # holds its two half-size eigenbases (4.0 MB) and one chunk of rows
        n = 2000
        peak = traced_peak(lambda: experiments._optimal_point(TATxz(), n, "y"))
        assert peak < experiments.GRID_SAMPLES * (n + 1) * 16

    def assert_flat(self, spec, n):
        # the peak grows only by a time, its plan and its xi^2 per sample,
        # under 128 bytes, where 4000 more rows would hold 4000 (N+1) 16
        experiments.run_time_curve(spec, n, "y", 0.3, 10)  # the caches, once
        short, long = (traced_peak(lambda: experiments.run_time_curve(spec, n, "y", 0.3, s))
                       for s in (2000, 6000))
        assert long - short < 4000 * 128

    def test_static_curve_peak_does_not_grow_with_its_rows(self):
        self.assert_flat(TATxz(), 200)  # 12.9 MB more of rows

    def test_driven_curve_peak_does_not_grow_past_the_checkpoint_cap(self, monkeypatch):
        # the driven-curve problem (N = 100, stride 3 at 400 samples): from
        # 2000 to 6000 samples the stride would fall to 1 and the
        # checkpoints grow by 3.6 MB; a cap of 2048 states keeps stride 3
        monkeypatch.setattr(evolve, "CHECKPOINT_BYTES_MAX", 2048 * 101 * 16)
        self.assert_flat(FullDriven(DriveParams(0.906 * 2000.0, 2000.0)), 100)
