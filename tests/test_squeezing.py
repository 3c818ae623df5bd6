import dataclasses
import functools
import subprocess
import sys

import numpy as np
import pytest

from spinsqueeze import (DickeState, DriveParams, FullDriven, OAT, TATxz,
                         Trajectory, ValidationError, build_hamiltonian,
                         coherent_spin_state, default_t_max, optimal_squeezing,
                         propagate_static, propagate_driven, xi_squared)
from spinsqueeze import StepControl, evolve, squeezing, squeezing_curve
from spinsqueeze.squeezing import _moments

import oracles
from test_cli import _cli_env
from test_evolve import march_log


def css(n, axis="+y"):
    return coherent_spin_state(n, axis)


def evolved(spec, n, t, axis="+y"):
    traj = propagate_static(build_hamiltonian(spec, n), css(n, axis), [0.0, t])
    return traj.states[-1]


def sequential_golden(traj):
    """(record, visited times) of a plain golden-section search on xi^2
    between the grid minimum's neighbours, each point one advance call from
    t = 0, measured by xi_squared."""
    curve = squeezing_curve(traj)
    i_min = int(np.argmin([r.xi_squared if not r.degenerate_flag else np.inf
                           for r in curve]))
    golden = (np.sqrt(5) - 1) / 2
    visited = []

    def evaluate(t):
        visited.append(t)
        row, = traj.advance(traj.amplitudes[0], 0.0, [t])
        return xi_squared(DickeState(traj.n_atoms, row), t)

    a, b = traj.times[max(i_min - 1, 0)], traj.times[min(i_min + 1, len(curve) - 1)]
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    r1, r2 = evaluate(x1), evaluate(x2)
    width = np.inf
    while squeezing.REFINE_TIME_TOL < b - a < width:
        width = b - a
        if r1.xi_squared < r2.xi_squared:
            b, x2, r2 = x2, x1, r1
            x1 = b - golden * (b - a)
            r1 = evaluate(x1)
        else:
            a, x1, r1 = x1, x2, r2
            x2 = a + golden * (b - a)
            r2 = evaluate(x2)
    best = min((r for r in (curve[i_min], r1, r2) if not r.degenerate_flag),
               key=lambda r: r.xi_squared)
    return best, visited


class TestXiSquared:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_css_baseline(self, n):
        record = xi_squared(css(n))
        assert record.xi_squared == pytest.approx(1, abs=1e-9)
        assert np.allclose(record.mean_spin, [0, n / 2, 0], atol=1e-9)
        assert record.mean_spin_length == pytest.approx(n / 2, abs=1e-9)
        assert not record.degenerate_flag

    def test_mean_spin_length_consistent(self):
        record = xi_squared(evolved(TATxz(), 10, 0.3))
        assert record.mean_spin_length == pytest.approx(
            np.linalg.norm(record.mean_spin), abs=1e-12)

    def test_optimal_angle_range(self):
        for t in (0.05, 0.1, 0.2, 0.35):
            record = xi_squared(evolved(TATxz(), 10, t))
            assert 0 <= record.optimal_angle < np.pi

    @pytest.mark.parametrize("spec,n,t", [
        (OAT(), 4, 0.15),
        (OAT(), 10, 0.1),
        (TATxz(), 10, 0.3),
        (FullDriven(DriveParams(0.906 * 100, 100.0)), 8, 0.2),
    ])
    def test_closed_form_matches_direction_scan(self, spec, n, t):
        if isinstance(spec, FullDriven):
            traj = propagate_driven(spec, css(n), [0.0, t])
            state = traj.states[-1]
        else:
            state = evolved(spec, n, t)
        got = xi_squared(state).xi_squared
        want = oracles.xi_squared_direction_scan(state.amplitudes, n)
        assert got == pytest.approx(want, abs=1e-6)

    def test_rotation_invariance(self):
        n = 10
        state = evolved(OAT(), n, 0.12)
        base = xi_squared(state).xi_squared
        rng = np.random.default_rng(7)
        for _ in range(5):
            axis = rng.normal(size=3)
            theta = rng.uniform(0, 2 * np.pi)
            rotated = DickeState(n, oracles.rotation(n, axis, theta) @ state.amplitudes)
            assert xi_squared(rotated).xi_squared == pytest.approx(base, abs=1e-9)

    def test_frame_independence(self):
        # any orthonormal transverse pair gives the same minimum eigenvalue
        n = 10
        state = evolved(TATxz(), n, 0.25)
        record = xi_squared(state)
        n0 = record.mean_spin / record.mean_spin_length
        jx, jy, jz = oracles.raw_spin_matrices(n)
        rng = np.random.default_rng(3)
        for _ in range(4):
            seed = rng.normal(size=3)
            n1 = np.cross(n0, seed)
            n1 /= np.linalg.norm(n1)
            n2 = np.cross(n0, n1)
            ops = [c[0] * jx + c[1] * jy + c[2] * jz for c in (n1, n2)]
            psi = state.amplitudes
            v11 = oracles.mean_and_variance(psi, ops[0])[1]
            v22 = oracles.mean_and_variance(psi, ops[1])[1]
            v12 = oracles.symmetrized_covariance_raw(psi, ops[0], ops[1])
            lam = 0.5 * (v11 + v22 - np.hypot(v11 - v22, 2 * v12))
            assert 4 * lam / n == pytest.approx(record.xi_squared, abs=1e-12)

    def test_degenerate_state_flagged(self):
        # |J, m=0> has zero mean spin in every direction
        n = 4
        amp = np.zeros(n + 1)
        amp[n // 2] = 1.0
        record = xi_squared(DickeState(n, amp))
        assert record.degenerate_flag
        assert record.mean_spin_length < 1e-10

    def test_positive_and_bounded_at_t0(self):
        for n in (2, 20):
            record = xi_squared(css(n))
            assert 0 < record.xi_squared <= 1 + 1e-12


def random_rows(n, rows=4):
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(rows, n + 1)) + 1j * rng.normal(size=(rows, n + 1))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def dicke_row(n, k):
    psi = np.zeros((1, n + 1), dtype=complex)
    psi[0, k] = 1.0
    return psi


@functools.lru_cache(maxsize=1)  # N = 2000's three matrices take 192 MB
def spin_ops(n):
    return oracles.raw_spin_matrices(n)


def dense_transverse(n, row):
    """Dense (Jx, Jy, Jz) |row>, the mean spin, and the oracle's transverse
    pair (n1, n2) about it, or about z where the mean spin vanishes."""
    vecs = [a @ row for a in spin_ops(n)]
    mean = np.array([np.vdot(row, v).real for v in vecs])
    return vecs, mean, oracles._transverse_frame(mean if mean.any() else [0.0, 0.0, 1.0])


def assert_matches_oracle(n, psi):
    """Each record's xi^2 N / 4 is the least eigenvalue of the oracle frame's
    dense 2x2 covariance, and is the variance along its optimal angle."""
    for row, record in zip(psi, squeezing_curve(Trajectory(np.arange(len(psi)), psi))):
        vecs, mean, (n1, n2) = dense_transverse(n, row)

        def variance(direction):
            along = sum(d * v for d, v in zip(direction, vecs))
            return np.vdot(along, along).real - (direction @ mean) ** 2

        # polarization: Var(a + b) - Var(a - b) = 4 Cov(a, b)
        cov = [[(variance(a + b) - variance(a - b)) / 4 for b in (n1, n2)]
               for a in (n1, n2)]
        alpha = record.optimal_angle
        scale = record.xi_squared * n / 4
        for got in (np.linalg.eigvalsh(cov)[0],
                    variance(np.cos(alpha) * n1 + np.sin(alpha) * n2)):
            assert abs(got - scale) <= 1e-10 * scale


class TestOptimalAngle:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_random_rows_match_oracle(self, n):
        assert_matches_oracle(n, random_rows(n))

    @pytest.mark.parametrize("kind", ["oat", "tat", "driven"])
    def test_trajectory_rows_match_oracle(self, kind):
        n, times = 20, np.linspace(0, 0.3, 7)
        if kind == "driven":
            traj = propagate_driven(FullDriven(DriveParams(0.906 * 300, 300.0)),
                                    css(n), times)
        else:
            spec = OAT() if kind == "oat" else TATxz()
            traj = propagate_static(build_hamiltonian(spec, n), css(n), times)
        assert_matches_oracle(n, traj.amplitudes)

    @pytest.mark.parametrize("axis", ["+x", "+y"])
    @pytest.mark.parametrize("n", [2, 10, 100, 500, 1000, 2000])
    def test_coherent_state_angle_is_zero(self, n, axis):
        # the covariance is isotropic; v11 - v22 is rounding residue only
        assert xi_squared(css(n, axis)).optimal_angle == 0.0


MOMENT_ROWS = pytest.mark.parametrize("n, psi", [
    *[(n, random_rows(n)) for n in (1, 2, 7, 40, 2000)],
    (7, dicke_row(7, 0)), (40, dicke_row(40, 0)),  # |J, J>, mean along +z
    (7, dicke_row(7, 7)), (40, dicke_row(40, 40)),  # |J, -J>, along -z
    (2, dicke_row(2, 1)), (40, dicke_row(40, 20)),  # |J, 0>, zero mean
], ids=[*(f"random-{n}" for n in (1, 2, 7, 40, 2000)), "top-7", "top-40",
        "bottom-7", "bottom-40", "middle-2", "middle-40"])


class TestBandedMoments:
    @MOMENT_ROWS
    def test_six_sums_match_dense_operators(self, n, psi):
        jp, jz, jz2, s, w, p = _moments(n, psi)
        tol = 1e-12 * n ** 2
        for k, row in enumerate(psi):
            (x, y, z), mean, _ = dense_transverse(n, row)
            want = {"jp": mean[0] + 1j * mean[1], "jz": mean[2],
                    "jz2": np.vdot(z, z).real,
                    "jx2": np.vdot(x, x).real, "jy2": np.vdot(y, y).real,
                    "jxjy": 2 * np.vdot(x, y).real,  # <JxJy + JyJx>
                    "p": 2 * np.vdot(x, z).real + 2j * np.vdot(y, z).real}
            got = {"jp": jp[k], "jz": jz[k], "jz2": jz2[k],
                   "jx2": s[k] + 2 * w[k].real, "jy2": s[k] - 2 * w[k].real,
                   "jxjy": 4 * w[k].imag, "p": p[k]}
            for name in want:
                assert abs(got[name] - want[name]) <= tol, name

    @MOMENT_ROWS
    def test_xi_squared_and_angle_match_oracle(self, n, psi):
        assert_matches_oracle(n, psi)

    @pytest.mark.parametrize("kind", ["static", "driven"])
    def test_curve_matches_per_state_records(self, kind):
        if kind == "static":
            traj = propagate_static(build_hamiltonian(TATxz(), 20), css(20),
                                    np.linspace(0, 0.5, 30))
        else:
            traj = propagate_driven(FullDriven(DriveParams(0.906 * 300, 300.0)),
                                    css(10), np.linspace(0, 0.3, 12))
        curve = squeezing_curve(traj)
        assert len(curve) == len(traj.states)
        for got, state, t in zip(curve, traj.states, traj.times):
            want = xi_squared(state, t)
            assert got.time == want.time
            assert got.xi_squared == pytest.approx(want.xi_squared, abs=1e-13)
            assert np.max(np.abs(got.mean_spin - want.mean_spin)) <= 1e-13
            assert got.mean_spin_length == pytest.approx(want.mean_spin_length, abs=1e-13)
            assert got.optimal_angle == pytest.approx(want.optimal_angle, abs=1e-13)
            assert got.degenerate_flag == want.degenerate_flag


class TestOptimalSqueezing:
    def test_tat_n10(self):
        traj = propagate_static(build_hamiltonian(TATxz(), 10), css(10),
                                np.linspace(0, 0.6, 200))
        record = optimal_squeezing(traj)
        assert record.xi_squared == pytest.approx(0.1381, rel=0.02)
        assert record.time == pytest.approx(0.4238, abs=5e-3)

    def test_oat_n100(self):
        traj = propagate_static(build_hamiltonian(OAT(), 100), css(100),
                                np.linspace(0, 0.27, 200))
        assert optimal_squeezing(traj).xi_squared == pytest.approx(0.0479, rel=0.02)

    def test_refinement_beats_coarse_grid(self):
        spec = TATxz()
        coarse = propagate_static(build_hamiltonian(spec, 10), css(10),
                                  np.linspace(0, 0.6, 12))
        record = optimal_squeezing(coarse)
        grid_best = min(xi_squared(s).xi_squared for s in coarse.states)
        assert record.xi_squared <= grid_best
        assert record.xi_squared == pytest.approx(0.1381, rel=0.02)

    def test_driven_refinement(self):
        spec = FullDriven(DriveParams(0.906 * 300, 300.0))
        traj = propagate_driven(spec, css(10), np.linspace(0, 0.6, 80))
        record = optimal_squeezing(traj)
        assert record.xi_squared == pytest.approx(0.1381, rel=0.05)

    def test_driven_refinement_within_drift_guard(self):
        # the trajectory meets the drift guard here, so refinement between
        # its samples must too
        spec = FullDriven(DriveParams(1200.0, 1000.0))
        traj = propagate_driven(spec, css(24),
                                np.linspace(0, default_t_max(24), 200))
        record = optimal_squeezing(traj)
        assert not record.degenerate_flag
        assert 0 < record.xi_squared < 1

    @pytest.mark.parametrize("spec,n,t_max,samples,tol", [
        (TATxz(), 100, default_t_max(100), 200, 1e-10),
        (FullDriven(DriveParams(0.906 * 300, 300.0)), 10, 0.6, 80, 1e-6),
    ])
    def test_refined_optimum_matches_propagation_from_zero(
            self, spec, n, t_max, samples, tol):
        # refinement reads its batches off the trajectory's propagator;
        # the state it measures must be the one a fresh run from t = 0 reaches
        if isinstance(spec, FullDriven):
            def propagate(times):
                return propagate_driven(spec, css(n), times)
        else:
            def propagate(times):
                return propagate_static(build_hamiltonian(spec, n), css(n),
                                        times)
        grid = np.linspace(0, t_max, samples)
        record = optimal_squeezing(propagate(grid))
        assert np.min(np.abs(grid - record.time)) > 0  # a continued, off-grid state
        direct = xi_squared(propagate([0.0, record.time]).states[-1])
        assert direct.xi_squared == pytest.approx(record.xi_squared, abs=tol)

    @pytest.mark.parametrize("n,omega,ratio,time,xi2", [
        # driven-scan-n's largest point
        (12, 840.0, 0.906, 0.371874486169454, 0.119751175133829),
        # driven-ratio
        (32, 1000.0, 1.0, 0.205284186348733, 0.0546713715141678),
    ], ids=["driven-scan-n", "driven-ratio"])
    def test_refinement_marches_no_grid_step(self, monkeypatch, n, omega, ratio,
                                             time, xi2):
        # every batch is read from t = 0 off the W_T chain and the
        # checkpoints that the trajectory holds: no RK4 march
        traj = propagate_driven(FullDriven(DriveParams(ratio * omega, omega)),
                                css(n), np.linspace(0, default_t_max(n), 200))
        log = march_log(monkeypatch)
        record = optimal_squeezing(traj)
        assert sum(steps for _, _, steps in log) == 0
        assert record.time == pytest.approx(time, abs=1e-12)
        assert record.xi_squared == pytest.approx(xi2, abs=1e-10)

    @pytest.mark.parametrize("kind", ["static", "driven"])
    def test_batched_search_visits_the_sequential_points(self, kind):
        # a plain golden-section loop, one time per advance call from t = 0,
        # reaches the batched search's optimum: the same time, bit for bit,
        # and xi^2 to rounding, with every point it visits among the batches'
        if kind == "static":
            problems = [(TATxz(), 12), (OAT(), 600)]
        else:
            problems = [(FullDriven(DriveParams(0.906 * 840.0, 840.0)), 12),
                        (FullDriven(DriveParams(1000.0, 1000.0)), 32)]
        for spec, n in problems:
            grid = np.linspace(0, default_t_max(n), 200)
            if kind == "static":
                made = propagate_static(spec, css(n), grid)
            else:
                made = propagate_driven(spec, css(n), grid)
            batched = []

            def counted(psi, t_from, times):
                batched.extend(times)
                return made.advance(psi, t_from, times)

            record = optimal_squeezing(dataclasses.replace(made, advance=counted))
            want, visited = sequential_golden(made)
            assert record.time == want.time
            assert record.xi_squared == pytest.approx(want.xi_squared, abs=1e-12)
            assert set(visited) <= set(batched)

    def test_records_only_the_candidates(self, monkeypatch):
        # the grid minimum and the two final golden-section points
        built = []

        class Counted(squeezing.SqueezingRecord):
            def __post_init__(self):
                built.append(self.time)
                super().__post_init__()

        traj = propagate_static(build_hamiltonian(TATxz(), 10), css(10),
                                np.linspace(0, 0.6, 200))
        monkeypatch.setattr(squeezing, "SqueezingRecord", Counted)
        record = optimal_squeezing(traj)
        assert len(built) == 3 and record.time in built
        assert record.xi_squared == pytest.approx(0.1381, rel=0.02)

    @pytest.mark.parametrize("kind", ["static", "driven"])
    def test_builds_each_state_once(self, monkeypatch, kind):
        # no DickeState: each advance reads its batch from the trajectory's
        # first row, as it is, at t = 0
        if kind == "static":
            made = propagate_static(build_hamiltonian(TATxz(), 10), css(10),
                                    np.linspace(0, 0.6, 40))
        else:
            made = propagate_driven(FullDriven(DriveParams(0.906 * 300, 300.0)),
                                    css(10), np.linspace(0, 0.6, 40))
        calls = []

        def counted(psi, t_from, times):
            rows = made.advance(psi, t_from, times)
            calls.append((psi, t_from, times, rows))
            return rows

        traj = dataclasses.replace(made, advance=counted)
        built = []
        post_init = DickeState.__post_init__

        def counting(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(DickeState, "__post_init__", counting)
        optimal_squeezing(traj)
        assert calls and not built
        for psi, t_from, times, rows in calls:
            assert t_from == 0.0 and np.shares_memory(psi, traj.amplitudes[0])

    @pytest.mark.parametrize("kind", ["static", "driven"])
    def test_measures_each_state_once(self, monkeypatch, kind):
        # one _squeezing call on the grid, then one on each row an advance
        # returns; the candidates' records reuse those arrays
        if kind == "static":
            made = propagate_static(build_hamiltonian(TATxz(), 10), css(10),
                                    np.linspace(0, 0.6, 40))
        else:
            made = propagate_driven(FullDriven(DriveParams(0.906 * 300, 300.0)),
                                    css(10), np.linspace(0, 0.6, 40))
        advanced, measured = [], []

        def counted_advance(psi, t_from, times):
            advanced.append(t_from)
            return made.advance(psi, t_from, times)

        real = squeezing._squeezing

        def counted(n_atoms, psi):
            measured.append(len(psi))
            return real(n_atoms, psi)

        monkeypatch.setattr(squeezing, "_squeezing", counted)
        optimal_squeezing(dataclasses.replace(made, advance=counted_advance))
        assert advanced and measured[0] == len(made.times)
        assert len(measured) == 1 + len(advanced)

    def test_degenerate_refined_points_lose_to_the_grid(self, monkeypatch):
        # every refined point reports xi^2 = 0, below the grid minimum, with
        # a degenerate mean spin: the pick must leave them out. A real
        # zero-mean state would not do: its mean spin is rounding noise, so
        # its frame and xi^2 are arbitrary. The first _squeezing call
        # measures the grid, every later one a refinement batch
        traj = propagate_static(build_hamiltonian(TATxz(), 10), css(10),
                                np.linspace(0, 0.6, 40))
        grid_best = min(squeezing_curve(traj), key=lambda r: r.xi_squared)
        real = squeezing._squeezing
        calls = []

        def over_squeezed(n_atoms, psi):
            xi2, mean, length, angle, degenerate = real(n_atoms, psi)
            calls.append(len(psi))
            if len(calls) > 1:
                xi2, degenerate = np.zeros(len(psi)), np.ones(len(psi), dtype=bool)
            return xi2, mean, length, angle, degenerate

        monkeypatch.setattr(squeezing, "_squeezing", over_squeezed)
        record = optimal_squeezing(traj)
        assert len(calls) > 1
        assert record.time == grid_best.time
        assert record.xi_squared == grid_best.xi_squared
        assert not record.degenerate_flag

    def test_driven_refinement_uses_trajectory_control(self, monkeypatch):
        seen = []
        real = evolve._driven_states

        def spy(spec, n_atoms, psi, t_start, times, control, *args, **kwargs):
            seen.append(control)
            return real(spec, n_atoms, psi, t_start, times, control, *args, **kwargs)

        monkeypatch.setattr(evolve, "_driven_states", spy)
        spec = FullDriven(DriveParams(0.906 * 300, 300.0))
        control = StepControl().refined(2)
        traj = propagate_driven(spec, css(10), np.linspace(0, 0.6, 40), control)
        seen.clear()
        optimal_squeezing(traj)
        assert seen
        assert all(c == control for c in seen)

    def test_static_refinement_reuses_eigenbasis(self, monkeypatch):
        spec = TATxz()
        traj = propagate_static(build_hamiltonian(spec, 20), css(20),
                                np.linspace(0, 0.4, 30))
        calls = []
        real = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        optimal_squeezing(traj)
        assert calls == []

    def test_needs_three_samples(self):
        traj = propagate_static(build_hamiltonian(OAT(), 4), css(4),
                                [0.0, 0.1])
        with pytest.raises(ValidationError):
            optimal_squeezing(traj)

    def test_static_trajectory_refines_without_spec(self):
        # reference: the same optimum, refined with spec= set before
        # propagate_static always attached its eigenbasis
        traj = propagate_static(build_hamiltonian(OAT(), 20), css(20),
                                np.linspace(0, default_t_max(20), 40))
        record = optimal_squeezing(traj)
        assert record.xi_squared == pytest.approx(0.13227635921395303, abs=1e-12)
        assert record.time == pytest.approx(0.15754092175374856, abs=1e-12)

    def test_refinement_ends_where_ulp_exceeds_tolerance(self):
        # at chi = 1e-13 the N = 4 optimum sits near t = 5e12, where ulp(t)
        # is about 1e-3 > REFINE_TIME_TOL: the golden bracket stops
        # shrinking above the tolerance, and the search must stop with it;
        # a subprocess with a timeout, so a search that never ends fails
        # instead of hanging the suite
        code = ("import numpy as np; from spinsqueeze import OAT, coherent_spin_state, "
                "default_t_max, optimal_squeezing, propagate_static; "
                "times = np.linspace(0, default_t_max(4, 1e-13), 200); "
                "traj = propagate_static(OAT(1e-13), coherent_spin_state(4, 'y'), times); "
                "print(repr(optimal_squeezing(traj).xi_squared))")
        out = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout
        unit = optimal_squeezing(propagate_static(OAT(), css(4), np.linspace(0, 2.0, 200)))
        assert float(out) == pytest.approx(unit.xi_squared, abs=1e-8)

    def test_hand_built_trajectory_has_no_propagator(self):
        traj = propagate_static(build_hamiltonian(OAT(), 4), css(4),
                                [0.0, 0.1, 0.2])
        hand_built = Trajectory(traj.times, traj.amplitudes)
        with pytest.raises(ValidationError, match="no propagator"):
            optimal_squeezing(hand_built)

    def test_all_degenerate_raises(self):
        n = 4
        amp = np.zeros(n + 1)
        amp[n // 2] = 1.0
        state = DickeState(n, amp)
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.tile(state.amplitudes, (3, 1)))
        with pytest.raises(ValidationError, match="over-squeezed"):
            optimal_squeezing(traj)
