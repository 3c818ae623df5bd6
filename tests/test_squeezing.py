import numpy as np
import pytest

from spinsqueeze import (DickeState, DriveParams, FullDriven, OAT, TATxz,
                         Trajectory, ValidationError, build_hamiltonian,
                         coherent_spin_state, default_t_max, optimal_squeezing,
                         propagate_static, propagate_driven, xi_squared)
from spinsqueeze import StepControl, evolve

import oracles


def css(n, axis="+y"):
    return coherent_spin_state(n, axis)


def evolved(spec, n, t, axis="+y"):
    traj = propagate_static(build_hamiltonian(spec, n), css(n, axis), [0.0, t])
    return traj.states[-1]


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
        # refinement restarts from stored samples; the state it measures
        # must be the one a single run from t = 0 reaches
        if isinstance(spec, FullDriven):
            def propagate(times):
                return propagate_driven(spec, css(n), times)
        else:
            def propagate(times):
                return propagate_static(build_hamiltonian(spec, n), css(n),
                                        times)
        grid = np.linspace(0, t_max, samples)
        record = optimal_squeezing(propagate(grid))
        assert np.min(np.abs(grid - record.time)) > 0  # a restarted, off-grid state
        direct = xi_squared(propagate([0.0, record.time]).states[-1])
        assert direct.xi_squared == pytest.approx(record.xi_squared, abs=tol)

    def test_driven_refinement_uses_trajectory_control(self, monkeypatch):
        seen = []
        real = evolve.driven_state_at

        def spy(spec, initial, t_start, t_end, control=None):
            seen.append(control)
            return real(spec, initial, t_start, t_end, control)

        monkeypatch.setattr(evolve, "driven_state_at", spy)
        spec = FullDriven(DriveParams(0.906 * 300, 300.0))
        control = StepControl().refined(2)
        traj = propagate_driven(spec, css(10), np.linspace(0, 0.6, 40), control)
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

    def test_hand_built_trajectory_has_no_propagator(self):
        traj = propagate_static(build_hamiltonian(OAT(), 4), css(4),
                                [0.0, 0.1, 0.2])
        hand_built = Trajectory(traj.times, traj.states)
        with pytest.raises(ValidationError, match="no propagator"):
            optimal_squeezing(hand_built)

    def test_all_degenerate_raises(self):
        n = 4
        amp = np.zeros(n + 1)
        amp[n // 2] = 1.0
        state = DickeState(n, amp)
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), (state, state, state))
        with pytest.raises(ValidationError, match="over-squeezed"):
            optimal_squeezing(traj)
