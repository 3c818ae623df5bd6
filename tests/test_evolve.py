import numpy as np
import pytest

from spinsqueeze import (CollectiveOperator, DriveParams, FullDriven,
                         IntegrationError, OAT, StepControl, TATxz,
                         Trajectory, ValidationError, build_hamiltonian,
                         casimir, coherent_spin_state, expectation,
                         DickeState, propagate_driven, propagate_static,
                         squeezing_curve, xi_squared)

import oracles


def css(n, axis="+y"):
    return coherent_spin_state(n, axis)


class TestPropagateStatic:
    def test_zero_hamiltonian_is_identity(self):
        n = 6
        zero = CollectiveOperator(n, np.zeros((n + 1, n + 1)), "Hamiltonian")
        traj = propagate_static(zero, css(n), [0.0, 1.0])
        assert np.allclose(traj.states[-1].amplitudes, css(n).amplitudes, atol=1e-12)

    def test_single_spin_oat_only_dephases(self):
        traj = propagate_static(build_hamiltonian(OAT(), 1), css(1),
                                [0.0, 0.3, 1.7])
        for state in traj.states:
            overlap = abs(np.vdot(state.amplitudes, css(1).amplitudes))
            assert overlap == pytest.approx(1, abs=1e-12)
            assert xi_squared(state).xi_squared == pytest.approx(1, abs=1e-9)

    def test_matches_expm_oracle(self):
        n, t = 8, 0.37
        h = build_hamiltonian(TATxz(), n)
        traj = propagate_static(h, css(n), [0.0, t])
        want = oracles.evolve_expm(h.matrix, css(n).amplitudes, t)
        assert np.allclose(traj.states[-1].amplitudes, want, atol=1e-10)

    def test_tat_minimum_matches_reference(self):
        n = 10
        traj = propagate_static(build_hamiltonian(TATxz(), n), css(n),
                                np.linspace(0, 0.6, 400), spec=TATxz())
        xs = [r.xi_squared for r in squeezing_curve(traj)]
        assert min(xs) == pytest.approx(0.1381, rel=0.02)

    def test_rejects_non_hermitian(self):
        n = 3
        bad = CollectiveOperator(n, np.triu(np.ones((n + 1, n + 1))), "Hamiltonian")
        with pytest.raises(ValidationError):
            propagate_static(bad, css(n), [0.0, 1.0])

    def test_rejects_bad_times(self):
        h = build_hamiltonian(OAT(), 4)
        with pytest.raises(ValidationError):
            propagate_static(h, css(4), [])
        with pytest.raises(ValidationError):
            propagate_static(h, css(4), [0.1, 0.2])
        with pytest.raises(ValidationError):
            propagate_static(h, css(4), [0.0, 0.2, 0.2])
        with pytest.raises(ValidationError):
            propagate_static(h, css(4), [0.0, np.nan, 1.0], spec=OAT())

    def test_energy_conserved(self):
        n = 20
        h = build_hamiltonian(TATxz(), n)
        traj = propagate_static(h, css(n), np.linspace(0, 1.0, 30))
        energies = [expectation(h, s) for s in traj.states]
        assert max(energies) - min(energies) < 1e-8


def driven_spec(n, omega, ratio=0.906, chi=1.0):
    return FullDriven(DriveParams(ratio * omega, omega), chi)


class TestPropagateDriven:
    def test_zero_drive_reduces_to_oat(self):
        n = 10
        times = np.linspace(0, 0.5, 21)
        spec = FullDriven(DriveParams(0.0, 300.0))
        driven = propagate_driven(spec, css(n), times)
        static = propagate_static(build_hamiltonian(OAT(), n), css(n), times)
        for a, b in zip(driven.states, static.states):
            fidelity = abs(np.vdot(a.amplitudes, b.amplitudes))
            assert fidelity > 1 - 1e-8

    def test_tracks_tat_at_high_frequency(self):
        n = 10
        times = np.linspace(0, 0.5, 51)
        driven = propagate_driven(driven_spec(n, 300.0), css(n), times)
        static = propagate_static(build_hamiltonian(TATxz(), n), css(n), times)
        xd = [r.xi_squared for r in squeezing_curve(driven)]
        xs = [r.xi_squared for r in squeezing_curve(static)]
        assert np.max(np.abs(np.array(xd) - np.array(xs))) < 0.05

    def test_norm_and_casimir_conserved(self):
        n = 12
        times = np.linspace(0, 0.4, 15)
        traj = propagate_driven(driven_spec(n, 100.0), css(n), times)
        j = n / 2
        for state in traj.states:
            assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-9
            assert expectation(casimir(n), state) == pytest.approx(j * (j + 1), abs=1e-7)

    @pytest.mark.parametrize("n,omega,t_max,samples", [
        (10, 50.0, 0.5, 51),
        (10, 100.0, 0.5, 51),
        (10, 300.0, 0.5, 51),
        (100, 2000.0, 0.12, 31),
    ])
    def test_step_halving_convergence(self, n, omega, t_max, samples):
        times = np.linspace(0, t_max, samples)
        spec = driven_spec(n, omega)
        control = StepControl()
        coarse = propagate_driven(spec, css(n), times, control)
        fine = propagate_driven(spec, css(n), times, control.refined(2))
        xc = np.array([r.xi_squared for r in squeezing_curve(coarse)])
        xf = np.array([r.xi_squared for r in squeezing_curve(fine)])
        assert np.max(np.abs(xc - xf)) < 1e-6

    def test_picture_invariance(self):
        # a global z-rotation of every state leaves xi^2 untouched
        n = 10
        times = np.linspace(0, 0.4, 9)
        traj = propagate_driven(driven_spec(n, 100.0), css(n), times)
        rot = oracles.rotation(n, [0, 0, 1], 0.83)
        for state, t in zip(traj.states, times):
            rotated = DickeState(n, rot @ state.amplitudes)
            assert xi_squared(rotated).xi_squared == pytest.approx(
                xi_squared(state).xi_squared, abs=1e-9)

    def test_drift_guard_trips_on_reckless_steps(self):
        control = StepControl(substeps_per_period=20, twist_step_scale=1e6)
        with pytest.raises(IntegrationError,
                           match=r"drift .* at t = .*N = 100, step .*"):
            propagate_driven(driven_spec(100, 150.0), css(100),
                             np.linspace(0, 0.3, 4), control)

    def test_drift_guard_trips_on_nan(self):
        # steps this long overflow the state to NaN, whose drift compares False
        control = StepControl(substeps_per_period=20, twist_step_scale=1e6)
        with pytest.raises(IntegrationError), np.errstate(over="ignore", invalid="ignore"):
            propagate_driven(FullDriven(DriveParams(0.0, 0.001)), css(100),
                             [0.0, 5000.0, 10000.0], control)

    def test_rejects_wrong_variant(self):
        with pytest.raises(ValidationError):
            propagate_driven(OAT(), css(4), [0.0, 0.1])

    def test_rejects_empty_times(self):
        with pytest.raises(ValidationError):
            propagate_driven(driven_spec(4, 50.0), css(4), [])


class TestStepControl:
    def test_rejects_too_few_substeps(self):
        with pytest.raises(ValidationError):
            StepControl(substeps_per_period=10)

    def test_refined_halves_step(self):
        base = StepControl()
        spec = driven_spec(10, 300.0)
        assert base.refined(2).max_step(spec, 10) == pytest.approx(
            base.max_step(spec, 10) / 2)


class TestTrajectory:
    def test_rejects_nonzero_start(self):
        state = css(2)
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.5, 1.0]), (state, state))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 1.0]), (css(2),))
