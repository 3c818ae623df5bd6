import numpy as np
import pytest

from spinsqueeze import (CollectiveOperator, DriveParams, EffectiveMixed,
                         FullDriven, IntegrationError, OAT, StepControl, TATxz,
                         TATyz, Trajectory, ValidationError, build_hamiltonian,
                         casimir, coherent_spin_state, driven_state_at,
                         evolve, expectation, DickeState, propagate_driven,
                         propagate_static, squeezing_curve, xi_squared)

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
                                np.linspace(0, 0.6, 400))
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
            propagate_static(h, css(4), [0.0, np.nan, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            propagate_static(h, css(4), [0.0, 1.0, np.inf])

    @pytest.mark.parametrize("couplings", ["odd", "complex-even"])
    def test_non_variant_operator_matches_expm_oracle(self, couplings):
        # odd couplings keep H one block; complex even couplings give two
        # complex parity blocks
        n, t = 7, 0.41
        rng = np.random.default_rng(11)
        a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        idx = np.arange(n + 1)
        if couplings == "odd":
            a[idx[:-1], idx[1:]] += 0.5
        else:
            a[(idx[:, None] - idx[None, :]) % 2 == 1] = 0.0
        h = (a + a.conj().T) / 2
        traj = propagate_static(CollectiveOperator(n, h, "Hamiltonian"), css(n),
                                [0.0, 0.2, t])
        want = oracles.evolve_expm(h, css(n).amplitudes, t)
        assert np.allclose(traj.states[-1].amplitudes, want, atol=1e-10)
        again = traj.advance(traj.states[1], 0.2, t)
        assert np.allclose(again.amplitudes, want, atol=1e-10)

    def test_norm_guard_fails_on_nan(self):
        # an infinite duration makes NaN phases; the public entry points
        # reject it up front (test_rejects_bad_times)
        blocks = evolve._eigen_blocks(build_hamiltonian(TATxz(), 6).matrix)
        with pytest.raises(IntegrationError, match="lost norm"), \
                np.errstate(invalid="ignore"):
            evolve._static_states(blocks, css(6).amplitudes, [0.0, np.inf])

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 33])
    @pytest.mark.parametrize("spec", [
        OAT(), TATxz(), TATyz(), EffectiveMixed(0.5), EffectiveMixed(-0.3)],
        ids=["oat", "tat-xz", "tat-yz", "mixed+0.5", "mixed-0.3"])
    def test_spec_gives_the_operators_bits(self, spec, n):
        # a spec's blocks come from its bands, the operator's from its dense
        # matrix; eigh sees the same numbers, so every bit agrees
        times = np.linspace(0.0, 0.7, 9)
        by_spec = propagate_static(spec, css(n), times)
        by_operator = propagate_static(build_hamiltonian(spec, n), css(n), times)
        assert np.array_equal(by_spec.amplitudes, by_operator.amplitudes)
        start = by_spec.states[3]
        assert np.array_equal(by_spec.advance(start, times[3], 0.41).amplitudes,
                              by_operator.advance(start, times[3], 0.41).amplitudes)

    def test_rejects_driven_spec(self):
        with pytest.raises(ValidationError, match="propagate_driven"):
            propagate_static(driven_spec(4, 300.0), css(4), [0.0, 0.1])

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_times(self, bad):
        spec = driven_spec(4, 50.0)
        with pytest.raises(ValidationError, match="finite"):
            driven_state_at(spec, css(4), 0.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            driven_state_at(spec, css(4), bad, 0.1)
        with pytest.raises(ValidationError, match="finite"):
            propagate_driven(spec, css(4), [0.0, 0.1, bad])


def chained(spec, n, times, control=None):
    """Reference: one-column marches from sample to sample, each hop at most
    half a drive period, so no hop spans a whole period."""
    half = np.pi / spec.drive.frequency_omega
    state, t, states = css(n), 0.0, [css(n)]
    for target in times[1:]:
        while t < target:
            hop = min(target, t + half)
            state = driven_state_at(spec, state, t, hop, control)
            t = hop
        states.append(state)
    return states


def march_log(monkeypatch):
    """[columns, span, RK4 steps] of every evolve._rk4_march call, in call order."""
    log = []
    march = evolve._rk4_march

    def spy(spec, n_atoms, block, t, stops, dt_max):
        stops = np.asarray(stops, dtype=float)
        record = [block.shape[1], stops[-1] - t if len(stops) else 0.0, 0]
        log.append(record)
        gaps = np.diff(stops, prepend=t)
        for gap, dt in zip(gaps, march(spec, n_atoms, block, t, stops, dt_max)):
            record[2] += round(gap / dt)
            yield dt

    monkeypatch.setattr(evolve, "_rk4_march", spy)
    return log


def period_of(omega):
    return 2 * np.pi / omega


def multiples_of_period(omega):
    # k T as rounded: the remainder t - floor(t/T) T comes out 0, T - ulp,
    # +ulp or -ulp; the last sample's phase T - 1e-15 is beyond rounding
    t = period_of(omega)
    return np.array([0.0, t, np.nextafter(2 * t, 0), 3 * t, np.nextafter(4 * t, 1),
                     np.nextafter(7 * t, 0), 8 * t, 9 * t - 1e-15])


class TestPeriodJumps:
    """The one-period propagator W_T and the jumps it makes between periods."""

    def test_multiples_of_period_hit_every_rounding_case(self):
        times = multiples_of_period(200.0)[1:]
        period = period_of(200.0)
        raw = times - np.floor(times / period) * period
        assert np.any(raw == 0) and np.any(raw < 0)
        assert np.any((raw > period - 1e-15) & (raw < period))
        count, phase = evolve._period_split(times, 0.0, period)
        assert list(count) == [1, 2, 3, 4, 7, 8, 8]
        assert list(phase[:-1]) == [0.0] * 6
        assert period - 1e-14 < phase[-1] < period

    @pytest.mark.parametrize("n,omega,times,jumps", [
        (6, 200.0, multiples_of_period(200.0), True),
        # one phase in several periods
        (6, 200.0, np.r_[0.0, (0.3 + np.array([0, 2, 3, 7])) * period_of(200.0)],
         True),
        (6, 200.0, np.linspace(0, 0.9, 7) * period_of(200.0), False),  # < 1 period
        # N = 40 crosses over to jumps between 1 and 2 whole periods
        (40, 2800.0, np.linspace(0, 1.5, 9) * period_of(2800.0), False),
        (40, 2800.0, np.linspace(0, 2.5, 9) * period_of(2800.0), True),
    ])
    def test_matches_chain_of_single_column_marches(self, n, omega, times, jumps):
        spec = driven_spec(n, omega)
        count, _ = evolve._period_split(times[1:], 0.0, period_of(omega))
        assert evolve._jumps_pay(n, count[-1]) == jumps
        traj = propagate_driven(spec, css(n), times)
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    def test_identity_readout_matches_chain(self, monkeypatch):
        # more period starts than (N+2)//2 = 4, so stage 3 marches the
        # identity and reads each sample out as W(tau) v_n; T = 1/64 exactly,
        # so the phase T/2 repeats bit for bit in three periods
        n, omega = 6, 128 * np.pi
        t = period_of(omega)
        times = np.array([0.0, 0.5 * t, t, 2.5 * t, 3 * t, 3.5 * t,
                          np.nextafter(5 * t, 0),  # phase one ulp short of T
                          6 * t - 1e-15, 7.25 * t])
        count, phase = evolve._period_split(times[1:], 0.0, t)
        assert len(np.unique(count)) > (n + 2) // 2
        assert list(count) == [0, 1, 2, 3, 3, 5, 5, 7]
        assert phase[5] == 0.0 and np.sum(phase == t / 2) == 3
        log = march_log(monkeypatch)
        spec = driven_spec(n, omega)
        traj = propagate_driven(spec, css(n), times)
        assert [cols for cols, _, _ in log] == [4, 4]
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("samples,width", [
        (400, 51),  # driven-curve: 96 period starts, the identity is narrower
        (2, 2),     # two period starts in about 95 periods
    ])
    def test_march_is_never_wider_than_parity_block(self, monkeypatch, samples,
                                                    width):
        log = march_log(monkeypatch)
        propagate_driven(driven_spec(100, 2000.0), css(100),
                         np.linspace(0, 0.3, samples + 1))
        assert [cols for cols, _, _ in log] == [51, width]

    def test_folded_readout_matches_chain_at_odd_n(self, monkeypatch):
        # odd N, so the reflection swaps the parity blocks; more period starts
        # than (N+2)//2 = 4, so stage 3 marches the identity, and its phases
        # below, at and above T/2 (T = 1/64 exactly) all fold into [0, T/2)
        n, omega = 7, 128 * np.pi
        t = period_of(omega)
        times = np.array([0.0, 0.3, 0.5, 1.8, 2.5, 3.25, 3.5, 4.75, 6 - 1e-13,
                          7.5, 8.1]) * t
        count, phase = evolve._period_split(times[1:], 0.0, t)
        assert len(np.unique(count)) > (n + 2) // 2
        assert np.sum(phase < t / 2) == 3 and np.sum(phase == t / 2) == 4
        assert np.sum(phase > t / 2) == 3
        log = march_log(monkeypatch)
        spec = driven_spec(n, omega)
        traj = propagate_driven(spec, css(n), times)
        assert [cols for cols, _, _ in log] == [4, 4]
        assert log[0][1] == pytest.approx(t / 4) and log[1][1] < t / 2
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("n,omega", [(100, 2000.0), (101, 7070.0)])
    @pytest.mark.parametrize("periods,span", [(0.0, 0.25), (3.87, 0.5)],
                             ids=["quarter", "half"])
    def test_symmetric_period_propagator_matches_direct_march(
            self, monkeypatch, n, omega, periods, span):
        # W_T = F W_h F W_h, with W_h from a quarter period at t_start = 0
        # and from half a period at an off-grid t_start
        spec = driven_spec(n, omega)
        t = period_of(omega)
        dt_max = StepControl().max_step(spec, n)
        block = evolve._parity_identity(n)
        for _ in evolve._rk4_march(spec, n, block, periods * t, [(periods + 1) * t],
                                   dt_max):
            pass
        log = march_log(monkeypatch)
        _, jump = evolve._period_propagator(spec, n, periods * t, t, dt_max)
        assert len(log) == 1 and log[0][1] == pytest.approx(span * t)
        for got, want in zip(jump, evolve._parity_blocks(block)):
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_driven_curve_step_budget(self, monkeypatch):
        # the bench's driven-curve problem (400 times): W_T from a quarter
        # period takes 134 block steps and the folded stage 3 one step per
        # distinct phase, 399; a whole period and an unfolded stage 3 took
        # 535 + 653 = 1188
        log = march_log(monkeypatch)
        propagate_driven(driven_spec(100, 2000.0), css(100), np.linspace(0, 0.3, 400))
        assert sum(steps for _, _, steps in log) <= 560

    def test_long_horizon_matches_magnus_oracle(self):
        n, omega, periods = 10, 100.0, 50.3
        t = periods * period_of(omega)
        traj = propagate_driven(FullDriven(DriveParams(0.4 * omega, omega)),
                                css(n), np.linspace(0, t, 41))
        css_y = oracles.rotation(n, [1.0, 0.0, 0.0], -np.pi / 2)[:, 0]
        psi = oracles.evolve_driven_magnus(n, 0.4 * omega, omega, css_y, t,
                                           int(400 * periods))
        assert 1 - abs(np.vdot(psi, traj.states[-1].amplitudes)) <= 1e-8

    def test_guard_sees_non_unitary_period_propagator(self):
        # every sample sits on a whole period, so no step follows a jump and
        # only the check on W_T itself can see the reckless steps' drift
        control = StepControl(substeps_per_period=20, twist_step_scale=1e6)
        period = period_of(150.0)
        times = np.concatenate([[0.0], period * np.arange(2, 9)])
        count, phase = evolve._period_split(times[1:], 0.0, period)
        assert not phase.any() and evolve._jumps_pay(100, count[-1])
        with pytest.raises(IntegrationError,
                           match=r"drift .* at t = .*N = 100, step .*"):
            propagate_driven(driven_spec(100, 150.0), css(100), times, control)

    def test_guard_sees_non_unitary_half_period_propagator(self, monkeypatch):
        # as above from an off-grid start, so W_T is built from half a period
        control = StepControl(substeps_per_period=20, twist_step_scale=1e6)
        period = period_of(150.0)
        t_start = 3.87 * period
        t_end = t_start + 8 * period
        count, phase = evolve._period_split(np.array([t_end]), t_start, period)
        assert phase[0] == 0.0 and evolve._jumps_pay(100, count[0])
        log = march_log(monkeypatch)
        with pytest.raises(IntegrationError,
                           match=r"one-period propagator drift .* at t = .*N = 100, step .*"):
            driven_state_at(driven_spec(100, 150.0), css(100), t_start, t_end, control)
        assert len(log) == 1 and log[0][1] == pytest.approx(period / 2)

    def test_drift_counts_from_the_previous_sample(self):
        # no jumps here, so one column is marched through all 120 stops; each
        # gap drifts within NORM_TOL, but the whole march without a
        # renormalization at each sample does not
        n, omega = 20, 200.0
        spec = driven_spec(n, omega)
        control = StepControl(substeps_per_period=24, twist_step_scale=1e6)
        times = np.linspace(0, 1.9, 121) * period_of(omega)
        assert not evolve._jumps_pay(n, 1)
        propagate_driven(spec, css(n), times, control)
        block = css(n).amplitudes[:, None].copy()  # rotating frame = lab at t = 0
        for _ in evolve._rk4_march(spec, n, block, 0.0, times[1:],
                                   control.max_step(spec, n)):
            pass
        assert abs(np.linalg.norm(block) - 1) > evolve.NORM_TOL


class TestStepControl:
    @pytest.mark.parametrize("substeps", [10, np.nan])
    def test_rejects_too_few_substeps(self, substeps):
        with pytest.raises(ValidationError):
            StepControl(substeps_per_period=substeps)

    def test_refined_halves_step(self):
        base = StepControl()
        spec = driven_spec(10, 300.0)
        assert base.refined(2).max_step(spec, 10) == pytest.approx(
            base.max_step(spec, 10) / 2)


class TestTrajectory:
    def test_rejects_nonzero_start(self):
        state = css(2)
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.5, 1.0]), np.tile(state.amplitudes, (2, 1)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 1.0]), css(2).amplitudes[None])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([]), np.empty((0, 3)))

    @pytest.mark.parametrize("rows", [
        lambda: css(2).amplitudes,  # one state, not rows
        lambda: np.ones((3, 1)),  # N = 0
        lambda: (css(2), css(3), css(2)),
        lambda: tuple(css(n).amplitudes for n in (2, 3, 2)),
        lambda: np.tile(css(2).amplitudes, (3, 1)) * [[1.0], [1.1], [1.0]],
        lambda: np.tile(css(2).amplitudes, (3, 1)) * [[1.0], [1.0], [np.nan]],
    ], ids=["vector", "no-atoms", "mixed-n-states", "mixed-n-arrays",
            "non-unit-row", "nan-row"])
    def test_rejects_malformed_amplitudes(self, rows):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 0.1, 0.2]), rows())

    def test_holds_one_read_only_array(self):
        times = np.array([0.0, 0.1, 0.2])
        rows = np.tile(css(4).amplitudes, (3, 1))
        traj = Trajectory(times, rows)
        times[0], rows[0] = 0.0, 0.0  # the trajectory keeps its own copies
        assert traj.n_atoms == 4
        assert np.array_equal(traj.amplitudes, np.tile(css(4).amplitudes, (3, 1)))
        with pytest.raises(ValueError, match="read-only"):
            traj.amplitudes[0, 0] = 1.0
        for i, state in enumerate(traj.states):
            assert np.array_equal(state.amplitudes, traj.amplitudes[i])

    # at omega = 300, t_max = 0.5/20 spans 1.2 drive periods (one-column
    # march) and 0.5 spans 24 (period jumps)
    @pytest.mark.parametrize("propagate", [
        lambda psi, t: propagate_static(build_hamiltonian(TATxz(), 8), psi, t),
        lambda psi, t: propagate_driven(driven_spec(8, 300.0), psi, t / 20),
        lambda psi, t: propagate_driven(driven_spec(8, 300.0), psi, t),
    ], ids=["static", "driven-march", "driven-jumps"])
    def test_no_state_object_per_sample(self, monkeypatch, propagate):
        initial = css(8)
        built = []
        post_init = DickeState.__post_init__

        def counting(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(DickeState, "__post_init__", counting)
        records = squeezing_curve(propagate(initial, np.linspace(0, 0.5, 25)))
        assert len(records) == 25
        assert len(built) == 0
