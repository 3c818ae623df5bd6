import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spinsqueeze import (CollectiveOperator, DriveParams, EffectiveMixed,
                         FullDriven, IntegrationError, OAT, StepControl, TATxz,
                         TATyz, Trajectory, ValidationError, build_hamiltonian,
                         casimir, coherent_spin_state, driven_state_at,
                         evolve, expectation, DickeState, optimal_squeezing,
                         propagate_driven, propagate_static, squeezing_curve,
                         xi_squared)
from spinsqueeze.experiments import default_t_max

import oracles


def css(n, axis="+y"):
    return coherent_spin_state(n, axis)


def eigh_calls(monkeypatch):
    """A list that gains one entry per np.linalg.eigh call from now on."""
    calls = []
    real = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


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
        # odd couplings and complex even-only couplings: the operator is
        # decomposed whole either way
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
        again, = traj.advance(traj.amplitudes[1], 0.2, np.array([t]))
        assert np.allclose(again, want, atol=1e-10)

    def test_norm_guard_fails_on_nan(self):
        # a NaN state row makes NaN rows; the time rule refuses a non-finite
        # time before any row is made (TestAdvance)
        blocks = evolve._band_blocks(TATxz(), 6)
        row = css(6).amplitudes.copy()
        row[2] = np.nan
        with pytest.raises(IntegrationError, match="lost norm"), \
                np.errstate(invalid="ignore"):
            evolve._static_states(blocks, row, 0.0, [0.0, 0.1])

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 33, 100])
    @pytest.mark.parametrize("spec", [
        OAT(), TATxz(), TATyz(), EffectiveMixed(0.5), EffectiveMixed(-0.3)],
        ids=["oat", "tat-xz", "tat-yz", "mixed+0.5", "mixed-0.3"])
    def test_spec_gives_the_operators_bits(self, spec, n):
        # a spec's parity blocks come from its bands, the operator is
        # decomposed whole: two independent routes, which agree to 1e-12
        # (the last bits differ; the name is kept for its case ids). At
        # N = 100, scan-n's size class, the blocks of 51 and 50 rows fold
        # about an odd and an even middle
        times = np.linspace(0.0, 0.7, 9)
        by_spec = propagate_static(spec, css(n), times)
        by_operator = propagate_static(build_hamiltonian(spec, n), css(n), times)
        assert np.max(np.abs(by_spec.amplitudes - by_operator.amplitudes)) <= 1e-12
        start = by_spec.amplitudes[3]
        ahead = [traj.advance(start, times[3], np.array([0.41]))
                 for traj in (by_spec, by_operator)]
        assert np.max(np.abs(ahead[0] - ahead[1])) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41, 600, 601])
    @pytest.mark.parametrize("spec", [
        OAT(), TATxz(), TATyz(), EffectiveMixed(0.5), EffectiveMixed(-0.3)],
        ids=["oat", "tat-xz", "tat-yz", "mixed+0.5", "mixed-0.3"])
    def test_folded_blocks_decompose_their_rows(self, spec, n):
        # the reversal fold (two half-size eigh per block at even N, one eigh
        # for both at odd N) against a dense eigh of each block: each
        # sector's basis, laid out on the state's rows (on its rows, and for
        # a half times its sign on the same rows of the reversed state),
        # gives eigenpairs of its parity block, and the block's sectors
        # together give all of them; the fold keeps its halves' order, so
        # evals are compared sorted
        h = build_hamiltonian(spec, n).matrix.real
        sectors = evolve._band_blocks(spec, n)
        for parity in (0, 1):
            block = h[parity::2, parity::2]
            scale = np.linalg.norm(block, 2)
            laid_out = []
            for rows, sign, eigh in sectors:
                if rows.start % 2 != parity:
                    continue
                evals, basis = eigh()
                evecs = np.zeros((n + 1, len(evals)))
                evecs[rows] += basis
                if sign is not None:
                    evecs[::-1][rows] += sign * basis
                assert not evecs[1 - parity::2].any()
                evecs = evecs[parity::2]
                assert np.max(np.abs(block @ evecs - evecs * evals)) <= 1e-12 * scale
                laid_out.append((evals, evecs))
            evals = np.concatenate([w for w, _ in laid_out])
            evecs = np.hstack([v for _, v in laid_out])
            assert np.max(np.abs(np.sort(evals) - np.linalg.eigvalsh(block))) <= 1e-12 * scale
            assert np.max(np.abs(evecs.T @ evecs - np.eye(len(evals)))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 40, 600])
    @pytest.mark.parametrize("axis", ["+x", "+y"])
    def test_even_n_decomposes_only_the_occupied_halves(self, monkeypatch, axis, n):
        # a coherent state lies in one reversal half of each parity block and
        # stays there: a trajectory and its refinement make one half-size
        # eigh per block, and a general state then decomposes the missing
        # halves once (one at N = 2, whose one-row block has no odd half)
        spec = TATxz()
        times = np.linspace(0.0, default_t_max(n), 40)
        row = np.random.default_rng(n).normal(size=(n + 1, 2)) @ [1.0, 1j]
        row /= np.linalg.norm(row)
        want = propagate_static(build_hamiltonian(spec, n), css(n, axis),
                                times).advance(row, 0.0, times)
        calls = eigh_calls(monkeypatch)
        traj = propagate_static(spec, css(n, axis), times)
        optimal_squeezing(traj)
        assert len(calls) == 2
        rows = traj.advance(row, 0.0, times)
        assert len(calls) == (3 if n == 2 else 4)
        assert np.max(np.abs(rows - want)) <= 1e-12
        traj.advance(row[::-1], 0.0, times[:3])
        assert len(calls) == (3 if n == 2 else 4)

    @pytest.mark.parametrize("n", [5, 41, 601])
    def test_odd_n_decomposes_once(self, monkeypatch, n):
        # both parity blocks share one eigh, whatever the state
        times = np.linspace(0.0, default_t_max(n), 40)
        row = np.random.default_rng(n).normal(size=(n + 1, 2)) @ [1.0, 1j]
        row /= np.linalg.norm(row)
        calls = eigh_calls(monkeypatch)
        traj = propagate_static(TATxz(), css(n), times)
        optimal_squeezing(traj)
        traj.advance(row, 0.0, times)
        assert len(calls) == 1

    def test_rejects_driven_spec(self):
        with pytest.raises(ValidationError, match="propagate_driven"):
            propagate_static(driven_spec(4, 300.0), css(4), [0.0, 0.1])

    @pytest.mark.parametrize("hamiltonian, match", [
        (lambda: np.eye(5), "static HamiltonianSpec or a CollectiveOperator"),
        (lambda: build_hamiltonian(OAT(), 5), "disagree on N"),
    ], ids=["not-an-operator", "wrong-n"])
    def test_rejects_unusable_hamiltonian(self, hamiltonian, match):
        with pytest.raises(ValidationError, match=match):
            propagate_static(hamiltonian(), css(4), [0.0, 0.1])

    def test_energy_conserved(self):
        n = 20
        h = build_hamiltonian(TATxz(), n)
        traj = propagate_static(h, css(n), np.linspace(0, 1.0, 30))
        energies = [expectation(h, s) for s in traj.states]
        assert max(energies) - min(energies) < 1e-8


def driven_spec(n, omega, ratio=0.906, chi=1.0):
    return FullDriven(DriveParams(ratio * omega, omega), chi)


@pytest.mark.parametrize("call", [
    lambda psi: propagate_static(OAT(), psi, [0.0, 0.1]),
    lambda psi: propagate_driven(driven_spec(4, 50.0), psi, [0.0, 0.1]),
    lambda psi: driven_state_at(driven_spec(4, 50.0), psi, 0.0, 0.1),
    lambda psi: xi_squared(psi),
], ids=["propagate_static", "propagate_driven", "driven_state_at", "xi_squared"])
def test_rejects_bare_amplitudes(call):
    # the propagators raised AttributeError on a bare array, reading .n_atoms
    with pytest.raises(ValidationError, match="expects a DickeState"):
        call(css(4).amplitudes)


@pytest.mark.parametrize("call, match", [
    (lambda: build_hamiltonian(OAT(1e308), 8), "entries overflow at N = 8"),
    (lambda: propagate_static(OAT(1e308), css(8), [0.0, 1.0]),
     "entries overflow at N = 8"),
    (lambda: propagate_driven(FullDriven(DriveParams(1.0, 10.0), 1e308), css(8),
                              [0.0, 1.0]), "no RK4 twisting step at N = 8"),
], ids=["build_hamiltonian", "propagate_static", "propagate_driven"])
def test_chi_past_float_range_is_refused(call, match):
    # the dense and banded routes failed eigh or lost norm to NaN, with
    # overflow warnings; the driven step grid divided by a zero step
    with pytest.raises(ValidationError, match=r"chi=1e\+308 .*" + match):
        call()


@pytest.mark.parametrize("call", [
    lambda: propagate_static(TATxz(), css(8), [0.0, 1e308]),
    lambda: propagate_static(TATxz(), css(8), [0.0, 1.0]).advance(
        css(8).amplitudes, 0.0, [1e308]),
], ids=["propagate_static", "advance"])
def test_static_phase_past_float_range_is_refused(call):
    # the phase overflowed with a warning, and the NaN rows blamed the norm
    with pytest.raises(ValidationError, match=r"overflows at t = 1e\+308"):
        call()


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

    def test_drift_guard_trips_on_reckless_steps(self, monkeypatch):
        reckless(monkeypatch, 5)
        with pytest.raises(IntegrationError,
                           match=r"drift .* at t = .*N = 100, step .*"):
            propagate_driven(driven_spec(100, 150.0), css(100),
                             np.linspace(0, 0.3, 4))

    def test_drift_guard_trips_on_nan(self, monkeypatch):
        # steps this long overflow the state to NaN, whose drift compares False
        reckless(monkeypatch, 5)
        with pytest.raises(IntegrationError), np.errstate(over="ignore", invalid="ignore"):
            propagate_driven(FullDriven(DriveParams(0.0, 0.001)), css(100),
                             [0.0, 5000.0, 10000.0])

    def test_rejects_wrong_variant(self):
        with pytest.raises(ValidationError):
            propagate_driven(OAT(), css(4), [0.0, 0.1])

    def test_rejects_empty_times(self):
        with pytest.raises(ValidationError):
            propagate_driven(driven_spec(4, 50.0), css(4), [])

    def test_single_time_is_the_initial_state(self):
        traj = propagate_driven(driven_spec(4, 50.0), css(4), [0.0])
        assert np.array_equal(traj.amplitudes, css(4).amplitudes[None])

    @pytest.mark.parametrize("spec, t_start, t_end, match", [
        (OAT(), 0.0, 0.1, "FullDriven"),
        (driven_spec(4, 50.0), 0.2, 0.1, "increase from the start 0.2"),
    ], ids=["static-spec", "backwards"])
    def test_driven_state_at_rejects(self, spec, t_start, t_end, match):
        with pytest.raises(ValidationError, match=match):
            driven_state_at(spec, css(4), t_start, t_end)

    def test_driven_state_at_zero_span_is_the_initial_state(self):
        initial = css(4)
        assert driven_state_at(driven_spec(4, 50.0), initial, 0.3, 0.3) is initial

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_times(self, bad):
        spec = driven_spec(4, 50.0)
        with pytest.raises(ValidationError, match="finite"):
            driven_state_at(spec, css(4), 0.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            driven_state_at(spec, css(4), bad, 0.1)
        with pytest.raises(ValidationError, match="finite"):
            propagate_driven(spec, css(4), [0.0, 0.1, bad])


def reckless(monkeypatch, quarter):
    """Set the driven grid to `quarter` RK4 steps per quarter period, with no
    twisting cap, so that the steps can be too long for the norm guard."""
    monkeypatch.setattr(evolve, "QUARTER_STEPS", quarter)
    monkeypatch.setattr(evolve, "TWIST_STEP_SCALE", 1e6)


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
    """[width, span, RK4 grid steps] of every evolve._rk4_march call, in call
    order. The width counts the vectors of N+1 entries that the march steps
    when it ends: a state block's columns, or a band's 2b+1 diagonals (a
    band march widens as it goes)."""
    log = []
    march = evolve._rk4_march

    def spy(step, block, t, h, knots):
        last = knots[-1] if len(knots) else 0
        entry = [block.size // max(block.shape), last * h, last]
        log.append(entry)

        def marched():
            for reached in march(step, block, t, h, knots):
                entry[0] = reached.size // max(reached.shape)
                yield reached
        return marched()

    monkeypatch.setattr(evolve, "_rk4_march", spy)
    return log


def priced(spec, n, elapsed, samples=1, control=None):
    """_check_cost's (jumps, stride) for a run of `samples` times whose last
    is `elapsed` after its start."""
    quarter = (control or StepControl()).quarter_steps(spec, n)
    h = period_of(spec.drive.frequency_omega) / 4 / quarter
    last, _ = evolve._grid_split(np.array([elapsed]), h)
    return evolve._check_cost(spec, n, last[0], quarter, samples)


def jumps_to(spec, n, elapsed, control=None):
    """_check_cost's decision for a run whose last sample is `elapsed` after its start."""
    return priced(spec, n, elapsed, control=control)[0]


def period_of(omega):
    return 2 * np.pi / omega


def dense(band):
    """The (N+1, N+1) matrix of a propagator in band storage, B[s + b, c] = W[c + 2s, c]."""
    half, size = len(band) // 2, band.shape[1]
    out = np.zeros((size, size), dtype=complex)
    for s in range(-half, half + 1):
        cols = np.arange(max(0, -2 * s), min(size, size - 2 * s))
        out[cols + 2 * s, cols] = band[s + half, cols]
    return out


def multiples_of_period(omega):
    # k T as rounded: the remainder t - floor(t/T) T comes out 0, T - ulp,
    # +ulp or -ulp; the last sample's phase is T - 1e-15
    t = period_of(omega)
    return np.array([0.0, t, np.nextafter(2 * t, 0), 3 * t, np.nextafter(4 * t, 1),
                     np.nextafter(7 * t, 0), 8 * t, 9 * t - 1e-15])


def assert_grid_rule(elapsed, step, k, r):
    """k step <= elapsed < (k+1) step as computed, and 0 <= r < step."""
    assert np.all(k * step <= elapsed) and np.all(elapsed < (k + 1) * step)
    assert np.all((0 <= r) & (r < step))


class TestPeriodJumps:
    """The one-period propagator W_T and the jumps it makes between periods."""

    def test_multiples_of_period_hit_every_rounding_case(self):
        # the plain floor's remainder is 0, negative or within an ulp below
        # T; the corrected split keeps k T <= t < (k+1) T as computed, and
        # a time that is exactly k T as computed has r = 0
        times = multiples_of_period(200.0)[1:]
        period = period_of(200.0)
        raw = times - np.floor(times / period) * period
        assert np.any(raw == 0) and np.any(raw < 0)
        assert np.any((raw > period - 1e-15) & (raw < period))
        count, phase = evolve._grid_split(times, period)
        assert_grid_rule(times, period, count, phase)
        exact = times == np.array([1, 2, 3, 4, 7, 8, 9]) * period
        assert list(count[exact]) == [1, 3, 8] and not phase[exact].any()

    @pytest.mark.parametrize("n,omega,times,jumps", [
        (6, 200.0, multiples_of_period(200.0), True),
        # one phase in several periods
        (6, 200.0, np.r_[0.0, (0.3 + np.array([0, 2, 3, 7])) * period_of(200.0)],
         True),
        (6, 200.0, np.linspace(0, 0.9, 7) * period_of(200.0), False),  # < 1 period
        # N = 256 crosses over to jumps between 1 and 2 whole periods, and
        # N = 40 jumps from its first
        (256, 17920.0, np.linspace(0, 1.5, 9) * period_of(17920.0), False),
        (40, 2800.0, np.linspace(0, 2.5, 9) * period_of(2800.0), True),
        (256, 17920.0, np.linspace(0, 2.5, 9) * period_of(17920.0), True),
    ])
    def test_matches_chain_of_single_column_marches(self, n, omega, times, jumps):
        spec = driven_spec(n, omega)
        assert jumps_to(spec, n, times[-1]) == jumps
        traj = propagate_driven(spec, css(n), times)
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    def test_identity_readout_matches_chain(self, monkeypatch):
        # more period starts than the parity block's (N+2)//2 = 4 columns;
        # stage 1 marches the identity, its band at the cap b = 3 (7
        # diagonals), and stage 3 reads each sample out as W(tau) v_n off
        # its checkpoints, with no second march;
        # T = 1/64 exactly, so the phase T/2 repeats bit for bit in three periods
        n, omega = 6, 128 * np.pi
        t = period_of(omega)
        times = np.array([0.0, 0.5 * t, t, 2.5 * t, 3 * t, 3.5 * t,
                          np.nextafter(5 * t, 0),  # phase one ulp short of T
                          6 * t - 1e-15, 7.25 * t])
        count, phase = evolve._grid_split(times[1:], t)
        assert len(np.unique(count)) > (n + 2) // 2
        assert list(count) == [0, 1, 2, 3, 3, 4, 5, 7]
        assert t - phase[5] == np.spacing(5 * t) and np.sum(phase == t / 2) == 3
        log = march_log(monkeypatch)
        spec = driven_spec(n, omega)
        traj = propagate_driven(spec, css(n), times)
        assert [width for width, _, _ in log] == [7]
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("samples,width", [
        (400, 51),  # driven-curve: 96 period starts
        (2, 51),    # two period starts in about 95 periods: still the identity
    ])
    def test_march_is_never_wider_than_parity_block(self, monkeypatch, samples,
                                                    width):
        # both quarter marches hold the identity's band, which ends at b = 16
        # (33 diagonals; 13 hold entries above 1e-16), not the parity
        # block's `width` = 51 columns
        log = march_log(monkeypatch)
        spec = driven_spec(100, 2000.0)
        propagate_driven(spec, css(100), np.linspace(0, 0.3, samples + 1))
        bound = evolve._band_estimate(spec, 100, period_of(2000.0) / 4)
        assert log[0][0] == 33 == 2 * bound + 1
        assert all(diagonals <= 33 < width for diagonals, _, _ in log)

    def test_folded_readout_matches_chain_at_odd_n(self, monkeypatch):
        # odd N, so the reflection swaps the parity blocks; more period starts
        # than the parity block's (N+2)//2 = 4 columns, and the identity's phases
        # below, at and above T/2 (T = 1/64 exactly) all fold into [0, T/2)
        n, omega = 7, 128 * np.pi
        t = period_of(omega)
        times = np.array([0.0, 0.3, 0.5, 1.8, 2.5, 3.25, 3.5, 4.75, 6 - 1e-13,
                          7.5, 8.1]) * t
        count, phase = evolve._grid_split(times[1:], t)
        assert len(np.unique(count)) > (n + 2) // 2
        assert np.sum(phase < t / 2) == 3 and np.sum(phase == t / 2) == 4
        assert np.sum(phase > t / 2) == 3
        log = march_log(monkeypatch)
        spec = driven_spec(n, omega)
        traj = propagate_driven(spec, css(n), times)
        assert [width for width, _, _ in log] == [7]  # the cap b = 3
        assert log[0][1] == pytest.approx(t / 4)
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("n,omega,start,span", [
        (6, 200.0, 0.37, 5.3),
        (7, 200.0, 0.61, 6.0),
        (40, 2800.0, 1.3, 3.2),
        (100, 2000.0, 3.87, 9.4),
        # two whole periods from the start, but fewer from T/2 on: the part
        # after the lead-in still jumps, as the run decided at its start
        (6, 200.0, 0.37, 2.05),
    ])
    def test_off_grid_jumps_match_chain(self, monkeypatch, n, omega, start, span):
        # from a start off the multiples of T/2, one column's lead-in reaches
        # the next one, and W_T comes from a quarter-period march from there;
        # the jumps must agree with hops of at most T/2 from the start
        spec = driven_spec(n, omega)
        t = period_of(omega)
        t_start, t_end = start * t, (start + span) * t
        assert jumps_to(spec, n, t_end - t_start)
        log = march_log(monkeypatch)
        got = driven_state_at(spec, css(n), t_start, t_end)
        assert log[0][0] == 1 and log[0][1] < t / 2
        assert log[1][0] > 1 and log[1][1] == pytest.approx(t / 4)  # a band
        want = hopped(spec, css(n), t_start, t_end)
        assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    def test_whole_periods_from_a_negative_start_match_chain(self):
        # t_end - t_start comes out a hair below 33 T: the sample is the
        # last knot of period 32 and a partial step of about h
        n, omega = 40, 2040.0
        spec = driven_spec(n, omega)
        t = period_of(omega)
        t_start = -0.3
        t_end = t_start + 33 * t
        count, phase = evolve._grid_split(np.array([t_end - t_start]), t)
        assert count[0] == 32 and 0 < t - phase[0] < 1e-16
        got = driven_state_at(spec, css(n), t_start, t_end)
        want = hopped(spec, css(n), t_start, t_end)
        assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    def test_phase_is_never_negative(self):
        # whole periods from negative starts, the later ones past t = 0
        t = period_of(2040.0)
        for t_start in (-0.3, -0.05, -1e-3):
            elapsed = t_start + np.arange(1, 200) * t - t_start
            count, phase = evolve._grid_split(elapsed, t)
            assert_grid_rule(elapsed, t, count, phase)

    def test_absurd_quotient_is_inf_without_warning(self):
        # 1e10 over steps of 1e-301: the count is inf, and no overflow
        # warning (an error in this suite) comes before the cost guard
        count, _ = evolve._grid_split(np.array([1e10, 1.0]), 1e-301)
        assert count[0] == np.inf and 0 < count[1] < np.inf

    @pytest.mark.parametrize("omega,start", [
        (200.0, 0.37), (200.0, 0.61), (150.0, 3.87), (2800.0, 1.3),
        (2000.0, 3.87), (2040.0, -0.3 / period_of(2040.0)),
    ], ids=["0.37T", "0.61T", "3.87T", "1.3T", "3.87T-n100", "negative"])
    def test_next_half_period_start_is_on_the_grid(self, omega, start):
        # the lead-in from t_start = start T ends at t_half = (k + 1) T/2,
        # the rule's own product, so the run from t_half splits its start
        # with no remainder
        half = period_of(omega) / 2
        t_start = np.array([start * period_of(omega)])
        k, r = evolve._grid_split(t_start, half)
        assert_grid_rule(t_start, half, k, r)
        assert r[0] > 0
        t_half = (k + 1) * half
        k_half, r_half = evolve._grid_split(t_half, half)
        assert k_half[0] == k[0] + 1 and r_half[0] == 0.0

    @pytest.mark.parametrize("n,omega", [(100, 2000.0), (101, 7070.0)])
    @pytest.mark.parametrize("periods", [0.0, 3.5], ids=["quarter", "half"])
    def test_symmetric_period_propagator_matches_direct_march(
            self, monkeypatch, n, omega, periods):
        # W_T = F W_h F W_h, with W_h from a quarter period, as a run from a
        # whole period and one from an odd half period (reflected, F W F)
        # read the set built from 0, against the dense identity marched over
        # the whole period from there
        spec = driven_spec(n, omega)
        t = period_of(omega)
        quarter = StepControl().quarter_steps(spec, n)
        block = np.eye(n + 1, dtype=complex)
        step = evolve._rk4_stepper(spec, n, n + 1)
        for _ in evolve._rk4_march(step, block, periods * t, t / 4 / quarter,
                                   [4 * quarter]):
            pass
        log = march_log(monkeypatch)
        _, jump, _ = evolve._period_propagator(spec, n, t, quarter, 1)
        if periods % 1 == 0.5:
            jump = evolve._reflected(jump)
        assert len(log) == 1 and log[0][1] == pytest.approx(t / 4)
        assert np.max(np.abs(dense(jump) - block)) <= 1e-10

    def test_driven_curve_step_budget(self, monkeypatch):
        # the bench's driven-curve problem (400 times): W_T from a quarter
        # period takes 134 block steps, and the folded, mirrored stage 3
        # marches the grid to T/4, 134; marching it to the last knot below
        # T/2 took 134 + 267 = 401, stopping at every distinct phase
        # 134 + 399 = 533, and a whole period with an unfolded stage 3
        # 535 + 653 = 1188
        log = march_log(monkeypatch)
        propagate_driven(driven_spec(100, 2000.0), css(100), np.linspace(0, 0.3, 400))
        assert sum(steps for _, _, steps in log) <= 268

    @pytest.mark.parametrize("n,omega,budget", [
        (12, 840.0, 32),   # driven-scan-n's largest point: 16 + 16 (was 16 + 31)
        (32, 1000.0, 58),  # driven-ratio: 29 + 29 (was 29 + 57)
    ], ids=["driven-scan-n", "driven-ratio"])
    def test_sweep_point_step_budget(self, monkeypatch, n, omega, budget):
        # a sweep point's 200 samples over default_t_max no longer cut steps
        log = march_log(monkeypatch)
        propagate_driven(driven_spec(n, omega), css(n),
                         np.linspace(0, default_t_max(n), 200))
        assert sum(steps for _, _, steps in log) <= budget

    def test_long_horizon_matches_magnus_oracle(self):
        n, omega, periods = 10, 100.0, 50.3
        t = periods * period_of(omega)
        traj = propagate_driven(FullDriven(DriveParams(0.4 * omega, omega)),
                                css(n), np.linspace(0, t, 41))
        css_y = oracles.rotation(n, [1.0, 0.0, 0.0], -np.pi / 2)[:, 0]
        psi = oracles.evolve_driven_magnus(n, 0.4 * omega, omega, css_y, t,
                                           int(400 * periods))
        assert 1 - abs(np.vdot(psi, traj.states[-1].amplitudes)) <= 1e-8

    def test_guard_sees_non_unitary_period_propagator(self, monkeypatch):
        # every sample sits on a whole period, so no step follows a jump and
        # only the check on W_T itself can see the reckless steps' drift; the
        # band there is nearly the whole matrix, so jumps pay from about 23
        # periods
        reckless(monkeypatch, 5)
        period = period_of(150.0)
        times = np.concatenate([[0.0], period * np.arange(34, 41)])
        count, phase = evolve._grid_split(times[1:], period)
        assert not phase.any() and jumps_to(driven_spec(100, 150.0), 100, times[-1])
        with pytest.raises(IntegrationError,
                           match=r"drift .* at t = .*N = 100, step .*"):
            propagate_driven(driven_spec(100, 150.0), css(100), times)

    def test_guard_sees_reckless_lead_in(self, monkeypatch):
        # from an off-grid start the run first marches one column to the
        # next multiple of T/2, and that march's own guard trips before
        # any W_T is built
        reckless(monkeypatch, 5)
        period = period_of(150.0)
        t_start = 3.87 * period
        t_end = t_start + 40 * period
        count, phase = evolve._grid_split(np.array([t_end - t_start]), period)
        assert phase[0] == 0.0 and jumps_to(driven_spec(100, 150.0), 100, t_end - t_start)
        log = march_log(monkeypatch)
        with pytest.raises(IntegrationError,
                           match=r"^norm drift .* at t = .*N = 100, step .*"):
            driven_state_at(driven_spec(100, 150.0), css(100), t_start, t_end)
        assert len(log) == 1 and log[0][0] == 1 and log[0][1] < period / 2

    def test_reckless_grid_step_raises(self, monkeypatch):
        # 6 steps per quarter period: the grid takes T/24, and one such step
        # already drifts 1.5e-7 > NORM_TOL
        n, omega = 20, 200.0
        reckless(monkeypatch, 6)
        with pytest.raises(IntegrationError,
                           match=r"drift .* at t = .*N = 20, step .*"):
            propagate_driven(driven_spec(n, omega), css(n),
                             np.linspace(0, 1.9, 121) * period_of(omega))

    def test_drift_counts_from_the_previous_sample(self, monkeypatch):
        # a run that does not jump marches one column over the grid, and
        # every knot holds samples; each grid step drifts within NORM_TOL,
        # but the whole march without a renormalization at each knot does not
        n, omega = 20, 200.0
        spec = driven_spec(n, omega)
        reckless(monkeypatch, 12)
        times = np.linspace(0, 1.9, 121) * period_of(omega)
        log = march_log(monkeypatch)
        evolve._driven_states(spec, n, css(n).amplitudes, 0.0, times, None, False)
        assert [width for width, _, _ in log] == [1]
        h = grid_step(spec, n)
        assert np.all(np.diff(times) < h)
        step = evolve._rk4_stepper(spec, n, 1)
        renormalized = css(n).amplitudes[:, None].copy()  # rotating = lab at t = 0
        plain = renormalized.copy()
        worst = 0.0
        for j in range(int(times[-1] / h)):
            step(renormalized, j * h, h)
            step(plain, j * h, h)
            norm = np.linalg.norm(renormalized)
            worst = max(worst, abs(norm - 1))
            renormalized /= norm
        assert worst <= evolve.NORM_TOL
        assert abs(np.linalg.norm(plain) - 1) > evolve.NORM_TOL


def hopped(spec, state, t_start, t_end):
    """Reference: driven_state_at in hops of at most half a drive period."""
    half = np.pi / spec.drive.frequency_omega
    now = t_start
    while now < t_end:
        hop = min(t_end, now + half)
        state = driven_state_at(spec, state, now, hop)
        now = hop
    return state


def grid_step(spec, n):
    """The driven march's grid step under the default StepControl."""
    return period_of(spec.drive.frequency_omega) / 4 / StepControl().quarter_steps(spec, n)


def partial_steps(monkeypatch):
    """The times of every RK4 step taken with one time per column, in call order."""
    log = []
    make = evolve._rk4_stepper

    def spy(spec, n_atoms, width):
        step = make(spec, n_atoms, width)

        def logged(block, t, dt):
            if isinstance(t, np.ndarray):
                assert block.shape[1] == len(t) == len(dt) <= width
                log.append(t.copy())
            return step(block, t, dt)
        return logged

    monkeypatch.setattr(evolve, "_rk4_stepper", spy)
    return log


class TestGridReadout:
    """Samples between knots of the march's grid take one batched partial step."""

    def test_batched_step_has_the_march_steps_bits(self):
        n, width = 12, 5
        spec = driven_spec(n, 840.0)
        rng = np.random.default_rng(3)
        block = rng.normal(size=(n + 1, width)) + 1j * rng.normal(size=(n + 1, width))
        batched = block.copy()
        step = evolve._rk4_stepper(spec, n, width)
        t, dt = 0.0123, 1.1e-4
        step(block, t, dt)
        step(batched, np.full(width, t), np.full(width, dt))
        assert np.array_equal(batched, block)
        # a narrower chunk runs on the same work arrays and gives the same bits
        chunk = batched[:, :2].copy()
        step(chunk, np.full(2, t), np.full(2, dt))
        step(block, t, dt)
        assert np.array_equal(chunk, block[:, :2])

    @pytest.mark.parametrize("times,stepped", [
        # one period: no jumps
        ([0.0, 5 / 64, 0.25, 0.3, 0.5, 0.75, 0.75 + 0.5 / 64], 2),
        # three period starts: the identity, folded; nothing off a knot
        ([0.0, 0.25, 1.0, 2 + 5 / 64, 2.5], 0),
        # seven period starts, more than (N+2)//2 = 4: the identity, folded
        ([0.0, 0.25, 1.0, 2.5, 3.75, 5 + 5 / 64, 6.5 + 5 / 64, 7.3, 7.75 + 0.5 / 64],
         2),
    ], ids=["no-jumps", "few-starts", "folded"])
    def test_samples_on_knots_take_no_partial_step(self, monkeypatch, times, stepped):
        # T = 1/64 and h = T/64 exactly, so the knots are exact: every phase
        # but the last two of a run (if stepped) is 0, T/4, T/2, 3T/4
        # (folded onto 0 and T/4) or 5h
        n, omega = 6, 128 * np.pi
        spec = driven_spec(n, omega)
        t = period_of(omega)
        assert grid_step(spec, n) == t / 64
        times = np.array(times) * t
        log = partial_steps(monkeypatch)
        traj = propagate_driven(spec, css(n), times)
        assert sum(len(stepped_times) for stepped_times in log) == stepped
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    def test_knot_holds_where_the_quotient_rounds_off(self, monkeypatch):
        # tau = k h exactly, though tau / h rounds below k: on knot k, no
        # partial step; one ulp below j h, though tau / h rounds to j: a
        # partial step of about h from knot j - 1
        n = 6
        for omega in np.linspace(100.0, 110.0, 101):
            spec = driven_spec(n, omega)
            h = grid_step(spec, n)
            on = [k for k in range(1, 64) if math.floor(k * h / h) == k - 1]
            below = [j for j in range(1, 64)
                     if math.floor(np.nextafter(j * h, 0) / h) == j]
            if on and below and on[0] != below[0]:
                break
        k, j = on[0], below[0]
        times = np.array(sorted([0.0, k * h, np.nextafter(j * h, 0)]))
        assert times[-1] < period_of(omega)  # no jumps
        log = partial_steps(monkeypatch)
        traj = propagate_driven(spec, css(n), times)
        assert [list(t) for t in log] == [[(j - 1) * h]]
        for got, want in zip(traj.states, chained(spec, n, times)):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("n,periods,branch", [
        (6, 0.95, "no-jumps"),  # one period start, no W_T
        (6, 3.9, "few-starts"),  # four period starts: the identity, folded
        (7, 10.3, "folded"),    # eleven period starts: the identity, folded
    ])
    def test_dense_grid_matches_refined_chain(self, monkeypatch, n, periods, branch):
        omega = 70.0 * n
        spec = driven_spec(n, omega)
        times = np.linspace(0, periods, 301) * period_of(omega)
        _, phase = evolve._grid_split(times[1:], period_of(omega))
        width = 1 if branch == "no-jumps" else 7  # the band's cap b = 3
        log = march_log(monkeypatch)
        chunks = partial_steps(monkeypatch)
        traj = propagate_driven(spec, css(n), times)
        assert [diagonals for diagonals, _, _ in log][-1] == width
        # chunks of 4096 // (N+1) columns: 585 at N = 6 and 512 at N = 7, so
        # every off-knot sample of the 300 takes one batched step
        assert len(chunks) == 1 and len(chunks[0]) <= 300 < 4096 // (n + 1)
        if branch != "no-jumps":
            assert np.any(phase < period_of(omega) / 2)
            assert np.any(phase > period_of(omega) / 2)
        fine = chained(spec, n, times, StepControl().refined(4))
        for got, want in zip(traj.states, fine):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-9


class TestMirroredReadout:
    """From a start on a multiple of T/2, stage 3 marches only to T/4 and reads
    a sample at knot j in (q, 2q) of half period k off knot 2q - j, as
    F conj(W(t_(2q-j)) conj(r_(k+1)))."""

    @pytest.mark.parametrize("n", [40, 41, 10, 11])
    def test_all_four_quarters_match_chain(self, monkeypatch, n):
        # T = 1/64 exactly, so the phases T/4, T/2 and 3T/4 are exact; the
        # others sit inside each quarter, on and off the knots
        omega = 128 * np.pi
        spec = driven_spec(n, omega, ratio=0.4)
        t = period_of(omega)
        quarter = StepControl().quarter_steps(spec, n)
        times = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 1.6, 1.75, 1.9, 2.0, 2.3,
                          2.5, 2.7, 3.75, 3.99]) * t
        count, phase = evolve._grid_split(times[1:], t)
        assert jumps_to(spec, n, times[-1])
        for q in range(4):
            assert np.any((phase >= q * t / 4) & (phase < (q + 1) * t / 4))
        assert {0.25 * t, 0.5 * t, 0.75 * t} <= set(phase)
        log = march_log(monkeypatch)
        traj = propagate_driven(spec, css(n), times)
        assert [steps for _, _, steps in log] == [quarter]
        for got, t_end in zip(traj.states[1:], times[1:]):
            want = hopped(spec, css(n), 0.0, t_end)
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("n", [40, 41, 10, 11, 4])
    def test_phase_rounding_onto_the_half_period_knot(self, n):
        # samples 12, 5, 2, 1 and 0 ulps below k T/2 (k = 1..4), from starts
        # at 0 and at 7 T/2, on a grid where 2q h < T/2 as computed: each
        # sample is knot 0 of half period k, or knot 2q - 1 of half period
        # k - 1 (mirrored) and a partial step of about h; each must match
        # the state at k T/2, reached by hops of T/2. At N = 4, q = 16 and
        # h = T/64 exactly near omega = 100, so the search starts at 25
        low = 25.0 if n == 4 else 100.0
        for omega in np.linspace(low, 1.1 * low, 201):
            spec = driven_spec(n, omega, ratio=0.4)
            t = period_of(omega)
            quarter = StepControl().quarter_steps(spec, n)
            if 2 * quarter * grid_step(spec, n) <= np.nextafter(t / 2, 0):
                break
        else:
            pytest.fail("no grid rounds T/2 onto knot 2q")
        for t_start in (0.0, 3.5 * t):
            ends = t_start + np.arange(1, 5) * (t / 2)
            times = np.array([end - ulps * np.spacing(end)
                              for end in ends for ulps in (12, 5, 2, 1, 0)])
            last, _ = evolve._grid_split(times - t_start, grid_step(spec, n))
            assert evolve._check_cost(spec, n, last[-1], quarter)[0]
            got = evolve._driven_states(spec, n, css(n).amplitudes, t_start,
                                        times, None)
            state, now = css(n), t_start
            for rows, end in zip(got.reshape(4, 5, n + 1), ends):
                state, now = hopped(spec, state, now, end), end
                for row in rows:
                    assert abs(np.vdot(row, state.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("n", [40, 41, 10, 11])
    def test_off_grid_start_marches_half_a_period(self, monkeypatch, n):
        # from a start off the multiples of T/2, one column marches to the
        # next one (0.13 T on); from there W_T comes from a quarter period,
        # and the sample 3.27 T on, past T/4, is read off a checkpoint below
        # T/4, mirrored
        omega = 128 * np.pi
        spec = driven_spec(n, omega, ratio=0.4)
        t = period_of(omega)
        quarter = StepControl().quarter_steps(spec, n)
        t_start = 0.37 * t
        t_end = t_start + 3.4 * t
        log = march_log(monkeypatch)
        got = driven_state_at(spec, css(n), t_start, t_end)
        (cols, span, _), (width, _, steps) = log
        assert cols == 1 and 0.12 * t < span <= 0.13 * t
        assert width > 1 and steps == quarter  # a band
        want = hopped(spec, css(n), t_start, t_end)
        assert abs(np.vdot(got.amplitudes, want.amplitudes)) >= 1 - 1e-10


def force_stride(monkeypatch, spec, n, times, stride):
    """Set CHECKPOINT_STATES so that a run of `times` from 0 keeps W(t_m) at
    every `stride`-th knot of the quarter march (and at q)."""
    quarter = StepControl().quarter_steps(spec, n)
    bound = evolve._band_estimate(spec, n, np.pi / 2 / spec.drive.frequency_omega)
    monkeypatch.setattr(evolve, "CHECKPOINT_STATES", -(-quarter * (2 * bound + 1) // stride))
    assert priced(spec, n, times[-1], len(times))[1] == stride


class TestCheckpoints:
    """Stage 1's quarter march keeps W(t_m) at every c-th knot and at q, and
    every sample is read off the nearest one and caught up by column steps."""

    # in periods: knot j of half period k on and off a checkpoint, below T/4
    # and mirrored above it, at even and odd k, and exactly T/4 of an odd k
    PHASES = np.array([0.0, 0.3, 1.125, 1.75, 2.4, 3.8, 4.0 + 3 / 64])

    def test_driven_curve_makes_one_band_march(self, monkeypatch):
        # the bench's driven-curve problem: 134 band steps to T/4 and no
        # second march, the samples read off every third knot
        spec = driven_spec(100, 2000.0)
        times = np.linspace(0, 0.3, 400)
        assert priced(spec, 100, times[-1], len(times)) == (True, 3)
        log = march_log(monkeypatch)
        propagate_driven(spec, css(100), times)
        assert [(width, steps) for width, _, steps in log] == [(33, 134)]

    @pytest.mark.parametrize("n,omega", [(6, 128 * np.pi), (7, 128 * np.pi),
                                         (40, 2800.0), (100, 2000.0)])
    def test_strides_match_chain_and_every_knot(self, monkeypatch, n, omega):
        # T = 1/64 and h = T/64 at N = 6 and 7, so their knots are exact;
        # stride 1 reads every sample at its knot, stride q at 0 or T/4
        spec = driven_spec(n, omega)
        t = period_of(omega)
        times = self.PHASES * t
        off_grid = np.array([0.37, 3.77]) * t  # a lead-in, then the jumps
        quarter = StepControl().quarter_steps(spec, n)
        rows = {}
        for stride in (1, 3, quarter):
            with monkeypatch.context() as patch:
                force_stride(patch, spec, n, times, stride)
                log = march_log(patch)
                traj = propagate_driven(spec, css(n), times)
                assert [steps for _, _, steps in log] == [quarter]
                lead = driven_state_at(spec, css(n), *off_grid)
            rows[stride] = np.vstack([traj.amplitudes, lead.amplitudes])
        want = [*chained(spec, n, times), hopped(spec, css(n), *off_grid)]
        for got in rows.values():
            assert np.max(np.abs(got - rows[1])) <= 1e-13
            for row, state in zip(got, want):
                assert abs(np.vdot(row, state.amplitudes)) >= 1 - 1e-10

    @pytest.mark.parametrize("samples", [2048, 3000, 5000])
    def test_many_samples_shrink_the_stride(self, samples):
        # past CHECKPOINT_STATES the stride falls with S, so that the
        # samples' catch-up steps no more entries than the march it replaces
        spec = driven_spec(100, 2000.0)
        states = 134 * (2 * 16 + 1)
        stride = priced(spec, 100, 0.3, samples)[1]
        assert stride == -(-states // samples) and samples * (stride - 1) <= states

    def test_checkpoints_stay_under_their_byte_cap(self, monkeypatch):
        # a cap of 1000 states at N = 100: the stride stops falling with S
        monkeypatch.setattr(evolve, "CHECKPOINT_BYTES_MAX", 1000 * 101 * 16)
        spec = driven_spec(100, 2000.0)
        assert [priced(spec, 100, 0.3, s)[1] for s in (400, 2048, 10 ** 6)] == [5, 5, 5]

    def test_catch_up_stays_within_the_march(self, monkeypatch):
        # 100 samples, checkpoints for 40 states: stride 4 at N = 40; the
        # whole steps of the catch-up, counted per column, stay within the
        # entries of the band march they replace
        spec = driven_spec(40, 2800.0)
        times = np.linspace(0, 7.3, 100) * period_of(2800.0)
        monkeypatch.setattr(evolve, "CHECKPOINT_STATES", 40)
        assert priced(spec, 40, times[-1], len(times)) == (True, 4)
        assert len(times) > evolve.CHECKPOINT_STATES
        log = march_log(monkeypatch)
        stepped = partial_steps(monkeypatch)
        traj = propagate_driven(spec, css(40), times)
        _, partial = evolve._grid_split(times, grid_step(spec, 40))
        whole = sum(map(len, stepped)) - np.count_nonzero(partial)
        (width, _, steps), = log
        assert 0 < whole <= width * steps
        monkeypatch.undo()
        every_knot = propagate_driven(spec, css(40), times)
        assert np.max(np.abs(traj.amplitudes - every_knot.amplitudes)) <= 1e-13


class TestCostGuard:
    """A driven run over the work budget is refused before it starts."""

    def test_refuses_before_any_step(self, monkeypatch):
        log = march_log(monkeypatch)
        with pytest.raises(ValidationError,
                           match=r"1.59e\+07 period jumps, over the budget"):
            propagate_driven(driven_spec(10, 100.0, ratio=0.1), css(10),
                             [0.0, 5e5, 1e6])
        assert log == []

    def test_refuses_a_period_no_grid_can_count(self):
        # 2 pi / 5e-324 is inf; at omega = 1e-300 a quarter period still
        # counts about 3e303 steps, and the short run is cheap
        with pytest.raises(ValidationError, match="too long for the RK4 step grid"):
            propagate_driven(FullDriven(DriveParams(0.0, 5e-324)), css(10), [0.0, 0.1])
        # at omega = 2.09e-305 a quarter counts about 1.5e308 steps, a finite
        # float, but the period's 4 quarters do not fit in one
        with pytest.raises(ValidationError, match="too long for the RK4 step grid"):
            propagate_driven(FullDriven(DriveParams(0.0, 2.09e-305)), css(10), [0.0, 0.1])
        slow = propagate_driven(FullDriven(DriveParams(0.0, 1e-300)), css(10), [0.0, 0.1])
        oat = propagate_static(OAT(), css(10), [0.0, 0.1])
        assert abs(np.vdot(slow.amplitudes[-1], oat.amplitudes[-1])) >= 1 - 1e-10

    @pytest.mark.parametrize("n,control,admitted", [
        (512, StepControl(), True),
        (512, StepControl().refined(2), True),
        (1000, StepControl(), True),
        (2000, StepControl(), True),
        (2000, StepControl().refined(16), False),
    ])
    def test_budget_admits_the_paper_scale(self, n, control, admitted):
        # scan-n's driven points: omega = 70 N chi over default_t_max
        omega = 70.0 * n
        spec = driven_spec(n, omega)
        quarter = control.quarter_steps(spec, n)
        last, _ = evolve._grid_split(np.array([default_t_max(n)]),
                                     period_of(omega) / 4 / quarter)
        args = (spec, n, last[0], quarter)
        if admitted:
            assert evolve._check_cost(*args)[0]
        else:
            with pytest.raises(ValidationError, match="too costly"):
                evolve._check_cost(*args)

    @pytest.mark.parametrize("n,periods", [(256, 1.5), (1500, 1.5)])
    def test_costs_the_run_it_decides_on(self, monkeypatch, n, periods):
        # a whole period to jump, but the quarter march in band storage
        # would cost more than one column over 1.5 periods: the run marches
        # one column, and the budget meets that march's estimate,
        # (last + 1) (N + 1 + _STEP_ENTRIES) entry steps
        spec = driven_spec(n, 70.0 * n)
        period = period_of(70.0 * n)
        count, _ = evolve._grid_split(np.array([periods * period]), period)
        assert count[0] == 1
        quarter = StepControl().quarter_steps(spec, n)
        last, _ = evolve._grid_split(np.array([periods * period]), period / 4 / quarter)
        plain = (last[0] + 1) * (n + 1 + evolve._STEP_ENTRIES)
        monkeypatch.setattr(evolve, "_WORK_MAX", plain)
        assert not evolve._check_cost(spec, n, last[0], quarter)[0]
        monkeypatch.setattr(evolve, "_WORK_MAX", plain - 1)
        with pytest.raises(ValidationError, match="too costly"):
            evolve._check_cost(spec, n, last[0], quarter)
        monkeypatch.undo()
        if n == 256:  # cheap enough to run: one column, no W_T
            log = march_log(monkeypatch)
            propagate_driven(spec, css(n), np.linspace(0, periods, 9) * period)
            assert [width for width, _, _ in log] == [1]

    def test_absurd_grid_at_large_n_meets_the_guard(self):
        # omega = 1e-300 at N = 1000 counts about 2.6e307 steps a quarter
        # period; the estimate's integer arithmetic used to overflow a float
        # (OverflowError) before the budget could refuse the run
        with pytest.raises(ValidationError, match="too costly"):
            propagate_driven(FullDriven(DriveParams(0.0, 1e-300)), css(1000), [0.0, 0.1])

    def test_absurd_span_meets_the_guard(self):
        # 1e10 over a period of 6e-300: the float period count is inf, and
        # omega t_start is too, so no rotating-frame phase is taken first
        spec = FullDriven(DriveParams(10.0, 1e300))
        with pytest.raises(ValidationError, match="too costly"):
            propagate_driven(spec, css(10), [0.0, 1e10])
        with pytest.raises(ValidationError, match="too costly"):
            driven_state_at(spec, css(10), 1e10, 2e10)

    @pytest.mark.parametrize("n,omega,times", [
        (6, 200.0, np.linspace(0, 0.9, 7) * period_of(200.0)),
        # four samples at phase 0.99 T (T = 1/64), four period starts
        (6, 128 * np.pi, np.r_[0.0, [2.99, 3.99, 5.99, 6.99]] * period_of(128 * np.pi)),
        (100, 2000.0, np.linspace(0, 0.3, 400)),
        (12, 840.0, np.linspace(0, default_t_max(12), 200)),
        # one driven_state_at call from 0.02 T (T = 1/64): a lead-in of 30
        # steps on one column to T/2, then two periods on, the sample at
        # phase T/4, so both quarter marches take all 16 steps
        (6, 128 * np.pi, np.array([0.02, 2.75]) * period_of(128 * np.pi)),
    ], ids=["no-jumps", "few-starts", "driven-curve", "driven-scan-n", "lead-in"])
    def test_estimate_bounds_the_march(self, monkeypatch, n, omega, times):
        # a budget one entry step below what the run marches refuses it; a
        # run whose times start past 0 is one driven_state_at call
        spec = driven_spec(n, omega)
        if times[0] == 0.0:
            run = partial(propagate_driven, spec, css(n), times)
        else:
            run = partial(driven_state_at, spec, css(n), *times)
        log = march_log(monkeypatch)
        run()
        marched = (n + 1) * sum(width * steps for width, _, steps in log)
        monkeypatch.setattr(evolve, "_WORK_MAX", marched - 1)
        with pytest.raises(ValidationError, match="too costly"):
            run()


class TestStepControl:
    @pytest.mark.parametrize("factor", [0, -1, 0.5, np.nan])
    def test_rejects_bad_factor(self, factor):
        with pytest.raises(ValidationError, match="positive integer"):
            StepControl().refined(factor)
        with pytest.raises(ValidationError, match="positive integer"):
            StepControl(factor)

    def test_refined_halves_step(self):
        base = StepControl()
        spec = driven_spec(10, 300.0)
        assert base.refined(2).quarter_steps(spec, 10) == 2 * base.quarter_steps(spec, 10)
        assert base.refined(2).refined(2) == base.refined(4) == StepControl(4)

    @pytest.mark.parametrize("n,omega,quarter", [
        (10, 300.0, 16),      # the drive binds
        (100, 2000.0, 134),   # the twisting rate binds: ceil(133.5...)
    ])
    def test_quarter_steps(self, n, omega, quarter):
        assert StepControl().quarter_steps(driven_spec(n, omega), n) == quarter

    @pytest.mark.parametrize("ratio", [0.0, 0.2, 0.906, 1.0])
    @pytest.mark.parametrize("n,omega", [(8, 300.0), (12, 840.0), (32, 1000.0),
                                         (100, 2000.0), (512, 35840.0)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_ratio_up_to_one_keeps_the_grid(self, ratio, n, omega, factor):
        # the grid before the drive phase counted: max(16 f, twisting cap)
        control = StepControl(factor)
        twist = 0.015 / factor / (n / 2 * (n / 2 + 1))
        old = max(16 * factor, math.ceil(period_of(omega) / 4 / twist))
        assert control.quarter_steps(driven_spec(n, omega, ratio), n) == old

    @pytest.mark.parametrize("ratio,quarter", [(2.5, 40), (3.0, 48), (2.41, 39)])
    def test_large_ratio_resolves_the_drive_phase(self, ratio, quarter):
        # the co-rotated phase 2 (g/omega) sin(omega t) turns at up to 2 g, so
        # the grid takes ceil(16 g/omega) steps a quarter period past g/omega = 1
        assert StepControl().quarter_steps(driven_spec(8, 300.0, ratio), 8) == quarter

    def test_large_ratio_runs_at_paper_scale(self):
        # one-period propagator drift 1.8e-8 on the grid that ignored the phase
        n, omega = 64, 4480.0
        traj = propagate_driven(driven_spec(n, omega, 2.5), css(n),
                                np.linspace(0, default_t_max(n), 200))
        assert np.all(np.isfinite(traj.amplitudes))

    @pytest.mark.parametrize("n,omega", [(8, 300.0), (32, 1000.0)])
    def test_step_halving_at_ratio_three(self, n, omega):
        # halving the step moved the optimum by 9.7e-11 and 9.4e-11
        spec = driven_spec(n, omega, 3.0)
        times = np.linspace(0, default_t_max(n), 200)
        coarse, fine = (optimal_squeezing(propagate_driven(spec, css(n), times, control))
                        for control in (StepControl(), StepControl().refined(2)))
        assert abs(coarse.xi_squared - fine.xi_squared) < 1e-6


class TestBandStorage:
    """Marched propagators in band storage, B[s + b, c] = W[c + 2s, c]."""

    @pytest.mark.parametrize("n,omega", [(40, 2800.0), (41, 2870.0), (100, 2000.0),
                                         (101, 7070.0), (128, 8960.0)])
    def test_period_propagator_matches_dense_products(self, n, omega):
        # the same construction on dense matrices: the identity marched over
        # a quarter period, W_h = (F W_q F)^T W_q and W_T = F W_h F W_h
        spec = driven_spec(n, omega)
        t = period_of(omega)
        quarter = StepControl().quarter_steps(spec, n)
        w_q = np.eye(n + 1, dtype=complex)
        step = evolve._rk4_stepper(spec, n, n + 1)
        for _ in evolve._rk4_march(step, w_q, 0.0, t / 4 / quarter, [quarter]):
            pass
        flip = np.eye(n + 1)[::-1]
        w_h = (flip @ w_q @ flip).T @ w_q
        w_t = flip @ w_h @ flip @ w_h
        half, jump, _ = evolve._period_propagator(spec, n, t, quarter, 1)
        assert np.max(np.abs(dense(half) - w_h)) <= 1e-14
        assert np.max(np.abs(dense(jump) - w_t)) <= 1e-14
        assert len(jump) < n + 1  # banded, not the whole matrix

    @pytest.mark.parametrize("widen", [4, 5, 8])
    def test_march_widens_from_the_identity(self, monkeypatch, widen):
        # every march starts from the identity's band, b = 0, far too narrow
        # for W_q: the band widens as it goes, and holds the dense march to
        # within rounding whatever its steps of widening
        n, omega = 100, 2000.0
        spec = driven_spec(n, omega)
        quarter = StepControl().quarter_steps(spec, n)
        h = period_of(omega) / 4 / quarter
        want = np.eye(n + 1, dtype=complex)
        step = evolve._rk4_stepper(spec, n, n + 1)
        for _ in evolve._rk4_march(step, want, 0.0, h, [quarter]):
            pass

        def march():
            for band in evolve._rk4_march(evolve._band_stepper(spec, n),
                                          evolve._band_identity(n), 0.0, h, [quarter]):
                pass
            return band

        monkeypatch.setattr(evolve, "EDGE_WIDEN", widen)
        band = march()
        assert 13 <= len(band) // 2 < 13 + widen
        assert np.abs(band[[0, -1]]).max() <= evolve.EDGE_TOL
        assert np.max(np.abs(dense(band) - want)) <= 1e-15
        # a band that may not widen stays the diagonal: it never passes
        # truncated unless the edge check lets it
        monkeypatch.setattr(evolve, "EDGE_TOL", np.inf)
        band = march()
        assert len(band) == 1 and np.max(np.abs(dense(band) - want)) > 1e-3

    @pytest.mark.parametrize("n,omega", [(6, 200.0), (40, 2800.0), (100, 2000.0),
                                         (512, 35840.0)])
    def test_estimate_bounds_the_band(self, n, omega):
        spec = driven_spec(n, omega)
        quarter = StepControl().quarter_steps(spec, n)
        t = period_of(omega)
        for band in evolve._rk4_march(evolve._band_stepper(spec, n),
                                      evolve._band_identity(n), 0.0, t / 4 / quarter,
                                      [quarter]):
            pass
        assert len(band) // 2 <= evolve._band_estimate(spec, n, t / 4) <= n // 2

    @pytest.mark.parametrize("n", [9, 10])
    def test_band_products_match_dense(self, n):
        rng = np.random.default_rng(n)

        def random_band(b):
            band = rng.normal(size=(2 * b + 1, n + 1)) + 1j * rng.normal(size=(2 * b + 1, n + 1))
            return evolve._band_product(band, evolve._band_identity(n))  # zero off W

        x, y = random_band(2), random_band(3)
        v = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        assert np.allclose(dense(evolve._band_product(x, y)), dense(x) @ dense(y),
                           rtol=0, atol=1e-12)
        assert np.allclose(dense(evolve._transposed(x)), dense(x).T, rtol=0, atol=0)
        assert np.allclose(evolve._band_apply(y, v), dense(y) @ v, rtol=0, atol=1e-12)

    def test_odd_half_period_start_reflects_the_held_propagator(self):
        # A(t + T/2) = F A(t) F: from T/2 on, W_h and W_T are F W F of the
        # set from 0, which a trajectory holds; the dense identity marched
        # from T/2 agrees with them to rounding
        n, omega = 40, 2800.0
        spec = driven_spec(n, omega)
        t = period_of(omega)
        quarter = StepControl().quarter_steps(spec, n)
        half, jump, _ = evolve._period_propagator(spec, n, t, quarter, 1)
        reflected = [evolve._reflected(half), evolve._reflected(jump)]
        want = np.eye(n + 1, dtype=complex)
        step = evolve._rk4_stepper(spec, n, n + 1)
        marched = evolve._rk4_march(step, want, t / 2, t / 4 / quarter,
                                    [2 * quarter, 4 * quarter])
        for got in reflected:
            next(marched)
            assert np.max(np.abs(dense(got) - want)) <= 1e-12


class TestAdvance:
    """A trajectory's `advance` continues one sample row to many times."""

    # at omega = 300 the short times lie within one drive period of the
    # row's (a one-column march), the long ones also 2.5 and 3.3 past it
    @pytest.mark.parametrize("propagate, one_time_tol", [
        (lambda psi, t: propagate_static(build_hamiltonian(TATxz(), 8), psi, t), 1e-13),
        # the march renormalizes its column at each knot it reads a sample
        # at, so one call per time differs from the batch by rounding only
        (lambda psi, t: propagate_driven(driven_spec(8, 300.0), psi, t), 1e-15),
    ], ids=["static", "driven"])
    def test_batch_continues_a_row(self, propagate, one_time_tol):
        traj = propagate(css(8), np.linspace(0, 0.5, 26))
        t_from, row = traj.times[5], traj.amplitudes[5]
        short = t_from + np.array([0.1, 0.35, 0.7, 0.9]) * period_of(300.0)
        many = traj.advance(row, t_from, short)
        assert many.shape == (4, 9)
        one = np.vstack([traj.advance(row, t_from, np.array([t])) for t in short])
        assert np.allclose(many, one, rtol=0, atol=one_time_tol)
        long = np.r_[short, t_from + np.array([2.5, 3.3]) * period_of(300.0)]
        fresh = propagate(css(8), np.r_[0.0, long]).amplitudes[1:]
        for got, want in zip(traj.advance(row, t_from, long), fresh):
            assert abs(np.vdot(got, want)) >= 1 - 1e-10
        same, = traj.advance(row, t_from, np.array([t_from]))
        assert np.allclose(same, row, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t_from, times, match", [
        (0.2, [0.1], "increase from the start 0.2"),
        # _check_cost budgets the last time only, so this run would escape
        # the refusal its sorted times get
        (0.2, [1e6, 0.3], "increase from the start 0.2"),
        (0.2, [0.3, np.nan], "finite"),
        (0.2, [0.3, np.inf], "finite"),
        (np.nan, [0.3], "finite"),
    ], ids=["before-start", "decreasing", "nan-time", "inf-time", "nan-start"])
    def test_driven_advance_rejects_bad_times(self, t_from, times, match):
        traj = propagate_driven(driven_spec(10, 300.0), css(10), np.linspace(0, 0.4, 41))
        with pytest.raises(ValidationError, match=match):
            traj.advance(traj.amplitudes[20], t_from, np.array(times))


    @pytest.mark.parametrize("times, rows", [
        ([], 0), ([0.3], 1), ([0.1], None), ([np.nan], None), ([[0.3]], None),
        (0.3, None),
    ], ids=["empty", "list", "before-start", "nan", "2-d", "scalar"])
    @pytest.mark.parametrize("propagate", [
        lambda psi, t: propagate_static(build_hamiltonian(TATxz(), 10), psi, t),
        lambda psi, t: propagate_driven(driven_spec(10, 300.0), psi, t),
    ], ids=["static", "driven"])
    def test_one_time_rule(self, propagate, times, rows):
        # both row functions take no times and lists; anything else a
        # ValidationError
        traj = propagate(css(10), np.linspace(0, 0.4, 41))
        if rows is None:
            with pytest.raises(ValidationError):
                traj.advance(traj.amplitudes[25], 0.25, times)
        else:
            got = traj.advance(traj.amplitudes[25], 0.25, times)
            assert got.shape == (rows, 11)

    @pytest.mark.parametrize("call", [
        lambda static, driven: propagate_static(TATxz(), css(10), ["x"]),
        lambda static, driven: propagate_static(TATxz(), css(10), [0, 1 + 2j]),
        lambda static, driven: static.advance(static.amplitudes[25], 0.25, ["a"]),
        lambda static, driven: static.advance(static.amplitudes[25], "0.25", [0.3]),
        lambda static, driven: driven.advance(driven.amplitudes[25], None, [0.3]),
        lambda static, driven: Trajectory(["a"], static.amplitudes[:1]),
    ], ids=["static-str-time", "static-complex-time", "advance-str-time",
            "advance-str-start", "driven-none-start", "trajectory-str-time"])
    def test_non_numeric_times_are_validation_errors(self, call):
        # a time or start that does not convert is refused like any other
        # bad time, not left to escape as numpy's or math's own error
        times = np.linspace(0, 0.4, 41)
        static = propagate_static(TATxz(), css(10), times)
        driven = propagate_driven(driven_spec(10, 300.0), css(10), times)
        with pytest.raises(ValidationError, match="must be real numbers"):
            call(static, driven)


    @pytest.mark.parametrize("n, omega, ratio", [
        (8, 1e5, 0.5), (32, 2e4, 0.9), (12, 5e3, 0.3)])
    def test_driven_state_at_is_the_advance_row(self, n, omega, ratio):
        # both jump from a period start past their lead-in, with W_h and W_T
        # built from t = 0: one held by the trajectory, one built afresh
        spec = driven_spec(n, omega, ratio)
        times = np.linspace(0, default_t_max(n), 20)
        traj = propagate_driven(spec, css(n), times)
        for k in (3, 7, 11):
            t_start, t_end = times[k], times[k] + 4.2 * times[1]
            row, = traj.advance(traj.amplitudes[k], t_start, np.array([t_end]))
            state = driven_state_at(spec, DickeState(n, traj.amplitudes[k]),
                                    t_start, t_end)
            assert np.array_equal(state.amplitudes, row)

    def test_trajectory_builds_one_set_at_its_priced_stride(self, monkeypatch):
        # the trajectory's own run builds W_h, W_T and the checkpoints once,
        # at the stride its budget priced (forced to 3 here); an advance from
        # 3T/2, on an odd multiple of T/2, so no lead-in, reads that set
        # reflected and builds none, and gives driven_state_at's row there
        n, omega = 40, 2800.0
        spec = driven_spec(n, omega, ratio=0.4)
        t = period_of(omega)
        times = np.sort(np.r_[np.linspace(0, 4.6, 24) * t, 3 * (t / 2)])
        force_stride(monkeypatch, spec, n, times, 3)
        strides = []
        build = evolve._period_propagator

        def spy(*args):
            strides.append(args[-1])
            return build(*args)

        monkeypatch.setattr(evolve, "_period_propagator", spy)
        traj = propagate_driven(spec, css(n), times)
        assert strides == [priced(spec, n, times[-1], len(times))[1]] == [3]
        k, = np.flatnonzero(times == 3 * (t / 2))
        t_end = times[k] + 2.3 * t
        row, = traj.advance(traj.amplitudes[k], times[k], np.array([t_end]))
        assert strides == [3]
        state = driven_state_at(spec, DickeState(n, traj.amplitudes[k]), times[k], t_end)
        assert np.array_equal(state.amplitudes, row)


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

    def test_norm_check_makes_no_full_size_temporary(self):
        # the unit-norm check sums the float view in place of np.linalg.norm,
        # whose |amp|^2 temporary doubled the peak: the copy is all it keeps
        rows = np.full((200, 2001), 1 / math.sqrt(2001), dtype=complex)
        times = np.linspace(0.0, 1.0, 200)
        tracemalloc.start()
        try:
            Trajectory(times, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * rows.nbytes

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
