"""Acceptance suite: one test per headline criterion, printed pass/fail lines.

Heavier than the unit tests (full driven sweeps at N up to 160); the whole
module runs in a couple of minutes on a laptop.
"""

import numpy as np
import pytest

from spinsqueeze import (DriveParams, FullDriven, OAT, StepControl, TATxz,
                         bessel_j0, build_hamiltonian, coherent_spin_state,
                         default_t_max, optimal_squeezing, propagate_driven,
                         propagate_static, run_n_scaling, solve_drive_ratio,
                         squeezing_curve, xi_squared)

import oracles


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def css(n, axis="+y"):
    return coherent_spin_state(n, axis)


def optimal_static(spec, n, axis="+y", samples=200):
    traj = propagate_static(build_hamiltonian(spec, n), css(n, axis),
                            np.linspace(0, default_t_max(n), samples))
    return optimal_squeezing(traj)


def optimal_driven(ratio, omega, n, axis="+y", samples=200, t_max=None):
    spec = FullDriven(DriveParams(ratio * omega, omega))
    times = np.linspace(0, t_max or default_t_max(n), samples)
    traj = propagate_driven(spec, css(n, axis), times)
    return optimal_squeezing(traj)


def test_c01_css_baseline():
    worst = 0.0
    for n in (2, 10, 100):
        for axis in ("+x", "+y"):
            worst = max(worst, abs(xi_squared(css(n, axis)).xi_squared - 1))
    report("01 CSS baseline xi^2 = 1", worst < 1e-9, f"max deviation {worst:.2e}")


def test_c02_tat_optimum_n10():
    value = optimal_static(TATxz(), 10).xi_squared
    ok = abs(value - 0.1381) <= 0.05 * 0.1381
    report("02 TAT optimum N=10", ok, f"xi^2 = {value:.4f}, reference 0.1381 +/-5%")


def test_c03_tat_optimum_n100():
    value = optimal_static(TATxz(), 100).xi_squared
    ok = abs(value - 0.0177) <= 0.05 * 0.0177
    report("03 TAT optimum N=100", ok, f"xi^2 = {value:.5f}, reference 0.0177 +/-5%")


def test_c04_oat_optimum_n100():
    value = optimal_static(OAT(), 100).xi_squared
    ok = abs(value - 0.0479) <= 0.05 * 0.0479
    report("04 OAT optimum N=100", ok, f"xi^2 = {value:.5f}, reference 0.0479 +/-5%")


def test_c05_mixed_regime_driven():
    # Checked against the drive-averaged optimum from oracles.py, which shares
    # no code with the driven RK4 path: EffectiveMixed with A = J0(0.8) from
    # +y gives 0.03302 at t = 0.0581. The driven run sits about 1.3% below
    # it, the expected O(N chi / omega) = 0.05 correction at omega = 2000.
    # The 5% band (as in c02-c04) still rejects ratio 0.45 (0.0306), ratio
    # 0.5 (0.0280), the J0(r) misreading (0.0431), OAT (0.0479) and TAT
    # (0.0177). The value formerly asserted here, 0.02805, is the ratio-0.5
    # optimum (0.02797 driven, 0.02823 averaged) and is no longer asserted.
    n, ratio = 100, 0.4
    t_max = default_t_max(n)
    value = optimal_driven(ratio, 2000.0, n, t_max=t_max).xi_squared
    _, oracle = oracles.drive_averaged_optimum(n, ratio, t_max)
    gap = (value - oracle) / oracle
    report("05 mixed-regime optimum (ratio 0.4)", abs(gap) <= 0.05,
           f"driven xi^2 = {value:.5f}, drive-averaged oracle {oracle:.5f}, "
           f"gap {gap:+.2%}, tolerance +/-5%")


def test_c06_rwa_convergence():
    n = 10
    times = np.linspace(0, 0.5, 51)
    tat = propagate_static(build_hamiltonian(TATxz(), n), css(n), times)
    xt = np.array([r.xi_squared for r in squeezing_curve(tat)])
    gaps = []
    for omega in (50.0, 100.0, 300.0):
        traj = propagate_driven(FullDriven(DriveParams(0.906 * omega, omega)),
                                css(n), times)
        xd = np.array([r.xi_squared for r in squeezing_curve(traj)])
        gaps.append(np.max(np.abs(xd - xt)))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.05
    report("06 RWA convergence with omega", ok,
           f"max gaps at omega 50/100/300 = {gaps[0]:.3f}/{gaps[1]:.3f}/{gaps[2]:.3f}")


def test_c07_oscillation_period():
    n, omega = 10, 50.0
    times = np.linspace(0, 0.5, 1001)
    driven = propagate_driven(FullDriven(DriveParams(0.906 * omega, omega)),
                              css(n), times)
    tat = propagate_static(build_hamiltonian(TATxz(), n), css(n), times)
    residual = (np.array([r.xi_squared for r in squeezing_curve(driven)])
                - np.array([r.xi_squared for r in squeezing_curve(tat)]))
    residual -= residual.mean()
    spectrum = np.abs(np.fft.rfft(residual * np.hanning(len(residual))))
    freqs = np.fft.rfftfreq(len(residual), times[1] - times[0])
    spectrum[freqs <= 5.0] = 0.0  # ignore the slow envelope
    period = 1.0 / freqs[np.argmax(spectrum)]
    ok = abs(period - 0.06) <= 0.2 * 0.06
    report("07 residual oscillation period", ok,
           f"period {period:.4f}/chi, reference 0.06 +/-20%")


def test_c08_scaling_exponents():
    n_list = [10, 20, 40, 80, 160]
    specs = [TATxz(), OAT(), FullDriven(DriveParams(0.906, 1.0))]
    _, fits = run_n_scaling(specs, n_list)
    tat, oat, full = (fits[k].exponent for k in ("tat-xz", "oat", "full"))
    ok = (abs(tat + 1.0) <= 0.1 and abs(oat + 2 / 3) <= 0.1
          and abs(full - tat) <= 0.1
          and all(f.r_squared > 0.98 for f in fits.values()))
    report("08 scaling exponents", ok,
           f"tat {tat:.3f} (ref -1), oat {oat:.3f} (ref -0.667), full {full:.3f}")


def test_c09_bessel_structure():
    first = solve_drive_ratio(1 / 3)[0]
    pair = solve_drive_ratio(-1 / 3)
    xs = np.arange(2 * 1.626, 2 * 2.221, 1e-4)
    interior_min = min(bessel_j0(x) for x in xs)
    ok = (abs(first - 0.906) <= 1e-3
          and len(pair) == 2
          and abs(pair[0] - 1.626) <= 2e-3 and abs(pair[1] - 2.221) <= 2e-3
          and abs(interior_min - (-0.4027)) <= 1e-3)
    report("09 Bessel root structure", ok,
           f"first {first:.4f}, pair {pair[0]:.4f}/{pair[1]:.4f}, "
           f"interior min {interior_min:.4f}")


def test_c10_x_axis_reversal():
    n, omega = 100, 2000.0
    tat_ref = optimal_static(TATxz(), n).xi_squared
    oat_ref = optimal_static(OAT(), n).xi_squared
    with_x = optimal_driven(1.4, omega, n, axis="+x").xi_squared
    with_y = optimal_driven(1.4, omega, n, axis="+y").xi_squared
    ok = with_x <= 2 * tat_ref and with_y > oat_ref
    report("10 x-axis initial-state reversal", ok,
           f"+x {with_x:.4f} (<= 2x TAT {2 * tat_ref:.4f}), "
           f"+y {with_y:.4f} (> OAT {oat_ref:.4f})")


def test_c11_property_suite():
    failures = []

    # commutator closure
    from spinsqueeze import build_angular_momentum
    for n in (2, 25, 50):
        jx, jy, jz = (build_angular_momentum(n, c).matrix
                      for c in ("Jx", "Jy", "Jz"))
        if np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) >= 1e-10:
            failures.append(f"commutator N={n}")

    # Casimir + norm conservation along a driven trajectory
    from spinsqueeze import casimir, expectation
    n = 10
    traj = propagate_driven(FullDriven(DriveParams(0.906 * 100, 100.0)),
                            css(n), np.linspace(0, 0.4, 21))
    j = n / 2
    for state in traj.states:
        if abs(np.linalg.norm(state.amplitudes) - 1) >= 1e-8:
            failures.append("norm conservation")
            break
        if abs(expectation(casimir(n), state) - j * (j + 1)) >= 1e-7:
            failures.append("Casimir conservation")
            break

    # rotation invariance of xi^2
    state = traj.states[10]
    base = xi_squared(state).xi_squared
    rot = oracles.rotation(n, [1, 1, 0], 0.6)
    from spinsqueeze import DickeState
    rotated = DickeState(n, rot @ state.amplitudes)
    if abs(xi_squared(rotated).xi_squared - base) >= 1e-9:
        failures.append("rotation invariance")

    # closed form vs direction scan
    scan = oracles.xi_squared_direction_scan(state.amplitudes, n)
    if abs(base - scan) >= 1e-6:
        failures.append("direction-scan oracle")

    # step-halving convergence
    times = np.linspace(0, 0.5, 26)
    spec = FullDriven(DriveParams(0.906 * 300, 300.0))
    coarse = propagate_driven(spec, css(n), times)
    fine = propagate_driven(spec, css(n), times, StepControl().refined(2))
    xc = np.array([r.xi_squared for r in squeezing_curve(coarse)])
    xf = np.array([r.xi_squared for r in squeezing_curve(fine)])
    if np.max(np.abs(xc - xf)) >= 1e-6:
        failures.append("step-halving convergence")

    report("11 property suite", not failures,
           "all properties hold" if not failures else ", ".join(failures))
