"""Self-checks of the drive-averaged oracle in oracles.py.

Acceptance c05 takes its reference from `oracles.drive_averaged_optimum`, so
the oracle is tied here to values the suite already trusts: the TAT and OAT
references of c03/c04, the brute-force direction scan, and the library's own
static EffectiveMixed optimum. The driven path of c05 is checked against
a Magnus/expm integration that shares no code with the library's RK4, and
the library's one-period propagator against the drive-averaged one.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import j0

from spinsqueeze import (OAT, DickeState, DriveParams, EffectiveMixed,
                         FullDriven, bessel_j0, build_hamiltonian,
                         coherent_spin_state, default_t_max, driven_state_at,
                         evolve, optimal_squeezing, propagate_driven,
                         propagate_static, squeezing, squeezing_curve,
                         xi_squared)

import oracles


@pytest.mark.parametrize("bessel_coeff, reference", [
    (1 / 3, 0.0177),  # pure two-axis twisting, acceptance c03
    (1.0, 0.0479),    # one-axis twisting, acceptance c04
])
def test_mixed_optimum_reproduces_tat_and_oat_references(bessel_coeff, reference):
    _, value = oracles.mixed_optimum(100, bessel_coeff, default_t_max(100))
    assert abs(value - reference) <= 0.05 * reference


def test_covariance_minimum_matches_direction_scan():
    n = 10
    jx, _, _ = oracles.raw_spin_matrices(n)
    css_y = oracles.rotation(n, [1.0, 0.0, 0.0], -np.pi / 2)[:, 0]
    psi = oracles.evolve_expm(jx @ jx, css_y, 0.2)
    assert oracles.xi_squared_covariance(css_y, n) == pytest.approx(1.0, abs=1e-12)
    assert oracles.xi_squared_covariance(psi, n) == pytest.approx(
        oracles.xi_squared_direction_scan(psi, n, n_directions=4000), abs=1e-5)


def test_drive_averaged_optimum_matches_library_effective_mixed():
    n, ratio = 100, 0.4
    t_max = default_t_max(n)
    spec = EffectiveMixed(bessel_j0(2 * ratio))
    traj = propagate_static(build_hamiltonian(spec, n),
                            coherent_spin_state(n, "+y"),
                            np.linspace(0, t_max, 200))
    expected = optimal_squeezing(traj)
    t_opt, value = oracles.drive_averaged_optimum(n, ratio, t_max)
    assert value == pytest.approx(expected.xi_squared, abs=1e-4)
    assert t_opt == pytest.approx(expected.time, abs=2e-4)


@pytest.mark.parametrize("n", [1, 2, 10])  # +-2 band of Jx^2 empty, one entry, full
def test_magnus_oracle_matches_driven_rk4(n):
    omega, t = 100.0, 0.5
    css_y = oracles.rotation(n, [1.0, 0.0, 0.0], -np.pi / 2)[:, 0]
    psi = oracles.evolve_driven_magnus(n, 0.4 * omega, omega, css_y, t, 2000)
    traj = propagate_driven(FullDriven(DriveParams(0.4 * omega, omega)),
                            coherent_spin_state(n, "+y"), [0.0, t])
    lab = traj.states[-1]
    assert abs(np.vdot(psi, lab.amplitudes)) == pytest.approx(1.0, abs=1e-8)
    assert oracles.xi_squared_covariance(psi, n) == pytest.approx(
        xi_squared(lab).xi_squared, abs=1e-4)


@pytest.mark.parametrize("n", [4, 5])
def test_reflection_is_pi_rotation_about_x(n):
    # R = exp(-i pi Jx) = (-i)^N F with F the index reversal k -> N - k,
    # and evolve._reflected conjugates a W in band storage by it,
    # B[s + b, c] = W[c + 2s, c] (Jx reads the same in the oracle's
    # ascending index order)
    jx, _, _ = oracles.raw_spin_matrices(n)
    rot = expm(-1j * np.pi * jx)
    assert np.allclose(rot, (-1j) ** n * np.eye(n + 1)[::-1], atol=1e-12)
    rng = np.random.default_rng(n)
    w = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    idx = np.arange(n + 1)
    w[(idx[:, None] - idx[None, :]) % 2 == 1] = 0.0
    want = rot @ w @ rot.conj().T
    half = n // 2
    rows, cols = np.meshgrid(np.arange(-half, half + 1), idx, indexing="ij")
    on = (cols + 2 * rows >= 0) & (cols + 2 * rows <= n)
    band = np.where(on, w[np.clip(cols + 2 * rows, 0, n), cols], 0.0)
    got = evolve._reflected(band)
    assert np.allclose(got[on], want[(cols + 2 * rows)[on], cols[on]], atol=1e-12)
    assert not got[~on].any()


def test_period_propagator_approaches_drive_averaged_twisting():
    # Floquet picture: the one-period propagator W_T tends to exp(-i H_eff T),
    # H_eff = [(1+A) Jx^2 + (1-A) Jy^2] / 2 with A = J0(2 g/omega), and the
    # error falls as omega^-2; A = J0(g/omega) leaves an error of order T.
    # The quasienergies -angle(lambda)/T of W_T's eigenvalues lambda tend to
    # the spectrum of H_eff the same way: the distance is the farthest any
    # level on either side lies from the nearest level on the other, mod 2 pi/T
    n, ratio = 20, 0.4
    omegas = np.array([200.0, 400.0, 800.0, 1600.0])
    jx, jy, _ = oracles.raw_spin_matrices(n)

    def h_eff(a):
        return 0.5 * ((1 + a) * jx @ jx + (1 - a) * jy @ jy)

    def quasienergy_distance(lam, h, period):
        energies = np.linalg.eigvalsh(h)
        gaps = np.abs(np.angle(np.multiply.outer(lam, np.exp(1j * energies * period))))
        return max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) / period

    errors, misread, levels, levels_misread, modulus = [], [], [], [], []
    for omega in omegas:
        period = 2 * np.pi / omega
        spec = FullDriven(DriveParams(ratio * omega, omega))
        w_t = np.column_stack([
            driven_state_at(spec, DickeState(n, e), 0.0, period).amplitudes
            for e in np.eye(n + 1)])
        errors.append(np.linalg.norm(w_t - expm(-1j * h_eff(j0(2 * ratio)) * period), 2))
        misread.append(np.linalg.norm(w_t - expm(-1j * h_eff(j0(ratio)) * period), 2)
                       / period)
        lam = np.linalg.eigvals(w_t)
        modulus.append(np.max(np.abs(np.abs(lam) - 1)))
        levels.append(quasienergy_distance(lam, h_eff(j0(2 * ratio)), period))
        levels_misread.append(quasienergy_distance(lam, h_eff(j0(ratio)), period))
    slope = np.polyfit(np.log(omegas), np.log(errors), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)
    assert min(misread) > 1.0
    assert max(modulus) < 1e-9
    level_slope = np.polyfit(np.log(omegas), np.log(levels), 1)[0]
    assert level_slope == pytest.approx(-2.0, abs=0.2)
    assert min(levels_misread) > 1.0


@pytest.mark.parametrize("n", [10, 100, 2000])
def test_oat_curve_matches_kitagawa_ueda_closed_form(n):
    # the library's OAT curve from +y on a sweep point's grid; the largest
    # difference measured 2.0e-15, 9.6e-14 and 2.0e-11
    times = np.linspace(0, default_t_max(n), 200)
    traj = propagate_static(OAT(), coherent_spin_state(n, "+y"), times)
    got = np.array([r.xi_squared for r in squeezing_curve(traj)])
    assert np.max(np.abs(got - oracles.oat_xi_squared(n, times))) <= 1e-10


def test_oat_optimum_at_the_size_cap_matches_closed_form():
    # the refinement's stop, REFINE_TIME_TOL, is an absolute time while the
    # optimum time shrinks like N^(-2/3): at N = 2000 the library lands
    # 1.4e-6 in time and 9.3e-10 in xi^2 above the closed form's optimum
    n = 2000
    t_max = default_t_max(n)
    traj = propagate_static(OAT(), coherent_spin_state(n, "+y"),
                            np.linspace(0, t_max, 200))
    record = optimal_squeezing(traj)
    time, value = oracles.oat_optimum(n, t_max)
    assert abs(record.time - time) <= squeezing.REFINE_TIME_TOL
    assert value - 1e-12 <= record.xi_squared <= value + 1e-8
