"""Self-checks of the drive-averaged oracle in oracles.py.

Acceptance c05 takes its reference from `oracles.drive_averaged_optimum`, so
the oracle is tied here to values the suite already trusts: the TAT and OAT
references of c03/c04, the brute-force direction scan, and the library's own
static EffectiveMixed optimum. The driven path of c05 is checked against
a Magnus/expm integration that shares no code with the library's RK4.
"""

import numpy as np
import pytest

from spinsqueeze import (DriveParams, EffectiveMixed, FullDriven, bessel_j0,
                         build_hamiltonian, coherent_spin_state, default_t_max,
                         optimal_squeezing, propagate_driven, propagate_static,
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
