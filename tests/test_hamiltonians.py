import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from spinsqueeze import (BESSEL_J0_MIN, DriveParams, EffectiveMixed,
                         FullDriven, HamiltonianSpec, OAT, TATxz, TATyz,
                         ValidationError, bessel_j0, build_hamiltonian,
                         casimir, rwa_validity, solve_drive_ratio,
                         variant_name)
from spinsqueeze.hamiltonians import RATIO_GRID_STEP, RATIO_MAX, VARIANTS

import oracles


ALL_STATIC = [OAT(), EffectiveMixed(1 / 3), EffectiveMixed(-1 / 3),
              TATxz(), TATyz()]


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_one_third_point(self):
        assert bessel_j0(1.812) == pytest.approx(1 / 3, abs=2e-3)

    def test_global_minimum_value(self):
        assert bessel_j0(3.8317) == pytest.approx(-0.4027, abs=2e-3)

    def test_against_scipy_oracle(self):
        xs = np.linspace(-50, 50, 2001)
        errs = [abs(bessel_j0(x) - scipy_j0(x)) for x in xs]
        assert max(errs) < 1e-10

    def test_even_symmetry(self):
        for x in np.linspace(0.1, 50, 97):
            assert abs(bessel_j0(x) - bessel_j0(-x)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            bessel_j0(float("nan"))
        with pytest.raises(ValidationError):
            bessel_j0(float("inf"))


class TestSolveDriveRatio:
    def test_one_third(self):
        roots = solve_drive_ratio(1 / 3)
        assert roots[0] == pytest.approx(0.906, abs=1e-3)

    def test_minus_one_third(self):
        roots = solve_drive_ratio(-1 / 3)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.626, abs=2e-3)
        assert roots[1] == pytest.approx(2.221, abs=2e-3)

    def test_boundary_target_one(self):
        # J0(2r) = 1 only at r = 0, which sits outside the open window
        assert solve_drive_ratio(1.0) == []

    @pytest.mark.parametrize("target", [0.99995, 0.99990001, 1 - 1e-12])
    def test_root_left_of_the_first_grid_step(self, target):
        # every target in (J0(2 RATIO_GRID_STEP), 1) has its one root in
        # (0, RATIO_GRID_STEP); near 0, J0(2r) = 1 - r^2 + O(r^4)
        roots = solve_drive_ratio(target)
        assert len(roots) == 1 and 0 < roots[0] < RATIO_GRID_STEP
        assert roots[0] == pytest.approx(np.sqrt(1 - target), rel=1e-4)
        assert abs(bessel_j0(2 * roots[0]) - target) < 1e-12

    def test_below_global_minimum(self):
        assert solve_drive_ratio(-0.5) == []

    def test_targets_at_and_just_above_the_minimum(self):
        # J0(2r) is least at r* = j_(1,1) / 2; -0.40275 has both its roots
        # within the one grid cell [1.91, 1.92] around r*
        r_star = 1.9158529851037562
        assert solve_drive_ratio(BESSEL_J0_MIN) == [r_star]
        low, high = solve_drive_ratio(-0.40275)
        assert low == pytest.approx(1.912439, abs=1e-6)
        assert high == pytest.approx(1.919269, abs=1e-6)
        assert bessel_j0(2 * r_star) == BESSEL_J0_MIN

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValidationError, match="target_a must be finite"):
            solve_drive_ratio(target)

    def test_target_on_a_grid_point_is_that_point(self):
        # J0 vanishes on no grid point, so take the target from one
        grid = np.arange(RATIO_GRID_STEP, RATIO_MAX + RATIO_GRID_STEP / 2,
                         RATIO_GRID_STEP)
        roots = solve_drive_ratio(float(scipy_j0(2 * grid[100])))
        assert float(grid[100]) in roots

    @pytest.mark.parametrize("target", [0.9, 1 / 3, 0.0, -1 / 3, -0.39])
    def test_plugback(self, target):
        for r in solve_drive_ratio(target):
            assert abs(bessel_j0(2 * r) - target) < 1e-6


class TestBuildHamiltonian:
    def test_oat_single_spin_is_scaled_identity(self):
        h = build_hamiltonian(OAT(chi=2.0), 1)
        assert np.allclose(h.matrix, 0.5 * np.eye(2), atol=1e-14)

    def test_drive_vanishes_at_quarter_period(self):
        omega = 120.0
        spec = FullDriven(DriveParams(50.0, omega))
        h = build_hamiltonian(spec, 6, time=np.pi / (2 * omega))
        assert np.allclose(h.matrix, build_hamiltonian(OAT(), 6).matrix, atol=1e-12)

    def test_mixed_one_third_is_tat_plus_casimir_shift(self):
        n, chi, a = 10, 1.0, 1 / 3
        j = n / 2
        mixed = build_hamiltonian(EffectiveMixed(a, chi), n).matrix
        tat = build_hamiltonian(TATxz(chi), n).matrix
        # conserved total-spin shift; magnitude chi/2*(1-A)*J(J+1)
        shift = 0.5 * chi * (1 - a) * j * (j + 1) * np.eye(n + 1)
        assert np.max(np.abs(mixed - (tat + shift))) < 1e-12

    def test_mixed_a_one_is_oat(self):
        assert np.array_equal(build_hamiltonian(EffectiveMixed(1.0), 8).matrix,
                              build_hamiltonian(OAT(), 8).matrix)

    @pytest.mark.parametrize("spec", ALL_STATIC + [FullDriven(DriveParams(9.0, 10.0))])
    def test_hermitian(self, spec):
        assert build_hamiltonian(spec, 12, time=0.3).is_hermitian()

    @pytest.mark.parametrize("spec", ALL_STATIC + [FullDriven(DriveParams(9.0, 10.0))])
    def test_commutes_with_total_spin(self, spec):
        h = build_hamiltonian(spec, 9, time=0.7).matrix
        c = casimir(9).matrix
        assert np.max(np.abs(h @ c - c @ h)) < 1e-10

    @pytest.mark.parametrize("spec_type", [OAT, TATxz, TATyz])
    def test_chi_linearity(self, spec_type):
        one = build_hamiltonian(spec_type(1.0), 7).matrix
        three = build_hamiltonian(spec_type(3.0), 7).matrix
        assert np.allclose(three, 3 * one, atol=1e-13)


DRIVE, T_DRIVE = DriveParams(9.0, 10.0), 0.3

# (variant name, constructor arguments before chi, documented H / chi)
DOCUMENTED = [
    pytest.param("oat", (), lambda x, y, z: x @ x, id="oat"),
    pytest.param("tat-xz", (), lambda x, y, z: (x @ x - z @ z) / 3, id="tat-xz"),
    pytest.param("tat-yz", (), lambda x, y, z: (y @ y - z @ z) / 3, id="tat-yz"),
] + [
    pytest.param("mixed", (a,),
                 lambda x, y, z, a=a: ((1 + a) * x @ x + (1 - a) * y @ y) / 2,
                 id=f"mixed-{a:.3g}")
    for a in (BESSEL_J0_MIN, 1 / 3, 0.7)
] + [
    pytest.param("full", (DRIVE,), lambda x, y, z: x @ x, id="full"),
]


@pytest.mark.parametrize("chi", [1.0, 2.5])
@pytest.mark.parametrize("name, args, formula", DOCUMENTED)
def test_variant_matches_documented_formula(name, args, formula, chi):
    spec = VARIANTS[name](*args, chi=chi)
    assert variant_name(spec) == name
    # N = 1 has an empty +2 band and N = 2 a single entry in it
    for n in (1, 2, 7, 40):
        x, y, z = oracles.raw_spin_matrices(n)
        expected = chi * formula(x, y, z)
        if name == "full":
            expected = expected + DRIVE.amplitude_g * np.cos(DRIVE.frequency_omega * T_DRIVE) * z
        h = build_hamiltonian(spec, n, time=T_DRIVE).matrix
        # entries grow as N^2 and so does their rounding: at N = 40 the dense
        # oracle products differ from the exact entries by about 1e-13
        assert np.max(np.abs(h - expected)) < 1e-13 * max(1.0, (n / 7) ** 2), n


class TestParamValidation:
    def test_rejects_zero_frequency(self):
        with pytest.raises(ValidationError):
            DriveParams(1.0, 0.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValidationError):
            DriveParams(-1.0, 5.0)

    def test_rejects_overflowing_ratio(self):
        # g and omega are each fine, but g/omega is inf; the driven run then
        # failed its norm drift check, which blamed the step
        with pytest.raises(ValidationError, match="drive ratio g/omega must be finite"):
            DriveParams(1e300, 1e-10)

    def test_build_refuses_an_overflowing_drive_amplitude(self):
        # g J overflows at g = 1e308: the drive's diagonal came out inf, with
        # a numpy overflow warning (an error in this suite); 1e300 still builds
        with pytest.raises(ValidationError, match=r"drive amplitude g=1e\+308"):
            build_hamiltonian(FullDriven(DriveParams(1e308, 1.0)), 8)
        matrix = build_hamiltonian(FullDriven(DriveParams(1e300, 1.0)), 8).matrix
        assert np.all(np.isfinite(matrix))

    def test_rejects_bad_chi(self):
        with pytest.raises(ValidationError):
            OAT(chi=0.0)

    def test_rejects_unreachable_bessel_coeff(self):
        with pytest.raises(ValidationError):
            EffectiveMixed(-0.5)
        with pytest.raises(ValidationError):
            EffectiveMixed(1.2)
        EffectiveMixed(BESSEL_J0_MIN)  # boundary is allowed

    @pytest.mark.parametrize("weights", [
        (1.0, 0.0), (1.0, np.nan, 0.0), (1.0, 0.0, np.inf), (1.0, 1j, 0.0),
    ], ids=["two", "nan", "inf", "complex"])
    def test_rejects_bad_weights(self, weights):
        # two weights failed later while unpacking; NaN and inf reached eigh,
        # which did not converge
        with pytest.raises(ValidationError, match="three finite reals"):
            HamiltonianSpec("x", weights)

    def test_drive_only_on_full_driven(self):
        # the driven propagator integrates chi Jx^2 only; other weights
        # with a drive would be propagated as if static
        with pytest.raises(ValidationError):
            HamiltonianSpec("tat-yz", (0.0, 1 / 3, -1 / 3), drive=DriveParams(1.0, 2.0))

    @pytest.mark.parametrize("drive", [None, "x", (1.0, 2.0)],
                             ids=["none", "str", "tuple"])
    def test_full_driven_needs_drive_params(self, drive):
        # without a DriveParams the spec built, and propagation failed later
        # with an AttributeError on drive.frequency_omega
        with pytest.raises(ValidationError, match="needs DriveParams"):
            FullDriven(drive)

    def test_ratio(self):
        assert DriveParams(4.0, 8.0).ratio == 0.5

    def test_variant_name_rejects_non_spec(self):
        with pytest.raises(ValidationError, match="unknown Hamiltonian spec"):
            variant_name("oat")


class TestRwaValidity:
    def test_deep_regime(self):
        diag = rwa_validity(FullDriven(DriveParams(6342.0, 7000.0)), 100)
        assert diag.ratio == pytest.approx(70)
        assert diag.is_valid

    def test_shallow_regime(self):
        diag = rwa_validity(FullDriven(DriveParams(45.3, 50.0)), 10)
        assert diag.ratio == pytest.approx(5)
        assert not diag.is_valid

    def test_threshold_inclusive(self):
        diag = rwa_validity(FullDriven(DriveParams(0.0, 100.0)), 10)
        assert diag.ratio == pytest.approx(10)
        assert diag.is_valid

    def test_wrong_variant(self):
        with pytest.raises(ValidationError):
            rwa_validity(OAT(), 10)
