"""Hamiltonians for the driven one-axis-twisting model.

Every variant is one quadratic form with an optional drive,

  H(t) = chi (wx Jx^2 + wy Jy^2 + wz Jz^2) [+ g cos(omega t) Jz],

and the named constructors only fix the weights:

  name    constructor     (wx, wy, wz)                 drive
  full    FullDriven      (1, 0, 0)                    g cos(omega t) Jz
  oat     OAT             (1, 0, 0)                    -
  mixed   EffectiveMixed  ((1+A)/2, (1-A)/2, 0)        -   A = J0(2 g/omega)
  tat-xz  TATxz           (1/3, 0, -1/3)               -
  tat-yz  TATyz           (0, 1/3, -1/3)               -

Energies are in units of chi, time in 1/chi (chi kept as an explicit
parameter, default 1, so unit scaling stays testable).
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .spin_core import (CollectiveOperator, _check_n_atoms, _jz_diagonal,
                        _quadratic_bands)

# Global minimum of J0, J0(j_(1,1)) at the first zero j_(1,1) = 3.8317... of
# J1 (scipy's j0 there, which is also the nearest double to the true value)
BESSEL_J0_MIN = -0.402759395702553

# solve_drive_ratio brackets roots on this grid of g/omega in (0, RATIO_MAX],
# after the first bracket [0, RATIO_GRID_STEP]
RATIO_MAX, RATIO_GRID_STEP = 3.0, 0.01


@dataclass(frozen=True)
class DriveParams:
    """Amplitude g and frequency omega of the cosine drive, in units of chi."""

    amplitude_g: float
    frequency_omega: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude_g) and self.amplitude_g >= 0):
            raise ValidationError(f"drive amplitude must be finite and >= 0, got {self.amplitude_g!r}")
        if not (math.isfinite(self.frequency_omega) and self.frequency_omega > 0):
            raise ValidationError(
                f"drive frequency must be finite and > 0 (the omega=0 limit is "
                f"out of scope), got {self.frequency_omega!r}")
        if not math.isfinite(self.ratio):
            raise ValidationError(
                f"drive ratio g/omega must be finite, got {self.amplitude_g!r}"
                f"/{self.frequency_omega!r}")

    @property
    def ratio(self):
        """r = g/omega, the knob that sets the Bessel coefficient J0(2r)."""
        return self.amplitude_g / self.frequency_omega


@dataclass(frozen=True)
class HamiltonianSpec:
    """chi (wx Jx^2 + wy Jy^2 + wz Jz^2), plus g cos(omega t) Jz if driven.

    Built by the named constructors in VARIANTS; `bessel_coeff` is the A
    an EffectiveMixed spec was made from, kept for output metadata.
    """

    name: str
    weights: Tuple[float, float, float]
    chi: float = 1.0
    drive: Optional[DriveParams] = None
    bessel_coeff: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.chi) and self.chi > 0):
            raise ValidationError(f"chi must be finite and > 0, got {self.chi!r}")
        if isinstance(self, FullDriven):
            if not isinstance(self.drive, DriveParams):
                raise ValidationError(
                    f"a FullDriven spec needs DriveParams, got {self.drive!r}")
        elif self.drive is not None:
            raise ValidationError("only a FullDriven spec carries a drive")
        a = self.bessel_coeff
        if a is not None and not (BESSEL_J0_MIN - 1e-12 <= a <= 1.0):
            raise ValidationError(
                f"Bessel coefficient {a!r} is outside the "
                f"reachable range [{BESSEL_J0_MIN}, 1]")
        w = self.weights
        if not (isinstance(w, tuple) and len(w) == 3 and all(
                isinstance(x, numbers.Real) and math.isfinite(x) for x in w)):
            raise ValidationError(
                f"weights must be a tuple of three finite reals, got {w!r}")


class FullDriven(HamiltonianSpec):
    """chi Jx^2 + g cos(omega t) Jz, the one drive the rotating-frame RK4 handles."""

    def __init__(self, drive, chi=1.0):
        super().__init__("full", (1.0, 0.0, 0.0), chi, drive)


def OAT(chi=1.0):
    return HamiltonianSpec("oat", (1.0, 0.0, 0.0), chi)


def EffectiveMixed(bessel_coeff, chi=1.0):
    """Drive-averaged twisting for A = bessel_coeff = J0(2 g/omega)."""
    a = bessel_coeff
    return HamiltonianSpec("mixed", ((1 + a) / 2, (1 - a) / 2, 0.0), chi,
                           bessel_coeff=a)


def TATxz(chi=1.0):
    return HamiltonianSpec("tat-xz", (1 / 3, 0.0, -1 / 3), chi)


def TATyz(chi=1.0):
    return HamiltonianSpec("tat-yz", (0.0, 1 / 3, -1 / 3), chi)


# Variant name -> constructor; the one place that lists the variants.
VARIANTS = {
    "full": FullDriven,
    "oat": OAT,
    "tat-xz": TATxz,
    "tat-yz": TATyz,
    "mixed": EffectiveMixed,
}


def variant_name(spec):
    if not isinstance(spec, HamiltonianSpec):
        raise ValidationError(f"unknown Hamiltonian spec {spec!r}")
    return spec.name


def bessel_j0(x):
    """Bessel function of the first kind, order zero (scipy.special.j0)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"bessel_j0 needs a finite argument, got {x!r}")
    from scipy.special import j0  # imported here, as in solve_drive_ratio
    return float(j0(x))


def solve_drive_ratio(target_a):
    """All roots r of J0(2r) = target_a in the open-left window (0, RATIO_MAX].

    Grid scan for sign changes from r = 0, where J0 = 1, then Brent's
    method on each bracket; the root r = 0 of target 1 lies outside the
    window. Returns an empty list when no root exists (e.g. target below
    the J0 minimum). The grid holds J0's minimum, r* = j_(1,1) / 2: a
    target just above BESSEL_J0_MIN has a root on each side of r* within
    one grid cell, and J0(2r) is monotone on each side of r* up to
    RATIO_MAX (its next extremum is at r ~ 3.51), so each cell holds at
    most one root.
    """
    if not math.isfinite(target_a):
        raise ValidationError(f"target_a must be finite, got {target_a!r}")
    # imported here: scipy adds ~0.3 s to every CLI start otherwise
    from scipy.optimize import brentq
    from scipy.special import j0
    grid = np.r_[0.0, np.arange(RATIO_GRID_STEP, RATIO_MAX + RATIO_GRID_STEP / 2,
                                RATIO_GRID_STEP), 1.9158529851037562]  # r* = j_(1,1) / 2
    grid.sort()
    values = j0(2 * grid) - target_a
    roots = []
    for r0, r, f0, fr in zip(grid, grid[1:], values, values[1:]):
        if fr == 0.0:
            roots.append(float(r))
        elif f0 * fr < 0:
            roots.append(float(brentq(lambda x: j0(2 * x) - target_a, r0, r)))
    return roots


def build_hamiltonian(spec, n_atoms, time=0.0):
    """Materialize a Hamiltonian spec as a dense Hermitian operator.

    The operator is filled from the quadratic form's main and +-2 bands,
    plus the drive's diagonal; `time` only matters for a driven spec, whose
    drive term carries cos(omega t). Each drive entry is at most g J in
    size, and each diagonal entry at most that plus chi J(J+1); a drive
    that makes this bound overflow raises ValidationError before any
    product is formed, as an overflowing chi does (`_quadratic_bands`).
    """
    n = _check_n_atoms(n_atoms)
    diag, upper = _quadratic_bands(n, spec.chi, spec.weights)
    if spec.drive is not None:
        g, omega = spec.drive.amplitude_g, spec.drive.frequency_omega
        j = n / 2
        # Python floats: no numpy warning
        bound = float(g) * j + float(spec.chi) * sum(map(abs, spec.weights)) * j * (j + 1)
        if not math.isfinite(bound):
            raise ValidationError(
                f"drive amplitude g={g!r} makes the Hamiltonian's entries "
                f"overflow at N = {n}")
        diag = diag + g * np.cos(omega * time) * _jz_diagonal(n)
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    idx = np.arange(n + 1)
    mat[idx, idx] = diag
    mat[idx[:-2], idx[2:]] = upper
    mat[idx[2:], idx[:-2]] = upper
    return CollectiveOperator(n, mat, "Hamiltonian")


# The cosine-drive average only survives when omega outruns the collective
# twisting rate N*chi; below ~10x the residual sidebands show up as visible
# oscillations. Advisory flag only, never a refusal to simulate.
RWA_RATIO_THRESHOLD = 10.0


@dataclass(frozen=True)
class RwaDiagnostic:
    ratio: float  # omega / (N chi)
    is_valid: bool


def rwa_validity(spec, n_atoms):
    """Check how deep a FullDriven spec is in the averaging regime."""
    if not isinstance(spec, FullDriven):
        raise ValidationError("rwa_validity applies to the FullDriven variant only")
    n = _check_n_atoms(n_atoms)
    ratio = spec.drive.frequency_omega / (n * spec.chi)
    return RwaDiagnostic(ratio=ratio, is_valid=ratio >= RWA_RATIO_THRESHOLD)
