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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .spin_core import CollectiveOperator, _check_n_atoms, _raw_matrices

# Global minimum of J0, attained at x ~ 3.8317
BESSEL_J0_MIN = -0.4027593957661289

# solve_drive_ratio brackets roots on this grid of g/omega in (0, RATIO_MAX]
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
        if self.drive is not None and not isinstance(self, FullDriven):
            raise ValidationError("only a FullDriven spec carries a drive")
        a = self.bessel_coeff
        if a is not None and not (BESSEL_J0_MIN - 1e-12 <= a <= 1.0):
            raise ValidationError(
                f"Bessel coefficient {a!r} is outside the "
                f"reachable range [{BESSEL_J0_MIN}, 1]")


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

    Grid scan for sign changes, then Brent's method on each bracket.
    Returns an empty list when no root exists (e.g. target below the J0
    minimum).
    """
    if not math.isfinite(target_a):
        raise ValidationError(f"target_a must be finite, got {target_a!r}")
    # imported here: scipy adds ~0.3 s to every CLI start otherwise
    from scipy.optimize import brentq
    from scipy.special import j0

    def f(r):
        return bessel_j0(2 * r) - target_a

    grid = np.arange(RATIO_GRID_STEP, RATIO_MAX + RATIO_GRID_STEP / 2, RATIO_GRID_STEP)
    values = j0(2 * grid) - target_a
    roots = []
    for i, (r, fr) in enumerate(zip(grid, values)):
        if fr == 0.0:
            roots.append(float(r))
        elif i and values[i - 1] * fr < 0:
            roots.append(float(brentq(f, grid[i - 1], r)))
    return roots


def build_hamiltonian(spec, n_atoms, time=0.0):
    """Materialize a Hamiltonian spec as a dense Hermitian operator.

    `time` only matters for a driven spec, whose drive term carries cos(omega t).
    """
    _check_n_atoms(n_atoms)
    jx, jy, jz, _, _ = _raw_matrices(n_atoms)
    mat = np.zeros((n_atoms + 1, n_atoms + 1), dtype=complex)
    for w, j in zip(spec.weights, (jx, jy, jz)):
        if w:  # zero weights cost no dense product
            mat += (spec.chi * w) * (j @ j)
    if spec.drive is not None:
        g, omega = spec.drive.amplitude_g, spec.drive.frequency_omega
        mat += g * np.cos(omega * time) * jz
    return CollectiveOperator(n_atoms, mat, "Hamiltonian")


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
