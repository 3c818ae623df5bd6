"""Hamiltonians for the driven one-axis-twisting model.

Variants:
  FullDriven      H(t) = chi Jx^2 + g cos(omega t) Jz
  OAT             chi Jx^2
  EffectiveMixed  (chi/2) [(A+1) Jx^2 + (1-A) Jy^2], A = J0(2 g/omega)
  TATxz           (chi/3) (Jx^2 - Jz^2)
  TATyz           (chi/3) (Jy^2 - Jz^2)

Energies are in units of chi, time in 1/chi (chi kept as an explicit
parameter, default 1, so unit scaling stays testable).
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

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


def _check_chi(chi):
    if not (math.isfinite(chi) and chi > 0):
        raise ValidationError(f"chi must be finite and > 0, got {chi!r}")


@dataclass(frozen=True)
class FullDriven:
    drive: DriveParams
    chi: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)


@dataclass(frozen=True)
class OAT:
    chi: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)


@dataclass(frozen=True)
class EffectiveMixed:
    bessel_coeff: float  # A = J0(2 g/omega)
    chi: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)
        if not (BESSEL_J0_MIN - 1e-12 <= self.bessel_coeff <= 1.0):
            raise ValidationError(
                f"Bessel coefficient {self.bessel_coeff!r} is outside the "
                f"reachable range [{BESSEL_J0_MIN}, 1]")


@dataclass(frozen=True)
class TATxz:
    chi: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)


@dataclass(frozen=True)
class TATyz:
    chi: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)


HamiltonianSpec = Union[FullDriven, OAT, EffectiveMixed, TATxz, TATyz]

_VARIANT_NAMES = {
    FullDriven: "full",
    OAT: "oat",
    EffectiveMixed: "mixed",
    TATxz: "tat-xz",
    TATyz: "tat-yz",
}


def variant_name(spec):
    try:
        return _VARIANT_NAMES[type(spec)]
    except KeyError:
        raise ValidationError(f"unknown Hamiltonian spec {spec!r}") from None


def bessel_j0(x):
    """Bessel function of the first kind, order zero (scipy.special.j0)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"bessel_j0 needs a finite argument, got {x!r}")
    return float(special.j0(x))


def solve_drive_ratio(target_a):
    """All roots r of J0(2r) = target_a in the open-left window (0, RATIO_MAX].

    Grid scan for sign changes, then Brent's method on each bracket.
    Returns an empty list when no root exists (e.g. target below the J0
    minimum).
    """
    if not math.isfinite(target_a):
        raise ValidationError(f"target_a must be finite, got {target_a!r}")
    # imported here: scipy.optimize adds ~0.2 s to every CLI start otherwise
    from scipy.optimize import brentq

    def f(r):
        return bessel_j0(2 * r) - target_a

    grid = np.arange(RATIO_GRID_STEP, RATIO_MAX + RATIO_GRID_STEP / 2, RATIO_GRID_STEP)
    values = special.j0(2 * grid) - target_a
    roots = []
    for i, (r, fr) in enumerate(zip(grid, values)):
        if fr == 0.0:
            roots.append(float(r))
        elif i and values[i - 1] * fr < 0:
            roots.append(float(brentq(f, grid[i - 1], r)))
    return roots


def build_hamiltonian(spec, n_atoms, time=0.0):
    """Materialize a Hamiltonian spec as a dense Hermitian operator.

    `time` only matters for FullDriven, whose drive term carries cos(omega t).
    """
    _check_n_atoms(n_atoms)
    jx, jy, jz, _, _ = _raw_matrices(n_atoms)
    chi = spec.chi
    if isinstance(spec, FullDriven):
        g = spec.drive.amplitude_g
        omega = spec.drive.frequency_omega
        mat = chi * (jx @ jx) + g * np.cos(omega * time) * jz
    elif isinstance(spec, OAT):
        mat = chi * (jx @ jx)
    elif isinstance(spec, EffectiveMixed):
        a = spec.bessel_coeff
        mat = 0.5 * chi * ((a + 1) * (jx @ jx) + (1 - a) * (jy @ jy))
    elif isinstance(spec, TATxz):
        mat = (chi / 3) * (jx @ jx - jz @ jz)
    elif isinstance(spec, TATyz):
        mat = (chi / 3) * (jy @ jy - jz @ jz)
    else:
        raise ValidationError(f"unknown Hamiltonian spec {spec!r}")
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
