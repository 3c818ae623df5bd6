"""Collective spin states and operators in the symmetric Dicke basis.

For N spin-1/2 atoms the fully symmetric sector has total spin J = N/2 and
dimension N+1. Basis index k in [0, N] labels the Jz eigenstate |J, J-k>,
i.e. k = 0 is the top of the ladder (m = +J) and k = N the bottom (m = -J).
All matrices are dense complex; hbar = 1.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Dense (N+1)^2 matrices stay tiny well past any physically interesting N
# here, but eigendecompositions get slow; refuse absurd sizes loudly.
N_ATOMS_MAX = 2000

NORM_TOL = 1e-10

OPERATOR_LABELS = ("Jx", "Jy", "Jz", "Jplus", "Jminus")


def _check_n_atoms(n_atoms):
    if int(n_atoms) != n_atoms or n_atoms < 1:
        raise ValidationError(f"n_atoms must be a positive integer, got {n_atoms!r}")
    if n_atoms > N_ATOMS_MAX:
        raise ValidationError(f"n_atoms={n_atoms} exceeds the dense-matrix cap {N_ATOMS_MAX}")
    return int(n_atoms)


def _frozen(array):
    out = np.array(array)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DickeState:
    """Normalized pure state over the |J, J-k> basis, k = 0..N."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _check_n_atoms(self.n_atoms)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (n + 1,):
            raise ValidationError(
                f"amplitude vector has shape {amp.shape}, expected ({n + 1},)")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValidationError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "n_atoms", n)
        object.__setattr__(self, "amplitudes", _frozen(amp))


@dataclass(frozen=True)
class CollectiveOperator:
    """Dense operator on the symmetric sector, tagged with what it represents."""

    n_atoms: int
    matrix: np.ndarray
    label: str

    def __post_init__(self):
        n = _check_n_atoms(self.n_atoms)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (n + 1, n + 1):
            raise ValidationError(
                f"operator matrix has shape {mat.shape}, expected ({n + 1}, {n + 1})")
        if self.label not in OPERATOR_LABELS + ("Hamiltonian",):
            raise ValidationError(f"unknown operator label {self.label!r}")
        object.__setattr__(self, "n_atoms", n)
        object.__setattr__(self, "matrix", _frozen(mat))

    def is_hermitian(self, tol=1e-12):
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol


@lru_cache(maxsize=None)
def _jz_diagonal(n_atoms):
    # m = J - k, descending from +J to -J
    j = n_atoms / 2
    return _frozen(j - np.arange(n_atoms + 1, dtype=float))


@lru_cache(maxsize=None)
def _raw_matrices(n_atoms):
    """Raw (Jx, Jy, Jz, Jplus, Jminus) arrays, cached and read-only."""
    n = n_atoms
    j = n / 2
    m = _jz_diagonal(n)
    jz = np.diag(m).astype(complex)
    # J+ |J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>; m+1 lives at index k-1
    jp = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(1, n + 1):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return tuple(map(_frozen, (jx, jy, jz, jp, jm)))


def build_angular_momentum(n_atoms, component):
    """Collective J operator for the given component label.

    component is one of "Jx", "Jy", "Jz", "Jplus", "Jminus".
    """
    _check_n_atoms(n_atoms)
    if component not in OPERATOR_LABELS:
        raise ValidationError(
            f"component must be one of {OPERATOR_LABELS}, got {component!r}")
    mats = dict(zip(OPERATOR_LABELS, _raw_matrices(n_atoms)))
    return CollectiveOperator(n_atoms, mats[component], component)


def coherent_spin_state(n_atoms, direction):
    """CSS fully polarized along +x or +y.

    Amplitude at index k is 2^(-J) sqrt(C(2J, k)) for +x, with an extra i^k
    phase for +y. Binomials go through log-space so large N stays finite.
    """
    n = _check_n_atoms(n_atoms)
    axis = direction.lstrip("+")
    if axis not in ("x", "y"):
        raise ValidationError(f"direction must be '+x' or '+y', got {direction!r}")
    j = n / 2
    k = np.arange(n + 1)
    ln_fact = np.array([math.lgamma(i + 1) for i in k])  # ln k!
    ln_amp = 0.5 * (ln_fact[n] - ln_fact - ln_fact[::-1]) - j * math.log(2.0)
    amp = np.exp(ln_amp).astype(complex)
    if axis == "y":
        amp *= 1j ** k
    amp /= np.linalg.norm(amp)  # remove rounding residue, keeps 1e-10 invariant
    return DickeState(n, amp)


def _check_match(op, state):
    if op.n_atoms != state.n_atoms:
        raise ValidationError(
            f"operator is for N={op.n_atoms} but state has N={state.n_atoms}")


def expectation(op, state):
    """<psi|O|psi> for a Hermitian operator; the imaginary residue is dropped."""
    _check_match(op, state)
    psi = state.amplitudes
    value = np.vdot(psi, op.matrix @ psi)
    if abs(value.imag) > 1e-8:
        raise ValidationError(
            f"expectation value has imaginary part {value.imag:g}; "
            "operator is not Hermitian")
    return value.real


def symmetrized_covariance(op_a, op_b, state):
    """<(AB + BA)/2> - <A><B> for Hermitian A, B."""
    _check_match(op_a, state)
    _check_match(op_b, state)
    psi = state.amplitudes
    a_psi = op_a.matrix @ psi
    b_psi = op_b.matrix @ psi
    # <psi|AB|psi> = (A psi, B psi) since A is Hermitian
    ab = np.vdot(a_psi, b_psi)
    sym = ab.real  # (AB + BA)/2 expectation is Re<AB> for Hermitian A, B
    mean_a = np.vdot(psi, a_psi)
    mean_b = np.vdot(psi, b_psi)
    if abs(mean_a.imag) > 1e-8 or abs(mean_b.imag) > 1e-8:
        raise ValidationError("covariance inputs must be Hermitian operators")
    return sym - mean_a.real * mean_b.real


def casimir(n_atoms):
    """Total-spin operator J^2 = Jx^2 + Jy^2 + Jz^2 (equals J(J+1) identity)."""
    jx, jy, jz, _, _ = _raw_matrices(n_atoms)
    return CollectiveOperator(n_atoms, jx @ jx + jy @ jy + jz @ jz, "Hamiltonian")
