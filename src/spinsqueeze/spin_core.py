"""Collective spin states and operators in the symmetric Dicke basis.

For N spin-1/2 atoms the fully symmetric sector has total spin J = N/2 and
dimension N+1. Basis index k in [0, N] labels the Jz eigenstate |J, J-k>,
i.e. k = 0 is the top of the ladder (m = +J) and k = N the bottom (m = -J).
The public operators are dense complex matrices. The numerical paths never
build them: they read the few bands of J they need (of J+, J+ (2 Jz + 1),
Jx^2, Jy^2 and Jz^2) from one cached table per N, `_bands`. hbar = 1.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# The numerical paths build no (N+1)^2 operator. The static path's folded
# eigh (evolve._band_blocks) holds two 2 MB half-size eigenvector arrays
# for a coherent state at N = 2000 (four for a general state) and takes
# 0.06 s there; at N = 1999 both blocks share one 8 MB array, made in
# 0.12-0.14 s (one BLAS thread, 2-vCPU host). The driven `full` scan
# point at N = 2000, about 7 s, is the costlier one. Refuse larger sizes
# loudly.
N_ATOMS_MAX = 2000

NORM_TOL = 1e-10  # every stored state's unit norm (evolve.NORM_TOL: RK4 drift allowance)

OPERATOR_LABELS = ("Jx", "Jy", "Jz", "Jplus", "Jminus")


def _check_n_atoms(n_atoms):
    # finite first: int() of NaN or inf raises ValueError or OverflowError
    if not (isinstance(n_atoms, numbers.Real) and math.isfinite(n_atoms)
            and int(n_atoms) == n_atoms and n_atoms >= 1):
        raise ValidationError(f"n_atoms must be a positive integer, got {n_atoms!r}")
    if n_atoms > N_ATOMS_MAX:
        raise ValidationError(f"n_atoms={n_atoms} exceeds the size cap {N_ATOMS_MAX}")
    return int(n_atoms)


# The row functions (evolve._static_states, evolve._driven_states) make a
# run's rows in chunks of at most this many bytes of amplitudes, one row at
# least, and a reducer (squeezing._squeezing) reduces them chunk by chunk,
# so a sweep never holds more than one chunk of rows: 109 rows at N = 600,
# 32 at N = 2000. Half of it ran the static scan at N = 250..2000 2-4%
# slower in-process (best of three, four alternating rounds, 2-vCPU host).
ROW_CHUNK_BYTES = 2 ** 20


def _chunked(n_rows, n_atoms, make, reduce=None):
    """Rows 0..n_rows-1 of N+1 amplitudes each, made chunk by chunk.

    make(lo, hi) gives rows lo:hi, called in order on chunks of at most
    ROW_CHUNK_BYTES of amplitudes. With no `reduce`, the rows come back as
    one array (n_rows, N+1). With one, each chunk goes to reduce(rows),
    which gives a tuple of arrays with one entry per row, and the call
    gives their concatenations: no more than one chunk of rows is held.
    No rows call no make, and reduce an empty chunk.
    """
    step = max(1, ROW_CHUNK_BYTES // (16 * (n_atoms + 1)))
    bounds = [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    if reduce is None:
        out = np.empty((n_rows, n_atoms + 1), dtype=complex)
        for lo, hi in bounds:
            out[lo:hi] = make(lo, hi)
        return out
    parts = ([reduce(make(lo, hi)) for lo, hi in bounds]
             or [reduce(np.empty((0, n_atoms + 1), dtype=complex))])
    return tuple(np.concatenate(column) for column in zip(*parts))


def _frozen(array):
    out = np.array(array)
    out.flags.writeable = False
    return out


def _unit_rows(amplitudes, count=None, n_atoms=None):
    """Read-only complex copy of one state (N+1,), or of `count` states as rows.

    N is `n_atoms`, else read off the rows; each must have unit norm (NaN fails).
    """
    try:
        amp = np.array(amplitudes, dtype=complex, order="C", ndmin=1)
    except (TypeError, ValueError):
        raise ValidationError("amplitudes must form one complex array") from None
    n = _check_n_atoms(amp.shape[-1] - 1 if n_atoms is None else n_atoms)
    shape = (n + 1,) if count is None else (count, n + 1)
    if amp.shape != shape:
        raise ValidationError(f"amplitudes have shape {amp.shape}, expected {shape}")
    parts = amp.view(float)  # re, im interleaved; np.linalg.norm makes a full-size |amp|^2
    drift = abs(np.sqrt(np.einsum("...k,...k->...", parts, parts)) - 1.0).max()
    if not drift <= NORM_TOL:  # NaN fails too
        raise ValidationError(f"state norm deviates from 1 by {drift!r}, beyond {NORM_TOL}")
    amp.flags.writeable = False
    return amp


@dataclass(frozen=True)
class DickeState:
    """Normalized pure state over the |J, J-k> basis, k = 0..N."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _unit_rows(self.amplitudes, n_atoms=self.n_atoms)
        object.__setattr__(self, "n_atoms", len(amp) - 1)
        object.__setattr__(self, "amplitudes", amp)


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

    def is_hermitian(self):
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= 1e-12


@lru_cache(maxsize=None)
def _jz_diagonal(n_atoms):
    # m = J - k, descending from +J to -J
    j = n_atoms / 2
    return _frozen(j - np.arange(n_atoms + 1, dtype=float))


@lru_cache(maxsize=None)
def _bands(n_atoms):
    """The bands of J in the Dicke basis, one read-only table per N.

    With c_k = J+[k-1, k] = sqrt(J(J+1) - m_k (m_k + 1)) for k = 1..N
    (J+ raises m_k at index k to m_(k-1) at k-1), and c_0 = c_(N+1) = 0,
    it holds, in order:
      c_k, the +1 band of J+;
      c_k (m_(k-1) + m_k), the +1 band of J+ (2 Jz + 1);
      (c_k^2 + c_(k+1)^2) / 4, k = 0..N, the diagonal that Jx^2 and Jy^2
        share (from J+J- + J-J+);
      c_(k+1) c_(k+2) / 4, k = 0..N-2, the +2 band of Jx^2 (from J+^2),
        whose negative is that of Jy^2;
      m^2, the diagonal of Jz^2.
    Every quadratic form in Jx, Jy, Jz is real with only the main and +-2
    diagonals, and mirrors its +2 band on the -2.
    """
    j = n_atoms / 2
    m = _jz_diagonal(n_atoms)
    c = np.zeros(n_atoms + 2)
    c[1:-1] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    c2 = c * c
    return tuple(map(_frozen, (c[1:-1], c[1:-1] * (m[:-1] + m[1:]),
                               (c2[:-1] + c2[1:]) / 4, c[1:-2] * c[2:-1] / 4, m * m)))


def _raw_matrices(n_atoms):
    """Dense (Jx, Jy, Jz, Jplus, Jminus), built afresh for the public operators."""
    jp = np.diag(_bands(n_atoms)[0], 1).astype(complex)
    jm = jp.conj().T
    jz = np.diag(_jz_diagonal(n_atoms)).astype(complex)
    return (jp + jm) / 2, (jp - jm) / 2j, jz, jp, jm


def _quadratic_bands(n_atoms, chi, weights):
    """Main and +2 diagonals of the real chi (wx Jx^2 + wy Jy^2 + wz Jz^2), in O(N).

    Every entry and eigenvalue is at most chi (|wx| + |wy| + |wz|) J(J+1) in
    size; a chi that makes this bound overflow raises ValidationError
    before any array is formed.
    """
    wx, wy, wz = (float(chi) * float(w) for w in weights)  # Python floats: no numpy warning
    j = n_atoms / 2
    if not math.isfinite((abs(wx) + abs(wy) + abs(wz)) * j * (j + 1)):
        raise ValidationError(
            f"chi={chi!r} makes the Hamiltonian's entries overflow at N = {n_atoms}")
    _, _, side, upper, m2 = _bands(n_atoms)
    return wx * side + wy * side + wz * m2, wx * upper - wy * upper


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
    The state is exactly as symmetric under the index reversal k -> N-k as
    the one it describes, amplitude N-k = i^N (-1)^k times amplitude k for
    +y and equal to it for +x, bit for bit: ln k! + ln (N-k)! is summed
    before it is subtracted (addition commutes exactly), and i^k is read
    from the exact table of its four values.
    """
    n = _check_n_atoms(n_atoms)
    axis = direction.removeprefix("+") if isinstance(direction, str) else None
    if axis not in ("x", "y"):
        raise ValidationError(f"direction must be '+x' or '+y', got {direction!r}")
    j = n / 2
    k = np.arange(n + 1)
    ln_fact = np.array([math.lgamma(i + 1) for i in k])  # ln k!
    amp = np.exp(0.5 * (ln_fact[n] - (ln_fact + ln_fact[::-1])) - j * math.log(2.0))
    amp /= np.linalg.norm(amp)  # remove rounding residue, keeps 1e-10 invariant
    if axis == "y":
        amp = amp * np.array([1, 1j, -1, -1j])[k % 4]  # i^k
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
