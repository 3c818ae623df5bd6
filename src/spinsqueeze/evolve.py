"""State propagation: exact for constant Hamiltonians, RK4 for the driven one.

A constant Hamiltonian is eigendecomposed once. A static spec's H never
couples even to odd indices, so it splits into two index-parity blocks,
real symmetric tridiagonal, which come straight from its quadratic form's
bands: no dense (N+1)^2 operator is built for it, and the index
reversal F (below) halves each block's eigenproblem. At even N it splits
each block into an F-even and an F-odd half; a coherent state lies in
one half of each block and stays there, so only the halves a state holds
are decomposed and propagated. A dense Hermitian operator is decomposed
whole, by one complex eigh, an independent dense reference for the
banded route.

The driven integrator works in the exact rotating frame of the drive term:
psi(t) = exp(-i theta(t) Jz) phi(t) with theta(t) = (g/omega) sin(omega t),
so the stiff diagonal piece is handled analytically and RK4 only has to
track the co-rotated twisting term. That term has the drive's period
T = 2 pi / omega, so a run spanning many periods builds one period's
propagator W_T once and jumps from period to period by matvecs. Every
march steps on one fixed grid, h = (T/4) / StepControl.quarter_steps: each
sample's time from the start is whole grid steps, to its knot t_k, plus a
remainder below h. A run that does not jump marches its one start over
the grid and reads each sample out at its knot; all samples then take
their remainders together as one batched RK4 step. The index reversal F
(k -> N - k; exp(-i pi Jx) = (-i)^N F) keeps Jx^2, flips Jz, and maps the
drive's second half period onto its first: A(t + T/2) = F A(t) F for the
co-rotated generator A. So W_T = F W_h F W_h from half a period's W_h.
A jumping run starts on a multiple of T/2: one from any other start
first marches its one state there, a lead-in of less than half a period.
From there A is also mirror-symmetric about the quarter period and
A^T = F A F, so W_h = (F W_q F)^T W_q from a quarter period's W_q,
marched from t = 0 only, once per trajectory: from an odd multiple of
T/2 the pair is read reflected, F W F. A sample's grid steps, over the
2q of a half period, give its half period k and phase tau < T/2: it is
F^k W(tau) r_k, r_k = (F W_h)^k applied to the start. The quarter march
that builds W_q keeps W(t_m) at every c-th knot, c set so that these
checkpoints hold about CHECKPOINT_STATES states and priced with the rest
of the run's work, and the second quarter is mirrored onto the first,
since W(T/2 - tau) = F conj(W(tau)) F W_h: each sample is read out at
the checkpoint at or below its knot (or the mirrored knot) and takes its
last whole steps, fewer than c, as a batched column; no second march is
made. Over less than a period W is banded to machine precision, so every
propagator is held by its 2b+1 diagonals, b set by the march itself:
O(bN) memory and work, not O(N^2). A run jumps when it spans a whole
period and its estimated work, counted in stored entries stepped, is
lower that way; otherwise the march carries the one start itself. A run
whose estimated work is over budget is refused before any step. States
are mapped back to the lab frame at every sample point, so trajectories
always contain genuine psi(t).

Both row functions plan a run once over all its sample times and then make
its rows in chunks (`spin_core._chunked`), which a reducer can take one at
a time: a sweep keeps only what it reduces them to.
"""

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import spin_core
from .errors import IntegrationError, ValidationError
from .hamiltonians import FullDriven, HamiltonianSpec
from .spin_core import (CollectiveOperator, DickeState, _bands, _frozen,
                        _jz_diagonal, _quadratic_bands, _unit_rows)

NORM_TOL = 1e-8  # driven RK4 norm drift allowed between renormalizations

# The driven RK4 grid resolves the drive (QUARTER_STEPS per quarter period,
# times g/omega when that is above 1: the co-rotated phase 2 (g/omega)
# sin(omega t) turns at up to 2 g) and the co-rotated twisting (steps of
# at most TWIST_STEP_SCALE / (chi J(J+1)), binding at large N); halving its
# step moves xi^2 by < 1e-6.
QUARTER_STEPS = 16
TWIST_STEP_SCALE = 0.015


@dataclass(frozen=True)
class StepControl:
    """Fixed-step RK4 policy for the driven propagator: the default step
    grid refined by a positive integer `factor` (for convergence checks)."""

    factor: int = 1

    def __post_init__(self):
        if not (isinstance(self.factor, numbers.Integral) and self.factor >= 1):
            raise ValidationError(
                f"refinement factor must be a positive integer, got {self.factor!r}")

    def refined(self, factor):
        """Same policy with the step cut by the positive integer `factor`."""
        return StepControl(self.factor * factor)

    def quarter_steps(self, spec, n_atoms):
        """RK4 steps per quarter drive period, the one place the grid is set:
        q = max(ceil(16 f max(1, g/omega)), ceil((T/4) / twisting step)) for
        the refinement factor f. A twisting step that is not > 0 (chi J(J+1)
        overflows), or a period whose step count (4 quarters) is not a
        finite float, raises ValidationError."""
        j = n_atoms / 2
        period = 2 * math.pi / spec.drive.frequency_omega
        twist = TWIST_STEP_SCALE / self.factor / (spec.chi * j * (j + 1))
        if not twist > 0:
            raise ValidationError(
                f"chi={spec.chi!r} leaves no RK4 twisting step at N = {n_atoms}")
        ratio = period / 4 / twist
        drive = QUARTER_STEPS * self.factor * max(1.0, spec.drive.ratio)
        if not math.isfinite(4 * max(ratio, drive)):
            raise ValidationError(
                f"drive period {period:g} is too long for the RK4 step grid "
                f"(twisting step {twist:g}, g/omega {spec.drive.ratio:g})")
        return max(math.ceil(drive), math.ceil(ratio))


def _check_span(t_from, times):
    """`times` as a float array, checked as the span of a row function from
    t_from: 1-d, finite, none before t_from or before the one ahead of it.
    An empty `times` passes. Times that do not convert to float, or a t_from
    that is not a real number, fail first; then the shape, finiteness, order.

    O(1) checks and one slice comparison: with the first time >= t_from and
    each >= the one before, a finite last time bounds them all (a NaN fails
    the comparison).
    """
    try:
        times = np.asarray(times, dtype=float)
        finite_from = math.isfinite(t_from)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("sample times and their start must be real numbers") from None
    if times.ndim != 1:
        raise ValidationError(f"sample times must form a 1-d vector, got shape {times.shape}")
    if not len(times):
        return times
    if not (finite_from and math.isfinite(times[-1])):
        raise ValidationError("sample times must be finite")
    if not (times[0] >= t_from and np.all(times[1:] >= times[:-1])):
        raise ValidationError(f"sample times must increase from the start {t_from:g}")
    return times


def _check_times(times):
    times = _check_span(0.0, times)
    if len(times) == 0:
        raise ValidationError("need a non-empty 1-d vector of sample times")
    if times[0] != 0.0 or not np.all(times[1:] > times[:-1]):
        raise ValidationError("sample times must start at 0 and increase strictly")
    return times


@dataclass(frozen=True)
class Trajectory:
    """Sampled states |psi(t_i)> as the rows of `amplitudes` (T, N+1), t_0 = 0.

    Both arrays are read-only; every row has unit norm, checked once here.
    `advance(psi, t_from, times)` continues the evolution of a state row
    psi (N+1,) at t_from to `times`, returning their rows (len(times), N+1),
    with the propagator (eigenbasis, or RK4 under its StepControl) that
    made it: the propagator's own row function, which made the rows from
    t = 0. Every propagator sets it; it is None only on hand-built
    trajectories. Both propagators keep one time rule (`_check_span`):
    `times` is a 1-d array or list of finite times, none before t_from or
    before the one ahead of it; no times give no rows, and anything else
    raises ValidationError.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    advance: Optional[Callable[[np.ndarray, float, np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen(_check_times(self.times)))
        object.__setattr__(self, "amplitudes", _unit_rows(self.amplitudes, len(self.times)))

    @property
    def n_atoms(self):
        return self.amplitudes.shape[1] - 1

    @property
    def states(self):
        """The samples as DickeStates, built anew on each access."""
        return tuple(DickeState(self.n_atoms, row) for row in self.amplitudes)


def _tridiagonal_eigh(diag, upper):
    """eigh of the real symmetric tridiagonal matrix with these diagonals."""
    size = len(diag)
    block = np.zeros((size, size))
    block.flat[::size + 1] = diag
    block.flat[1::size + 1] = block.flat[size::size + 1] = upper
    return np.linalg.eigh(block)


def _half_eigh(diag, upper, sign):
    """(evals, basis) of the J-even (sign +1) or J-odd (-1) half of a real
    symmetric tridiagonal block of size m that the index reversal J
    (i -> m-1-i) maps onto itself, from one half-size eigh.

    J-even vectors (u_i + u_(m-1-i)) / sqrt 2, and u_h itself at odd
    m = 2h+1, span one invariant half, of size ceil(m/2); J-odd ones
    (u_i - u_(m-1-i)) / sqrt 2 the other, of size floor(m/2). On the first
    indices each half keeps the block's diagonals, except where they meet
    the middle: at even m the middle coupling e = upper[m/2 - 1] adds +e to
    the even half's last diagonal entry and -e to the odd half's; at odd m
    the even half's last coupling is sqrt(2) e. The basis is the half's
    eigenvectors u with their first floor(m/2) rows times sqrt(1/2), and
    u_h times 1/2: the block's rows of an eigenvector are the basis column
    added to the block's first rows and, times the sign, to its last rows
    read backwards (at odd m the middle row gets u_h / 2 twice).
    """
    m = len(diag)
    pairs = m // 2  # rows i < pairs pair with m-1-i; the J-odd half's size
    size = m - pairs if sign > 0 else pairs
    half_diag, half_upper = diag[:size].copy(), upper[:size - 1].copy()
    if m % 2 == 0:
        half_diag[-1] += sign * upper[pairs - 1]
    elif sign > 0 and pairs:
        half_upper[-1] *= math.sqrt(2.0)
    evals, basis = _tridiagonal_eigh(half_diag, half_upper)
    basis[:pairs] *= math.sqrt(0.5)
    basis[pairs:] *= 0.5
    return evals, basis


def _band_blocks(spec, n_atoms):
    """The sectors (rows, sign, eigh) of a static spec's H, with no dense
    (N+1)^2 operator: eigh is a cached call with no arguments that gives
    the sector's (evals, basis), and the basis acts on the state's `rows`.

    A quadratic form in J has only the main and +-2 diagonals, so it never
    couples even to odd indices: parity block p is real symmetric
    tridiagonal, with diagonal diag[p::2] and off-diagonal upper[p::2].
    The bands are symmetric under the index reversal F (k -> N-k), and so
    is H. At even N, F maps each block of size m onto itself, read
    backwards: each is persymmetric, and splits into an F-even (sign +1)
    and an F-odd (-1) half (`_half_eigh`) of size s, whose rows are the
    block's first s; read on the reversed state F psi, the same rows are
    the block's last s, backwards. At odd N, F maps block 0 onto block 1
    read backwards: block 1, taken on its rows from N down, is block 0,
    and each block is one sector (sign None) of their one shared eigh.
    """
    diag, upper = _quadratic_bands(n_atoms, spec.chi, spec.weights)
    if n_atoms % 2:
        shared = cache(partial(_tridiagonal_eigh, diag[0::2], upper[0::2]))
        return [(slice(0, None, 2), None, shared), (slice(n_atoms, None, -2), None, shared)]
    sectors = []
    for parity in (0, 1):
        bands = diag[parity::2], upper[parity::2]
        m = len(bands[0])
        for sign, size in ((1.0, m - m // 2), (-1.0, m // 2)):
            if size:  # no F-odd half at m = 1
                sectors.append((slice(parity, parity + 2 * size, 2), sign,
                                cache(partial(_half_eigh, *bands, sign))))
    return sectors


def _apply(matrix, vectors):
    """matrix @ vectors for complex column vectors (d, T).

    A real matrix acts on the (d, 2T) float view, one real product.
    """
    vectors = np.ascontiguousarray(vectors)
    if matrix.dtype.kind != "c":
        return (matrix @ vectors.view(float)).view(complex)
    return matrix @ vectors


def _static_states(sectors, psi, t_from, times, reduce=None):
    """Rows exp(-i H dt)|psi> for each dt = t - t_from of `times`, as
    V exp(-i Lambda dt) V^dag |psi>, with psi the state at t_from; with a
    `reduce`, what spin_core._chunked makes of them, chunk by chunk.

    A sector (`_band_blocks`) of sign None takes psi on its rows as it is.
    A reversal half of sign +-1 takes psi + sign F psi on its rows, the
    block's first s rows x_i + sign x_(m-1-i): a state exactly in the other
    half gives exact zeros there, and H never moves it out, so that half is
    neither decomposed nor propagated. Each other sector is decomposed the
    first time a call needs it (its eigh is cached), and makes its rows
    with one product of its basis per chunk, added to the output on its
    rows and, for a half, times its sign on the same rows of the reversed
    output: a state in one reversal half keeps its F-symmetry bit for bit.
    Times that break `_check_span`, or a span whose largest phase
    |lambda| (t - t_from) over the sectors propagated is not a finite
    float, raise ValidationError, and a row whose norm drifts beyond
    spin_core.NORM_TOL (NaN too) IntegrationError.
    """
    times = _check_span(t_from, times)
    mirror = psi[::-1]
    sources = []
    for rows, sign, eigh in sectors:
        if sign is None:
            part = psi[rows]
        else:
            part = (np.add if sign > 0 else np.subtract)(psi[rows], mirror[rows])
            if not np.count_nonzero(part):  # NaN counts as held
                continue
        evals, basis = eigh()
        # V^dag psi; a real V is not copied to conjugate it
        adjoint = (basis.conj() if basis.dtype.kind == "c" else basis).T
        sources.append((rows, sign, evals, basis, _apply(adjoint, part[:, None])))
    # each eigh gives its evals ascending
    top = max((float(max(-evals[0], evals[-1])) for _, _, evals, *_ in sources), default=0.0)
    # Python floats overflow to inf without a numpy warning
    if len(times) and not math.isfinite(top * (float(times[-1]) - float(t_from))):
        raise ValidationError(
            f"the phase exp(-i lambda t) overflows at t = {times[-1]:g} "
            f"from t = {t_from:g} (largest |lambda| {top:g})")

    def make(lo, hi):
        turns = -1j * np.subtract(times[lo:hi], t_from)
        out = np.zeros((hi - lo, len(psi)), dtype=complex)
        flipped = out[:, ::-1]
        for rows, sign, evals, basis, coeffs in sources:
            made = _apply(basis, np.exp(np.multiply.outer(evals, turns)) * coeffs).T
            view = out[:, rows]
            view += made
            if sign is not None:
                view = flipped[:, rows]
                (np.add if sign > 0 else np.subtract)(view, made, out=view)
        made = None  # then the norms' temporaries are all that is held beside `out`
        norms = np.linalg.norm(out, axis=1)
        drift = np.abs(norms - 1.0)
        bad = np.flatnonzero(~(drift <= spin_core.NORM_TOL))
        if len(bad):
            raise IntegrationError(f"static propagation lost norm: drift {drift[bad[0]]:g}")
        out /= norms[:, None]
        return out

    return spin_core._chunked(len(times), len(psi) - 1, make, reduce)


def propagate_static(hamiltonian, initial, times, reduce=None):
    """Exact evolution under a constant Hamiltonian via one eigendecomposition.

    `hamiltonian` is a static HamiltonianSpec, decomposed on its parity
    blocks from its bands (`_band_blocks`), or a Hermitian
    CollectiveOperator, decomposed whole as one complex block. The
    trajectory's `advance` is `_static_states` on those sectors, which
    makes its rows from t = 0; a block's half is decomposed the first time
    a call's state holds it, and held for every later call. With a
    `reduce`, the run keeps no rows and is a ReducedRun.
    """
    times = _check_times(times)
    if not isinstance(initial, DickeState):
        raise ValidationError("propagate_static expects a DickeState")
    if isinstance(hamiltonian, FullDriven):
        raise ValidationError("a FullDriven spec needs propagate_driven")
    if isinstance(hamiltonian, HamiltonianSpec):
        sectors = _band_blocks(hamiltonian, initial.n_atoms)
    else:
        if not isinstance(hamiltonian, CollectiveOperator):
            raise ValidationError(
                "hamiltonian must be a static HamiltonianSpec or a CollectiveOperator")
        if hamiltonian.n_atoms != initial.n_atoms:
            raise ValidationError("Hamiltonian and initial state disagree on N")
        if not hamiltonian.is_hermitian():
            raise ValidationError("static propagation requires a Hermitian Hamiltonian")
        sectors = [(slice(None), None, cache(partial(np.linalg.eigh, hamiltonian.matrix)))]
    return _run(partial(_static_states, sectors), initial, times, reduce)


@dataclass(frozen=True)
class ReducedRun:
    """A propagator's run whose rows went to its `reduce` chunk by chunk
    and were not kept: `reduced`, what `reduce` made of the rows at `times`
    (`spin_core._chunked`); `first`, the first of those rows, where a
    trajectory's refinement starts; and advance(psi, t_from, times), the
    row function with the same `reduce`."""

    times: np.ndarray
    reduced: tuple
    first: np.ndarray
    advance: Callable


def _run(advance, initial, times, reduce):
    """The Trajectory of row function `advance` from `initial` at `times`,
    or with a `reduce` the ReducedRun."""
    if reduce is None:
        return Trajectory(times, advance(initial.amplitudes, 0.0, times), advance)
    first = []

    def keep_first(rows):
        if not first and len(rows):
            first.append(rows[0].copy())
        return reduce(rows)

    reduced = advance(initial.amplitudes, 0.0, times, reduce=keep_first)
    return ReducedRun(times, reduced, first[0] if first else None,
                      partial(advance, reduce=reduce))


def _rk4_core(spec, diag, band, shift, work):
    """step(block, t, dt) -> block: one RK4 step of rotating-frame columns, in place.

    The co-rotated generator is A(t) = -i chi (D + e^(2i theta) U + h.c.),
    theta = (g/omega) sin(omega t), with D the diagonal of Jx^2 and U its +2
    band: Jx^2 is real with only the 0 and +-2 diagonals, and m falls by one
    per index, so co-rotating multiplies U by exp(2i theta) and U^T by the
    conjugate. `diag` holds D and `band` U laid out like the block, where a
    +2 neighbour lies `shift` rows down. `work` holds the four work arrays,
    (4, rows, width), allocated once by the caller. t and dt are scalars,
    or arrays with one value per column: then each column steps from its
    own time, at its own drive phase, by its own dt, and each band's
    per-column coefficients are built for the step.
    """
    diag = -1j * spec.chi * diag
    band = -1j * spec.chi * band
    omega = spec.drive.frequency_omega
    r = spec.drive.ratio
    width = work.shape[2]
    whole = tuple(work)

    def coefficients(t):  # the two bands' co-rotated coefficients at t
        if isinstance(t, np.ndarray):  # one phase per column, each the scalar's bits
            phase = np.array([cmath.exp(2j * r * math.sin(omega * x))
                              for x in t.tolist()])
        else:
            phase = cmath.exp(2j * r * math.sin(omega * t))
        return phase * band, phase.conjugate() * band

    def deriv(src, coeffs, k, tmp):  # k = A(t) src
        above, below = coeffs
        np.multiply(diag, src, out=k)
        np.multiply(above, src[shift:], out=tmp[:-shift])
        k[:-shift] += tmp[:-shift]
        np.multiply(below, src[:-shift], out=tmp[shift:])
        k[shift:] += tmp[shift:]

    def step(block, t, dt):
        # block += dt/3 (k1/2 + k2 + k3 + k4/2); k2 and k3 share a phase
        cols = block.shape[1]
        k, y, acc, tmp = whole if cols == width else work[:, :, :cols]
        deriv(block, coefficients(t), k, tmp)
        np.multiply(k, 0.5, out=acc)
        middle = coefficients(t + 0.5 * dt)
        for frac, coeffs in ((0.5, middle), (0.5, middle), (1.0, coefficients(t + dt))):
            np.multiply(k, frac * dt, out=y)
            y += block
            deriv(y, coeffs, k, tmp)
            if frac == 1.0:
                k *= 0.5
            acc += k
        acc *= dt / 3
        block += acc
        return block

    return step


def _rk4_stepper(spec, n_atoms, width):
    """step(block, t, dt) -> block: one RK4 step of rotating-frame states, in place.

    `block` holds the states as the columns of (N+1, C), C <= width. t and
    dt are scalars, or arrays with one value per column (`_rk4_core`). The
    four work arrays are allocated here, once. A step with scalar t
    allocates nothing of the block's size; with one t per column it builds
    each band's per-column coefficients, at most 4096 entries in a
    partial-step chunk (`_CHUNK_ENTRIES`) below N = 4096.
    """
    diag, upper = _bands(n_atoms)[2:4]  # Jx^2's diagonal and +2 band
    work = np.empty((4, n_atoms + 1, width), dtype=complex)
    return _rk4_core(spec, diag[:, None], upper[:, None], 2, work)


# A propagator W over less than a drive period is held by its diagonals,
# B[s + b, c] = W[c + 2s, c] for s = -b..b: shape (2b+1, N+1), zero where
# c + 2s falls off the matrix, O(bN) memory and work, not O(N^2). Jx^2 moves
# an index by 0 or 2, so W never couples even to odd indices, and the
# exponential of a banded generator decays faster than exponentially away
# from its diagonal (Iserles, N. Z. J. Math. 29, 2000): over a quarter
# period no entry past b = 13 reaches 1e-16 at N = 100 (omega = 2000 chi),
# nor past 15 at N = 512 (scan-n's omega = 70 N chi). An entry k diagonals
# out is at most rho^k / k! exp(rho^2 / (k + 1)) (the Dyson series' paths
# of k net +2 moves), with rho the quarter period times chi times the
# largest entry of Jx^2's +2 band (`_band_estimate`).
#
# A march starts from the identity's band, b = 0, and drops the diagonals
# past its band. Before every step it looks at its two outer diagonals,
# and adds EDGE_WIDEN zero diagonals on each side once either holds an
# entry above EDGE_TOL. That is the reach of one RK4 step, a polynomial of
# degree 4 in h A, so a step drops nothing from a band it has just
# widened; any other step drops what flows past an edge below EDGE_TOL, at
# most about h chi |U| <= rho / q of it per step (the diagonals further in
# add only higher powers of rho / q). Over the march's q steps that is at
# most about rho EDGE_TOL per entry: rho is below 3 at every point of
# scan-n up to N = 2000, so the loss stays below the rounding that the
# march's own q steps leave in an entry of size 1.
EDGE_TOL = 2.0 ** -53  # the unit roundoff
EDGE_WIDEN = 4


def _band_layout(values, b, n_atoms):
    """values[c + 2s] at [s + b, c] for s = -b..b, zero off `values`: a band of
    a matrix's diagonal (len N+1) or +2 band (len N-1) in band storage, read
    off one zero-padded copy through a sliding window."""
    padded = np.zeros(n_atoms + 1 + 4 * b)
    padded[2 * b:2 * b + len(values)] = values
    item = padded.itemsize
    return np.ndarray((2 * b + 1, n_atoms + 1), float, padded,
                      strides=(2 * item, item)).copy()


def _band_stepper(spec, n_atoms):
    """step(band, t, dt) -> band: one RK4 step of a propagator in band storage.

    A's diagonal D[c + 2s] acts on row s of column c, and its +2 band
    U[c + 2s] couples rows s and s + 1 of the same column, so the step is
    the dense one's arithmetic on (2b+1, N+1) arrays with shift 1, and the
    entries it keeps take the same bits as in a dense march. Each step
    first widens the band by EDGE_WIDEN zero diagonals a side if an outer
    one holds an entry above EDGE_TOL, capped at b = N // 2, where the band
    holds the whole matrix; then it returns the new array, and its work
    arrays are made anew.
    """
    diag, upper = _bands(n_atoms)[2:4]
    cap = n_atoms // 2
    core = None

    def step(band, t, dt):
        nonlocal core
        b = len(band) // 2
        if b < cap and np.abs(band[::max(1, 2 * b)]).max() > EDGE_TOL:
            b = min(cap, b + EDGE_WIDEN)
            band = _widened(band, b)
            core = None
        if core is None:
            work = np.empty((4, *band.shape), dtype=complex)
            core = _rk4_core(spec, _band_layout(diag, b, n_atoms),
                             _band_layout(upper, b, n_atoms)[:-1], 1, work)
        return core(band, t, dt)

    return step


def _band_identity(n_atoms):
    """The identity in band storage, b = 0."""
    return np.ones((1, n_atoms + 1), dtype=complex)


def _widened(band, b):
    """`band` with zero diagonals added out to half-width b."""
    out = np.zeros((2 * b + 1, band.shape[1]), dtype=complex)
    extra = b - len(band) // 2
    out[extra:len(out) - extra] = band
    return out


def _trimmed(band):
    """`band` without its outer diagonal pairs whose entries are all <= EDGE_TOL."""
    b = len(band) // 2
    big = np.flatnonzero(np.abs(band).max(axis=1) > EDGE_TOL)
    keep = int(np.abs(big - b).max()) if len(big) else 0
    return band[b - keep:b + keep + 1]


def _reflected(band):
    """F W F in band storage, for W in band storage; F reverses the index,
    k -> N - k, so F W F [c + 2s, c] = W[N - c - 2s, N - c]."""
    return band[::-1, ::-1]


def _transposed(band):
    """W^T in band storage: W^T [c + 2s, c] = W[c, c + 2s], row b - s of the
    band read 2s columns on, through a strided view of one padded copy."""
    rows, size = band.shape
    b = rows // 2
    padded = np.zeros((rows, size + 4 * b), dtype=complex)
    padded[:, 2 * b:2 * b + size] = band
    item = padded.itemsize
    view = np.ndarray(band.shape, complex, padded, offset=4 * b * item,
                      strides=(padded.strides[0] - 2 * item, item))
    return view[::-1].copy()


def _band_product(x, y):
    """X Y in band storage, trimmed (`_trimmed`), for X and Y in band storage.

    Column c of Y holds Y[c + 2t, c] at row t, and column c + 2t of X holds
    X[c + 2t + 2u, c + 2t] at row u, so each t adds one product of arrays
    (2bx+1, N+1) to rows t + u of the result: 2by+1 of them in all.
    """
    bx, by = len(x) // 2, len(y) // 2
    size = x.shape[1]
    b = min(bx + by, (size - 1) // 2)
    out = np.zeros((2 * (bx + by) + 1, size), dtype=complex)
    for t in range(-by, by + 1):
        lo, hi = max(0, -2 * t), min(size, size - 2 * t)
        rows = out[by + t:by + t + 2 * bx + 1, lo:hi]
        rows += x[:, lo + 2 * t:hi + 2 * t] * y[by + t, lo:hi]
    return _trimmed(out[bx + by - b:bx + by + b + 1])


# Batched partial steps take up to this many entries (64 KB of complex) per
# work array, so 4096 // (N+1) columns and at least one: a small-N sweep
# point's ~200 off-knot samples take one step, not dozens.
_CHUNK_ENTRIES = 4096


def _band_apply(band, vectors):
    """W @ vectors for the columns of (N+1, C) vectors, W in band storage.

    Row s of W's band, times a vector, goes into a zero-padded buffer at
    column 2b + c for column c; (W v)[i] sums each row s's entry at column
    i + 4b - 2s, which a strided view lines up, so the work is two passes
    over (2b+1)(N+1) entries per vector, whatever b is. Vectors go through
    in chunks whose buffer holds at most _CHUNK_ENTRIES * 8 entries
    (512 KB), or one vector.
    """
    rows, size = band.shape
    b = rows // 2
    wide = size + 4 * b
    width = max(1, _CHUNK_ENTRIES * 8 // (rows * wide))
    cols = vectors.shape[1]
    if cols > width:
        return np.hstack([_band_apply(band, vectors[:, lo:lo + width])
                          for lo in range(0, cols, width)])
    if not cols:
        return np.empty_like(vectors)
    buf = np.zeros((rows, cols, wide), dtype=complex)
    np.multiply(band[:, None], vectors.T, out=buf[:, :, 2 * b:2 * b + size])
    item = buf.itemsize
    summed = np.ndarray((rows, cols, size), complex, buf, offset=4 * b * item,
                        strides=((cols * wide - 2) * item, wide * item, item)).sum(axis=0)
    return summed.T


def _band_matvec(band):
    """v -> W v, one (N+1,) vector at a time, W in band storage.

    W's rows, W[i, i + 2s], are laid out once (`_transposed`), and each
    product sums them against a sliding window of one zero-padded buffer:
    two passes over (2b+1)(N+1) entries in three numpy calls per vector.
    """
    rows = _transposed(band)
    b = len(rows) // 2
    size = rows.shape[1]
    padded = np.zeros(size + 4 * b, dtype=complex)
    window = np.ndarray(rows.shape, complex, padded,
                        strides=(2 * padded.itemsize, padded.itemsize))

    def matvec(vector):
        padded[2 * b:2 * b + size] = vector
        return (rows * window).sum(axis=0)

    return matvec


def _rk4_march(step, block, t, h, knots):
    """Advance `block` by RK4 steps of h, on the grid t + j h.

    Yields the block once it holds the states at each knot index j of the
    increasing `knots`: what the last step returned, the block it stepped.
    No step is ever cut short: a time between knots is reached from the
    knot below it (see `_driven_states`).
    """
    done = 0
    for knot in knots:
        for j in range(done, knot):
            block = step(block, t + j * h, h)
        done = knot
        yield block


def _normalize(block, times, n_atoms, dt):
    """Divide each column by its norm in place; drift beyond NORM_TOL raises."""
    norms = np.linalg.norm(block, axis=0)
    drift = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(drift <= NORM_TOL))  # NaN drift fails too
    if len(bad):
        raise IntegrationError(
            f"norm drift {drift[bad[0]]:g} exceeds tolerance {NORM_TOL:g} "
            f"at t = {times[bad[0]]:g} (N = {n_atoms}, step {dt:g}); "
            "tighten StepControl")
    block /= norms
    return block


def _grid_split(elapsed, step):
    """Whole grid steps k and remainder r of each elapsed time: elapsed = k step + r.

    The quotient may round one off either way; corrected, k step <= elapsed
    < (k+1) step holds as computed (for any k below 2**53), so r >= 0, and
    an elapsed time of exactly k step has r = 0. k is a float, so an absurd
    span makes it inf, not an overflow error.
    """
    with np.errstate(over="ignore"):
        k = np.floor(elapsed / step)
    k += (k + 1) * step <= elapsed
    k -= k * step > elapsed
    return k, elapsed - k * step


@lru_cache(maxsize=256)
def _band_estimate(spec, n_atoms, quarter_time):
    """An upper bound on the half-width b that a march over quarter_time
    reaches: the first multiple of EDGE_WIDEN (or N // 2) at or past the
    first k whose bound rho^k / k! exp(rho^2 / (k + 1)) is <= EDGE_TOL,
    rho = quarter_time chi max|U|, with U Jx^2's +2 band."""
    cap = n_atoms // 2
    upper = _bands(n_atoms)[3]
    rho = quarter_time * spec.chi * float(upper.max(initial=0.0))
    k = 0  # Python floats: an absurd rho makes inf or NaN, and takes the cap
    while k < cap and not (rho == 0.0 or k * math.log(rho) - math.lgamma(k + 1)
                           + rho * rho / (k + 1) <= math.log(EDGE_TOL)):
        k += 1
    return min(cap, -(-k // EDGE_WIDEN) * EDGE_WIDEN)


# _check_cost counts work in entry steps: one RK4 step over one stored
# entry, 0.016 us with one BLAS thread up to about 1e4 entries and up to
# 0.04 us past 1e5. A step also costs a fixed _STEP_ENTRIES, its 40-odd
# numpy calls: a one-column step took 19 us at N = 8 and 51 us at N = 2000.
# Building W_h and W_T, three band products, costs about b band steps
# (5-47% of a quarter march from N = 6 to 1000), and a jump or a sample's
# readout, one band product with one vector, about 1/8 of a band step
# (1/5 to 1/11 measured).
_STEP_ENTRIES = 1200

# Work budget of one driven run, in entry steps. It admits runs of a minute
# or two: scan-n's points at omega = 70 N chi under the default StepControl
# are estimated at about 7.7e6 (N = 512), 2.9e7 (1000) and 1.2e8 (2000).
_WORK_MAX = 1e9

# The quarter march keeps a checkpoint W(t_m) at every c-th knot, c set so
# that the checkpoints hold about max(CHECKPOINT_STATES, S) states of N+1
# entries for a run of S samples (`_check_cost`): 16.8 MB at
# N = 512, 32.8 MB at 1000 and 65.6 MB at 2000. c is 3 on the driven-curve
# problem (N = 100) and 1, every knot, at N <= 32. However many samples a
# run has, its checkpoints hold no more than about CHECKPOINT_BYTES_MAX
# bytes (8384 states at N = 2000); its samples' catch-up gets longer instead.
CHECKPOINT_STATES = 2048
CHECKPOINT_BYTES_MAX = 2 ** 28


def _check_cost(spec, n_atoms, last, quarter, samples=1, lead_in=False, built=False):
    """The pair (jumps, c): whether the run jumps its whole periods, and the
    stride c of its quarter march's checkpoints, given the grid step `last`
    of its last sample (q = `quarter` steps per quarter period), its number
    of `samples`, whether its start is off the multiples of T/2 (`lead_in`)
    and whether its W_h, W_T and checkpoints are held already (`built`).

    The run's work is estimated both ways, in entry steps, and it jumps if
    it spans a whole period and jumping is estimated cheaper. Without jumps
    it marches last + 1 steps on one column (to the last knot, and its
    partial step). With jumps, the lead-in from a start off the multiples
    of T/2 marches at most 2q - 1 steps on one column; stage 1, unless
    built, marches q steps in band storage on (2b+1)(N+1) entries, b from
    `_band_estimate`, which also bounds what it marches, and makes the
    products; then come one jump per whole period, one readout per sample
    and each sample's catch-up, at most c - 1 steps on one column for the
    checkpoint stride c = max(1, ceil(q (2b+1) / C)) of a run of S samples,
    C = max(CHECKPOINT_STATES, S) states, or those CHECKPOINT_BYTES_MAX
    holds if fewer: the checkpoints then hold at most about C (N+1)
    entries, and below that cap the catch-up steps no more entries than
    the march. c is a float, inf where q (2b+1) overflows one
    (such a run does not jump). A run whose work would exceed _WORK_MAX is
    refused, with its estimate. An absurd span makes the float `last` inf,
    which fails the budget.
    """
    b = _band_estimate(spec, n_atoms, math.pi / 2 / spec.drive.frequency_omega)
    quarter = float(quarter)  # float work: an absurd grid makes inf, not an error
    periods = np.floor(last / (4 * quarter))
    column = n_atoms + 1 + _STEP_ENTRIES
    band = (2 * b + 1) * (n_atoms + 1) + _STEP_ENTRIES
    plain = (last + 1) * column
    lead = 2 * quarter - 1 if lead_in else 0.0
    march, products = (0.0, 0.0) if built else (quarter, b)
    states = min(max(CHECKPOINT_STATES, samples), CHECKPOINT_BYTES_MAX // (16 * (n_atoms + 1)))
    stride = max(1.0, np.ceil(quarter * (2 * b + 1) / states))
    catch_up = samples * (stride - 1)
    jumping = ((lead + catch_up) * column + (march + products) * band
               + (periods + samples) * band / 8)
    jumps = bool(periods >= 1 and jumping < plain)
    if jumps:
        work, steps = jumping, lead + march + catch_up
    else:
        work, steps, periods = plain, last + 1, 0.0
    if not work <= _WORK_MAX:  # NaN and inf fail too
        raise ValidationError(
            f"driven run too costly: about {work:.3g} entry steps, for "
            f"{steps:.3g} RK4 steps and {periods:.3g} period jumps, over the "
            f"budget of {_WORK_MAX:.0e} (N = {n_atoms}, q = {quarter:g} steps "
            "per quarter period)")
    return jumps, stride


def _period_propagator(spec, n_atoms, period, quarter, stride):
    """Rotating-frame W_h over [0, T/2] and W_T over [0, T], checked, and the
    quarter march's checkpoints.

    All come in band storage, trimmed, from one march of `quarter` RK4
    steps over the first quarter period in band storage (`_band_stepper`),
    which gives W_q. With F the index reversal, F A(t) F = A(t + T/2) since
    theta(t + T/2) = -theta(t), so W_T = F W_h F W_h; and A(T/2 - t) = A(t)
    with A^T = F A F, so W_h = (F W_q F)^T W_q. The checkpoints are
    (marks, bands): W(t_m) at the knots m = 0, c, 2c, ... below q and at
    q, for the stride c that `_check_cost` priced. `_driven_states` builds
    this set once for a trajectory and reads every sample off it, with the
    same two symmetries: the first indexes every sample by its half period
    (from an odd multiple of T/2 the set is read as F W F), the second
    mirrors the second quarter onto the first.
    """
    h = period / 4 / quarter
    marks = np.append(np.arange(0, quarter, stride), quarter)
    bands = [_band_identity(n_atoms)]
    for block in _rk4_march(_band_stepper(spec, n_atoms), _band_identity(n_atoms),
                            0.0, h, marks[1:].tolist()):
        bands.append(_trimmed(block).copy())
    block = bands[-1]
    half = _band_product(_transposed(_reflected(block)), block)
    jump = _band_product(_reflected(half), half)
    # the largest entry of W^dag W - 1 also bounds each column's norm drift;
    # stage 2 renormalizes every period, so only this sees a non-unitary W
    gram = _band_product(_transposed(jump).conj(), jump)
    gram[len(gram) // 2] -= 1.0
    error = np.abs(gram).max()
    if not error <= NORM_TOL:  # NaN fails too
        raise IntegrationError(
            f"one-period propagator drift {error:g} exceeds tolerance "
            f"{NORM_TOL:g} at t = {period:g} (N = {n_atoms}, "
            f"step {h:g}); tighten StepControl")
    return half, jump, (marks, bands)


def _chain_columns(held, start, phi, jump, targets):
    """Columns v_n = W_T v_(n-1) of the period chain from v_0 = phi, one per
    n of the increasing `targets`, as (N+1, len(targets)).

    held["chain"] keeps columns of the chain, keyed by n, with the start
    (t_start, psi) they were chained from: a call from that start picks
    each column up from the nearest one at or below it, held or made for
    the target before, and a call from any other start begins a new chain
    there. Each step is one band product (`_band_matvec`) and one
    normalization, as from v_0, so a column has the same bits however far
    back it was picked up. Of each call's targets (a chunk of samples, or a
    refinement batch) the first and the last are kept: 141 columns
    (4.5 MB) for 4456 samples over 1114 periods at N = 2000, in chunks of
    32, where one a period would be 36 MB.
    """
    (t_from, psi), columns = held.get("chain", ((None, None), None))
    if not (t_from == start[0] and np.array_equal(psi, start[1])):
        columns = {0: phi}
        held["chain"] = ((start[0], start[1].copy()), columns)
    known = sorted(columns)
    period_jump = _band_matvec(jump)
    out = np.empty((len(phi), len(targets)), dtype=complex)
    n, vector = -1, None  # the last column made here
    for col, target in enumerate(targets):
        base = known[bisect.bisect_right(known, target) - 1]
        if base > n:
            n, vector = base, columns[base]
        for _ in range(target - n):
            vector = period_jump(vector)
            vector /= np.linalg.norm(vector)
        n = target
        out[:, col] = vector
        if col in (0, len(targets) - 1):
            columns[target] = vector
    return out


def _driven_states(spec, n_atoms, psi, t_start, times, control, jumps=None,
                   held=None, reduce=None):
    """Lab-frame states at `times` as rows (T, N+1), from the state row psi
    at t_start, or with a `reduce` what spin_core._chunked makes of them;
    times that break `_check_span` raise ValidationError.

    The rotating-frame generator A has period T = 2 pi / omega, and the
    index reversal F (k -> N - k) maps each half period onto the one before:
    A(t + T/2) = F A(t) F. Every march steps on one grid from t_start,
    h = (T/4) / control.quarter_steps = (T/4) / q, so T/4 and T/2 are the
    knots q and 2q. The run is planned once over all its samples: one rule
    (`_grid_split`) splits each sample's elapsed time t - t_start into
    whole grid steps K and a remainder rho in [0, h), and `_check_cost`
    decides from the last K and the sample count whether the run jumps,
    and at which checkpoint stride c, after refusing one whose estimated
    work exceeds the budget; `jumps` hands that one decision to the two
    parts of a run split below, and `held`, a dict (a fresh one for None),
    holds the trajectory's one set of W_h, W_T and checkpoints, built when
    a run first jumps, and its period chain, across its calls. Then the
    samples are read out in chunks (`spin_core._chunked`), in order.
    A run that does not jump marches its one start phi over the grid, and
    reads each sample out at its knot K, through the readout below as
    half period 0 with no sample mirrored; the march goes on from chunk to
    chunk. A run that jumps from a start off the multiples of T/2 first
    marches phi to the next one, t_half, as a run that does not jump (its
    samples before t_half are read off this lead-in, and handed to a
    `reduce` as one chunk), and goes on from t_half. A run that jumps from
    a multiple of T/2 divides each K by 2q into whole half periods k and a
    knot j < 2q, so the sample's phase is tau = j h + rho in [0, T/2). With
    W(tau) the propagator from t_start and W_h = W(T/2), half period k
    starts from r_k = (F W_h)^k phi in the reflected frame, and the sample
    is F^k W(tau) r_k. It is made in three stages:
    1. build W_h and W_T = F W_h F W_h in band storage from t = 0
       (`_period_propagator`), from a quarter period whose march keeps
       W(t_m) at every c-th knot m and at q, into `held` when the
       trajectory first jumps (after its lead-in, which marches first),
       at the stride c that run priced; they are read from `held` as
       they are from an even multiple of T/2, and reflected, F W F, from
       an odd one;
    2. for each chunk, take the even columns r_2n = v_n = W_T v_(n-1) that
       its samples need off the held chain (`_chain_columns`), and make
       the odd ones r_(2n+1) = F W_h v_n from them in one batched product
       (`_band_apply`);
    3. read each sample out at the largest checkpoint m at or below its
       stop, one band product per checkpoint over the chunk's samples:
       W(t_m) r_k for j <= q (stop j); for j > q (stop 2q - j),
       W(t_m) conj(r_(k+1)), since A(T/2 - t) = A(t) and A^T = F A F give
       W(t_j) = F conj(W(t_(2q-j))) F W_h. A sample with odd k is
       reversed once at the end.
    Then every sample takes its whole steps from m to its stop, fewer than
    c, a mirrored one is mapped to knot j by F conj, and every sample takes
    one RK4 step of rho < h from its knot's time. RK4 is not symmetric in
    time, so a mirrored sample catches up before the mirror, not after it:
    so it is the every-knot readout's state to rounding (from after, up to
    6e-12 apart at N = 40). The steps are batched, a drive phase per
    column, in chunks of 4096 // (N+1) columns (at least one), so at small
    N one chunk takes a whole sweep point. Each column steps on its own,
    so the batching moves no bit.
    Drift beyond NORM_TOL since the last renormalized state raises
    IntegrationError: a state read out at a knot or a checkpoint is
    renormalized (the marched start with it), and so is each sample after
    its last step.
    """
    times = _check_span(t_start, times)  # _check_cost reads the last time
    if not len(times):
        return spin_core._chunked(0, n_atoms, None, reduce)
    omega = spec.drive.frequency_omega
    r = spec.drive.ratio
    mz = _jz_diagonal(n_atoms)
    period = 2 * math.pi / omega
    quarter = (control or StepControl()).quarter_steps(spec, n_atoms)
    h = period / 4 / quarter
    held = {} if held is None else held
    knot, partial = _grid_split(times - t_start, h)
    halves, offset = _grid_split(np.array([t_start]), period / 2)
    if jumps is None:
        jumps, stride = _check_cost(spec, n_atoms, knot[-1], quarter, len(times),
                                    offset[0] > 0.0, "set" in held)
    phi = np.exp(1j * (r * math.sin(omega * t_start)) * mz) * psi
    knot = knot.astype(int)
    lead_in = jumps and offset[0] > 0.0
    if lead_in:  # one column marched to t_half, the next multiple of T/2
        t_half = (halves[0] + 1) * (period / 2)
        lead = times < t_half
        head = _driven_states(spec, n_atoms, psi, t_start,
                              np.append(times[lead], t_half), control, False)
    if jumps and "set" not in held:  # the trajectory's one set, at the stride priced
        held["set"] = _period_propagator(spec, n_atoms, period, quarter, int(stride))
    if lead_in:  # then on from t_half, as this run decided
        rest = _driven_states(spec, n_atoms, head[-1], t_half, times[~lead],
                              control, True, held, reduce)
        if reduce is None:
            return np.vstack([head[:-1], rest])
        first = reduce(head[:-1])
        return tuple(np.concatenate(pair) for pair in zip(first, rest))
    if jumps:
        # half period k and knot j < 2q; a mirrored sample (j > q) stops at
        # knot 2q - j
        count, knot = np.divmod(knot, 2 * quarter)
        mirror = knot > quarter
        stop = np.where(mirror, 2 * quarter - knot, knot)
        half, jump, (marks, bands) = held["set"]
        if halves[0] % 2 == 1:  # from an odd multiple of T/2: F W F
            half, jump, bands = _reflected(half), _reflected(jump), [*map(_reflected, bands)]
        # each sample is read out at the largest checkpoint m <= its stop
        slot = np.searchsorted(marks, stop, side="right") - 1
        reached = marks[slot]
    else:  # the one start is marched itself, in half period 0, none mirrored
        slot = reached = stop = knot
        count = np.zeros(len(times), dtype=int)
        mirror = np.zeros(len(times), dtype=bool)
        march = _rk4_march(_rk4_stepper(spec, n_atoms, 1), phi[:, None], t_start, h,
                           np.unique(knot[knot > 0]).tolist())
        at_knot, marched = 0, None  # the knot the march holds, and its state
    width = max(1, min(len(times), _CHUNK_ENTRIES // (n_atoms + 1)))

    def read(lo, hi):  # the rows of samples lo:hi
        nonlocal at_knot, marched
        when, rho, k, j, flip = (times[lo:hi], partial[lo:hi], count[lo:hi], knot[lo:hi],
                                 mirror[lo:hi])
        at, base, ahead = slot[lo:hi], reached[lo:hi], stop[lo:hi] - reached[lo:hi]
        if jumps:  # columns r_(k+m): r_2n = v_n off the chain, r_(2n+1) = F W_h v_n
            needed, cols = np.unique(k + flip, return_inverse=True)
            starts = _chain_columns(held, (t_start, psi), phi, jump, (needed // 2).tolist())
            odd = needed % 2 == 1
            later = _band_apply(half, starts[:, odd])[::-1]
            starts[:, odd] = later / np.linalg.norm(later, axis=0)
        else:
            starts, cols = phi[:, None], np.zeros(hi - lo, dtype=int)
        states = starts[:, cols]  # a copy; right already at slot 0
        # each sample's readout source: r_k, or conj(r_(k+1)) if mirrored
        states[:, flip] = states[:, flip].conj()
        # samples grouped by slot: sorted order, cut where each slot > 0 begins
        order = np.argsort(at, kind="stable")
        rises = np.flatnonzero(np.diff(at[order], prepend=0))
        bounds = [*rises.tolist(), len(order)]
        for first, end, group in zip(bounds, bounds[1:], at[order][rises].tolist()):
            hit = order[first:end]
            if jumps:  # W(t_m) r_k; if mirrored, W(t_m) conj(r_(k+1))
                states[:, hit] = _normalize(_band_apply(bands[group], states[:, hit]),
                                            when[hit] - rho[hit], n_atoms, h)
                continue
            if group != at_knot:  # the march's next knot, renormalized once
                at_knot, marched = group, _normalize(next(march), when[hit] - rho[hit],
                                                     n_atoms, h)
            states[:, hit] = marched
        # the catch-up: columns batched in chunks on work arrays of their own
        # (made once the readout's are freed), each at its own drive phase
        step = _rk4_stepper(spec, n_atoms, width)

        def step_columns(moving, t, dt):  # one RK4 step of each column in `moving`
            for first in range(0, len(moving), width):
                hit = moving[first:first + width]
                states[:, hit] = step(states[:, hit], t[first:first + width],
                                      dt[first:first + width])

        for done in range(int(ahead.max())):  # whole steps from the checkpoint to the stop
            moving = np.flatnonzero(ahead > done)
            step_columns(moving, t_start + (base[moving] + done) * h, np.full(len(moving), h))
        # mirrored: W(t_j) r_k = F conj(W(t_(2q-j)) conj(r_(k+1)))
        states[:, flip] = states[::-1, flip].conj()
        off_knot = np.flatnonzero(rho > 0)
        step_columns(off_knot, t_start + j[off_knot] * h, rho[off_knot])
        moved = np.flatnonzero((ahead > 0) | (rho > 0))
        states[:, moved] = _normalize(states[:, moved], when[moved], n_atoms, h)
        odd = k % 2 == 1  # F^k W(tau) r_k
        states[:, odd] = states[::-1, odd]
        return np.exp(np.multiply.outer(-1j * (r * np.sin(omega * when)), mz)) * states.T

    return spin_core._chunked(len(times), n_atoms, read, reduce)


def propagate_driven(spec, initial, times, control=None, reduce=None):
    """Integrate the time-dependent driven Hamiltonian with fixed-step RK4.

    States are renormalized at each sample point; drift beyond NORM_TOL
    since the previous renormalized state is a failure. The trajectory's
    `advance` is `_driven_states` under the same `control`, which makes its
    rows from t = 0; every call of it shares the one set of W_h, W_T and
    checkpoints that its first jumping call builds, at the stride that
    call priced, so a refinement batch builds none, and the period chain's
    held columns (`_chain_columns`), which a batch picks its columns up
    from. With a `reduce`, the run keeps no rows and is a ReducedRun.
    """
    if not isinstance(spec, FullDriven):
        raise ValidationError("propagate_driven requires a FullDriven spec")
    if not isinstance(initial, DickeState):
        raise ValidationError("propagate_driven expects a DickeState")
    times = _check_times(times)
    advance = partial(_driven_states, spec, initial.n_atoms, control=control, held={})
    return _run(advance, initial, times, reduce)


def driven_state_at(spec, initial, t_start, t_end, control=None):
    """Single lab-frame state at t_end, starting from `initial` at t_start.

    The drive phase is tied to absolute time, so this is exactly the segment
    [t_start, t_end] of the full evolution: the one row that a driven
    trajectory's `advance` gives from `initial.amplitudes` at t_start, bit
    for bit, since both build W_h, W_T and the checkpoints from t = 0
    (`_period_propagator`) and read them reflected from an odd multiple of
    T/2.
    """
    if not isinstance(spec, FullDriven):
        raise ValidationError("driven_state_at requires a FullDriven spec")
    if not isinstance(initial, DickeState):
        raise ValidationError("driven_state_at expects a DickeState")
    times = _check_span(t_start, [t_end])
    if t_end == t_start:
        return initial
    lab, = _driven_states(spec, initial.n_atoms, initial.amplitudes, t_start,
                          times, control)
    return DickeState(initial.n_atoms, lab)
