"""State propagation: exact for constant Hamiltonians, RK4 for the driven one.

A constant Hamiltonian is eigendecomposed once. A static spec's H never
couples even to odd indices, so it splits into two index-parity blocks,
real symmetric tridiagonal, which come straight from its quadratic form's
bands: no dense (N+1)^2 operator is built for it. A dense Hermitian
operator is decomposed whole, by one complex eigh, an independent dense
reference for the banded route.

The driven integrator works in the exact rotating frame of the drive term:
psi(t) = exp(-i theta(t) Jz) phi(t) with theta(t) = (g/omega) sin(omega t),
so the stiff diagonal piece is handled analytically and RK4 only has to
track the co-rotated twisting term. That term has the drive's period
T = 2 pi / omega, so a run spanning many periods builds one period's
propagator W_T once and jumps from period to period by matvecs. Every
march steps on one fixed grid, h = (T/4) / StepControl.quarter_steps: each
sample's time from the start is whole grid steps, to its knot t_k, plus a
remainder below h. One march of the identity (giving W(t_k), applied to
each sample's start column) reaches every knot; all samples then take
their remainders together as one batched RK4 step. The index reversal F
(k -> N - k; exp(-i pi Jx) = (-i)^N F) keeps Jx^2, flips Jz, and maps the
drive's second half period onto its first: A(t + T/2) = F A(t) F for the
co-rotated generator A. So W_T = F W_h F W_h from half a period's W_h.
A jumping run starts on a multiple of T/2: one from any other start
first marches its one state there, a lead-in of less than half a period.
From there A is also mirror-symmetric about the quarter period and
A^T = F A F, so W_h = (F W_q F)^T W_q from a quarter period's W_q. A
sample's grid steps, over the 2q of a half period, give its half period k
and phase tau < T/2: it is F^k W(tau) r_k, r_k = (F W_h)^k applied to the
start. The identity march mirrors the second quarter onto the first,
since W(T/2 - tau) = F conj(W(tau)) F W_h, so it ends at T/4. A run
spanning too few periods makes no jump: its samples are all phases of
period 0, and the march carries the one start itself. A run whose
estimated work is over budget is refused before any step. States are
mapped back to the lab frame at every sample point, so trajectories
always contain genuine psi(t).
"""

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import spin_core
from .errors import IntegrationError, ValidationError
from .hamiltonians import FullDriven, HamiltonianSpec
from .spin_core import (CollectiveOperator, DickeState, _bands, _frozen,
                        _jz_diagonal, _quadratic_bands, _unit_rows)

NORM_TOL = 1e-8  # driven RK4 norm drift allowed between renormalizations

# The driven RK4 grid resolves the drive (QUARTER_STEPS per quarter period)
# and the co-rotated twisting (steps of at most TWIST_STEP_SCALE / (chi
# J(J+1)), binding at large N); halving its step moves xi^2 by < 1e-6.
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
        """RK4 steps per quarter drive period, the one place the grid is set;
        a twisting step that is not > 0 (chi J(J+1) overflows), or a period
        whose step count (4 quarters) is not a finite float, raises
        ValidationError."""
        j = n_atoms / 2
        period = 2 * math.pi / spec.drive.frequency_omega
        twist = TWIST_STEP_SCALE / self.factor / (spec.chi * j * (j + 1))
        if not twist > 0:
            raise ValidationError(
                f"chi={spec.chi!r} leaves no RK4 twisting step at N = {n_atoms}")
        ratio = period / 4 / twist
        if not math.isfinite(4 * ratio):
            raise ValidationError(
                f"drive period {period:g} is too long for the RK4 step grid "
                f"(twisting step {twist:g})")
        return max(QUARTER_STEPS * self.factor, math.ceil(ratio))


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


def _band_blocks(spec, n_atoms):
    """(rows, evals, evecs) for each index-parity block of a static spec's
    H, with no dense (N+1)^2 operator.

    A quadratic form in J has only the main and +-2 diagonals, so it never
    couples even to odd indices: parity block p is real symmetric
    tridiagonal, with diagonal diag[p::2] and off-diagonal upper[p::2].
    """
    diag, upper = _quadratic_bands(n_atoms, spec.chi, spec.weights)
    blocks = []
    for parity in (0, 1):
        size = len(diag[parity::2])
        block = np.zeros((size, size))
        block.flat[::size + 1] = diag[parity::2]
        block.flat[1::size + 1] = block.flat[size::size + 1] = upper[parity::2]
        blocks.append((slice(parity, None, 2), *np.linalg.eigh(block)))
    return blocks


def _apply(matrix, vectors):
    """matrix @ vectors for complex column vectors (d, T).

    A real matrix acts on the (d, 2T) float view, one real product.
    """
    vectors = np.ascontiguousarray(vectors)
    if np.isrealobj(matrix):
        return (matrix @ vectors.view(float)).view(complex)
    return matrix @ vectors


def _static_states(blocks, psi, t_from, times):
    """Rows exp(-i H dt)|psi> for each dt = t - t_from of `times`, as
    V exp(-i Lambda dt) V^dag |psi>, with psi the state at t_from.

    Two products per block make every row. Times that break `_check_span`,
    or a span whose largest phase |lambda| (t - t_from) is not a finite
    float, raise ValidationError, and a row whose norm drifts beyond
    spin_core.NORM_TOL (NaN too) IntegrationError.
    """
    times = _check_span(t_from, times)
    if len(times):  # eigh sorts each block's evals: the largest |lambda| is an end one
        top = float(max(max(-evals[0], evals[-1]) for _, evals, _ in blocks))
        # Python floats overflow to inf without a numpy warning
        if not math.isfinite(top * (float(times[-1]) - float(t_from))):
            raise ValidationError(
                f"the phase exp(-i lambda t) overflows at t = {times[-1]:g} "
                f"from t = {t_from:g} (largest |lambda| {top:g})")
    out = np.empty((len(times), len(psi)), dtype=complex)
    for rows, evals, evecs in blocks:
        coeffs = _apply(evecs.conj().T, psi[rows, None])
        phased = np.exp(np.multiply.outer(-1j * evals, np.subtract(times, t_from))) * coeffs
        out[:, rows] = _apply(evecs, phased).T
    norms = np.linalg.norm(out, axis=1)
    drift = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(drift <= spin_core.NORM_TOL))
    if len(bad):
        raise IntegrationError(f"static propagation lost norm: drift {drift[bad[0]]:g}")
    out /= norms[:, None]
    return out


def propagate_static(hamiltonian, initial, times):
    """Exact evolution under a constant Hamiltonian via one eigendecomposition.

    `hamiltonian` is a static HamiltonianSpec, decomposed on its parity
    blocks from its bands (`_band_blocks`), or a Hermitian
    CollectiveOperator, decomposed whole as one complex block. The
    trajectory's `advance` is `_static_states` on those blocks, which makes
    its rows from t = 0.
    """
    times = _check_times(times)
    if not isinstance(initial, DickeState):
        raise ValidationError("propagate_static expects a DickeState")
    if isinstance(hamiltonian, FullDriven):
        raise ValidationError("a FullDriven spec needs propagate_driven")
    if isinstance(hamiltonian, HamiltonianSpec):
        blocks = _band_blocks(hamiltonian, initial.n_atoms)
    else:
        if not isinstance(hamiltonian, CollectiveOperator):
            raise ValidationError(
                "hamiltonian must be a static HamiltonianSpec or a CollectiveOperator")
        if hamiltonian.n_atoms != initial.n_atoms:
            raise ValidationError("Hamiltonian and initial state disagree on N")
        if not hamiltonian.is_hermitian():
            raise ValidationError("static propagation requires a Hermitian Hamiltonian")
        blocks = [(slice(None), *np.linalg.eigh(hamiltonian.matrix))]
    advance = partial(_static_states, blocks)
    return Trajectory(times, advance(initial.amplitudes, 0.0, times), advance)


def _rk4_stepper(spec, n_atoms, width):
    """step(block, t, dt): one RK4 step of rotating-frame states, in place.

    `block` holds the states as the columns of (N+1, C), C <= width. t and
    dt are scalars, or arrays with one value per column: then each column
    steps from its own time, at its own drive phase, by its own dt.
    Jx^2 is real with only the 0 and +-2 diagonals, and m falls by one per
    index, so co-rotating multiplies its upper band by exp(2i theta) and its
    lower band by the conjugate. The four work arrays are allocated here,
    once. A step with scalar t allocates nothing of the block's size; with
    one t per column it builds each band's per-column coefficients, at most
    4096 entries in a partial-step chunk (`_CHUNK_ENTRIES`) below N = 4096.
    """
    diag, upper = _bands(n_atoms)[2:4]  # Jx^2's diagonal and +2 band
    diag = -1j * spec.chi * diag[:, None]
    band = -1j * spec.chi * upper[:, None]
    omega = spec.drive.frequency_omega
    r = spec.drive.ratio
    work = np.empty((4, n_atoms + 1, width), dtype=complex)
    whole = tuple(work)

    def deriv(t, src, k, tmp):  # k = A(t) src
        if isinstance(t, np.ndarray):  # one phase per column, each the scalar's bits
            phase = np.array([cmath.exp(2j * r * math.sin(omega * x))
                              for x in t.tolist()])
        else:
            phase = cmath.exp(2j * r * math.sin(omega * t))
        np.multiply(diag, src, out=k)
        np.multiply(phase * band, src[2:], out=tmp[:-2])
        k[:-2] += tmp[:-2]
        np.multiply(phase.conjugate() * band, src[:-2], out=tmp[2:])
        k[2:] += tmp[2:]

    def step(block, t, dt):
        # block += dt/3 (k1/2 + k2 + k3 + k4/2)
        cols = block.shape[1]
        k, y, acc, tmp = whole if cols == width else work[:, :, :cols]
        deriv(t, block, k, tmp)
        np.multiply(k, 0.5, out=acc)
        for frac in (0.5, 0.5, 1.0):
            np.multiply(k, frac * dt, out=y)
            y += block
            deriv(t + frac * dt, y, k, tmp)
            if frac == 1.0:
                k *= 0.5
            acc += k
        acc *= dt / 3
        block += acc

    return step


def _rk4_march(step, block, t, h, knots):
    """Advance `block` in place by RK4 steps of h, on the grid t + j h.

    Yields once `block` holds the states at each knot index j of the
    increasing `knots`. No step is ever cut short: a time between knots is
    reached from the knot below it (see `_driven_states`).
    """
    done = 0
    for knot in knots:
        for j in range(done, knot):
            step(block, t + j * h, h)
        done = knot
        yield


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


# Stage 1 marches q RK4 steps on (N+2)//2 columns and stage 3 up to q more;
# the plain march takes 4q one-column steps a period. With one BLAS thread a
# one-column step costs 30-90 us and a block step 40-90 us (N <= 32), 0.2 ms
# (N = 100), 1.2 ms (256) and 8-9 ms (512). One driven_state_at call at
# omega = 70 N chi (CPU, best of 2-3, noisy to about 1.5x) broke even with
# jumps at P whole periods, against 1 + ((N+1)/75)^2:
#   N                          8-32     64   100  160      256    512
#   from t = 0 over P + 1/4    0.6-0.8  1.8  3.0  3.9-6.8  16-20  92-98
#   from 0.37 T over P + 1/2   0.5-0.7  1.0  1.8  4.4      16     90
#   1 + ((N+1)/75)^2           1.0-1.2  1.8  2.8  5.6      12.7   48
# It is within noise up to N = 256 and jumps early at N = 512, where block
# steps are slow.
def _jumps_pay(n_atoms, periods):
    return periods >= 1 + ((n_atoms + 1) / 75) ** 2


# Work budget of one driven run, in column steps: one RK4 grid step on one
# state column, or one period jump (a matvec on one period start). Timed
# with one thread, a column step costs 4 us inside a 51-column block
# (N = 100), 34 us in a 257-column one (N = 512), 210 us in a 1001-column
# one (N = 2000) and 50-120 us alone; a jump 16 us (N = 10) to 5 ms
# (N = 2000). So the budget admits runs of a minute or two: at omega =
# 70 N chi under the default StepControl, N = 1000 (about 3.8e5) but not
# N = 2000 (1.5e6).
_WORK_MAX = 1e6


def _check_cost(n_atoms, last, quarter):
    """Whether the run jumps its whole periods (`_jumps_pay`), given the grid
    step `last` of its last sample (q = `quarter` steps per quarter period).

    A run whose work would exceed _WORK_MAX is refused first, with its
    estimate in grid steps, which bounds what `_driven_states` marches: with
    jumps, 2q steps on (N+2)//2 + 1 columns (a lead-in of at most 2q - 1
    steps on one column to the first multiple of T/2, and stage 1's and
    stage 3's quarter periods on (N+2)//2) and one jump per whole period
    (stage 2), the lead-in's spare step paying for the jump past the last
    period that a mirrored sample may take; without, last + 1 steps on one
    column (to the last knot, and its partial step). An absurd span makes
    the float `last` inf, which fails the budget.
    """
    periods = np.floor(last / (4 * quarter))
    jumps = _jumps_pay(n_atoms, periods)
    if jumps:
        steps, width = 2.0 * quarter, (n_atoms + 2) // 2 + 1
    else:
        steps, width, periods = last + 1, 1, 0.0
    if not steps * width + periods <= _WORK_MAX:  # NaN and inf fail too
        raise ValidationError(
            f"driven run too costly: about {steps:.3g} RK4 steps on {width} "
            f"columns and {periods:.3g} period jumps, over the budget of "
            f"{_WORK_MAX:.0e} column steps (N = {n_atoms}, q = {quarter:g} steps "
            "per quarter period)")
    return jumps


def _parity_identity(n_atoms):
    """Identity on both index parities as one (N+1, (N+2)//2) block.

    Jx^2 couples index k only to k +- 2, so the propagator W is zero between
    even and odd indices. The column started at e_2j + e_2j+1 carries W e_2j
    on its even rows and W e_2j+1 on its odd ones; `_parity_blocks` reads
    the two blocks back out of the marched block.
    """
    dim = n_atoms + 1
    idx = np.arange(dim)
    block = np.zeros((dim, (dim + 1) // 2), dtype=complex)
    block[idx, idx // 2] = 1.0
    return block


def _parity_blocks(block):
    """(W_even, W_odd) from a block marched from `_parity_identity`."""
    return block[0::2], block[1::2, :len(block) // 2]


def _reflected(blocks, n_atoms):
    """F W F as parity blocks, for W given as its parity blocks.

    F reverses the Dicke index, k -> N - k. It keeps each parity block when
    N is even and swaps the two when N is odd, reversing both ways.
    """
    if n_atoms % 2:
        blocks = blocks[::-1]
    return [w[::-1, ::-1] for w in blocks]


def _apply_blocks(blocks, vectors):
    """W @ vectors for (N+1,) or (N+1, C) vectors, W given as its parity blocks.

    einsum, not @, for CPU time: with default threads `@` is faster per
    product (0.04 ms against 0.52 ms for one 51 x 51 complex product), but
    its spinning OpenBLAS threads raised the driven-curve bench's cpu_s
    from about 0.44 s to 0.53 s with no gain in wall time.
    """
    out = np.empty_like(vectors)
    for parity, w in enumerate(blocks):
        out[parity::2] = np.einsum("ij,j...->i...", w, vectors[parity::2])
    return out


def _period_propagator(spec, n_atoms, t_start, period, quarter):
    """Rotating-frame W_h over [s, s + T/2] and W_T over [s, s + T], checked.

    The start s is a multiple of T/2. Both come as their parity blocks
    (`_parity_blocks`), from one march of `quarter` RK4 steps over the
    quarter period, which gives W_q. With F the index reversal,
    F A(t) F = A(t + T/2) since theta(t + T/2) = -theta(t), so
    W_T = F W_h F W_h; and A(s + T/2 - t) = A(s + t) with A^T = F A F, so
    W_h = (F W_q F)^T W_q. Stage 3 of `_driven_states` uses the same two
    symmetries: the first to index every sample by its half period, the
    second to mirror the second quarter onto the first.
    """
    h = period / 4 / quarter
    block = _parity_identity(n_atoms)
    step = _rk4_stepper(spec, n_atoms, block.shape[1])
    for _ in _rk4_march(step, block, t_start, h, [quarter]):
        pass
    blocks = _parity_blocks(block)
    half = [np.einsum("ji,jk->ik", f, w)
            for f, w in zip(_reflected(blocks, n_atoms), blocks)]
    jump = [np.einsum("ij,jk->ik", f, w)
            for f, w in zip(_reflected(half, n_atoms), half)]
    # the largest entry of W^dag W - 1 also bounds each column's norm drift;
    # stage 2 renormalizes every period, so only this sees a non-unitary W
    # (einsum, not @, for CPU time: see _apply_blocks)
    error = max(np.max(np.abs(np.einsum("ij,ik->jk", w.conj(), w) - np.eye(len(w))))
                for w in jump)
    if not error <= NORM_TOL:  # NaN fails too
        raise IntegrationError(
            f"one-period propagator drift {error:g} exceeds tolerance "
            f"{NORM_TOL:g} at t = {t_start + period:g} (N = {n_atoms}, "
            f"step {h:g}); tighten StepControl")
    return half, jump


# Batched partial steps take up to this many entries (64 KB of complex) per
# work array, so 4096 // (N+1) columns and at least one: a small-N sweep
# point's ~200 off-knot samples take one step, not dozens.
_CHUNK_ENTRIES = 4096


def _driven_states(spec, n_atoms, psi, t_start, times, control, jumps=None):
    """Lab-frame states at `times` as rows (T, N+1), from the state row psi
    at t_start; times that break `_check_span` raise ValidationError.

    The rotating-frame generator A has period T = 2 pi / omega, and the
    index reversal F (k -> N - k) maps each half period onto the one before:
    A(t + T/2) = F A(t) F. Every march steps on one grid from t_start,
    h = (T/4) / control.quarter_steps = (T/4) / q, so T/4 and T/2 are the
    knots q and 2q. One rule (`_grid_split`) splits each sample's elapsed
    time t - t_start once into whole grid steps K and a remainder
    rho in [0, h). `_check_cost` decides from the last K whether the run
    jumps, after refusing one whose estimated work exceeds the budget;
    `jumps` hands that one decision to the two parts of a run split below.
    A run that does not jump marches its one start phi over the grid, and
    reads each sample out at its knot K. A run that jumps from a start off
    the multiples of T/2 first marches phi to the next one, t_half, as a
    run that does not jump (its samples before t_half are read off this
    lead-in), and goes on from t_half. A run that jumps from a multiple of
    T/2 divides each K by 2q into whole half periods k and a knot j < 2q,
    so the sample's phase is tau = j h + rho in [0, T/2). With W(tau) the
    propagator from t_start and W_h = W(T/2), half period k starts from
    r_k = (F W_h)^k phi in the reflected frame, and the sample is
    F^k W(tau) r_k. It is made in three stages:
    1. build W_h and W_T = F W_h F W_h once (`_period_propagator`), from a
       quarter period;
    2. reach each even column r_2n = v_n = W_T v_(n-1) by one matvec, keep
       those that samples need, and make the odd ones r_(2n+1) = F W_h v_n
       from them in one batched product;
    3. march the (N+2)//2-column identity (`_parity_identity`), which gives
       W(t_j), over the grid to T/4 in one pass, and read each sample out at
       its knot t_j = j h. A(T/2 - t) = A(t) and
       A^T = F A F give W(t_j) = F conj(W(t_(2q-j))) F W_h, so a sample
       reads column r_(k+m), m = 1 if j > q: W(t_j) r_k, or
       F conj(W(t_(2q-j)) conj(r_(k+1))) mirrored. A sample with odd k is
       reversed once at the end.
    Then every sample off its knot takes one RK4 step of rho < h from its
    knot's time, all of them batched in chunks of 4096 // (N+1) columns
    (at least one), so at small N one chunk takes a whole sweep point.
    Each column steps on its own, so the chunking moves no bit.
    Drift beyond NORM_TOL since the last renormalized state raises
    IntegrationError: a state read out at a knot is renormalized (the
    marched start with it), and so is each sample after its partial step.
    """
    times = _check_span(t_start, times)  # _check_cost reads the last time
    if not len(times):
        return np.empty((0, n_atoms + 1), dtype=complex)
    omega = spec.drive.frequency_omega
    r = spec.drive.ratio
    mz = _jz_diagonal(n_atoms)
    period = 2 * math.pi / omega
    quarter = (control or StepControl()).quarter_steps(spec, n_atoms)
    h = period / 4 / quarter
    knot, partial = _grid_split(times - t_start, h)
    if jumps is None:
        jumps = _check_cost(n_atoms, knot[-1], quarter)
    phi = np.exp(1j * (r * math.sin(omega * t_start)) * mz) * psi
    knot = knot.astype(int)
    if jumps:
        halves, offset = _grid_split(np.array([t_start]), period / 2)
        if offset[0] > 0.0:  # the lead-in, then on from t_half
            t_half = (halves[0] + 1) * (period / 2)
            lead = times < t_half
            head = _driven_states(spec, n_atoms, psi, t_start,
                                  np.append(times[lead], t_half), control, False)
            rest = _driven_states(spec, n_atoms, head[-1], t_half, times[~lead],
                                  control, True)
            return np.vstack([head[:-1], rest])
        # half period k and knot j < 2q; a mirrored sample at knot j is read
        # out at 2q - j, never 0
        count, knot = np.divmod(knot, 2 * quarter)
        mirror = knot > quarter
        stop = np.where(mirror, 2 * quarter - knot, knot)
        half, jump = _period_propagator(spec, n_atoms, t_start, period, quarter)
        # columns r_(k+m): r_2n = v_n off the chain, r_(2n+1) = F W_h v_n
        needed, cols = np.unique(count + mirror, return_inverse=True)
        starts = np.empty((n_atoms + 1, len(needed)), dtype=complex)
        n = 0  # phi holds v_n
        for col, target in enumerate((needed // 2).tolist()):
            for _ in range(target - n):
                phi = _apply_blocks(jump, phi)
                phi /= np.linalg.norm(phi)
            n = target
            starts[:, col] = phi
        odd = needed % 2 == 1
        later = _apply_blocks(half, starts[:, odd])[::-1]
        starts[:, odd] = later / np.linalg.norm(later, axis=0)
        block = _parity_identity(n_atoms)
    else:  # the one start is marched itself
        stop = knot
        starts = block = phi[:, None]
        cols = np.zeros(len(times), dtype=int)
    states = starts[:, cols]  # a copy; right already at knot 0
    # samples grouped by knot: sorted order, cut where each knot > 0 begins
    order = np.argsort(stop, kind="stable")
    rises = np.flatnonzero(np.diff(stop[order], prepend=0))
    step = _rk4_stepper(spec, n_atoms, block.shape[1])
    marching = _rk4_march(step, block, t_start, h, stop[order][rises].tolist())
    bounds = [*rises.tolist(), len(order)]
    for lo, hi, _ in zip(bounds, bounds[1:], marching):
        hit = order[lo:hi]
        if jumps:  # W(t_j) r_k; if mirrored, F conj(W(t_(2q-j)) conj(r_(k+1)))
            flip = mirror[hit]
            source = starts[:, cols[hit]]
            source[:, flip] = source[:, flip].conj()
            reached = _apply_blocks(_parity_blocks(block), source)
            reached[:, flip] = reached[::-1, flip].conj()
        else:
            reached = block
        states[:, hit] = _normalize(reached, times[hit] - partial[hit], n_atoms, h)
    # the partial steps, batched in chunks on work arrays of their own
    off_knot = np.flatnonzero(partial > 0)
    width = max(1, min(len(off_knot), _CHUNK_ENTRIES // (n_atoms + 1)))
    step = _rk4_stepper(spec, n_atoms, width)
    for lo in range(0, len(off_knot), width):
        hit = off_knot[lo:lo + width]
        chunk = states[:, hit]
        step(chunk, t_start + knot[hit] * h, partial[hit])
        states[:, hit] = _normalize(chunk, times[hit], n_atoms, h)
    if jumps:  # F^k W(tau) r_k
        odd = count % 2 == 1
        states[:, odd] = states[::-1, odd]
    return np.exp(np.multiply.outer(-1j * (r * np.sin(omega * times)), mz)) * states.T


def propagate_driven(spec, initial, times, control=None):
    """Integrate the time-dependent driven Hamiltonian with fixed-step RK4.

    States are renormalized at each sample point; drift beyond NORM_TOL
    since the previous renormalized state is a failure. The trajectory's
    `advance` is `_driven_states` under the same `control`, which makes its
    rows from t = 0.
    """
    if not isinstance(spec, FullDriven):
        raise ValidationError("propagate_driven requires a FullDriven spec")
    if not isinstance(initial, DickeState):
        raise ValidationError("propagate_driven expects a DickeState")
    times = _check_times(times)
    advance = partial(_driven_states, spec, initial.n_atoms, control=control)
    return Trajectory(times, advance(initial.amplitudes, 0.0, times), advance)


def driven_state_at(spec, initial, t_start, t_end, control=None):
    """Single lab-frame state at t_end, starting from `initial` at t_start.

    The drive phase is tied to absolute time, so this is exactly the segment
    [t_start, t_end] of the full evolution: the one row that a driven
    trajectory's `advance` gives from `initial.amplitudes` at t_start.
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
