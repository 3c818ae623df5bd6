"""Kitagawa-Ueda squeezing parameter and its optimum along a trajectory.

xi_s^2 = 4 min Var(J_n) / N, minimized over directions n perpendicular to
the mean spin. The 2x2 transverse covariance matrix gives the minimum in
closed form; the minimizing direction comes from its eigenvector.

Six band sums of |psi|^2 and the bands of J (`spin_core._bands`) hold the
mean spin and every second moment: each is an O(N) reduction, made for a
chunk of rows at once (`spin_core._chunked`), which is how the sweeps
reduce a run's rows without holding them. The covariance is read from
them in the frame of the mean spin's own polar angles, with no 3-vector
frame built.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .evolve import ReducedRun
from .spin_core import DickeState, _bands, _chunked, _jz_diagonal

# Below this fraction of the maximal spin length J the mean-spin direction
# is numerically meaningless (over-squeezed regime); results get flagged
# instead of raising because optima always occur well before this point.
DEGENERATE_SPIN_FRACTION = 1e-6

REFINE_TIME_TOL = 1e-4  # golden-section search stops at this bracket width

# Golden-section updates whose possible new points each refinement batch
# evaluates along with the one needed now: 2^(LOOKAHEAD+1) - 1 points per
# `advance` call. Median sweep time in-process (2-vCPU Xeon VM, the bench's
# eight pool values, six to ten rounds), relative to LOOKAHEAD = 3:
#   points a call        1      3      7     15     31     63
#   driven-scan-n      1.72   1.25   1.06   1.00   1.04   0.98
#   driven-ratio       1.39   1.11   1.02   1.00   0.96   1.04
# and static-scan-n within 0.97-1.03 at every depth.
LOOKAHEAD = 3

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class SqueezingRecord:
    time: float
    xi_squared: float
    mean_spin: np.ndarray
    mean_spin_length: float
    optimal_angle: float  # in [0, pi), within the transverse n1-n2 frame
    degenerate_flag: bool

    def __post_init__(self):
        vec = np.asarray(self.mean_spin, dtype=float)
        vec.flags.writeable = False
        object.__setattr__(self, "mean_spin", vec)


def _moments(n_atoms, psi):
    """Six band sums (T,) of the rows of psi: <J+>, <Jz>, <Jz^2>, s, w, p.

    With J+ = Jx + i Jy, and the bands of `spin_core._bands`:
      <J+> = <Jx> + i <Jy>;
      s, the shared diagonal: <Jx^2>, <Jy^2> = s +- 2 Re w;
      w, the sum over Jx^2's +2 band (<J+^2> / 4): <JxJy + JyJx> = 4 Im w;
      p = <J+ (2 Jz + 1)> = <JxJz + JzJx> + i <JyJz + JzJy>.
    Each sum is one matrix-vector product. A sweep's rows come a chunk at
    a time, and the temporaries here are most of what it holds: the hops
    conj(psi_k) psi_(k+d) are made one d at a time, in place, over the
    rows laid end to end, since a ufunc buffers a 2-d strided operand
    (128 KB at N = 2000). The products straddling two rows are not read.
    """
    jp_band, jpz_band, side, upper, m2 = _bands(n_atoms)
    prob = psi.real ** 2 + psi.imag ** 2
    jz, jz2, s = prob @ _jz_diagonal(n_atoms), prob @ m2, prob @ side
    del prob
    flat = np.ascontiguousarray(psi).reshape(-1)

    def hops(d):
        out = np.empty_like(flat)
        np.conjugate(flat[:-d], out=out[:-d])
        out[:-d] *= flat[d:]
        return out.reshape(psi.shape)[:, :-d]

    hop1 = hops(1)
    jp, p = hop1 @ jp_band, hop1 @ jpz_band
    del hop1
    return jp, jz, jz2, s, hops(2) @ upper, p


def _squeezing(n_atoms, psi):
    """(xi2, mean, length, angle, degenerate) of the rows of psi (T, N+1), as arrays.

    The one computation behind every record: mean spin (T, 3), its length,
    xi^2, the optimal angle and the degenerate flag of each row.

    The mean spin points along n0 = (sin theta cos phi, sin theta sin phi,
    cos theta), with e^{i phi} = <J+> / |<J+>| and cos theta = <Jz> / |<J>|.
    The transverse frame is n1 = n0 x z normalized = (sin phi, -cos phi, 0)
    and n2 = n0 x n1 = (cos theta cos phi, cos theta sin phi, -sin theta).
    Where |<J+>| <= 1e-8 |<J>| the pole fixes phi instead: phi = pi for
    <Jz> >= 0 (and for no mean spin at all, where n0 = z), phi = 0 below the
    equator. In the azimuth-rotated spin e^{-i phi} J+ = Jx' + i Jy',
    n1 . J = -Jy' and n2 . J = cos theta Jx' - sin theta Jz, and the sums of
    `_moments` rotate as w' = w e^{-2i phi}, p' = p e^{-i phi}, so
      v11 = <Jy'^2> = s - 2 Re w',
      v22 = cos^2 theta (s + 2 Re w') - cos theta sin theta Re p'
            + sin^2 theta <Jz^2>,
      v12 = <n1.J n2.J + n2.J n1.J> / 2 = -2 cos theta Im w' + sin theta Im p' / 2.
    n_a . <J> = 0 in this frame, so these second moments are the variances.
    """
    jp, jz, jz2, s, w, p = _moments(n_atoms, psi)
    rho = abs(jp)  # |<J+>|
    length = np.hypot(rho, jz)
    degenerate = length < DEGENERATE_SPIN_FRACTION * (n_atoms / 2)
    cos_theta, sin_theta = np.ones_like(jz), np.zeros_like(jz)
    np.divide(jz, length, out=cos_theta, where=length > 0)
    np.divide(rho, length, out=sin_theta, where=length > 0)
    rotate = np.where(jz >= 0, -1.0 + 0j, 1.0 + 0j)  # e^{-i phi} at the pole
    np.divide(jp.conj(), rho, out=rotate, where=rho > 1e-8 * length)
    w, p = w * rotate ** 2, p * rotate
    v11 = s - 2 * w.real
    v22 = (cos_theta ** 2 * (s + 2 * w.real) - cos_theta * sin_theta * p.real
           + sin_theta ** 2 * jz2)
    v12 = -2 * cos_theta * w.imag + 0.5 * sin_theta * p.imag

    half_gap = np.sqrt((v11 - v22) ** 2 + 4 * v12 ** 2)
    lam_min = 0.5 * (v11 + v22 - half_gap)
    xi2 = 4 * lam_min / n_atoms

    # eigenvector of [[v11, v12], [v12, v22]] for lam_min, folded into [0, pi).
    # The rounding residue of v11 - v22 grows like J(J+1) (at most
    # 3.7e-16 J(J+1) over N = 2..2000), so the isotropy cut-offs scale with it
    isotropic = 1e-14 * (n_atoms / 2) * (n_atoms / 2 + 1)
    angle = np.where(abs(v12) < isotropic, np.where(v11 <= v22, 0.0, math.pi / 2),
                     np.arctan2(lam_min - v11, v12) % math.pi)
    angle[half_gap < isotropic] = 0.0
    return xi2, np.stack([jp.real, jp.imag, jz], axis=1), length, angle, degenerate


def _records(times, arrays):
    """Squeezing records at `times` from the arrays `_squeezing` gave."""
    xi2, mean, length, angle, degenerate = arrays
    mean.flags.writeable = False
    return [SqueezingRecord(*row) for row in zip(
        map(float, times), xi2.tolist(), mean,
        length.tolist(), angle.tolist(), degenerate.tolist())]


def xi_squared(state, time=0.0):
    """Squeezing record for a single state."""
    if not isinstance(state, DickeState):
        raise ValidationError("xi_squared expects a DickeState")
    record, = _records([time], _squeezing(state.n_atoms, state.amplitudes[None, :]))
    return record


def _reduced(n_atoms, rows):
    """The `_squeezing` arrays of `rows` (T, N+1), reduced in the chunks that
    a row function hands its reducer (`spin_core._chunked`), so they have
    the bits of a sweep's chunk-by-chunk reduction."""
    return _chunked(len(rows), n_atoms, lambda lo, hi: rows[lo:hi],
                    partial(_squeezing, n_atoms))


def squeezing_curve(traj):
    """Squeezing records for every sample of a trajectory."""
    return _records(traj.times, _reduced(traj.n_atoms, traj.amplitudes))


def _golden_update(a, b, x1, x2, left):
    """The bracket (a, b, x1, x2) after one golden-section comparison: if
    xi^2(x1) < xi^2(x2) (`left`) it keeps [a, x2] and its new point is x1,
    otherwise it keeps [x1, b] and its new point is x2."""
    if left:
        return a, x2, x2 - _GOLDEN * (x2 - a), x1
    return x1, b, x2, x1 + _GOLDEN * (b - x1)


def _lookahead(bracket, depth):
    """Every new point that the next `depth` updates of `bracket` could
    make, over both outcomes of each comparison: 2 + 4 + ... + 2^depth."""
    if not depth:
        return []
    points = []
    for left in (True, False):
        after = _golden_update(*bracket, left)
        points += [after[2 if left else 3], *_lookahead(after, depth - 1)]
    return points


def optimal_squeezing(traj):
    """Record at the minimum of xi^2(t), grid minimum refined by golden section.

    The points are evaluated in batches, each one `advance` call from the
    trajectory's first row at t = 0 (the eigenbasis, or the held W_T chain
    and checkpoints of a driven run) and one `_squeezing` reduction: the
    point the search needs now, and every point its next LOOKAHEAD updates
    could need, over both outcomes of each comparison (15 points, 16 in
    the first batch, which needs two). The search then replays the same
    update rule (`_golden_update`) on the batch's xi^2, so it visits the
    points a one-point-at-a-time search visits, in the same order; no
    DickeState is built. It compares bare xi^2; degenerate (over-squeezed)
    states are excluded only from the picks, and records are built only
    for the grid minimum and the two final candidates. If every sample is
    degenerate the trajectory has no usable optimum. Rows are reduced in
    a row function's chunks (`_reduced`), so the record has the bits of a
    sweep's: a sweep holds no trajectory, and passes the ReducedRun that a
    propagator with reduce=partial(_squeezing, N) gives.
    """
    if len(traj.times) < 3:
        raise ValidationError("optimal_squeezing needs at least 3 samples")
    times = traj.times
    if isinstance(traj, ReducedRun):
        grid, psi, squeezed = traj.reduced, traj.first, traj.advance
    else:
        n_atoms, advance = traj.n_atoms, traj.advance
        grid, psi = _reduced(n_atoms, traj.amplitudes), traj.amplitudes[0]
        squeezed = None if advance is None else (
            lambda psi, t_from, points: _reduced(n_atoms, advance(psi, t_from, points)))
    xi2, degenerate = grid[0], grid[-1]
    usable = np.flatnonzero(~degenerate)
    if not len(usable):
        raise ValidationError("over-squeezed trajectory: mean spin degenerate everywhere")
    if squeezed is None:  # a hand-built trajectory
        raise ValidationError(
            "trajectory carries no propagator to refine with; build it with "
            "propagate_static or propagate_driven")
    i_min = usable[np.argmin(xi2[usable])]
    lo, hi = max(i_min - 1, 0), min(i_min + 1, len(times) - 1)
    found = {}  # time -> the `_squeezing` arrays of its one row

    def evaluate(bracket, *points):
        if not all(t in found for t in points):
            batch = sorted({*points, *_lookahead(bracket, LOOKAHEAD)})
            arrays = squeezed(psi, 0.0, batch)
            found.update((t, [col[i:i + 1] for col in arrays])
                         for i, t in enumerate(batch))
        return [found[t] for t in points]

    a, b = times[lo], times[hi]
    bracket = (a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
    r1, r2 = evaluate(bracket, *bracket[2:])
    # once ulp(t) nears the tolerance the bracket can stop shrinking: stop too
    width = math.inf
    while REFINE_TIME_TOL < bracket[1] - bracket[0] < width:
        width = bracket[1] - bracket[0]
        left = r1[0] < r2[0]
        bracket = _golden_update(*bracket, left)
        if left:
            r2, (r1,) = r1, evaluate(bracket, bracket[2])
        else:
            r1, (r2,) = r2, evaluate(bracket, bracket[3])
    # min keeps the first of equal xi^2: the grid minimum, then x1, then x2
    candidates = [_records([t], arrays)[0] for t, arrays in (
        (times[i_min], [col[i_min:i_min + 1] for col in grid]),
        (bracket[2], r1), (bracket[3], r2))]
    return min((r for r in candidates if not r.degenerate_flag), key=lambda r: r.xi_squared)
