"""Kitagawa-Ueda squeezing parameter and its optimum along a trajectory.

xi_s^2 = 4 min Var(J_n) / N, minimized over directions n perpendicular to
the mean spin. The 2x2 transverse covariance matrix gives the minimum in
closed form; the minimizing direction comes from its eigenvector.

The mean spin and the symmetrized second moments come from |psi|^2 and the
bands of J (`spin_core._bands`): each is an O(N) reduction, made for all
samples of a trajectory at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spin_core import DickeState, _bands, _jz_diagonal

# Below this fraction of the maximal spin length J the mean-spin direction
# is numerically meaningless (over-squeezed regime); results get flagged
# instead of raising because optima always occur well before this point.
DEGENERATE_SPIN_FRACTION = 1e-6

REFINE_TIME_TOL = 1e-4  # golden-section search stops at this bracket width

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
    """Mean spin (T, 3) and symmetrized second moments (T, 3, 3) of the rows of psi.

    With J+ = Jx + i Jy, and the bands of `spin_core._bands`:
      <J+> = <Jx> + i <Jy>,
      <Jx^2>, <Jy^2> = <shared diagonal> +- 2 Re<Jx^2's +2 band>,
      <JxJy + JyJx> / 2 = 2 Im<Jx^2's +2 band>,
      <JxJz + JzJx> / 2 + i <JyJz + JzJy> / 2 = <J+ (2 Jz + 1)> / 2.
    Sums are einsum or element-wise: a `@` here would hand each row's
    reduction to threaded BLAS.
    """
    jp_band, jpz_band, side, upper, m2 = _bands(n_atoms)
    m = _jz_diagonal(n_atoms)
    prob = psi.real ** 2 + psi.imag ** 2
    hop1 = psi[:, :-1].conj() * psi[:, 1:]
    jp = np.einsum("tk,k->t", hop1, jp_band)
    jpz = np.einsum("tk,k->t", hop1, jpz_band)
    jx2_upper = np.einsum("tk,k->t", psi[:, :-2].conj() * psi[:, 2:], upper)
    shared = np.einsum("tk,k->t", prob, side)
    mean = np.stack([jp.real, jp.imag, np.einsum("tk,k->t", prob, m)], axis=1)
    second = np.empty((len(psi), 3, 3))
    second[:, 0, 0] = shared + 2 * jx2_upper.real
    second[:, 1, 1] = shared - 2 * jx2_upper.real
    second[:, 2, 2] = np.einsum("tk,k->t", prob, m2)
    second[:, 0, 1] = second[:, 1, 0] = 2 * jx2_upper.imag
    second[:, 0, 2] = second[:, 2, 0] = jpz.real / 2
    second[:, 1, 2] = second[:, 2, 1] = jpz.imag / 2
    return mean, second


def _transverse_frame(n0):
    """Deterministic orthonormal pair (n1, n2) perpendicular to each unit row
    of n0 (T, 3), stacked as (T, 2, 3).

    n1 is n0 x z (n0 x x where that is shorter than 1e-8), normalized, and
    n2 = n0 x n1, written out for 3-vectors.
    """
    x, y, z = n0.T
    zero = np.zeros_like(x)
    n1 = np.stack([y, -x, zero], axis=1)
    along_z = np.hypot(x, y) < 1e-8
    n1[along_z] = np.stack([zero, z, -y], axis=1)[along_z]
    n1 /= np.sqrt(np.einsum("ti,ti->t", n1, n1))[:, None]
    a, b, c = n1.T
    n2 = np.stack([y * c - z * b, z * a - x * c, x * b - y * a], axis=1)
    return np.stack([n1, n2], axis=1)


def _squeezing(n_atoms, psi):
    """(xi2, mean, length, angle, degenerate) of the rows of psi (T, N+1), as arrays.

    The one computation behind every record: mean spin (T, 3), its length,
    xi^2, the optimal angle and the degenerate flag of each row.
    """
    mean, second = _moments(n_atoms, psi)
    length = np.sqrt(np.einsum("ti,ti->t", mean, mean))
    degenerate = length < DEGENERATE_SPIN_FRACTION * (n_atoms / 2)
    n0 = np.tile([0.0, 0.0, 1.0], (len(mean), 1))
    np.divide(mean, length[:, None], out=n0, where=length[:, None] > 0)
    frame = _transverse_frame(n0)
    # n_a . <J> = 0 by construction, so these second moments are variances
    (v11, v12), (_, v22) = np.einsum("tai,tij,tbj->abt", frame, second, frame)

    half_gap = np.sqrt((v11 - v22) ** 2 + 4 * v12 ** 2)
    lam_min = 0.5 * (v11 + v22 - half_gap)
    xi2 = 4 * lam_min / n_atoms

    # eigenvector of [[v11, v12], [v12, v22]] for lam_min, folded into [0, pi)
    angle = np.where(abs(v12) < 1e-14, np.where(v11 <= v22, 0.0, math.pi / 2),
                     np.arctan2(lam_min - v11, v12) % math.pi)
    angle[half_gap < 1e-14] = 0.0
    return xi2, mean, length, angle, degenerate


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


def squeezing_curve(traj):
    """Squeezing records for every sample of a trajectory."""
    return _records(traj.times, _squeezing(traj.n_atoms, traj.amplitudes))


def optimal_squeezing(traj):
    """Record at the minimum of xi^2(t), grid minimum refined by golden section.

    Each off-grid state continues the latest state row reached at or
    before it (the bracket's samples, then every row evaluated) with the
    trajectory's own `advance`, one time per call; no DickeState is built.
    The search compares bare xi^2 from `_squeezing`; degenerate
    (over-squeezed) states are excluded only from the picks, and records
    are built only for the grid minimum and the two final candidates. If
    every sample is degenerate the trajectory has no usable optimum.
    """
    if len(traj.times) < 3:
        raise ValidationError("optimal_squeezing needs at least 3 samples")
    n_atoms = traj.n_atoms
    grid = _squeezing(n_atoms, traj.amplitudes)
    xi2, degenerate = grid[0], grid[-1]
    usable = np.flatnonzero(~degenerate)
    if not len(usable):
        raise ValidationError("over-squeezed trajectory: mean spin degenerate everywhere")
    if traj.advance is None:
        raise ValidationError(
            "trajectory carries no propagator to refine with; build it with "
            "propagate_static or propagate_driven")
    i_min = usable[np.argmin(xi2[usable])]
    lo, hi = max(i_min - 1, 0), min(i_min + 1, len(traj.times) - 1)
    reached = dict(zip(traj.times[lo:hi + 1].tolist(), traj.amplitudes[lo:hi + 1]))

    def evaluate(t):
        t_from = max(s for s in reached if s <= t)
        reached[t], = traj.advance(reached[t_from], t_from, np.array([t]))
        return _squeezing(n_atoms, reached[t][None, :])

    a, b = traj.times[lo], traj.times[hi]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    r1, r2 = evaluate(x1), evaluate(x2)
    # once ulp(t) nears the tolerance the bracket can stop shrinking: stop too
    width = math.inf
    while REFINE_TIME_TOL < b - a < width:
        width = b - a
        if r1[0] < r2[0]:
            b, x2, r2 = x2, x1, r1
            x1 = b - _GOLDEN * (b - a)
            r1 = evaluate(x1)
        else:
            a, x1, r1 = x1, x2, r2
            x2 = a + _GOLDEN * (b - a)
            r2 = evaluate(x2)
    # min keeps the first of equal xi^2: the grid minimum, then x1, then x2
    candidates = [_records([t], arrays)[0] for t, arrays in (
        (traj.times[i_min], [col[i_min:i_min + 1] for col in grid]), (x1, r1), (x2, r2))]
    return min((r for r in candidates if not r.degenerate_flag), key=lambda r: r.xi_squared)
