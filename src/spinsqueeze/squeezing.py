"""Kitagawa-Ueda squeezing parameter and its optimum along a trajectory.

xi_s^2 = 4 min Var(J_n) / N, minimized over directions n perpendicular to
the mean spin. The 2x2 transverse covariance matrix gives the minimum in
closed form; the minimizing direction comes from its eigenvector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spin_core import DickeState, _raw_matrices

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


def _transverse_frame(n0):
    """Deterministic orthonormal pair perpendicular to the unit vector n0."""
    n1 = np.cross(n0, [0.0, 0.0, 1.0])
    if np.linalg.norm(n1) < 1e-8:
        n1 = np.cross(n0, [1.0, 0.0, 0.0])
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(n0, n1)
    return n1, n2


def xi_squared(state, time=0.0):
    """Squeezing record for a single state."""
    if not isinstance(state, DickeState):
        raise ValidationError("xi_squared expects a DickeState")
    n = state.n_atoms
    jx, jy, jz, _, _ = _raw_matrices(n)
    psi = state.amplitudes
    jpsi = [jx @ psi, jy @ psi, jz @ psi]
    mean = np.array([np.vdot(psi, v).real for v in jpsi])
    length = float(np.linalg.norm(mean))
    degenerate = length < DEGENERATE_SPIN_FRACTION * (n / 2)
    n0 = mean / length if length > 0 else np.array([0.0, 0.0, 1.0])
    n1, n2 = _transverse_frame(n0)

    # J_n psi for the two transverse directions
    p1 = sum(c * v for c, v in zip(n1, jpsi))
    p2 = sum(c * v for c, v in zip(n2, jpsi))
    m1 = np.vdot(psi, p1).real
    m2 = np.vdot(psi, p2).real
    if not degenerate and max(abs(m1), abs(m2)) > 1e-8:
        raise ValidationError(
            "transverse mean spin did not vanish; inconsistent moments")
    v11 = np.vdot(p1, p1).real - m1 * m1
    v22 = np.vdot(p2, p2).real - m2 * m2
    v12 = np.vdot(p1, p2).real - m1 * m2  # Re<J1 J2> = symmetrized product

    half_gap = math.sqrt((v11 - v22) ** 2 + 4 * v12 ** 2)
    lam_min = 0.5 * (v11 + v22 - half_gap)
    xi2 = 4 * lam_min / n

    # eigenvector of [[v11, v12], [v12, v22]] for lam_min, folded into [0, pi)
    if half_gap < 1e-14:
        angle = 0.0
    elif abs(v12) < 1e-14:
        angle = 0.0 if v11 <= v22 else math.pi / 2
    else:
        angle = math.atan2(lam_min - v11, v12) % math.pi

    return SqueezingRecord(
        time=float(time),
        xi_squared=float(xi2),
        mean_spin=mean,
        mean_spin_length=length,
        optimal_angle=float(angle),
        degenerate_flag=bool(degenerate),
    )


def squeezing_curve(traj):
    """Squeezing records for every sample of a trajectory."""
    return [xi_squared(s, t) for s, t in zip(traj.states, traj.times)]


def optimal_squeezing(traj):
    """Record at the minimum of xi^2(t), grid minimum refined by golden section.

    Off-grid states continue the stored sample at or before them with the
    trajectory's own `advance`. Degenerate (over-squeezed) samples are
    excluded; if nothing is left the trajectory has no usable optimum.
    """
    if len(traj.times) < 3:
        raise ValidationError("optimal_squeezing needs at least 3 samples")
    records = squeezing_curve(traj)
    usable = [i for i, r in enumerate(records) if not r.degenerate_flag]
    if not usable:
        raise ValidationError("over-squeezed trajectory: mean spin degenerate everywhere")
    if traj.advance is None:
        raise ValidationError(
            "trajectory carries no propagator to refine with; propagate with spec= set")
    i_min = min(usable, key=lambda i: records[i].xi_squared)
    best = records[i_min]

    def evaluate(t):
        i = int(np.searchsorted(traj.times, t, side="right")) - 1
        return xi_squared(traj.advance(traj.states[i], traj.times[i], t), t)

    a = traj.times[max(i_min - 1, 0)]
    b = traj.times[min(i_min + 1, len(traj.times) - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    r1, r2 = evaluate(x1), evaluate(x2)
    while b - a > REFINE_TIME_TOL:
        if r1.xi_squared < r2.xi_squared:
            b, x2, r2 = x2, x1, r1
            x1 = b - _GOLDEN * (b - a)
            r1 = evaluate(x1)
        else:
            a, x1, r1 = x1, x2, r2
            x2 = a + _GOLDEN * (b - a)
            r2 = evaluate(x2)
    for candidate in (r1, r2):
        if not candidate.degenerate_flag and candidate.xi_squared < best.xi_squared:
            best = candidate
    return best
