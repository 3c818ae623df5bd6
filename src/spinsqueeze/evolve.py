"""State propagation: exact for constant Hamiltonians, RK4 for the driven one.

The driven integrator works in the exact rotating frame of the drive term:
psi(t) = exp(-i theta(t) Jz) phi(t) with theta(t) = (g/omega) sin(omega t),
so the stiff diagonal piece is handled analytically and RK4 only has to
track the co-rotated twisting term. States are mapped back to the lab frame
at every sample point, so trajectories always contain genuine psi(t).
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import IntegrationError, ValidationError
from .hamiltonians import FullDriven, HamiltonianSpec
from .spin_core import CollectiveOperator, DickeState, _jz_diagonal, _raw_matrices

NORM_TOL = 1e-8  # driven RK4 norm drift allowed between renormalizations


@dataclass(frozen=True)
class StepControl:
    """Fixed-step RK4 policy for the driven propagator.

    The step is the tighter of two caps: `substeps_per_period` points per
    drive cycle (resolves the cosine), and `twist_step_scale / (chi J(J+1))`
    (resolves the co-rotated twisting term, which dominates at large N).
    Defaults hold step-halving changes in xi^2 below 1e-6 on all the
    parameter sets exercised in the tests.
    """

    substeps_per_period: int = 64
    twist_step_scale: float = 0.015

    def __post_init__(self):
        if self.substeps_per_period < 20:
            raise ValidationError(
                f"substeps_per_period must be >= 20, got {self.substeps_per_period}")
        if not self.twist_step_scale > 0:
            raise ValidationError("twist_step_scale must be > 0")

    def refined(self, factor=2):
        """Same policy with the step cut by `factor` (for convergence checks)."""
        return StepControl(self.substeps_per_period * factor,
                           self.twist_step_scale / factor)

    def max_step(self, spec, n_atoms):
        j = n_atoms / 2
        dt_drive = 2 * np.pi / (spec.drive.frequency_omega * self.substeps_per_period)
        dt_twist = self.twist_step_scale / (spec.chi * j * (j + 1))
        return min(dt_drive, dt_twist)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states |psi(t_i)>, all unit norm, t_0 = 0.

    `advance(state, t_from, t_to)` continues the evolution with the
    propagator (eigenbasis, or RK4 under its StepControl) that made it.
    It is None when assembled by hand or by `propagate_static` without spec.
    """

    times: np.ndarray
    states: Tuple[DickeState, ...]
    spec: Optional[HamiltonianSpec] = None
    advance: Optional[Callable[[DickeState, float, float], DickeState]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) != len(self.states):
            raise ValidationError("times and states must be 1-d and equal length")
        if len(times) and times[0] != 0.0:
            raise ValidationError("trajectories start at t = 0")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("sample times must be strictly increasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValidationError("need a non-empty 1-d vector of sample times")
    if times[0] != 0.0 or not np.all(np.diff(times) > 0):
        raise ValidationError("sample times must start at 0 and increase strictly")
    return times


def _static_states(evals, evecs, initial, durations):
    """exp(-i H dt)|initial> for each dt, as V exp(-i Lambda dt) V^dag |initial>."""
    coeffs = evecs.conj().T @ initial.amplitudes
    for dt in durations:
        psi = evecs @ (np.exp(-1j * evals * dt) * coeffs)
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= 1e-10:
            raise IntegrationError(f"static propagation lost norm: drift {abs(norm - 1.0):g}")
        yield DickeState(initial.n_atoms, psi / norm)


def propagate_static(hamiltonian, initial, times, spec=None):
    """Exact evolution under a constant Hamiltonian via one eigendecomposition.

    With `spec` set, the trajectory's `advance` reuses that eigendecomposition.
    """
    times = _check_times(times)
    if not isinstance(hamiltonian, CollectiveOperator):
        raise ValidationError("hamiltonian must be a CollectiveOperator")
    if hamiltonian.n_atoms != initial.n_atoms:
        raise ValidationError("Hamiltonian and initial state disagree on N")
    if not hamiltonian.is_hermitian(1e-12):
        raise ValidationError("static propagation requires a Hermitian Hamiltonian")
    evals, evecs = np.linalg.eigh(hamiltonian.matrix)
    advance = None
    if spec is not None:
        def advance(state, t_from, t_to):
            return next(_static_states(evals, evecs, state, [t_to - t_from]))
    return Trajectory(times, tuple(_static_states(evals, evecs, initial, times)),
                      spec, advance)


def _rk4_rotating_frame(spec, n_atoms, psi, t_start, sample_times, control):
    """March RK4 in the drive's rotating frame from (t_start, psi).

    Yields the lab-frame state at each requested absolute time. Absolute
    time enters only through theta(t) = r sin(omega t), so restarts
    mid-trajectory are exact. Norm drift beyond NORM_TOL between two
    yields raises IntegrationError. Jx^2 is real with only the 0 and +-2
    diagonals, and m falls by one per index, so co-rotating multiplies its
    upper band by exp(2i theta) and its lower band by the conjugate.
    """
    jx = _raw_matrices(n_atoms)[0]
    jx2 = (jx @ jx).real
    mz = _jz_diagonal(n_atoms)
    omega = spec.drive.frequency_omega
    r = spec.drive.ratio
    dt_max = control.max_step(spec, n_atoms)
    diag = -1j * spec.chi * np.diagonal(jx2)
    band = -1j * spec.chi * np.diagonal(jx2, 2)

    def deriv(t, phi):
        phase = cmath.exp(2j * r * math.sin(omega * t))
        out = diag * phi
        out[:-2] += (phase * band) * phi[2:]
        out[2:] += (phase.conjugate() * band) * phi[:-2]
        return out

    t = t_start
    phi = np.exp(1j * (r * np.sin(omega * t)) * mz) * psi
    for t_next in sample_times:
        n_steps = max(1, int(np.ceil((t_next - t) / dt_max)))
        dt = (t_next - t) / n_steps
        for _ in range(n_steps):
            k1 = deriv(t, phi)
            k2 = deriv(t + dt / 2, phi + (dt / 2) * k1)
            k3 = deriv(t + dt / 2, phi + (dt / 2) * k2)
            k4 = deriv(t + dt, phi + dt * k3)
            phi = phi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        t = t_next
        norm = np.linalg.norm(phi)
        drift = abs(norm - 1.0)
        if not drift <= NORM_TOL:  # NaN drift fails too
            raise IntegrationError(
                f"norm drift {drift:g} exceeds tolerance {NORM_TOL:g} "
                f"at t = {t:g} (N = {n_atoms}, step {dt:g}); tighten StepControl")
        phi = phi / norm
        yield np.exp(-1j * (r * np.sin(omega * t)) * mz) * phi


def propagate_driven(spec, initial, times, control=None):
    """Integrate the time-dependent driven Hamiltonian with fixed-step RK4.

    States are renormalized at each sample point; drift beyond NORM_TOL
    since the previous sample is a failure. The trajectory's `advance` is
    `driven_state_at` under the same `control`.
    """
    if not isinstance(spec, FullDriven):
        raise ValidationError("propagate_driven requires a FullDriven spec")
    times = _check_times(times)
    control = control or StepControl()
    n = initial.n_atoms
    states = [initial]
    for lab in _rk4_rotating_frame(spec, n, initial.amplitudes, times[0],
                                   times[1:], control):
        states.append(DickeState(n, lab / np.linalg.norm(lab)))
    return Trajectory(times, tuple(states), spec,
                      partial(driven_state_at, spec, control=control))


def driven_state_at(spec, initial, t_start, t_end, control=None):
    """Single lab-frame state at t_end, starting from `initial` at t_start.

    The drive phase is tied to absolute time, so this is exactly the segment
    [t_start, t_end] of the full evolution.
    """
    if not isinstance(spec, FullDriven):
        raise ValidationError("driven_state_at requires a FullDriven spec")
    if t_end < t_start:
        raise ValidationError("t_end must be >= t_start")
    control = control or StepControl()
    if t_end == t_start:
        return initial
    # renormalization checkpoints every ~500 steps, mirroring the per-sample
    # drift budget of full-trajectory propagation
    chunk = 500 * control.max_step(spec, initial.n_atoms)
    n_chunks = max(1, int(np.ceil((t_end - t_start) / chunk)))
    checkpoints = t_start + (t_end - t_start) * np.arange(1, n_chunks + 1) / n_chunks
    *_, lab = _rk4_rotating_frame(spec, initial.n_atoms, initial.amplitudes,
                                  t_start, checkpoints, control)
    return DickeState(initial.n_atoms, lab / np.linalg.norm(lab))

