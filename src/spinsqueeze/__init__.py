"""Collective-spin squeezing under a continuous drive.

Simulates N two-level atoms in the symmetric Dicke sector evolving under a
one-axis-twisting interaction with a cosine drive, the drive-averaged
effective Hamiltonians it generates, and the pure two-axis-twisting limits;
computes the Kitagawa-Ueda squeezing parameter and reproduces the optimum
scans, atom-number scaling, and drive-ratio structure of the model.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the user chose a count. On a 2-vCPU host the
# default per-core workers spin after every threaded eigh or product: about
# 0.1 s of CPU at `import numpy`, and twice the CPU of a static scan. With
# the half-size static eigenproblems (evolve._band_blocks) one thread is
# also faster in wall time, up to N = 2000. Set before the first submodule
# imports numpy; a numpy imported earlier keeps its own count.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import IntegrationError, ValidationError
from .spin_core import (CollectiveOperator, DickeState, build_angular_momentum,
                        casimir, coherent_spin_state, expectation,
                        symmetrized_covariance)
from .hamiltonians import (BESSEL_J0_MIN, DriveParams, EffectiveMixed,
                           FullDriven, HamiltonianSpec, OAT, RwaDiagnostic,
                           TATxz, TATyz, bessel_j0, build_hamiltonian,
                           rwa_validity, solve_drive_ratio, variant_name)
from .evolve import (StepControl, Trajectory, driven_state_at,
                     propagate_driven, propagate_static)
from .squeezing import (SqueezingRecord, optimal_squeezing, squeezing_curve,
                        xi_squared)
from .experiments import (ScalingFit, SweepTable, default_t_max, emit,
                          fit_scaling, run_n_scaling, run_ratio_scan,
                          run_time_curve)

__all__ = [
    "BESSEL_J0_MIN", "CollectiveOperator", "DickeState", "DriveParams",
    "EffectiveMixed", "FullDriven", "HamiltonianSpec", "IntegrationError",
    "OAT", "RwaDiagnostic", "ScalingFit", "SqueezingRecord", "StepControl",
    "SweepTable", "TATxz", "TATyz", "Trajectory", "ValidationError",
    "bessel_j0", "build_angular_momentum", "build_hamiltonian", "casimir",
    "coherent_spin_state", "default_t_max", "driven_state_at", "emit",
    "expectation", "fit_scaling", "optimal_squeezing", "propagate_driven",
    "propagate_static", "run_n_scaling", "run_ratio_scan", "run_time_curve",
    "rwa_validity", "solve_drive_ratio", "squeezing_curve",
    "symmetrized_covariance", "variant_name", "xi_squared",
]
