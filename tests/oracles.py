"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own computational paths:
evolution goes through scipy's expm, moments through raw matrix algebra,
and the squeezing minimum through an exhaustive direction scan or the
transverse covariance matrix. Nothing here imports spinsqueeze.
"""

import numpy as np
from scipy.linalg import eigh, expm
from scipy.optimize import minimize_scalar
from scipy.special import j0


def raw_spin_matrices(n_atoms):
    """Jx, Jy, Jz built from scratch (ladder construction, ascending m)."""
    j = n_atoms / 2
    dim = n_atoms + 1
    m_asc = np.arange(-j, j + 1)  # ascending, unlike the library's convention
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m = m_asc[i]
        jp[i + 1, i] = np.sqrt(j * (j + 1) - m * (m + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m_asc).astype(complex)
    # reverse both indices to the library's descending-m ordering
    return tuple(a[::-1, ::-1] for a in (jx, jy, jz))


def evolve_expm(h_matrix, psi0, t):
    """|psi(t)> by direct matrix exponential."""
    return expm(-1j * np.asarray(h_matrix) * t) @ psi0


def evolve_driven_magnus(n_atoms, amplitude_g, omega, psi0, t, steps):
    """|psi(t)> under chi Jx^2 + g cos(omega t) Jz (chi = 1), lab frame.

    Second-order Magnus: each of `steps` equal steps applies expm of the
    Hamiltonian averaged exactly over the step, the drive's cosine included.
    """
    jx, _, jz = raw_spin_matrices(n_atoms)
    jx2 = jx @ jx
    edges = np.linspace(0.0, t, steps + 1)
    drive = amplitude_g * np.diff(np.sin(omega * edges)) / omega
    psi = psi0
    for dt, phase in zip(np.diff(edges), drive):
        psi = expm(-1j * (dt * jx2 + phase * jz)) @ psi
    return psi


def mean_and_variance(psi, op):
    mean = np.vdot(psi, op @ psi).real
    second = np.vdot(op @ psi, op @ psi).real
    return mean, second - mean ** 2


def symmetrized_covariance_raw(psi, op_a, op_b):
    sym = 0.5 * np.vdot(psi, (op_a @ op_b + op_b @ op_a) @ psi).real
    return sym - np.vdot(psi, op_a @ psi).real * np.vdot(psi, op_b @ psi).real


def _transverse_frame(mean):
    """Orthonormal pair perpendicular to the mean-spin vector."""
    n0 = mean / np.linalg.norm(mean)
    n1 = np.cross(n0, [0.0, 0.0, 1.0])
    if np.linalg.norm(n1) < 1e-8:
        n1 = np.cross(n0, [1.0, 0.0, 0.0])
    n1 /= np.linalg.norm(n1)
    return n1, np.cross(n0, n1)


def xi_squared_direction_scan(psi, n_atoms, n_directions=10_000):
    """Brute-force Kitagawa-Ueda parameter: scan transverse directions."""
    jx, jy, jz = raw_spin_matrices(n_atoms)
    mean = np.array([np.vdot(psi, op @ psi).real for op in (jx, jy, jz)])
    n1, n2 = _transverse_frame(mean)
    best = np.inf
    for alpha in np.linspace(0.0, np.pi, n_directions, endpoint=False):
        direction = np.cos(alpha) * n1 + np.sin(alpha) * n2
        op = direction[0] * jx + direction[1] * jy + direction[2] * jz
        _, var = mean_and_variance(psi, op)
        best = min(best, var)
    return 4 * best / n_atoms


def rotation(n_atoms, axis, theta):
    """Global rotation exp(-i theta axis . J) as a dense matrix."""
    jx, jy, jz = raw_spin_matrices(n_atoms)
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return expm(-1j * theta * (axis[0] * jx + axis[1] * jy + axis[2] * jz))


def xi_squared_covariance(psi, n_atoms, spin_matrices=None):
    """Kitagawa-Ueda parameter from the 2x2 transverse covariance matrix."""
    jx, jy, jz = spin_matrices or raw_spin_matrices(n_atoms)
    mean = np.array([np.vdot(psi, op @ psi).real for op in (jx, jy, jz)])
    n1, n2 = _transverse_frame(mean)
    ops = [d[0] * jx + d[1] * jy + d[2] * jz for d in (n1, n2)]
    cov = np.array([[symmetrized_covariance_raw(psi, a, b) for b in ops]
                    for a in ops])
    return 4 * np.linalg.eigvalsh(cov)[0] / n_atoms


def mixed_optimum(n_atoms, bessel_coeff, t_max):
    """Optimum (t, xi^2) under H = [(1+A) Jx^2 + (1-A) Jy^2] / 2 from the +y CSS.

    This is the drive-averaged Hamiltonian, chi = 1. The state evolves by one
    eigendecomposition; the minimum over 200 grid times in [0, t_max] (the
    sampling of acceptance c05) is refined by a bounded scalar minimization
    between its grid neighbours.
    """
    mats = raw_spin_matrices(n_atoms)
    jx, jy, _ = mats
    a = bessel_coeff
    energies, vecs = eigh(0.5 * ((1 + a) * (jx @ jx) + (1 - a) * (jy @ jy)))
    top = np.zeros(n_atoms + 1, dtype=complex)
    top[0] = 1.0  # |J, +J> in the descending-m ordering
    psi0 = rotation(n_atoms, [1.0, 0.0, 0.0], -np.pi / 2) @ top  # +z -> +y
    coeffs = vecs.conj().T @ psi0

    def xi2(t):
        return xi_squared_covariance(
            vecs @ (np.exp(-1j * energies * t) * coeffs), n_atoms, mats)

    times = np.linspace(0.0, t_max, 200)
    k = int(np.argmin([xi2(t) for t in times]))
    lo, hi = times[max(k - 1, 0)], times[min(k + 1, len(times) - 1)]
    best = minimize_scalar(xi2, bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-8})
    return float(best.x), float(best.fun)


def drive_averaged_optimum(n_atoms, ratio, t_max):
    """Optimum (t, xi^2) of the drive-averaged model at drive ratio g/omega.

    Averaging chi Jx^2 + g cos(omega t) Jz over the fast drive gives the mixed
    twisting Hamiltonian with A = J0(2 g/omega); see `mixed_optimum`.
    """
    return mixed_optimum(n_atoms, j0(2 * ratio), t_max)


def oat_xi_squared(n_atoms, chi_t):
    """Kitagawa-Ueda xi^2 of one-axis twisting from a coherent state, in closed form.

    Kitagawa & Ueda, PRA 47, 5138 (1993): with mu = 2 chi t,
    A = 1 - cos^(N-2) mu and B = 4 sin(mu/2) cos^(N-2)(mu/2),
    xi^2 = 1 + (N - 1)/4 (A - sqrt(A^2 + B^2)), evaluated here as
    1 - (N - 1)/4 B^2 / (A + sqrt(A^2 + B^2)), which has no cancellation
    (A >= 0). It costs O(1) per time at any N; xi^2 = 1 at t = 0.
    """
    mu = 2 * np.asarray(chi_t, dtype=float)
    a = 1 - np.cos(mu) ** (n_atoms - 2)
    b = 4 * np.sin(mu / 2) * np.cos(mu / 2) ** (n_atoms - 2)
    root = a + np.sqrt(a * a + b * b)
    safe = np.where(root > 0, root, 1.0)
    return np.where(root > 0, 1 - (n_atoms - 1) / 4 * b * b / safe, 1.0)


def oat_optimum(n_atoms, t_max):
    """Optimum (t, xi^2) of the closed form over [0, t_max]: the minimum of 4000
    grid times, refined by a bounded scalar minimization between its
    grid neighbours."""
    times = np.linspace(0.0, t_max, 4000)
    k = int(np.argmin(oat_xi_squared(n_atoms, times)))
    lo, hi = times[max(k - 1, 0)], times[min(k + 1, len(times) - 1)]
    best = minimize_scalar(lambda t: float(oat_xi_squared(n_atoms, t)),
                           bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-12})
    return float(best.x), float(best.fun)
