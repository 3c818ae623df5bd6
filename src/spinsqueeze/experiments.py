"""Sweep drivers: time curves, atom-number scaling, drive-ratio scans.

Every driver returns a SweepTable whose metadata is enough to re-run the
sweep bit-identically, and whose columns feed the csv/json/svg emitters.
"""

import json
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import __version__
from .errors import ValidationError
from .evolve import propagate_driven, propagate_static
from .hamiltonians import (DriveParams, FullDriven, TATxz, build_hamiltonian,
                           rwa_validity, variant_name)
from .spin_core import coherent_spin_state
from .squeezing import optimal_squeezing, squeezing_curve

# Per-point drive frequency for N-scaling sweeps with the full Hamiltonian:
# deep-averaging regime omega = 70 N chi, scaled with N so the averaging
# quality stays constant across the fit range.
SCALING_OMEGA_PER_ATOM = 70.0


@dataclass(frozen=True)
class SweepTable:
    sweep_kind: str  # time_curve | n_scaling | ratio_scan
    columns: Dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self):
        cols = {}
        length = None
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValidationError("all sweep columns must have equal length")
            arr.flags.writeable = False
            cols[name] = arr
        object.__setattr__(self, "columns", cols)

    def n_rows(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law xi2_opt = prefactor * N^exponent."""

    exponent: float
    prefactor: float
    r_squared: float
    n_range: Tuple[int, int]


def fit_scaling(n_atoms, xi_opt):
    """Fit (log N, log xi2) by least squares; needs at least 5 points."""
    n_atoms = np.asarray(n_atoms, dtype=float)
    xi_opt = np.asarray(xi_opt, dtype=float)
    if len(n_atoms) < 5:
        raise ValidationError("scaling fit needs at least 5 points")
    log_n = np.log(n_atoms)
    log_x = np.log(xi_opt)
    slope, intercept = np.polyfit(log_n, log_x, 1)
    residuals = log_x - (slope * log_n + intercept)
    ss_tot = np.sum((log_x - log_x.mean()) ** 2)
    r2 = 1.0 - np.sum(residuals ** 2) / ss_tot
    return ScalingFit(exponent=float(slope), prefactor=float(math.exp(intercept)),
                      r_squared=float(r2),
                      n_range=(int(n_atoms[0]), int(n_atoms[-1])))


def default_t_max(n_atoms, chi=1.0):
    """Time window that safely contains the squeezing optimum.

    Three times the one-axis-twisting optimal-time estimate
    3^(1/6) (N/2)^(-2/3) / chi, clamped to [0.05, 2] / chi.
    """
    estimate = 3 ** (1 / 6) * (n_atoms / 2) ** (-2 / 3)
    return min(max(3 * estimate, 0.05), 2.0) / chi


def _spec_metadata(spec):
    meta = {"hamiltonian": variant_name(spec), "chi": spec.chi}
    if spec.drive is not None:
        meta["g"] = spec.drive.amplitude_g
        meta["omega"] = spec.drive.frequency_omega
    if spec.bessel_coeff is not None:
        meta["bessel_coeff"] = spec.bessel_coeff
    return meta


def _run_trajectory(spec, n_atoms, axis, times, control=None):
    initial = coherent_spin_state(n_atoms, axis)
    if isinstance(spec, FullDriven):
        return propagate_driven(spec, initial, times, control)
    return propagate_static(build_hamiltonian(spec, n_atoms), initial, times)


def run_time_curve(spec, n_atoms, initial_axis, t_max, n_samples,
                   control=None):
    """xi^2(t) on a uniform grid; columns time, xi_squared."""
    if t_max < 0 or n_samples < 1:
        raise ValidationError("need t_max >= 0 and n_samples >= 1")
    if n_samples == 1 or t_max == 0:
        times = np.array([0.0])
    else:
        times = np.linspace(0.0, t_max, n_samples)
    traj = _run_trajectory(spec, n_atoms, initial_axis, times, control)
    records = squeezing_curve(traj)
    metadata = {
        "tool": "spinsqueeze",
        "version": __version__,
        "sweep": "time_curve",
        "n_atoms": int(n_atoms),
        "initial_axis": initial_axis.lstrip("+"),
        "t_max": float(t_max),
        "n_samples": int(n_samples),
        **_spec_metadata(spec),
    }
    if isinstance(spec, FullDriven):
        diag = rwa_validity(spec, n_atoms)
        metadata["rwa_ratio"] = diag.ratio
        metadata["rwa_valid"] = diag.is_valid
    return SweepTable(
        "time_curve",
        {"time": traj.times, "xi_squared": [r.xi_squared for r in records]},
        metadata,
    )


def _spec_for_n(template, n_atoms):
    """Instantiate a sweep template at a specific atom number.

    FullDriven templates keep their g/omega ratio but rescale the frequency
    to omega = 70 N chi so the averaging regime tracks N; static variants
    are used as-is.
    """
    if isinstance(template, FullDriven):
        omega = SCALING_OMEGA_PER_ATOM * n_atoms * template.chi
        return FullDriven(DriveParams(template.drive.ratio * omega, omega),
                          template.chi)
    return template


def _optimal_point(spec, n_atoms, axis, t_max, grid_samples):
    times = np.linspace(0.0, t_max, grid_samples)
    traj = _run_trajectory(spec, n_atoms, axis, times)
    record = optimal_squeezing(traj)
    return record.xi_squared, record.time


def run_n_scaling(specs, n_list, initial_axis="y", grid_samples=200):
    """Optimal xi^2 versus N for each spec template, plus a power-law fit.

    Returns (SweepTable, {variant name: ScalingFit}).
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 5:
        raise ValidationError("n scaling needs at least 5 atom numbers")
    if any(n < 4 for n in n_list) or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be strictly increasing with every N >= 4")

    names = [variant_name(s) for s in specs]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate Hamiltonian variants in scaling sweep")

    results = [_optimal_point(_spec_for_n(template, n), n, initial_axis,
                              default_t_max(n, template.chi), grid_samples)
               for template in specs for n in n_list]

    columns = {"n_atoms": np.array(n_list, dtype=float)}
    fits = {}
    for i, (spec, name) in enumerate(zip(specs, names)):
        chunk = results[i * len(n_list):(i + 1) * len(n_list)]
        xi = [x for x, _ in chunk]
        topt = [t for _, t in chunk]
        columns[f"optimal_xi2_{name}"] = xi
        columns[f"optimal_time_{name}"] = topt
        fits[name] = fit_scaling(n_list, xi)

    metadata = {
        "tool": "spinsqueeze",
        "version": __version__,
        "sweep": "n_scaling",
        "n_list": n_list,
        "initial_axis": initial_axis.lstrip("+"),
        "grid_samples": int(grid_samples),
        "scaling_omega_per_atom": SCALING_OMEGA_PER_ATOM,
        "specs": [_spec_metadata(s) for s in specs],
        "fits": {name: {"exponent": f.exponent, "prefactor": f.prefactor,
                        "r_squared": f.r_squared, "n_range": list(f.n_range)}
                 for name, f in fits.items()},
    }
    return SweepTable("n_scaling", columns, metadata), fits


def run_ratio_scan(n_atoms, initial_axis, ratio_grid, omega, chi=1.0,
                   grid_samples=200):
    """Optimal xi^2 under the full driven Hamiltonian for each g/omega ratio.

    Metadata carries the two-axis-twisting reference optimum for this N.
    """
    ratios = [float(r) for r in ratio_grid]
    if any(r < 0 for r in ratios):
        raise ValidationError("drive ratios must be >= 0")
    t_max = default_t_max(n_atoms, chi)

    results = [_optimal_point(FullDriven(DriveParams(r * omega, omega), chi),
                              n_atoms, initial_axis, t_max, grid_samples)
               for r in ratios]

    tat_xi, tat_time = _optimal_point(TATxz(chi), n_atoms, initial_axis,
                                      t_max, grid_samples)
    diag = rwa_validity(FullDriven(DriveParams(0.0, omega), chi), n_atoms)
    metadata = {
        "tool": "spinsqueeze",
        "version": __version__,
        "sweep": "ratio_scan",
        "n_atoms": int(n_atoms),
        "initial_axis": initial_axis.lstrip("+"),
        "omega": float(omega),
        "chi": float(chi),
        "grid_samples": int(grid_samples),
        "tat_reference_xi2": tat_xi,
        "tat_reference_time": tat_time,
        "rwa_ratio": diag.ratio,
        "rwa_valid": diag.is_valid,
    }
    return SweepTable(
        "ratio_scan",
        {"ratio": ratios,
         "optimal_xi2": [x for x, _ in results],
         "optimal_time": [t for _, t in results]},
        metadata,
    )


def _format_number(x):
    return "%.12g" % x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit_csv(table, fh):
    names = list(table.columns)
    fh.write(",".join(names) + "\n")
    for row in zip(*(table.columns[n] for n in names)):
        fh.write(",".join(_format_number(v) for v in row) + "\n")


def _emit_json(table, fh):
    payload = {
        "metadata": _jsonable(table.metadata),
        "columns": {k: _jsonable(v) for k, v in table.columns.items()},
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _emit_svg(table, fh):
    # minimal line chart of the first two columns; presentation only
    names = list(table.columns)
    if len(names) < 2 or table.n_rows() < 2:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480"/>\n')
        return
    xs = table.columns[names[0]]
    ys = table.columns[names[1]]
    width, height, margin = 640.0, 480.0, 50.0
    x_span = xs.max() - xs.min() or 1.0
    y_span = ys.max() - ys.min() or 1.0
    px = margin + (xs - xs.min()) / x_span * (width - 2 * margin)
    py = height - margin - (ys - ys.min()) / y_span * (height - 2 * margin)
    points = " ".join(f"{_format_number(a)},{_format_number(b)}"
                      for a, b in zip(px, py))
    fh.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}">\n'
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue"/>\n'
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle">'
        f'{names[0]}</text>\n'
        f'<text x="15" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height / 2})">{names[1]}</text>\n'
        '</svg>\n')


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "svg": _emit_svg}


def emit(table, format, path):
    """Write a SweepTable to disk as csv, json, or an svg line plot."""
    if format not in _EMITTERS:
        raise ValidationError(f"format must be one of {sorted(_EMITTERS)}, got {format!r}")
    try:
        with open(path, "w") as fh:
            _EMITTERS[format](table, fh)
    except OSError as exc:
        raise OSError(f"cannot write {format} output to {path}: {exc}") from exc
