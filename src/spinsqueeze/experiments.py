"""Sweep drivers: time curves, atom-number scaling, drive-ratio scans.

Every driver returns a SweepTable whose metadata is enough to re-run the
sweep bit-identically, and whose columns feed the csv/json/svg emitters.
"""

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Tuple

import numpy as np

from . import __version__
from .errors import ValidationError
from .evolve import propagate_driven, propagate_static
from .hamiltonians import (DriveParams, FullDriven, TATxz, rwa_validity,
                           variant_name)
from .spin_core import _check_n_atoms, coherent_spin_state
from .squeezing import _squeezing, optimal_squeezing

# Per-point drive frequency for N-scaling sweeps with the full Hamiltonian:
# deep-averaging regime omega = 70 N chi, scaled with N. The averaging
# quality still falls with N: the driven optimum exceeds the drive-averaged
# (EffectiveMixed) one by about 0.2 chi^2 N^3 / omega^2, so about 4e-5 N
# here: 0.5% at N = 128, 2% at N = 512 and 8% at N = 2000.
SCALING_OMEGA_PER_ATOM = 70.0
GRID_SAMPLES = 200  # uniform samples per optimum search, then golden section

# A time curve holds no rows, but about 130 bytes a sample of its plan and
# xi^2 (traced at N = 4, static and driven); one of more samples than this,
# about 1.1 GB, is refused before its grid is built. It is the most that the
# old 256 MiB limit on a curve's amplitudes admitted, at N = 1.
CURVE_SAMPLES_MAX = 2 ** 23


@dataclass(frozen=True)
class SweepTable:
    """Equal-length columns; metadata is headed by tool, version and sweep kind."""

    sweep_kind: str  # time_curve | n_scaling | ratio_scan
    columns: Dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self):
        object.__setattr__(self, "metadata", {
            "tool": "spinsqueeze", "version": __version__,
            "sweep": self.sweep_kind, **self.metadata})
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
    """Fit (log N, log xi2) by least squares; needs at least 5 points, as
    many N as xi2, each finite and > 0, and two distinct logs of each."""
    n_atoms = np.asarray(n_atoms, dtype=float)
    xi_opt = np.asarray(xi_opt, dtype=float)
    if n_atoms.ndim != 1 or n_atoms.shape != xi_opt.shape:
        raise ValidationError("scaling fit needs one xi2 for each N, as two 1-d sequences")
    if len(n_atoms) < 5:
        raise ValidationError("scaling fit needs at least 5 points")
    points = np.concatenate([n_atoms, xi_opt])
    if not np.all(np.isfinite(points) & (points > 0)):  # NaN fails too
        raise ValidationError("scaling fit needs every N and xi2 finite and > 0")
    log_n = np.log(n_atoms)
    log_x = np.log(xi_opt)
    if np.ptp(log_n) == 0 or np.ptp(log_x) == 0:  # a singular fit, or r2 0/0
        raise ValidationError("scaling fit needs two distinct N and two distinct xi2")
    slope, intercept = np.polyfit(log_n, log_x, 1)
    residuals = log_x - (slope * log_n + intercept)
    ss_tot = np.sum((log_x - log_x.mean()) ** 2)
    r2 = 1.0 - np.sum(residuals ** 2) / ss_tot
    return ScalingFit(exponent=float(slope), prefactor=float(math.exp(intercept)),
                      r_squared=float(r2),
                      n_range=(int(n_atoms.min()), int(n_atoms.max())))


def default_t_max(n_atoms, chi=1.0):
    """Time window that safely contains the squeezing optimum.

    Three times the one-axis-twisting optimal-time estimate
    3^(1/6) (N/2)^(-2/3) / chi, clamped to [0.05, 2] / chi. N must be a
    positive integer and chi finite and > 0.
    """
    _check_n_atoms(n_atoms)
    if not (math.isfinite(chi) and chi > 0):
        raise ValidationError(f"chi must be finite and > 0, got {chi!r}")
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


def _template_metadata(template):
    """A sweep template's metadata: a full one records its g/omega ratio,
    since each point runs at its own omega (`_spec_for_n`)."""
    if isinstance(template, FullDriven):
        return {"hamiltonian": variant_name(template), "chi": template.chi,
                "ratio": template.drive.ratio}
    return _spec_metadata(template)


def _squeezing_run(spec, n_atoms, axis, times, control=None):
    """The ReducedRun from the coherent state along `axis`: its rows are
    reduced to their `_squeezing` arrays chunk by chunk, so no sweep holds
    a trajectory's rows."""
    initial = coherent_spin_state(n_atoms, axis)
    reduce = partial(_squeezing, n_atoms)
    if isinstance(spec, FullDriven):
        return propagate_driven(spec, initial, times, control, reduce=reduce)
    return propagate_static(spec, initial, times, reduce=reduce)


def run_time_curve(spec, n_atoms, initial_axis, t_max, n_samples,
                   control=None):
    """xi^2(t) on a uniform grid; columns time, xi_squared.

    The grid has `n_samples` times, or the one time 0 at t_max = 0, and the
    metadata's n_samples counts the times the grid has; more than
    CURVE_SAMPLES_MAX are refused. Only the xi^2 of each chunk of rows is
    kept (`_squeezing_run`), so a long curve holds no more rows than a short one.
    """
    if not math.isfinite(t_max):
        raise ValidationError(f"t_max must be finite, got {t_max!r}")
    if not isinstance(n_samples, numbers.Integral):
        raise ValidationError(f"n_samples must be an integer, got {n_samples!r}")
    if t_max < 0 or n_samples < 1:
        raise ValidationError("need t_max >= 0 and n_samples >= 1")
    rows = 1 if t_max == 0 else n_samples  # the rows the curve will make
    if rows > CURVE_SAMPLES_MAX:
        raise ValidationError(
            f"{rows} samples are over the limit of {CURVE_SAMPLES_MAX} for a curve")
    run = _squeezing_run(spec, n_atoms, initial_axis, np.linspace(0.0, t_max, rows), control)
    metadata = {
        "n_atoms": int(n_atoms),
        "initial_axis": initial_axis.lstrip("+"),
        "t_max": float(t_max),
        "n_samples": len(run.times),
        **_spec_metadata(spec),
    }
    if isinstance(spec, FullDriven):
        diag = rwa_validity(spec, n_atoms)
        metadata["rwa_ratio"] = diag.ratio
        metadata["rwa_valid"] = diag.is_valid
    return SweepTable(
        "time_curve",
        {"time": run.times, "xi_squared": run.reduced[0].tolist()},  # no records
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


def _optimal_point(spec, n_atoms, axis):
    """(xi^2, time) at the optimum of one sweep point, found in units of 1/chi.

    The optimum time scales as 1/chi, but the refinement stops at an
    absolute bracket width (squeezing.REFINE_TIME_TOL). So the point runs
    the same spec at chi = 1 (g/chi and omega/chi for a driven one) on the
    grid default_t_max(N), and its optimal time is divided by chi: every
    chi refines as far as chi = 1 does. A chi that scales the drive out of
    float range raises ValidationError naming chi and the scaled drive.
    """
    chi = spec.chi
    if isinstance(spec, FullDriven):
        g, omega = spec.drive.amplitude_g / chi, spec.drive.frequency_omega / chi
        if not (math.isfinite(g) and math.isfinite(omega) and omega > 0):
            raise ValidationError(
                f"chi={chi!r} scales the drive out of float range: "
                f"g/chi = {g!r}, omega/chi = {omega!r}")
        unit = FullDriven(DriveParams(g, omega))
    else:
        unit = replace(spec, chi=1.0)
    times = np.linspace(0.0, default_t_max(n_atoms), GRID_SAMPLES)
    record = optimal_squeezing(_squeezing_run(unit, n_atoms, axis, times))
    return record.xi_squared, record.time / chi


def run_n_scaling(specs, n_list, initial_axis="y"):
    """Optimal xi^2 versus N for each spec template, plus a power-law fit.

    Returns (SweepTable, {variant name: ScalingFit}).
    """
    n_list = [_check_n_atoms(n) for n in n_list]
    if len(n_list) < 5:
        raise ValidationError("n scaling needs at least 5 atom numbers")
    if any(n < 4 for n in n_list) or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be strictly increasing with every N >= 4")

    if not specs:
        raise ValidationError("n scaling needs at least one Hamiltonian")
    names = [variant_name(s) for s in specs]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate Hamiltonian variants in scaling sweep")

    columns = {"n_atoms": np.array(n_list, dtype=float)}
    fits = {}
    for template, name in zip(specs, names):
        xi, topt = zip(*(_optimal_point(_spec_for_n(template, n), n, initial_axis)
                         for n in n_list))
        columns[f"optimal_xi2_{name}"] = xi
        columns[f"optimal_time_{name}"] = topt
        fits[name] = fit_scaling(n_list, xi)

    metadata = {
        "n_list": n_list,
        "initial_axis": initial_axis.lstrip("+"),
        "grid_samples": GRID_SAMPLES,
        "scaling_omega_per_atom": SCALING_OMEGA_PER_ATOM,
        "specs": [_template_metadata(s) for s in specs],
        "fits": {name: {"exponent": f.exponent, "prefactor": f.prefactor,
                        "r_squared": f.r_squared, "n_range": list(f.n_range)}
                 for name, f in fits.items()},
    }
    return SweepTable("n_scaling", columns, metadata), fits


def run_ratio_scan(n_atoms, initial_axis, ratio_grid, omega, chi=1.0):
    """Optimal xi^2 under the full driven Hamiltonian for each g/omega ratio.

    Metadata carries the two-axis-twisting reference optimum for this N.
    """
    ratios = [float(r) for r in ratio_grid]
    for r in ratios:
        if not (math.isfinite(r) and r >= 0):
            raise ValidationError(f"drive ratios must be finite and >= 0, got {r!r}")
    undriven = DriveParams(0.0, omega)  # refuses a bad omega before any spec is built

    results = [_optimal_point(FullDriven(DriveParams(r * omega, omega), chi),
                              n_atoms, initial_axis)
               for r in ratios]

    tat_xi, tat_time = _optimal_point(TATxz(chi), n_atoms, initial_axis)
    diag = rwa_validity(FullDriven(undriven, chi), n_atoms)
    metadata = {
        "n_atoms": int(n_atoms),
        "initial_axis": initial_axis.lstrip("+"),
        "omega": float(omega),
        "chi": float(chi),
        "grid_samples": GRID_SAMPLES,
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


def _emit_csv(table, fh):
    names = list(table.columns)
    fh.write(",".join(names) + "\n")
    for row in zip(*(table.columns[n] for n in names)):
        fh.write(",".join(_format_number(v) for v in row) + "\n")


def _emit_json(table, fh):
    payload = {"metadata": table.metadata, "columns": table.columns}
    # numpy arrays and scalars that are not already floats go through tolist
    json.dump(payload, fh, indent=2, default=lambda obj: obj.tolist())
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
