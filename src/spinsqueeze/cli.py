"""Command-line interface for the squeezing sweeps.

Exit codes: 0 success, 1 physics/validation error, 2 I/O error.
"""

import argparse
import math
import sys

from .errors import IntegrationError, ValidationError
from .experiments import emit, run_n_scaling, run_ratio_scan, run_time_curve
from .hamiltonians import (VARIANTS, DriveParams, EffectiveMixed, FullDriven,
                           solve_drive_ratio)

# Sweeps run serially: the work holds the GIL, so a thread pool made them
# slower. --threads stays accepted so existing command lines keep working.
_THREADS_HELP = "accepted for compatibility; has no effect (sweeps run serially)"

# Each ratio costs a driven trajectory plus its refinement (about 0.5 s at
# N = 32), so longer grids are refused before they are built.
RATIO_GRID_MAX = 10_000


def _make_spec(name, chi, g=None, omega=None, a=None):
    if name == "full":
        if g is None or omega is None:
            raise ValidationError("the full Hamiltonian needs --g and --omega")
        return FullDriven(DriveParams(g, omega), chi)
    if name == "mixed":
        if a is None:
            raise ValidationError("the mixed Hamiltonian needs --a")
        return EffectiveMixed(a, chi)
    if name not in VARIANTS:
        raise ValidationError(f"unknown Hamiltonian {name!r}")
    return VARIANTS[name](chi)


def _parse_range(text):
    """start:stop:step -> inclusive-ish float grid."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValidationError(f"ratio range must be start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValidationError(f"bad ratio range {text!r}")
    if (stop - start) / step + 1 > RATIO_GRID_MAX:
        raise ValidationError(
            f"ratio range {text!r} has more than {RATIO_GRID_MAX} points")
    grid = []
    k = 0
    while True:
        r = start + k * step
        if r > stop + step / 2:
            break
        grid.append(r)
        k += 1
    return grid


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Collective-spin squeezing sweeps for the driven "
                    "one-axis-twisting model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")

    p = sub.add_parser("evolve", help="xi^2(t) time curve for one Hamiltonian")
    p.add_argument("--hamiltonian", required=True,
                   choices=list(VARIANTS))
    p.add_argument("--n", type=int, required=True, help="number of atoms")
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--g", type=float, help="drive amplitude (full only)")
    p.add_argument("--omega", type=float, help="drive frequency (full only)")
    p.add_argument("--a", type=float, help="Bessel coefficient (mixed only)")
    p.add_argument("--axis", choices=["x", "y"], default="y")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, default=400)
    add_output(p)

    p = sub.add_parser("scan-n", help="optimal xi^2 vs atom number, with power-law fit")
    p.add_argument("--hamiltonians", required=True,
                   help="comma list of " + ",".join(VARIANTS))
    p.add_argument("--n-list", required=True, help="comma list of atom numbers")
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--ratio", type=float, default=0.906,
                   help="g/omega for full templates (omega is set per N)")
    p.add_argument("--a", type=float, help="Bessel coefficient for mixed")
    p.add_argument("--axis", choices=["x", "y"], default="y")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    add_output(p)

    p = sub.add_parser("scan-ratio", help="optimal xi^2 vs drive ratio g/omega")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--ratios", required=True, help="start:stop:step")
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--axis", choices=["x", "y"], default="y")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    add_output(p)

    p = sub.add_parser("solve-ratio", help="drive ratios r with J0(2r) = target")
    p.add_argument("--target-a", type=float, required=True)

    return parser


def _cmd_evolve(args):
    spec = _make_spec(args.hamiltonian, args.chi, args.g, args.omega, args.a)
    table = run_time_curve(spec, args.n, args.axis, args.tmax, args.samples)
    emit(table, args.format, args.out)
    print(f"wrote {table.n_rows()} samples to {args.out}")


def _cmd_scan_n(args):
    names = [s.strip() for s in args.hamiltonians.split(",") if s.strip()]
    # full templates carry the ratio as g at omega = 1; the sweep sets omega per N
    specs = [_make_spec(name, args.chi, g=args.ratio, omega=1.0, a=args.a)
             for name in names]
    n_list = [int(s) for s in args.n_list.split(",") if s.strip()]
    table, fits = run_n_scaling(specs, n_list, args.axis)
    emit(table, args.format, args.out)
    for name, fit in fits.items():
        print(f"fit {name}: exponent={fit.exponent:.6g} "
              f"prefactor={fit.prefactor:.6g} r_squared={fit.r_squared:.6g}")
    print(f"wrote {table.n_rows()} rows to {args.out}")


def _cmd_scan_ratio(args):
    grid = _parse_range(args.ratios)
    table = run_ratio_scan(args.n, args.axis, grid, args.omega, chi=args.chi)
    emit(table, args.format, args.out)
    print(f"wrote {table.n_rows()} rows to {args.out}")


def _cmd_solve_ratio(args):
    roots = solve_drive_ratio(args.target_a)
    if not roots:
        print("no roots in the search window")
    for r in roots:
        print("%.12g" % r)


_COMMANDS = {
    "evolve": _cmd_evolve,
    "scan-n": _cmd_scan_n,
    "scan-ratio": _cmd_scan_ratio,
    "solve-ratio": _cmd_solve_ratio,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValidationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
