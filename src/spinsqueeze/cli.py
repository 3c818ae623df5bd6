"""Command-line interface for the squeezing sweeps.

Exit codes: 0 success, 1 physics/validation error, 2 I/O error.
"""

import argparse
import math
import sys

import numpy as np

from .errors import IntegrationError, ValidationError
from .experiments import emit, run_n_scaling, run_ratio_scan, run_time_curve
from .hamiltonians import (VARIANTS, DriveParams, EffectiveMixed, FullDriven,
                           solve_drive_ratio)

# Sweeps run serially: the work holds the GIL, so a thread pool made them
# slower. --threads stays accepted so existing command lines keep working.
_THREADS_HELP = "accepted for compatibility; has no effect (sweeps run serially)"

# Each ratio costs a driven trajectory plus its refinement: about 10 ms at
# N = 32 and omega = 1000 chi (in-process, one BLAS thread, 2-vCPU VM), so
# a full grid runs for under two minutes there, and a longer one, most
# likely a mistyped step, is refused before it is built.
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
    """start:stop:step -> the floats start + k step up to stop, within rounding."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValidationError(f"ratio range must be start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValidationError(f"bad ratio range {text!r}")
    if (stop - start) / step + 1 > RATIO_GRID_MAX:
        raise ValidationError(
            f"ratio range {text!r} has more than {RATIO_GRID_MAX} points")
    grid = start + step * np.arange(int((stop - start) / step) + 2)
    rounding = 4 * np.finfo(float).eps * max(abs(start), abs(stop))
    return grid[grid <= stop + rounding].tolist()


def _parse_n_list(text):
    """Comma list of atom numbers; a token that is not an integer is refused."""
    n_list = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        try:
            n_list.append(int(token))
        except ValueError:
            raise ValidationError(
                f"--n-list entries must be integers, got {token!r}") from None
    return n_list


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Collective-spin squeezing sweeps for the driven "
                    "one-axis-twisting model.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--chi", type=float, default=1.0)
    common.add_argument("--axis", choices=["x", "y"], default="y")
    common.add_argument("--out", required=True, help="output file path")
    common.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("evolve", parents=[common],
                       help="xi^2(t) time curve for one Hamiltonian")
    p.set_defaults(run=_cmd_evolve)
    p.add_argument("--hamiltonian", required=True, choices=list(VARIANTS))
    p.add_argument("--n", type=int, required=True, help="number of atoms")
    p.add_argument("--g", type=float, help="drive amplitude (full only)")
    p.add_argument("--omega", type=float, help="drive frequency (full only)")
    p.add_argument("--a", type=float, help="Bessel coefficient (mixed only)")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, default=400)

    p = sub.add_parser("scan-n", parents=[sweep],
                       help="optimal xi^2 vs atom number, with power-law fit")
    p.set_defaults(run=_cmd_scan_n)
    p.add_argument("--hamiltonians", required=True,
                   help="comma list of " + ",".join(VARIANTS))
    p.add_argument("--n-list", required=True, help="comma list of atom numbers")
    p.add_argument("--ratio", type=float, default=0.906,
                   help="g/omega for full templates (omega is set per N)")
    p.add_argument("--a", type=float, help="Bessel coefficient for mixed")

    p = sub.add_parser("scan-ratio", parents=[sweep],
                       help="optimal xi^2 vs drive ratio g/omega")
    p.set_defaults(run=_cmd_scan_ratio)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--ratios", required=True, help="start:stop:step")

    p = sub.add_parser("solve-ratio", help="drive ratios r with J0(2r) = target")
    p.set_defaults(run=_cmd_solve_ratio)
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
    if "full" in names and not (math.isfinite(args.ratio) and args.ratio >= 0):
        raise ValidationError(f"--ratio (g/omega) must be finite and >= 0, got {args.ratio!r}")
    specs = [_make_spec(name, args.chi, g=args.ratio, omega=1.0, a=args.a)
             for name in names]
    table, fits = run_n_scaling(specs, _parse_n_list(args.n_list), args.axis)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (ValidationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
