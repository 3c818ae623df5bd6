"""Correctness gate: compare a pass's output columns with stored reference values.

A point is one row of a table, or one (row, Hamiltonian) cell of an
`scan-n` table.  It fails when its optimal xi^2 or time-curve xi^2 is off
by more than 1e-6, or its optimal time by more than 1e-4: the package's own
step-halving and golden-section tolerances.  Grid columns (time, ratio,
n_atoms) are inputs and must match to 1e-9; a mismatch there fails every
point of the row.  A missing column or a changed row count fails the points
it would hold.
"""

import csv
import json
import math

# column-name prefix -> tolerance
TOLERANCES = (("optimal_xi2", 1e-6), ("optimal_time", 1e-4), ("xi_squared", 1e-6))
XI2_PREFIXES = ("optimal_xi2", "xi_squared")
GRID_TOL = 1e-9


def read_columns(path, fmt):
    """{column: [float, ...]} from a csv or json file the CLI wrote."""
    with open(path, newline="") as fh:
        if fmt == "json":
            return {k: [float(v) for v in vals]
                    for k, vals in json.load(fh)["columns"].items()}
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _rule(column):
    for prefix, tol in TOLERANCES:
        if column.startswith(prefix):
            return prefix, tol
    return None, GRID_TOL


def check(columns, reference):
    """(points, failed points, worst finite xi^2 deviation) of `columns`."""
    points, failed, bad_rows = set(), set(), set()
    worst = 0.0
    for name, expected in reference.items():
        got = columns.get(name)
        if got is not None and len(got) != len(expected):
            got = None
        prefix, tol = _rule(name)
        for row, want in enumerate(expected):
            dev = abs(got[row] - want) if got is not None else math.inf
            ok = dev <= tol  # False for nan too
            if prefix is None:
                if not ok:
                    bad_rows.add(row)
                continue
            point = (row, name[len(prefix):])
            points.add(point)
            if not ok:
                failed.add(point)
            if prefix in XI2_PREFIXES and math.isfinite(dev):
                worst = max(worst, dev)
    failed |= {p for p in points if p[0] in bad_rows}
    return len(points), len(failed), worst
