"""Correctness gate applied to every diagnostics row of a benchmark run.

Each row must keep the scheme's three guarantees:

* mass: ``|mass - mass_0| <= MASS_RTOL * max(step, 1) * |mass_0|``, the
  program's own per-step mass allowance accumulated over the steps;
* positivity: ``min_u >= 0`` and ``min_v >= 0``;
* energy: ``energy_law_lhs <= ENERGY_LAW_RTOL * (1 + |E_eps|)``.

On the default seed the trajectory (``mass``, ``max_u``, ``E_eps`` per
step) must also match the reference recorded in ``reference/``:
``|x - x_ref| <= REFERENCE_RTOL * (1 + |x_ref|)``.  The tolerance is
far above the round-off a change of linear solver moves (below 1e-14 on
all three workloads with an MMD-ordered LU or a Jacobi-BiCGSTAB to rtol
1e-12 in place of ``splu``), and far below the few-percent change of a
jittered seed.
"""

import csv
import math

from ksdg.output import CSV_HEADER, read_diagnostics_csv
from ksdg.simulation import ENERGY_LAW_RTOL
from ksdg.ustep import MASS_RTOL

REFERENCE_RTOL = 1e-9
REFERENCE_COLUMNS = ("mass", "max_u", "E_eps")

_CSV_COLUMNS = CSV_HEADER.split(",")


def row_violations(rows, reference=None):
    """``{step: [broken check, ...]}`` for every row that breaks a check."""
    out = {}
    mass0 = rows[0].mass if rows else 0.0
    for index, row in enumerate(rows):
        bad = []
        if not (abs(row.mass - mass0)
                <= MASS_RTOL * max(row.step, 1) * abs(mass0)):
            bad.append("mass")
        if not row.min_u >= 0.0:
            bad.append("min_u")
        if not row.min_v >= 0.0:
            bad.append("min_v")
        if not (row.energy_law_lhs
                <= ENERGY_LAW_RTOL * (1.0 + abs(row.E_eps))):
            bad.append("energy_law")
        if reference is not None:
            if index >= len(reference):
                bad.append("reference_length")
            else:
                for col in REFERENCE_COLUMNS:
                    want = reference[index][col]
                    if not (abs(getattr(row, col) - want)
                            <= REFERENCE_RTOL * (1.0 + abs(want))):
                        bad.append("reference_" + col)
        if bad:
            out[row.step] = bad
    return out


def read_reference(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{col: float(rec[col]) for col in REFERENCE_COLUMNS}
                for rec in csv.DictReader(fh)]


def write_reference(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step," + ",".join(REFERENCE_COLUMNS) + "\n")
        for row in rows:
            fh.write("%d,%s\n" % (row.step, ",".join(
                "%.17g" % getattr(row, col) for col in REFERENCE_COLUMNS)))


def _vtk_block(lines, header):
    """Float values that follow ``SCALARS <header> ...`` and a lookup line."""
    start = lines.index("SCALARS %s double" % header) + 2
    values = []
    for line in lines[start:]:
        try:
            values.append(float(line))
        except ValueError:
            break
    return values


def output_errors(rows, csv_path, vtk_paths_by_step):
    """Differences between the in-memory rows and the files written.

    The CSV must reload to exactly the rows (17 significant digits
    round-trip), every expected snapshot file must exist, and the last
    snapshot's ``u_p0`` and ``v`` extrema must equal that step's row.
    """
    errors = []
    try:
        written = read_diagnostics_csv(str(csv_path))
    except (OSError, ValueError) as exc:
        return ["csv unreadable: %s" % exc]
    if len(written) != len(rows):
        errors.append("csv has %d rows, run yielded %d"
                      % (len(written), len(rows)))
    for got, want in zip(written, rows):
        for col in _CSV_COLUMNS:
            a, b = getattr(got, col), getattr(want, col)
            if a != b and not (math.isnan(a) and math.isnan(b)):
                errors.append("csv step %d %s: %r != %r"
                              % (want.step, col, a, b))
    by_step = {row.step: row for row in rows}
    for step, path in sorted(vtk_paths_by_step.items()):
        if not path.is_file():
            errors.append("missing snapshot %s" % path.name)
    if vtk_paths_by_step and not errors:
        step = max(vtk_paths_by_step)
        lines = vtk_paths_by_step[step].read_text().splitlines()
        row = by_step[step]
        u = _vtk_block(lines, "u_p0")
        v = _vtk_block(lines, "v")
        if (min(u), max(u), min(v), max(v)) != (row.min_u, row.max_u,
                                                  row.min_v, row.max_v):
            errors.append("snapshot %s extrema differ from its row"
                          % vtk_paths_by_step[step].name)
    return errors
