"""Compare the block formatter of ``ksdg.output`` with ``%`` at sizes
tier-1 does not run (a few seconds).

    PYTHONPATH=src python3 tests/format_check.py

Checks 2**20 seeded random float64 bit patterns against ``"%.17g" % x``,
and one mesh2 n = 128 snapshot of ``extreme_field`` data against the
per-line writer ``oracle_vtk``, byte for byte.  Exits 1 on a difference.
"""

import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from ksdg import build_structured_mesh, output, write_vtk_snapshot
from test_output import extreme_field, oracle_vtk


def main():
    rng = np.random.default_rng(20240817)
    values = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(
        np.float64)
    buf = io.StringIO()
    output._write_rows(buf, "%.17g\n", values)
    got = buf.getvalue().splitlines()
    bad = [i for i, (text, x) in enumerate(zip(got, values.tolist()))
           if text != "%.17g" % x]
    if len(got) != len(values) or bad:
        print("%d of %d bit patterns differ from %%, first %r" % (
            len(bad), len(values), values[bad[:1]]))
        return 1
    mesh = build_structured_mesh("mesh2", 128)
    u = extreme_field(mesh.n_cells, rng)
    v = extreme_field(mesh.n_vertices, rng)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.vtk"), Path(tmp, "want.vtk")
        write_vtk_snapshot(mesh, u, v, got, title="t=1e-05")
        oracle_vtk(mesh, u, v, want, title="t=1e-05")
        if got.read_bytes() != want.read_bytes():
            print("mesh2 n=128 snapshot differs from oracle_vtk")
            return 1
    print("%d bit patterns and a %d-cell snapshot match %%" % (
        len(values), mesh.n_cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
