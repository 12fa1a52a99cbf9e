"""
Newton robustness across time steps
===================================

The density step is a nonlinear system solved by Newton's method on the
density, with the potential evaluated exactly at every iterate.  The
scheme itself is well posed for every time step, so the solver should
not abort anywhere in the range the presets use.

This script runs every preset for five steps on both mesh families at
n = 8, 16 and 32, at seven time steps from 1e-7 to 1e-2 (126 runs), and
prints per configuration the time steps that failed, the total Newton
iterations and the worst margins of the three guarantees.  Pass
``--n 8`` (or any list) to run fewer meshes.
"""

import argparse
import time
import warnings

import numpy as np

from ksdg import StepFailureError, simulate
from ksdg.config import PRESET_NAMES, build_mesh, initial_fields, load_config
from ksdg.simulation import ENERGY_LAW_RTOL
from ksdg.ustep import MASS_RTOL

TIME_STEPS = (1e-7, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2)

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--n", type=int, nargs="+", default=[8, 16, 32])
args = parser.parse_args()


def five_steps(preset, pattern, n, dt):
    """Rows of a five-step run, or the failure message."""
    cfg = load_config("[mesh]\npattern = %s\nn = %d\n[params]\ndt = %r\n"
                      "t_end = %r\n[initial]\npreset = %s\n"
                      % (pattern, n, dt, 5 * dt, preset))
    mesh = build_mesh(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "v0 unused" advisory
        u0, v0 = initial_fields(cfg, mesh)
    try:
        return [row for _, row in simulate(mesh, cfg.params, u0, v0)]
    except StepFailureError as exc:
        return str(exc)


print("%-13s %-6s %3s %5s %9s %9s %9s  %s" % (
    "preset", "mesh", "n", "iters", "mass", "law", "min u,v", "failed dt"))
start = time.perf_counter()
failures = 0
for preset in PRESET_NAMES:
    for pattern in ("mesh1", "mesh2"):
        for n in args.n:
            failed, iters, mass, law, low = [], 0, 0.0, -np.inf, np.inf
            for dt in TIME_STEPS:
                rows = five_steps(preset, pattern, n, dt)
                if isinstance(rows, str):
                    failed.append("%g" % dt)
                    continue
                iters += sum(r.newton_iters for r in rows)
                for a, b in zip(rows, rows[1:]):
                    mass = max(mass, abs(b.mass - a.mass) / a.mass
                               / MASS_RTOL)
                    law = max(law, b.energy_law_lhs / ENERGY_LAW_RTOL
                              / (1.0 + abs(b.E_eps)))
                    low = min(low, b.min_u, b.min_v)
            failures += len(failed)
            print("%-13s %-6s %3d %5d %9.2g %9.2g %9.2g  %s" % (
                preset, pattern, n, iters, mass, law, low,
                " ".join(failed) or "-"))
print("\n%d of %d runs failed in %.0f s.  The mass and law columns are "
      "the worst per-step\nvalues relative to their bounds (at most 1 "
      "passes); min u,v must not be negative."
      % (failures, len(PRESET_NAMES) * 2 * len(args.n) * len(TIME_STEPS),
         time.perf_counter() - start))
