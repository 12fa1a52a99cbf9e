"""One benchmark repetition: a single ``ksdg run`` in a fresh process.

    python3 bench/rep.py SPEC.json RESULT.json

SPEC (written by ``run.py``) names the config file, its CSV path and VTK
directory, the snapshot files the run must leave, whether to trace, an
optional reference trajectory, and where to write the span list.  The
run goes through the public entry point, ``ksdg.cli.main(["run", cfg])``;
imports happen before the clock starts.
RESULT receives the timings of the call and of each step yield, the
correctness outcome, output sizes, the process's peak RSS and, when
traced, the per-layer metrics.
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ksdg.cli  # noqa: E402
import ksdg.simulation  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    csv_path = Path(spec["csv"])
    shutil.rmtree(spec["vtk_dir"], ignore_errors=True)
    csv_path.unlink(missing_ok=True)

    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        spans.install(tracer)

    # one perf_counter per yielded step, in the traced and untraced run
    yields, rows, cells = [], [], []
    inner = ksdg.simulation.simulate

    def timed_simulate(mesh, *args, **kwargs):
        cells.append(mesh.n_cells)
        for state, row in inner(mesh, *args, **kwargs):
            yields.append(time.perf_counter())
            rows.append(row)
            yield state, row

    ksdg.simulation.simulate = timed_simulate

    error = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.open("cli")
    try:
        code = ksdg.cli.main(["run", spec["config"]])
    except Exception as exc:  # a crash is a failed step, reported below
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    finally:
        if tracer is not None:
            tracer.close()
    end = time.perf_counter()
    # before the checks below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if spec.get("reference"):
        reference = checks.read_reference(spec["reference"])
    violations = checks.row_violations(rows, reference)
    ran = code == 0
    if not ran and error is None:
        error = "ksdg run exited %r" % code
    snapshots = {int(step): Path(path)
                 for step, path in spec["snapshots"].items()}
    out_errors = checks.output_errors(rows, csv_path, snapshots) if ran else []
    if ran and spec.get("record_reference"):
        checks.write_reference(rows, spec["record_reference"])

    vtk_files = sorted(Path(spec["vtk_dir"]).glob("*.vtk"))
    result = {
        "exit_code": code,
        "error": error,
        "wall_s": end - start,
        "setup_s": yields[0] - start if yields else None,
        "step_ms": [1e3 * (b - a) for a, b in zip(yields, yields[1:])],
        "loop_s": yields[-1] - yields[0] if len(yields) > 1 else None,
        "n_cells": cells[0] if cells else None,
        # step 0 counts as a step; a run that stopped early failed one more
        "attempted": len(rows) + (0 if ran else 1),
        "failed": len(violations) + (0 if ran else 1),
        "violations": {str(k): v for k, v in violations.items()},
        "output_errors": out_errors,
        "newton_iters": sum(row.newton_iters for row in rows),
        "csv_bytes": csv_path.stat().st_size if csv_path.is_file() else 0,
        "vtk_files": len(vtk_files),
        "vtk_bytes": sum(p.stat().st_size for p in vtk_files),
        "peak_rss_mb": peak_rss_mb,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        Path(spec["trace_file"]).write_text(json.dumps(
            {"spans": tracer.spans, "notes": tracer.notes}))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
