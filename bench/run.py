"""Benchmark of ``ksdg run`` on fixed workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's configuration through ``ksdg.cli.main(["run", cfg])``
again and again, each time in a fresh single-threaded process
(``rep.py``), for at least ``--seconds`` seconds and at least
``MIN_REPS`` repetitions.  Every row of every repetition is checked (see
``checks.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (steps) and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (at least ``MIN_REPS`` of each) and
reports the per-layer metrics from the traced ones plus the tracing
overhead.  Exact counters must repeat across the repetitions of a run
and across runs of the same workload, seed and ``src/`` digest in this
checkout (kept in ``bench/.out/counters.json``).  ``--record-reference``
rewrites the default-seed reference trajectory of the workload.

README.md next to this file gives the reason for each workload and the
layer -> metric -> workload map.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Machine speed on a shared host drifts over minutes, more than between
#: the repetitions of one run, so a run keeps to few, whole repetitions.
MIN_REPS = 2
#: Wall-clock budget of one invocation: no repetition starts that could
#: end past it, and a repetition still running at its end is killed.
BUDGET_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("step_ms.p50", "ms"),
              ("cell_steps_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: Printed and kept in result.json but not gated in BENCHMARK.json:
#: ``fail_ratio`` is 0, and the tail of the short ``merge-elliptic`` steps
#: is set by the host's scheduling spikes (run-to-run spread up to 0.4).
REPORTED = (("step_ms.tail", "ms"), ("fail_ratio", "1"))

PER_LAYER = (
    ("mesh.build_s", "s"), ("config.s", "s"), ("vstep.assemble_s", "s"),
    ("vstep.solve_s", "s"), ("vstep.solves", "count"),
    ("vstep.factor_s", "s"), ("ustep.solve_s", "s"), ("ustep.calls", "count"),
    ("ustep.factor_s", "s"), ("ustep.factorizations", "count"),
    ("ustep.lu_nnz", "count"), ("ustep.other_s", "s"),
    ("ustep.newton_iters", "count"), ("simulation.energy_s", "s"),
    ("simulation.energy_eps_calls", "count"), ("simulation.loop_s", "s"),
    ("output.vtk_s", "s"), ("output.vtk_files", "count"),
    ("output.vtk_bytes", "B"), ("output.csv_s", "s"),
    ("output.csv_bytes", "B"), ("unattributed_s", "s"),
    ("trace_overhead_s", "s"))

#: Counters that must repeat exactly; the ``layers`` ones exist only in
#: traced repetitions.  Byte counts and ``lu_nnz`` are computed from the
#: files and factors, not measured.
EXACT_COUNTERS = ("newton_iters", "csv_bytes", "vtk_files", "vtk_bytes")
EXACT_LAYER_COUNTERS = ("ustep.factorizations", "ustep.lu_nnz",
                        "simulation.energy_eps_calls", "vstep.solves",
                        "ustep.calls")

_SINGLE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def tail_percentile(steps):
    """Highest whole percentile with at least ten of one repetition's
    ``steps`` above it (p90 at 100 steps, p99 at 1000), never below p50.

    It is taken over the steps of all repetitions pooled, so at least
    ``10 * MIN_REPS`` samples lie above it.
    """
    return max(50, math.floor(100.0 * (steps - 10) / steps))


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + data)
        src_lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
    }


def prepare(workload, seed, trace, record_reference):
    """Write the run's config and the spec each repetition reads."""
    from ksdg.config import load_config
    from workloads import DEFAULT_SEED, config_text

    work = OUT / ("%s-seed%d-trace%d" % (workload.name, seed, trace))
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "run.ini"
    vtk_dir = work / "vtk"
    text = config_text(workload, seed, work / "diagnostics.csv", vtk_dir)
    cfg_path.write_text(text)
    cfg = load_config(text)
    snapshots = {m: str(vtk_dir / ("snap_%06d.vtk" % m))
                 for m in (round(t / cfg.params.dt)
                           for t in cfg.snapshot_times)}
    reference = HERE / "reference" / ("%s.csv" % workload.name)
    spec = {
        "config": str(cfg_path),
        "csv": cfg.csv_path,
        "vtk_dir": cfg.vtk_dir,
        "snapshots": snapshots,
        "reference": (str(reference) if seed == DEFAULT_SEED
                      and not record_reference else None),
        "record_reference": str(reference) if record_reference else None,
    }
    steps = max(int(round(cfg.params.t_end / cfg.params.dt)), 1)
    return work, spec, steps


def run_rep(work, spec, name, deadline, trace=False):
    rep_spec = dict(spec, trace=trace,
                    trace_file=str(work / ("spans_%s.json" % name)))
    spec_path = work / ("spec_%s.json" % name)
    result_path = work / ("result_%s.json" % name)
    spec_path.write_text(json.dumps(rep_spec))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **_SINGLE_THREAD)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(spec_path),
             str(result_path)], cwd=str(ROOT), env=env, capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
            check=False)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": "repetition timed out",
                "attempted": 1, "failed": 1}
    if proc.returncode != 0 or not result_path.is_file():
        return {"exit_code": None, "attempted": 1, "failed": 1,
                "error": "rep.py exited %d: %s"
                % (proc.returncode, proc.stderr.strip()[-2000:])}
    return json.loads(result_path.read_text())


def end_to_end(reps, steps):
    pooled = [ms for rep in reps for ms in rep["step_ms"]]
    q = tail_percentile(steps)
    cuts = statistics.quantiles(pooled, n=100, method="inclusive")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "step_ms.p50": cuts[49],
        "step_ms.tail": cuts[q - 1],
        "cell_steps_per_s": statistics.median(
            r["n_cells"] * len(r["step_ms"]) / r["loop_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {"step_ms.tail": "p%d over %d steps" % (q, len(pooled))}
    return values, notes


def per_layer(traced, untraced):
    values = {}
    for name, _unit in PER_LAYER:
        if name == "ustep.newton_iters":
            values[name] = traced[0]["newton_iters"]
        elif name.startswith("output.") and not name.endswith("_s"):
            values[name] = traced[0][name.split(".", 1)[1]]
        elif name == "trace_overhead_s":
            values[name] = (statistics.median(r["wall_s"] for r in traced)
                            - statistics.median(r["wall_s"]
                                                for r in untraced))
        elif name.endswith("_s"):
            values[name] = statistics.median(r["layers"][name]
                                             for r in traced)
        else:
            # exact counters, checked equal across repetitions
            values[name] = traced[0]["layers"][name]
    return values


def counter_mismatches(reps, key):
    """Exact counters that differ between repetitions or from earlier runs.

    ``key`` names the workload, the seed and the ``src/`` digest, so only
    runs of the same code are compared.
    """
    observed = {}
    for rep in reps:
        counts = {name: rep[name] for name in EXACT_COUNTERS}
        if rep.get("layers"):
            counts.update({name: rep["layers"][name]
                           for name in EXACT_LAYER_COUNTERS})
        for name, value in counts.items():
            observed.setdefault(name, set()).add(value)
    bad = ["%s varies within the run: %s" % (name, sorted(vals))
           for name, vals in sorted(observed.items()) if len(vals) > 1]
    store = OUT / "counters.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    earlier = known.setdefault(key, {})
    for name, vals in sorted(observed.items()):
        value = next(iter(vals))
        if name in earlier and earlier[name] != value and len(vals) == 1:
            bad.append("%s is %r, an earlier run had %r"
                       % (name, value, earlier[name]))
        earlier.setdefault(name, value)
    if not bad:
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ksdg  # noqa: F401
    except ImportError as exc:
        print("bench: cannot import ksdg from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + BUDGET_S
    work, spec, steps = prepare(workload, args.seed, args.trace,
                                args.record_reference)

    # a traced run alternates untraced and traced repetitions, starting
    # untraced, so the overhead compares repetitions close in time
    min_reps = MIN_REPS * (1 + args.trace)
    reps, rep_s = [], 0.0
    while (len(reps) < min_reps
           or time.monotonic() - started < args.seconds):
        if time.monotonic() + 1.5 * rep_s > deadline:
            break
        rep_started = time.monotonic()
        trace = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(work, spec, len(reps), deadline, trace=trace))
        rep_s = max(rep_s, time.monotonic() - rep_started)
        if args.record_reference:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [r["error"] for r in reps if r.get("error")]
    for rep in reps:
        problems += rep.get("output_errors", [])
        problems += ["step %s: %s" % (step, ", ".join(checks))
                     for step, checks in list(rep.get("violations",
                                                      {}).items())[:5]]
    ok = [r for r in reps if r["exit_code"] == 0]
    if not ok:
        for line in problems:
            print("bench: %s" % line, file=sys.stderr)
        print("bench: no repetition of %s completed" % workload.name,
              file=sys.stderr)
        return 1
    info = provenance()
    problems += counter_mismatches(ok, "%s/seed%d/%s" % (
        workload.name, args.seed, info["src_sha256"]))

    untraced = [r for r in ok if not r["layers"]]
    traced = [r for r in ok if r["layers"]]
    if not untraced or (args.trace and not traced):
        print("bench: too few repetitions of %s completed" % workload.name,
              file=sys.stderr)
        return 1
    e2e, notes = end_to_end(untraced, steps)
    notes["fail_ratio"] = "%d/%d steps" % (failed, attempted)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = {name: e2e[name] for name, _unit in END_TO_END}
    units = {**dict(END_TO_END), **dict(REPORTED), **dict(PER_LAYER)}

    print("workload %s, seed %d, trace %d: %d repetitions (%d traced) of "
          "%d steps, %s cells"
          % (workload.name, args.seed, args.trace, len(reps), len(traced),
             steps, ok[0]["n_cells"]))
    shown = {**e2e, "fail_ratio": failed / attempted, **metrics}
    for name, value in shown.items():
        print("  %-30s %14.6g %-6s %s"
              % (name, value, units[name], notes.get(name, "")))
    for line in problems:
        print("  problem: %s" % line)
    print("provenance: %s" % json.dumps(info, sort_keys=True))

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }
    (work / "result.json").write_text(json.dumps(
        dict(result, shown=shown, notes=notes, provenance=info,
             repetitions=len(reps), traced_repetitions=len(traced)),
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
