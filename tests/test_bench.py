"""The benchmark's repetition script still finds every layer it traces."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_repetition_runs_a_tiny_config(tmp_path):
    vtk_dir = tmp_path / "vtk"
    config = tmp_path / "run.ini"
    config.write_text(
        "[mesh]\npattern = mesh1\nn = 4\n"
        "[initial]\npreset = one_bulge\n"
        "[params]\nt_end = 3e-6\n"
        "[output]\ncsv = %s\nvtk_dir = %s\nsnapshot_times = 0 3e-6\n"
        % (tmp_path / "diagnostics.csv", vtk_dir))
    spec = {
        "config": str(config),
        "csv": str(tmp_path / "diagnostics.csv"),
        "vtk_dir": str(vtk_dir),
        "snapshots": {m: str(vtk_dir / ("snap_%06d.vtk" % m)) for m in (0, 3)},
        "reference": None,
        "record_reference": None,
        "trace": True,
        "trace_file": str(tmp_path / "spans.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result_path = tmp_path / "result.json"

    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "rep.py"), str(spec_path),
         str(result_path)], cwd=str(ROOT), capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=300,
        check=False)

    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 0, result["error"]
    assert result["failed"] == 0, result
    assert result["layers"]["ustep.calls"] > 0
    assert result["layers"]["ustep.solve_s"] > 0.0
    # the iterative Newton solves (Jacobi sweeps on this q <= 1/2 run,
    # BiCGSTAB above 1/2) call no scipy entry point; no LU fallback fires
    assert result["layers"]["ustep.factorizations"] == 0
    assert result["layers"]["mesh.build_s"] > 0.0
    assert result["layers"]["output.vtk_s"] > 0.0
    # the diagonally dominant v system is solved by CG, never factored
    assert result["layers"]["vstep.solve_s"] > 0.0
    assert result["layers"]["vstep.factor_s"] == 0.0
