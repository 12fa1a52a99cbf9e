import os

import pytest

import ksdg
from ksdg import read_diagnostics_csv, ustep
from ksdg.cli import main


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from ksdg import *", namespace)
    for name in ksdg.__all__:
        assert namespace[name] is getattr(ksdg, name)


def test_presets_lists_three_names(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("one_bulge", "three_bulges", "multi_peak"):
        assert name in out


def test_verify_mesh_passes_for_valid_pattern(capsys):
    assert main(["verify-mesh", "mesh2", "3"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "FAILED" not in out


def test_verify_mesh_accepts_capitalized_pattern(capsys):
    assert main(["verify-mesh", "Mesh1", "4"]) == 0


def test_verify_mesh_odd_count_fails_with_parity_message(capsys):
    assert main(["verify-mesh", "Mesh1", "3"]) == 1
    err = capsys.readouterr().err
    assert "even" in err


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_missing_config_file_exits_1(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[params]\ntau = 2\n")
    assert main(["run", str(cfg)]) == 1
    assert "tau" in capsys.readouterr().err


def test_run_end_to_end_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    csv_path = tmp_path / "diag.csv"
    vtk_dir = tmp_path / "snaps"
    cfg.write_text(
        "[mesh]\n"
        "pattern = mesh1\n"
        "n = 32\n"
        "[initial]\n"
        "preset = one_bulge\n"
        "[params]\n"
        "t_end = 1e-5\n"
        "[output]\n"
        "csv = %s\n"
        "vtk_dir = %s\n"
        "snapshot_times = 0 5e-6 1e-5\n" % (csv_path, vtk_dir))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "completed 10 steps" in out

    rows = read_diagnostics_csv(csv_path)
    assert len(rows) == 11
    assert rows[-1].step == 10
    assert min(r.min_u for r in rows) >= 0.0

    snaps = sorted(os.listdir(vtk_dir))
    assert len(snaps) == 3
    assert snaps[0] == "snap_000000.vtk"


def test_run_failure_exits_1_and_keeps_partial_csv(tmp_path, capsys,
                                                   monkeypatch):
    # one Newton iteration does not bring step 1 to round-off
    monkeypatch.setattr(ustep, "NEWTON_MAX_ITERS", 1)
    cfg = tmp_path / "run.cfg"
    csv_path = tmp_path / "diag.csv"
    cfg.write_text(
        "[mesh]\n"
        "pattern = mesh1\n"
        "n = 16\n"
        "[initial]\n"
        "preset = one_bulge\n"
        "[params]\n"
        "t_end = 1e-5\n"
        "[output]\n"
        "csv = %s\n" % csv_path)
    assert main(["run", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err
    # the initial row was still written
    rows = read_diagnostics_csv(csv_path)
    assert len(rows) == 1 and rows[0].step == 0
