"""The per-run snapshot writer: its child process, its errors, its files.

The writer only takes meshes of ``WRITER_MIN_CELLS`` cells or more, so
these tests lower that bound to run it on mesh1 n=4 (32 cells).  The
failure paths run in a subprocess with a timeout, so a deadlock between
the run and its writer fails the test instead of hanging the suite.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from ksdg import output, simulation
from ksdg.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Shared head of the scripts below: ``run_config(out)`` runs one_bulge on
#: mesh1 n=4 to t = 3e-6 with a CSV and a snapshot at each of the steps 0
#: to 3 in ``out``, and ``inline_files(out)`` returns the bytes the inline
#: writer leaves for the same run.
PRELUDE = """
import multiprocessing, os, signal, sys
from ksdg import output, simulation
from ksdg.config import load_config
from ksdg.output import read_diagnostics_csv
from ksdg.simulation import StepFailureError
from ksdg.ustep import UStepError

output.WRITER_MIN_CELLS = 0


def run_config(out):
    return simulation.run(load_config(
        "[mesh]\\npattern = mesh1\\nn = 4\\n[initial]\\npreset = one_bulge\\n"
        "[params]\\nt_end = 3e-6\\n[output]\\ncsv = %s\\nvtk_dir = %s\\n"
        "snapshot_times = 0 1e-6 2e-6 3e-6\\n"
        % (os.path.join(out, "diag.csv"), os.path.join(out, "vtk"))))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def inline_files(out):
    bound, output.WRITER_MIN_CELLS = output.WRITER_MIN_CELLS, 10 ** 9
    try:
        run_config(out)
    finally:
        output.WRITER_MIN_CELLS = bound
    vtk = os.path.join(out, "vtk")
    return {name: read(os.path.join(vtk, name)) for name in os.listdir(vtk)}


SOLVE = simulation.solve_u_step


def fail_step(m, action=None):
    # make the density solve of step m of the next run fail, or run
    # ``action`` before it
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == m:
            if action is not None:
                action()
            else:
                raise UStepError("injected failure")
        return SOLVE(*args, **kwargs)

    simulation.solve_u_step = patched


def csv_steps(out):
    rows = read_diagnostics_csv(os.path.join(out, "diag.csv"))
    return [row.step for row in rows]
"""


def run_script(tmp_path, body):
    """Run PRELUDE + ``body`` in a fresh interpreter, inside ``main()``
    so that spawned children can import the script."""
    script = tmp_path / "script.py"
    script.write_text(PRELUDE + "\n\ndef main(tmp):\n"
                      + textwrap.indent(textwrap.dedent(body), "    ")
                      + "\n    print('done')\n\n\nif __name__ == '__main__':\n"
                      "    main(sys.argv[1])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "done"


class TestFailures:
    def test_directory_at_a_snapshot_path_raises_oserror(self, tmp_path):
        run_script(tmp_path, """
            out = os.path.join(tmp, "run")
            os.makedirs(os.path.join(out, "vtk", "snap_000001.vtk"))
            try:
                run_config(out)
            except OSError as exc:
                assert type(exc) is OSError, repr(exc)
                assert "snap_000001.vtk" in str(exc), exc
                assert "IsADirectoryError" in str(exc), exc
            else:
                raise AssertionError("no OSError")
            # the failure shows at the hand-off after step 2
            assert csv_steps(out) == [0, 1, 2], csv_steps(out)
            assert multiprocessing.active_children() == []
        """)

    def test_step_failure_wins_over_the_snapshot_in_flight(self, tmp_path):
        run_script(tmp_path, """
            want = inline_files(os.path.join(tmp, "inline"))
            fail_step(2)
            out = os.path.join(tmp, "run")
            try:
                run_config(out)
            except StepFailureError as exc:
                assert exc.step == 2, exc.step
            else:
                raise AssertionError("no StepFailureError")
            vtk = os.path.join(out, "vtk")
            assert sorted(os.listdir(vtk)) == ["snap_000000.vtk",
                                               "snap_000001.vtk"]
            for name in os.listdir(vtk):
                assert read(os.path.join(vtk, name)) == want[name], name
            assert csv_steps(out) == [0, 1]
            assert multiprocessing.active_children() == []

            # the snapshot in flight fails too: the step failure still wins
            fail_step(2)
            out = os.path.join(tmp, "both")
            os.makedirs(os.path.join(out, "vtk", "snap_000001.vtk"))
            try:
                run_config(out)
            except StepFailureError:
                pass
            else:
                raise AssertionError("no StepFailureError")
            assert multiprocessing.active_children() == []
        """)

    def test_killed_writer_raises_oserror(self, tmp_path):
        run_script(tmp_path, """
            def kill_writer():
                child, = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                child.join(60)
                assert not child.is_alive()

            fail_step(2, kill_writer)
            try:
                run_config(os.path.join(tmp, "run"))
            except OSError as exc:
                assert "writer process exited" in str(exc), exc
            else:
                raise AssertionError("no OSError")
            assert multiprocessing.active_children() == []
        """)

    def test_writer_killed_with_an_unread_file_raises_oserror(self,
                                                              tmp_path):
        # the child stops before it reads the step-0 file and is killed at
        # step 1: its socket closes with the file unread, and the run's
        # next hand-off sees a reset connection rather than EOF
        run_script(tmp_path, """
            serve = output._serve

            def stopped_serve(*args):
                os.kill(os.getpid(), signal.SIGSTOP)
                serve(*args)

            def kill_writer():
                child, = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                child.join(60)
                assert not child.is_alive()

            assert "fork" in multiprocessing.get_all_start_methods()
            output._serve = stopped_serve
            fail_step(1, kill_writer)
            out = os.path.join(tmp, "run")
            try:
                run_config(out)
            except OSError as exc:
                assert type(exc) is OSError, repr(exc)
                assert "snap_000000.vtk" in str(exc), exc
                assert "writer process exited" in str(exc), exc
            else:
                raise AssertionError("no OSError")
            assert csv_steps(out) == [0, 1], csv_steps(out)
            assert multiprocessing.active_children() == []
        """)


class TestLifecycle:
    @pytest.fixture
    def starts(self, monkeypatch):
        # the cell count of mesh1 n=4: its snapshots just reach the writer
        monkeypatch.setattr(output, "WRITER_MIN_CELLS", 32)
        counted = []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: (counted.append(proc),
                                          start(proc))[1])
        return counted

    @staticmethod
    def config(tmp_path, output_lines):
        return load_config("[mesh]\npattern = mesh1\nn = 4\n[initial]\n"
                           "preset = one_bulge\n[params]\nt_end = 3e-6\n"
                           "[output]\n" + output_lines % tmp_path)

    def test_no_process_without_a_due_snapshot(self, tmp_path, starts):
        simulation.run(self.config(tmp_path, "vtk_dir = %s/vtk\n"
                                             "snapshot_times =\n"))
        simulation.run(self.config(tmp_path, "csv = %s/diag.csv\n"))
        assert starts == []
        assert os.listdir(tmp_path / "vtk") == []

    def test_one_process_per_run(self, tmp_path, starts):
        cfg = self.config(tmp_path, "vtk_dir = %s/vtk\n"
                                    "snapshot_times = 0 1e-6 3e-6\n")
        simulation.run(cfg)
        assert len(starts) == 1
        assert not starts[0].is_alive() and starts[0].exitcode == 0
        simulation.run(cfg)
        assert len(starts) == 2
        assert not starts[1].is_alive() and starts[1].exitcode == 0
        assert sorted(os.listdir(tmp_path / "vtk")) == [
            "snap_000000.vtk", "snap_000001.vtk", "snap_000003.vtk"]

    def test_small_mesh_writes_inline(self, tmp_path, starts, monkeypatch):
        monkeypatch.setattr(output, "WRITER_MIN_CELLS", 33)
        simulation.run(self.config(tmp_path, "vtk_dir = %s/vtk\n"
                                             "snapshot_times = 0 3e-6\n"))
        assert starts == []
        assert len(os.listdir(tmp_path / "vtk")) == 2

    def test_spawned_writer_files_equal_inline(self, tmp_path):
        run_script(tmp_path, """
            want = inline_files(os.path.join(tmp, "inline"))
            # a platform without fork
            multiprocessing.get_all_start_methods = lambda: ["spawn"]
            starts = []
            start = multiprocessing.process.BaseProcess.start
            multiprocessing.process.BaseProcess.start = (
                lambda proc: (starts.append(proc._start_method),
                              start(proc))[1])
            out = os.path.join(tmp, "run")
            run_config(out)
            assert starts == ["spawn"], starts
            vtk = os.path.join(out, "vtk")
            assert sorted(os.listdir(vtk)) == sorted(want)
            for name in want:
                assert read(os.path.join(vtk, name)) == want[name], name
            assert multiprocessing.active_children() == []
        """)
