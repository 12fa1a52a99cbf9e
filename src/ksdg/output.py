"""Diagnostics CSV, legacy-format VTK snapshots and the plain-text mesh dump.

Every reader and writer here takes a file path.  Each section of a file
is formatted in blocks of ``CHUNK_ROWS`` rows by one ``%`` on a repeated
line template, which yields the same bytes as one ``%`` per line.

The CSV schema is fixed by one column table: the header is exactly
``CSV_HEADER`` and every float is written with 17 significant digits, so
reloading reproduces the floating-point values bit for bit.

Snapshots use the legacy ASCII VTK unstructured-grid format so files can
be opened by standard viewers and diffed as text.  Points are the mesh
vertices, cells the triangles; the file carries the cell density both as
cell data (``u_p0``, the native representation) and as point data
(``u_p1``, the positivity-preserving lumped vertex average used for
plotting), plus the chemoattractant ``v`` as point data.  A run writes
its snapshots through one ``SnapshotWriter``, which formats the mesh
sections once; on a mesh of ``WRITER_MIN_CELLS`` cells or more, its
child process writes each file while the run computes the next step.

The mesh dump lists the vertices, triangles and the interior and
boundary edge data with their normals, lengths and barycenter distances
(see ``dump_mesh``); it is meant for debugging connectivity by eye.
"""

import contextlib
import io
import signal

import numpy as np

from .fields import (_check_cellfield, _check_nodefield,
                     project_p0_to_p1_lumped)

#: Rows formatted by one ``%``.  Bounds the Python objects and the text
#: alive at once: one block per section of a mesh2 n=128 snapshot raised
#: the peak RSS of a 3-step run by 4.5%.
CHUNK_ROWS = 4096

#: Smallest mesh whose snapshots go to a ``SnapshotWriter``: starting it
#: (fork and first hand-off, about 7 ms) costs as much as formatting a
#: snapshot of some 4000 cells (1.7 us a cell; 2-vCPU Xeon).
WRITER_MIN_CELLS = 4096

#: Diagnostics CSV columns in file order, with the type of each value.
_CSV_COLUMNS = (
    ("step", int), ("time", float), ("mass", float), ("min_u", float),
    ("max_u", float), ("min_v", float), ("max_v", float), ("E", float),
    ("E_eps", float), ("energy_law_lhs", float), ("newton_iters", int),
    ("newton_residual", float),
)

CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)

_CSV_LINE = ",".join("%d" if kind is int else "%.17g"
                     for _, kind in _CSV_COLUMNS) + "\n"


def _write_rows(fh, line, *columns):
    """Write ``line % row`` for every row of ``columns`` placed side by side.

    ``columns`` are arrays with one row per leading index; integer
    columns stacked with float ones are exact below 2**53, and ``%d``
    prints them unchanged.
    """
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        block = np.column_stack([c[start:stop] for c in columns])
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _mesh_text(mesh):
    """The POINTS, CELLS and CELL_TYPES sections of a snapshot of ``mesh``."""
    buf = io.StringIO()
    buf.write("POINTS %d double\n" % mesh.n_vertices)
    _write_rows(buf, "%.17g %.17g 0\n", mesh.vertices)
    buf.write("CELLS %d %d\n" % (mesh.n_cells, 4 * mesh.n_cells))
    _write_rows(buf, "3 %d %d %d\n", mesh.triangles)
    buf.write("CELL_TYPES %d\n" % mesh.n_cells + "5\n" * mesh.n_cells)
    return buf.getvalue()


def write_diagnostics_csv(rows, path):
    """Write diagnostics rows to the CSV file at ``path``."""
    table = np.array([[getattr(row, name) for name, _ in _CSV_COLUMNS]
                      for row in rows], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, _CSV_LINE, table)


def read_diagnostics_csv(path):
    """Read a diagnostics CSV back into ``DiagnosticsRow`` objects."""
    from .simulation import DiagnosticsRow

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a diagnostics CSV (unexpected header)")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise ValueError("malformed diagnostics row: %r" % line)
        rows.append(DiagnosticsRow(**{name: kind(text) for (name, kind), text
                                      in zip(_CSV_COLUMNS, parts)}))
    return rows


def write_vtk_snapshot(mesh, u, v, path, title="snapshot", writer=None):
    """Write one legacy ASCII VTK snapshot of a state to ``path``.

    ``u`` is a cell field, ``v`` a vertex field.  See the module
    docstring for the arrays carried by the file.  Without a ``writer``
    the file is complete when this returns; a ``SnapshotWriter`` must be
    built for ``mesh`` (else ``ValueError``).
    """
    u = _check_cellfield(mesh, u, "u")
    v = _check_nodefield(mesh, v, "v")
    if writer is None:
        _write_snapshot(mesh, _mesh_text(mesh), u, v, path, title)
    elif writer.mesh is not mesh:
        raise ValueError("snapshot writer built for another mesh")
    else:
        writer.write(u, v, path, title)


def _write_snapshot(mesh, mesh_text, u, v, path, title):
    """Format and write one snapshot; calls no BLAS routine (see
    ``SnapshotWriter``)."""
    u_p1 = project_p0_to_p1_lumped(mesh, u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n%s\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n" % title.replace("\n", " "))
        fh.write(mesh_text)
        fh.write("POINT_DATA %d\nSCALARS u_p1 double\nLOOKUP_TABLE default\n"
                 % mesh.n_vertices)
        _write_rows(fh, "%.17g\n", u_p1)
        fh.write("SCALARS v double\nLOOKUP_TABLE default\n")
        _write_rows(fh, "%.17g\n", v)
        fh.write("CELL_DATA %d\nSCALARS u_p0 double\nLOOKUP_TABLE default\n"
                 % mesh.n_cells)
        _write_rows(fh, "%.17g\n", u)


class SnapshotWriter:
    """Writes the snapshots of one run on ``mesh``, whose sections it
    formats once; on a mesh of ``WRITER_MIN_CELLS`` cells or more, one
    child process writes the files while the run goes on.

    Each hand-off waits for the previous file, so at most one is in
    flight, and a file is complete once the next ``write`` or ``close``
    returns.  An error in the child, or its death, raises ``OSError`` at
    the next hand-off or at ``close``; on leaving a ``with`` block, an
    exception already propagating wins.  The child is forked where the
    platform offers ``fork``, else spawned.  It calls no BLAS routine, so
    forking under a threaded BLAS is safe (Python >= 3.12 still warns).
    """

    _process = _conn = _pending = _text = None

    def __init__(self, mesh):
        self.mesh = mesh

    def write(self, u, v, path, title):
        if self._text is None:
            self._text = _mesh_text(self.mesh)
        if self.mesh.n_cells < WRITER_MIN_CELLS:
            return _write_snapshot(self.mesh, self._text, u, v, path, title)
        if self._process is None:
            import multiprocessing  # paid only by runs that start a writer
            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")
            self._conn, child_conn = ctx.Pipe()
            self._process = ctx.Process(target=_serve, daemon=True, args=(
                child_conn, self._conn, self.mesh, self._text))
            self._process.start()
            child_conn.close()      # so a dead child is EOF here
        self._wait()
        self._pending = path
        try:
            self._conn.send((u, v, path, title))
        except ConnectionError:
            self._wait()            # the child is gone: EOF names the file

    def _wait(self):
        path, self._pending = self._pending, None
        if path is not None:
            try:
                error = self._conn.recv()
            except (EOFError, ConnectionError):
                # a child that died with a job unread resets the connection
                error = "the writer process exited"
            if error:
                raise OSError("snapshot %s not written: %s" % (path, error))

    def close(self):
        """Wait for the last file, then stop and join the child."""
        if self._process is not None:
            try:
                self._wait()
            finally:
                with contextlib.suppress(ConnectionError):
                    self._conn.send(None)
                self._conn.close()
                self._process.join()
                self._process = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.close()
        except OSError:
            if exc_type is None:
                raise


def _serve(conn, parent_conn, mesh, mesh_text):
    """Child of ``SnapshotWriter``: write each job until ``None`` or EOF,
    answering with ``None`` or the error text."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the parent's
    parent_conn.close()     # so a dead parent ends the loop
    with contextlib.suppress(EOFError, ConnectionError):
        for job in iter(conn.recv, None):
            error = None
            try:
                _write_snapshot(mesh, mesh_text, *job)
            except Exception as exc:    # the parent raises it
                error = "%s: %s" % (type(exc).__name__, exc)
            conn.send(error)


def dump_mesh(mesh, path):
    """Write a plain-text mesh dump for debugging to ``path``.

    Format: a header line, then ``vertices <nv>`` followed by one
    ``x y`` line per vertex, ``triangles <nt>`` with ``a b c`` lines,
    ``interior_edges <ne>`` with ``a b K L |e| nx ny D`` lines and
    ``boundary_edges <nb>`` with ``a b K |e| nx ny`` lines.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# triangular mesh dump\npattern %s\nsquare_side %s\n"
                 "vertices %d\n"
                 % (mesh.pattern or "custom",
                    "none" if mesh.square_side is None
                    else repr(mesh.square_side), mesh.n_vertices))
        _write_rows(fh, "%.17g %.17g\n", mesh.vertices)
        fh.write("triangles %d\n" % mesh.n_cells)
        _write_rows(fh, "%d %d %d\n", mesh.triangles)
        fh.write("interior_edges %d\n" % mesh.n_interior_edges)
        _write_rows(fh, "%d %d %d %d %.17g %.17g %.17g %.17g\n",
                    mesh.edge_vertices, mesh.edge_cells, mesh.edge_lengths,
                    mesh.edge_normals, mesh.edge_dists)
        fh.write("boundary_edges %d\n" % mesh.n_boundary_edges)
        _write_rows(fh, "%d %d %d %.17g %.17g %.17g\n",
                    mesh.bedge_vertices, mesh.bedge_cell,
                    mesh.bedge_lengths, mesh.bedge_normals)
