import dataclasses
import io
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksdg import (CSV_HEADER, ModelParams, TriMesh, build_structured_mesh,
                  dump_mesh, output, project_p0_to_p1_lumped,
                  read_diagnostics_csv, simulate, simulation,
                  write_diagnostics_csv, write_vtk_snapshot)
from ksdg.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_run_rows(n_steps=5):
    mesh = build_structured_mesh("mesh2", 2)
    xs, ys = mesh.barycenters[:, 0], mesh.barycenters[:, 1]
    u0 = 10.0 * np.exp(-4.0 * (xs ** 2 + ys ** 2))
    v0 = 5.0 * np.exp(-2.0 * (mesh.vertices[:, 0] ** 2
                              + mesh.vertices[:, 1] ** 2))
    params = ModelParams(dt=1e-4, t_end=n_steps * 1e-4)
    return mesh, [r for _, r in simulate(mesh, params, u0, v0)]


def parse_vtk(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    sections = {}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        if not tok:
            i += 1
            continue
        if tok[0] == "POINTS":
            count = int(tok[1])
            sections["points"] = np.array(
                [[float(x) for x in lines[i + 1 + j].split()]
                 for j in range(count)])
            i += count + 1
        elif tok[0] == "CELLS":
            count = int(tok[1])
            sections["cells"] = np.array(
                [[int(x) for x in lines[i + 1 + j].split()]
                 for j in range(count)])
            i += count + 1
        elif tok[0] == "CELL_TYPES":
            count = int(tok[1])
            sections["cell_types"] = [int(lines[i + 1 + j])
                                      for j in range(count)]
            i += count + 1
        elif tok[0] == "SCALARS":
            name = tok[1]
            count = (len(sections["points"]) if "CELL_DATA" not in
                     sections else len(sections["cells"]))
            values = [float(lines[i + 2 + j]) for j in range(count)]
            sections[name] = np.array(values)
            i += count + 2
        elif tok[0] in ("POINT_DATA", "CELL_DATA"):
            sections[tok[0]] = int(tok[1])
            i += 1
        else:
            i += 1
    return sections


class TestCsv:
    def test_header_is_fixed(self):
        assert CSV_HEADER == ("step,time,mass,min_u,max_u,min_v,max_v,E,"
                              "E_eps,energy_law_lhs,newton_iters,"
                              "newton_residual")

    def test_columns_are_the_row_fields_without_the_clamps(self):
        # one record defines the CSV, reachable from its old home too
        assert simulation.DiagnosticsRow is output.DiagnosticsRow
        names = [f.name for f in dataclasses.fields(output.DiagnosticsRow)]
        assert names == CSV_HEADER.split(",") + ["u_clamp", "v_clamp"]

    def test_roundtrip_bit_exact(self, tmp_path):
        _, rows = small_run_rows()
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        back = read_diagnostics_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.step == b.step
            for name in ("time", "mass", "min_u", "max_u", "min_v", "max_v",
                         "E", "E_eps", "energy_law_lhs", "newton_residual"):
                assert getattr(a, name) == getattr(b, name)
            assert a.newton_iters == b.newton_iters
        # rewriting the reloaded rows reproduces the bytes
        path2 = tmp_path / "again.csv"
        write_diagnostics_csv(back, path2)
        assert path2.read_text() == text

    def test_writes_to_path(self, tmp_path):
        _, rows = small_run_rows(2)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(rows, path)
        assert read_diagnostics_csv(path)[0].step == 0

    def test_reader_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_diagnostics_csv(path)

    @pytest.mark.parametrize("fields", [11, 13])
    def test_reader_rejects_wrong_field_count(self, tmp_path, fields):
        path = tmp_path / "diag.csv"
        path.write_text(CSV_HEADER + "\n0" + ",1" * (fields - 1) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_diagnostics_csv(path)

    def test_matches_golden_file(self, tmp_path):
        # frozen 10-step trajectory; any formatting or scheme drift shows
        # up as a diff against the committed file
        mesh, rows = small_run_rows(10)
        path = tmp_path / "got.csv"
        write_diagnostics_csv(rows, path)
        golden = os.path.join(os.path.dirname(__file__), "data",
                              "golden_10step.csv")
        assert path.read_text() == open(golden).read()


class TestVtk:
    def test_crisscross_snapshot_well_formed(self, tmp_path):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        u = np.array([1.0, 2.0, 3.0, 4.0])
        v = np.linspace(0.0, 1.0, 5)
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(mesh, u, v, path)
        sections = parse_vtk(path)
        assert len(sections["points"]) == 5
        assert len(sections["cells"]) == 4
        assert sections["cell_types"] == [5] * 4
        assert np.all(sections["cells"][:, 0] == 3)
        assert np.allclose(sections["points"][:, 2], 0.0)

    def test_field_values_roundtrip(self, tmp_path):
        mesh = build_structured_mesh("mesh1", 2, (0, 1, 0, 1))
        u = np.arange(1.0, mesh.n_cells + 1)
        v = np.arange(0.0, mesh.n_vertices) / 7.0
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(mesh, u, v, path)
        sections = parse_vtk(path)
        assert np.array_equal(sections["u_p0"], u)
        assert np.array_equal(sections["v"], v)
        assert np.array_equal(sections["u_p1"],
                              project_p0_to_p1_lumped(mesh, u))

    def test_constant_fields_roundtrip(self, tmp_path):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        u = np.full(mesh.n_cells, 3.25)
        v = np.full(mesh.n_vertices, -1.5)
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(mesh, u, v, path)
        sections = parse_vtk(path)
        assert np.all(sections["u_p0"] == 3.25)
        assert np.all(sections["u_p1"] == pytest.approx(3.25, abs=1e-14))
        assert np.all(sections["v"] == -1.5)

    def test_initial_bulge_peaks_at_center(self, tmp_path):
        mesh = build_structured_mesh("mesh1", 16)
        xs, ys = mesh.barycenters[:, 0], mesh.barycenters[:, 1]
        u = 1000.0 * np.exp(-100.0 * (xs ** 2 + ys ** 2))
        v = np.zeros(mesh.n_vertices)
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(mesh, u, v, path)
        sections = parse_vtk(path)
        peak = np.argmax(sections["u_p1"])
        assert np.linalg.norm(sections["points"][peak, :2]) < 0.05

    def test_shape_mismatch_rejected(self, tmp_path):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="shape"):
            write_vtk_snapshot(mesh, np.zeros(3), np.zeros(5),
                               tmp_path / "x.vtk")

    def test_alternating_meshes_match_the_oracle(self, rng, tmp_path):
        # the kept mesh text is replaced at each change of mesh: an equal
        # mesh built again is another mesh, and so is a different one
        first = build_structured_mesh("mesh2", 2)
        meshes = [first, first, build_structured_mesh("mesh2", 2),
                  build_structured_mesh("mesh1", 4), first]
        output._mesh_text.cache_clear()
        for i, mesh in enumerate(meshes):
            u = rng.standard_normal(mesh.n_cells)
            v = rng.standard_normal(mesh.n_vertices)
            write_vtk_snapshot(mesh, u, v, tmp_path / "got.vtk",
                               title="t=%d" % i)
            oracle_vtk(mesh, u, v, tmp_path / "want.vtk", title="t=%d" % i)
            assert (tmp_path / "got.vtk").read_bytes() == (
                tmp_path / "want.vtk").read_bytes(), i
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (1, 4)

    def test_every_line_break_in_the_title_becomes_a_space(self, tmp_path):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(mesh, np.ones(4), np.ones(5), path,
                           title="a\rb\r\nc\u2028d")
        assert path.read_text().splitlines()[1] == "a b  c d"
        assert len(parse_vtk(path)["u_p0"]) == 4

    def test_title_breaks_are_those_of_splitlines(self):
        breaks = {c for c in map(chr, range(sys.maxunicode + 1))
                  if len(("a%sb" % c).splitlines()) == 2}
        assert set(map(chr, output._TITLE_BREAKS)) == breaks

    def test_title_over_255_bytes_rejected(self, tmp_path):
        # the legacy header line holds 256 bytes with its newline
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        write_vtk_snapshot(mesh, np.ones(4), np.ones(5), tmp_path / "ok.vtk",
                           title="t" * 255)
        for title in ("t" * 400, "\u00e9" * 128):
            with pytest.raises(ValueError, match="255 bytes"):
                write_vtk_snapshot(mesh, np.ones(4), np.ones(5),
                                   tmp_path / "x.vtk", title=title)
        assert not (tmp_path / "x.vtk").exists()
        assert parse_vtk(tmp_path / "ok.vtk")["cell_types"] == [5] * 4

    def test_rejected_snapshot_keeps_the_kept_mesh_text(self, tmp_path):
        # a title or field is checked before any mesh text is formatted,
        # so a rejected snapshot of another mesh leaves the last one kept
        kept = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        other = build_structured_mesh("mesh1", 2)
        output._mesh_text.cache_clear()
        write_vtk_snapshot(kept, np.ones(4), np.ones(5), tmp_path / "a.vtk")
        with pytest.raises(ValueError, match="255 bytes"):
            write_vtk_snapshot(other, np.ones(other.n_cells),
                               np.ones(other.n_vertices), tmp_path / "x.vtk",
                               title="t" * 256)
        with pytest.raises(ValueError, match="shape"):
            write_vtk_snapshot(other, np.ones(4), np.ones(other.n_vertices),
                               tmp_path / "x.vtk")
        write_vtk_snapshot(kept, np.ones(4), np.ones(5), tmp_path / "b.vtk")
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert not (tmp_path / "x.vtk").exists()
        assert (tmp_path / "a.vtk").read_bytes() == (
            tmp_path / "b.vtk").read_bytes()


# -- oracles: the per-line writers the block writers replaced --

def oracle_vtk(mesh, u, v, path, title="snapshot"):
    u_p1 = project_p0_to_p1_lumped(mesh, u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("%s\n" % title.replace("\n", " "))
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.n_vertices)
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g 0\n" % (x, y))
        fh.write("CELLS %d %d\n" % (mesh.n_cells, 4 * mesh.n_cells))
        for a, b, c in mesh.triangles:
            fh.write("3 %d %d %d\n" % (a, b, c))
        fh.write("CELL_TYPES %d\n" % mesh.n_cells)
        fh.write("5\n" * mesh.n_cells)
        fh.write("POINT_DATA %d\n" % mesh.n_vertices)
        fh.write("SCALARS u_p1 double\nLOOKUP_TABLE default\n")
        for value in u_p1:
            fh.write("%.17g\n" % value)
        fh.write("SCALARS v double\nLOOKUP_TABLE default\n")
        for value in v:
            fh.write("%.17g\n" % value)
        fh.write("CELL_DATA %d\n" % mesh.n_cells)
        fh.write("SCALARS u_p0 double\nLOOKUP_TABLE default\n")
        for value in u:
            fh.write("%.17g\n" % value)


def oracle_dump(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# triangular mesh dump\n")
        fh.write("pattern %s\n" % (mesh.pattern or "custom"))
        fh.write("square_side %s\n" % ("none" if mesh.square_side is None
                                       else repr(mesh.square_side)))
        fh.write("vertices %d\n" % mesh.n_vertices)
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g\n" % (x, y))
        fh.write("triangles %d\n" % mesh.n_cells)
        for a, b, c in mesh.triangles:
            fh.write("%d %d %d\n" % (a, b, c))
        fh.write("interior_edges %d\n" % mesh.n_interior_edges)
        for i in range(mesh.n_interior_edges):
            a, b = mesh.edge_vertices[i]
            k, l = mesh.edge_cells[i]
            nx, ny = mesh.edge_normals[i]
            fh.write("%d %d %d %d %.17g %.17g %.17g %.17g\n"
                     % (a, b, k, l, mesh.edge_lengths[i], nx, ny,
                        mesh.edge_dists[i]))
        fh.write("boundary_edges %d\n" % mesh.n_boundary_edges)
        for i in range(mesh.n_boundary_edges):
            a, b = mesh.bedge_vertices[i]
            nx, ny = mesh.bedge_normals[i]
            fh.write("%d %d %d %.17g %.17g %.17g\n"
                     % (a, b, mesh.bedge_cell[i], mesh.bedge_lengths[i],
                        nx, ny))


#: Values whose 17-digit text is easy to get wrong: a signed zero, the
#: smallest subnormal, a value near overflow and negatives.
EXTREMES = np.array([-0.0, 5e-324, 1e300, -1e300, -3.75])


def extreme_field(n, rng):
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:len(EXTREMES)] = EXTREMES[:n]
    return values


def assert_matches_oracles(mesh, rng, tmp_path):
    # formatted afresh, at the chunk size in force, then reused twice
    output._mesh_text.cache_clear()
    u = extreme_field(mesh.n_cells, rng)
    v = extreme_field(mesh.n_vertices, rng)
    for title in ("t=1e-05", "t=1e-05", "t=2e-05"):
        write_vtk_snapshot(mesh, u, v, tmp_path / "got.vtk", title=title)
        oracle_vtk(mesh, u, v, tmp_path / "want.vtk", title=title)
        assert (tmp_path / "got.vtk").read_bytes() == (
            tmp_path / "want.vtk").read_bytes()
        u, v = u[::-1].copy(), v[::-1].copy()
    info = output._mesh_text.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    dump_mesh(mesh, tmp_path / "got.txt")
    oracle_dump(mesh, tmp_path / "want.txt")
    assert (tmp_path / "got.txt").read_bytes() == (
        tmp_path / "want.txt").read_bytes()


class TestBlockWriters:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("section", ["n_vertices", "n_cells",
                                         "n_interior_edges",
                                         "n_boundary_edges"])
    @pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
    def test_bytes_equal_per_line_oracle_around_chunk_size(
            self, monkeypatch, rng, tmp_path, pattern, section, offset):
        mesh = build_structured_mesh(pattern, 4)
        # the section holds one row fewer than, as many as, or one more
        # than a chunk
        monkeypatch.setattr(output, "CHUNK_ROWS",
                            getattr(mesh, section) - offset)
        assert_matches_oracles(mesh, rng, tmp_path)

    def test_bytes_equal_oracle_at_default_chunk_size(self, rng, tmp_path):
        mesh = build_structured_mesh("mesh2", 32)
        assert mesh.n_cells == output.CHUNK_ROWS
        assert_matches_oracles(mesh, rng, tmp_path)

    def test_single_triangle_has_an_empty_edge_block(self, rng, tmp_path):
        mesh = TriMesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
        assert mesh.n_interior_edges == 0
        assert_matches_oracles(mesh, rng, tmp_path)
        text = (tmp_path / "got.txt").read_text().splitlines()
        assert text[text.index("interior_edges 0") + 1] == "boundary_edges 3"


#: Every line template the package writes.
TEMPLATES = [
    "%.17g %.17g 0\n",                             # VTK points
    "3 %d %d %d\n",                                # VTK cells
    "%.17g\n",                                     # VTK data
    output._CSV_LINE,
    "%.17g %.17g\n",                               # dump vertices
    "%d %d %d\n",                                  # dump triangles
    "%d %d %d %d %.17g %.17g %.17g %.17g\n",        # dump interior edges
    "%d %d %d %.17g %.17g %.17g\n",                 # dump boundary edges
]


def test_templates_are_those_the_package_writes(monkeypatch, tmp_path):
    used = set()
    write_rows = output._write_rows
    monkeypatch.setattr(output, "_write_rows", lambda fh, line, *columns: (
        used.add(line), write_rows(fh, line, *columns)))
    mesh, rows = small_run_rows(1)
    write_vtk_snapshot(mesh, np.ones(mesh.n_cells),
                       np.ones(mesh.n_vertices), tmp_path / "s.vtk")
    write_diagnostics_csv(rows, tmp_path / "d.csv")
    dump_mesh(mesh, tmp_path / "m.txt")
    assert used == set(TEMPLATES)


def per_value_text(line, columns):
    """The oracle: ``line % row`` for each row, one ``%`` per value."""
    return "".join(line % tuple(row) for row in zip(
        *(column.tolist() for column in columns)))


def block_text(line, *columns):
    buf = io.StringIO()
    output._write_rows(buf, line, *columns)
    return buf.getvalue()


#: Any float64: every bit pattern alike, and Hypothesis' own choice, which
#: favours NaN, infinities, signed zeros, subnormals and bounds.
any_float = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(width=64))
any_int = st.integers(-2 ** 63, 2 ** 63 - 1)


class TestBlockKernel:
    @pytest.mark.parametrize("rows", [0, 1, output.CHUNK_ROWS - 1,
                                      output.CHUNK_ROWS,
                                      output.CHUNK_ROWS + 1])
    @pytest.mark.parametrize("line", TEMPLATES)
    @settings(max_examples=5, deadline=None)
    @given(floats=st.lists(any_float, min_size=1, max_size=40),
           ints=st.lists(any_int, min_size=1, max_size=40))
    @example(floats=[np.nan, -0.0, 5e-324, 1e-269, -np.inf, 0.1],
             ints=[-2 ** 63, 2 ** 63 - 1, 0, -1, 10])
    def test_bytes_equal_per_value_percent(self, line, rows, floats, ints):
        # the drawn values, repeated to fill the block, one column a field
        kinds = output._FIELD.findall(line)
        fill = {".17g": np.resize(np.array(floats), rows * len(kinds)),
                "d": np.resize(np.array(ints, dtype=np.int64),
                               rows * len(kinds))}
        columns = [fill[kind][i::len(kinds)] for i, kind in enumerate(kinds)]
        assert block_text(line, *columns) == per_value_text(line, columns)

    def assert_g17_matches(self, values):
        """``%.17g`` of ``values`` through the kernel equals ``%``, and the
        kernel leaves some to ``%`` and decides the others itself."""
        values = np.array(values, dtype=np.float64)
        assert block_text("%.17g\n", values) == per_value_text(
            "%.17g\n", [values])
        undecided = output._g17_digits(values)[2]
        assert 0 < len(undecided) < len(values)
        return undecided

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
        self.assert_g17_matches(np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))
        # the double nearest to 1e-269 lies just below it: its product
        # with 10**285 is 1e16 plus a negative low part
        assert block_text("%.17g\n", np.array([1e-269])) == (
            "9.9999999999999996e-270\n")

    def test_exact_ties_round_half_to_even(self):
        ties = np.array([1000000000000000.25, 1000000000000000.75,
                         -1000000000000000.25, 100000000000000.125,
                         100000000000000.375, 4503599627370495.5])
        assert block_text("%.17g\n", ties).split() == [
            "1000000000000000.2", "1000000000000000.8",
            "-1000000000000000.2", "100000000000000.12",
            "100000000000000.38", "4503599627370495.5"]
        # ties go to %; their neighbours do not
        undecided = self.assert_g17_matches(np.concatenate([
            ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))
        assert set(undecided) == {0, 1, 2, 3, 4}

    def test_values_rounding_up_into_the_next_decade(self):
        # the doubles nearest to 10**k that lie below it but whose 17
        # digits round up to 10**k: the kernel decides them itself
        ups = []
        for k in range(-323, 309):
            x = float("1e%d" % k)
            if Fraction(x) < Fraction(10) ** k and not (
                    "%.17g" % x).startswith("9"):
                ups.append(x)
        assert len(ups) >= 10
        # exact powers of ten scaled down by 10 land on the decade
        # boundary within the product's error bound: they go to %
        boundary = [1e17, 1e18, 1e22]
        undecided = self.assert_g17_matches(ups + boundary)
        assert list(undecided) == [len(ups), len(ups) + 1, len(ups) + 2]

    def test_extreme_doubles(self):
        self.assert_g17_matches([
            5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
            np.nan, np.inf, -np.inf, 1.0, 0.1, 1e-5, 1e16, 1e17, 123.0])


class TestRunSnapshots:
    def test_mesh_text_formatted_once_per_run(self, monkeypatch, tmp_path):
        vtk_dir = tmp_path / "snaps"
        cfg = load_config("[mesh]\npattern = mesh2\nn = 4\n[initial]\n"
                          "preset = one_bulge\n[params]\nt_end = 2e-6\n"
                          "[output]\nvtk_dir = %s\nsnapshot_times = "
                          "0 1e-6 2e-6\n" % vtk_dir)
        inputs = []
        write = output.write_vtk_snapshot
        monkeypatch.setattr(
            output, "write_vtk_snapshot",
            lambda mesh, u, v, path, **kw: (
                inputs.append((path, u.copy(), v.copy(), kw["title"])),
                write(mesh, u, v, path, **kw))[1])
        output._mesh_text.cache_clear()
        mesh = simulation.run(cfg).mesh
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert len(inputs) == 3
        for path, u, v, title in inputs:
            oracle_vtk(mesh, u, v, tmp_path / "want.vtk", title=title)
            assert open(path, "rb").read() == (
                tmp_path / "want.vtk").read_bytes()

    @staticmethod
    def config(tmp_path, output_lines):
        return load_config("[mesh]\npattern = mesh1\nn = 4\n[initial]\n"
                           "preset = one_bulge\n[params]\nt_end = 3e-6\n"
                           "[output]\n" + output_lines % tmp_path)

    def test_no_due_snapshot_formats_no_mesh_text(self, tmp_path):
        output._mesh_text.cache_clear()
        simulation.run(self.config(tmp_path, "vtk_dir = %s/vtk\n"
                                             "snapshot_times =\n"))
        simulation.run(self.config(tmp_path, "csv = %s/diag.csv\n"))
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        assert sorted(os.listdir(tmp_path)) == ["diag.csv", "vtk"]
        assert os.listdir(tmp_path / "vtk") == []

    def test_each_run_formats_its_own_mesh_text(self, tmp_path):
        # every run builds its mesh afresh, so a second run of one config
        # formats the text again and writes the same bytes
        cfg = self.config(tmp_path, "vtk_dir = %s/vtk\n"
                                    "snapshot_times = 0 1e-6 3e-6\n")
        names = ["snap_000000.vtk", "snap_000001.vtk", "snap_000003.vtk"]
        output._mesh_text.cache_clear()
        simulation.run(cfg)
        first = {name: (tmp_path / "vtk" / name).read_bytes()
                 for name in names}
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        simulation.run(cfg)
        info = output._mesh_text.cache_info()
        assert (info.hits, info.misses) == (4, 2)
        assert sorted(os.listdir(tmp_path / "vtk")) == names
        for name in names:
            assert (tmp_path / "vtk" / name).read_bytes() == first[name], name


def run_demo(name, cwd, *argv):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name),
                           *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDemos:
    def test_structured_meshes_demo_writes_a_parseable_dump(self, tmp_path):
        run_demo("01_structured_meshes.py", tmp_path)
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        text = (tmp_path / "mesh2_single_square.txt").read_text().splitlines()
        assert text[:3] == ["# triangular mesh dump", "pattern mesh2",
                            "square_side 1.0"]
        start = text.index("vertices %d" % mesh.n_vertices) + 1
        vertices = [[float(x) for x in line.split()]
                    for line in text[start:start + mesh.n_vertices]]
        assert np.array_equal(vertices, mesh.vertices)
        start = text.index("interior_edges %d" % mesh.n_interior_edges) + 1
        edges = [line.split() for line in
                 text[start:start + mesh.n_interior_edges]]
        assert np.array_equal([[int(x) for x in e[2:4]] for e in edges],
                              mesh.edge_cells)
        assert np.array_equal([float(e[-1]) for e in edges], mesh.edge_dists)
        assert text[-mesh.n_boundary_edges - 1] == (
            "boundary_edges %d" % mesh.n_boundary_edges)

    @pytest.mark.parametrize("name,argv,line", [
        ("03_corner_migration.py", (), "peak distance to the corner: "),
        ("04_multi_peak_collapse.py", (), "final peak count: "),
        ("05_scheme_guarantees.py", (), "steps run:                  50"),
        ("06_time_step_sweep.py", ("--n", "4"), "0 of 42 runs failed"),
    ], ids=["corner_migration", "multi_peak_collapse", "scheme_guarantees",
            "time_step_sweep"])
    def test_demo_runs(self, tmp_path, name, argv, line):
        assert line in run_demo(name, tmp_path, *argv)

    def test_single_peak_demo_writes_a_parseable_snapshot(self, tmp_path):
        run_demo("02_single_peak_collapse.py", tmp_path)
        mesh = build_structured_mesh("mesh1", 32)
        sections = parse_vtk(tmp_path / "single_peak_final.vtk")
        assert np.array_equal(sections["points"][:, :2], mesh.vertices)
        assert np.array_equal(sections["cells"][:, 1:], mesh.triangles)
        assert sections["cell_types"] == [5] * mesh.n_cells
        assert len(sections["u_p0"]) == mesh.n_cells
        assert len(sections["v"]) == len(sections["u_p1"]) == mesh.n_vertices
        assert sections["u_p0"].min() >= 0.0 and sections["v"].min() >= 0.0
