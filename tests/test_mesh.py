import copy

import numpy as np
import pytest
import scipy.sparse as sp

from ksdg import (MeshError, ModelParams, TriMesh, assemble_v_system,
                  build_structured_mesh, dump_mesh, pattern_edge_distance,
                  verify_hypotheses)

from conftest import flip_edges

CENTERED_SQUARE = (-0.5, 0.5, -0.5, 0.5)


class TestBuildStructured:
    def test_mesh2_single_square(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        assert mesh.n_cells == 4
        assert mesh.n_vertices == 5
        assert mesh.n_interior_edges == 4
        assert mesh.n_boundary_edges == 4

    def test_mesh1_two_squares_per_side(self):
        # one 2x2 block of squares: 4 diagonals meet at the block center
        mesh = build_structured_mesh("mesh1", 2, (0, 1, 0, 1))
        assert mesh.n_cells == 8
        assert mesh.n_vertices == 9
        assert mesh.n_interior_edges == 8

    def test_mesh1_rejects_odd_n(self):
        with pytest.raises(MeshError, match="even"):
            build_structured_mesh("mesh1", 3)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(MeshError, match="degenerate"):
            build_structured_mesh("mesh2", 2, (0, 0, 0, 1))

    def test_zero_squares_rejected(self):
        with pytest.raises(MeshError):
            build_structured_mesh("mesh2", 0)

    def test_non_integral_square_count_rejected(self):
        # an integer cast would silently build the n = 2 mesh
        with pytest.raises(MeshError, match="whole number"):
            build_structured_mesh("mesh2", 2.5)

    def test_unknown_pattern(self):
        with pytest.raises(MeshError, match="unknown mesh pattern"):
            build_structured_mesh("mesh7", 2)

    def test_pattern_names_case_insensitive(self):
        mesh = build_structured_mesh("Mesh1", 2, (0, 1, 0, 1))
        assert mesh.pattern == "mesh1"

    def test_rectangle_tiled_by_squares(self):
        mesh = build_structured_mesh("mesh2", 4, (0, 2, 0, 1))
        assert mesh.square_side == pytest.approx(0.5)
        assert mesh.areas.sum() == pytest.approx(2.0)

    def test_rectangle_not_tileable(self):
        with pytest.raises(MeshError, match="tiled"):
            build_structured_mesh("mesh2", 3, (0, 1, 0, 0.7))

    @pytest.mark.parametrize("pattern,n", [("mesh1", 2), ("mesh1", 4),
                                           ("mesh1", 8), ("mesh2", 2),
                                           ("mesh2", 4), ("mesh2", 8)])
    def test_areas_sum_to_domain_area(self, pattern, n):
        mesh = build_structured_mesh(pattern, n, CENTERED_SQUARE)
        assert abs(mesh.areas.sum() - 1.0) <= 1e-12
        assert np.all(mesh.areas > 0)

    @pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
    def test_euler_formula(self, pattern):
        # triangulated disk: V - E + F = 1 with F counting triangles
        mesh = build_structured_mesh(pattern, 4, (0, 1, 0, 1))
        edges = mesh.n_interior_edges + mesh.n_boundary_edges
        assert mesh.n_vertices - edges + mesh.n_cells == 1

    @pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
    def test_h_halves_when_n_doubles(self, pattern):
        h4 = build_structured_mesh(pattern, 4, (0, 1, 0, 1)).h
        h8 = build_structured_mesh(pattern, 8, (0, 1, 0, 1)).h
        assert h8 == pytest.approx(h4 / 2, rel=1e-14)


class TestEdgeData:
    @pytest.mark.parametrize("pattern,n", [("mesh1", 2), ("mesh1", 4),
                                           ("mesh1", 8), ("mesh2", 2),
                                           ("mesh2", 4), ("mesh2", 8)])
    def test_barycenter_distance_matches_closed_form(self, pattern, n):
        mesh = build_structured_mesh(pattern, n, CENTERED_SQUARE)
        closed = pattern_edge_distance(pattern, mesh.square_side,
                                       mesh.edge_lengths)
        rel = np.abs(mesh.edge_dists - closed) / closed
        assert rel.max() <= 1e-12

    def test_mesh1_axis_and_diagonal_edge_values(self):
        # squares of side 0.25
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        l = 0.25
        axis = np.isclose(mesh.edge_lengths, l)
        diag = np.isclose(mesh.edge_lengths, np.sqrt(2) * l)
        assert np.all(axis | diag)
        assert np.allclose(mesh.edge_dists[axis], 2 * l / 3, rtol=1e-13)
        assert np.allclose(mesh.edge_dists[diag], np.sqrt(2) * l / 3,
                           rtol=1e-13)

    def test_mesh2_closed_form_values(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        l = 0.5
        expected = l * l / (3 * mesh.edge_lengths)
        assert np.allclose(mesh.edge_dists, expected, rtol=1e-13)

    def test_normals_unit_and_oriented_lower_to_higher_cell(self):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        norms = np.linalg.norm(mesh.edge_normals, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-14)
        k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        assert np.all(k < l)
        dvec = mesh.barycenters[l] - mesh.barycenters[k]
        assert np.all(np.einsum("ij,ij->i", mesh.edge_normals, dvec) > 0)

    def test_boundary_normals_point_outward(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        mids = 0.5 * (mesh.vertices[mesh.bedge_vertices[:, 0]]
                      + mesh.vertices[mesh.bedge_vertices[:, 1]])
        center = np.array([0.5, 0.5])
        outward = np.einsum("ij,ij->i", mesh.bedge_normals, mids - center)
        assert np.all(outward > 0)

    def test_interior_edges_unique(self):
        mesh = build_structured_mesh("mesh2", 3, (0, 1, 0, 1))
        pairs = {tuple(p) for p in mesh.edge_vertices}
        assert len(pairs) == mesh.n_interior_edges


class TestHypotheses:
    def test_mesh1_passes(self):
        report = verify_hypotheses(build_structured_mesh("mesh1", 4))
        assert report.orthogonality_ok and report.acute_ok
        assert report.max_violation <= 1e-12

    def test_mesh2_passes(self):
        report = verify_hypotheses(build_structured_mesh("mesh2", 3))
        assert report.orthogonality_ok and report.acute_ok
        assert report.max_violation <= 1e-12

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (4, 3), (-3, 4)],
        [(0.3, -0.2), (0.3, 0.5), (-1.1, 0.5)],
    ])
    def test_right_triangle_is_acute(self, vertices):
        # a right angle sits on the pi/2 limit and is allowed
        report = verify_hypotheses(TriMesh(vertices, [(0, 1, 2)]))
        assert report.acute_ok
        assert report.angle_violation <= 1e-12

    def test_obtuse_triangle_flagged(self):
        # apex angle well above pi/2
        mesh = TriMesh([(0, 0), (1, 0), (0.5, 0.1)], [(0, 1, 2)])
        report = verify_hypotheses(mesh)
        assert not report.acute_ok
        assert report.angle_violation > 0


class TestTriMesh:
    def test_clockwise_triangle_reoriented(self):
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
        assert mesh.areas[0] == pytest.approx(0.5)
        p = mesh.vertices[mesh.triangles[0]]
        e1, e2 = p[1] - p[0], p[2] - p[0]
        assert e1[0] * e2[1] - e1[1] * e2[0] > 0

    def test_zero_area_triangle_rejected(self):
        with pytest.raises(MeshError, match="degenerate"):
            TriMesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vertex_rejected(self, bad):
        # a NaN corner gives NaN areas, which pass the zero-area check
        with pytest.raises(MeshError, match="finite"):
            TriMesh([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)])

    def test_non_integral_triangle_index_rejected(self):
        # an integer cast would turn (0, 1, 2.7) into (0, 1, 2); integral
        # floats stay valid
        with pytest.raises(MeshError, match="integers"):
            TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2.7)])
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0.0, 1.0, 2.0)])
        assert np.array_equal(mesh.triangles, [(0, 1, 2)])

    def test_bad_vertex_index_rejected(self):
        with pytest.raises(MeshError, match="out of range"):
            TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])

    @pytest.mark.parametrize("vertices,triangles,message", [
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)], r"\(nv, 2\)"),
        ([0, 1, 2], [(0, 1, 2)], r"\(nv, 2\)"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 1)], r"\(nt, 3\)"),
        ([(0, 0), (1, 0), (0, 1)], np.zeros((0, 3)), "at least one"),
        ([(0, 0), (1, 0), (0, 1)], [(-1, 1, 2)], "out of range"),
    ])
    def test_malformed_arrays_rejected(self, vertices, triangles, message):
        with pytest.raises(MeshError, match=message):
            TriMesh(vertices, triangles)

    def test_vertex_areas_sum_to_domain(self, unit_square_mesh2):
        assert unit_square_mesh2.vertex_areas.sum() == pytest.approx(1.0)

    def test_two_cell_fixture_geometry(self, two_cell_mesh):
        assert two_cell_mesh.n_interior_edges == 1
        assert two_cell_mesh.edge_lengths[0] == pytest.approx(np.sqrt(2))
        assert two_cell_mesh.edge_dists[0] == pytest.approx(np.sqrt(2) / 3)
        report = verify_hypotheses(two_cell_mesh)
        assert report.orthogonality_ok and report.acute_ok

    def test_arrays_are_read_only(self, unit_square_mesh1):
        mesh = unit_square_mesh1
        pattern = mesh.cell_pattern
        arrays = dict(vars(mesh), indptr=pattern.indptr,
                      indices=pattern.indices, slots=pattern.slots)
        arrays = {name: value for name, value in arrays.items()
                  if isinstance(value, np.ndarray)}
        assert {"edge_lengths", "edge_weights", "slots"} <= set(arrays)
        for name, value in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0

    @pytest.mark.parametrize("flip", [False, True])
    def test_cell_pattern_entries(self, unit_square_mesh2, rng, flip):
        mesh = unit_square_mesh2
        if flip:
            # a copy relabelled after the original's pattern was built
            assert mesh.cell_pattern is not None
            mesh = flip_edges(mesh, rng.random(mesh.n_interior_edges) < 0.5)
        p = mesh.cell_pattern
        nc = mesh.n_cells
        rows = np.repeat(np.arange(nc), np.diff(p.indptr))
        for i in range(nc):
            assert list(p.indices[p.indptr[i]:p.indptr[i + 1]]) == sorted(
                {i} | {int(b) for a, b in mesh.edge_cells if a == i}
                | {int(a) for a, b in mesh.edge_cells if b == i})
        k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        cells = np.arange(nc)
        assert np.array_equal(rows[p.slots], np.concatenate((cells, k, l)))
        assert np.array_equal(p.indices[p.slots],
                              np.concatenate((cells, l, k)))


def stiffness_oracle(mesh):
    """The P1 stiffness as the chemoattractant step assembled it before
    it moved onto the mesh."""
    grads = mesh.lambda_gradients
    local = mesh.areas[:, None, None] * np.einsum("tax,tbx->tab", grads, grads)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def perturbed_mesh(pattern, n, seed):
    """A structured mesh with each interior vertex moved by up to 0.2% of
    h in each direction, so that its triangles are not congruent."""
    base = build_structured_mesh(pattern, n, (0, 1, 0, 1))
    verts = base.vertices.copy()
    inside = np.all((verts > 0) & (verts < 1), axis=1)
    rng = np.random.default_rng(seed)
    verts[inside] += rng.uniform(-2e-3, 2e-3, (inside.sum(), 2)) * base.h
    return TriMesh(verts, base.triangles)


class TestStiffness:
    @pytest.fixture(params=["mesh1", "mesh2", "two_cell", "perturbed"])
    def mesh(self, request):
        if request.param == "two_cell":
            return request.getfixturevalue("two_cell_mesh")
        if request.param == "perturbed":
            return perturbed_mesh("mesh2", 6, seed=4)
        return build_structured_mesh(request.param, 6)

    def test_built_once_and_read_only(self, mesh):
        stiffness = mesh.stiffness
        assert mesh.stiffness is stiffness
        for name in ("data", "indices", "indptr"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(stiffness, name)[...] = 0

    def test_matches_assembly_oracle(self, mesh):
        assert_same_csr(mesh.stiffness, stiffness_oracle(mesh))

    def test_shared_with_the_v_system(self, mesh):
        system = assemble_v_system(mesh, ModelParams())
        assert system.stiffness is mesh.stiffness

    def test_rebuilt_on_relabelled_copy(self, mesh, rng):
        before = mesh.stiffness
        relabel = rng.permutation(mesh.n_vertices)
        moved = copy.copy(mesh)
        moved.vertices = np.empty_like(mesh.vertices)
        moved.vertices[relabel] = mesh.vertices
        moved.triangles = relabel[mesh.triangles]
        assert moved.stiffness is not before
        assert_same_csr(moved.stiffness, stiffness_oracle(moved))
        # the same matrix up to the order duplicates were summed in
        back = moved.stiffness[relabel][:, relabel].toarray()
        assert np.allclose(back, before.toarray(), rtol=0, atol=1e-14)
        assert mesh.stiffness is before


def test_dump_roundtrip_counts(unit_square_mesh1, tmp_path):
    path = tmp_path / "mesh.txt"
    dump_mesh(unit_square_mesh1, path)
    text = path.read_text().splitlines()
    counts = {line.split()[0]: int(line.split()[1])
              for line in text if line.split()[0] in
              ("vertices", "triangles", "interior_edges", "boundary_edges")}
    assert counts["vertices"] == unit_square_mesh1.n_vertices
    assert counts["triangles"] == unit_square_mesh1.n_cells
    assert counts["interior_edges"] == unit_square_mesh1.n_interior_edges
    assert counts["boundary_edges"] == unit_square_mesh1.n_boundary_edges
    # every interior edge line carries a positive barycenter distance
    start = text.index("interior_edges %d" % counts["interior_edges"]) + 1
    for line in text[start:start + counts["interior_edges"]]:
        assert float(line.split()[-1]) > 0


# -- oracle: the per-triangle and per-square loops the mesh code replaced --

def _oracle_triangles(pattern, n, ny):
    def g(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(ny):
        for i in range(n):
            v00, v10 = g(i, j), g(i + 1, j)
            v01, v11 = g(i, j + 1), g(i + 1, j + 1)
            if pattern == "mesh2":
                c = (n + 1) * (ny + 1) + j * n + i
                tris += [(v00, v10, c), (v10, v11, c),
                         (v11, v01, c), (v01, v00, c)]
            elif (i + j) % 2 == 0:
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]
    return np.array(tris)


def _oracle_vertices(pattern, n, ny, domain):
    xmin, xmax, ymin, ymax = domain
    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack((gx.ravel(), gy.ravel()))
    if pattern == "mesh2":
        ccx, ccy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]),
                               0.5 * (ys[:-1] + ys[1:]))
        vertices = np.vstack((vertices,
                              np.column_stack((ccx.ravel(), ccy.ravel()))))
    return vertices


def _oracle_edge_geometry(verts, bary, ev, ec, outward):
    tang = verts[ev[:, 1]] - verts[ev[:, 0]]
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.column_stack((tang[:, 1], -tang[:, 0])) / lengths[:, None]
    if outward:
        dvec = 0.5 * (verts[ev[:, 0]] + verts[ev[:, 1]]) - bary[ec]
    else:
        dvec = bary[ec[:, 1]] - bary[ec[:, 0]]
    normals[np.einsum("ij,ij->i", normals, dvec) < 0.0] *= -1.0
    return lengths, normals, np.hypot(dvec[:, 0], dvec[:, 1])


def _oracle_arrays(vertices, triangles):
    """Every TriMesh array, with edges grouped by a dict over all sides."""
    verts = np.array(vertices, dtype=float)
    tris = np.array(triangles, dtype=np.int64)
    p0 = verts[tris[:, 0]]
    e1 = verts[tris[:, 1]] - p0
    e2 = verts[tris[:, 2]] - p0
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    tris[cross < 0.0] = tris[cross < 0.0][:, [0, 2, 1]]
    areas = 0.5 * np.abs(cross)
    p = verts[tris]
    bary = p.mean(axis=1)
    opp = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    grads = np.empty_like(opp)
    grads[:, :, 0] = -opp[:, :, 1]
    grads[:, :, 1] = opp[:, :, 0]
    grads /= (2.0 * areas)[:, None, None]

    incidence = {}
    for cell, tri in enumerate(tris):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            incidence.setdefault((min(a, b), max(a, b)), []).append(cell)
    interior = sorted((key, min(c), max(c))
                      for key, c in incidence.items() if len(c) == 2)
    boundary = sorted((key, c[0])
                      for key, c in incidence.items() if len(c) == 1)
    ev = np.array([key for key, _, _ in interior], dtype=np.int64)
    ev = ev.reshape(-1, 2)
    ec = np.array([kl for _, *kl in interior], dtype=np.int64).reshape(-1, 2)
    bv = np.array([key for key, _ in boundary], dtype=np.int64)
    bv = bv.reshape(-1, 2)
    bc = np.array([c for _, c in boundary], dtype=np.int64)
    lengths, normals, dists = _oracle_edge_geometry(verts, bary, ev, ec,
                                                    outward=False)
    blen, bnrm, _ = _oracle_edge_geometry(verts, bary, bv, bc, outward=True)
    return {
        "vertices": verts, "triangles": tris, "areas": areas,
        "barycenters": bary,
        "vertex_areas": np.bincount(tris.ravel(),
                                    weights=np.repeat(areas / 3.0, 3),
                                    minlength=len(verts)),
        "lambda_gradients": grads,
        "edge_vertices": ev, "edge_cells": ec, "edge_lengths": lengths,
        "edge_dists": dists, "edge_weights": lengths / dists,
        "edge_normals": normals,
        "bedge_vertices": bv, "bedge_cell": bc, "bedge_lengths": blen,
        "bedge_normals": bnrm,
        "h": float(np.concatenate((lengths, blen)).max()),
    }


def _assert_matches_oracle(mesh, expected):
    for name, want in expected.items():
        got = getattr(mesh, name)
        if isinstance(want, float):
            assert type(got) is float and got == want, name
        else:
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


class TestOracle:
    @pytest.mark.parametrize("pattern,n,domain", [
        ("mesh1", 2, (0, 1, 0, 1)),
        ("mesh1", 6, (0, 3, 0, 2)),
        ("mesh1", 16, CENTERED_SQUARE),
        ("mesh2", 1, (0, 1, 0, 1)),
        ("mesh2", 5, (-1, 1, 0, 2.4)),
        ("mesh2", 12, CENTERED_SQUARE),
        ("mesh1", 64, CENTERED_SQUARE),
        ("mesh2", 64, CENTERED_SQUARE),
    ])
    def test_structured_mesh_bit_equal(self, pattern, n, domain):
        mesh = build_structured_mesh(pattern, n, domain)
        ny = round(n * (domain[3] - domain[2]) / (domain[1] - domain[0]))
        tris = _oracle_triangles(pattern, n, ny)
        verts = _oracle_vertices(pattern, n, ny, domain)
        _assert_matches_oracle(mesh, _oracle_arrays(verts, tris))

    @pytest.mark.parametrize("pattern,seed", [("mesh1", 0), ("mesh1", 1),
                                              ("mesh2", 2), ("mesh2", 3)])
    def test_shuffled_reoriented_triangulation_bit_equal(self, pattern,
                                                          seed):
        rng = np.random.default_rng(seed)
        base = build_structured_mesh(pattern, 4, (0, 1, 0, 1))
        relabel = rng.permutation(base.n_vertices)
        verts = np.empty_like(base.vertices)
        verts[relabel] = base.vertices
        tris = relabel[base.triangles[rng.permutation(base.n_cells)]]
        turned = rng.integers(0, 3, len(tris))
        tris = np.array([np.roll(t, r) for t, r in zip(tris, turned)])
        flip = rng.random(len(tris)) < 0.5
        tris[flip] = tris[flip][:, ::-1]
        _assert_matches_oracle(TriMesh(verts, tris),
                               _oracle_arrays(verts, tris))

    @pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
    def test_all_clockwise_triangulation_bit_equal(self, pattern):
        # every triangle is reoriented, so corners 1 and 2 of every
        # gathered corner triple swap
        base = build_structured_mesh(pattern, 8, (0, 1, 0, 1))
        tris = base.triangles[:, ::-1]
        mesh = TriMesh(base.vertices, tris)
        assert np.array_equal(mesh.triangles, base.triangles[:, [2, 0, 1]])
        _assert_matches_oracle(mesh, _oracle_arrays(base.vertices, tris))

    def test_single_triangle_has_no_interior_edges(self):
        verts, tris = [(0, 0), (1, 0), (0, 1)], [(0, 2, 1)]
        mesh = TriMesh(verts, tris)
        assert mesh.n_interior_edges == 0 and mesh.n_boundary_edges == 3
        _assert_matches_oracle(mesh, _oracle_arrays(verts, tris))


def test_edge_shared_by_three_triangles_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by more "
                                        r"than two triangles"):
        TriMesh(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
