import numpy as np
import pytest
from hypothesis import given, strategies as st

from ksdg import (ModelParams, TriMesh, build_structured_mesh,
                  integrate_cellfield, p1_square_integral, pos_part,
                  project_p0_to_p1_lumped, project_p1_to_p0)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


class TestPosNegParts:
    # the negative part is the positive part of -x, as the upwind flux
    # takes it
    @pytest.mark.parametrize("x,pos,neg", [(-2.0, 0.0, 2.0),
                                           (3.0, 3.0, 0.0),
                                           (0.0, 0.0, 0.0)])
    def test_examples(self, x, pos, neg):
        assert pos_part(x) == pos
        assert pos_part(-x) == neg

    @given(finite)
    def test_decomposition(self, x):
        p, n = pos_part(x), pos_part(-x)
        assert p >= 0 and n >= 0
        assert p * n == 0
        assert p - n == x

    def test_elementwise(self):
        x = np.array([-1.5, 0.0, 2.5])
        assert np.array_equal(pos_part(x), [0.0, 0.0, 2.5])
        assert np.array_equal(pos_part(-x), [1.5, 0.0, 0.0])


class TestProjections:
    def test_p1_to_p0_preserves_constants(self, unit_square_mesh2):
        v = np.full(unit_square_mesh2.n_vertices, 4.25)
        assert np.allclose(project_p1_to_p0(unit_square_mesh2, v), 4.25,
                           atol=0)

    def test_p1_to_p0_linear_on_unit_triangle(self):
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        v = mesh.vertices[:, 0]  # v(x, y) = x
        assert project_p1_to_p0(mesh, v)[0] == pytest.approx(1.0 / 3.0)

    def test_p1_to_p0_matches_midpoint_quadrature(self, rng):
        # edge-midpoint quadrature is exact for linears and is an
        # independent route to the cell average
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        v = rng.normal(size=mesh.n_vertices)
        tri = v[mesh.triangles]
        midpoints = (tri[:, [0, 1, 2]] + tri[:, [1, 2, 0]]) / 2.0
        oracle = midpoints.mean(axis=1)
        assert np.allclose(project_p1_to_p0(mesh, v), oracle, rtol=1e-13)

    @pytest.mark.parametrize("mesh_name", ["mesh1", "mesh2", "two_cell"])
    @pytest.mark.parametrize("scale", ["normal", "mixed_1e300"])
    def test_p1_to_p0_bit_identical_to_mean(self, request, rng, mesh_name,
                                            scale):
        # the previous formula is the oracle: numpy's mean over three
        # columns adds them left to right and then divides by 3
        mesh = (request.getfixturevalue("two_cell_mesh")
                if mesh_name == "two_cell"
                else build_structured_mesh(mesh_name, 8))
        for _ in range(20):
            v = rng.standard_normal(mesh.n_vertices)
            if scale == "mixed_1e300":
                v *= rng.choice([1e-300, 1.0, 1e300], mesh.n_vertices)
            assert np.array_equal(project_p1_to_p0(mesh, v),
                                  v[mesh.triangles].mean(axis=1))

    def test_p0_to_p1_preserves_constants(self, unit_square_mesh2):
        u = np.full(unit_square_mesh2.n_cells, -2.5)
        assert np.allclose(project_p0_to_p1_lumped(unit_square_mesh2, u),
                           -2.5, atol=1e-14)

    def test_p0_to_p1_preserves_nonnegativity(self, unit_square_mesh1, rng):
        u = rng.uniform(0, 10, unit_square_mesh1.n_cells)
        assert np.min(project_p0_to_p1_lumped(unit_square_mesh1, u)) >= 0

    def test_p0_to_p1_center_vertex_equal_areas(self):
        # the four cells of a single criss-crossed square have equal
        # area, so the center vertex sees the plain average
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        center = int(np.argmax(mesh.vertex_areas))
        u = np.array([1.0, 2.0, 3.0, 4.0])
        assert project_p0_to_p1_lumped(mesh, u)[center] == pytest.approx(2.5)


class TestIntegrals:
    def test_unit_density_unit_square(self, unit_square_mesh1):
        u = np.ones(unit_square_mesh1.n_cells)
        assert integrate_cellfield(unit_square_mesh1, u) == pytest.approx(1.0)

    def test_zero(self, unit_square_mesh1):
        assert integrate_cellfield(unit_square_mesh1,
                                   np.zeros(unit_square_mesh1.n_cells)) == 0

    def test_indicator_gives_cell_area(self, unit_square_mesh2):
        u = np.zeros(unit_square_mesh2.n_cells)
        u[5] = 1.0
        assert integrate_cellfield(unit_square_mesh2, u) == pytest.approx(
            unit_square_mesh2.areas[5])

    def test_linearity(self, unit_square_mesh1, rng):
        u = rng.normal(size=unit_square_mesh1.n_cells)
        w = rng.normal(size=unit_square_mesh1.n_cells)
        lhs = integrate_cellfield(unit_square_mesh1, 2.0 * u - 3.0 * w)
        rhs = (2.0 * integrate_cellfield(unit_square_mesh1, u)
               - 3.0 * integrate_cellfield(unit_square_mesh1, w))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_p1_integral_two_routes_agree(self, unit_square_mesh2, rng):
        # vertex quadrature with the lumped-mass weights is exact on P1
        # fields, as is the area-weighted cell average
        v = rng.normal(size=unit_square_mesh2.n_vertices)
        via_vertices = float(np.dot(unit_square_mesh2.vertex_areas, v))
        via_cells = float(np.dot(unit_square_mesh2.areas,
                                 project_p1_to_p0(unit_square_mesh2, v)))
        assert abs(via_vertices - via_cells) <= 1e-13 * (1 + abs(via_cells))

    def test_p1_square_integral_constant(self, unit_square_mesh2):
        v = np.full(unit_square_mesh2.n_vertices, 3.0)
        assert p1_square_integral(unit_square_mesh2, v) == pytest.approx(9.0)
        assert p1_square_integral(unit_square_mesh2, v,
                                  lumped=True) == pytest.approx(9.0)

    def test_p1_square_integral_exact_on_linear(self):
        # v = x on the unit right triangle: integral of x^2 is 1/12
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        v = mesh.vertices[:, 0]
        assert p1_square_integral(mesh, v) == pytest.approx(1.0 / 12.0)

    def test_p1_gradients_linear_field(self, unit_square_mesh1):
        # the basis gradients the stiffness is built from reproduce the
        # gradient of a linear field in every cell
        v = (2.0 * unit_square_mesh1.vertices[:, 0]
             - 0.5 * unit_square_mesh1.vertices[:, 1])
        g = np.einsum("ta,tax->tx", v[unit_square_mesh1.triangles],
                      unit_square_mesh1.lambda_gradients)
        assert np.allclose(g, [2.0, -0.5], atol=1e-13)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.k0, p.k1, p.k2, p.k3, p.k4) == (1, 1, 1, 1, 1)
        assert p.tau == 1 and p.eps == 1e-10

    def test_tau_two_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            ModelParams(tau=2)

    @pytest.mark.parametrize("kw", [dict(k0=0.0), dict(k3=-1.0),
                                    dict(eps=0.0), dict(dt=0.0),
                                    dict(t_end=-1.0), dict(k1=np.inf),
                                    dict(eps=np.inf), dict(dt=np.inf),
                                    dict(t_end=np.inf)])
    def test_positivity_required(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**kw)

    @pytest.mark.parametrize("dt,t_end", [(1.0, 1e-3), (3e-6, 1e-5),
                                          (1e-300, 1e300)])
    def test_horizon_must_be_whole_steps(self, dt, t_end):
        with pytest.raises(ValueError, match="whole number"):
            ModelParams(dt=dt, t_end=t_end)
