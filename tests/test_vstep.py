import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ksdg import (ModelParams, TriMesh, assemble_v_system,
                  build_structured_mesh, solve_v_step, vstep)
from ksdg.config import _PRESETS, evaluate_terms
from ksdg.vstep import V_TOL, LinearSolveError


@pytest.fixture
def crisscross_unit():
    return build_structured_mesh("mesh2", 1, (0, 1, 0, 1))


def hand_crisscross_matrices(mesh):
    """Stiffness and lumped mass of the single criss-crossed unit square,
    derived by hand from the barycentric gradients: corner diagonal 1,
    center diagonal 4, corner-center coupling -1, corners uncoupled."""
    center = int(np.argmax(mesh.vertex_areas))
    corners = [i for i in range(5) if i != center]
    s = np.zeros((5, 5))
    ml = np.zeros(5)
    ml[center] = 1.0 / 3.0
    s[center, center] = 4.0
    for c in corners:
        ml[c] = 1.0 / 6.0
        s[c, c] = 1.0
        s[c, center] = s[center, c] = -1.0
    return s, ml


def preset_step(name, pattern, n):
    """System and inputs of the first chemoattractant step of a preset."""
    mesh = build_structured_mesh(pattern, n)
    preset = _PRESETS[name]
    params = ModelParams(tau=preset["tau"], dt=preset["dt"],
                         t_end=preset["dt"])
    u = evaluate_terms(preset["u0"], mesh.barycenters[:, 0],
                       mesh.barycenters[:, 1])
    v = (evaluate_terms(preset["v0"], mesh.vertices[:, 0],
                        mesh.vertices[:, 1])
         if preset["v0"] else None)
    return assemble_v_system(mesh, params), v, u


def step_rhs(system, v, u):
    p = system.params
    rhs = p.k4 * (system.load_matrix @ u)
    return rhs + (p.tau / p.dt) * system.lumped_mass * v if p.tau else rhs


def _dense_oracle(system, v, u):
    """Plain dense solve of the step, independent of the sparse path."""
    return np.linalg.solve(system.matrix.toarray(), step_rhs(system, v, u))


def misses_backward_error(system, v, u, x):
    rhs = step_rhs(system, v, u)
    norm_a = np.max(np.abs(system.matrix).sum(axis=1))
    return (np.max(np.abs(rhs - system.matrix @ x))
            > vstep.RESIDUAL_RTOL * (norm_a * np.max(np.abs(x))
                                     + np.max(np.abs(rhs))))


class CountingLU:
    """Stands in for the cached factorization and records every solve.

    ``miss`` makes every solve return zeros; ``perturb`` scales the first
    solve by ``1 + perturb``."""

    def __init__(self, lu, miss=False, perturb=0.0):
        self.lu, self.miss, self.perturb, self.results = lu, miss, perturb, []

    def solve(self, rhs):
        x = np.zeros_like(rhs) if self.miss else self.lu.solve(rhs)
        if not self.results:
            x *= 1.0 + self.perturb
        self.results.append(x.copy())   # the caller refines x in place
        return x


def counted(system, **kwargs):
    system._lu = CountingLU(system._factorized(), **kwargs)
    return system._lu


class TestAssembly:
    def test_lumped_mass_crisscross(self, crisscross_unit):
        _, ml = hand_crisscross_matrices(crisscross_unit)
        system = assemble_v_system(crisscross_unit, ModelParams())
        assert np.allclose(system.lumped_mass, ml, atol=1e-13)

    def test_stiffness_crisscross(self, crisscross_unit):
        s, _ = hand_crisscross_matrices(crisscross_unit)
        system = assemble_v_system(crisscross_unit, ModelParams())
        assert np.allclose(system.stiffness.toarray(), s, atol=1e-13)

    def test_local_stiffness_unit_right_triangle(self):
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        system = assemble_v_system(mesh, ModelParams())
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert np.allclose(system.stiffness.toarray(), expected, atol=1e-13)

    def test_lumped_mass_sums_to_domain_area(self):
        mesh = build_structured_mesh("mesh1", 6, (0, 3, 0, 2))
        system = assemble_v_system(mesh, ModelParams())
        assert system.lumped_mass.sum() == pytest.approx(6.0)
        assert np.all(system.lumped_mass > 0)

    def test_stiffness_annihilates_constants(self):
        mesh = build_structured_mesh("mesh1", 8)
        system = assemble_v_system(mesh, ModelParams())
        ones = np.ones(mesh.n_vertices)
        assert np.max(np.abs(system.stiffness @ ones)) <= 1e-12

    def test_system_matrix_exactly_symmetric(self):
        mesh = build_structured_mesh("mesh2", 4)
        system = assemble_v_system(mesh,
                                   ModelParams(dt=1e-3, t_end=1e-3))
        diff = (system.matrix - system.matrix.T)
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_system_matrix_positive_definite(self):
        mesh = build_structured_mesh("mesh2", 3)
        system = assemble_v_system(mesh,
                                   ModelParams(dt=1e-3, t_end=1e-3))
        eigs = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigs.min() > 0

    def test_jacobi_rows_set_at_assembly(self, crisscross_unit):
        system = assemble_v_system(crisscross_unit,
                                   ModelParams(dt=1e-3, t_end=1e-3))
        dense = system.matrix.toarray()
        sums = np.abs(dense).sum(axis=1)
        assert np.array_equal(system.diagonal, np.diag(dense))
        assert system.norm_inf == pytest.approx(np.max(sums), rel=1e-15)
        assert system.jacobi_radius == pytest.approx(
            np.max(sums / np.diag(dense)) - 1.0, rel=1e-14)

    def test_load_matrix_pairs_cells_exactly(self, crisscross_unit):
        system = assemble_v_system(crisscross_unit, ModelParams())
        u = np.array([1.0, 0.0, 0.0, 0.0])
        load = system.load_matrix @ u
        # cell 0 sends |K|/3 = 1/12 to each of its three vertices
        assert load.sum() == pytest.approx(0.25)
        assert np.count_nonzero(load) == 3
        assert np.allclose(load[np.nonzero(load)], 1.0 / 12.0)


class TestSolve:
    def test_constant_steady_state(self):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        params = ModelParams(k3=2.0, k4=3.0, dt=1e-2, t_end=1e-2)
        system = assemble_v_system(mesh, params)
        c = 1.7
        u = np.full(mesh.n_cells, c)
        v = np.full(mesh.n_vertices, c * params.k4 / params.k3)
        v_new = solve_v_step(system, v, u)
        assert np.allclose(v_new, c * params.k4 / params.k3, rtol=1e-12)

    def test_elliptic_constant_solution(self):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        params = ModelParams(tau=0)
        system = assemble_v_system(mesh, params)
        v_new = solve_v_step(system, None, np.ones(mesh.n_cells))
        assert np.allclose(v_new, 1.0, rtol=1e-12)

    def test_elliptic_ignores_previous_field(self, rng):
        mesh = build_structured_mesh("mesh2", 4)
        params = ModelParams(tau=0)
        system = assemble_v_system(mesh, params)
        u = rng.uniform(0, 5, mesh.n_cells)
        va = solve_v_step(system, rng.uniform(0, 1, mesh.n_vertices), u)
        vb = solve_v_step(system, None, u)
        assert np.array_equal(va, vb)

    def test_parabolic_requires_previous_field(self):
        mesh = build_structured_mesh("mesh2", 2)
        system = assemble_v_system(mesh, ModelParams())
        with pytest.raises(ValueError, match="v_prev"):
            solve_v_step(system, None, np.ones(mesh.n_cells))

    def test_methods_agree_with_dense(self, rng):
        mesh = build_structured_mesh("mesh1", 8)
        params = ModelParams(dt=1e-6)
        system = assemble_v_system(mesh, params)
        u = rng.uniform(0, 1000, mesh.n_cells)
        v = rng.uniform(0, 500, mesh.n_vertices)
        got = solve_v_step(system, v, u)
        dense = _dense_oracle(system, v, u)
        assert np.max(np.abs(got - dense)) <= 1e-10 * (1 + np.max(np.abs(dense)))

    def test_residual_contract(self, rng):
        mesh = build_structured_mesh("mesh2", 5)
        params = ModelParams(dt=1e-4)
        system = assemble_v_system(mesh, params)
        u = rng.uniform(0, 10, mesh.n_cells)
        v = rng.uniform(0, 10, mesh.n_vertices)
        x = solve_v_step(system, v, u)
        rhs = (params.k4 * (system.load_matrix @ u)
               + (params.tau / params.dt) * system.lumped_mass * v)
        res = np.linalg.norm(rhs - system.matrix @ x)
        assert res <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("pattern,n", [("mesh1", 4), ("mesh1", 8),
                                           ("mesh2", 4), ("mesh2", 8)])
    def test_positivity_random_inputs(self, rng, pattern, n):
        # acute meshes make the system matrix an M-matrix: nonnegative
        # inputs can only produce round-off-level negatives
        mesh = build_structured_mesh(pattern, n)
        params = ModelParams(dt=1e-3, t_end=1e-3)
        system = assemble_v_system(mesh, params)
        worst = 0.0
        for _ in range(250):
            u = rng.uniform(0, 100, mesh.n_cells)
            v = rng.uniform(0, 100, mesh.n_vertices)
            out = solve_v_step(system, v, u)
            worst = min(worst, float(np.min(out)))
        assert worst >= -1e-12

    def test_large_absorption_limit_on_constants(self):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        params = ModelParams(tau=0, k3=1e8, k4=1e8)
        system = assemble_v_system(mesh, params)
        v_new = solve_v_step(system, None, np.full(mesh.n_cells, 2.0))
        assert np.allclose(v_new, 2.0, rtol=1e-10)

    def test_one_solve_when_the_first_meets_the_bound(self):
        # the elliptic three-bulge system is solved by its factor
        system, v, u = preset_step("three_bulges", "mesh1", 16)
        lu = counted(system)
        x = solve_v_step(system, v, u)
        assert len(lu.results) == 1
        assert np.array_equal(x, lu.results[0])

    def test_refines_once_when_the_first_solve_misses(self):
        system, v, u = preset_step("three_bulges", "mesh1", 16)
        lu = counted(system, perturb=1e-9)
        x = solve_v_step(system, v, u)
        assert len(lu.results) == 2
        assert misses_backward_error(system, v, u, lu.results[0])
        assert not misses_backward_error(system, v, u, x)

    def test_missed_refinement_raises(self):
        # solves that return zeros miss the bound, refined or not
        system, v, u = preset_step("three_bulges", "mesh1", 16)
        lu = counted(system, miss=True)
        with pytest.raises(LinearSolveError, match="residual"):
            solve_v_step(system, v, u)
        assert len(lu.results) == 2

    @pytest.mark.parametrize("field", ["v_prev", "u_prev"])
    def test_infinite_rhs_raises(self, field):
        # one infinite entry makes the backward-error bound infinite, which
        # no solve meets: the step fails instead of answering all zeros
        mesh = build_structured_mesh("mesh1", 4)
        inputs = {"v_prev": np.ones(mesh.n_vertices),
                  "u_prev": np.ones(mesh.n_cells)}
        inputs[field][3] = np.inf
        system = assemble_v_system(mesh, ModelParams(dt=1e-6, t_end=1e-6))
        with pytest.raises(LinearSolveError, match="residual"):
            solve_v_step(system, inputs["v_prev"], inputs["u_prev"])

    def test_exact_elliptic_solve_accepted_on_a_fine_mesh(self):
        # the solve's 2-norm residual is about 4e-12 of the right-hand
        # side, above a 1e-12 relative bound, at a normwise backward error
        # far below 1e-12: round-off, not a failed solve
        system, v, u = preset_step("three_bulges", "mesh2", 64)
        x = solve_v_step(system, v, u)
        assert np.min(x) >= 0.0
        assert not misses_backward_error(system, v, u, x)

    def test_symmetric_ordering_has_less_fill(self):
        system = assemble_v_system(build_structured_mesh("mesh2", 16),
                                   ModelParams())
        lu = system._factorized()
        default = spla.splu(system.matrix.tocsc())
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz


class TestJacobiCG:
    """The diagonally dominant (``q <= JACOBI_RADIUS_MAX``) systems."""

    def test_solves_without_factoring(self):
        system, v, u = preset_step("one_bulge", "mesh1", 16)
        x = solve_v_step(system, v, u)
        assert system._lu is None
        assert system.jacobi_radius <= vstep.JACOBI_RADIUS_MAX
        oracle = spla.splu(system.matrix.tocsc()).solve(step_rhs(system, v, u))
        assert np.max(np.abs(x - oracle)) <= 2 * V_TOL * np.max(np.abs(x))

    def test_elliptic_step_is_factored(self):
        system, v, u = preset_step("three_bulges", "mesh1", 16)
        solve_v_step(system, v, u)
        assert system.jacobi_radius > vstep.JACOBI_RADIUS_MAX
        assert system._lu is not None

    def test_iteration_cap_falls_back_to_the_factor(self, monkeypatch):
        monkeypatch.setattr(vstep, "PCG_MAXITER", 1)
        system, v, u = preset_step("one_bulge", "mesh1", 16)
        x = solve_v_step(system, v, u)
        assert system._lu is not None
        assert np.array_equal(x, system._lu.solve(step_rhs(system, v, u)))

    def test_zero_rhs_returns_zeros(self):
        system, _, _ = preset_step("one_bulge", "mesh1", 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_v_step(system, np.zeros(system.mesh.n_vertices),
                             np.zeros(system.mesh.n_cells))
        assert system._lu is None
        assert np.array_equal(x, np.zeros(system.mesh.n_vertices))
        assert not np.any(np.signbit(x))

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.sampled_from(["mesh1", "mesh2"]),
           n=st.integers(1, 8), log_dt=st.floats(-7.0, -2.0),
           tau=st.sampled_from([0, 1]), seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_dense_and_stays_nonnegative(self, pattern, n,
                                                     log_dt, tau, seed):
        rng = np.random.default_rng(seed)
        mesh = build_structured_mesh(pattern, n + n % 2 * (pattern == "mesh1"))
        dt = 10.0 ** log_dt
        system = assemble_v_system(mesh, ModelParams(tau=tau, dt=dt, t_end=dt))
        # nonnegative fields with some exact zeros
        u = (rng.uniform(0, 1000, mesh.n_cells)
             * (rng.random(mesh.n_cells) < 0.8))
        v = (rng.uniform(0, 500, mesh.n_vertices)
             * (rng.random(mesh.n_vertices) < 0.8))
        x = solve_v_step(system, v, u)
        dense = _dense_oracle(system, v, u)
        top = np.max(np.abs(dense))
        assert np.max(np.abs(x - dense)) <= 1e-12 * top
        assert np.min(x) >= -1e-13 * max(1.0, np.max(x))
