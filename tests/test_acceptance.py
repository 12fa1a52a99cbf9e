"""End-to-end acceptance checks.

Each test exercises one structural guarantee of the solver at its stated
tolerance and prints a PASS line (run with ``-s`` or ``-v`` to see them).
The expensive experiment runs are session-scoped fixtures shared by the
checks that consume them.

One check is known to fail: ``test_c9_corner_migration_as_stated`` pins a
200-step horizon for the elliptic corner-migration experiment, but at
that resolution the density peak provably does not leave its initial
cell before step ~570 (the dynamics are deterministic; the same holds on
the finer mesh variants).  The companion test
``test_corner_migration_preset_horizon`` demonstrates the migration at
the preset's full horizon and passes.
"""

import os

import numpy as np
import pytest

import ksdg
from ksdg import (ModelParams, build_structured_mesh, load_config,
                  pattern_edge_distance, run, solve_v_step, verify_hypotheses)
from ksdg.config import _PRESETS, evaluate_terms
from ksdg.fields import pos_part, project_p1_to_p0
from ksdg.ustep import NewtonOperator, aupw_apply
from ksdg.vstep import assemble_v_system

CORNER = np.array([0.5, 0.5])


def _passline(n, text):
    print("\n[criterion %s] PASS: %s" % (n, text))


def preset_fields(name, mesh):
    terms = _PRESETS[name]
    u0 = evaluate_terms(terms["u0"], mesh.barycenters[:, 0],
                        mesh.barycenters[:, 1])
    if terms["v0"]:
        v0 = evaluate_terms(terms["v0"], mesh.vertices[:, 0],
                            mesh.vertices[:, 1])
    else:
        v0 = None
    return u0, v0


def collect(mesh, params, u0, v0):
    states = []
    rows = []
    for state, row in ksdg.simulate(mesh, params, u0, v0):
        states.append(state)
        rows.append(row)
    return states, rows


@pytest.fixture(scope="session")
def run_one_bulge_n64():
    """Single-bulge collapse, mesh1 n=64, dt=1e-6, 100 steps."""
    mesh = build_structured_mesh("mesh1", 64)
    u0, v0 = preset_fields("one_bulge", mesh)
    params = ModelParams(dt=1e-6, t_end=1e-4)
    states, rows = collect(mesh, params, u0, v0)
    return mesh, rows, states[-1]


@pytest.fixture(scope="session")
def run_multi_peak_n64():
    """Multi-peak collapse, mesh1 n=64, dt=1e-7, 100 steps."""
    mesh = build_structured_mesh("mesh1", 64)
    u0, v0 = preset_fields("multi_peak", mesh)
    params = ModelParams(dt=1e-7, t_end=1e-5)
    states, rows = collect(mesh, params, u0, v0)
    return mesh, rows, states[-1]


@pytest.fixture(scope="session")
def run_one_bulge_n32():
    """Single-bulge collapse, mesh1 n=32, dt=1e-6, 100 steps."""
    mesh = build_structured_mesh("mesh1", 32)
    u0, v0 = preset_fields("one_bulge", mesh)
    params = ModelParams(dt=1e-6, t_end=1e-4)
    states, rows = collect(mesh, params, u0, v0)
    return mesh, rows, states[-1]


@pytest.fixture(scope="session")
def run_three_bulges_pair(tmp_path_factory):
    """Elliptic three-bulge run, mesh1 n=32, dt=1e-5, 200 steps, executed
    twice with different (ignored) chemoattractant initial data."""
    import warnings

    outdir = tmp_path_factory.mktemp("three_bulges")
    results = []
    for tag, v0_line in (("a", "v0 = zero"),
                         ("b", "v0 = gaussian(500, 50, 0, 0)")):
        csv_path = outdir / ("diag_%s.csv" % tag)
        cfg = load_config(
            "[mesh]\npattern = mesh1\nn = 32\n"
            "[initial]\npreset = three_bulges\n%s\n"
            "[params]\nt_end = 2e-3\n"
            "[output]\ncsv = %s\n" % (v0_line, csv_path))
        with warnings.catch_warnings():
            # the elliptic path warns that v0 is ignored; that behavior
            # has its own test
            warnings.simplefilter("ignore", UserWarning)
            results.append((run(cfg), csv_path))
    return results


def test_c1_mesh_geometry():
    for pattern in ("mesh1", "mesh2"):
        for n in (2, 4, 8, 16):
            mesh = build_structured_mesh(pattern, n)
            closed = pattern_edge_distance(pattern, mesh.square_side,
                                           mesh.edge_lengths)
            rel = np.abs(mesh.edge_dists - closed) / closed
            assert rel.max() <= 1e-12, (pattern, n)
            report = verify_hypotheses(mesh)
            assert report.orthogonality_ok and report.acute_ok, (pattern, n)
    _passline(1, "barycenter distances match the closed form to 1e-12 and "
                 "both mesh checks hold for n in {2,4,8,16}")


def test_c2_mass_conservation(run_one_bulge_n64):
    _, rows, _ = run_one_bulge_n64
    assert len(rows) == 101
    mass0 = rows[0].mass
    drift = max(abs(r.mass - mass0) / mass0 for r in rows)
    assert drift <= 1e-10
    _passline(2, "relative mass drift %.3g <= 1e-10 over 100 steps" % drift)


def test_collapse_indicator_n64(run_one_bulge_n64):
    # the density maximum crosses 1e4 inside the conjectured collapse
    # window already at this resolution, and grows monotonically
    _, rows, _ = run_one_bulge_n64
    max_u = np.array([r.max_u for r in rows])
    times = np.array([r.time for r in rows])
    start = int(np.argmin(max_u))
    assert np.all(np.diff(max_u[start:]) >= 0.0)
    assert np.any((times > 4.4e-5) & (times < 1e-4) & (max_u > 1e4))


def test_c3_positivity(run_one_bulge_n64, run_multi_peak_n64):
    for name, (_, rows, _) in (("one_bulge", run_one_bulge_n64),
                               ("multi_peak", run_multi_peak_n64)):
        for r in rows:
            assert r.min_u >= 0.0, (name, r.step)
            assert r.min_v >= 0.0, (name, r.step)
            assert r.u_clamp <= 1e-13 * max(1.0, r.max_u), (name, r.step)
            assert r.v_clamp <= 1e-13 * max(1.0, r.max_v), (name, r.step)
    _passline(3, "min u >= 0 and min v >= 0 every step of both runs; "
                 "round-off clamps stayed within 1e-13 of the field scale")


def test_c4_energy_dissipation(run_one_bulge_n64, run_multi_peak_n64):
    worst = -np.inf
    for _, rows, _ in (run_one_bulge_n64, run_multi_peak_n64):
        for a, b in zip(rows, rows[1:]):
            slack = 1e-8 * (1.0 + abs(b.E_eps))
            worst = max(worst, b.E_eps - a.E_eps - slack)
            assert b.E_eps <= a.E_eps + slack, b.step
    _passline(4, "regularized energy nonincreasing on every accepted step "
                 "(worst margin %.3g)" % worst)


def test_c5_discrete_energy_balance(run_one_bulge_n32):
    _, rows, _ = run_one_bulge_n32
    assert len(rows) == 101
    for r in rows[1:]:
        assert r.energy_law_lhs <= 1e-8 * (1.0 + abs(r.E_eps)), r.step
    worst = max(r.energy_law_lhs for r in rows[1:])
    _passline(5, "energy-balance left side <= 1e-8*(1+|E_eps|) on all 100 "
                 "steps (largest value %.3g)" % worst)


def test_c6_upwind_form_nonnegative():
    mesh = build_structured_mesh("mesh1", 8)
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        mu = rng.normal(scale=3.0, size=mesh.n_cells)
        u = rng.normal(scale=5.0, size=mesh.n_cells)
        worst = min(worst, aupw_apply(mesh, mu, pos_part(u), mu))
    assert worst >= -1e-15
    _passline(6, "transport form nonnegative on 1000 random pairs "
                 "(worst %.3g)" % worst)


class TestC7Oracles:
    def test_a_hand_derived_matrices(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        system = assemble_v_system(mesh, ModelParams())
        center = int(np.argmax(mesh.vertex_areas))
        ml = np.full(5, 1.0 / 6.0)
        ml[center] = 1.0 / 3.0
        stiff = np.zeros((5, 5))
        for i in range(5):
            if i == center:
                stiff[i, i] = 4.0
            else:
                stiff[i, i] = 1.0
                stiff[i, center] = stiff[center, i] = -1.0
        assert np.max(np.abs(system.lumped_mass - ml)) <= 1e-13
        assert np.max(np.abs(system.stiffness.toarray() - stiff)) <= 1e-13
        _passline("7a", "assembled mass and stiffness match the "
                        "hand-derived matrices to 1e-13")

    def test_b_two_cell_residual_expansion(self, two_cell_mesh):
        params = ModelParams(k0=2.0, k1=0.5, eps=1e-3, dt=1e-2,
                             t_end=1e-2)
        u = np.array([0.8, 1.9])
        u_old = np.array([1.0, 1.5])
        v = np.array([0.0, 3.0 * 0.6, 0.0, 3.0 * (-0.1)])
        # the potential the solver sets, mu(u) = k0 log(u + eps) - k1 pi0v
        mu = (params.k0 * np.log(u + params.eps)
              - params.k1 * project_p1_to_p0(two_cell_mesh, v))
        jm = 2.0 * (np.log(0.8 + 1e-3) - np.log(1.9 + 1e-3)) - 0.5 * 0.7
        assert jm < 0.0     # cell 1 is the donor: F = 3 [mu] u_1
        flux = 3.0 * jm * u[1]
        expected = np.array([
            0.5 * (u[0] - u_old[0]) / params.dt + flux,
            0.5 * (u[1] - u_old[1]) / params.dt - flux,
        ])
        op = NewtonOperator(two_cell_mesh, params)
        got, terms = op.mass_balance(u, mu, u_old)
        assert np.max(np.abs(got - expected)) <= 1e-13
        # d[mu]/du_0 = 2/(u_0 + eps), d[mu]/du_1 = -2/(u_1 + eps)
        df_du0 = 3.0 * u[1] * 2.0 / (u[0] + 1e-3)
        df_du1 = 3.0 * (jm - u[1] * 2.0 / (u[1] + 1e-3))
        jac = np.array([[0.5 / params.dt + df_du0, df_du1],
                        [-df_du0, 0.5 / params.dt - df_du1]])
        op.refill(u, terms)
        assert np.max(np.abs(op.schur.toarray() - jac)) <= 1e-13
        _passline("7b", "two-cell mass balance at mu(u) and its Newton "
                        "matrix match their symbolic expansions to 1e-13")

    def test_c_v_solve_matches_dense_oracle(self):
        mesh = build_structured_mesh("mesh1", 8)
        params = ModelParams(dt=1e-6)
        system = assemble_v_system(mesh, params)
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 1000.0, mesh.n_cells)
        v = rng.uniform(0.0, 500.0, mesh.n_vertices)
        direct = solve_v_step(system, v, u)
        rhs = (params.k4 * (system.load_matrix @ u)
               + (params.tau / params.dt) * system.lumped_mass * v)
        dense = np.linalg.solve(system.matrix.toarray(), rhs)
        err = np.max(np.abs(direct - dense))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(dense)))
        _passline("7c", "sparse chemoattractant solve matches the dense "
                        "oracle to 1e-10 (err %.3g)" % err)

    def test_d_jacobian_matches_central_differences(self):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        nc = mesh.n_cells
        params = ModelParams(eps=1e-2, dt=1e-3, t_end=1e-3)
        op = NewtonOperator(mesh, params)
        rng = np.random.default_rng(99)
        h = 1e-6
        worst = 0.0
        for _ in range(50):
            u = rng.uniform(0.5, 1.5, nc)
            u_old = rng.uniform(0.2, 1.0, nc)
            pi0v = project_p1_to_p0(mesh, rng.uniform(0.0, 1.0,
                                                      mesh.n_vertices))

            def residual(uu):
                # the density-only residual: mass balance at mu(uu)
                mu = params.k0 * np.log(uu + params.eps) - params.k1 * pi0v
                return op.mass_balance(uu, mu, u_old)

            op.refill(u, residual(u)[1])
            d = rng.normal(size=nc)
            d /= np.linalg.norm(d)
            fd = (residual(u + h * d)[0] - residual(u - h * d)[0]) / (2 * h)
            worst = max(worst, float(np.max(np.abs(op.schur @ d - fd))))
        assert worst <= 1e-6
        _passline("7d", "Newton-matrix-vector products match central "
                        "differences of the density residual on 50 random "
                        "admissible points (worst %.3g)" % worst)


@pytest.mark.slow
def test_c8_blowup_window():
    mesh = build_structured_mesh("mesh1", 128)
    u0, v0 = preset_fields("one_bulge", mesh)
    params = ModelParams(dt=1e-6, t_end=1e-4)
    rows = [r for _, r in ksdg.simulate(mesh, params, u0, v0)]
    max_u = np.array([r.max_u for r in rows])
    times = np.array([r.time for r in rows])
    start = int(np.argmin(max_u))
    assert np.all(np.diff(max_u[start:]) >= 0.0)
    in_window = (times > 4.4e-5) & (times < 1e-4)
    assert np.any(in_window & (max_u > 1e4))
    assert max_u[0] <= 1000.0 and max_u.max() >= 10 * max_u[0]
    iters = np.array([r.newton_iters for r in rows[1:]])
    assert iters.max() <= 30
    assert np.percentile(iters, 95) <= 15
    _passline(8, "density maximum grows monotonically and exceeds 1e4 "
                 "inside the conjectured collapse window (peak %.3g)"
              % max_u.max())


def test_c9_v0_independence(run_three_bulges_pair):
    (res_a, csv_a), (res_b, csv_b) = run_three_bulges_pair
    assert len(res_a.rows) == 201
    assert csv_a.read_bytes() == csv_b.read_bytes()
    _passline("9 (independence)", "diagnostics CSV is bit-identical for "
                                  "two different chemoattractant inputs")


def test_c9_corner_migration_as_stated(run_three_bulges_pair):
    """Argmax cell strictly closer to the corner after 200 steps.

    Known failing: at this resolution the merged peak first leaves its
    initial cell around step 570 and reaches the corner near t = 9e-3
    (deterministic; the companion test below verifies the migration at
    the preset's full horizon).
    """
    (res_a, _), _ = run_three_bulges_pair
    mesh = res_a.mesh
    u0, _ = preset_fields("three_bulges", mesh)
    d_start = np.linalg.norm(mesh.barycenters[int(np.argmax(u0))] - CORNER)
    d_final = np.linalg.norm(
        mesh.barycenters[int(np.argmax(res_a.state.u))] - CORNER)
    assert d_final < d_start, (
        "argmax cell did not move within the pinned 200-step horizon "
        "(distance to corner stayed at %.4f); migration occurs at "
        "t ~ 6e-3..9e-3, see test_corner_migration_preset_horizon"
        % d_final)
    _passline("9 (migration, as stated)",
              "argmax moved from %.4f to %.4f" % (d_start, d_final))


def test_corner_migration_preset_horizon():
    """The migration the 200-step check looks for, at the horizon where
    it actually happens: by the preset's final figure time t = 1e-2 the
    peak sits in a cell strictly closer to the corner, far from start."""
    mesh = build_structured_mesh("mesh1", 32)
    u0, _ = preset_fields("three_bulges", mesh)
    params = ModelParams(tau=0, dt=1e-5, t_end=1e-2)
    final = None
    for state, _ in ksdg.simulate(mesh, params, u0, None):
        final = state
    d_start = np.linalg.norm(mesh.barycenters[int(np.argmax(u0))] - CORNER)
    d_final = np.linalg.norm(
        mesh.barycenters[int(np.argmax(final.u))] - CORNER)
    assert d_final < d_start
    assert d_final < 0.1
    _passline("9 (migration, preset horizon)",
              "argmax moved from %.4f to %.4f of the corner by t=1e-2"
              % (d_start, d_final))


def test_c10_newton_robustness(run_one_bulge_n64, run_multi_peak_n64,
                               run_one_bulge_n32, run_three_bulges_pair):
    iters = []
    for _, rows, _ in (run_one_bulge_n64, run_multi_peak_n64,
                       run_one_bulge_n32):
        iters += [r.newton_iters for r in rows[1:]]
    for result, _ in run_three_bulges_pair:
        iters += [r.newton_iters for r in result.rows[1:]]
    iters = np.array(iters)
    assert iters.max() <= 30
    p95 = float(np.percentile(iters, 95))
    assert p95 <= 15
    _passline(10, "every accepted step converged within 30 iterations "
                  "(95th percentile %.1f)" % p95)
