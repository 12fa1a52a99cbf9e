import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ksdg import (ModelParams, NewtonDivergenceError, aupw_apply,
                  build_structured_mesh, integrate_cellfield, pos_part,
                  simulate, solve_u_step)
from ksdg import simulation, ustep
from ksdg.config import build_mesh, initial_fields, load_config
from ksdg.ustep import NewtonOperator
from ksdg.vstep import JACOBI_RADIUS_MAX
from ksdg.fields import project_p1_to_p0

from conftest import flip_edges


def u_step(mesh, u_old, v, params):
    """``solve_u_step`` on a new operator, from the new vertex field ``v``."""
    return solve_u_step(NewtonOperator(mesh, params), u_old,
                        project_p1_to_p0(mesh, v))


def v_with_cell_averages(c1, c2):
    """Vertex field on the two-cell mesh whose cell averages are (c1, c2)."""
    return np.array([0.0, 3.0 * c1, 0.0, 3.0 * c2])


class TestUpwindForm:
    def test_constant_potential_gives_zero(self, unit_square_mesh1, rng):
        mu = np.full(unit_square_mesh1.n_cells, 2.3)
        u = rng.normal(size=unit_square_mesh1.n_cells)
        ubar = rng.normal(size=unit_square_mesh1.n_cells)
        assert aupw_apply(unit_square_mesh1, mu, u, ubar) == 0.0

    def test_single_edge_hand_value(self, two_cell_mesh):
        # w = |e| / D = 3; the donor is cell 0, the indicator test
        # function jumps by +1, so the value is 3 * (1 * 2 - 0 * 5) * 1
        mu = np.array([1.0, 0.0])
        u = np.array([2.0, 5.0])
        ubar = np.array([1.0, 0.0])
        assert aupw_apply(two_cell_mesh, mu, u, ubar) == pytest.approx(6.0)

    def test_nonnegative_on_truncated_density(self, unit_square_mesh1, rng):
        worst = 0.0
        for _ in range(300):
            mu = rng.normal(size=unit_square_mesh1.n_cells)
            u = rng.normal(size=unit_square_mesh1.n_cells)
            worst = min(worst, aupw_apply(unit_square_mesh1, mu,
                                          pos_part(u), mu))
        assert worst >= -1e-15

    def test_orientation_relabeling_invariance(self, unit_square_mesh1, rng):
        mu = rng.normal(size=unit_square_mesh1.n_cells)
        u = rng.normal(size=unit_square_mesh1.n_cells)
        ubar = rng.normal(size=unit_square_mesh1.n_cells)
        which = rng.random(unit_square_mesh1.n_interior_edges) < 0.5
        flipped = flip_edges(unit_square_mesh1, which)
        assert aupw_apply(flipped, mu, u, ubar) == pytest.approx(
            aupw_apply(unit_square_mesh1, mu, u, ubar), rel=1e-13, abs=1e-13)

    def test_mismatched_field_rejected(self, two_cell_mesh):
        with pytest.raises(ValueError, match="shape"):
            aupw_apply(two_cell_mesh, np.zeros(3), np.zeros(2), np.zeros(2))


class TestFluxTerms:
    # the jump parts and upwind weights that the flux, its Newton matrix
    # and its round-off scale share; [mu] = mu_K - mu_L on the edge
    # cells (K, L)
    @pytest.mark.parametrize("muk,mul,jump", [(2.0, 0.5, 1.5),
                                              (3.0, 3.0, 0.0),
                                              (0.0, 1.25, -1.25)])
    def test_examples(self, two_cell_mesh, muk, mul, jump):
        assert two_cell_mesh.edge_cells.tolist() == [[0, 1]]
        k, l = two_cell_mesh.edge_cells.T
        w = two_cell_mesh.edge_weights
        _, _, jp, jn, wk, wl, flux = ustep._flux_terms(
            k, l, w, np.array([2.0, 5.0]), np.array([muk, mul]))
        assert jp[0] - jn[0] == jump
        assert jp[0] >= 0.0 and jn[0] >= 0.0 and jp[0] * jn[0] == 0.0
        assert (wk[0], wl[0]) == (2.0, 5.0)
        # w = |e| / D = 3; the donor is the cell the potential falls from
        assert flux[0] == pytest.approx(3.0 * (jp[0] * 2.0 - jn[0] * 5.0),
                                        rel=1e-15)

    def test_swapping_values_reverses_flux(self, two_cell_mesh):
        k, l = two_cell_mesh.edge_cells.T
        w = two_cell_mesh.edge_weights
        u, mu = np.array([1.7, 0.4]), np.array([-0.3, 2.2])
        flux = ustep._flux_terms(k, l, w, u, mu)[-1]
        swapped = ustep._flux_terms(k, l, w, u[::-1], mu[::-1])[-1]
        assert swapped[0] == -flux[0] != 0.0

    # the mass balance transports max(u, 0); aupw_apply a signed density
    @pytest.mark.parametrize("truncated", [True, False])
    def test_vectorized_matches_scalar(self, unit_square_mesh1, rng,
                                       truncated):
        mesh = unit_square_mesh1
        u = rng.normal(size=mesh.n_cells)
        mu = rng.normal(size=mesh.n_cells)
        k, l = mesh.edge_cells.T
        muk, mul, jp, jn, wk, wl, flux = ustep._flux_terms(
            k, l, mesh.edge_weights, np.maximum(u, 0.0) if truncated else u,
            mu)
        for e, (ke, le) in enumerate(mesh.edge_cells):
            jm = float(mu[ke]) - float(mu[le])
            uk, ul = float(u[ke]), float(u[le])
            if truncated:
                uk, ul = max(uk, 0.0), max(ul, 0.0)
            assert (muk[e], mul[e]) == (mu[ke], mu[le])
            assert (jp[e], jn[e]) == (max(jm, 0.0), max(-jm, 0.0))
            assert (wk[e], wl[e]) == (uk, ul)
            assert flux[e] == mesh.edge_weights[e] * (
                max(jm, 0.0) * uk - max(-jm, 0.0) * ul)

    def test_truncation_leaves_the_density_untouched(self,
                                                     unit_square_mesh1, rng):
        # the mass balance transports max(u, 0), clipped in a copy
        mesh = unit_square_mesh1
        u = rng.normal(size=mesh.n_cells)
        mu = rng.normal(size=mesh.n_cells)
        u_in, mu_in = u.copy(), mu.copy()
        k, l = mesh.edge_cells.T
        _, terms = NewtonOperator(mesh, ModelParams()).mass_balance(u, mu, u)
        *_, wk, wl, _ = terms
        assert np.array_equal(u, u_in) and np.array_equal(mu, mu_in)
        assert np.any(u[k] < 0.0)
        assert np.array_equal(wk, np.maximum(u[k], 0.0))
        assert np.array_equal(wl, np.maximum(u[l], 0.0))


def potential(mesh, u, v, params):
    """``mu(u)``, the potential each Newton trial of the solver sets."""
    return (params.k0 * np.log(u + params.eps)
            - params.k1 * project_p1_to_p0(mesh, v))


def density_residual(op, u_old, v):
    """``u -> mass_balance(u, mu(u), u_old)``, the residual Newton drives
    to zero."""
    return lambda u: op.mass_balance(u, potential(op.mesh, u, v, op.params),
                                     u_old)[0]


class TestResidual:
    def test_homogeneous_steady_state_is_zero(self, unit_square_mesh2):
        nc = unit_square_mesh2.n_cells
        params = ModelParams(dt=1e-3, t_end=1e-3)
        v = np.full(unit_square_mesh2.n_vertices, 0.7)
        u = np.full(nc, 2.5)
        op = NewtonOperator(unit_square_mesh2, params)
        r = density_residual(op, u, v)(u)
        assert np.max(np.abs(r)) <= 1e-13

    def test_two_cell_symbolic_expansion(self, two_cell_mesh):
        params = ModelParams(k0=1.3, k1=0.8, eps=1e-4, dt=2e-3,
                             t_end=2e-3)
        u = np.array([1.7, 0.4])
        u_old = np.array([1.2, 0.9])
        c1, c2 = 0.3, -0.2
        v = v_with_cell_averages(c1, c2)
        area = 0.5
        w = 3.0  # |e| / D for the unit-square diagonal
        jm = (params.k0 * np.log(u[0] + params.eps) - params.k1 * c1
              - params.k0 * np.log(u[1] + params.eps) + params.k1 * c2)
        flux = w * (max(jm, 0.0) * max(u[0], 0.0)
                    - max(-jm, 0.0) * max(u[1], 0.0))
        expected = np.array([
            area * (u[0] - u_old[0]) / params.dt + flux,
            area * (u[1] - u_old[1]) / params.dt - flux,
        ])
        op = NewtonOperator(two_cell_mesh, params)
        got = density_residual(op, u_old, v)(u)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_flux_sum_telescopes_to_mass_rate(self, unit_square_mesh1, rng):
        # summing the mass balance over all cells leaves only the mass
        # rate: the edge fluxes cancel pairwise
        mesh = unit_square_mesh1
        params = ModelParams(dt=1e-4)
        u = rng.uniform(0.1, 3.0, mesh.n_cells)
        mu = rng.normal(size=mesh.n_cells)
        u_old = rng.uniform(0.1, 3.0, mesh.n_cells)
        r, _ = NewtonOperator(mesh, params).mass_balance(u, mu, u_old)
        rate = (integrate_cellfield(mesh, u)
                - integrate_cellfield(mesh, u_old)) / params.dt
        assert r.sum() == pytest.approx(rate, rel=1e-10, abs=1e-10)

    def test_log_domain_guard_in_line_search(self, two_cell_mesh,
                                             monkeypatch):
        # no halving of a step that sends u + eps below zero is evaluated
        monkeypatch.setattr(NewtonOperator, "direction",
                            lambda *args: (np.full(2, -1e10), 0, False))
        with pytest.raises(NewtonDivergenceError,
                           match=r"u \+ eps must stay positive") as info:
            u_step(two_cell_mesh, np.array([4.0, 0.1]),
                   v_with_cell_averages(2.0, -3.0),
                   ModelParams(dt=1e-3, t_end=1e-3))
        assert np.array_equal(info.value.u, [4.0, 0.1])

    def test_orientation_relabeling_invariance(self, unit_square_mesh1, rng):
        mesh = unit_square_mesh1
        params = ModelParams(dt=1e-4)
        u = rng.uniform(0.1, 3.0, mesh.n_cells)
        mu = rng.normal(size=mesh.n_cells)
        u_old = rng.uniform(0.1, 3.0, mesh.n_cells)
        which = rng.random(mesh.n_interior_edges) < 0.5
        flipped = flip_edges(mesh, which)
        ra, _ = NewtonOperator(mesh, params).mass_balance(u, mu, u_old)
        rb, _ = NewtonOperator(flipped, params).mass_balance(u, mu, u_old)
        assert np.allclose(ra, rb, rtol=1e-13, atol=1e-13)

    def test_negative_donor_sends_nothing(self, two_cell_mesh):
        # the donor cell 0 holds a negative density: the truncated flux
        # 3 * (1 * max(-0.5, 0)) is zero, so each row is its mass term
        params = ModelParams(eps=1.0, dt=1e-3, t_end=1e-3)
        u = np.array([-0.5, 2.0])
        mu = np.array([1.0, 0.0])
        u_old = np.array([0.5, 1.0])
        r, terms = NewtonOperator(two_cell_mesh, params).mass_balance(
            u, mu, u_old)
        assert terms[-1][0] == 0.0
        assert np.array_equal(r, 0.5 * (u - u_old) / params.dt)


def refilled(op, u, mu, u_old):
    """The operator's Newton matrix, refilled at ``u`` and ``mu``."""
    op.refill(u, op.mass_balance(u, mu, u_old)[1])
    return op.schur


class TestJacobian:
    def test_matches_central_differences(self, rng):
        mesh = build_structured_mesh("mesh1", 4, (0, 1, 0, 1))
        nc = mesh.n_cells
        params = ModelParams(eps=1e-2, dt=1e-3, t_end=1e-3)
        op = NewtonOperator(mesh, params)
        u_old = rng.uniform(0.2, 1.0, nc)
        v = rng.uniform(0.0, 1.0, mesh.n_vertices)
        residual = density_residual(op, u_old, v)
        h = 1e-6
        for _ in range(5):
            # keep away from the truncation kink
            u = rng.uniform(0.5, 1.5, nc)
            jac = refilled(op, u, potential(mesh, u, v, params), u_old)
            d = rng.normal(size=nc)
            d /= np.linalg.norm(d)
            fd = (residual(u + h * d) - residual(u - h * d)) / (2 * h)
            assert np.max(np.abs(jac @ d - fd)) <= 1e-6

    def test_sparsity_follows_edge_adjacency(self, unit_square_mesh1, rng):
        mesh = unit_square_mesh1
        nc = mesh.n_cells
        params = ModelParams(eps=1e-2, dt=1e-3, t_end=1e-3)
        u = rng.uniform(1.0, 2.0, nc)
        mu = rng.uniform(1.0, 2.0, nc) * np.arange(1, nc + 1)  # all jumps hit
        jac = refilled(NewtonOperator(mesh, params), u, mu, u).toarray()
        adjacent = {(i, i) for i in range(nc)}
        for k, l in mesh.edge_cells:
            adjacent |= {(k, l), (l, k)}
        for i in range(nc):
            for j in range(nc):
                if (i, j) not in adjacent:
                    assert jac[i, j] == 0.0

    @pytest.mark.parametrize("flip", [False, True])
    def test_pattern_entries(self, unit_square_mesh2, rng, flip):
        # each row holds its cell and its edge neighbours in sorted
        # columns, and the slots of the diagonal, (K, L) and (L, K) point
        # at those entries in cell and in edge order
        mesh, params = unit_square_mesh2, ModelParams()
        if flip:
            # a copy relabelled after an operator on the original was built
            assert NewtonOperator(mesh, params).schur is not None
            mesh = flip_edges(mesh, rng.random(mesh.n_interior_edges) < 0.5)
        op = NewtonOperator(mesh, params)
        indptr, indices = op.schur.indptr, op.schur.indices
        nc = mesh.n_cells
        rows = np.repeat(np.arange(nc), np.diff(indptr))
        for i in range(nc):
            assert list(indices[indptr[i]:indptr[i + 1]]) == sorted(
                {i} | {int(b) for a, b in mesh.edge_cells if a == i}
                | {int(a) for a, b in mesh.edge_cells if b == i})
        k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        cells = np.arange(nc)
        slots = np.concatenate((op.diagonal, op.kl, op.lk))
        assert np.array_equal(rows[slots], np.concatenate((cells, k, l)))
        assert np.array_equal(indices[slots], np.concatenate((cells, l, k)))

    def test_pattern_arrays_are_read_only(self, unit_square_mesh1):
        op = NewtonOperator(unit_square_mesh1, ModelParams())
        arrays = dict(indptr=op.schur.indptr, indices=op.schur.indices,
                      diagonal=op.diagonal, kl=op.kl, lk=op.lk)
        for name, value in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0

    def test_truncated_cell_has_zero_flux_derivative(self, two_cell_mesh):
        # a cell with negative density transports nothing, so flux
        # derivatives with respect to it vanish
        params = ModelParams(eps=1.0, dt=1e-3, t_end=1e-3)
        u = np.array([-0.5, 2.0])
        mu = np.array([1.0, 0.0])  # jump positive: donor is cell 0
        jac = refilled(NewtonOperator(two_cell_mesh, params), u, mu,
                       np.ones(2)).toarray()
        area = 0.5
        assert jac[0, 0] == pytest.approx(area / params.dt)
        assert jac[1, 0] == 0.0

    def test_direction_is_a_newton_step_of_the_density_residual(self, rng):
        # at mu = mu(u) the central difference of the density residual
        # along the direction du is -r
        mesh = build_structured_mesh("mesh2", 3, (0, 1, 0, 1))
        nc = mesh.n_cells
        params = ModelParams(eps=1e-2, dt=1e-3, t_end=1e-3)
        u = rng.uniform(0.5, 1.5, nc)
        u_old = rng.uniform(0.2, 1.0, nc)
        v = rng.uniform(0.0, 1.0, mesh.n_vertices)
        mu = potential(mesh, u, v, params)
        op = NewtonOperator(mesh, params)
        r1, terms = op.mass_balance(u, mu, u_old)
        du, _, _ = op.direction(u, mu, r1, terms)
        residual = density_residual(op, u_old, v)
        h = 1e-6 / np.max(np.abs(du))
        fd = (residual(u + h * du) - residual(u - h * du)) / (2 * h)
        assert np.max(np.abs(fd + r1)) <= 1e-6 * np.max(np.abs(r1))


class TestSolve:
    def test_homogeneous_fixed_point(self, unit_square_mesh2):
        params = ModelParams(dt=1e-3, t_end=1e-3)
        c = 3.0
        vbar = 0.4
        u_old = np.full(unit_square_mesh2.n_cells, c)
        v = np.full(unit_square_mesh2.n_vertices, vbar)
        u, mu, stats = u_step(unit_square_mesh2, u_old, v, params)
        assert stats.iterations == 0
        assert np.allclose(u, c, atol=0)
        assert np.allclose(mu, params.k0 * np.log(c + params.eps)
                           - params.k1 * vbar, atol=1e-14)

    def test_two_cell_bisection_oracle(self, two_cell_mesh):
        params = ModelParams(eps=1e-6, dt=1e-3, t_end=1e-3)
        a, b = 2.0, 0.5
        c1, c2 = 0.3, -0.2
        u_old = np.array([a, b])
        v = v_with_cell_averages(c1, c2)

        def g(u1):
            # one-step balance reduced to the first cell; equal areas so
            # mass conservation pins u2 = a + b - u1
            u2 = a + b - u1
            mu1 = params.k0 * np.log(u1 + params.eps) - params.k1 * c1
            mu2 = params.k0 * np.log(u2 + params.eps) - params.k1 * c2
            jm = mu1 - mu2
            flux = 3.0 * (max(jm, 0.0) * max(u1, 0.0)
                          - max(-jm, 0.0) * max(u2, 0.0))
            return 0.5 * (u1 - a) / params.dt + flux

        lo, hi = 1e-12, a + b - 1e-12
        assert g(lo) < 0 < g(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        u1_oracle = 0.5 * (lo + hi)

        u, mu, stats = u_step(two_cell_mesh, u_old, v, params)
        assert u[0] == pytest.approx(u1_oracle, abs=1e-10)
        assert u[0] + u[1] == pytest.approx(a + b, rel=1e-13)

    def test_first_step_of_collapse_run(self):
        # steep centered bulge: the hardest practical one-step instance
        mesh = build_structured_mesh("mesh1", 32)
        xs, ys = mesh.barycenters[:, 0], mesh.barycenters[:, 1]
        u_old = 1000.0 * np.exp(-100.0 * (xs ** 2 + ys ** 2))
        vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
        v = 500.0 * np.exp(-50.0 * (vx ** 2 + vy ** 2))
        params = ModelParams(dt=1e-6)
        u, mu, stats = u_step(mesh, u_old, v, params)
        assert stats.iterations <= 30
        assert np.min(u) >= 0.0
        drift = abs(integrate_cellfield(mesh, u)
                    - integrate_cellfield(mesh, u_old))
        assert drift <= 1e-11 * integrate_cellfield(mesh, u_old)

    def test_negative_initial_density_rejected(self, two_cell_mesh):
        with pytest.raises(ValueError, match="nonnegative"):
            u_step(two_cell_mesh, np.array([-0.1, 1.0]), np.zeros(4),
                   ModelParams())

    def test_divergence_carries_last_iterate(self, two_cell_mesh,
                                             monkeypatch):
        params = ModelParams(dt=1e-3, t_end=1e-3)
        monkeypatch.setattr(ustep, "NEWTON_MAX_ITERS", 1)
        with pytest.raises(NewtonDivergenceError, match="stalled") as info:
            u_step(two_cell_mesh, np.array([4.0, 0.1]),
                   v_with_cell_averages(2.0, -3.0), params)
        err = info.value
        assert err.u is not None and err.u.shape == (2,)
        assert err.stats is not None and err.stats.iterations == 1

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_initial_residual_raises(self, bad):
        # one bad vertex of v_new poisons the potential of its cells; the
        # step fails at the initial guess instead of "converging"
        mesh = build_structured_mesh("mesh1", 4)
        u_old = np.ones(mesh.n_cells)
        v = np.ones(mesh.n_vertices)
        v[7] = bad
        with pytest.raises(NewtonDivergenceError,
                           match="non-finite residual nan after 0") as info, \
                np.errstate(invalid="ignore"):
            u_step(mesh, u_old, v, ModelParams(dt=1e-3, t_end=1e-3))
        err = info.value
        assert np.array_equal(err.u, u_old) and not np.all(np.isfinite(err.mu))
        assert err.stats.iterations == 0
        assert np.isnan(err.stats.residual)

    def test_non_finite_accepted_trial_raises(self, two_cell_mesh,
                                              monkeypatch):
        # every halving of an infinite step is admissible (u + eps > 0)
        # and has a NaN residual; the best of them is accepted, then fails
        monkeypatch.setattr(NewtonOperator, "direction",
                            lambda *args: (np.full(2, np.inf), 0, False))
        with pytest.raises(NewtonDivergenceError,
                           match="non-finite residual nan after 1") as info, \
                np.errstate(invalid="ignore"):
            u_step(two_cell_mesh, np.array([4.0, 0.1]),
                   v_with_cell_averages(2.0, -3.0),
                   ModelParams(dt=1e-3, t_end=1e-3))
        err = info.value
        assert np.all(np.isinf(err.u)) and err.mu is not None
        assert err.stats.iterations == 1

    @pytest.mark.parametrize("dt", [1e-4, 3e-4])
    def test_collapse_step_at_large_dt(self, dt):
        # corner densities start near 1e-19 with eps = 1e-10, so a full
        # Newton step easily leaves u + eps > 0; the step is well posed
        cfg = load_config("[mesh]\npattern = mesh1\nn = 32\n[params]\n"
                          "dt = %r\nt_end = %r\n[initial]\n"
                          "preset = one_bulge\n" % (dt, dt))
        mesh = build_mesh(cfg)
        u0, v0 = initial_fields(cfg, mesh)
        rows = [r for _, r in simulate(mesh, cfg.params, u0, v0)]
        assert len(rows) == 2
        assert 0 < rows[1].newton_iters <= ustep.NEWTON_MAX_ITERS
        assert rows[1].min_u >= 0.0

    def test_first_step_without_warm_start_at_large_dt(self):
        # a run's first step has nothing to warm-start from; with a loose
        # first solve from zero this step stalled at a residual of 1.3e-7
        # after 30 iterations
        cfg = load_config("[mesh]\npattern = mesh2\nn = 32\n[params]\n"
                          "dt = 1e-2\nt_end = 1e-2\n[initial]\n"
                          "preset = three_bulges\n")
        mesh = build_mesh(cfg)
        u0, v0 = initial_fields(cfg, mesh)
        rows = [r for _, r in simulate(mesh, cfg.params, u0, v0)]
        assert len(rows) == 2
        assert 0 < rows[1].newton_iters <= ustep.NEWTON_MAX_ITERS

    def test_each_trial_evaluates_the_flux_once(self, monkeypatch):
        mesh, params, u0, v0 = one_bulge_setup()
        calls = {"flux": 0, "trial": 0}
        flux_terms = ustep._flux_terms
        mass_balance = NewtonOperator.mass_balance

        def count_flux(*args):
            calls["flux"] += 1
            return flux_terms(*args)

        def count_trial(*args):
            calls["trial"] += 1
            return mass_balance(*args)

        monkeypatch.setattr(ustep, "_flux_terms", count_flux)
        monkeypatch.setattr(NewtonOperator, "mass_balance", count_trial)
        _, _, stats = u_step(mesh, u0, v0, params)
        assert stats.iterations > 0
        assert calls["trial"] > stats.iterations
        assert calls["flux"] == calls["trial"]

    def test_roundoff_scale_only_where_it_can_stop(self, monkeypatch):
        # the exact pass runs only at or below the bound's threshold
        # 32 eps bound, where its own test can pass
        mesh, params, u0, v0 = one_bulge_setup()
        bounds, checked = [], []
        roundoff_bound = NewtonOperator.roundoff_bound
        roundoff_scale = NewtonOperator.roundoff_scale

        def record_bound(op, u, old_max, mu):
            bounds.append((u, mu, roundoff_bound(op, u, old_max, mu)))
            return bounds[-1][-1]

        def check_scale(op, u, u_old, terms):
            bu, mu, bound = bounds[-1]
            assert bu is u
            rnorm = np.max(np.abs(op.mass_balance(u, mu, u_old)[0]))
            checked.append(rnorm <= 32.0 * ustep._EPS * bound)
            return roundoff_scale(op, u, u_old, terms)

        monkeypatch.setattr(NewtonOperator, "roundoff_bound", record_bound)
        monkeypatch.setattr(NewtonOperator, "roundoff_scale", check_scale)
        rows = [r for _, r in simulate(mesh, params, u0, v0)]
        assert len(rows) == 6 and all(checked)
        # each step's last iterate stops on the scale; its earlier ones
        # are far above the threshold and skip the exact pass
        assert len(checked) == 5
        assert len(bounds) == sum(r.newton_iters + 1 for r in rows[1:]) > 5

    def test_skipping_the_exact_pass_changes_nothing(self, monkeypatch):
        # with the bound at +inf every check runs the exact pass, as
        # before the bound existed; states and rows stay the same
        mesh, params, u0, v0 = one_bulge_setup()
        runs = []
        for bound in (None, np.inf):
            if bound is not None:
                monkeypatch.setattr(NewtonOperator, "roundoff_bound",
                                    lambda *args: bound)
            runs.append([(state.u, state.mu, row)
                         for state, row in simulate(mesh, params, u0, v0)])
        default, forced = runs
        assert len(default) == len(forced) == 6
        for (u, mu, row), (u_ref, mu_ref, row_ref) in zip(default, forced):
            assert np.array_equal(u, u_ref) and np.array_equal(mu, mu_ref)
            assert row == row_ref

    def test_stop_test_waits_for_the_mass_balance(self, monkeypatch):
        # the max-norm test is made to pass right after the loose
        # warm-started first solve, whose rows sum to a mass change beyond
        # MASS_RTOL: Newton iterates on instead of failing the mass check
        mesh, params, u0, v0 = one_bulge_setup()
        operator = NewtonOperator(mesh, params)
        pi0v = project_p1_to_p0(mesh, v0)
        u1, _, _ = solve_u_step(operator, u0, pi0v)
        mass = np.dot(mesh.areas, u1)
        drifts = []

        def loose_bound(op, u, old_max, mu):
            drifts.append(abs(np.dot(mesh.areas, u) - mass) / mass)
            return 0.0 if len(drifts) == 1 else np.inf

        monkeypatch.setattr(NewtonOperator, "roundoff_bound", loose_bound)
        monkeypatch.setattr(NewtonOperator, "roundoff_scale",
                            lambda *args: np.inf)
        u2, _, stats = solve_u_step(operator, u1, pi0v)
        assert drifts[1] > ustep.MASS_RTOL
        assert stats.iterations == len(drifts) - 1 >= 2
        assert drifts[-1] <= 0.5 * ustep.MASS_RTOL
        assert abs(np.dot(mesh.areas, u2) - mass) <= ustep.MASS_RTOL * mass

    def test_nan_roundoff_scale_never_stops_newton(self, monkeypatch):
        # a NaN scale bounds nothing: the step runs out of iterations
        # instead of passing off its iterate as converged
        mesh, params, u0, v0 = one_bulge_setup()
        monkeypatch.setattr(NewtonOperator, "roundoff_scale",
                            lambda *args: np.nan)
        with pytest.raises(NewtonDivergenceError, match="stalled") as info:
            u_step(mesh, u0, v0, params)
        stats = info.value.stats
        assert stats.iterations == ustep.NEWTON_MAX_ITERS

    def test_stats_carry_the_energy_law_dissipation(self, monkeypatch):
        mesh, params, u0, v0 = one_bulge_setup()
        u, mu, stats = u_step(mesh, u0, v0, params)
        assert stats.dissipation == aupw_apply(mesh, mu, pos_part(u), mu)
        assert stats.dissipation > 0.0
        # simulate takes it from the stats, with no second flux pass
        monkeypatch.setattr(simulation, "aupw_apply", None)
        rows = [r for _, r in simulate(mesh, params, u0, v0)]
        assert len(rows) == 6

    def test_stats_carry_the_entropy_log(self):
        # the E_eps entropy reuses log(u + eps) of the accepted trial; a
        # fresh log gives the same bits, also in a run
        mesh, params, u0, v0 = one_bulge_setup()
        u, _, stats = u_step(mesh, u0, v0, params)
        assert stats.clamp == 0.0
        assert np.array_equal(stats.log_u, np.log(u + params.eps))
        for state, row in simulate(mesh, params, u0, v0):
            assert row.E_eps == simulation.energy_eps(mesh, state.u, state.v,
                                                      params)

    def test_entropy_log_after_a_clamp(self, monkeypatch):
        # one Newton step lands on the converged state with its smallest
        # cell at a clamp-sized negative; the clamp zeroes it, and the log
        # the entropy reuses is taken at the clamped density
        mesh, params, u0, v0 = one_bulge_setup()
        converged, _, _ = u_step(mesh, u0, v0, params)
        target = converged.copy()
        # below the round-off floor of the rows, so the target converges
        target[np.argmin(target)] = -0.01 * ustep.CLAMP_REL * np.max(target)
        monkeypatch.setattr(NewtonOperator, "direction",
                            lambda op, u, *args: (target - u, 0, False))
        u, _, stats = u_step(mesh, u0, v0, params)
        assert stats.iterations == 1 and stats.clamp > 0.0
        assert np.min(u) == 0.0
        assert np.array_equal(stats.log_u, np.log(u + params.eps))
        assert (simulation._entropy(mesh, u, params.eps, stats.log_u)
                == simulation._entropy(mesh, u, params.eps))


class TestRoundoffBound:
    @settings(max_examples=80, deadline=None)
    @given(pattern=st.sampled_from(["mesh1", "mesh2"]), n=st.integers(1, 8),
           log_dt=st.floats(-7.0, -2.0), log_mu=st.floats(-1.0, 8.0),
           tight=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_three_maxima_bound_dominates_exact_scale(self, pattern, n,
                                                      log_dt, log_mu, tight,
                                                      seed):
        rng = np.random.default_rng(seed)
        mesh = build_structured_mesh(pattern, n + n % 2 * (pattern == "mesh1"))
        nc = mesh.n_cells
        dt = 10.0 ** log_dt
        op = NewtonOperator(mesh, ModelParams(dt=dt, t_end=dt))
        top = 10.0 ** log_mu
        if tight:
            # every cell at the maxima of u, u_old and |mu|
            u, u_old = np.full(nc, 700.0), np.full(nc, 300.0)
            mu = top * rng.choice([-1.0, 1.0], nc)
        else:
            u = rng.uniform(0.0, 1000.0, nc) * (rng.random(nc) < 0.8)
            u[rng.random(nc) < 0.1] = -1e-13 * max(1.0, np.max(u))
            u_old = rng.uniform(0.0, 1000.0, nc) * (rng.random(nc) < 0.8)
            mu = rng.uniform(-top, top, nc)
            mu[rng.random(nc) < 0.3] = mu[0]          # zero jumps
        _, terms = op.mass_balance(u, mu, u_old)
        scale = op.roundoff_scale(u, u_old, terms)
        # the rounding of the two sums is far below the factor 2 the
        # solver allows for it
        bound = op.roundoff_bound(u, float(np.max(np.abs(u_old))), mu)
        assert scale <= bound * (1.0 + 8 * ustep._EPS)


ONE_BULGE_16 = ("[mesh]\npattern = mesh1\nn = 16\n[params]\nt_end = 5e-6\n"
                "[initial]\npreset = one_bulge\n")


def one_bulge_setup():
    cfg = load_config(ONE_BULGE_16)
    mesh = build_mesh(cfg)
    return (mesh, cfg.params) + initial_fields(cfg, mesh)


def run_one_bulge(monkeypatch):
    """Five steps of ``one_bulge`` on mesh1 n=16; returns the arguments
    ``(operator, u, mu, r1, terms, x0, rtol)`` of every Newton direction
    solved and the stats of every step."""
    mesh, params, u0, v0 = one_bulge_setup()
    systems, stats = [], []
    direction = NewtonOperator.direction
    step = simulation.solve_u_step

    def record_direction(op, u, mu, r1, terms, x0, rtol):
        systems.append((op, u, mu, r1, terms, x0, rtol))
        return direction(op, u, mu, r1, terms, x0, rtol)

    def record_step(*args, **kwargs):
        out = step(*args, **kwargs)
        stats.append(out[2])
        return out

    monkeypatch.setattr(NewtonOperator, "direction", record_direction)
    monkeypatch.setattr(simulation, "solve_u_step", record_step)
    for _ in simulate(mesh, params, u0, v0):
        pass
    monkeypatch.undo()
    return systems, stats


def schur_oracle(mesh, u, mu, params):
    """The Newton matrix, dense, entry by entry from each edge flux
    ``F = w (pos([mu]) t(u_K) - neg([mu]) t(u_L))`` differentiated by
    hand, with ``t(x) = max(x, 0)``, ``dmu_K/du_K = k0/(u_K+eps)`` and
    the one-sided derivatives ``t'(0) = 0`` and ``dF/d[mu] = 0`` at
    ``[mu] = 0``."""
    jac = np.diag(mesh.areas / params.dt)
    for (k, l), w in zip(mesh.edge_cells, mesh.edge_weights):
        jm = mu[k] - mu[l]
        tk, tl = max(u[k], 0.0), max(u[l], 0.0)
        dtk, dtl = float(u[k] > 0.0), float(u[l] > 0.0)
        df_djm = w * (tk if jm > 0.0 else tl if jm < 0.0 else 0.0)
        df_duk = w * max(jm, 0.0) * dtk + df_djm * params.k0 / (
            u[k] + params.eps)
        df_dul = -w * max(-jm, 0.0) * dtl - df_djm * params.k0 / (
            u[l] + params.eps)
        jac[k, k] += df_duk
        jac[k, l] += df_dul
        jac[l, k] -= df_duk
        jac[l, l] -= df_dul
    return jac


def lu_direction(op, u, mu, r1, terms, x0=None,
                 rtol=ustep.NEWTON_LINEAR_RTOL):
    """Newton direction of the oracle matrix, solved by dense LU."""
    schur = schur_oracle(op.mesh, u, mu, op.params)
    return np.linalg.solve(schur, -r1), 0, True


def newton_system(op, u, mu, r1, terms, *start):
    """Matrix, right-hand side and diagonal of a Newton direction; the
    start ``(x0, rtol)`` of a recorded direction is dropped."""
    diagonal = op.refill(u, terms)
    return op.schur, -r1, diagonal


def jacobi_contraction(op, diagonal):
    """``q``, the 1-norm of a Jacobi sweep's residual map ``(D - J) D^-1``:
    the columns of ``J`` sum to ``|K|/dt``."""
    return 1.0 - np.min(op.mesh.areas / diagonal) / op.params.dt


class RecordedProducts(spla.LinearOperator):
    """A matrix that keeps a copy of every vector it multiplies."""

    def __init__(self, matrix):
        super().__init__(float, matrix.shape)
        self.matrix, self.vectors = matrix, []

    def _matvec(self, x):
        self.vectors.append(x.copy())
        return self.matrix @ x


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestNewtonLinearSolve:
    @pytest.mark.parametrize("pattern,n", [("mesh1", 4), ("mesh2", 3)])
    def test_pattern_assembly_matches_hand_derived_oracle(self, rng, pattern,
                                                          n):
        # the operator's matrix is filled at a state A, then refilled in
        # place at a state B whose truncation kinks and zero jumps sit in
        # other cells: no entry of A may survive
        mesh = build_structured_mesh(pattern, n)
        nc = mesh.n_cells
        params = ModelParams(eps=1e-2, dt=1e-3, t_end=1e-3)
        op = NewtonOperator(mesh, params)
        for shift in (0, 2):
            u = rng.uniform(0.0, 2.0, nc)
            u[shift::5] = 0.0                 # truncation kinks
            u[shift + 1::5] = -5e-3           # truncated away
            mu = rng.normal(size=nc)
            mu[shift // 2::3] = 0.4           # zero jumps
            _, terms = op.mass_balance(u, mu, u)
            diagonal = op.refill(u, terms)
            ref = schur_oracle(mesh, u, mu, params)
            assert max_rel_diff(op.schur.toarray(), ref) <= 1e-14
            # the Jacobi diagonal is read from the diagonal slots
            assert np.array_equal(op.schur.data[op.diagonal],
                                  op.schur.diagonal())
            assert np.array_equal(diagonal, op.schur.diagonal())

    def test_krylov_direction_matches_lu_on_run_systems(self, monkeypatch):
        # at the default start and tolerance: from zero to 1e-12, by Jacobi
        # sweeps on these q <= 1/2 systems
        systems, _ = run_one_bulge(monkeypatch)
        assert len(systems) >= 5
        for args in systems:
            args = args[:5]
            du, iterations, fallback = NewtonOperator.direction(*args)
            ref_du, _, _ = lu_direction(*args)
            assert iterations > 0 and not fallback
            assert max_rel_diff(du, ref_du) <= 1e-10

    def test_run_steps_need_no_lu(self, monkeypatch):
        _, stats = run_one_bulge(monkeypatch)
        assert len(stats) == 5
        for s in stats:
            assert s.lu_fallbacks == 0
            assert s.linear_iterations >= s.iterations > 0

    @pytest.mark.parametrize("solver,dt", [("_jacobi_solve", None),
                                           ("_krylov_solve", 1e-2)])
    def test_krylov_failure_falls_back_to_lu(self, monkeypatch, solver, dt):
        # the default dt solves by Jacobi sweeps and dt = 1e-2 (q > 1/2) by
        # BiCGSTAB; whichever runs misses, and LU solves every system
        mesh, params, u0, v0 = one_bulge_setup()
        if dt is not None:
            params = dataclasses.replace(params, dt=dt, t_end=dt)
        with monkeypatch.context() as m:
            m.setattr(NewtonOperator, "direction", lu_direction)
            u_ref, _, ref_stats = u_step(mesh, u0, v0, params)
        misses = []

        def miss(*args):
            misses.append(args)
            return None, 1

        monkeypatch.setattr(ustep, solver, miss)
        u, _, stats = u_step(mesh, u0, v0, params)
        assert stats.lu_fallbacks == stats.iterations == ref_stats.iterations
        assert stats.lu_fallbacks == len(misses) >= 1
        assert max_rel_diff(u, u_ref) <= 1e-12

    def test_krylov_iterations_count_matrix_products(self, monkeypatch):
        # an iteration multiplies twice, the last once if it stops after
        # its first half; a nonzero start adds its initial residual, and
        # a solve that ends in its convergence test, as every one here,
        # the true residual it is accepted on.  A full step's update as
        # the start of a later system can meet 1e-12 of its small rhs
        # in the recursive residual but not in the true one: a miss
        systems, _ = run_one_bulge(monkeypatch)
        assert len(systems) >= 5
        warm = [args[5] for args in systems if args[5] is not None]
        assert warm
        misses = 0
        for args in systems:
            schur, rhs, diagonal = newton_system(*args)
            zero = np.zeros_like(rhs)
            for x0, rtol in (args[5:], (None, ustep.NEWTON_LINEAR_RTOL),
                             (zero, ustep.NEWTON_FIRST_RTOL),
                             (warm[0], ustep.NEWTON_FIRST_RTOL),
                             (warm[-1], ustep.NEWTON_LINEAR_RTOL)):
                products = RecordedProducts(schur)
                x, iterations = ustep._krylov_solve(products, rhs, diagonal,
                                                    x0, rtol)
                start = x0 is not None and x0.any()
                assert iterations > 0
                assert len(products.vectors) - start - 1 in (
                    2 * iterations - 1, 2 * iterations)
                assert not start or np.array_equal(products.vectors[0], x0)
                checked = products.vectors[-1]
                assert (x is not None) == (np.linalg.norm(rhs - schur @ checked)
                                           <= rtol * np.linalg.norm(rhs))
                assert x is None or np.array_equal(x, checked)
                assert x0 is None or x0 is not x
                misses += x is None
            # the solver's own start always converges
            assert ustep._krylov_solve(schur, rhs, diagonal,
                                       *args[5:])[0] is not None
        assert misses >= 1

    def test_first_solve_of_a_step_is_warm_and_loose(self, monkeypatch):
        # the first solve of step n starts from u^(n-1) - u^(n-2), the
        # last accepted update, at NEWTON_FIRST_RTOL; a fresh operator has
        # none, so step 1 solves from zero at 1e-12 like every later solve
        systems, stats = run_one_bulge(monkeypatch)
        mesh, params, u0, v0 = one_bulge_setup()
        us = [state.u for state, _ in simulate(mesh, params, u0, v0)]
        start = 0
        for n, s in enumerate(stats, start=1):
            step = systems[start:start + s.iterations]
            start += s.iterations
            (*_, x0, rtol), later = step[0], step[1:]
            if n == 1:
                assert x0 is None and rtol == ustep.NEWTON_LINEAR_RTOL
            else:
                assert rtol == ustep.NEWTON_FIRST_RTOL
                assert np.array_equal(x0, us[n - 1] - us[n - 2])
            assert later and all(
                args[5] is None and args[6] == ustep.NEWTON_LINEAR_RTOL
                for args in later)
        assert start == len(systems)

    @pytest.mark.parametrize("scale", [0.0, 1e-20])
    def test_krylov_loop_tiny_rhs(self, monkeypatch, scale):
        # a zero rhs returns zero at once; at 1e-20, rho = |rhs|^2 is
        # below the breakdown threshold eps^2 at the first iteration
        systems, _ = run_one_bulge(monkeypatch)
        schur, rhs, diagonal = newton_system(*systems[0])
        rhs = scale * rhs / np.max(np.abs(rhs))
        x, iterations = ustep._krylov_solve(schur, rhs, diagonal)
        assert iterations == 0
        assert (x is None) == (scale > 0.0)
        assert x is None or not x.any()

    def test_krylov_loop_at_every_iteration_cap(self, monkeypatch):
        # random sparse systems, capped one below the iterations ``full``
        # of the uncapped solve and at them.  The lower cap misses.  A
        # solve that passed the convergence test opening iteration
        # ``full + 1`` made an even number of products before its true
        # residual; a cap of ``full`` ends the loop before that test, and
        # it misses even though the true residual meets the tolerance
        capped_at_convergence = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 60
            a = (np.where(rng.random((n, n)) < 0.1, rng.random((n, n)), 0.0)
                 + np.diag(rng.uniform(1.0, 2.0, n)))
            system = sp.csr_matrix(a), rng.normal(size=n), np.diag(a).copy()
            products = RecordedProducts(system[0])
            ref, full = ustep._krylov_solve(products, *system[1:])
            assert ref is not None
            opens_next = len(products.vectors) % 2 == 1
            for cap in (full - 1, full):
                monkeypatch.setattr(ustep, "NEWTON_LINEAR_MAXITER", cap)
                x, iterations = ustep._krylov_solve(*system)
                if cap < full or opens_next:
                    assert x is None and iterations == cap
                else:
                    assert iterations == full and np.array_equal(x, ref)
                capped_at_convergence += cap == full and x is None
            monkeypatch.undo()
        assert capped_at_convergence >= 1

    def test_capped_krylov_loop_falls_back_to_lu(self, monkeypatch):
        systems, _ = run_one_bulge(monkeypatch)
        monkeypatch.setattr(ustep, "NEWTON_LINEAR_MAXITER", 2)
        x, iterations = ustep._krylov_solve(*newton_system(*systems[0]))
        assert x is None and iterations == 2
        du, iterations, fallback = NewtonOperator.direction(*systems[0])
        assert fallback and iterations == 2
        assert max_rel_diff(du, lu_direction(*systems[0])[0]) <= 1e-10
        mesh, params, u0, v0 = one_bulge_setup()
        _, _, stats = u_step(mesh, u0, v0, params)
        assert stats.lu_fallbacks == stats.iterations >= 1

    def test_solver_counts_at_seed_0(self, monkeypatch):
        # Newton iterations, linear iterations and LU fallbacks of the five
        # steps, pinned; every system of this run has q <= 1/2, so the
        # linear iterations are Jacobi sweeps.  The bench configs' totals
        # are in CHANGES.md
        _, stats = run_one_bulge(monkeypatch)
        assert (sum(s.iterations for s in stats),
                sum(s.linear_iterations for s in stats),
                sum(s.lu_fallbacks for s in stats)) == (10, 64, 0)

    def test_jacobi_sweep_contracts_the_residual_by_q(self, monkeypatch):
        # a sweep maps the residual by (D - J) D^-1, whose 1-norm is q.  The
        # residuals are computed ones: b - J x (at most four terms a row)
        # and the sweep round within the slack 16 eps (|b| + |J| (|x_k| +
        # |x_(k-1)|)) in the 1-norm
        systems, _ = run_one_bulge(monkeypatch)
        checked = 0
        for args in systems:
            schur, rhs, diagonal = newton_system(*args)
            q = jacobi_contraction(args[0], diagonal)
            assert 0.0 < q <= JACOBI_RADIUS_MAX
            for x0, rtol in (args[5:], (None, ustep.NEWTON_LINEAR_RTOL)):
                products = RecordedProducts(schur)
                x, sweeps = ustep._jacobi_solve(products, rhs, diagonal, x0,
                                                rtol)
                iterates = ([np.zeros_like(rhs)] if x0 is None else []
                            ) + products.vectors
                assert x is not None and sweeps == len(iterates) - 1
                assert np.array_equal(iterates[-1], x)
                norms = [np.sum(np.abs(rhs - schur @ xk)) for xk in iterates]
                for k in range(1, len(iterates)):
                    slack = 16 * ustep._EPS * np.sum(
                        np.abs(rhs) + abs(schur) @ (np.abs(iterates[k])
                                                    + np.abs(iterates[k - 1])))
                    assert norms[k] <= q * norms[k - 1] + slack
                    checked += norms[k] > slack
        assert checked > len(systems)

    def test_jacobi_solve_ends_within_the_contraction_bound(self,
                                                          monkeypatch):
        # from zero |r_k|_2 <= |r_k|_1 <= q^k |b|_1 <= q^k sqrt(n) |b|_2, so
        # ceil(log(rtol / sqrt(n)) / log q) sweeps meet rtol; one more
        # covers the rounding
        systems, _ = run_one_bulge(monkeypatch)
        for args in systems:
            schur, rhs, diagonal = newton_system(*args)
            q = jacobi_contraction(args[0], diagonal)
            for rtol in (ustep.NEWTON_FIRST_RTOL, ustep.NEWTON_LINEAR_RTOL):
                x, sweeps = ustep._jacobi_solve(schur, rhs, diagonal, None,
                                                rtol)
                bound = math.ceil(math.log(rtol / math.sqrt(len(rhs)))
                                  / math.log(q)) + 1
                assert x is not None and 0 < sweeps <= bound
        # a zero rhs returns zero at once, also from a nonzero start
        zero = np.zeros_like(rhs)
        x, sweeps = ustep._jacobi_solve(schur, zero, diagonal, rhs)
        assert sweeps == 0 and np.array_equal(x, zero)

    def test_large_dt_systems_take_bicgstab(self, monkeypatch):
        # at dt = 1e-2 the mass term is small against the fluxes and q is
        # near 1, too slow a contraction for sweeps: every Newton system
        # is solved by BiCGSTAB, bit for bit as a direct call, or by LU
        # where that call misses
        mesh, params, u0, v0 = one_bulge_setup()
        params = dataclasses.replace(params, dt=1e-2, t_end=1e-2)
        direction, solves = NewtonOperator.direction, []

        def check(op, u, mu, r1, terms, x0, rtol):
            out = direction(op, u, mu, r1, terms, x0, rtol)
            diagonal = op.schur.diagonal()
            solves.append((jacobi_contraction(op, diagonal), out,
                           ustep._krylov_solve(op.schur, -r1, diagonal, x0,
                                               rtol)))
            return out

        monkeypatch.setattr(NewtonOperator, "direction", check)
        monkeypatch.setattr(ustep, "_jacobi_solve", None)
        _, _, stats = u_step(mesh, u0, v0, params)
        # Newton iterations, BiCGSTAB iterations and LU fallbacks, pinned
        assert (stats.iterations, stats.linear_iterations,
                stats.lu_fallbacks) == (6, 243, 1)
        assert any(ref is not None for *_, (ref, _) in solves)
        for q, (du, iterations, fallback), (ref, ref_iterations) in solves:
            assert q > JACOBI_RADIUS_MAX and iterations == ref_iterations
            assert fallback == (ref is None)
            assert fallback or np.array_equal(du, ref)

    def test_nan_contraction_takes_bicgstab(self, monkeypatch):
        # a NaN q bounds nothing: BiCGSTAB solves, as above 1/2
        systems, _ = run_one_bulge(monkeypatch)
        op, u, mu, r1, terms, *_ = systems[0]
        schur, rhs, diagonal = newton_system(*systems[0])
        monkeypatch.setattr(op, "refill", lambda *args: diagonal)
        monkeypatch.setattr(op, "params", types.SimpleNamespace(dt=np.nan))
        monkeypatch.setattr(ustep, "_jacobi_solve", None)
        du, iterations, fallback = op.direction(u, mu, r1, terms)
        ref, ref_iterations = ustep._krylov_solve(schur, rhs, diagonal)
        assert not fallback and iterations == ref_iterations > 0
        assert np.array_equal(du, ref)

    def test_one_sparse_matrix_per_run(self, monkeypatch):
        # the Newton matrix is refilled in place: one construction for
        # the run, however many Newton iterations it takes
        built = [0]

        def csr_matrix(*args, **kwargs):
            built[0] += 1
            return sp.csr_matrix(*args, **kwargs)

        monkeypatch.setattr(ustep, "sp", types.SimpleNamespace(
            **dict(vars(sp), csr_matrix=csr_matrix)))
        _, stats = run_one_bulge(monkeypatch)
        assert sum(s.iterations for s in stats) == 10
        assert built[0] == 1

    def test_operator_is_per_run(self):
        # two runs on one mesh with different dt, stepped in turn, each
        # yield what they yield alone
        mesh, params, u0, v0 = one_bulge_setup()
        runs = [params, dataclasses.replace(params, dt=params.dt / 2,
                                            t_end=params.t_end / 2)]
        alone = [[(row, state.u) for state, row in simulate(mesh, p, u0, v0)]
                 for p in runs]
        together = [[], []]
        for pair in zip(*(simulate(mesh, p, u0, v0) for p in runs)):
            for out, (state, row) in zip(together, pair):
                out.append((row, state.u))
        assert len(together[0]) == len(together[1]) == 6
        for got, ref in zip(together, alone):
            assert [row for row, _ in got] == [row for row, _ in ref]
            for (_, u), (_, u_ref) in zip(got, ref):
                assert np.array_equal(u, u_ref)
        assert [row for row, _ in alone[0]] != [row for row, _ in alone[1]]

    def test_singular_system_raises_divergence(self, two_cell_mesh,
                                               monkeypatch):
        def singular(op, u, terms):
            op.schur.data[:] = 1.0
            return op.schur.diagonal()

        monkeypatch.setattr(NewtonOperator, "refill", singular)
        with pytest.raises(NewtonDivergenceError, match="singular") as info:
            u_step(two_cell_mesh, np.array([4.0, 0.1]),
                   v_with_cell_averages(2.0, -3.0),
                   ModelParams(dt=1e-3, t_end=1e-3))
        assert info.value.u is not None
        assert isinstance(info.value.stats, ustep.NewtonStats)
        assert info.value.stats.iterations == 0
