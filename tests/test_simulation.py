import dataclasses
import os
import shutil
import warnings

import numpy as np
import pytest

from ksdg import (EnergyLawError, ModelParams, SimState, StepFailureError,
                  build_structured_mesh, energy, energy_eps, energy_law_lhs,
                  integrate_cellfield, p1_square_integral, pos_part,
                  read_diagnostics_csv, simulate)
from ksdg import simulation, ustep
from ksdg.config import PRESET_NAMES, build_mesh, initial_fields, load_config
from ksdg.simulation import ENERGY_LAW_RTOL
from ksdg.ustep import MASS_RTOL, aupw_apply

# 6-point triangle rule, exact through degree 4: enough for every term of
# the energy density on the discrete spaces (at most quadratic).
_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_QA = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])


def p1_gradients(mesh, v):
    """Constant per-cell gradient of a vertex field, shape ``(nt, 2)``."""
    return np.einsum("ta,tax->tx", v[mesh.triangles], mesh.lambda_gradients)


def energy_by_quadrature(mesh, u, v, params):
    """Independent route to the free energy: numerical quadrature of the
    actual piecewise-polynomial integrand on every triangle."""
    total = 0.0
    grads = p1_gradients(mesh, v)
    for t in range(mesh.n_cells):
        vv = v[mesh.triangles[t]]
        v_at = _QA @ vv
        entropy = params.k0 * (u[t] * np.log(u[t]) if u[t] > 0 else 0.0)
        gsq = 0.5 * params.k1 * params.k2 / params.k4 * (grads[t] @ grads[t])
        integrand = (entropy
                     - params.k1 * u[t] * v_at
                     + gsq
                     + 0.5 * params.k1 * params.k3 / params.k4 * v_at ** 2)
        total += mesh.areas[t] * float(np.dot(_QW, np.broadcast_to(
            integrand, (6,))))
    return total


def lumped_square_by_vertex_loop(mesh, v):
    """Vertex-quadrature v^2 integral recomputed from scratch."""
    weights = np.zeros(mesh.n_vertices)
    for t in range(mesh.n_cells):
        for a in mesh.triangles[t]:
            weights[a] += mesh.areas[t] / 3.0
    return float(np.sum(weights * v * v))


def collapse_setup(n=8, pattern="mesh2"):
    mesh = build_structured_mesh(pattern, n)
    xs, ys = mesh.barycenters[:, 0], mesh.barycenters[:, 1]
    u0 = 1000.0 * np.exp(-100.0 * (xs ** 2 + ys ** 2))
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    v0 = 500.0 * np.exp(-50.0 * (vx ** 2 + vy ** 2))
    return mesh, u0, v0


class TestEnergy:
    def test_zero_fields(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        p = ModelParams()
        assert energy(mesh, np.zeros(mesh.n_cells),
                      np.zeros(mesh.n_vertices), p) == 0.0

    def test_unit_density_zero_attractant(self):
        # 1 * log(1) = 0 on a unit-area domain
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        p = ModelParams()
        assert energy(mesh, np.ones(mesh.n_cells),
                      np.zeros(mesh.n_vertices), p) == 0.0

    def test_matches_quadrature_oracle(self, rng):
        mesh = build_structured_mesh("mesh1", 4)
        p = ModelParams(k0=1.2, k1=0.7, k2=2.0, k3=0.5, k4=1.5)
        u = rng.uniform(0.0, 5.0, mesh.n_cells)
        v = rng.uniform(-1.0, 2.0, mesh.n_vertices)
        got = energy(mesh, u, v, p)
        want = energy_by_quadrature(mesh, u, v, p)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_negative_density_rejected(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="negative"):
            energy(mesh, np.array([1.0, -0.5, 1.0, 1.0]),
                   np.zeros(5), ModelParams())


class TestEnergyEps:
    def test_zero_fields_give_regularization_floor(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        p = ModelParams(eps=1e-10)
        got = energy_eps(mesh, np.zeros(mesh.n_cells),
                         np.zeros(mesh.n_vertices), p)
        assert got == pytest.approx(1e-10 * np.log(1e-10), rel=1e-12)

    def test_limit_matches_plain_energy_for_constant_attractant(self, rng):
        # with a constant attractant the two functionals share every term
        # except the entropy, isolating the regularization limit
        mesh = build_structured_mesh("mesh1", 4)
        p = ModelParams(eps=1e-10)
        u = rng.uniform(0.1, 5.0, mesh.n_cells)
        v = np.full(mesh.n_vertices, 3.7)
        a = energy(mesh, u, v, p)
        b = energy_eps(mesh, u, v, p)
        assert b == pytest.approx(a, rel=1e-8)

    def test_lumped_attractant_square_term(self, rng):
        mesh = build_structured_mesh("mesh2", 3)
        p = ModelParams(k3=2.0)
        v = rng.uniform(0.0, 2.0, mesh.n_vertices)
        base = energy_eps(mesh, np.zeros(mesh.n_cells),
                          np.zeros(mesh.n_vertices), p)
        got = energy_eps(mesh, np.zeros(mesh.n_cells), v, p) - base
        grads = p1_gradients(mesh, v)
        want = (0.5 * p.k1 * p.k2 / p.k4
                * float(np.dot(mesh.areas, np.einsum("ij,ij->i", grads,
                                                     grads)))
                + 0.5 * p.k1 * p.k3 / p.k4
                * lumped_square_by_vertex_loop(mesh, v))
        assert got == pytest.approx(want, rel=1e-12)

    def test_inadmissible_density_rejected(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="positive"):
            energy_eps(mesh, np.array([0.0, -1.0, 0.0, 0.0]),
                       np.zeros(5), ModelParams())


def grad_square_by_cells(mesh, v):
    """The per-cell route to the integral of |grad v|^2."""
    g = p1_gradients(mesh, v)
    return float(np.dot(mesh.areas, np.einsum("ij,ij->i", g, g)))


@pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
@pytest.mark.parametrize("field", ["random", "near_constant"])
def test_grad_square_matches_cellwise_oracle(rng, pattern, field):
    mesh = build_structured_mesh(pattern, 16)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    if field == "random":
        v = rng.standard_normal(mesh.n_vertices)
    else:
        # a large level on a unit bump: the level must not leak into the
        # round-off of the quadratic form
        v = 1e3 + np.exp(-20.0 * (x ** 2 + y ** 2))
    want = grad_square_by_cells(mesh, v)
    assert simulation._grad_square(mesh, v) == pytest.approx(want,
                                                              rel=1e-12)


class TestEnergyLaw:
    def test_homogeneous_steady_state_is_zero(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        p = ModelParams(dt=1e-3, t_end=1e-3)
        c, vbar = 2.0, 0.5
        u = np.full(mesh.n_cells, c)
        v = np.full(mesh.n_vertices, vbar)
        mu = np.full(mesh.n_cells,
                     p.k0 * np.log(c + p.eps) - p.k1 * vbar)
        old = SimState(0, 0.0, u, v, mu)
        new = SimState(1, p.dt, u.copy(), v.copy(), mu.copy())
        assert energy_law_lhs(mesh, old, new, p) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_termwise_recomputation(self):
        mesh, u0, v0 = collapse_setup(n=4, pattern="mesh1")
        p = ModelParams(dt=1e-6, t_end=3e-6)
        states = [s for s, _ in simulate(mesh, p, u0, v0)]
        old, new = states[-2], states[-1]
        got = energy_law_lhs(mesh, old, new, p)
        dv = (new.v - old.v) / p.dt
        want = ((energy_eps(mesh, new.u, new.v, p)
                 - energy_eps(mesh, old.u, old.v, p)) / p.dt
                + p.dt * 0.5 * p.k1 * p.k3 / p.k4
                * p1_square_integral(mesh, dv, lumped=True)
                + p.dt * 0.5 * p.k1 * p.k2 / p.k4
                * float(np.dot(mesh.areas, np.einsum(
                    "ij,ij->i", p1_gradients(mesh, dv),
                    p1_gradients(mesh, dv))))
                + p.tau * p.k1 / p.k4
                * p1_square_integral(mesh, dv, lumped=True)
                + aupw_apply(mesh, new.mu, pos_part(new.u), new.mu))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSimulate:
    def test_zero_initial_data_stays_zero(self):
        mesh = build_structured_mesh("mesh2", 2, (0, 1, 0, 1))
        p = ModelParams(dt=1e-3, t_end=1e-2)
        rows = [r for _, r in simulate(mesh, p, np.zeros(mesh.n_cells),
                                       np.zeros(mesh.n_vertices))]
        assert len(rows) == 11
        floor = 1e-10 * np.log(1e-10)
        for r in rows:
            assert r.mass == 0.0 and r.max_u == 0.0 and r.max_v == 0.0
            assert r.E_eps == pytest.approx(floor, rel=1e-12)
            assert r.newton_iters == 0

    def test_trajectory_invariants_small_collapse(self):
        mesh, u0, v0 = collapse_setup(n=8)
        p = ModelParams(dt=1e-6, t_end=3e-5)
        rows = [r for _, r in simulate(mesh, p, u0, v0)]
        assert len(rows) == 31
        mass0 = rows[0].mass
        for r in rows:
            assert abs(r.mass - mass0) <= 1e-10 * mass0
            assert r.min_u >= 0.0
            assert r.min_v >= 0.0
            assert r.time == pytest.approx(r.step * p.dt, rel=1e-14)
        for a, b in zip(rows, rows[1:]):
            tol = 1e-8 * (1.0 + abs(b.E_eps))
            assert b.E_eps <= a.E_eps + tol
            assert b.energy_law_lhs <= tol
            assert b.newton_iters <= 30

    def test_elliptic_ignores_supplied_attractant(self, rng):
        mesh, u0, _ = collapse_setup(n=4, pattern="mesh1")
        p = ModelParams(tau=0, dt=1e-5, t_end=2e-4)
        rows_a = [r for _, r in simulate(mesh, p, u0, None)]
        rows_b = [r for _, r in simulate(
            mesh, p, u0, rng.uniform(0, 100, mesh.n_vertices))]
        assert rows_a == rows_b

    def test_parabolic_requires_attractant(self):
        mesh, u0, _ = collapse_setup(n=4, pattern="mesh1")
        with pytest.raises(ValueError, match="v0"):
            list(simulate(mesh, ModelParams(), u0, None))

    def test_params_must_be_model_params(self):
        mesh, u0, v0 = collapse_setup(n=4, pattern="mesh1")
        with pytest.raises(TypeError, match="ModelParams"):
            list(simulate(mesh, {"dt": 1e-6}, u0, v0))

    def test_negative_initial_density_rejected(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        u0 = np.array([1.0, -0.1, 1.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            list(simulate(mesh, ModelParams(), u0, np.zeros(5)))

    def test_negative_attractant_rejected_for_parabolic(self):
        mesh = build_structured_mesh("mesh2", 1, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="v0"):
            list(simulate(mesh, ModelParams(), np.ones(4),
                          np.array([0.0, -1.0, 0.0, 0.0, 0.0])))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_attractant_rejected_for_parabolic(self, bad):
        # the v-step would take inf <= inf in both of its stop tests and
        # go on from v = 0
        mesh, u0, v0 = collapse_setup(n=4, pattern="mesh1")
        v0[3] = bad
        with pytest.raises(ValueError, match="v0 has non-finite"):
            list(simulate(mesh, ModelParams(tau=1, dt=1e-6, t_end=3e-6),
                          u0, v0))
        # the elliptic step discards v0
        rows = [r for _, r in simulate(
            mesh, ModelParams(tau=0, dt=1e-5, t_end=2e-5), u0, v0)]
        assert len(rows) == 3 and np.isfinite(rows[-1].max_v)

    def test_step_failure_reports_step_and_time(self, monkeypatch):
        mesh, u0, v0 = collapse_setup(n=8)
        p = ModelParams(dt=1e-6, t_end=1e-5)
        monkeypatch.setattr(ustep, "NEWTON_MAX_ITERS", 1)
        with pytest.raises(StepFailureError) as info:
            list(simulate(mesh, p, u0, v0))
        assert info.value.step == 1
        assert info.value.time == pytest.approx(1e-6)

    def test_mass_matches_integral_of_initial_field(self):
        mesh, u0, v0 = collapse_setup(n=8)
        p = ModelParams(dt=1e-6, t_end=2e-6)
        rows = [r for _, r in simulate(mesh, p, u0, v0)]
        assert rows[0].mass == pytest.approx(
            integrate_cellfield(mesh, u0), rel=1e-15)

    def test_energy_law_violation_raises(self, monkeypatch):
        mesh, u0, v0 = collapse_setup(n=4, pattern="mesh1")
        p = ModelParams(dt=1e-6, t_end=3e-6)
        monkeypatch.setattr(
            simulation, "_energy_law_lhs",
            lambda *args: 2.0 * ENERGY_LAW_RTOL * (1.0 + abs(args[5])))
        with pytest.raises(EnergyLawError, match="energy law") as info:
            list(simulate(mesh, p, u0, v0))
        err = info.value
        assert isinstance(err, StepFailureError)
        assert err.step == 1 and err.time == pytest.approx(1e-6)
        assert (err.old.m, err.new.m) == (0, 1)
        assert np.array_equal(err.old.u, u0)
        assert err.new.u.shape == u0.shape and err.new.mu is not None


    def test_nan_energy_law_raises(self, monkeypatch):
        # a NaN left-hand side is no bound kept: the step with a NaN
        # density fails at once, with both states
        mesh, u0, v0 = collapse_setup(n=4, pattern="mesh1")
        step = simulation.solve_u_step

        def nan_cell(*args, **kwargs):
            u, mu, stats = step(*args, **kwargs)
            u[0] = np.nan
            return u, mu, stats

        monkeypatch.setattr(simulation, "solve_u_step", nan_cell)
        with pytest.raises(EnergyLawError, match="left-hand side nan") as info:
            list(simulate(mesh, ModelParams(dt=1e-6, t_end=3e-6), u0, v0))
        err = info.value
        assert err.step == 1 and (err.old.m, err.new.m) == (0, 1)
        assert np.array_equal(err.old.u, u0) and np.isnan(err.new.u[0])

@pytest.mark.parametrize("dt", [1e-7, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("constants", [
    "", "k0 = 0.5\nk1 = 2\nk2 = 0.5\nk3 = 2\nk4 = 3\n",
], ids=["defaults", "rescaled"])
@pytest.mark.parametrize("pattern", ["mesh1", "mesh2"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_five_preset_steps_keep_the_guarantees(preset, pattern, constants,
                                               dt):
    # the scheme is well posed at every dt and for any positive rate
    # constants; Newton must not abort
    cfg = load_config("[mesh]\npattern = %s\nn = 8\n[params]\ndt = %r\n"
                      "t_end = %r\n%s[initial]\npreset = %s\n"
                      % (pattern, dt, 5 * dt, constants, preset))
    mesh = build_mesh(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "v0 unused" advisory
        u0, v0 = initial_fields(cfg, mesh)
    rows = [r for _, r in simulate(mesh, cfg.params, u0, v0)]
    assert len(rows) == 6
    for a, b in zip(rows, rows[1:]):
        assert abs(b.mass - a.mass) <= MASS_RTOL * a.mass
        assert b.min_u >= 0.0 and b.min_v >= 0.0
        assert b.energy_law_lhs <= ENERGY_LAW_RTOL * (1.0 + abs(b.E_eps))


@pytest.mark.parametrize("preset", ["one_bulge", "three_bulges"])
def test_steps_on_scaled_data_move_the_density(preset):
    # Newton stops at the round-off of the step's own rows, so data
    # scaled down by any power of ten converge in at least one iteration
    # and keep their mass
    cfg = load_config("[mesh]\npattern = mesh1\nn = 8\n[initial]\n"
                      "preset = %s\n" % preset)
    params = dataclasses.replace(cfg.params, t_end=3 * cfg.params.dt)
    mesh = build_mesh(cfg)
    u0, v0 = initial_fields(cfg, mesh)
    for k in range(13):
        scale = 10.0 ** -k
        rows = [r for _, r in simulate(mesh, params, scale * u0,
                                       scale * v0)]
        assert len(rows) == 4
        assert min(r.newton_iters for r in rows[1:]) >= 1, scale


def one_bulge_config(output):
    return load_config("[mesh]\npattern = mesh1\nn = 8\n[initial]\n"
                       "preset = one_bulge\n[params]\nt_end = 1.2e-5\n"
                       "[output]\n" + output)


class TestRun:
    def test_snapshot_times_due_at_one_step_write_it_once(self, tmp_path,
                                                          monkeypatch):
        vtk_dir = tmp_path / "snaps"
        cfg = one_bulge_config("vtk_dir = %s\nsnapshot_times = "
                               "0 0 1e-5 1.2e-5\n" % vtk_dir)
        written = []
        write = simulation._output.write_vtk_snapshot
        monkeypatch.setattr(
            simulation._output, "write_vtk_snapshot",
            lambda mesh, u, v, path, **kw: (written.append(path),
                                            write(mesh, u, v, path, **kw))[1])
        simulation.run(cfg)
        names = ["snap_000000.vtk", "snap_000010.vtk", "snap_000012.vtk"]
        assert [os.path.basename(p) for p in written] == names
        assert sorted(os.listdir(vtk_dir)) == names

    def test_csv_in_missing_directory_is_written(self, tmp_path):
        csv_path = tmp_path / "a" / "b" / "diag.csv"
        result = simulation.run(one_bulge_config("csv = %s\n" % csv_path))
        rows = read_diagnostics_csv(csv_path)
        assert [r.step for r in rows] == list(range(13))
        assert rows[-1].mass == result.rows[-1].mass

    def test_unwritable_csv_fails_before_the_first_step(self, tmp_path,
                                                        monkeypatch):
        calls = []
        solve = simulation.solve_u_step
        monkeypatch.setattr(
            simulation, "solve_u_step",
            lambda *a, **kw: (calls.append(1), solve(*a, **kw))[1])
        cfg = one_bulge_config("csv = %s\n" % tmp_path)
        with pytest.raises(OSError):
            simulation.run(cfg)
        assert calls == []

    @staticmethod
    def snapshot_config(out):
        # a CSV and a snapshot at each of the steps 0 to 3 in ``out``
        return one_bulge_config("csv = %s\nvtk_dir = %s\nsnapshot_times = "
                                "0 1e-6 2e-6 3e-6\n"
                                % (out / "diag.csv", out / "vtk"))

    def test_unwritable_snapshot_fails_at_its_own_step(self, tmp_path):
        os.makedirs(tmp_path / "vtk" / "snap_000001.vtk")
        with pytest.raises(IsADirectoryError, match="snap_000001.vtk"):
            simulation.run(self.snapshot_config(tmp_path))
        steps = [r.step for r in read_diagnostics_csv(tmp_path / "diag.csv")]
        assert steps == [0, 1]

    def test_step_failure_keeps_the_written_snapshots(self, tmp_path,
                                                      monkeypatch):
        simulation.run(self.snapshot_config(tmp_path / "clean"))
        calls = []
        solve = simulation.solve_u_step

        def fail_at_step_2(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ustep.UStepError("injected failure")
            return solve(*args)

        monkeypatch.setattr(simulation, "solve_u_step", fail_at_step_2)
        out = tmp_path / "failed"
        with pytest.raises(StepFailureError) as info:
            simulation.run(self.snapshot_config(out))
        assert info.value.step == 2
        names = ["snap_000000.vtk", "snap_000001.vtk"]
        assert sorted(os.listdir(out / "vtk")) == names
        for name in names:
            assert (out / "vtk" / name).read_bytes() == (
                tmp_path / "clean" / "vtk" / name).read_bytes(), name
        steps = [r.step for r in read_diagnostics_csv(out / "diag.csv")]
        assert steps == [0, 1]

    def test_no_due_snapshot_writes_no_file(self, tmp_path):
        simulation.run(one_bulge_config("vtk_dir = %s\nsnapshot_times =\n"
                                        % (tmp_path / "vtk")))
        assert os.listdir(tmp_path / "vtk") == []

    @staticmethod
    def counted_solve(monkeypatch, step, action):
        # run ``action`` in place of the density solve of ``step``; the
        # list returned counts the solves reached
        calls = []
        solve = simulation.solve_u_step

        def patched(*args):
            calls.append(1)
            if len(calls) == step:
                return action(*args)
            return solve(*args)

        monkeypatch.setattr(simulation, "solve_u_step", patched)
        return calls

    def test_unwritable_first_snapshot_fails_before_the_first_step(
            self, tmp_path, monkeypatch):
        calls = self.counted_solve(monkeypatch, 0, None)
        os.makedirs(tmp_path / "vtk" / "snap_000000.vtk")
        with pytest.raises(IsADirectoryError, match="snap_000000.vtk"):
            simulation.run(self.snapshot_config(tmp_path))
        assert calls == []
        steps = [r.step for r in read_diagnostics_csv(tmp_path / "diag.csv")]
        assert steps == [0]

    def test_snapshot_failure_stops_the_run_before_later_steps(
            self, tmp_path, monkeypatch):
        # step 2 would fail too, but the run ends at the snapshot of step 1
        def fail(*args):
            raise ustep.UStepError("injected failure")

        calls = self.counted_solve(monkeypatch, 2, fail)
        os.makedirs(tmp_path / "vtk" / "snap_000001.vtk")
        with pytest.raises(IsADirectoryError, match="snap_000001.vtk"):
            simulation.run(self.snapshot_config(tmp_path))
        assert calls == [1]
        steps = [r.step for r in read_diagnostics_csv(tmp_path / "diag.csv")]
        assert steps == [0, 1]

    def test_snapshot_directory_removed_mid_run_fails_at_that_step(
            self, tmp_path, monkeypatch):
        solve = simulation.solve_u_step

        def remove_vtk_dir(*args):
            shutil.rmtree(tmp_path / "vtk")
            return solve(*args)

        calls = self.counted_solve(monkeypatch, 2, remove_vtk_dir)
        with pytest.raises(FileNotFoundError, match="snap_000002.vtk"):
            simulation.run(self.snapshot_config(tmp_path))
        assert calls == [1, 1]
        assert not (tmp_path / "vtk").exists()
        steps = [r.step for r in read_diagnostics_csv(tmp_path / "diag.csv")]
        assert steps == [0, 1, 2]
