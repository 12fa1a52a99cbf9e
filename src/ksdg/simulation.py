"""Time integration loop, energies and per-step diagnostics.

One time step is: solve the linear chemoattractant equation, then the
nonlinear upwind density step.  The loop records a diagnostics row per
step (mass, extrema, energies, the discrete energy-balance left-hand
side, Newton statistics) and supports field snapshots at configured
times.

Two energy functionals are tracked.  ``energy`` is the free energy

    E(u, v) = integral of k0*u*log(u) - k1*u*v
              + (k1*k2 / 2*k4) |grad v|^2 + (k1*k3 / 2*k4) v^2,

evaluated with exact quadrature for the discrete spaces (the ``u*v``
pairing reduces to cell averages of ``v``, and ``0*log(0) = 0``).  It is
recorded for reference only.  ``energy_eps`` replaces the entropy by
``(u + eps) * log(u + eps)`` and evaluates the ``v^2`` term with the same
mass-lumped vertex quadrature the scheme applies to its reaction and
time-derivative products.  That makes it the exact Lyapunov functional of
the discrete scheme: along accepted steps it never increases, and the
full energy balance

    (E_eps_new - E_eps_old)/dt
      + dt*(k1*k3 / 2*k4) * |dv/dt|^2_lumped
      + dt*(k1*k2 / 2*k4) * |grad dv/dt|^2
      + tau*(k1 / k4) * |dv/dt|^2_lumped
      + upwind_form(mu, pos(u), mu)   <=  0

holds up to solver tolerances (``energy_law_lhs`` returns the left-hand
side).
"""

import os
from dataclasses import dataclass

import numpy as np

from . import config as _config
from . import output as _output
from .fields import (ModelParams, _check_cellfield, _check_nodefield,
                     integrate_cellfield, p1_square_integral, pos_part,
                     project_p1_to_p0)
from .ustep import NewtonOperator, UStepError, aupw_apply, solve_u_step
from .vstep import assemble_v_system, solve_v_step

#: Per-step allowance for the energy checks, relative to 1 + |E_eps|.
ENERGY_LAW_RTOL = 1e-8

#: Round-off clamp for the chemoattractant positivity, relative to max(v).
V_CLAMP_REL = 1e-13


class StepFailureError(RuntimeError):
    """A time step failed; carries the step index and time."""

    def __init__(self, message, step, time, cause=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.cause = cause


class EnergyLawError(StepFailureError):
    """A step broke the discrete energy law; ``old`` and ``new`` are the
    states before and after it."""

    def __init__(self, message, step, time, old, new):
        super().__init__(message, step, time)
        self.old, self.new = old, new


@dataclass
class SimState:
    """Solution snapshot after ``m`` accepted steps (``t = m * dt``)."""

    m: int
    t: float
    u: np.ndarray
    v: np.ndarray
    mu: np.ndarray


@dataclass
class DiagnosticsRow:
    """Scalar diagnostics recorded at every step."""

    step: int
    time: float
    mass: float
    min_u: float
    max_u: float
    min_v: float
    max_v: float
    E: float
    E_eps: float
    energy_law_lhs: float
    newton_iters: int
    newton_residual: float
    # round-off clamp magnitudes, not part of the CSV schema
    u_clamp: float = 0.0
    v_clamp: float = 0.0


@dataclass
class RunResult:
    """Mesh, diagnostics trajectory and final state of a run."""

    mesh: object
    rows: list
    state: SimState


def _entropy(mesh, u, shift, log_w=None):
    # log_w, when given, is log(u + shift) computed already
    w = u + shift
    if shift == 0.0:
        # convention 0 * log(0) = 0
        return float(np.dot(mesh.areas,
                            np.where(u > 0.0, u * np.log(np.where(u > 0.0, u, 1.0)),
                                     0.0)))
    return float(np.dot(mesh.areas,
                        w * (np.log(w) if log_w is None else log_w)))


def _grad_square(mesh, v):
    # w.S.w = sum |K| |grad w|^2; S kills constants, and taking out the
    # mean keeps a large level of v from cancelling in the quadratic form
    w = v - v.mean()
    return float(w @ (mesh.stiffness @ w))


def _energies(mesh, u, v, params, pi0v, log_u=None):
    """``(energy, energy_eps)`` of a state, with ``pi0v`` the cell averages
    of ``v`` and ``log_u``, when given, ``log(u + eps)``; the coupling and
    gradient terms the two functionals share are evaluated once."""
    # exact for piecewise-constant u against piecewise-linear v
    coupling = params.k1 * float(np.dot(mesh.areas * u, pi0v))
    gradient = 0.5 * params.k1 * params.k2 / params.k4 * _grad_square(mesh, v)
    square = 0.5 * params.k1 * params.k3 / params.k4
    return (params.k0 * _entropy(mesh, u, 0.0) - coupling + gradient
            + square * p1_square_integral(mesh, v),
            params.k0 * _entropy(mesh, u, params.eps, log_u) - coupling
            + gradient
            + square * p1_square_integral(mesh, v, lumped=True))


def energy(mesh, u, v, params):
    """Free energy of a state, exact quadrature, ``0*log(0) = 0``.

    Raises ``ValueError`` for negative cell densities.
    """
    u = _check_cellfield(mesh, u)
    v = _check_nodefield(mesh, v)
    if np.min(u) < 0.0:
        raise ValueError("energy of a negative density (min %g)"
                         % float(np.min(u)))
    return _energies(mesh, u, v, params, project_p1_to_p0(mesh, v))[0]


def energy_eps(mesh, u, v, params):
    """Regularized energy, the Lyapunov functional of the discrete scheme.

    Uses the entropy ``(u + eps) * log(u + eps)`` and the mass-lumped
    ``v^2`` product, matching the lumped terms of the chemoattractant
    step; this is the quantity the scheme dissipates exactly.  Raises
    ``ValueError`` when ``u + eps`` is not positive.
    """
    u = _check_cellfield(mesh, u)
    v = _check_nodefield(mesh, v)
    if np.min(u) + params.eps <= 0.0:
        raise ValueError("u + eps must be positive (min %g)"
                         % float(np.min(u)))
    return _energies(mesh, u, v, params, project_p1_to_p0(mesh, v))[1]


def energy_law_lhs(mesh, state_old, state_new, params):
    """Left-hand side of the discrete energy balance for one step.

    For accepted steps the value is nonpositive up to solver tolerances;
    the run invariant is ``lhs <= 1e-8 * (1 + |E_eps|)``.
    """
    return _energy_law_lhs(mesh, state_old.v, state_new.v, params,
                           energy_eps(mesh, state_old.u, state_old.v, params),
                           energy_eps(mesh, state_new.u, state_new.v, params),
                           aupw_apply(mesh, state_new.mu, pos_part(state_new.u),
                                      state_new.mu))


def _energy_law_lhs(mesh, v_old, v_new, params, eeps_old, eeps_new, aupw):
    dt = params.dt
    dv = (v_new - v_old) / dt
    d_eeps = (eeps_new - eeps_old) / dt
    dv_lumped = p1_square_integral(mesh, dv, lumped=True)
    lhs = (d_eeps
           + dt * 0.5 * params.k1 * params.k3 / params.k4 * dv_lumped
           + dt * 0.5 * params.k1 * params.k2 / params.k4
           * _grad_square(mesh, dv)
           + params.tau * params.k1 / params.k4 * dv_lumped
           + aupw)
    return float(lhs)


def _make_row(mesh, state, energies, law, iters, residual, u_clamp, v_clamp):
    return DiagnosticsRow(
        step=state.m,
        time=state.t,
        mass=integrate_cellfield(mesh, state.u),
        min_u=float(np.min(state.u)),
        max_u=float(np.max(state.u)),
        min_v=float(np.min(state.v)),
        max_v=float(np.max(state.v)),
        E=energies[0],
        E_eps=energies[1],
        energy_law_lhs=law,
        newton_iters=iters,
        newton_residual=residual,
        u_clamp=u_clamp,
        v_clamp=v_clamp,
    )


def simulate(mesh, params, u0, v0=None):
    """Generate ``(state, diagnostics_row)`` pairs for a whole run.

    The first yield is the initial state (step 0); each later yield is
    one accepted time step, for the ``t_end / dt`` steps of the horizon.
    ``u0`` must be finite and nonnegative.  With ``tau = 1`` a finite,
    nonnegative ``v0`` is required; with ``tau = 0`` the chemoattractant
    history is never read, so any supplied ``v0`` is discarded and the
    stored field starts at zero.  Step failures raise
    ``StepFailureError``, and an ``energy_law_lhs`` that is NaN or above
    ``ENERGY_LAW_RTOL * (1 + |E_eps|)`` its subclass ``EnergyLawError``.
    """
    if not isinstance(params, ModelParams):
        raise TypeError("params must be a ModelParams")
    u0 = _check_cellfield(mesh, u0, "u0")
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 has non-finite entries")
    if np.min(u0) < 0.0:
        raise ValueError("u0 must be nonnegative, min is %g"
                         % float(np.min(u0)))
    if params.tau:
        if v0 is None:
            raise ValueError("v0 is required when tau = 1")
        v0 = _check_nodefield(mesh, v0, "v0")
        if not np.all(np.isfinite(v0)):
            raise ValueError("v0 has non-finite entries")
        if np.min(v0) < 0.0:
            raise ValueError("v0 must be nonnegative when tau = 1, min is %g"
                             % float(np.min(v0)))
        v = v0.astype(float).copy()
    else:
        # the elliptic step never reads v; a fixed zero start keeps runs
        # reproducible regardless of any supplied v0
        v = np.zeros(mesh.n_vertices)

    system = assemble_v_system(mesh, params)
    u = u0.astype(float).copy()
    pi0v = project_p1_to_p0(mesh, v)
    mu = params.k0 * np.log(u + params.eps) - params.k1 * pi0v
    state = SimState(0, 0.0, u, v, mu)
    energies = _energies(mesh, u, v, params, pi0v)
    yield state, _make_row(mesh, state, energies, 0.0, 0, 0.0, 0.0, 0.0)

    # one per run, since its matrix is refilled in place; built after
    # step 0 so that set-up does not pay for it
    operator = NewtonOperator(mesh, params)

    n_steps = int(round(params.t_end / params.dt))
    for m in range(1, n_steps + 1):
        t = m * params.dt
        try:
            v_new = solve_v_step(system, state.v if params.tau else None,
                                 state.u)
        except Exception as exc:
            raise StepFailureError("chemoattractant solve failed at step "
                                   "%d (t=%g): %s" % (m, t, exc), m, t,
                                   cause=exc) from exc
        v_clamp = 0.0
        if np.min(v_new) < 0.0:
            v_clamp = -float(np.min(v_new))
            limit = V_CLAMP_REL * max(1.0, float(np.max(v_new)))
            if v_clamp > limit:
                raise StepFailureError(
                    "chemoattractant dips to %g at step %d, beyond the "
                    "round-off allowance %g" % (-v_clamp, m, -limit), m, t)
            v_new = np.where(v_new < 0.0, 0.0, v_new)

        pi0v = project_p1_to_p0(mesh, v_new)
        try:
            u_new, mu_new, stats = solve_u_step(operator, state.u, pi0v)
        except UStepError as exc:
            raise StepFailureError("density step failed at step %d (t=%g): %s"
                                   % (m, t, exc), m, t, cause=exc) from exc

        new_state = SimState(m, t, u_new, v_new, mu_new)
        new_energies = _energies(mesh, u_new, v_new, params, pi0v,
                                 stats.log_u)
        law = _energy_law_lhs(mesh, state.v, v_new, params, energies[1],
                              new_energies[1], stats.dissipation)
        bound = ENERGY_LAW_RTOL * (1.0 + abs(new_energies[1]))
        if not law <= bound:            # NaN breaks the law too
            raise EnergyLawError(
                "energy law broken at step %d (t=%g): left-hand side %g "
                "exceeds %g" % (m, t, law, bound), m, t, state, new_state)
        yield new_state, _make_row(mesh, new_state, new_energies, law,
                                   stats.iterations, stats.residual,
                                   stats.clamp, v_clamp)
        state, energies = new_state, new_energies


def run(cfg):
    """Execute a configured run, writing CSV diagnostics and snapshots.

    Builds the mesh and initial fields described by ``cfg`` (a
    ``RunConfig``) and runs the time loop to ``t_end``.  A legacy-format
    VTK snapshot is written at each step where one or more configured
    snapshot times come due, before the next step starts.  The output
    directories are created and the CSV file is truncated before the
    first step, so an unwritable CSV path fails before any work is done;
    the diagnostics rows are written to it in one go when the run ends.
    On a step failure the rows of the accepted steps are still written
    and the failure is re-raised.  A snapshot that cannot be written
    raises ``OSError`` at its own step, and the CSV then holds the rows
    through that step.

    Returns a ``RunResult`` with the mesh, all diagnostics rows and the
    final state.
    """
    mesh = _config.build_mesh(cfg)
    u0, v0 = _config.initial_fields(cfg, mesh)
    snap_times = sorted(cfg.snapshot_times)
    if cfg.vtk_dir:
        os.makedirs(cfg.vtk_dir, exist_ok=True)
    if cfg.csv_path:
        if os.path.dirname(cfg.csv_path):
            os.makedirs(os.path.dirname(cfg.csv_path), exist_ok=True)
        open(cfg.csv_path, "w").close()

    rows = []
    state = None
    next_snap = 0
    try:
        for state, row in simulate(mesh, cfg.params, u0, v0):
            rows.append(row)
            seen = next_snap
            while (next_snap < len(snap_times)
                   and state.t >= snap_times[next_snap]
                   - 0.5 * cfg.params.dt):
                next_snap += 1
            if cfg.vtk_dir and next_snap > seen:
                path = os.path.join(cfg.vtk_dir, "snap_%06d.vtk" % state.m)
                _output.write_vtk_snapshot(mesh, state.u, state.v, path,
                                           title="t=%.9g" % state.t)
    finally:
        if cfg.csv_path:
            _output.write_diagnostics_csv(rows, cfg.csv_path)
    return RunResult(mesh, rows, state)
