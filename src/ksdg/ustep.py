"""Nonlinear upwind step for the cell density.

After the chemoattractant update, each time step solves a coupled system
for the cell density ``u`` and the regularized chemical potential ``mu``,
both piecewise constant:

    |K| (u_K - uold_K) / dt  +  sum of signed upwind edge fluxes  = 0,
    |K| (mu_K - k0*log(u_K + eps) + k1 * (cell average of v))     = 0.

The flux through an interior edge e with cells (K, L) and barycenter
distance D is

    F_e = (|e| / D) * (pos([mu]) * w_K - neg([mu]) * w_L),

with ``[mu] = mu_K - mu_L`` and ``w`` the positive part of ``u`` (the
truncated flux; ``truncated=False`` transports ``u`` itself).  The donor
cell is selected by the sign of the potential jump, which is what makes
the step mass-conservative, positivity-preserving and compatible with the
discrete energy balance.  Since the unknowns are piecewise constant, the
volume part of the transport form vanishes identically (cellwise
gradients are zero) and only the edge sum remains.

The coupled system is solved by a damped Newton method with an exact
Jacobian.  Truncation kinks use one-sided derivatives: ``d pos(x)/dx`` is
1 for ``x > 0`` and 0 otherwise, so Jacobian rows of inactive cells stay
consistent.  Each Newton system is reduced to its Schur complement in
``u``, assembled by one scatter onto the mesh's fixed cell-adjacency
pattern, and solved by Jacobi-preconditioned BiCGSTAB; a sparse LU
factorization takes over when the Krylov solve misses its tolerance.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import _check_cellfield, _check_nodefield, project_p1_to_p0

_EPS = np.finfo(float).eps

#: Accepted solutions may dip below zero by at most this fraction of the
#: field maximum before the step is rejected; smaller negatives are
#: rounded up to exactly zero.
CLAMP_REL = 1e-13

#: Per-step relative mass drift allowed before the step is rejected.
MASS_RTOL = 1e-11

#: Relative true residual the Krylov solve of a Newton system must reach;
#: a solve that misses it is repeated with a sparse LU factorization.
NEWTON_LINEAR_RTOL = 1e-12

#: Krylov iterations after which a Newton system goes to the LU solve.
NEWTON_LINEAR_MAXITER = 1000


class UStepError(RuntimeError):
    """Base class for cell-density step failures."""


class NewtonDivergenceError(UStepError):
    """Newton did not reach the tolerance; carries the last iterate."""

    def __init__(self, message, u=None, mu=None, stats=None):
        super().__init__(message)
        self.u = u
        self.mu = mu
        self.stats = stats


class PositivityError(UStepError):
    """Converged solution was negative beyond round-off."""


class MassDriftError(UStepError):
    """Converged solution lost or gained mass beyond round-off."""


@dataclass
class NewtonSettings:
    """Newton iteration controls.

    ``tol_residual`` is an absolute tolerance on the max norm of the
    residual.  Convergence is declared at
    ``max(tol_residual, 16 * machine_eps * scale)`` where ``scale`` is the
    largest round-off magnitude of the assembled residual rows (mass
    term plus the cancellation scale of the edge fluxes): once the
    transported density and the potential reach large magnitudes the
    residual cannot be evaluated below the round-off of its own terms,
    and requiring less would loop forever.  ``damping`` is
    ``"backtracking"`` (halve the step until the residual decreases, at
    most ``max_halvings`` times) or ``"none"``; either way the step is
    halved as needed to keep ``u + eps > 0``.
    """

    tol_residual: float = 1e-10
    max_iters: int = 30
    damping: str = "backtracking"
    max_halvings: int = 10

    def __post_init__(self):
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.damping not in ("backtracking", "none"):
            raise ValueError("damping must be 'backtracking' or 'none'")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


@dataclass
class NewtonStats:
    """Outcome of one nonlinear solve."""

    iterations: int
    residual: float
    converged: bool
    clamp: float = 0.0
    #: BiCGSTAB iterations summed over the Newton iterations
    linear_iterations: int = 0
    #: Newton systems solved by LU after the Krylov solve missed
    lu_fallbacks: int = 0


def aupw_apply(mesh, mu, u, ubar):
    """Evaluate the upwind transport form on three cell fields.

    Returns ``sum_e (|e|/D_e) * (pos([mu]) u_K - neg([mu]) u_L) * [ubar]``
    over the interior edges.  ``u`` is transported as given; callers that
    want the truncated transport pass ``pos_part(u)``.
    """
    mu = _check_cellfield(mesh, mu, "mu")
    u = _check_cellfield(mesh, u, "u")
    ubar = _check_cellfield(mesh, ubar, "ubar")
    k, l, *_, flux = _flux_terms(mesh, u, mu, truncated=False)
    return float(np.dot(flux, ubar[k] - ubar[l]))


def _flux_terms(mesh, u, mu, truncated):
    """Per-edge flux and the quantities its derivatives need."""
    k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    w = mesh.edge_weights
    jm = mu[k] - mu[l]
    jp = np.maximum(jm, 0.0)
    jn = np.maximum(-jm, 0.0)
    if truncated:
        wk = np.maximum(u[k], 0.0)
        wl = np.maximum(u[l], 0.0)
    else:
        wk = u[k]
        wl = u[l]
    flux = w * (jp * wk - jn * wl)
    return k, l, w, jm, jp, jn, wk, wl, flux


def _residual_parts(mesh, u, mu, u_old, pi0v, params, truncated):
    nc = mesh.n_cells
    if np.min(u) + params.eps <= 0.0:
        raise ValueError(
            "u + eps has nonpositive entries (min %g); outside the domain "
            "of the logarithm" % float(np.min(u)))
    k, l, w, jm, jp, jn, wk, wl, flux = _flux_terms(mesh, u, mu, truncated)
    mass_term = mesh.areas * (u - u_old) / params.dt
    r1 = (mass_term
          + np.bincount(k, weights=flux, minlength=nc)
          - np.bincount(l, weights=flux, minlength=nc))
    log_term = params.k0 * np.log(u + params.eps)
    r2 = mesh.areas * (mu - log_term + params.k1 * pi0v)

    # Round-off scale of the assembled rows.  The flux noise is dominated
    # by the cancellation in the potential jump, whose absolute error is
    # set by |mu| itself, amplified by the transported density; this
    # bound also dominates |flux| since |[mu]| <= |mu_K| + |mu_L|.
    fscale = w * (np.abs(mu[k]) + np.abs(mu[l])) * np.maximum(np.abs(wk),
                                                              np.abs(wl))
    scale1 = (np.abs(mass_term)
              + np.bincount(k, weights=fscale, minlength=nc)
              + np.bincount(l, weights=fscale, minlength=nc))
    scale2 = mesh.areas * (np.abs(mu) + np.abs(log_term)
                           + params.k1 * np.abs(pi0v))
    scale = max(float(scale1.max()), float(scale2.max()))
    return r1, r2, scale


def u_step_residual(mesh, u_new, mu_new, u_old, v_new, params, truncated=True):
    """Residual of the coupled density/potential system, length 2*nc.

    Block 1 (cells) holds the discrete mass balance including the upwind
    edge fluxes; block 2 holds the pointwise potential relation against
    the cell average of ``v_new``.  Raises ``ValueError`` when
    ``u_new + eps`` is not positive (the iterate left the admissible
    region).
    """
    u_new = _check_cellfield(mesh, u_new, "u_new")
    mu_new = _check_cellfield(mesh, mu_new, "mu_new")
    u_old = _check_cellfield(mesh, u_old, "u_old")
    pi0v = project_p1_to_p0(mesh, _check_nodefield(mesh, v_new, "v_new"))
    r1, r2, _ = _residual_parts(mesh, u_new, mu_new, u_old, pi0v, params,
                                truncated)
    return np.concatenate((r1, r2))


def _flux_derivatives(mesh, u, mu, truncated):
    """Edge cells and the derivatives of each edge flux with respect to
    ``u_K``, ``u_L`` and the jump ``[mu]``, with the kink conventions of
    ``u_step_jacobian``."""
    k, l, w, jm, jp, jn, wk, wl, flux = _flux_terms(mesh, u, mu, truncated)
    if truncated:
        hk = (u[k] > 0.0).astype(float)
        hl = (u[l] > 0.0).astype(float)
    else:
        hk = np.ones_like(wk)
        hl = np.ones_like(wl)
    df_duk = w * jp * hk
    df_dul = -w * jn * hl
    # derivative of the jump parts; the subgradient at [mu] = 0 is 0
    df_djm = w * ((jm > 0.0) * wk + (jm < 0.0) * wl)
    return k, l, df_duk, df_dul, df_djm


def u_step_jacobian(mesh, u_new, mu_new, u_old, v_new, params, truncated=True):
    """Exact sparse Jacobian of ``u_step_residual``, shape (2nc, 2nc).

    Unknown ordering is ``[u; mu]``.  Kink conventions: the truncation
    derivative at ``u = 0`` and the jump-sign indicator at ``[mu] = 0``
    are both taken as 0.
    """
    u_new = _check_cellfield(mesh, u_new, "u_new")
    mu_new = _check_cellfield(mesh, mu_new, "mu_new")
    _check_cellfield(mesh, u_old, "u_old")
    _check_nodefield(mesh, v_new, "v_new")
    nc = mesh.n_cells
    k, l, df_duk, df_dul, df_djm = _flux_derivatives(mesh, u_new, mu_new,
                                                     truncated)
    rows = np.concatenate((k, k, l, l))
    cols = np.concatenate((k, l, k, l))
    data_u = np.concatenate((df_duk, df_dul, -df_duk, -df_dul))
    data_m = np.concatenate((df_djm, -df_djm, -df_djm, df_djm))
    fu = sp.coo_matrix((data_u, (rows, cols)), shape=(nc, nc)).tocsr()
    fm = sp.coo_matrix((data_m, (rows, cols)), shape=(nc, nc)).tocsr()
    a = fu + sp.diags(mesh.areas / params.dt)
    dlog = params.k0 * mesh.areas / (u_new + params.eps)
    return sp.bmat([[a, fm],
                    [sp.diags(-dlog), sp.diags(mesh.areas)]]).tocsr()


def _schur_system(mesh, u, mu, r1, r2, params, truncated):
    """Schur matrix on ``mesh.cell_pattern``, its right-hand side, and
    ``k0 / (u + eps)``.

    Edge ``e = (K, L)`` adds ``a_KK = dF/du_K + dF/d[mu] * k0/(u_K+eps)``
    to ``(K, K)`` and ``-a_KK`` to ``(L, K)``, ``a_KL = dF/du_L - dF/d[mu]
    * k0/(u_L+eps)`` to ``(K, L)`` and ``-a_KL`` to ``(L, L)``; the
    diagonal also holds ``|K|/dt``.
    """
    nc = mesh.n_cells
    k, l, df_duk, df_dul, df_djm = _flux_derivatives(mesh, u, mu, truncated)
    ratio = params.k0 / (u + params.eps)
    a_kk = df_duk + df_djm * ratio[k]
    a_kl = df_dul - df_djm * ratio[l]
    pattern = mesh.cell_pattern
    data = np.bincount(pattern.slots,
                       weights=np.concatenate((mesh.areas / params.dt, a_kk,
                                               a_kl, -a_kk, -a_kl)),
                       minlength=len(pattern.indices))
    schur = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                          shape=(nc, nc))
    # Fmu (R2 / |K|), edge by edge
    y = r2 / mesh.areas
    t = df_djm * (y[k] - y[l])
    rhs = (-r1 + np.bincount(k, weights=t, minlength=nc)
           - np.bincount(l, weights=t, minlength=nc))
    return schur, rhs, ratio


def _krylov_solve(schur, rhs, diagonal):
    """Jacobi-preconditioned BiCGSTAB from zero; ``(x, iterations)``, with
    ``x`` None unless the true residual meets ``NEWTON_LINEAR_RTOL``."""
    inverse = 1.0 / diagonal
    applications = [0]

    def precondition(x):
        applications[0] += 1
        return inverse * x

    jacobi = spla.LinearOperator(schur.shape, matvec=precondition,
                                 dtype=float)
    x, info = spla.bicgstab(schur, rhs, rtol=NEWTON_LINEAR_RTOL, atol=0.0,
                            maxiter=NEWTON_LINEAR_MAXITER, M=jacobi)
    # each iteration applies the preconditioner twice; the last may stop
    # after its first half
    iterations = (applications[0] + 1) // 2
    if info != 0 or not (np.linalg.norm(rhs - schur @ x)
                         <= NEWTON_LINEAR_RTOL * np.linalg.norm(rhs)):
        return None, iterations
    return x, iterations


def _newton_direction(mesh, u, mu, r1, r2, params, truncated):
    """Solve the Newton system via the exact Schur complement in u.

    The potential block is diagonal, so eliminating ``d_mu`` gives
    ``(A + Fmu * diag(k0/(u+eps))) d_u = -R1 + Fmu (R2 / |K|)`` and
    ``d_mu = -R2/|K| + k0/(u+eps) * d_u``, at half the size of the full
    system.  The Schur matrix is a nonsingular M-matrix when the flux is
    truncated: its columns sum to ``|K|/dt`` and its off-diagonal
    entries are nonpositive.  It is solved with Jacobi-preconditioned
    BiCGSTAB; a sparse LU factorization solves it instead when the
    Krylov solve misses ``NEWTON_LINEAR_RTOL`` on the true residual.

    Returns ``(du, dmu, krylov_iterations, lu_fallback)``.
    """
    schur, rhs, ratio = _schur_system(mesh, u, mu, r1, r2, params, truncated)
    diagonal = schur.diagonal()
    du, iterations = None, 0
    if np.all(diagonal != 0.0):      # Jacobi needs a nonzero diagonal
        du, iterations = _krylov_solve(schur, rhs, diagonal)
    fallback = du is None
    if fallback:
        try:
            du = spla.splu(schur.tocsc()).solve(rhs)
        except RuntimeError as exc:      # singular factorization
            raise NewtonDivergenceError("Newton linear system is singular: "
                                        "%s" % exc, u=u, mu=mu) from exc
    dmu = -r2 / mesh.areas + ratio * du
    return du, dmu, iterations, fallback


def solve_u_step(mesh, u_old, v_new, params, settings=None, truncated=True):
    """Advance the cell density by one time step with Newton's method.

    Parameters
    ----------
    u_old : (nc,) array, nonnegative
    v_new : (nv,) array
        Chemoattractant field already advanced to the new time level.
    settings : NewtonSettings, optional
    truncated : bool
        Transport the positive part of ``u`` (default) or ``u`` itself.

    Returns
    -------
    (u_new, mu_new, stats)
        ``u_new`` is elementwise nonnegative: round-off negatives up to
        ``1e-13 * max(u)`` are clamped to exactly zero and reported in
        ``stats.clamp``; anything more negative rejects the step.  Mass
        is checked against ``u_old`` to ``1e-11`` relative.

    Raises
    ------
    NewtonDivergenceError, PositivityError, MassDriftError
    """
    if settings is None:
        settings = NewtonSettings()
    u_old = _check_cellfield(mesh, u_old, "u_old")
    if np.min(u_old) < 0.0:
        raise ValueError("u_old must be nonnegative, min is %g"
                         % float(np.min(u_old)))
    pi0v = project_p1_to_p0(mesh, _check_nodefield(mesh, v_new, "v_new"))

    # Initial guess: keep the density, make the potential relation exact.
    u = u_old.copy()
    mu = params.k0 * np.log(u + params.eps) - params.k1 * pi0v

    def norm_and_scale(uu, mm):
        r1, r2, scale = _residual_parts(mesh, uu, mm, u_old, pi0v, params,
                                        truncated)
        rnorm = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        return r1, r2, rnorm, scale

    r1, r2, rnorm, scale = norm_and_scale(u, mu)
    stats = NewtonStats(0, rnorm, False)
    while rnorm > max(settings.tol_residual, 16.0 * _EPS * scale):
        if stats.iterations >= settings.max_iters:
            raise NewtonDivergenceError(
                "Newton stalled at residual %g after %d iterations"
                % (rnorm, stats.iterations), u=u, mu=mu, stats=stats)
        du, dmu, krylov, fallback = _newton_direction(mesh, u, mu, r1, r2,
                                                      params, truncated)
        stats.linear_iterations += krylov
        stats.lu_fallbacks += fallback

        best = None  # (rnorm, u, mu, r1, r2, scale) of the best trial
        lam = 1.0
        for _ in range(settings.max_halvings + 1):
            u_try = u + lam * du
            mu_try = mu + lam * dmu
            if np.min(u_try) + params.eps > 0.0:
                r1_t, r2_t, rnorm_t, scale_t = norm_and_scale(u_try, mu_try)
                if best is None or rnorm_t < best[0]:
                    best = (rnorm_t, u_try, mu_try, r1_t, r2_t, scale_t)
                if settings.damping == "none" or rnorm_t < rnorm:
                    break
            lam *= 0.5
        if best is None:
            raise NewtonDivergenceError(
                "no admissible Newton step after %d halvings (u + eps must "
                "stay positive)" % settings.max_halvings,
                u=u, mu=mu, stats=stats)
        # Accept the best admissible trial even if the residual did not
        # decrease; the truncation kinks make strict descent too rigid.
        rnorm, u, mu, r1, r2, scale = best
        stats.iterations += 1
        stats.residual = rnorm

    clamp = 0.0
    if np.min(u) < 0.0:
        clamp = -float(np.min(u))
        limit = CLAMP_REL * max(1.0, float(np.max(u)))
        if clamp > limit:
            raise PositivityError(
                "solution dips to %g, below the round-off allowance %g"
                % (-clamp, -limit))
        u = np.where(u < 0.0, 0.0, u)

    mass_old = float(np.dot(mesh.areas, u_old))
    mass_new = float(np.dot(mesh.areas, u))
    if abs(mass_new - mass_old) > MASS_RTOL * max(abs(mass_old), 1e-300):
        raise MassDriftError(
            "mass drift %g exceeds %g relative"
            % (mass_new - mass_old, MASS_RTOL))

    stats.converged = True
    stats.clamp = clamp
    return u, mu, stats
