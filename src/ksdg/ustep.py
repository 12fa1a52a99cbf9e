"""Nonlinear upwind step for the cell density.

After the chemoattractant update, each time step solves the mass balance
for the piecewise-constant cell density ``u``,

    |K| (u_K - uold_K) / dt  +  sum of signed upwind edge fluxes  = 0,

driven by the regularized chemical potential, also piecewise constant,

    mu_K = k0*log(u_K + eps) - k1 * (cell average of v).

The flux through an interior edge e with cells (K, L) and barycenter
distance D is

    F_e = (|e| / D) * (pos([mu]) * w_K - neg([mu]) * w_L),

with ``[mu] = mu_K - mu_L`` and ``w = max(u, 0)`` the positive part of
``u``: the flux is truncated, so a cell without density sends none.  The
donor cell is selected by the sign of the potential jump, which is what
makes the step mass-conservative, positivity-preserving and compatible
with the discrete energy balance.  Since the unknowns are piecewise
constant, the volume part of the transport form vanishes identically
(cellwise gradients are zero) and only the edge sum remains.

The potential is pointwise in ``u``, so every Newton iterate sets
``mu(u)`` exactly and a damped Newton method runs on ``u`` alone.  One
``NewtonOperator`` per run holds its state, which ``solve_u_step`` reads:
the mesh, ``params``, the warm start below and the exact Jacobian, with
the one-sided kink derivatives stated at ``NewtonOperator.refill``, as
one matrix on the cell adjacency of the mesh's edges, which the
operator builds.  Each Newton iteration overwrites its values in place
and solves it iteratively, or by a sparse LU factorization when the
iterative solve misses its tolerance.  A Jacobi sweep
``x <- x + D^-1 (b - J x)`` multiplies the residual by ``(D - J) D^-1``.
``J`` is an M-matrix whose columns sum to ``|K|/dt``, so the 1-norm of
that map is ``q = max_K (1 - (|K|/dt) / J_KK)`` (Varga, Matrix Iterative
Analysis, 1962), which the diagonal gives.  Where ``q`` is at most
``vstep.JACOBI_RADIUS_MAX`` (a small ``dt``), Jacobi sweeps solve it,
one matrix product each.  Otherwise (q nears 1 as ``dt`` grows), or
where ``q`` is NaN, scipy's Jacobi-preconditioned BiCGSTAB does, two
per iteration.

The iterative solves are inexact Newton steps (Eisenstat & Walker, SIAM
J. Sci. Comput. 17, 1996).  The first of a time step starts from the
last accepted update ``u^n - u^(n-1)`` and stops at
``NEWTON_FIRST_RTOL``; the later ones, and all of a step with no
accepted update before it, start from zero and run to
``NEWTON_LINEAR_RTOL``.  Either path stops on the true residual,
``|b - J x|_2 <= rtol |b|_2``.  Mass stays exact: the columns of ``J``
sum to ``|K|/dt`` and the fluxes cancel in the sum of the rows, so the
mass change of an iterate is ``dt`` times the sum of its nonlinear
residual, which the stop test below bounds whatever the accuracy of the
directions.

Newton stops when the max norm ``rnorm`` of the mass-balance rows is at
round-off, ``rnorm <= 16 * machine_eps * scale``, with ``scale`` the
largest round-off magnitude of the assembled rows (the mass term ``|K|
(|u| + |uold|) / dt`` plus the cancellation scale of the edge fluxes,
``NewtonOperator.roundoff_scale``): the residual cannot be evaluated
below the round-off of its own terms.  The test is relative to the
step's own rows, so it holds at any scale of the data; an absolute
tolerance stops a step on small data before its mass balance is met.
The exact scale costs a pass over the edges, so it is computed only when
``rnorm <= 32 * machine_eps * bound``, with ``bound`` the three-maxima
bound ``NewtonOperator.roundoff_bound`` of the scale (the factor 2
covers its rounding): above that its test cannot pass.  The mass
change must also be at most ``MASS_RTOL / 2`` of the old mass: after a
loose first solve the max norm can pass on rows that sum to more.  Each
Newton step is halved until the residual decreases, at most
``NEWTON_MAX_HALVINGS`` times, and the best trial with ``u + eps > 0``
is taken; a step still above round-off after ``NEWTON_MAX_ITERS``
iterations fails.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import _check_cellfield
from .mesh import _index_dtype
from .vstep import JACOBI_RADIUS_MAX

_EPS = np.finfo(float).eps

#: Accepted solutions may dip below zero by at most this fraction of the
#: field maximum before the step is rejected; smaller negatives are
#: rounded up to exactly zero.
CLAMP_REL = 1e-13

#: Per-step relative mass drift allowed before the step is rejected.
MASS_RTOL = 1e-11

#: Relative true residual the iterative solve of a Newton system must
#: reach; a solve that misses it is repeated with a sparse LU
#: factorization.
NEWTON_LINEAR_RTOL = 1e-12

#: Relative true residual of the first linear solve of each warm-started
#: step, the forcing term of an inexact Newton step (Eisenstat & Walker
#: 1996).
NEWTON_FIRST_RTOL = 1e-6

#: Jacobi sweeps or BiCGSTAB iterations, by the path of the solve, after
#: which a Newton system goes to the LU solve.
NEWTON_LINEAR_MAXITER = 1000

#: Newton iterations after which a step that is not at round-off fails.
NEWTON_MAX_ITERS = 30

#: Step halvings the line search tries before it takes the best trial.
NEWTON_MAX_HALVINGS = 10


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
class NewtonStats:
    """Outcome of one nonlinear solve (a failed one raises instead)."""

    iterations: int
    residual: float
    clamp: float = 0.0
    #: Jacobi sweeps or BiCGSTAB iterations, by the path of each solve,
    #: summed over the Newton iterations
    linear_iterations: int = 0
    #: Newton systems solved by LU after the iterative solve missed
    lu_fallbacks: int = 0
    #: ``aupw_apply(mu, pos_part(u), mu)`` of the result (energy law)
    dissipation: float = 0.0
    #: ``log(u + eps)`` of the result, for the entropy of ``E_eps``
    log_u: np.ndarray = field(default=None, repr=False, compare=False)


def aupw_apply(mesh, mu, u, ubar):
    """Evaluate the upwind transport form on three cell fields.

    Returns ``sum_e (|e|/D_e) * (pos([mu]) u_K - neg([mu]) u_L) * [ubar]``
    over the interior edges.  ``u`` is transported as given; callers that
    want the truncated transport pass ``pos_part(u)``.
    """
    mu = _check_cellfield(mesh, mu, "mu")
    u = _check_cellfield(mesh, u, "u")
    ubar = _check_cellfield(mesh, ubar, "ubar")
    k, l = mesh.edge_cells.T
    *_, flux = _flux_terms(k, l, mesh.edge_weights, u, mu)
    return float(np.dot(flux, ubar[k] - ubar[l]))


def _flux_terms(k, l, w, u, mu):
    """Flux of the density ``u`` through the edges ``(k, l)`` of weights
    ``w``, with the edge values its derivatives and round-off scale
    reuse: ``(mu_K, mu_L, jp, jn, wk, wl, flux)``."""
    muk, mul = mu[k], mu[l]
    jp = muk - mul
    jn = np.negative(jp)
    np.maximum(jp, 0.0, out=jp)
    np.maximum(jn, 0.0, out=jn)
    wk, wl = u[k], u[l]
    flux = jp * wk
    flux -= jn * wl
    flux *= w
    return muk, mul, jp, jn, wk, wl, flux


class NewtonOperator:
    """Newton data of the density step for one mesh and ``params``, with
    one matrix ``schur`` whose ``data`` each Newton iteration overwrites
    in place: an operator serves one solve at a time, and ``simulate``
    builds one per run.  ``schur`` stores the diagonal and ``(K, L)``,
    ``(L, K)`` of each interior edge, with sorted columns in each row;
    ``diagonal``, ``kl`` and ``lk`` are their distinct slots in its
    ``data``, in cell and in edge order."""

    def __init__(self, mesh, params):
        self.mesh, self.params = mesh, params
        nc, (k, l) = mesh.n_cells, mesh.edge_cells.T
        cells = np.arange(nc)
        rows = np.concatenate((cells, k, l))
        cols = np.concatenate((cells, l, k))
        # the keys are unique: two cells share at most one edge
        order = np.argsort(rows * nc + cols, kind="stable")
        slots = np.empty_like(order)
        slots[order] = np.arange(len(order))
        index = _index_dtype(len(order))
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=nc)))).astype(index)
        indices = cols[order].astype(index)
        del cells, rows, cols, order    # freed before the arrays below: RSS
        for array in (slots, indptr, indices):
            array.flags.writeable = False
        self.k, self.l = mesh.edge_cells.T.copy()
        self.w = mesh.edge_weights
        # the maxima of roundoff_bound, fixed by the mesh
        self.area_max = float(np.max(mesh.areas))
        self.w_max = float(np.max(self.w, initial=0.0))
        self.diagonal, self.kl, self.lk = np.split(slots, [nc, nc + len(k)])
        self.schur = sp.csr_matrix((np.zeros(len(slots)), indices, indptr),
                                   shape=(nc, nc))
        #: ``u^n - u^(n-1)`` of the last accepted step, the start of the
        #: next step's first linear solve
        self.last_update = None

    def mass_balance(self, u, mu, u_old):
        """Mass-balance rows and the ``_flux_terms`` they come from."""
        terms = _flux_terms(self.k, self.l, self.w, np.maximum(u, 0.0), mu)
        flux, nc = terms[-1], len(u)
        r1 = u - u_old
        r1 *= self.mesh.areas
        r1 /= self.params.dt
        r1 += np.bincount(self.k, weights=flux, minlength=nc)
        r1 -= np.bincount(self.l, weights=flux, minlength=nc)
        return r1, terms

    def roundoff_scale(self, u, u_old, terms):
        """Largest round-off magnitude of the mass-balance rows."""
        muk, mul, _, _, wk, wl, _ = terms
        # u - u_old rounds at the size of its operands.  The flux noise is
        # dominated by the cancellation in the potential jump, whose error
        # is set by |mu| itself, amplified by the transported density; this
        # bound also dominates |flux| since |[mu]| <= |mu_K| + |mu_L|.
        fscale = self.w * (np.abs(muk) + np.abs(mul)) * np.maximum(
            np.abs(wk), np.abs(wl))
        scale = (self.mesh.areas * (np.abs(u) + np.abs(u_old)) / self.params.dt
                 + np.bincount(self.k, weights=fscale, minlength=len(u))
                 + np.bincount(self.l, weights=fscale, minlength=len(u)))
        return float(scale.max())

    def roundoff_bound(self, u, old_max, mu):
        """Upper bound of ``roundoff_scale`` from the maxima of the fields,
        ``old_max`` that of ``|u_old|``: a cell has at most three interior
        edges, and each adds at most ``w (|mu_K| + |mu_L|) max(w_K, w_L)``
        to its row."""
        umax = float(u.max())
        return (self.area_max / self.params.dt
                * (max(umax, -float(u.min())) + old_max)
                + 6.0 * self.w_max * float(abs(mu).max()) * max(umax, 0.0))

    def refill(self, u, terms):
        """Overwrite ``schur`` with the Jacobian ``J`` of the mass balance
        in ``u`` with ``mu = mu(u)``, from the ``_flux_terms`` at ``u``,
        and return its diagonal.

        By the chain rule ``J = A + Fmu * diag(k0/(u+eps))``, with ``A``
        and ``Fmu`` the derivatives of the mass balance in ``u`` and in
        ``mu``.  Edge ``e = (K, L)`` adds ``a_KK = dF/du_K + dF/d[mu] *
        k0/(u_K+eps)`` to ``(K, K)`` and ``-a_KK`` to ``(L, K)``, ``a_KL =
        dF/du_L - dF/d[mu] * k0/(u_L+eps)`` to ``(K, L)`` and ``-a_KL`` to
        ``(L, L)``; the diagonal also holds ``|K|/dt``.  The kinks take
        one-sided derivatives: ``d max(u, 0)/du`` is 1 for ``u > 0`` and 0
        otherwise, and the jump-sign indicator at ``[mu] = 0`` is 0, so
        the rows of inactive cells stay consistent.  ``J`` is a
        nonsingular M-matrix: its columns sum to ``|K|/dt`` and its
        off-diagonal entries are nonpositive.
        """
        _, _, jp, jn, wk, wl, _ = terms
        # dF/d[mu] of the jump parts
        df_djm = (jp > 0.0) * wk
        df_djm += (jn > 0.0) * wl
        df_djm *= self.w
        ratio = u + self.params.eps
        np.divide(self.params.k0, ratio, out=ratio)
        # the truncated weight max(u, 0) is positive exactly where u is
        a_kk = self.w * jp
        a_kk *= wk > 0.0
        part = ratio[self.k]
        part *= df_djm
        a_kk += part
        a_kl = -self.w
        a_kl *= jn
        a_kl *= wl > 0.0
        np.take(ratio, self.l, out=part)
        part *= df_djm
        a_kl -= part
        # only the diagonal needs a scatter, each other slot belongs to one
        # edge; ufunc.at adds in edge order, one term at a time
        diagonal = self.mesh.areas / self.params.dt
        np.add.at(diagonal, self.k, a_kk)
        np.subtract.at(diagonal, self.l, a_kl)
        data = self.schur.data
        data[self.diagonal] = diagonal
        data[self.kl] = a_kl
        data[self.lk] = -a_kk
        return diagonal

    def direction(self, u, mu, r1, terms, x0=None, rtol=NEWTON_LINEAR_RTOL):
        """Newton step ``J du = -r1`` at ``u``, ``mu(u)`` from ``x0``, to
        ``rtol`` on the true residual: by Jacobi sweeps where their
        1-norm contraction ``q`` (module docstring) is at most
        ``JACOBI_RADIUS_MAX``, by Jacobi-preconditioned BiCGSTAB otherwise,
        and by a sparse LU factorization when either misses ``rtol``.

        Returns ``(du, linear_iterations, lu_fallback)``, the iterations
        counted in sweeps or in BiCGSTAB iterations by the path taken.
        """
        diagonal, rhs = self.refill(u, terms), -r1
        q = 1.0 - np.min(self.mesh.areas / diagonal) / self.params.dt
        solve = _jacobi_solve if q <= JACOBI_RADIUS_MAX else _krylov_solve
        du, iterations = solve(self.schur, rhs, diagonal, x0, rtol)
        fallback = du is None
        if fallback:
            try:
                du = spla.splu(self.schur.tocsc()).solve(rhs)
            except RuntimeError as exc:      # singular factorization
                raise NewtonDivergenceError("Newton linear system is "
                                            "singular: %s" % exc,
                                            u=u, mu=mu) from exc
        return du, iterations, fallback


def _jacobi_solve(schur, rhs, diagonal, x0=None, rtol=NEWTON_LINEAR_RTOL):
    """Jacobi sweeps ``x <- x + (rhs - schur @ x) / diagonal`` from ``x0``
    (zero when None); ``(x, sweeps)``, with ``x`` None unless the true
    residual meets ``rtol * |rhs|`` within ``NEWTON_LINEAR_MAXITER``
    sweeps.  The first sweep from zero is ``rhs / diagonal``."""
    bnorm = np.sqrt(np.dot(rhs, rhs))
    if bnorm == 0.0:
        return rhs, 0
    atol, inverse = rtol * bnorm, 1.0 / diagonal
    if x0 is None:
        x, r = np.zeros_like(rhs), rhs
    else:
        x, r = x0.copy(), rhs - schur @ x0
    for sweep in range(1, NEWTON_LINEAR_MAXITER + 1):
        x += inverse * r
        r = rhs - schur @ x
        if np.sqrt(np.dot(r, r)) <= atol:
            return x, sweep
    return None, NEWTON_LINEAR_MAXITER


def _krylov_solve(schur, rhs, diagonal, x0=None, rtol=NEWTON_LINEAR_RTOL):
    """``scipy.sparse.linalg.bicgstab`` from ``x0`` (zero when None),
    preconditioned by ``1 / diagonal``; ``(x, iterations)``, with ``x``
    None unless the true residual meets ``rtol * |rhs|``.  An iteration
    applies the preconditioner twice, the last may stop after one."""
    inverse, applied = 1.0 / diagonal, [0]

    def precondition(r):
        applied[0] += 1
        return inverse * r

    jacobi = spla.LinearOperator(schur.shape, matvec=precondition,
                                 dtype=float)
    x, info = spla.bicgstab(schur, rhs, x0=x0, rtol=rtol, atol=0.0,
                            maxiter=NEWTON_LINEAR_MAXITER, M=jacobi)
    accepted = info == 0 and (np.linalg.norm(rhs - schur @ x)
                              <= rtol * np.linalg.norm(rhs))
    return (x if accepted else None), (applied[0] + 1) // 2


def solve_u_step(operator, u_old, pi0v):
    """Advance the cell density by one time step with Newton's method.

    Parameters
    ----------
    operator : NewtonOperator
        The run's, with its mesh, ``params`` and the last accepted update
        ``u_new - u_old``, the start of the next first linear solve.
    u_old : (nc,) array, nonnegative
    pi0v : (nc,) array
        Cell averages of the chemoattractant field already advanced to
        the new time level, ``project_p1_to_p0(mesh, v_new)``.

    Returns
    -------
    (u_new, mu_new, stats)
        ``u_new`` is elementwise nonnegative: round-off negatives up to
        ``1e-13 * max(u)`` are clamped to exactly zero and reported in
        ``stats.clamp``; anything more negative rejects the step.  Mass
        is checked against ``u_old`` to ``1e-11`` relative.

    Raises
    ------
    NewtonDivergenceError
        Also for a non-finite residual, at the initial guess or at an
        accepted trial.
    PositivityError, MassDriftError
    """
    op, mesh, params = operator, operator.mesh, operator.params
    u_old = _check_cellfield(mesh, u_old, "u_old")
    if np.min(u_old) < 0.0:
        raise ValueError("u_old must be nonnegative, min is %g"
                         % float(np.min(u_old)))
    pi0v = _check_cellfield(mesh, pi0v, "pi0v")

    def trial(uu):
        """``(rnorm, u, mu, r1, terms, log(u + eps))`` at ``uu`` with
        ``mu = mu(uu)``."""
        lg = uu + params.eps
        np.log(lg, out=lg)
        mm = params.k0 * lg
        mm -= params.k1 * pi0v
        r1, terms = op.mass_balance(uu, mm, u_old)
        return float(np.max(np.abs(r1))), uu, mm, r1, terms, lg

    # Initial guess: keep the density.
    rnorm, u, mu, r1, terms, lg = trial(u_old.copy())
    old_max = float(abs(u_old).max())
    mass_old = float(np.dot(mesh.areas, u_old))
    stats = NewtonStats(0, rnorm)
    while True:
        if not np.isfinite(rnorm):
            raise NewtonDivergenceError(
                "non-finite residual %g after %d iterations"
                % (rnorm, stats.iterations), u=u, mu=mu, stats=stats)
        # the exact scale only runs where it can stop Newton: the factor 2
        # covers the rounding of the bound
        if (rnorm <= 32.0 * _EPS * op.roundoff_bound(u, old_max, mu)
                and rnorm <= 16.0 * _EPS * op.roundoff_scale(u, u_old, terms)
                and params.dt * abs(r1.sum()) <= 0.5 * MASS_RTOL * mass_old):
            break
        if stats.iterations >= NEWTON_MAX_ITERS:
            raise NewtonDivergenceError(
                "Newton stalled at residual %g after %d iterations"
                % (rnorm, stats.iterations), u=u, mu=mu, stats=stats)
        # the first solve of a step starts from the last step's update
        # and stops at the loose forcing term; Newton corrects it.  From
        # zero the loose solve can leave Newton short of round-off (three
        # bulges, mesh2 n=32, dt = 1e-2 stalls in 30 iterations)
        warm = stats.iterations == 0 and op.last_update is not None
        try:
            du, linear, fallback = op.direction(
                u, mu, r1, terms, op.last_update if warm else None,
                NEWTON_FIRST_RTOL if warm else NEWTON_LINEAR_RTOL)
        except NewtonDivergenceError as exc:    # singular LU factorization
            exc.stats = stats
            raise
        stats.linear_iterations += linear
        stats.lu_fallbacks += fallback
        # the line search reads only u and mu of the iterate: free the rest
        r1 = terms = lg = None

        best = None
        for halvings in range(NEWTON_MAX_HALVINGS + 1):
            u_try = u + 0.5 ** halvings * du
            if np.min(u_try) + params.eps > 0.0:
                candidate = trial(u_try)
                if best is None or candidate[0] < best[0]:
                    best = candidate
                if candidate[0] < rnorm:
                    break
        if best is None:
            raise NewtonDivergenceError(
                "no admissible Newton step after %d halvings (u + eps must "
                "stay positive)" % NEWTON_MAX_HALVINGS,
                u=u, mu=mu, stats=stats)
        # Accept the best admissible trial even if the residual did not
        # decrease; the truncation kinks make strict descent too rigid.
        rnorm, u, mu, r1, terms, lg = best
        best = candidate = u_try = None     # free a rejected last trial
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
        clamped = u < 0.0
        u = np.where(clamped, 0.0, u)
        lg[clamped] = np.log(u[clamped] + params.eps)

    mass_new = float(np.dot(mesh.areas, u))
    if abs(mass_new - mass_old) > MASS_RTOL * max(abs(mass_old), 1e-300):
        raise MassDriftError(
            "mass drift %g exceeds %g relative"
            % (mass_new - mass_old, MASS_RTOL))

    # max(u, 0) is the same before and after the clamp; jp - jn == [mu]
    *_, jp, jn, _, _, flux = terms
    stats.dissipation = float(np.dot(flux, jp - jn))
    stats.clamp = clamp
    stats.log_u = lg
    op.last_update = u - u_old
    return u, mu, stats
