"""Linear solve for the chemoattractant concentration.

Each time step first updates the vertex field ``v`` from the current cell
density ``u`` by solving

    (tau/dt) * M_L * (v_new - v_old) + k2 * S * v_new + k3 * M_L * v_new
        = k4 * B * u,

where ``S`` is the continuous piecewise-linear stiffness matrix, ``M_L``
the lumped (diagonal) mass matrix and ``B`` the exact pairing of a cell
field against the vertex basis (each cell sends ``|K| * u_K / 3`` to each
of its vertices).  Only the time-derivative and reaction products are
lumped; the load pairing is exact.  With ``tau = 0`` the time-derivative
term is dropped and ``v_old`` is ignored entirely.

The system matrix is symmetric positive definite, and on acute meshes it
is an M-matrix, so nonnegative ``u`` and ``v_old`` give a nonnegative
solution.  When its Jacobi radius (the largest off-diagonal sum of its
Jacobi-scaled rows, set at assembly) is at most ``JACOBI_RADIUS_MAX``
(``tau = 1`` with a small ``dt``), CG solves it.  Otherwise, or when CG
misses, a factor with a symmetric ordering and diagonal pivots does.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import _check_cellfield, _check_nodefield
from .mesh import _index_dtype

#: Normwise backward error every solve must reach, in the max norm:
#: ``|r| <= RESIDUAL_RTOL * (|A| |x| + |rhs|)``.
RESIDUAL_RTOL = 1e-12

#: CG solves a step of Jacobi radius at most ``JACOBI_RADIUS_MAX`` to an
#: entrywise error of ``V_TOL * max|v|`` within ``PCG_MAXITER`` iterations.
#: The density step's Jacobi sweeps have a bound of their own,
#: ``ustep.NEWTON_JACOBI_Q_MAX``.
JACOBI_RADIUS_MAX = 0.5
V_TOL = 1e-14
PCG_MAXITER = 100


class LinearSolveError(RuntimeError):
    """The linear solve missed the required residual tolerance."""


class VStepSystem:
    """Assembled matrices for the chemoattractant step of one run.

    Attributes
    ----------
    lumped_mass : (nv,) array
        Diagonal of the lumped mass matrix; entries are the vertex areas
        and sum to the domain area.
    stiffness : csr_matrix
        The mesh's piecewise-linear stiffness matrix, ``mesh.stiffness``.
    load_matrix : csr_matrix, shape (nv, nc)
        Exact cell-to-vertex pairing; the load vector is
        ``k4 * load_matrix @ u``.
    matrix : csr_matrix
        Composed system matrix for the parameters given at assembly.
    diagonal, jacobi_radius, norm_inf : (nv,) array, float, float
        Rows of ``matrix``: diagonal, Jacobi radius and ``|matrix|_inf``.
    """

    def __init__(self, mesh, params):
        self.mesh = mesh
        self.params = params
        self.lumped_mass = mesh.vertex_areas.copy()
        self.stiffness = mesh.stiffness
        self.load_matrix = _assemble_load(mesh)
        coef = params.tau / params.dt + params.k3
        matrix = self.matrix = (params.k2 * self.stiffness
                                + sp.diags(coef * self.lumped_mass)).tocsr()
        self.diagonal = matrix.diagonal()
        sums = np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1])
        self.jacobi_radius = np.max(sums / self.diagonal) - 1.0
        self.norm_inf = np.max(sums)
        self._lu = None

    def _factorized(self):
        if self._lu is None:
            self._lu = spla.splu(
                self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return self._lu


def _assemble_load(mesh):
    index = _index_dtype(max(mesh.n_vertices, mesh.n_cells))
    rows = mesh.triangles.astype(index).ravel()
    cols = np.repeat(np.arange(mesh.n_cells, dtype=index), 3)
    data = np.repeat(mesh.areas / 3.0, 3)
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_cells)).tocsr()


def assemble_v_system(mesh, params):
    """Assemble mass, stiffness and load for the chemoattractant step.

    The assembly is exact: the stiffness uses the closed-form constant
    gradients and the lumped mass collects ``|K|/3`` per incident cell.
    """
    return VStepSystem(mesh, params)


def _pcg(matrix, rhs, d, q):
    """Jacobi-preconditioned CG from zero: ``(x, r)``, or None on a miss.

    It stops at ``max|r/d| <= V_TOL (1-q)/(1+q) max|rhs/d|`` on the true
    residual: then ``|x - x*| <= max|r/d| / (1-q) <= V_TOL max|x*|``, as
    ``max|x*| >= max|rhs/d| / (1+q)`` (``q`` the Jacobi radius)."""
    inverse = 1.0 / d
    z = inverse * rhs
    stop = V_TOL * (1.0 - q) / (1.0 + q) * abs(z).max()
    x, r, p, rz = np.zeros_like(rhs), rhs.copy(), z, np.dot(rhs, z)
    for _ in range(PCG_MAXITER):
        if abs(z).max() <= stop:            # at once for a zero rhs
            r = rhs - matrix @ x
            return (x, r) if abs(inverse * r).max() <= stop else None
        ap = matrix @ p
        pap = np.dot(p, ap)
        if not pap > 0.0:                   # breakdown
            return None
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = inverse * r
        rz, rz_prev = np.dot(r, z), rz
        p = z + (rz / rz_prev) * p
    return None


def solve_v_step(system, v_prev, u_prev):
    """Advance the chemoattractant field by one time step.

    Parameters
    ----------
    system : VStepSystem
    v_prev : (nv,) array or None
        Previous vertex field; required (and nonnegative) when
        ``tau = 1``, ignored when ``tau = 0``.
    u_prev : (nc,) array
        Current cell density.

    The solve (see the module docstring) is accepted when ``|A v - rhs|
    <= 1e-12 (|A| |v| + |rhs|)`` in the max norm, a bound that must be
    finite.  A factor solve missing it is refined once;
    ``LinearSolveError`` is raised if it still misses.
    """
    mesh, params = system.mesh, system.params
    u_prev = _check_cellfield(mesh, u_prev, "u_prev")

    rhs = params.k4 * (system.load_matrix @ u_prev)
    if params.tau:
        if v_prev is None:
            raise ValueError("v_prev is required when tau = 1")
        v_prev = _check_nodefield(mesh, v_prev, "v_prev")
        rhs = rhs + (params.tau / params.dt) * system.lumped_mass * v_prev

    matrix, q = system.matrix, system.jacobi_radius

    def misses(x, r):       # true for a NaN residual or an infinite bound
        return not (abs(r).max() <= RESIDUAL_RTOL * (
            system.norm_inf * abs(x).max() + abs(rhs).max()) < np.inf)

    solved = (_pcg(matrix, rhs, system.diagonal, q)
              if q <= JACOBI_RADIUS_MAX else None)
    if solved is None or misses(*solved):
        lu = system._factorized()
        x = lu.solve(rhs)
        r = rhs - matrix @ x
        if misses(x, r):
            x += lu.solve(r)
            r = rhs - matrix @ x
            if misses(x, r):
                raise LinearSolveError(
                    "linear solve residual %g exceeds %g * (|A| |v| + |rhs|)"
                    % (abs(r).max(), RESIDUAL_RTOL))
        return x
    return solved[0]
