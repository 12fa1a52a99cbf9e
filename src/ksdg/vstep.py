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
solution.  It is SPD on every mesh: its factor uses a symmetric ordering
and diagonal pivots, and a solve is refined only if it misses the bound.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import _check_cellfield, _check_nodefield

#: Relative residual the solve must reach, checked after every solve.
RESIDUAL_RTOL = 1e-12


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
    """

    def __init__(self, mesh, params):
        self.mesh = mesh
        self.params = params
        self.lumped_mass = mesh.vertex_areas.copy()
        self.stiffness = mesh.stiffness
        self.load_matrix = _assemble_load(mesh)
        coef = params.tau / params.dt + params.k3
        self.matrix = (params.k2 * self.stiffness
                       + sp.diags(coef * self.lumped_mass)).tocsr()
        self._lu = None

    def _factorized(self):
        if self._lu is None:
            self._lu = spla.splu(
                self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return self._lu


def _assemble_load(mesh):
    rows = mesh.triangles.ravel()
    cols = np.repeat(np.arange(mesh.n_cells), 3)
    data = np.repeat(mesh.areas / 3.0, 3)
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_cells)).tocsr()


def assemble_v_system(mesh, params):
    """Assemble mass, stiffness and load for the chemoattractant step.

    The assembly is exact: the stiffness uses the closed-form constant
    gradients and the lumped mass collects ``|K|/3`` per incident cell.
    """
    return VStepSystem(mesh, params)


def solve_v_step(system, v_prev, u_prev, params=None):
    """Advance the chemoattractant field by one time step.

    Parameters
    ----------
    system : VStepSystem
    v_prev : (nv,) array or None
        Previous vertex field; required (and nonnegative) when
        ``tau = 1``, ignored when ``tau = 0``.
    u_prev : (nc,) array
        Current cell density.
    params : ModelParams, optional
        Must match the parameters the system was assembled with.

    The system's cached factor has a symmetric minimum-degree ordering and
    diagonal pivots.  A solve missing ``norm(A v - rhs) <= 1e-12 norm(rhs)``
    is refined once; ``LinearSolveError`` is raised if it still misses.
    """
    mesh = system.mesh
    if params is None:
        params = system.params
    elif params != system.params:
        raise ValueError("params differ from the ones the system was "
                         "assembled with; reassemble")
    u_prev = _check_cellfield(mesh, u_prev, "u_prev")

    rhs = params.k4 * (system.load_matrix @ u_prev)
    if params.tau:
        if v_prev is None:
            raise ValueError("v_prev is required when tau = 1")
        v_prev = _check_nodefield(mesh, v_prev, "v_prev")
        rhs = rhs + (params.tau / params.dt) * system.lumped_mass * v_prev

    lu = system._factorized()
    x = lu.solve(rhs)
    r = rhs - system.matrix @ x
    bound = RESIDUAL_RTOL * max(float(np.linalg.norm(rhs)), 1e-300)
    if np.linalg.norm(r) > bound:
        x += lu.solve(r)
        r = rhs - system.matrix @ x
    if np.linalg.norm(r) > bound:
        raise LinearSolveError(
            "linear solve residual %g exceeds %g * ||rhs|| = %g"
            % (np.linalg.norm(r), RESIDUAL_RTOL, bound))
    return x
