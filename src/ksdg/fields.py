"""Field algebra on triangle meshes.

Two kinds of discrete fields appear throughout the solver, both stored as
plain numpy arrays:

* cell fields: one value per triangle (piecewise constant, discontinuous),
  shape ``(n_cells,)``; used for the cell density and the chemical
  potential;
* vertex fields: one value per vertex (continuous piecewise linear),
  shape ``(n_vertices,)``; used for the chemoattractant concentration.

This module provides the positive part, the projections between the two
spaces, and the exact integrals the solver and its diagnostics need.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Model and discretization parameters.

    ``k0`` cell diffusion, ``k1`` chemotactic sensitivity, ``k2``
    chemoattractant diffusion, ``k3`` degradation, ``k4`` production.
    ``tau`` selects the parabolic (1) or elliptic (0) chemoattractant
    equation.  ``eps`` regularizes the logarithm in the chemical
    potential, ``dt`` is the time step and ``t_end`` the final time, a
    whole number of steps (to a relative ``1e-9``).  All values but
    ``tau`` are positive and finite.
    """

    k0: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    tau: int = 1
    eps: float = 1e-10
    dt: float = 1e-6
    t_end: float = 1e-4

    def __post_init__(self):
        for name in ("k0", "k1", "k2", "k3", "k4", "eps", "dt", "t_end"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))
        if self.tau not in (0, 1):
            raise ValueError("tau must be 0 or 1, got %r" % (self.tau,))
        steps = self.t_end / self.dt
        n = round(steps) if steps < np.inf else 0
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end = %r is not a whole number of time "
                             "steps of dt = %r" % (self.t_end, self.dt))


def pos_part(x):
    """max(x, 0), elementwise."""
    return np.maximum(x, 0.0)


def _check_cellfield(mesh, values, name="cell field"):
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_cells,):
        raise ValueError("%s has shape %r, expected (%d,)"
                         % (name, values.shape, mesh.n_cells))
    return values


def _check_nodefield(mesh, values, name="vertex field"):
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("%s has shape %r, expected (%d,)"
                         % (name, values.shape, mesh.n_vertices))
    return values


def project_p1_to_p0(mesh, values):
    """Cellwise average of a vertex field (its value at the barycenter)."""
    values = _check_nodefield(mesh, values)
    t = mesh.triangles
    return (values[t[:, 0]] + values[t[:, 1]] + values[t[:, 2]]) / 3.0


def project_p0_to_p1_lumped(mesh, values):
    """Area-weighted vertex average of a cell field.

    Each vertex receives ``sum(|K|/3 * u_K) / sum(|K|/3)`` over incident
    cells, a convex combination: constants and nonnegativity are
    preserved.  Used for visualization output.
    """
    values = _check_cellfield(mesh, values)
    num = np.bincount(mesh.triangles.ravel(),
                      weights=np.repeat(mesh.areas * values / 3.0, 3),
                      minlength=mesh.n_vertices)
    return num / mesh.vertex_areas


def integrate_cellfield(mesh, values):
    """Integral of a cell field over the domain: ``sum(|K| * u_K)``."""
    values = _check_cellfield(mesh, values)
    return float(np.dot(mesh.areas, values))


def p1_square_integral(mesh, values, lumped=False):
    """Integral of the square of a vertex field.

    With ``lumped=False`` the exact value for piecewise-linear data,
    ``sum |K|/6 * (v0^2 + v1^2 + v2^2 + v0*v1 + v0*v2 + v1*v2)``; with
    ``lumped=True`` the vertex-quadrature value ``sum w_i * v_i^2`` that
    the mass-lumped products of the scheme induce.
    """
    values = _check_nodefield(mesh, values)
    if lumped:
        return float(np.dot(mesh.vertex_areas, values * values))
    v = values[mesh.triangles]
    s = (v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2
         + v[:, 0] * v[:, 1] + v[:, 0] * v[:, 2] + v[:, 1] * v[:, 2])
    return float(np.dot(mesh.areas / 6.0, s))
