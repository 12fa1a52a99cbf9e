"""Structured triangulations with the edge connectivity used by upwind cell fluxes.

Two families of triangulations of a rectangle tiled by squares of side ``l``
are provided:

* ``mesh1``: every square is split by one diagonal, and the diagonal
  directions alternate so that the four diagonals of each 2x2 block of
  squares meet at the block center.  Requires an even number of squares
  per side.
* ``mesh2``: every square is split into four triangles by inserting the
  square center as a vertex (criss-cross pattern).

Both families satisfy the two geometric conditions the upwind transport
discretization relies on: the segment joining the barycenters of two
edge-adjacent triangles is orthogonal to the shared edge, and every
triangle angle is at most pi/2.  ``verify_hypotheses`` checks both
conditions on arbitrary meshes.

The barycenter distance of an interior edge has a closed form on these
meshes, ``2*l**2 / (3*|e|)`` for ``mesh1`` and ``l**2 / (3*|e|)`` for
``mesh2``; see ``pattern_edge_distance``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MESH1 = "mesh1"
MESH2 = "mesh2"
_PATTERNS = (MESH1, MESH2)

#: Checks on exact-arithmetic constructions only accrue rounding error.
HYPOTHESIS_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh construction request or malformed mesh data."""


def _normalize_pattern(pattern):
    p = str(pattern).strip().lower()
    if p not in _PATTERNS:
        raise MeshError(
            "unknown mesh pattern %r; expected 'mesh1' or 'mesh2'" % (pattern,))
    return p


class TriMesh:
    """Immutable 2D triangulation with precomputed interior-edge data.

    Parameters
    ----------
    vertices : (nv, 2) array_like
        Vertex coordinates.
    triangles : (nt, 3) array_like of int
        Vertex index triples.  Clockwise triples are reordered to
        counterclockwise during construction.
    pattern : str or None
        ``"mesh1"`` / ``"mesh2"`` for meshes built by
        ``build_structured_mesh``; None for hand-built meshes.
    square_side : float or None
        Side length ``l`` of the generating squares, if applicable.

    Attributes
    ----------
    areas : (nt,) float
        Triangle areas, all positive.
    barycenters : (nt, 2) float
    edge_vertices : (ne, 2) int
        Sorted vertex pair of each interior edge.
    edge_cells : (ne, 2) int
        Cells (K, L) sharing each interior edge; K is always the lower
        cell index and the unit normal points from K toward L.
    edge_lengths, edge_dists : (ne,) float
        Edge length and the distance between the two barycenters.
    edge_weights : (ne,) float
        ``edge_lengths / edge_dists``, the weight of each upwind flux.
    edge_normals : (ne, 2) float
        Unit normal per interior edge, oriented K -> L.
    bedge_vertices, bedge_cell, bedge_lengths, bedge_normals
        Boundary edge data; normals point out of the domain.
    vertex_areas : (nv,) float
        Lumped vertex weights: one third of the total area of the
        incident triangles.  They sum to the domain area.
    lambda_gradients : (nt, 3, 2) float
        Constant gradient of each triangle's three barycentric basis
        functions, in the order of the triangle's vertices.
    h : float
        Mesh size (longest edge).
    cell_pattern : CellPattern
        CSR pattern of the cell adjacency, built on first use.
    stiffness : csr_matrix
        P1 stiffness matrix (constants in its kernel), built on first use.

    All arrays are read-only after construction, so derived data such as
    ``edge_weights`` cannot go stale; a TriMesh is safe for concurrent
    reads.
    """

    def __init__(self, vertices, triangles, pattern=None, square_side=None):
        vertices = np.array(vertices, dtype=float)
        given = np.asarray(triangles)
        with np.errstate(invalid="ignore"):     # NaN has no integer value
            triangles = given.astype(np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if given.dtype.kind not in "iu" and np.any(triangles != given):
            raise MeshError("triangle vertex indices must be integers")
        if len(triangles) == 0:
            raise MeshError("mesh needs at least one triangle")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshError("triangle vertex index out of range")

        # One gather of the corners feeds the orientation, the areas, the
        # basis gradients and the barycenters.
        p = np.take(vertices, triangles, axis=0)
        x, y = p[..., 0], p[..., 1]
        cross = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                 - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
        # uniform counterclockwise orientation: swap the last two corners
        flip = np.flatnonzero(cross < 0.0)
        triangles[flip, 1:] = triangles[flip, :0:-1]
        p[flip, 1:] = p[flip, :0:-1]
        areas = np.abs(cross, out=cross)
        areas *= 0.5

        extent = max(vertices.max() - vertices.min(), 1.0)
        if np.any(areas <= 1e-14 * extent ** 2):
            raise MeshError("degenerate (zero-area) triangle in mesh")

        # the gradient of the basis function of corner a is its opposite
        # side c - b rotated by 90 degrees over twice the area; -(y_c - y_b)
        # and y_b - y_c differ in the sign of a zero
        grads = np.empty_like(p)
        twice = 2.0 * areas
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.divide(-(y[:, c] - y[:, b]), twice, out=grads[:, a, 0])
            np.divide(x[:, c] - x[:, b], twice, out=grads[:, a, 1])

        self.vertices = vertices
        self.triangles = triangles
        self.pattern = None if pattern is None else _normalize_pattern(pattern)
        self.square_side = None if square_side is None else float(square_side)
        self.areas = areas
        self.barycenters = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
        self.vertex_areas = np.bincount(
            triangles.ravel(), weights=np.repeat(areas / 3.0, 3),
            minlength=len(vertices))
        self.lambda_gradients = grads
        self._build_edges()
        _freeze(self)

    # -- connectivity ----------------------------------------------------

    def _build_edges(self):
        # Side s of triangle t runs from corner s to corner s + 1 and sits
        # at 3t + s; it is keyed by its vertex pair (lo, hi), lo < hi, as
        # lo * nv + hi.  The stable sort of the keys keeps each run of
        # equal pairs in cell order; only the sides that become edges are
        # gathered back.
        tri = self.triangles
        nxt = tri[:, [1, 2, 0]]
        lo = np.minimum(tri, nxt).ravel()
        hi = np.maximum(tri, nxt, out=nxt).ravel()
        keys = lo * len(self.vertices)
        keys += hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, len(keys)])
        if counts.max() > 2:
            first = order[starts[np.argmax(counts > 2)]]
            raise MeshError("edge %r shared by more than two triangles"
                            % ((int(lo[first]), int(hi[first])),))
        pairs = starts[counts == 2]
        inner = order[pairs]
        bound = order[starts[counts == 1]]

        ev = np.column_stack((lo[inner], hi[inner]))
        ec = np.column_stack((inner // 3, order[pairs + 1] // 3))
        dvec = (np.take(self.barycenters, ec[:, 1], axis=0)
                - np.take(self.barycenters, ec[:, 0], axis=0))
        dists = np.hypot(dvec[:, 0], dvec[:, 1])
        lengths, normals, side = _lengths_and_normals(self.vertices, ev, dvec)
        if np.any(np.abs(side) <= 1e-14 * dists):
            raise MeshError("barycenter segment parallel to shared edge")
        self.edge_vertices = ev
        self.edge_cells = ec
        self.edge_lengths = lengths
        self.edge_dists = dists
        self.edge_weights = lengths / dists
        self.edge_normals = normals

        bv = np.column_stack((lo[bound], hi[bound]))
        bc = bound // 3
        mid = 0.5 * (np.take(self.vertices, bv[:, 0], axis=0)
                     + np.take(self.vertices, bv[:, 1], axis=0))
        mid -= np.take(self.barycenters, bc, axis=0)
        blen, bnrm, _ = _lengths_and_normals(self.vertices, bv, mid)
        self.bedge_vertices = bv
        self.bedge_cell = bc
        self.bedge_lengths = blen
        self.bedge_normals = bnrm

        # every triangle has a side, so there is at least one edge
        self.h = float(np.concatenate((lengths, blen)).max())

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.triangles)

    @property
    def n_interior_edges(self):
        return len(self.edge_cells)

    @property
    def n_boundary_edges(self):
        return len(self.bedge_cell)

    @property
    def cell_pattern(self):
        # rebuilt when edge_cells is replaced, as on a relabelled copy
        if getattr(self, "_pattern_edges", None) is not self.edge_cells:
            self._cell_pattern = _build_cell_pattern(self.n_cells,
                                                     self.edge_cells)
            self._pattern_edges = self.edge_cells
        return self._cell_pattern

    @property
    def stiffness(self):
        # rebuilt when triangles is replaced, as on a relabelled copy
        if getattr(self, "_stiffness_triangles", None) is not self.triangles:
            self._stiffness = _freeze(_assemble_stiffness(self))
            self._stiffness_triangles = self.triangles
        return self._stiffness

    def __repr__(self):
        pat = self.pattern or "custom"
        return ("TriMesh(%s, %d vertices, %d triangles, %d interior edges)"
                % (pat, self.n_vertices, self.n_cells, self.n_interior_edges))


def _freeze(obj):
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


@dataclass(frozen=True)
class CellPattern:
    """CSR pattern of a cell-by-cell matrix coupling edge neighbours.

    The stored entries are the diagonal and ``(K, L)``, ``(L, K)`` for
    every interior edge, with sorted column indices in each row.
    ``slots`` gives the position in the CSR data array of each entry, in
    the order ``diagonal`` (nc), then ``(K, L)`` and ``(L, K)`` per edge
    (ne each).  No two entries share a slot, so a matrix on the pattern
    is filled by writing its values to their slots.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray


def _index_dtype(n):
    """Index type for sparse matrices with indices and entry counts below
    ``n``: scipy takes int32 index arrays as they are, int64 ones it scans
    and copies."""
    return np.int32 if n < 2 ** 31 else np.int64


def _build_cell_pattern(nc, edge_cells):
    k, l = edge_cells[:, 0], edge_cells[:, 1]
    cells = np.arange(nc)
    rows = np.concatenate((cells, k, l))
    cols = np.concatenate((cells, l, k))
    # the keys are unique: two cells share at most one edge
    order = np.argsort(rows * nc + cols, kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))
    index = _index_dtype(len(order))
    pattern = CellPattern(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=nc)))
                              ).astype(index),
        indices=cols[order].astype(index),
        slots=slots)
    return _freeze(pattern)


def _assemble_stiffness(mesh):
    # local[t, a, b] = |K| grad(lambda_a) . grad(lambda_b), symmetric in
    # (a, b) bit for bit
    gx, gy = mesh.lambda_gradients[..., 0], mesh.lambda_gradients[..., 1]
    local = np.empty((mesh.n_cells, 3, 3))
    for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        entry = gx[:, a] * gx[:, b]
        entry += gy[:, a] * gy[:, b]
        entry *= mesh.areas
        local[:, a, b] = entry
        local[:, b, a] = entry
    nv = mesh.n_vertices
    tri = mesh.triangles.astype(_index_dtype(nv))
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def _lengths_and_normals(verts, pairs, toward):
    """Length and unit normal of each edge, the normal turned to the side
    of ``toward``; also the normal's component along ``toward``."""
    tang = (np.take(verts, pairs[:, 1], axis=0)
            - np.take(verts, pairs[:, 0], axis=0))
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.empty_like(tang)
    np.divide(tang[:, 1], lengths, out=normals[:, 0])
    np.divide(-tang[:, 0], lengths, out=normals[:, 1])
    side = np.einsum("ij,ij->i", normals, toward)
    np.negative(normals, out=normals, where=(side < 0.0)[:, None])
    return lengths, normals, side


def square_tiling(pattern, n, domain):
    """Check that ``n`` squares along x tile ``domain`` for ``pattern``.

    The square side is ``l = width / n``; the rectangle height must be a
    whole multiple of ``l``, and ``mesh1`` needs an even square count in
    both directions because its diagonal pattern tiles in 2x2 blocks.
    Returns ``(l, ny)``, ``ny`` the square count along y; raises
    ``MeshError`` when the request cannot be built.
    """
    pattern = _normalize_pattern(pattern)
    xmin, xmax, ymin, ymax = (float(c) for c in domain)
    if not (0.0 < xmax - xmin < np.inf and 0.0 < ymax - ymin < np.inf):
        raise MeshError("degenerate domain: %r" % (domain,))
    if not (np.isfinite(n) and n == int(n) and n >= 1):
        raise MeshError("need a whole number n >= 1 of squares per side, "
                        "got n=%r" % (n,))
    n = int(n)
    side = (xmax - xmin) / n
    ny_exact = (ymax - ymin) / side
    ny = int(round(ny_exact)) if ny_exact < np.inf else 0
    if ny < 1 or abs(ny_exact - ny) > 1e-9 * ny:
        raise MeshError(
            "domain of aspect %g cannot be tiled by squares of side %g"
            % ((ymax - ymin) / (xmax - xmin), side))
    if pattern == MESH1 and (n % 2 or ny % 2):
        raise MeshError(
            "mesh1 tiles in 2x2 blocks of squares and needs an even square "
            "count per side, got %dx%d" % (n, ny))
    return side, ny


def build_structured_mesh(pattern, n, domain=(-0.5, 0.5, -0.5, 0.5)):
    """Build one of the two structured mesh families on a rectangle.

    Parameters
    ----------
    pattern : {"mesh1", "mesh2"}
        ``mesh1`` splits each square in two (alternating diagonals),
        ``mesh2`` in four (criss-cross).
    n : int
        Number of squares along the x direction; ``square_tiling`` states
        which counts and domains can be built.
    domain : (xmin, xmax, ymin, ymax)
        Axis-aligned rectangle, default the unit square centered at the
        origin.

    Returns
    -------
    TriMesh
    """
    pattern = _normalize_pattern(pattern)
    side, ny = square_tiling(pattern, n, domain)
    n = int(n)
    xmin, xmax, ymin, ymax = (float(c) for c in domain)

    def grid(xs, ys):
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack((gx.ravel(), gy.ravel()))

    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    vertices = grid(xs, ys)

    # corners of every square, squares ordered row by row
    j, i = np.divmod(np.arange(n * ny), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    if pattern == MESH1:
        sw_ne = np.column_stack((v00, v10, v11, v00, v11, v01))
        nw_se = np.column_stack((v00, v10, v01, v10, v11, v01))
        tris = np.where(((i + j) % 2 == 0)[:, None], sw_ne, nw_se)
    else:
        c = len(vertices) + np.arange(n * ny)
        vertices = np.vstack((vertices, grid(0.5 * (xs[:-1] + xs[1:]),
                                             0.5 * (ys[:-1] + ys[1:]))))
        tris = np.column_stack((v00, v10, c, v10, v11, c,
                                v11, v01, c, v01, v00, c))

    return TriMesh(vertices, tris.reshape(-1, 3), pattern=pattern,
                   square_side=side)


def pattern_edge_distance(pattern, square_side, edge_length):
    """Closed-form barycenter distance for the structured families.

    For squares of side ``l`` and an interior edge of length ``|e|`` the
    distance between the barycenters of the two adjacent triangles is
    ``2*l**2 / (3*|e|)`` on ``mesh1`` and ``l**2 / (3*|e|)`` on ``mesh2``.
    """
    pattern = _normalize_pattern(pattern)
    l = float(square_side)
    e = np.asarray(edge_length, dtype=float)
    factor = 2.0 if pattern == MESH1 else 1.0
    return factor * l * l / (3.0 * e)


@dataclass
class HypothesesReport:
    """Outcome of the two structural mesh checks.

    ``orthogonality_violation`` is the worst cosine between a shared edge
    and the corresponding barycenter segment (0 when exactly orthogonal);
    ``angle_violation`` is the worst angle excess over pi/2 in radians
    (0 when no triangle is obtuse).
    """

    orthogonality_ok: bool
    acute_ok: bool
    orthogonality_violation: float
    angle_violation: float

    @property
    def max_violation(self):
        return max(self.orthogonality_violation, self.angle_violation)


def verify_hypotheses(mesh):
    """Check barycenter-segment orthogonality and acuteness of a mesh.

    Returns a ``HypothesesReport`` with per-check booleans and the worst
    numeric violation of each check; a check passes within
    ``HYPOTHESIS_TOL``.  Meshes from ``build_structured_mesh`` pass both.
    """
    verts, ev, ec = mesh.vertices, mesh.edge_vertices, mesh.edge_cells
    tang = np.take(verts, ev[:, 1], axis=0) - np.take(verts, ev[:, 0], axis=0)
    tang /= mesh.edge_lengths[:, None]
    dvec = (np.take(mesh.barycenters, ec[:, 1], axis=0)
            - np.take(mesh.barycenters, ec[:, 0], axis=0))
    ortho = float(np.max(np.abs(np.einsum("ij,ij->i", tang, dvec))
                         / mesh.edge_dists, initial=0.0))

    # The angle at corner a is obtuse exactly when grad(lambda_b) .
    # grad(lambda_c) > 0: cos(theta_a) = -grad(lambda_b) . grad(lambda_c)
    # / (|grad(lambda_b)| |grad(lambda_c)|) (Ciarlet & Raviart, 1973), so
    # the normalized product is the sine of the angle's excess over pi/2.
    grads = mesh.lambda_gradients
    gb, gc = grads[:, [1, 2, 0]], grads[:, [2, 0, 1]]
    norms = np.hypot(grads[..., 0], grads[..., 1])
    sines = np.einsum("tax,tax->ta", gb, gc) / (norms[:, [1, 2, 0]]
                                                 * norms[:, [2, 0, 1]])
    # + 0.0 turns the -0 a right angle can give into 0; NaN stays NaN
    angle_excess = float(np.arcsin(np.clip(sines.max(), 0.0, 1.0))) + 0.0

    return HypothesesReport(
        orthogonality_ok=ortho <= HYPOTHESIS_TOL,
        acute_ok=angle_excess <= HYPOTHESIS_TOL,
        orthogonality_violation=ortho,
        angle_violation=angle_excess,
    )

