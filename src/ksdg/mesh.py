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
    edge_normals : (ne, 2) float
        Unit normal per interior edge, oriented K -> L.
    bedge_vertices, bedge_cell, bedge_lengths, bedge_normals
        Boundary edge data; normals point out of the domain.
    vertex_areas : (nv,) float
        Lumped vertex weights: one third of the total area of the
        incident triangles.  They sum to the domain area.
    h : float
        Mesh size (longest edge).

    All arrays are frozen after construction; a TriMesh is safe for
    concurrent reads.
    """

    def __init__(self, vertices, triangles, pattern=None, square_side=None):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if triangles.size and (triangles.min() < 0
                               or triangles.max() >= len(vertices)):
            raise MeshError("triangle vertex index out of range")
        if len(triangles) == 0:
            raise MeshError("mesh needs at least one triangle")

        # Uniform counterclockwise orientation.
        p0 = vertices[triangles[:, 0]]
        e1 = vertices[triangles[:, 1]] - p0
        e2 = vertices[triangles[:, 2]] - p0
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = cross < 0.0
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        areas = 0.5 * np.abs(cross)

        extent = max(vertices.max() - vertices.min(), 1.0)
        if np.any(areas <= 1e-14 * extent ** 2):
            raise MeshError("degenerate (zero-area) triangle in mesh")

        self.vertices = vertices
        self.triangles = triangles
        self.pattern = None if pattern is None else _normalize_pattern(pattern)
        self.square_side = None if square_side is None else float(square_side)
        self.areas = areas
        self.barycenters = vertices[triangles].mean(axis=1)
        self.vertex_areas = np.bincount(
            triangles.ravel(), weights=np.repeat(areas / 3.0, 3),
            minlength=len(vertices))
        self._build_edges()

    # -- connectivity ----------------------------------------------------

    def _build_edges(self):
        incidence = {}
        for cell, tri in enumerate(self.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (a, b) if a < b else (b, a)
                incidence.setdefault(key, []).append(cell)

        interior, boundary = [], []
        for key, cells in incidence.items():
            if len(cells) == 2:
                interior.append((key, min(cells), max(cells)))
            elif len(cells) == 1:
                boundary.append((key, cells[0]))
            else:
                raise MeshError(
                    "edge %r shared by more than two triangles" % (key,))
        interior.sort()
        boundary.sort()

        verts = self.vertices
        bary = self.barycenters

        ev = np.array([key for key, _, _ in interior], dtype=np.int64)
        ev = ev.reshape(-1, 2)
        ec = np.array([(k, l) for _, k, l in interior], dtype=np.int64)
        ec = ec.reshape(-1, 2)
        if len(interior):
            tang = verts[ev[:, 1]] - verts[ev[:, 0]]
            lengths = np.hypot(tang[:, 0], tang[:, 1])
            dvec = bary[ec[:, 1]] - bary[ec[:, 0]]
            dists = np.hypot(dvec[:, 0], dvec[:, 1])
            normals = np.column_stack((tang[:, 1], -tang[:, 0])) / lengths[:, None]
            side = np.einsum("ij,ij->i", normals, dvec)
            if np.any(np.abs(side) <= 1e-14 * dists):
                raise MeshError("barycenter segment parallel to shared edge")
            normals[side < 0.0] *= -1.0
        else:
            lengths = np.zeros(0)
            dists = np.zeros(0)
            normals = np.zeros((0, 2))
        self.edge_vertices = ev
        self.edge_cells = ec
        self.edge_lengths = lengths
        self.edge_dists = dists
        self.edge_normals = normals

        bv = np.array([key for key, _ in boundary], dtype=np.int64).reshape(-1, 2)
        bc = np.array([c for _, c in boundary], dtype=np.int64)
        if len(boundary):
            tang = verts[bv[:, 1]] - verts[bv[:, 0]]
            blen = np.hypot(tang[:, 0], tang[:, 1])
            bnrm = np.column_stack((tang[:, 1], -tang[:, 0])) / blen[:, None]
            mid = 0.5 * (verts[bv[:, 0]] + verts[bv[:, 1]])
            side = np.einsum("ij,ij->i", bnrm, mid - bary[bc])
            bnrm[side < 0.0] *= -1.0
        else:
            blen = np.zeros(0)
            bnrm = np.zeros((0, 2))
        self.bedge_vertices = bv
        self.bedge_cell = bc
        self.bedge_lengths = blen
        self.bedge_normals = bnrm

        all_lengths = np.concatenate((lengths, blen))
        self.h = float(all_lengths.max()) if all_lengths.size else 0.0

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

    def domain_area(self):
        return float(self.areas.sum())

    def __repr__(self):
        pat = self.pattern or "custom"
        return ("TriMesh(%s, %d vertices, %d triangles, %d interior edges)"
                % (pat, self.n_vertices, self.n_cells, self.n_interior_edges))


def _find_pair(pairs, n_vertices, pair):
    """Row of the lexicographically sorted ``pairs`` equal to ``pair``."""
    if len(pair) != 2 or not 0 <= pair[0] <= pair[1] < n_vertices:
        return None
    keys = pairs[:, 0] * n_vertices + pairs[:, 1]
    key = pair[0] * n_vertices + pair[1]
    i = int(np.searchsorted(keys, key))
    return i if i < len(keys) and keys[i] == key else None


def _resolve_interior_edge(mesh, edge):
    """Map an interior edge index or a vertex pair to the edge index."""
    if isinstance(edge, (int, np.integer)):
        i = int(edge)
        if not 0 <= i < mesh.n_interior_edges:
            raise MeshError(
                "interior edge index %d out of range [0, %d)"
                % (i, mesh.n_interior_edges))
        return i
    pair = tuple(sorted(int(v) for v in edge))
    i = _find_pair(mesh.edge_vertices, mesh.n_vertices, pair)
    if i is not None:
        return i
    if _find_pair(mesh.bedge_vertices, mesh.n_vertices, pair) is not None:
        raise MeshError(
            "edge %r is a boundary edge; it has no neighbor pair" % (pair,))
    raise MeshError("no edge with vertex pair %r" % (pair,))


def build_structured_mesh(pattern, n, domain=(-0.5, 0.5, -0.5, 0.5)):
    """Build one of the two structured mesh families on a rectangle.

    Parameters
    ----------
    pattern : {"mesh1", "mesh2"}
        ``mesh1`` splits each square in two (alternating diagonals),
        ``mesh2`` in four (criss-cross).
    n : int
        Number of squares along the x direction.  The square side is
        ``l = width / n``; the rectangle height must be a whole multiple
        of ``l``.  ``mesh1`` requires an even square count in both
        directions because its diagonal pattern tiles in 2x2 blocks.
    domain : (xmin, xmax, ymin, ymax)
        Axis-aligned rectangle, default the unit square centered at the
        origin.

    Returns
    -------
    TriMesh
    """
    pattern = _normalize_pattern(pattern)
    xmin, xmax, ymin, ymax = (float(c) for c in domain)
    if not (xmax > xmin and ymax > ymin):
        raise MeshError("degenerate domain: %r" % (domain,))
    n = int(n)
    if n < 1:
        raise MeshError("need at least one square per side, got n=%d" % n)
    side = (xmax - xmin) / n
    ny_exact = (ymax - ymin) / side
    ny = int(round(ny_exact))
    if ny < 1 or abs(ny_exact - ny) > 1e-9 * max(ny, 1):
        raise MeshError(
            "domain of aspect %g cannot be tiled by squares of side %g"
            % ((ymax - ymin) / (xmax - xmin), side))
    if pattern == MESH1 and (n % 2 or ny % 2):
        raise MeshError(
            "mesh1 tiles in 2x2 blocks of squares and needs an even square "
            "count per side, got %dx%d" % (n, ny))

    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack((gx.ravel(), gy.ravel()))

    def g(i, j):
        return j * (n + 1) + i

    tris = []
    if pattern == MESH1:
        for j in range(ny):
            for i in range(n):
                v00, v10 = g(i, j), g(i + 1, j)
                v01, v11 = g(i, j + 1), g(i + 1, j + 1)
                if (i + j) % 2 == 0:
                    # southwest-northeast diagonal
                    tris += [(v00, v10, v11), (v00, v11, v01)]
                else:
                    # northwest-southeast diagonal
                    tris += [(v00, v10, v01), (v10, v11, v01)]
    else:
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        ccx, ccy = np.meshgrid(cx, cy)
        centers = np.column_stack((ccx.ravel(), ccy.ravel()))
        base = len(vertices)
        vertices = np.vstack((vertices, centers))
        for j in range(ny):
            for i in range(n):
                v00, v10 = g(i, j), g(i + 1, j)
                v01, v11 = g(i, j + 1), g(i + 1, j + 1)
                c = base + j * n + i
                tris += [(v00, v10, c), (v10, v11, c),
                         (v11, v01, c), (v01, v00, c)]

    return TriMesh(vertices, np.array(tris), pattern=pattern, square_side=side)


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


def edge_distance(mesh, edge):
    """Distance between the barycenters of the two cells sharing an edge.

    ``edge`` is either an interior edge index or a vertex pair.  Asking
    for a boundary edge raises ``MeshError``.
    """
    return float(mesh.edge_dists[_resolve_interior_edge(mesh, edge)])


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


def verify_hypotheses(mesh, tol=HYPOTHESIS_TOL):
    """Check barycenter-segment orthogonality and acuteness of a mesh.

    Returns a ``HypothesesReport`` with per-check booleans and the worst
    numeric violation of each check.  Meshes from
    ``build_structured_mesh`` pass both checks.
    """
    if mesh.n_interior_edges:
        verts = mesh.vertices
        tang = verts[mesh.edge_vertices[:, 1]] - verts[mesh.edge_vertices[:, 0]]
        tang /= mesh.edge_lengths[:, None]
        dvec = (mesh.barycenters[mesh.edge_cells[:, 1]]
                - mesh.barycenters[mesh.edge_cells[:, 0]])
        ortho = float(np.max(np.abs(np.einsum("ij,ij->i", tang, dvec))
                             / mesh.edge_dists))
    else:
        ortho = 0.0

    p = mesh.vertices[mesh.triangles]
    worst = 0.0
    for a in range(3):
        u = p[:, (a + 1) % 3] - p[:, a]
        w = p[:, (a + 2) % 3] - p[:, a]
        cosang = (np.einsum("ij,ij->i", u, w)
                  / (np.hypot(u[:, 0], u[:, 1]) * np.hypot(w[:, 0], w[:, 1])))
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        worst = max(worst, float(ang.max()))
    angle_excess = max(worst - 0.5 * np.pi, 0.0)

    return HypothesesReport(
        orthogonality_ok=ortho <= tol,
        acute_ok=angle_excess <= tol,
        orthogonality_violation=ortho,
        angle_violation=angle_excess,
    )


def dump_mesh(mesh, target):
    """Write a plain-text mesh dump for debugging.

    Format: a header line, then ``vertices <nv>`` followed by one
    ``x y`` line per vertex, ``triangles <nt>`` with ``a b c`` lines,
    ``interior_edges <ne>`` with ``a b K L |e| nx ny D`` lines and
    ``boundary_edges <nb>`` with ``a b K |e| nx ny`` lines.

    ``target`` may be a path or an open text file.
    """
    if hasattr(target, "write"):
        _write_dump(mesh, target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _write_dump(mesh, fh)


def _write_dump(mesh, fh):
    fh.write("# triangular mesh dump\n")
    fh.write("pattern %s\n" % (mesh.pattern or "custom"))
    fh.write("square_side %s\n"
             % ("none" if mesh.square_side is None else repr(mesh.square_side)))
    fh.write("vertices %d\n" % mesh.n_vertices)
    for x, y in mesh.vertices:
        fh.write("%.17g %.17g\n" % (x, y))
    fh.write("triangles %d\n" % mesh.n_cells)
    for a, b, c in mesh.triangles:
        fh.write("%d %d %d\n" % (a, b, c))
    fh.write("interior_edges %d\n" % mesh.n_interior_edges)
    for i in range(mesh.n_interior_edges):
        a, b = mesh.edge_vertices[i]
        k, l = mesh.edge_cells[i]
        nx, ny = mesh.edge_normals[i]
        fh.write("%d %d %d %d %.17g %.17g %.17g %.17g\n"
                 % (a, b, k, l, mesh.edge_lengths[i], nx, ny,
                    mesh.edge_dists[i]))
    fh.write("boundary_edges %d\n" % mesh.n_boundary_edges)
    for i in range(mesh.n_boundary_edges):
        a, b = mesh.bedge_vertices[i]
        nx, ny = mesh.bedge_normals[i]
        fh.write("%d %d %d %.17g %.17g %.17g\n"
                 % (a, b, mesh.bedge_cell[i], mesh.bedge_lengths[i], nx, ny))
