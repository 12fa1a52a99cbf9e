"""Diagnostics CSV, legacy-format VTK snapshots and the plain-text mesh dump.

Every reader and writer here takes a file path.  Each section of a file
is a line template with ``%.17g`` and ``%d`` fields repeated over the
rows of some arrays; ``_write_rows`` formats it in blocks of
``CHUNK_ROWS`` rows with numpy and writes the bytes ``%`` would write
line by line.

The CSV schema is fixed by one column table: the header is exactly
``CSV_HEADER`` and every float is written with 17 significant digits, so
reloading reproduces the floating-point values bit for bit.

Snapshots use the legacy ASCII VTK unstructured-grid format so files can
be opened by standard viewers and diffed as text.  Points are the mesh
vertices, cells the triangles; the file carries the cell density both as
cell data (``u_p0``, the native representation) and as point data
(``u_p1``, the positivity-preserving lumped vertex average used for
plotting), plus the chemoattractant ``v`` as point data.  The mesh
sections of the last mesh written are kept, so a run formats its mesh
once.

The mesh dump lists the vertices, triangles and the interior and
boundary edge data with their normals, lengths and barycenter distances
(see ``dump_mesh``); it is meant for debugging connectivity by eye.
"""

import functools
import io
import re

import numpy as np

from .fields import (_check_cellfield, _check_nodefield,
                     project_p0_to_p1_lumped)

#: Rows formatted as one block, which bounds the arrays alive at once.
#: On a mesh2 n=128 snapshot, 16384 rows or one block per section format
#: 10% faster and 2048 rows 15% slower; the peak RSS of a 3-step run
#: stays within its 1 MB spread from run to run (2-vCPU Xeon).
CHUNK_ROWS = 4096

#: Diagnostics CSV columns in file order, with the type of each value.
_CSV_COLUMNS = (
    ("step", int), ("time", float), ("mass", float), ("min_u", float),
    ("max_u", float), ("min_v", float), ("max_v", float), ("E", float),
    ("E_eps", float), ("energy_law_lhs", float), ("newton_iters", int),
    ("newton_residual", float),
)

CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)

_CSV_LINE = ",".join("%d" if kind is int else "%.17g"
                     for _, kind in _CSV_COLUMNS) + "\n"


# -- block formatting ---------------------------------------------------------
#
# A block is laid out as an array with one row per line, in 4-byte units:
# the template's literal text, and for each field enough units for any of
# its values, NUL where a value's text is shorter.  One
# ``bytes.translate`` drops the NULs.  Digits come four at a time, by
# integer division by 10**4 and a table of units.  A ``%.17g`` value gets
# its 17 correctly rounded digits as the integer nearest to
# |x| * 10**(16 - X), X its decimal exponent, from an exact double-double
# product with a table of powers of ten (Dekker, Numer. Math. 18, 1971).
# ``%`` formats in place the few values that this cannot decide:
# non-finite values, subnormals (beyond the table), and products within
# their error bound of a rounding tie or of a decade boundary.

_FIELD = re.compile(r"%(\.17g|d)")

#: The decimal exponents X of the normal doubles; the table holds 10**k
#: for the scales k = 16 - X that bring their 17 digits before the point.
_X_MIN, _X_MAX = -308, 308
_K_MIN = 16 - _X_MAX


@functools.cache
def _ten_powers():
    """``10**k = (hi + lo) * 2**shift`` for ``k`` from ``_K_MIN`` to
    ``16 - _X_MIN``: ``hi`` a 53-bit integer, with ``top`` its nearest
    multiple of 2**27 (26 bits), and ``lo`` in [0, 1).

    ``hi + lo`` is ``10**k / 2**shift`` truncated to 128 bits, then ``lo``
    rounded to a double, so it is within 2**-53 + 2**-75 of it.  ``tol``
    is the bound ``_scaled`` uses: 0 where 10**k is a double (k from 0 to
    22), which makes its product exact.  Built at first use.
    """
    ints, shifts = [], []
    q = 10 ** -_K_MIN
    while q > 1:                            # k < 0: 2**n // 10**-k
        n = 127 + q.bit_length()
        ints.append((1 << n) // q)
        shifts.append(-n)
        q //= 10
    p = 1
    for _ in range(17 - _X_MIN):            # k >= 0
        s = p.bit_length() - 128
        ints.append(p >> s if s >= 0 else p << -s)
        shifts.append(s)
        p *= 10
    hi = np.array([f >> 75 for f in ints], dtype=np.float64)
    lo = np.ldexp(np.array([f & ((1 << 75) - 1) for f in ints],
                           dtype=np.float64), -75)
    top = np.rint(hi * 2.0 ** -27) * 2.0 ** 27
    k = np.arange(_K_MIN, 17 - _X_MIN)
    tol = np.where((k >= 0) & (k <= 22), 0.0, 2.0 ** -40)
    return hi, top, lo, np.array(shifts, dtype=np.int32) + 75, tol


def _scaled(mant, exp2, dec):
    """``mant * 2**(exp2 - 53) * 10**(16 - dec)`` as the unevaluated sum
    ``hi + lo`` of two doubles, and the bound ``tol`` of its error.

    ``mant`` are integers in [2**52, 2**53).  Dekker's product splits
    ``mant * hi_k`` exactly into two doubles; adding ``mant * lo_k``, with
    the table's own error, leaves an error below 2**-103 of the product:
    under 2**-46 while the product is below 2**57, which ``tol`` = 2**-40
    bounds with room to spare.
    """
    i = 16 - _K_MIN - dec
    ten_hi, ten_top, ten_lo, ten_shift, ten_tol = (
        column[i] for column in _ten_powers())
    ten_bot = ten_hi - ten_top
    top = np.rint(mant * 2.0 ** -27) * 2.0 ** 27
    bot = mant - top
    hi = mant * ten_hi
    lo = ((((top * ten_top - hi) + top * ten_bot + bot * ten_top)
           + bot * ten_bot) + mant * ten_lo)
    shift = exp2 - 53 + ten_shift
    return np.ldexp(hi, shift), np.ldexp(lo, shift), ten_tol


def _g17_digits(values):
    """The 17 significant digits of ``"%.17g" % x`` for each of ``values``
    as one integer (0 for a zero), the decimal exponent of the first, and
    the indices of the values this cannot decide (their digits read 0)."""
    a = np.abs(values)
    zero = a == 0
    normal = (a >= 2.2250738585072014e-308) & (a <= 1.7976931348623157e308)
    a = np.where(normal, a, 1.0)
    dec = np.floor(np.log10(a)).astype(np.int64)
    mant, exp2 = np.frexp(a)
    mant *= 2.0 ** 53
    hi, lo, tol = _scaled(mant, exp2, dec)
    # log10 can miss the decade by one next to a power of ten
    miss = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
    redo = np.flatnonzero(miss)
    if len(redo):
        dec[redo] += miss[redo]
        hi[redo], lo[redo], tol[redo] = _scaled(mant[redo], exp2[redo],
                                               dec[redo])
    lo_int = np.floor(lo)
    lo_frac = lo - lo_int
    undecided = (~(normal | zero)
                 | (np.abs(lo_frac - 0.5) <= tol)   # a tie, or too near one
                 | ((hi - 1e16) + lo < tol) | ((hi - 1e17) + lo >= -tol))
    digits = hi.astype(np.int64) + lo_int.astype(np.int64) + (lo_frac > 0.5)
    up = digits == 10 ** 17                 # rounded up into the next decade
    digits[up] = 10 ** 16
    dec += up
    digits[zero | undecided] = 0
    dec[zero | undecided] = 0
    return digits, dec, np.flatnonzero(undecided)


def _units(text):
    """``text`` as 4-byte units, NUL-padded."""
    data = text.encode("ascii")
    return np.frombuffer(data + b"\0" * (-len(data) % 4), np.uint32)


@functools.cache
def _quads():
    """Units of four digits, ``_quads()[v + 10**4 * kind]`` for ``v``
    below 10**4; by ``kind``: ``_FULL`` all four, ``_LEAD`` without
    leading zeros (nothing for 0), ``_UNITS`` the same but "0" for 0,
    ``_TRAIL`` without trailing zeros, ``_EXP`` at least two digits.
    Built at first use."""
    v = np.arange(100)
    tens, ones = v // 10 + 48, v % 10 + 48

    def pairs(first, second):
        return np.stack([first, second], axis=-1).astype(np.uint8).view(
            np.uint16)[..., 0]

    full = pairs(tens, ones)
    lead = pairs(np.where(v >= 10, tens, 0), np.where(v > 0, ones, 0))
    units = lead.copy()
    units[0] = pairs(0, 48)                             # "0" for 0
    trail = pairs(np.where(v > 0, tens, 0), np.where(v % 10 > 0, ones, 0))
    high, low = v[:, None], v[None, :]                  # v = 100 high + low

    def quads(first, second):
        return np.stack(np.broadcast_arrays(first, second), axis=-1).view(
            np.uint32).reshape(-1)

    return np.concatenate([
        quads(full[high], full[low]),
        quads(lead[high], np.where(high > 0, full[low], lead[low])),
        quads(lead[high], np.where(high > 0, full[low], units[low])),
        quads(np.where(low > 0, full[high], trail[high]), trail[low]),
        quads(lead[high], full[low]),
    ])


_FULL, _LEAD, _UNITS, _TRAIL, _EXP = range(5)
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_MINUS, _POINT, _E_PLUS, _E_MINUS = (_units(t)[0]
                                     for t in ("-", ".", "e+", "e-"))
#: After "0." of a ``%.17g`` value below 1: its zeros, then its first
#: digit, ``[10 * zeros + digit]``.
_ZEROS_DIGIT = np.array([_units("0" * z + str(d))[0]
                         for z in range(4) for d in range(10)])


def _int_units(values):
    """How many units the decimal text of ``values`` (>= 0) needs."""
    return len(str(int(values.max()))) + 3 >> 2


def _lay_int(units, values):
    """Lay the decimal text of ``values`` (>= 0) into ``units``,
    right-aligned, NUL before the first digit."""
    quads, kind = _quads(), _UNITS
    for i in range(units.shape[1] - 1, -1, -1):
        rest = values // 10 ** 4
        low = (values - rest * 10 ** 4).astype(np.intp)
        units[:, i] = quads[low + np.where(rest > 0, 0, 10 ** 4 * kind)]
        values = rest
        kind = _LEAD


def _g17_units(values):
    """``"%.17g" % x`` for each of ``values`` as rows of units, NUL where
    unused: sign, integer part, point, zeros and the first digit of a
    value below 1, fraction, exponent."""
    digits, dec, undecided = _g17_digits(values)
    fixed = (dec >= -4) & (dec < 17)        # else %g writes an exponent
    below_one = fixed & (dec < 0)
    # 16 digits after the point, but no more than the integer part leaves
    frac_len = np.where(fixed & (dec >= 0), 16 - dec, 16)
    scale = _POW10[frac_len]
    head = digits // scale          # the integer part; below 1, 1st digit
    frac = digits - head * scale
    whole = np.where(below_one, 0, head)
    frac_units = int(frac_len.max()) + 3 >> 2
    frac *= _POW10[4 * frac_units - frac_len]   # left-aligned
    negative = np.signbit(values)
    sci = np.flatnonzero(~fixed)
    sign, int_units, zeros = (int(negative.any()), _int_units(whole),
                              int(below_one.any()))
    fallback = [("%.17g" % values[i]).encode("ascii") for i in undecided]
    width = sign + int_units + 1 + zeros + frac_units + 2 * (len(sci) > 0)
    units = np.zeros((len(values), max(
        width, max(map(len, fallback), default=0) + 3 >> 2)), np.uint32)
    if sign:
        units[:, 0] = np.where(negative, _MINUS, 0)
    at = sign + int_units
    _lay_int(units[:, sign:at], whole)
    units[:, at] = np.where((frac > 0) | below_one, _POINT, 0)
    at += 1
    if zeros:
        units[:, at] = np.where(below_one, _ZEROS_DIGIT[
            np.where(below_one, (-1 - dec) * 10 + head, 0)], 0)
        at += 1
    quads = _quads()
    kind = np.full(len(values), 10 ** 4 * _TRAIL)
    for i in range(at + frac_units - 1, at - 1, -1):
        rest = frac // 10 ** 4
        low = frac - rest * 10 ** 4
        units[:, i] = quads[low + kind]
        kind *= low == 0            # trailing zeros end at a nonzero digit
        frac = rest
    at += frac_units
    if len(sci):
        units[sci, at] = np.where(dec[sci] < 0, _E_MINUS, _E_PLUS)
        units[sci, at + 1] = quads[np.abs(dec[sci]) + 10 ** 4 * _EXP]
    text = units.view(np.uint8)
    for i, value in zip(undecided, fallback):
        text[i] = 0
        text[i, :len(value)] = np.frombuffer(value, np.uint8)
    return units


def _d_units(values):
    """``"%d" % v`` for each of ``values`` as rows of units, NUL where
    unused."""
    negative = values < 0
    mag = values.view(np.uint64)
    mag = np.where(negative, -mag, mag)     # |int64 min| too
    sign = int(negative.any())
    units = np.zeros((len(values), sign + _int_units(mag)), np.uint32)
    if sign:
        units[:, 0] = np.where(negative, _MINUS, 0)
    _lay_int(units[:, sign:], mag)
    return units


_KINDS = {".17g": (np.float64, _g17_units), "d": (np.int64, _d_units)}


def _write_rows(fh, line, *columns):
    """Write ``line % row`` for every row of ``columns`` placed side by side.

    ``columns`` are arrays with one row per leading index.  Each field of
    ``line`` is ``%.17g`` or ``%d``; its values are written as ``%`` writes
    them once converted to float64 or int64.  The text of each block of
    ``CHUNK_ROWS`` rows is written at once.
    """
    pieces = _FIELD.split(line)
    literals = [_units(text) for text in pieces[::2]]
    kinds = [_KINDS[kind] for kind in pieces[1::2]]
    fields = []
    for column in map(np.asarray, columns):
        fields.extend([column] if column.ndim == 1 else column.T)
    fields = [field.astype(dtype, copy=False)
              for (dtype, _), field in zip(kinds, fields)]
    for start in range(0, len(fields[0]), CHUNK_ROWS):
        block = [field[start:start + CHUNK_ROWS] for field in fields]
        n = len(block[0])
        parts = [np.broadcast_to(literals[0], (n, len(literals[0])))]
        for (_, units), field, literal in zip(kinds, block, literals[1:]):
            parts += [units(field),
                      np.broadcast_to(literal, (n, len(literal)))]
        fh.write(np.concatenate(parts, axis=1).tobytes()
                 .translate(None, b"\0").decode("ascii"))


@functools.lru_cache(maxsize=1)
def _mesh_text(mesh):
    """The POINTS, CELLS and CELL_TYPES sections of a snapshot of ``mesh``.

    Kept for the last mesh, which stays alive until another is written: a
    ``TriMesh`` has read-only arrays and hashes by identity, so its text
    cannot go stale.
    """
    buf = io.StringIO()
    buf.write("POINTS %d double\n" % mesh.n_vertices)
    _write_rows(buf, "%.17g %.17g 0\n", mesh.vertices)
    buf.write("CELLS %d %d\n" % (mesh.n_cells, 4 * mesh.n_cells))
    _write_rows(buf, "3 %d %d %d\n", mesh.triangles)
    buf.write("CELL_TYPES %d\n" % mesh.n_cells + "5\n" * mesh.n_cells)
    return buf.getvalue()


def write_diagnostics_csv(rows, path):
    """Write diagnostics rows to the CSV file at ``path``."""
    table = np.array([[getattr(row, name) for name, _ in _CSV_COLUMNS]
                      for row in rows], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, _CSV_LINE, table)


def read_diagnostics_csv(path):
    """Read a diagnostics CSV back into ``DiagnosticsRow`` objects."""
    from .simulation import DiagnosticsRow

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a diagnostics CSV (unexpected header)")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise ValueError("malformed diagnostics row: %r" % line)
        rows.append(DiagnosticsRow(**{name: kind(text) for (name, kind), text
                                      in zip(_CSV_COLUMNS, parts)}))
    return rows


#: The line breaks of ``str.splitlines``; each becomes a space in a title.
_TITLE_BREAKS = dict.fromkeys(
    map(ord, "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"), " ")


def write_vtk_snapshot(mesh, u, v, path, title="snapshot"):
    """Write one legacy ASCII VTK snapshot of a state to ``path``.

    ``u`` is a cell field, ``v`` a vertex field.  See the module
    docstring for the arrays carried by the file.  ``title`` is the
    file's second line, with each line break written as a space; the
    format's header line holds 256 bytes, so a title of more than 255
    bytes in UTF-8 raises ``ValueError``.  The file is complete when this
    returns.
    """
    u = _check_cellfield(mesh, u, "u")
    v = _check_nodefield(mesh, v, "v")
    title = title.translate(_TITLE_BREAKS)
    if len(title.encode("utf-8")) > 255:
        raise ValueError("snapshot title longer than 255 bytes")
    u_p1 = project_p0_to_p1_lumped(mesh, u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n%s\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n" % title)
        fh.write(_mesh_text(mesh))
        fh.write("POINT_DATA %d\nSCALARS u_p1 double\nLOOKUP_TABLE default\n"
                 % mesh.n_vertices)
        _write_rows(fh, "%.17g\n", u_p1)
        fh.write("SCALARS v double\nLOOKUP_TABLE default\n")
        _write_rows(fh, "%.17g\n", v)
        fh.write("CELL_DATA %d\nSCALARS u_p0 double\nLOOKUP_TABLE default\n"
                 % mesh.n_cells)
        _write_rows(fh, "%.17g\n", u)


def dump_mesh(mesh, path):
    """Write a plain-text mesh dump for debugging to ``path``.

    Format: a header line, then ``vertices <nv>`` followed by one
    ``x y`` line per vertex, ``triangles <nt>`` with ``a b c`` lines,
    ``interior_edges <ne>`` with ``a b K L |e| nx ny D`` lines and
    ``boundary_edges <nb>`` with ``a b K |e| nx ny`` lines.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# triangular mesh dump\npattern %s\nsquare_side %s\n"
                 "vertices %d\n"
                 % (mesh.pattern or "custom",
                    "none" if mesh.square_side is None
                    else repr(mesh.square_side), mesh.n_vertices))
        _write_rows(fh, "%.17g %.17g\n", mesh.vertices)
        fh.write("triangles %d\n" % mesh.n_cells)
        _write_rows(fh, "%d %d %d\n", mesh.triangles)
        fh.write("interior_edges %d\n" % mesh.n_interior_edges)
        _write_rows(fh, "%d %d %d %d %.17g %.17g %.17g %.17g\n",
                    mesh.edge_vertices, mesh.edge_cells, mesh.edge_lengths,
                    mesh.edge_normals, mesh.edge_dists)
        fh.write("boundary_edges %d\n" % mesh.n_boundary_edges)
        _write_rows(fh, "%d %d %d %.17g %.17g %.17g\n",
                    mesh.bedge_vertices, mesh.bedge_cell,
                    mesh.bedge_lengths, mesh.bedge_normals)
