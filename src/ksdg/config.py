"""Run configuration: file format, experiment presets, initial conditions.

A run is described by a UTF-8 text file of ``key = value`` lines grouped
in bracketed sections (``#`` starts a comment); ``_SCHEMA`` lists every
``[section] key`` and the README shows an annotated example.  All keys
are optional.  Unknown sections or keys, repeated keys, malformed values
and violated invariants raise ``ConfigError`` carrying the line of the
offending key.  A preset fills in the experiment defaults (time stepping,
initial data, snapshot times); explicit keys override it.  Unset values
fall back to the model defaults (all rate constants 1, ``tau = 1``,
``eps = 1e-10``, the unit square centered at the origin).

Initial data are sums of closed-form terms:

* ``gaussian(A, d, x0, y0)``: ``A * exp(-d * ((x-x0)^2 + (y-y0)^2))``
* ``coscos(A, k)``: ``A * (cos(k*pi*x) * cos(k*pi*y) + 1)``
* ``sinsin(A, k)``: ``A * (sin(k*pi*x) * sin(k*pi*y) + 1)``
* ``zero``: the empty sum

Cell densities sample the formula at triangle barycenters (piecewise
constant interpolation); vertex fields sample at the vertices.
"""

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import ModelParams
from .mesh import MeshError, build_structured_mesh, square_tiling

PRESET_NAMES = ("one_bulge", "three_bulges", "multi_peak")


class ConfigError(ValueError):
    """Malformed configuration text; ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


# -- initial-condition terms -----------------------------------------------

@dataclass(frozen=True)
class GaussianTerm:
    amplitude: float
    decay: float
    x0: float
    y0: float

    def __call__(self, x, y):
        return self.amplitude * np.exp(
            -self.decay * ((x - self.x0) ** 2 + (y - self.y0) ** 2))

    def format(self):
        return "gaussian(%.17g, %.17g, %.17g, %.17g)" % (
            self.amplitude, self.decay, self.x0, self.y0)


@dataclass(frozen=True)
class CosCosTerm:
    amplitude: float
    frequency: float

    def __call__(self, x, y):
        k = self.frequency * np.pi
        return self.amplitude * (np.cos(k * x) * np.cos(k * y) + 1.0)

    def format(self):
        return "coscos(%.17g, %.17g)" % (self.amplitude, self.frequency)


@dataclass(frozen=True)
class SinSinTerm:
    amplitude: float
    frequency: float

    def __call__(self, x, y):
        k = self.frequency * np.pi
        return self.amplitude * (np.sin(k * x) * np.sin(k * y) + 1.0)

    def format(self):
        return "sinsin(%.17g, %.17g)" % (self.amplitude, self.frequency)


_TERM_KINDS = {"gaussian": (GaussianTerm, 4),
               "coscos": (CosCosTerm, 2),
               "sinsin": (SinSinTerm, 2)}

_TERM_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^()]*)\)\s*$")


def parse_terms(text, line=None):
    """Parse an initial-condition expression into a tuple of terms."""
    text = text.strip()
    if text == "zero" or text == "":
        return ()
    terms = []
    # a "+" inside parentheses belongs to a number such as 1e+20
    for piece in re.split(r"(?<=\))\s*\+", text):
        m = _TERM_RE.match(piece)
        if not m:
            raise ConfigError("cannot parse initial-condition term %r"
                              % piece.strip(), line)
        name, argtext = m.group(1), m.group(2)
        if name not in _TERM_KINDS:
            raise ConfigError("unknown initial-condition term %r (expected "
                              "gaussian, coscos or sinsin)" % name, line)
        cls, argc = _TERM_KINDS[name]
        args = [a for a in (t.strip() for t in argtext.split(",")) if a]
        if len(args) != argc:
            raise ConfigError("%s takes %d arguments, got %d"
                              % (name, argc, len(args)), line)
        try:
            values = [float(a) for a in args]
        except ValueError:
            raise ConfigError("non-numeric argument in %r" % piece.strip(),
                              line) from None
        terms.append(cls(*values))
    return tuple(terms)


def format_terms(terms):
    """Text that ``parse_terms`` reads back as ``terms``."""
    if not terms:
        return "zero"
    return " + ".join(t.format() for t in terms)


def evaluate_terms(terms, x, y):
    """Sum of terms at given coordinates (vectorized)."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(np.broadcast(x, np.asarray(y)).shape)
    for t in terms:
        total = total + t(x, y)
    return total


# -- presets ----------------------------------------------------------------

_PRESETS = {
    "one_bulge": dict(
        tau=1, dt=1e-6, t_end=1e-4,
        u0=(GaussianTerm(1000.0, 100.0, 0.0, 0.0),),
        v0=(GaussianTerm(500.0, 50.0, 0.0, 0.0),),
        snapshot_times=(0.0, 4.4e-5, 1e-4),
        describe="single centered cell bulge that collapses in finite time",
    ),
    "three_bulges": dict(
        tau=0, dt=1e-5, t_end=1e-2,
        u0=(GaussianTerm(900.0, 100.0, 0.2, 0.0),
            GaussianTerm(800.0, 100.0, 0.0, 0.2),
            GaussianTerm(1000.0, 100.0, 0.3, 0.3)),
        v0=(),
        snapshot_times=(0.0, 2e-3, 4e-3, 6e-3, 8e-3, 1e-2),
        describe="three merging bulges drifting toward a corner "
                 "(elliptic chemoattractant)",
    ),
    "multi_peak": dict(
        tau=1, dt=1e-7, t_end=1e-4,
        u0=(CosCosTerm(1000.0, 2.0),),
        v0=(SinSinTerm(500.0, 3.0),),
        snapshot_times=(0.0, 5e-5, 1e-4),
        describe="trigonometric initial data collapsing into several peaks",
    ),
}

assert tuple(_PRESETS) == PRESET_NAMES


def preset_description(name):
    return _PRESETS[name]["describe"]


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run."""

    pattern: str = "mesh1"
    n: int = 64
    domain: tuple = (-0.5, 0.5, -0.5, 0.5)
    params: ModelParams = field(default_factory=ModelParams)
    preset: str = None
    u0_terms: tuple = ()
    v0_terms: tuple = ()
    csv_path: str = None
    vtk_dir: str = None
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.pattern not in ("mesh1", "mesh2"):
            raise ConfigError("pattern must be 'mesh1' or 'mesh2', got %r"
                              % (self.pattern,))
        try:
            square_tiling(self.pattern, self.n, self.domain)
        except MeshError as exc:
            raise ConfigError(str(exc)) from None
        if self.preset is not None and self.preset not in PRESET_NAMES:
            raise ConfigError("unknown preset %r; choose from %s"
                              % (self.preset, ", ".join(PRESET_NAMES)))
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.params.t_end:
                raise ConfigError("snapshot time %g outside [0, t_end=%g]"
                                  % (t, self.params.t_end))
        # a path must survive a round trip through a config line
        for name in ("csv_path", "vtk_dir"):
            path = getattr(self, name)
            if path is not None and ("#" in path or path != path.strip()
                                     or len(path.splitlines()) > 1):
                raise ConfigError("%s must not contain '#' or line breaks "
                                  "nor start or end with whitespace, got %r"
                                  % (name, path))


def build_mesh(cfg):
    return build_structured_mesh(cfg.pattern, cfg.n, cfg.domain)


def _sample(u0_terms, v0_terms, mesh):
    # cell densities at barycenters, vertex fields at vertices
    u0 = evaluate_terms(u0_terms, mesh.barycenters[:, 0],
                        mesh.barycenters[:, 1])
    v0 = evaluate_terms(v0_terms, mesh.vertices[:, 0], mesh.vertices[:, 1])
    return u0, v0


def preset_initial_conditions(name, mesh):
    """Initial fields of a named preset on a given mesh.

    Returns ``(u0, v0)``: the density sampled at barycenters and the
    chemoattractant at vertices.  The ``three_bulges`` preset defines no
    chemoattractant data (its elliptic step never reads it); a zero field
    is returned with a warning.
    """
    RunConfig(preset=name)  # rejects an unknown name
    preset = _PRESETS[name]
    if not preset["v0"]:
        warnings.warn("preset %r defines no chemoattractant data; using a "
                      "zero field (the elliptic step never reads it)" % name)
    return _sample(preset["u0"], preset["v0"], mesh)


def initial_fields(cfg, mesh):
    """Sample the configured initial data on a mesh."""
    v0_terms = cfg.v0_terms
    if cfg.params.tau == 0:
        if v0_terms:
            warnings.warn("tau = 0: the chemoattractant history is never "
                          "read; ignoring the configured v0")
        v0_terms = ()
    return _sample(cfg.u0_terms, v0_terms, mesh)


# -- file format --------------------------------------------------------------

def _scalar(convert, noun):
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise ValueError("expects %s, got %r" % (noun, text)) from None
    return parse


_float = _scalar(float, "a number")
_int = _scalar(int, "an integer")


def _floats(text):
    return tuple(_float(part) for part in text.split())


def _domain(text):
    values = _floats(text)
    if len(values) != 4:
        raise ValueError("expects 4 numbers (xmin xmax ymin ymax)")
    return values


_g = "%.17g".__mod__
_d = "%d".__mod__


def _gs(values):
    return " ".join(map(_g, values))


#: Every key of the file format, in file order:
#: ``(section, key, owner, attribute, parse, format)``.  ``owner`` names
#: the ``RunConfig`` field holding the attribute (None: the RunConfig
#: itself); ``parse`` raises ``ValueError`` on malformed text.
_SCHEMA = (
    ("mesh", "pattern", None, "pattern", str.lower, str),
    ("mesh", "n", None, "n", _int, _d),
    ("mesh", "domain", None, "domain", _domain, _gs),
    ("params", "k0", "params", "k0", _float, _g),
    ("params", "k1", "params", "k1", _float, _g),
    ("params", "k2", "params", "k2", _float, _g),
    ("params", "k3", "params", "k3", _float, _g),
    ("params", "k4", "params", "k4", _float, _g),
    ("params", "tau", "params", "tau", _int, _d),
    ("params", "eps", "params", "eps", _float, _g),
    ("params", "dt", "params", "dt", _float, _g),
    ("params", "t_end", "params", "t_end", _float, _g),
    ("initial", "preset", None, "preset", str, str),
    ("initial", "u0", None, "u0_terms", parse_terms, format_terms),
    ("initial", "v0", None, "v0_terms", parse_terms, format_terms),
    ("output", "csv", None, "csv_path", str, str),
    ("output", "vtk_dir", None, "vtk_dir", str, str),
    ("output", "snapshot_times", None, "snapshot_times", _floats, _gs),
)

_ROWS = {(row[0], row[1]): row for row in _SCHEMA}


def _scan(text):
    """Yield (schema row, value text, line) per key; syntax errors only."""
    section = None
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if not any(s == section for s, _ in _ROWS):
                raise ConfigError("unknown section [%s]" % section, lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value', got %r" % raw.strip(),
                              lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if (section, key) not in _ROWS:
            raise ConfigError("unknown key %r in section [%s]"
                              % (key, section), lineno)
        if (section, key) in seen:
            raise ConfigError("repeated key %r in section [%s] (first set on "
                              "line %d)" % (key, section, seen[section, key]),
                              lineno)
        seen[section, key] = lineno
        yield _ROWS[section, key], value, lineno


def _build(cls, base, given):
    """``cls(**base)`` with the ``(attribute, value, line)`` triples of
    ``given`` applied.  If the class rejects them, ``ConfigError`` names
    the line of the first value after the longest accepted prefix of
    ``given`` (in file order)."""
    # A check that reads several fields (the step count, the mesh tiling)
    # can reject a prefix that a later line completes, so the search runs
    # back from the complete set rather than forward.
    error = None
    for end in range(len(given), -1, -1):
        try:
            built = cls(**dict(base, **{a: v for a, v, _ in given[:end]}))
        except ValueError as exc:
            error = exc
            continue
        if error is None:
            return built
        raise ConfigError(str(error), given[end][2]) from None
    raise ConfigError(str(error)) from None


def load_config(text):
    """Parse configuration text into a validated ``RunConfig``."""
    given = {None: [], "params": []}
    for (_, key, owner, attr, parse, _), value, line in _scan(text):
        try:
            given[owner].append((attr, parse(value), line))
        except ValueError as exc:
            raise ConfigError("%s: %s" % (key, exc), line) from None

    # a preset supplies defaults for the schema keys it names
    preset = dict((a, v) for a, v, _ in given[None]).get("preset")
    defaults = _PRESETS.get(preset, {})
    base = {owner: {} for owner in given}
    for _, key, owner, attr, _, _ in _SCHEMA:
        if key in defaults:
            base[owner][attr] = defaults[key]
    params = _build(ModelParams, base["params"], given["params"])
    # preset snapshot times adapt to an overridden horizon
    base[None]["snapshot_times"] = tuple(
        t for t in base[None].get("snapshot_times", ()) if t <= params.t_end)
    return _build(RunConfig, dict(base[None], params=params),
                  given[None])


def dumps_config(cfg):
    """Serialize a RunConfig; ``load_config`` of the result reproduces it."""
    lines = []
    section = None
    for sec, key, owner, attr, _, fmt in _SCHEMA:
        value = getattr(getattr(cfg, owner) if owner else cfg, attr)
        if value is None:
            continue
        if sec != section:
            lines += ["", "[%s]" % sec] if lines else ["[%s]" % sec]
            section = sec
        lines.append("%s = %s" % (key, fmt(value)))
    return "\n".join(lines) + "\n"
