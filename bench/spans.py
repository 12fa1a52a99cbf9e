"""Outside-in layer spans: wrap ksdg's functions where the run looks them up.

Each wrapped call records a span ``[name, start, end, parent]`` in an
in-memory list; ``layer_metrics`` reduces the list once the run is over.
A span's self time is its duration minus the time its child spans cover,
so nested calls (``energy_law_lhs`` calling ``energy_eps``, ``splu``
under ``solve_u_step``) are counted once.

The wrappers replace module attributes at the place the caller resolves
them: ``ksdg.simulation`` imported the step and energy functions by name,
``ksdg.cli`` imported ``load_config``, ``ksdg.config`` imported
``build_structured_mesh``, and output is reached as
``ksdg.simulation._output``.  ``scipy.sparse.linalg`` solver entry points
are resolved at call time; a solver span is charged to the layer of its
parent span.
"""

import functools
import time

#: scipy.sparse.linalg entry points whose self time is a layer's
#: ``factor_s`` (direct factorizations and the Krylov solvers that could
#: replace them).
SOLVER_ENTRY_POINTS = ("splu", "spilu", "spsolve", "factorized", "cg",
                       "bicgstab", "gmres", "lgmres", "minres", "cgs", "qmr",
                       "gcrotmk", "tfqmr")

#: Span name -> metric that receives its self time.
SELF_TIME_METRIC = {
    "cli": "unattributed_s",
    "config.load": "config.s",
    "config.initial_fields": "config.s",
    "mesh.build": "mesh.build_s",
    "vstep.assemble": "vstep.assemble_s",
    "vstep.solve": "vstep.solve_s",
    "ustep.solve": "ustep.other_s",
    "simulation.step": "simulation.loop_s",
    "simulation.energy": "simulation.energy_s",
    "simulation.energy_eps": "simulation.energy_s",
    "simulation.energy_law_lhs": "simulation.energy_s",
    "output.vtk": "output.vtk_s",
    "output.csv": "output.csv_s",
}

#: Span name -> metric that counts its calls.
CALL_COUNT_METRIC = {
    "vstep.solve": "vstep.solves",
    "ustep.solve": "ustep.calls",
    "simulation.energy_eps": "simulation.energy_eps_calls",
}

#: Name of the spans that time the benchmark's own bookkeeping (reading
#: the L+U size of a factor).  They belong to no layer, so their cost
#: shows only in the traced wall time.
MEASURE = "bench.measure"


class Tracer:
    """Span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans = []
        self.notes = {}
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a traced call.

        ``note(result)``, when given, runs outside the span under a
        ``MEASURE`` span and its value is kept in ``notes``.
        """
        func = getattr(owner, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close()
            if note is not None:
                self.open(MEASURE)
                try:
                    self.notes[index] = note(result)
                finally:
                    self.close()
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr, name):
        """Replace a generator function; each resumption is one span."""
        func = getattr(owner, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            gen = func(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield item

        setattr(owner, attr, traced)


def _lu_nnz(factor):
    # L carries its unit diagonal explicitly, U the pivots
    if hasattr(factor, "L"):
        return int(factor.L.nnz + factor.U.nnz)
    return None


def install(tracer):
    """Wrap every layer boundary of a ``ksdg run`` with ``tracer``."""
    import scipy.sparse.linalg as spla

    import ksdg.cli
    import ksdg.config
    import ksdg.simulation as sim

    tracer.wrap(ksdg.cli, "load_config", "config.load")
    tracer.wrap(ksdg.config, "initial_fields", "config.initial_fields")
    tracer.wrap(ksdg.config, "build_structured_mesh", "mesh.build")
    tracer.wrap(sim, "assemble_v_system", "vstep.assemble")
    tracer.wrap(sim, "solve_v_step", "vstep.solve")
    tracer.wrap(sim, "solve_u_step", "ustep.solve")
    for fn in ("energy", "energy_eps", "energy_law_lhs"):
        tracer.wrap(sim, fn, "simulation." + fn)
    tracer.wrap(sim._output, "write_vtk_snapshot", "output.vtk")
    tracer.wrap(sim._output, "write_diagnostics_csv", "output.csv")
    for fn in SOLVER_ENTRY_POINTS:
        if hasattr(spla, fn):
            tracer.wrap(spla, fn, "linalg." + fn, note=_lu_nnz)
    tracer.wrap_generator(sim, "simulate", "simulation.step")


def layer_metrics(tracer):
    """Per-layer self times and counts of one finished traced run.

    Every span's self time lands in exactly one metric except the
    ``MEASURE`` spans, so the ``_s`` metrics other than ``ustep.solve_s``
    add up to the traced wall time less the benchmark's bookkeeping.
    ``ustep.solve_s`` is ``ustep.other_s + ustep.factor_s``: the time of
    ``solve_u_step`` without the bookkeeping done under it.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    out = {name: 0.0 for name in sorted(set(SELF_TIME_METRIC.values()))}
    out.update({"vstep.factor_s": 0.0, "ustep.factor_s": 0.0})
    out.update({name: 0 for name in CALL_COUNT_METRIC.values()})
    out["ustep.factorizations"] = 0
    nnz = []
    for index, (name, start, end, parent) in enumerate(spans):
        self_time = end - start - child_time[index]
        if name.startswith("linalg."):
            layer = spans[parent][0].split(".")[0] if parent >= 0 else "cli"
            key = layer + ".factor_s"
            out[key] = out.get(key, 0.0) + self_time
            if layer == "ustep":
                out["ustep.factorizations"] += 1
                if tracer.notes.get(index) is not None:
                    nnz.append(tracer.notes[index])
        elif name in SELF_TIME_METRIC:
            out[SELF_TIME_METRIC[name]] += self_time
        if name in CALL_COUNT_METRIC:
            out[CALL_COUNT_METRIC[name]] += 1
    out["ustep.solve_s"] = out["ustep.other_s"] + out["ustep.factor_s"]
    out["ustep.lu_nnz"] = sum(nnz) / len(nnz) if nnz else 0.0
    return out
