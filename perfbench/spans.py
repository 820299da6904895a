"""Span recorder and work counters for the traced benchmark run.

A :class:`Tracer` wraps, in place, the public functions and the public
methods of every layer module of ``spherequant`` (the layers are the
modules listed in ``LAYERS``).  Each call of a wrapped function records
one span: which function it was, its parent span, its start and its end.
The copies that other modules take with ``from ... import`` (for example
``harness.cover_distance`` or ``flow``'s imports from ``siegel``) are
rebound to the same wrappers, so a call is traced whichever name it goes
through.

Spans are kept in memory and summarised after each sweep:

- the self time of a span is its duration minus the durations of its
  children (calls are sequential, so the children never overlap);
- the self time of a layer is the sum over its spans;
- the root span of a sweep belongs to the pseudo-layer ``bench``, so the
  self times of all layers add up to the traced sweep time exactly.

Work counts are derived from call arguments (array shapes, step counts),
never from clocks, so two traced sweeps of the same inputs give identical
counts.  ``numpy.linalg.eigh`` and ``scipy.linalg.schur`` are counted too,
attributed to the layer of the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = (
    "flow",
    "hamiltonians",
    "sphere",
    "quantize",
    "propagate",
    "unitary_metric",
    "invariants",
    "siegel",
    "harness",
)
ROOT_LAYER = "bench"
# constructors carry work in this package (dataclass validation)
TRACED_DUNDERS = ("__init__", "__post_init__")
HAMILTONIAN_EVALS = (".value", ".grad", ".hess")

# every count a traced sweep reports, so that absent work reads as 0
COUNT_NAMES = (
    "flow.rk4_point_steps",
    "flow.backward_transports",
    "flow.structure_points",
    "hamiltonians.point_evals",
    "invariants.curvature_points",
    "siegel.flux_samples",
    "quantize.assemblies",
    "quantize.assembly_gflop_computed",
    "quantize.basis_mb_computed",
    "propagate.magnus_steps",
    "propagate.eigh_calls",
    "propagate.eigh_n3",
    "unitary_metric.cover_distances",
    "unitary_metric.schur_n3",
)


def _points(x):
    """Number of points in an (..., 3) array."""
    return math.prod(getattr(x, "shape", (1, 3))[:-1])


# ---------------------------------------------------------------------------
# counters: (layer, qualified name) -> fn(tracer, span index, arguments, result)


def _count_transport(tr, idx, a, result):
    tr.counts["flow.backward_transports"] += 1
    if a["t"] != 0.0:
        tr.counts["flow.rk4_point_steps"] += a["steps"] * _points(a["points"])


def _count_advance(tr, idx, a, result):
    tr.counts["flow.rk4_point_steps"] += a["steps"] * _points(a["y"])


def _count_structure(tr, idx, a, result):
    tr.counts["flow.structure_points"] += _points(a["points"])


def _count_assembly(tr, idx, a, result):
    nodes, dim = a["space"].basis.shape
    tr.counts["quantize.assemblies"] += 1
    tr.counts["quantize.assembly_gflop_computed"] += 8 * nodes * dim * dim / 1e9


def _count_space(tr, idx, a, result):
    tr.counts["quantize.basis_mb_computed"] += (
        result.basis.nbytes + result.weighted_basis.nbytes
    ) / 1e6
    tr.span_level[idx] = a["k"]


def _count_magnus(tr, idx, a, result):
    tr.counts["propagate.magnus_steps"] += a["steps"]


def _count_curvature(tr, idx, a, result):
    tr.counts["invariants.curvature_points"] += _points(a["points"])


def _count_flux(tr, idx, a, result):
    tr.counts["siegel.flux_samples"] += getattr(a["tau_samples"], "size", 0)


def _count_cover(tr, idx, a, result):
    tr.counts["unitary_metric.cover_distances"] += 1


COUNTERS = {
    ("flow", "transport_backward"): _count_transport,
    ("flow", "advance_state"): _count_advance,
    ("flow", "PushforwardStructure.evaluate"): _count_structure,
    ("quantize", "toeplitz"): _count_assembly,
    ("quantize", "kostant_souriau_from_chart"): _count_assembly,
    ("quantize", "build_space"): _count_space,
    ("propagate", "propagate_generic"): _count_magnus,
    ("propagate", "xi_path"): _count_magnus,
    ("invariants", "scalar_curvature_at"): _count_curvature,
    ("siegel", "loop_flux"): _count_flux,
    ("unitary_metric", "cover_distance"): _count_cover,
}


class SweepTrace:
    """Spans and counts of one traced sweep, with their summaries."""

    def __init__(self, names, spans, counts, span_level):
        self.names = names  # name id -> (layer, qualified name)
        self.spans = spans  # [name id, parent index, start, end]
        self.counts = {name: counts.get(name, 0) for name in COUNT_NAMES}
        self.span_level = span_level  # build_space span index -> k

    @property
    def total(self):
        _, _, start, end = self.spans[0]
        return end - start

    def self_times(self):
        """Self time per layer; the values add up to :attr:`total`."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (nid, _, start, end), child in zip(self.spans, covered):
            out[self.names[nid][0]] += (end - start) - child
        return dict(out)

    def level_times(self):
        """Time per quantization level k.

        A level starts when ``quantize.build_space(k)`` is called and lasts
        until the next ``build_space`` call under the same parent span, or
        until that parent ends.  Levels of equal k are summed.
        """
        children = defaultdict(list)
        for i, (_, parent, _, _) in enumerate(self.spans):
            children[parent].append(i)
        out = defaultdict(float)
        for idx, k in self.span_level.items():
            parent = self.spans[idx][1]
            siblings = children[parent]
            later = [i for i in siblings if i > idx and i in self.span_level]
            end = self.spans[later[0]][2] if later else self.spans[parent][3]
            out[k] += end - self.spans[idx][2]
        return dict(out)

    def to_json(self):
        start = self.spans[0][2]
        return {
            "names": [list(n) for n in self.names],
            "spans": [[n, p, s - start, e - start] for n, p, s, e in self.spans],
            "counts": self.counts,
        }


class Tracer:
    """Installs span-recording wrappers for the lifetime of a ``with`` block.

    ``sweep()`` opens the root span of one sweep; spans and counts are reset
    at the start of every sweep.
    """

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.span_level = {}
        self._restore = []
        self._root = self._name_id(ROOT_LAYER, "sweep")

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, layer, name):
        self.names.append((layer, name))
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer, name):
        nid = self._name_id(layer, name)
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn) if counter else None
        # symbol evaluations are counted where they enter the layer
        count_entries = layer == "hamiltonians" and name.endswith(HAMILTONIAN_EVALS)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:  # outside a sweep, e.g. in the correctness gate
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [nid, stack[-1], perf(), 0.0]
            tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(tracer, idx, bound.arguments, result)
                elif count_entries and tracer.layer_of[tracer.spans[span[1]][0]] != layer:
                    points = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                    tracer.counts["hamiltonians.point_evals"] += _points(points)
                return result
            finally:
                span[3] = perf()
                stack.pop()

        return traced

    def _count_native(self, fn, counter_name):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if tracer.stack:
                layer = tracer.layer_of[tracer.spans[tracer.stack[-1]][0]]
                tracer.counts[f"{layer}.{counter_name}_calls"] += 1
                tracer.counts[f"{layer}.{counter_name}_n3"] += a.shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import numpy as np
        import scipy.linalg

        modules = {
            layer: importlib.import_module(f"spherequant.{layer}") for layer in LAYERS
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(obj, layer, attr)
                    self._set(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or meth in TRACED_DUNDERS
                        ):
                            self._set(obj, meth, self._wrap(fn, layer, f"{attr}.{meth}"))
        # copies taken with ``from .module import name``
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        self._set(np.linalg, "eigh", self._count_native(np.linalg.eigh, "eigh"))
        self._set(scipy.linalg, "schur", self._count_native(scipy.linalg.schur, "schur"))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    # -- sweeps ---------------------------------------------------------------

    def sweep(self, fn):
        """Run ``fn()`` under a root span; returns (result, SweepTrace)."""
        if self.stack:
            raise RuntimeError("sweeps do not nest")
        self.spans = []
        self.counts = Counter()
        self.span_level = {}
        span = [self._root, -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(0)
        span[2] = time.perf_counter()
        try:
            result = fn()
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
        return result, SweepTrace(
            list(self.names), self.spans, self.counts, self.span_level
        )
