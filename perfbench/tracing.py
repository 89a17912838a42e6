"""Spans around the public functions of each ``bitype`` module.

``Tracer.install`` replaces every binding of the traced functions that
callers look up -- module attributes, names imported into other modules,
``MonomialIdeal.from_generators`` -- with a wrapper that records a span:
name, start, end and parent.  Spans stay in memory until the run ends and
are then folded into per-layer metrics.  The self time of a span is its
duration minus the time its child spans cover.

Counts derived from arguments and return values are computed by observers
that run outside the traced call; their time is recorded as
``trace.observe`` spans, so it is charged to no layer.
"""

import math
import sys
import time
from array import array
from collections import defaultdict

from bitype import assoc, core, covers, homology

from workloads import multiset_cap

LAYERS = ("core", "builders", "covers", "assoc", "homology", "sorting", "graphs",
          "kernels", "cli")

TRACED = {
    "builders": ("make_params", "bitype_ideal", "bitype_ideal_by_compositions",
                 "veronese_type_ideal"),
    "covers": ("minimal_vertex_covers", "cover_number", "dim_oracle", "is_unmixed",
               "is_vertex_cover", "range_case", "dim_formula", "unmixed_formula",
               "regularity_formula"),
    "assoc": ("associated_primes_formula", "witness_monomial", "associated_primes_oracle",
              "minimal_supports", "formula_matches_oracle"),
    "homology": ("upper_koszul", "reduced_homology_ranks", "betti_table",
                 "regularity_oracle"),
    "sorting": ("is_sortable", "sortable_violation", "sorting_relations",
                "fibers_of_degree", "fiber", "normal_form", "quadratic_gb_evidence"),
    "graphs": ("strong_block_graph", "walk_exponent_vectors", "generalized_graph_ideal",
               "edge_ideal", "to_dot"),
    "kernels": ("make_table", "rank_int_rows", "sortable_box_scan"),
    "cli": ("main",),
}

TABLE_SCANS = ("contains", "deficit_masks", "colon_prime_mask", "ass_scan")


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _lcm(ideal):
    return [max(column) for column in zip(*(g.entries for g in ideal.gens))]


def _box(ideal):
    return math.prod(e + 1 for e in _lcm(ideal))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._built: set = set()
        self._patches: list = []
        self._observers = {
            "core.from_generators": self._gens_out,
            "builders.bitype_ideal": self._built_ideal,
            "covers.minimal_vertex_covers": self._covers,
            "homology.betti_table": self._betti_box,
            "assoc.associated_primes_oracle": self._colon_box,
            "sorting.fibers_of_degree": self._fibers,
            "graphs.walk_exponent_vectors": self._walks,
            "kernels.rank_int_rows": self._matrix,
        }

    # -- spans ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id, clock=time.perf_counter):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(clock())
        return index

    def wrap(self, name, fn):
        name_id, observe_id = self._id(name), self._id("trace.observe")
        observe = self._observers.get(name)
        stack, end, clock = self._stack, self.end, time.perf_counter

        def traced(*args, **kwargs):
            index = self._open(name_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                index = self._open(observe_id)
                observe(args, kwargs, result)
                end[index] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers: counts computed at the boundary ----------------------

    def _gens_out(self, args, kwargs, result):
        self.counts["core.from_generators.gens_out"] += len(result)

    def _built_ideal(self, args, kwargs, result):
        self.counts["builders.generators"] += len(result)
        params = args[0]
        key = (params.blocks.block_sizes, params.t, params.s)
        if key in self._built:
            self.counts["builders.repeats"] += 1
        self._built.add(key)

    def _covers(self, args, kwargs, result):
        ideal = args[0]
        width = sum(1 for e in _lcm(ideal) if e)
        cap = _arg(args, kwargs, 1, "max_vars") or covers.DEFAULT_COVER_VARS
        self.counts["covers.subsets"] += 2 ** width
        self._max("covers.vars_headroom", width / cap)

    def _betti_box(self, args, kwargs, result):
        box = _box(args[0])
        cap = _arg(args, kwargs, 1, "box_cap") or homology.DEFAULT_BOX_CAP
        self.counts["homology.box_points"] += box
        self._max("homology.box_headroom", box / cap)

    def _colon_box(self, args, kwargs, result):
        box = _box(args[0])
        cap = _arg(args, kwargs, 1, "box_cap") or assoc.DEFAULT_WITNESS_BOX
        self.counts["assoc.box_points"] += box
        self._max("assoc.box_headroom", box / cap)

    def _fibers(self, args, kwargs, result):
        gens, degree = len(args[0].generators), _arg(args, kwargs, 1, "d")
        cap = _arg(args, kwargs, 2, "multiset_cap") or multiset_cap()
        total = math.comb(gens + degree - 1, degree)
        self.counts["sorting.fibers"] += len(result)
        self.counts["sorting.multisets"] += total
        self._max("sorting.multiset_headroom", total / cap)

    def _walks(self, args, kwargs, result):
        self.counts["graphs.walk_vectors"] += len(result)

    def _matrix(self, args, kwargs, result):
        rows = args[0]
        cells = len(rows) * len(rows[0]) if rows else 0
        self.counts["kernels.rank_int_rows.cells"] += cells
        self._max("kernels.rank_int_rows.max_shape", cells)

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every traced function at each binding inside ``bitype``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bitype" or name.startswith("bitype.")]
        for layer, functions in TRACED.items():
            module = sys.modules[f"bitype.{layer}"]
            for function in functions:
                original = getattr(module, function)
                traced = self.wrap(f"{layer}.{function}", original)
                if function == "make_table":
                    traced = self._traced_make_table(traced)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, traced)
        cls = core.MonomialIdeal
        method = vars(cls)["from_generators"]
        self._patch(cls, "from_generators",
                    classmethod(self.wrap("core.from_generators", method.__func__)))

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _traced_make_table(self, make_table):
        tracer = self

        def traced(*args, **kwargs):
            return _TracedTable(make_table(*args, **kwargs), tracer)

        traced.__wrapped__ = make_table
        return traced

    def begin_pass(self):
        """Builds of a triple count as repeats only within one pass."""
        self._built.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        own = defaultdict(float)
        for i in range(count):
            name = self.names[self.name[i]]
            calls[name] += 1
            own[name] += self.end[i] - self.start[i] - covered[i]
        return calls, own

    def metrics(self, passes, traced_wall):
        """Per-layer metrics, and each module's share of the traced wall time.

        Additive metrics are means per traced pass.
        """
        calls, own = self.self_times()
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = own[name] / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        out.update(self.maxima)
        built = calls.get("builders.bitype_ideal", 0)
        out["builders.repeat_share"] = self.counts["builders.repeats"] / built if built else 0.0
        shares = defaultdict(float)
        for name, seconds in own.items():
            shares[name.split(".")[0]] += seconds / traced_wall
        out["trace.attributed_share"] = sum(shares[layer] for layer in LAYERS)
        return out, dict(sorted(shares.items()))

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                handle.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                             f"{self.end[i]:.9f}\t{self.parent[i]}\n")
        return path


class _TracedTable:
    """A generator table whose scans are recorded as ``kernels.table_scan``."""

    def __init__(self, table, tracer):
        self._table = table
        for method in TABLE_SCANS:
            setattr(self, method, tracer.wrap("kernels.table_scan", getattr(table, method)))

    def __getattr__(self, name):
        return getattr(self._table, name)
