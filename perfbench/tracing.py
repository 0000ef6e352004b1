"""Spans around the calls into each autorbit layer, installed from outside.

``Tracer.install`` wraps the layer entry points listed in ``SPANNED`` and
``SPANNED_ATTRS``. A module that did ``from .canon import automorphism_group``
holds its own binding, so the wrapper replaces every binding of the function
in every autorbit module, not only the one in the defining module. Cached
properties stay per-instance cached properties: a cached value short-cuts the
descriptor exactly as before, and values written straight into an instance's
``__dict__`` (as ``perms.brute_force_aut`` does) are still honoured.

Each call records a span (name, start, end, parent) in preallocated arrays;
nothing is written until the run ends. Hot helpers such as ``pair_index`` or
``apply_pair`` cost about as much as a wrapper, so they are not wrapped and
their time counts as their caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

LAYERS = ("graphs", "perms", "canon", "orbits", "ratio", "ermodel", "recon", "cli")

# Public module-level functions wrapped at every binding, per defining module.
SPANNED = {
    "graphs": ("edge_set", "new_graph", "from_edge_mask", "parse_graph6", "emit_graph6",
               "parse_edge_list", "emit_edge_list"),
    "perms": ("perm_group", "reduce_generators", "group_order", "brute_force_aut", "apply_graph"),
    "canon": ("automorphism_group", "canonical_form", "color_refine", "is_isomorphic"),
    "orbits": ("edge_set_orbit", "vertex_orbit", "pair_orbit"),
    "ratio": ("cached_aut_group", "verify_ratio_identity", "subsets_for_graph", "sweep_verify"),
    "ermodel": ("count_labeled_copies", "er_prob_isomorphic", "sample_er",
                "estimate_prob_isomorphic", "verify_binomial_cancellation", "verify_proof_chain"),
    "recon": ("vertex_deleted", "classic_deck", "augmented_deck", "kelly_edge_count",
              "check_vertex_edge_orbit_identity", "recover_aut_order", "unique_extension_filter"),
    "cli": ("load_graph", "main"),
}
# Methods and (cached) properties: (module, class, attribute).
SPANNED_ATTRS = (
    ("graphs", "Graph", "delete_edges"),
    ("perms", "PermGroup", "elements"),
    ("perms", "PermGroup", "order"),
    ("perms", "PermGroup", "pair_action_bytes"),
    ("recon", "Deck", "classes"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
CALLS_AND_SELF = (
    "orbits.edge_set_orbit", "perms.order", "perms.elements", "perms.reduce_generators",
    "perms.pair_action_bytes", "canon.automorphism_group", "canon.canonical_form",
    "ratio.verify_ratio_identity", "ratio.cached_aut_group", "ermodel.sample_er",
    "ermodel.estimate_prob_isomorphic", "recon.augmented_deck", "recon.Deck.classes",
    "recon.recover_aut_order", "recon.unique_extension_filter", "cli.main",
)
SELF_ONLY = ("graphs.from_edge_mask", "graphs.delete_edges", "graphs.parse_graph6")
COUNTERS = ("orbits.states_walked", "orbits.gen_applications", "perms.closure_elements")
RATIOS = ("canon.distinct_graph_ratio", "ratio.memo_hit_ratio", "cli.canon_calls_per_op")
RUN_METRICS = {"trace.items": "count", "trace.spans": "count", "trace.wall_s": "s",
               "trace.outside_share": "ratio", "trace.overhead": "x"}


def metric_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(RUN_METRICS)
    return units


class Tracer:
    """Span recorder plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.searched: set = set()
        self._restore: list = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A function that runs ``fn`` inside a span; results and exceptions pass through."""
        name_id = self._name_id(name)
        now = time.perf_counter_ns
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = self.current
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(parent)
            span_end.append(0)
            self.current = index
            span_start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = now()
                self.current = parent
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters that read arguments or results ---------------------------------

    def _searched(self, args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        self.searched.add((graph.n, graph.edges))
        self.counters["canon.searches"] += 1

    def _memo_probe(self, args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        cache = args[1] if len(args) > 1 else kwargs.get("cache")
        if cache is not None and (graph.n, graph.mask) in cache:
            self.counters["ratio.memo_hits"] += 1

    def _orbit_walked(self, args, kwargs, orbit):
        group = args[0] if args else kwargs["group"]
        self.counters["orbits.states_walked"] += orbit.size
        self.counters["orbits.gen_applications"] += orbit.size * len(group.generators)

    def _elements_enumerated(self, args, kwargs, elements):
        self.counters["perms.closure_elements"] += len(elements)

    # -- installation ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed entry point at every binding inside ``package``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        hooks = {
            "canon.automorphism_group": (self._searched, None),
            "canon.canonical_form": (self._searched, None),
            "ratio.cached_aut_group": (self._memo_probe, None),
            "orbits.edge_set_orbit": (None, self._orbit_walked),
            "perms.elements": (None, self._elements_enumerated),
        }
        for layer, names in SPANNED.items():
            home = getattr(package, layer)
            for fname in names:
                original = getattr(home, fname)
                before, after = hooks.get(f"{layer}.{fname}", (None, None))
                wrapper = self.wrap(f"{layer}.{fname}", original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for layer, cls_name, attr in SPANNED_ATTRS:
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}" if layer == "recon" else f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(
                    self.wrap(name, original.func, before, after)
                )
                replacement.__set_name__(cls, attr)
            elif isinstance(original, property):
                replacement = property(self.wrap(name, original.fget, before, after))
            else:
                replacement = self.wrap(name, original, before, after)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self seconds and call counts.

        Spans are stored in start order and nest, so a span's children are
        disjoint sub-intervals; self time is the span minus their sum.
        """
        count = len(self.span_name)
        child_ns = [0] * count
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += duration[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(count):
            name = self.names[self.span_name[i]]
            self_s[name] += (duration[i] - child_ns[i]) / 1e9
            calls[name] += 1
        return self_s, calls

    def metrics(self, wall_s: float, ops: int, items: int, overhead: float) -> dict[str, float]:
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        searches = self.counters.get("canon.searches", 0)
        memo_calls = calls.get("ratio.cached_aut_group", 0)
        out["canon.distinct_graph_ratio"] = len(self.searched) / searches if searches else 0.0
        out["ratio.memo_hit_ratio"] = (
            self.counters.get("ratio.memo_hits", 0) / memo_calls if memo_calls else 0.0
        )
        out["cli.canon_calls_per_op"] = searches / ops if ops else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self_s.items() if name.split(".", 1)[0] == layer
            )
        total_self = sum(self_s.values())
        out["trace.items"] = items
        out["trace.spans"] = len(self.span_name)
        out["trace.wall_s"] = wall_s
        out["trace.outside_share"] = max(0.0, 1.0 - total_self / wall_s) if wall_s else 0.0
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start ns, end ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )

