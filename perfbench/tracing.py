"""Spans around the calls into each fano_l2 layer, recorded from outside.

`Tracer.install` replaces each function named in LAYERS with a wrapper in
every fano_l2 module namespace that binds it (`from .patterns import
contains_fano` makes `search.contains_fano` and `verify.contains_fano`
copies of the same object, and `verify` imports `k4_census` lazily from
`search`), and each named method on its class. A span is
[name, start, end, parent index, note]; all spans of one job share the
tracer's run id. Spans stay in memory until `write` saves them.

Only layer boundaries are wrapped. Helpers called in inner loops (for
example `g_pairs_plus_bipartite`, two million calls per verify run, or
`f_of`) stay unwrapped so that tracing does not distort what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric group -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "search.k4_census": [("search", "k4_census")],
    "search.max_k4free_multigraph": [("search", "max_k4free_multigraph")],
    "search.max_l2_fano_free": [("search", "max_l2_fano_free")],
    "search.scans": [
        ("search", "aes_scan"),
        ("search", "max_s2_graph"),
        ("search", "s2_quasi_agreement"),
        ("search", "bipartite_l2_scan"),
    ],
    "patterns.contains_fano": [("patterns", "contains_fano")],
    "patterns.is_bipartite3": [("patterns", "is_bipartite3")],
    "patterns.link_triple_violation": [("patterns", "link_triple_violation")],
    "multigraphs.contains_k4": [("multigraphs", "contains_k4")],
    "multigraphs.constructions": [
        ("multigraphs", "bipartite_construction_5"),
        ("multigraphs", "turan_layers_5"),
        ("multigraphs", "saturated_family_4"),
        ("multigraphs", "MMultigraph.from_masks"),
    ],
    "hypergraphs.construct": [
        ("hypergraphs", "Uniform3Graph.__init__"),
        ("hypergraphs", "complete3"),
        ("hypergraphs", "bipartite3"),
        ("hypergraphs", "balanced_bipartite3"),
        ("hypergraphs", "random_3graph"),
    ],
    "hypergraphs.norms": [
        ("hypergraphs", "Uniform3Graph.lp_norm"),
        ("hypergraphs", "Uniform3Graph.lp_norm_degree"),
        ("hypergraphs", "Uniform3Graph.l2_degree_expanded"),
        ("hypergraphs", "Uniform3Graph.count_stars"),
        ("hypergraphs", "Uniform3Graph.star_degree"),
    ],
    "bounds.roots": [
        ("bounds", "f_inverse"),
        ("bounds", "solve_root_equation"),
        ("bounds", "alpha1_limit"),
        ("bounds", "alpha2_limit"),
        ("bounds", "core_rate"),
    ],
    "bounds.rational_identity_checks": [("bounds", "rational_identity_checks")],
    "formats.parse": [
        ("formats", "parse_3graph"),
        ("formats", "parse_graph"),
        ("formats", "parse_mgraph"),
        ("formats", "parse_any"),
    ],
    "formats.write": [
        ("formats", "write_3graph"),
        ("formats", "write_graph"),
        ("formats", "write_mgraph"),
    ],
    "verify.run_suite": [("verify", "run_suite")],
}


def _note_census(tracer, args, kwargs, report):
    # the census caches its report: count the states of the first return only
    if id(report) in tracer.seen:
        return 0
    tracer.seen.add(id(report))
    tracer.keep.append(report)
    return report.states


def _note_search(tracer, args, kwargs, report):
    return [report.n, report.m, report.engine, report.nodes]


def _note_fano(tracer, args, kwargs, witness):
    return "absent" if witness is None else "present"


def _note_parse(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


NOTES = {
    "k4_census": _note_census,
    "max_k4free_multigraph": _note_search,
    "max_l2_fano_free": _note_search,
    "contains_fano": _note_fano,
    "parse_3graph": _note_parse,
    "parse_graph": _note_parse,
    "parse_mgraph": _note_parse,
    "parse_any": _note_parse,
}


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.group_of: dict[str, str] = {}
        self.seen: set[int] = set()
        self.keep: list = []  # keeps noted objects alive so their ids stay unique
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name.rsplit(".", 1)[-1])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every LAYERS entry of the imported package in place."""
        prefix = package.__name__
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == prefix or key.startswith(prefix + ".")
        ]
        for group, entries in LAYERS.items():
            for module_name, attr in entries:
                module = sys.modules[f"{prefix}.{module_name}"]
                name = f"{module_name}.{attr}"
                self.group_of[name] = group
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds to a plain call, timed now."""

        def noop():
            return None

        wrapped = Tracer("calibration").wrap("calibration.noop", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        return max(0.0, (t2 - t1 - (t1 - t0)) / calls)

    def summary(self) -> dict:
        """Per-layer times and counts computed from the spans, and an
        estimate of the tracing overhead: spans times the cost of one."""
        spans = self.spans
        groups = [self.group_of[s[0]] for s in spans]
        child_time = [0.0] * len(spans)
        # groups on the ancestor chain: a span nested in its own group is
        # not added again to the group's inclusive time
        above: list[frozenset] = []
        for i, (name, start, end, parent, _note) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                above.append(above[parent] | {groups[parent]})
            else:
                above.append(frozenset())
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent, note) in enumerate(spans):
            g = groups[i]
            calls[g] = calls.get(g, 0) + 1
            self_time[g] = self_time.get(g, 0.0) + (end - start - child_time[i])
            if g not in above[i]:
                total[g] = total.get(g, 0.0) + (end - start)

        def by_note(name_suffix, want):
            return [s for s in spans if s[0].endswith(name_suffix) and s[4] == want]

        absent = by_note(".contains_fano", "absent")
        present = by_note(".contains_fano", "present")
        states = sum(s[4] for s in spans if s[0] == "search.k4_census")
        bnb = [s for s in spans if s[0] == "search.max_k4free_multigraph"]
        bnb_nodes = sum(s[4][3] for s in bnb if s[4] and s[4][2] == "bnb")
        bnb_self = self_time.get("search.max_k4free_multigraph", 0.0)
        census_s = total.get("search.k4_census", 0.0)
        metrics = {
            "search.k4_census.s": census_s,
            "search.k4_census.calls": calls.get("search.k4_census", 0),
            "search.k4_census.states": states,
            "search.k4_census.states_per_s": states / census_s if census_s else 0.0,
            "search.max_k4free_multigraph.self_s": bnb_self,
            "search.max_k4free_multigraph.nodes": bnb_nodes,
            "search.max_k4free_multigraph.nodes_per_s": bnb_nodes / bnb_self if bnb_self else 0.0,
            "search.max_l2_fano_free.s": total.get("search.max_l2_fano_free", 0.0),
            "search.max_l2_fano_free.nodes": sum(
                s[4][3] for s in spans if s[0] == "search.max_l2_fano_free" and s[4]
            ),
            "search.scans.s": total.get("search.scans", 0.0),
            "patterns.contains_fano.absent_s": sum(s[2] - s[1] for s in absent),
            "patterns.contains_fano.absent_calls": len(absent),
            "patterns.contains_fano.present_s": sum(s[2] - s[1] for s in present),
            "patterns.contains_fano.present_calls": len(present),
            "patterns.is_bipartite3.s": total.get("patterns.is_bipartite3", 0.0),
            "patterns.link_triple_violation.self_s": self_time.get(
                "patterns.link_triple_violation", 0.0
            ),
            "multigraphs.contains_k4.s": total.get("multigraphs.contains_k4", 0.0),
            "multigraphs.contains_k4.calls": calls.get("multigraphs.contains_k4", 0),
            "multigraphs.constructions.s": total.get("multigraphs.constructions", 0.0),
            "hypergraphs.construct.s": total.get("hypergraphs.construct", 0.0),
            "hypergraphs.norms.s": total.get("hypergraphs.norms", 0.0),
            "bounds.roots.s": total.get("bounds.roots", 0.0),
            "bounds.rational_identity_checks.s": total.get(
                "bounds.rational_identity_checks", 0.0
            ),
            "formats.parse.s": total.get("formats.parse", 0.0),
            "formats.parse.bytes": sum(
                s[4] for i, s in enumerate(spans)
                if groups[i] == "formats.parse" and "formats.parse" not in above[i]
            ),
            "formats.write.s": total.get("formats.write", 0.0),
            "verify.run_suite.self_s": self_time.get("verify.run_suite", 0.0),
        }
        counts = {
            "spans": len(spans),
            "k4_census.states": states,
            "contains_fano.absent_calls": len(absent),
            "contains_fano.present_calls": len(present),
            "contains_k4.calls": calls.get("multigraphs.contains_k4", 0),
        }
        for s in spans:
            if s[0] in ("search.max_k4free_multigraph", "search.max_l2_fano_free") and s[4]:
                n, m, engine, nodes = s[4]
                key = f"{s[0].split('.')[1]}.nodes[n={n},m={m},{engine}]"
                counts[key] = counts.get(key, 0) + nodes
        return {
            "metrics": metrics,
            "counts": counts,
            "overhead_estimate_s": len(spans) * self.span_cost(),
        }
