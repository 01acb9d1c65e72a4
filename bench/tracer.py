"""Spans recorded around the calls into each ftclique layer.

The tracer instruments the package from outside: it replaces module
attributes at the place where the caller looks them up (for example
`ftclique.search.canonical_form`, which search.py reads from its own
globals) with a wrapper that records a span and calls the original.
Spans live in memory and are written out once, when the run ends.

A span is (name, start, end, parent, op, info): parent is the index of the
enclosing span or -1, op is the benchmark operation it belongs to, and
info is a small summary of the return value where a metric needs one.
Calls made inside forked pool workers record into the worker's copy of
the tracer and are lost with it; metrics that depend on them say so.
"""

import json
from time import perf_counter


def _verdict_info(verdict):
    return (verdict.holds, verdict.witness_count)


def _is_none(result):
    return result is None


def _truth(result):
    return bool(result)


def _instrumentation(ft):
    """(owner, attribute, span name, info function) for every wrapped call."""
    cli, search, verify, audit = ft.cli, ft.search, ft.verify, ft.audit
    conn = ft.connectivity
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_graph", "formats.parse", None),
        (search, "emit_graph6", "formats.emit", None),
        (cli, "search_minimum", "search.search_minimum", None),
        (search, "canonical_form", "canon.canonical_form", None),
        (search, "canonical_graph", "canon.canonical_graph", None),
        (search, "is_connected", "connectivity.is_connected", _truth),
        (search, "verify_ft", "verify.verify_ft", _verdict_info),
        (cli, "verify_ft", "verify.verify_ft", _verdict_info),
        (audit, "verify_ft", "verify.verify_ft", _verdict_info),
        (verify, "find_disjoint_cliques", "packing.find_disjoint_cliques", _is_none),
        (audit, "has_clique_containing", "packing.has_clique_containing", None),
        (ft.graphs.Graph, "remove_vertices", "graphs.remove_vertices", None),
        (audit, "component_masks", "connectivity.component_masks", None),
        (cli, "connectivity", "connectivity.connectivity", None),
        (conn, "vertex_connectivity", "connectivity.flow", None),
        (conn, "edge_connectivity", "connectivity.flow", None),
        (cli, "audit_basic", "audit.audit_basic", None),
        (cli, "audit_low_degree_cliques", "audit.audit_low_degree_cliques", None),
        (cli, "size_k_separators", "audit.size_k_separators", None),
        (cli, "audit_separator", "audit.audit_separator", None),
        (cli, "recognize_min_1ft", "audit.recognize_min_1ft", None),
        (cli, "blocks", "blocks.blocks", None),
        (audit, "blocks", "blocks.blocks", None),
        (cli, "chordality", "chordal.chordality", None),
        (ft.construct, "star_construction", "construct.star_construction", None),
        (ft.construct, "tree_of_cliques", "construct.tree_of_cliques", None),
    ]


class Tracer:
    """Installs span-recording wrappers into an imported ftclique package."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, original, name, info):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                end = perf_counter()
            except BaseException:
                spans[sid] = (name, start, perf_counter(), parent, self.op, None)
                raise
            finally:
                stack.pop()
            spans[sid] = (name, start, end, parent, self.op,
                          None if info is None else info(result))
            return result

        return wrapper

    def install(self, ft) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, info in _instrumentation(ft):
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


class SpanIndex:
    """Per-span durations, self times and child lists for metric queries."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[2] - s[1] for s in spans]
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        self.self_time = [
            d - sum(self.duration[c] for c in kids)
            for d, kids in zip(self.duration, self.children)
        ]

    def select(self, prefix, ops=None):
        """Indices of spans whose name starts with prefix, within ops."""
        return [
            i for i, s in enumerate(self.spans)
            if s[0].startswith(prefix) and (ops is None or s[4] in ops)
        ]

    def total(self, ids) -> float:
        return sum(self.duration[i] for i in ids)

    def self_total(self, ids) -> float:
        return sum(self.self_time[i] for i in ids)
