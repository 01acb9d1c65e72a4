"""Command-line interface.

Subcommands mirror the library: verify, pack, construct, recognize, audit,
search-min, props. Graphs are read from a file argument or stdin in either
supported format; reports are JSON on stdout. Exit codes: 0 when the
checked property holds (or the command simply produced output), 1 when it
fails, 2 for usage, premise, or budget errors.

`main` builds the argument parser on its first call in a process and
reuses it, so callers that run many commands in one process (the
benchmark, scripts) pay for it once; each call still parses into a fresh
namespace. The `verify --jobs` default, the usable cores, is read when
verify runs. A `search-min --state` file holds a `SearchResume` token,
finished or not, and is replaced whole on each write: the token goes to a
temporary file beside it first, so a failed write leaves the old state.
"""

import argparse
import functools
import json
import os
import sys

from .audit import (
    audit_basic,
    audit_low_degree_cliques,
    audit_separator,
    recognize_min_1ft,
    size_k_separators,
)
from .blocks import blocks
from .chordal import chordality
from .connectivity import connectivity
from .construct import (
    TreeTemplate,
    c2_even_k_construction,
    harary,
    odd_cycle,
    star_construction,
    tree_of_cliques,
)
from .formats import emit_graph, parse_graph
from .graphs import Graph
from .packing import find_disjoint_cliques
from .search import Budget, SearchResume, search_minimum
from .verify import FTParams, verify_ft

__all__ = ["main"]


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graph(args: argparse.Namespace) -> Graph:
    return parse_graph(_read_text(args.file))


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", nargs="?", default=None,
                     help="graph file (edge list or graph6); stdin when omitted")


def _add_params(sub: argparse.ArgumentParser, *, with_k: bool = True) -> None:
    if with_k:
        sub.add_argument("--k", type=int, required=True, help="tolerated deletions")
    sub.add_argument("--p", type=int, required=True, help="required clique count")
    sub.add_argument("--c", type=int, required=True, help="clique order")


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    params = FTParams(args.k, args.p, args.c)
    jobs = args.jobs
    if jobs is None:
        # sched_getaffinity counts the CPUs this process may use; cpu_count
        # counts the machine's, more than a CPU-limited container gets.
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    verdict = verify_ft(graph, params, max_witnesses=args.witnesses, jobs=jobs)
    witnesses = None
    if verdict.sample_witnesses is not None:
        witnesses = {
            ",".join(map(str, s)): [list(cl) for cl in pk.cliques]
            for s, pk in verdict.sample_witnesses.items()
        }
    _emit({
        "command": "verify",
        "k": args.k, "p": args.p, "c": args.c,
        "n": graph.n, "m": graph.edge_count,
        "holds": verdict.holds,
        "counterexample": None if verdict.counterexample is None else list(verdict.counterexample),
        "witness_count": verdict.witness_count,
        "reason": verdict.reason,
        "witnesses": witnesses,
    })
    return 0 if verdict.holds else 1


def _cmd_pack(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    packing = find_disjoint_cliques(graph, args.p, args.c)
    _emit({
        "command": "pack",
        "p": args.p, "c": args.c,
        "n": graph.n, "m": graph.edge_count,
        "found": packing is not None,
        "cliques": None if packing is None else [list(cl) for cl in packing.cliques],
    })
    return 0 if packing is not None else 1


def _parse_template_text(text: str) -> tuple[int, int, TreeTemplate]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty template")
    try:
        p, k, c = (int(x) for x in lines[0])
    except (TypeError, ValueError):
        raise ValueError(
            f"template header must be 'p k c', got {' '.join(lines[0])!r}"
        ) from None
    gluings = []
    for parts in lines[1:]:
        if len(parts) != 2 + k:
            raise ValueError(
                f"template line must be 'parent child {k} slot indices', "
                f"got {' '.join(parts)!r}"
            )
        parent, child, *slots = (int(x) for x in parts)
        gluings.append((parent, child, tuple(slots)))
    return k, c, TreeTemplate(p, tuple(gluings))


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "star":
        graph = star_construction(args.k, args.p, args.c)
    elif kind == "tree":
        k, c, template = _parse_template_text(_read_text(args.template))
        graph = tree_of_cliques(k, c, template)
    elif kind == "cycle":
        graph = odd_cycle(args.p)
    elif kind == "harary":
        graph = harary(args.m, args.n)
    else:  # c2
        graph = c2_even_k_construction(args.k, args.p)
    sys.stdout.write(emit_graph(graph, args.out_format))
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = recognize_min_1ft(graph, args.p, args.c)
    _emit({
        "command": "recognize",
        "p": args.p, "c": args.c,
        "n": graph.n, "m": graph.edge_count,
        "accepted": result.accepted,
        "explanation": result.explanation,
    })
    return 0 if result.accepted else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    params = FTParams(args.k, args.p, args.c)
    out: dict = {
        "command": "audit",
        "k": args.k, "p": args.p, "c": args.c,
        "n": graph.n, "m": graph.edge_count,
        "basic": None, "low_degree": None,
        "separator": None, "separators": None,
    }
    if args.separator is not None:
        sep = tuple(int(x) for x in args.separator.split(",") if x.strip() != "")
        report = audit_separator(graph, params, sep)
        out["separator"] = {"vertices": list(sep), **report.to_dict()}
        passed = report.passed
    else:
        basic = audit_basic(graph, params)
        low = audit_low_degree_cliques(graph, params)
        out["basic"] = basic.to_dict()
        out["low_degree"] = low.to_dict()
        passed = basic.passed and low.passed
        if args.k < args.c:  # the split statements of audit_separator need k < c
            out["separators"] = [
                {"vertices": list(sep), **audit_separator(graph, params, sep).to_dict()}
                for sep in size_k_separators(graph, args.k)
            ]
            passed = passed and all(s["passed"] for s in out["separators"])
    out["passed"] = passed
    _emit(out)
    return 0 if passed else 1


def _cmd_search_min(args: argparse.Namespace) -> int:
    params = FTParams(args.k, args.p, args.c)
    budget = Budget(seconds=args.budget_seconds, graphs=args.budget_graphs)
    resume = None
    if args.state and os.path.exists(args.state) and os.path.getsize(args.state):
        with open(args.state, "r", encoding="utf-8") as fh:
            try:
                stored = json.load(fh)
            except RecursionError:
                raise ValueError("state file is nested too deeply to be a search state") from None
        resume = SearchResume.from_dict(stored)
    report = search_minimum(params, args.max_edges, budget, resume=resume)
    if args.state:
        temporary = args.state + ".tmp"
        try:
            with open(temporary, "w", encoding="utf-8") as fh:
                json.dump(report.state().to_dict(), fh, indent=2)
                fh.write("\n")
            os.replace(temporary, args.state)
        finally:  # after a failed write; a replaced one leaves nothing
            if os.path.exists(temporary):
                os.remove(temporary)
    _emit({"command": "search-min", **report.to_dict()})
    return 0 if report.resume is None else 2


def _cmd_props(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    info = connectivity(graph)
    decomposition = blocks(graph)
    chord = chordality(graph)
    _emit({
        "command": "props",
        "n": graph.n, "m": graph.edge_count,
        "degrees": list(graph.degrees()),
        "components": [list(c) for c in info.components],
        "vertex_connectivity": info.vertex_connectivity,
        "edge_connectivity": info.edge_connectivity,
        "blocks": [list(b) for b in decomposition.blocks],
        "cutvertices": list(decomposition.cutvertices),
        "chordal": chord.is_chordal,
        "chordless_cycle": None if chord.witness_cycle is None else list(chord.witness_cycle),
        "clique_parts": None if chord.clique_tree is None
        else [list(part) for part in chord.clique_tree.parts],
        "clique_tree": None if chord.clique_tree is None
        else [[i, j, list(adh)] for i, j, adh in chord.clique_tree.tree_edges],
    })
    return 0


# Cached: parse_args returns a fresh Namespace on every call, so a reused
# parser carries nothing between calls. Handlers are bound here, but the
# library functions they call are looked up as module globals at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftclique",
        description="verify, construct, audit and search for graphs that "
                    "keep p disjoint K_c after any k vertex deletions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="scan all k-deletions")
    _add_params(sub)
    sub.add_argument("--witnesses", type=int, default=0,
                     help="retain packings for the first N deletion sets")
    sub.add_argument("--jobs", type=int, default=None,
                     help="parallel workers (default: the usable cores)")
    _add_graph_input(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("pack", help="find p disjoint c-cliques")
    _add_params(sub, with_k=False)
    _add_graph_input(sub)
    sub.set_defaults(func=_cmd_pack)

    sub = subs.add_parser("construct", help="emit a named construction")
    kinds = sub.add_subparsers(dest="kind", required=True)
    star = kinds.add_parser("star", help="hub K_k joined to p disjoint K_c")
    _add_params(star)
    tree = kinds.add_parser("tree", help="tree of overlapping (k+c)-cliques")
    tree.add_argument("--template", required=True,
                      help="template file: 'p k c' then p-1 lines "
                           "'parent child slot1..slotk' ('-' for stdin)")
    cycle = kinds.add_parser("cycle", help="odd cycle C_{2p+1}")
    cycle.add_argument("--p", type=int, required=True)
    har = kinds.add_parser("harary", help="m-connected circulant on n vertices")
    har.add_argument("--m", type=int, required=True)
    har.add_argument("--n", type=int, required=True)
    c2 = kinds.add_parser("c2", help="below-bound pairs construction (even k)")
    c2.add_argument("--k", type=int, required=True)
    c2.add_argument("--p", type=int, required=True)
    for child in (star, tree, cycle, har, c2):
        child.add_argument("--out-format", default="edge-list",
                           choices=["edge-list", "graph6"])
        child.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("recognize",
                          help="structural minimality decision for k = 1")
    _add_params(sub, with_k=False)
    _add_graph_input(sub)
    sub.set_defaults(func=_cmd_recognize)

    sub = subs.add_parser("audit", help="structural necessary-condition audits")
    _add_params(sub)
    sub.add_argument("--separator", default=None,
                     help="comma-separated vertices; audit this separator only")
    _add_graph_input(sub)
    sub.set_defaults(func=_cmd_audit)

    sub = subs.add_parser("search-min", help="exhaustive minimum-edge search")
    _add_params(sub)
    sub.add_argument("--max-edges", type=int, default=None,
                     help="upper end of the scan (default: hub bound)")
    sub.add_argument("--budget-seconds", type=float, default=None)
    sub.add_argument("--budget-graphs", type=int, default=None)
    sub.add_argument("--state", default=None,
                     help="JSON file for resume tokens; reused across runs")
    sub.set_defaults(func=_cmd_search_min)

    sub = subs.add_parser("props", help="degrees, connectivity, blocks, chordality")
    _add_graph_input(sub)
    sub.set_defaults(func=_cmd_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
