"""Command-line interface.

Subcommands mirror the library: verify, pack, construct, recognize, audit,
search-min, props. The five graph commands read one graph from a file
argument or stdin in either supported format and print one JSON object
that starts with `command`, the k, p and c the command takes, `n` and `m`.
Exit codes: 0 when the checked property holds (or the command simply
produced output), 1 when it fails, 2 for usage, premise, or budget errors.
construct refuses an order above 258,047, as the parsers do, before it
builds the graph.

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
from .chordal import chordality, separator_structure
from .connectivity import ConnectivityInfo, connectivity
from .construct import (
    TreeTemplate,
    c2_even_k_construction,
    harary,
    odd_cycle,
    star_construction,
    tree_of_cliques,
)
from .formats import check_order, emit_graph, parse_graph
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


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _run_graph_command(args: argparse.Namespace) -> int:
    """Read the graph and print `command`, the k, p and c the command takes,
    n, m and the fields of its check; exit 0 when the check holds, else 1."""
    graph = parse_graph(_read_text(args.file))
    holds, fields = args.check(args, graph)
    _emit({
        "command": args.command,
        **{name: getattr(args, name) for name in ("k", "p", "c") if name in args},
        "n": graph.n, "m": graph.edge_count,
        **fields,
    })
    return 0 if holds else 1


def _add_graph_input(sub: argparse.ArgumentParser, check) -> None:
    sub.add_argument("file", nargs="?", default=None,
                     help="graph file (edge list or graph6); stdin when omitted")
    sub.set_defaults(func=_run_graph_command, check=check)


def _add_params(sub: argparse.ArgumentParser, *, with_k: bool = True) -> None:
    if with_k:
        sub.add_argument("--k", type=int, required=True, help="tolerated deletions")
    sub.add_argument("--p", type=int, required=True, help="required clique count")
    sub.add_argument("--c", type=int, required=True, help="clique order")


def _check_verify(args: argparse.Namespace, graph: Graph) -> tuple[bool, dict]:
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
    return verdict.holds, {
        "holds": verdict.holds,
        "counterexample": None if verdict.counterexample is None else list(verdict.counterexample),
        "witness_count": verdict.witness_count,
        "reason": verdict.reason,
        "witnesses": witnesses,
    }


def _check_pack(args: argparse.Namespace, graph: Graph) -> tuple[bool, dict]:
    packing = find_disjoint_cliques(graph, args.p, args.c)
    return packing is not None, {
        "found": packing is not None,
        "cliques": None if packing is None else [list(cl) for cl in packing.cliques],
    }


def _build_tree(args: argparse.Namespace) -> Graph:
    lines = [ln.split() for ln in _read_text(args.template).splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty template")
    try:
        p, k, c = (int(x) for x in lines[0])
    except (TypeError, ValueError):
        raise ValueError(
            f"template header must be 'p k c', got {' '.join(lines[0])!r}"
        ) from None
    check_order(p * c + k, args.out_format)
    gluings = []
    for parts in lines[1:]:
        if len(parts) != 2 + k:
            raise ValueError(
                f"template line must be 'parent child {k} slot indices', "
                f"got {' '.join(parts)!r}"
            )
        parent, child, *slots = (int(x) for x in parts)
        gluings.append((parent, child, tuple(slots)))
    return tree_of_cliques(k, c, TreeTemplate(p, tuple(gluings)))


def _cmd_construct(args: argparse.Namespace) -> int:
    # A Graph row is a mask as wide as its largest neighbor, so an order the
    # emitters refuse is refused before the build (the tree's, from its
    # template header, in _build_tree).
    if args.order is not None:
        check_order(args.order(args), args.out_format)
    sys.stdout.write(emit_graph(args.build(args), args.out_format))
    return 0


def _check_recognize(args: argparse.Namespace, graph: Graph) -> tuple[bool, dict]:
    result = recognize_min_1ft(graph, args.p, args.c)
    return result.accepted, {
        "accepted": result.accepted,
        "explanation": result.explanation,
    }


def _check_audit(args: argparse.Namespace, graph: Graph) -> tuple[bool, dict]:
    params = FTParams(args.k, args.p, args.c)
    out: dict = {
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
    return passed, out


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


def _check_props(args: argparse.Namespace, graph: Graph) -> tuple[bool, dict]:
    chord = chordality(graph)
    if chord.clique_tree is None:
        info = connectivity(graph)
        decomposition = blocks(graph)
    else:  # no flow for the vertex number and no block split
        structure = separator_structure(chord.clique_tree)
        info = ConnectivityInfo.from_vertex_connectivity(graph, structure.vertex_connectivity)
        decomposition = structure.blocks
    return True, {
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
    }


# Cached: parse_args returns a fresh Namespace on every call, so a reused
# parser carries nothing between calls. Handlers, checks and builders are
# bound here, and look up the library functions as module globals when run.
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
    _add_graph_input(sub, _check_verify)

    sub = subs.add_parser("pack", help="find p disjoint c-cliques")
    _add_params(sub, with_k=False)
    _add_graph_input(sub, _check_pack)

    sub = subs.add_parser("construct", help="emit a named construction")
    kinds = sub.add_subparsers(dest="kind", required=True)
    star = kinds.add_parser("star", help="hub K_k joined to p disjoint K_c")
    _add_params(star)
    star.set_defaults(order=lambda args: args.p * args.c + args.k,
                      build=lambda args: star_construction(args.k, args.p, args.c))
    tree = kinds.add_parser("tree", help="tree of overlapping (k+c)-cliques")
    tree.add_argument("--template", required=True,
                      help="template file: 'p k c' then p-1 lines "
                           "'parent child slot1..slotk' ('-' for stdin)")
    tree.set_defaults(order=None, build=_build_tree)
    cycle = kinds.add_parser("cycle", help="odd cycle C_{2p+1}")
    cycle.add_argument("--p", type=int, required=True)
    cycle.set_defaults(order=lambda args: 2 * args.p + 1,
                       build=lambda args: odd_cycle(args.p))
    har = kinds.add_parser("harary", help="m-connected circulant on n vertices")
    har.add_argument("--m", type=int, required=True)
    har.add_argument("--n", type=int, required=True)
    har.set_defaults(order=lambda args: args.n, build=lambda args: harary(args.m, args.n))
    c2 = kinds.add_parser("c2", help="below-bound pairs construction (even k)")
    c2.add_argument("--k", type=int, required=True)
    c2.add_argument("--p", type=int, required=True)
    c2.set_defaults(order=lambda args: 2 * args.p + args.k,
                    build=lambda args: c2_even_k_construction(args.k, args.p))
    for child in (star, tree, cycle, har, c2):
        child.add_argument("--out-format", default="edge-list",
                           choices=["edge-list", "graph6"])
        child.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("recognize",
                          help="structural minimality decision for k = 1")
    _add_params(sub, with_k=False)
    _add_graph_input(sub, _check_recognize)

    sub = subs.add_parser("audit", help="structural necessary-condition audits")
    _add_params(sub)
    sub.add_argument("--separator", default=None,
                     help="comma-separated vertices; audit this separator only")
    _add_graph_input(sub, _check_audit)

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
    _add_graph_input(sub, _check_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
