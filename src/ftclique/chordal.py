"""Chordality testing with certificates in both directions.

A chordal verdict comes with a clique tree (parts = maximal cliques,
adhesion sets on tree edges); a non-chordal verdict comes with a chordless
cycle of length >= 4. Either certificate can be replayed against the graph.

Both come from one walk over a maximum cardinality search (MCS) order:
the test and the path that closes the cycle follow Tarjan and Yannakakis
(SIAM J. Comput. 13, 1984), the clique tree Blair and Peyton ("An
introduction to chordal graphs and clique trees", 1993).
"""

from dataclasses import dataclass

from .connectivity import shortest_path
from .graphs import Graph, bits, vertex_tuple

__all__ = ["CliqueTree", "ChordalityResult", "chordality"]


@dataclass(frozen=True)
class CliqueTree:
    """Tree decomposition whose parts are exactly the maximal cliques.

    tree_edges entries are (i, j, adhesion) with i < j indexing parts; the
    adhesion multiset equals the minimal-separator multiset of the graph.
    """

    parts: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ChordalityResult:
    is_chordal: bool
    clique_tree: CliqueTree | None
    witness_cycle: tuple[int, ...] | None


def _mcs(graph: Graph) -> tuple[list[int], list[int]]:
    """Maximum cardinality search: visit order + earlier-neighbor masks."""
    n = graph.n
    adj = graph.adj
    weight = [0] * n
    visited = 0
    order: list[int] = []
    earlier = [0] * n
    for _ in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not (visited >> v & 1) and weight[v] > best_w:
                best = v
                best_w = weight[v]
        earlier[best] = adj[best] & visited
        visited |= 1 << best
        order.append(best)
        for u in bits(adj[best] & ~visited):
            weight[u] += 1
    return order, earlier


def chordality(graph: Graph) -> ChordalityResult:
    """Classify the graph as chordal (clique tree) or not (chordless cycle).

    For each vertex v in MCS order, `last` is its earlier neighbor visited
    last. An earlier neighbor u not adjacent to `last` proves the graph is
    not chordal: a shortest u-last path avoiding the rest of N[v] is
    induced, and with v it closes a chordless cycle. Otherwise v joins the
    current clique if it has more earlier neighbors than the vertex
    visited before it, and else opens the clique earlier(v) + v, linked to
    the clique holding `last` (to clique 0, with an empty adhesion, when v
    starts a new component).
    """
    n = graph.n
    adj = graph.adj
    order, earlier = _mcs(graph)
    # last_of[w]: w's neighbor visited latest so far. Vertex 0, which MCS
    # visits first, stands in for none, so a new component links to clique 0.
    last_of = [0] * n
    clique_of = [0] * n
    cliques: list[int] = []
    links: list[tuple[int, int]] = []
    visited = prev_size = 0
    for v in order:
        e = earlier[v]
        size = e.bit_count()
        last = last_of[v]
        visited |= 1 << v
        for w in bits(adj[v] & ~visited):
            last_of[w] = v
        stray = e & ~adj[last] & ~(1 << last)
        if stray:
            u = (stray & -stray).bit_length() - 1
            allowed = (graph.full_mask & ~adj[v] & ~(1 << v)) | (1 << u) | (1 << last)
            cycle = (v, *shortest_path(adj, u, last, allowed))
            return ChordalityResult(False, None, cycle)
        if size > prev_size:
            cliques[-1] |= 1 << v
        else:
            if cliques:
                links.append((clique_of[last], len(cliques)))
            cliques.append(e | 1 << v)
        clique_of[v] = len(cliques) - 1
        prev_size = size

    ranked = sorted(cliques, key=vertex_tuple)
    rank = {m: r for r, m in enumerate(ranked)}
    tree_edges = sorted(
        (*sorted((rank[cliques[i]], rank[cliques[j]])), vertex_tuple(cliques[i] & cliques[j]))
        for i, j in links
    )
    tree = CliqueTree(tuple(map(vertex_tuple, ranked)), tuple(tree_edges))
    return ChordalityResult(True, tree, None)
