"""Chordality testing with certificates in both directions.

A chordal verdict comes with a clique tree (parts = maximal cliques,
adhesion sets on tree edges); a non-chordal verdict comes with a chordless
cycle of length >= 4. Either certificate can be replayed against the graph.
"""

from dataclasses import dataclass
from itertools import combinations

from .connectivity import shortest_path
from .graphs import Graph, bits, vertex_tuple

__all__ = ["CliqueTree", "ChordalityResult", "chordality", "find_chordless_cycle"]


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


def find_chordless_cycle(graph: Graph) -> tuple[int, ...] | None:
    """An induced cycle of length >= 4, or None if none exists.

    For each vertex v and non-adjacent pair u, y in N(v), a shortest u-y
    path avoiding the rest of N[v] closes into a cycle with no chord: the
    path is shortest inside an induced subgraph, its interior avoids N(v),
    and u, y are non-adjacent. Every induced cycle is found this way from
    any three consecutive vertices, so the scan is complete.
    """
    n = graph.n
    adj = graph.adj
    full = graph.full_mask
    for v in range(n):
        nb = list(bits(adj[v]))
        for u, y in combinations(nb, 2):
            if adj[u] >> y & 1:
                continue
            allowed = (full & ~adj[v] & ~(1 << v)) | (1 << u) | (1 << y)
            path = shortest_path(adj, u, y, allowed)
            if path is not None:
                return (v, *path)
    return None


def chordality(graph: Graph) -> ChordalityResult:
    """Classify the graph as chordal (clique tree) or not (chordless cycle)."""
    n = graph.n
    adj = graph.adj
    order, earlier = _mcs(graph)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i

    for v in order:
        e = earlier[v]
        if e.bit_count() <= 1:
            continue
        # p = the earlier neighbor visited last; all other earlier
        # neighbors must be adjacent to p, else no perfect elimination
        # order exists.
        p = max(bits(e), key=lambda u: pos[u])
        rest = e & ~(1 << p)
        if rest & ~adj[p]:
            cycle = find_chordless_cycle(graph)
            return ChordalityResult(False, None, cycle)

    # Chordal: candidate cliques {v} + earlier(v); keep the maximal ones.
    cand = sorted({(1 << v) | earlier[v] for v in range(n)}, key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in cand:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    parts = sorted(vertex_tuple(m) for m in kept)
    part_masks = [sum(1 << v for v in part) for part in parts]

    # Maximum-weight spanning tree over pairwise intersections; weight-0
    # edges are allowed so disconnected inputs still get a single tree.
    q = len(parts)
    tree_edges: list[tuple[int, int, tuple[int, ...]]] = []
    if q > 1:
        pairs = sorted(
            ((i, j) for i in range(q) for j in range(i + 1, q)),
            key=lambda ij: (-(part_masks[ij[0]] & part_masks[ij[1]]).bit_count(), ij),
        )
        root = list(range(q))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                root[ri] = rj
                adhesion = vertex_tuple(part_masks[i] & part_masks[j])
                tree_edges.append((i, j, adhesion))
                if len(tree_edges) == q - 1:
                    break

    tree = CliqueTree(tuple(parts), tuple(sorted(tree_edges)))
    return ChordalityResult(True, tree, None)
