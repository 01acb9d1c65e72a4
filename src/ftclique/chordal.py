"""Chordality testing with certificates in both directions.

A chordal verdict comes with a clique tree (parts = maximal cliques,
adhesion sets on tree edges); a non-chordal verdict comes with a chordless
cycle of length >= 4. Either certificate can be replayed against the graph.

Both come from one walk over a maximum cardinality search (MCS) order:
the test and the path that closes the cycle follow Tarjan and Yannakakis
(SIAM J. Comput. 13, 1984), the clique tree Blair and Peyton ("An
introduction to chordal graphs and clique trees", 1993).

The minimal separators of a chordal graph are exactly the adhesions of
its clique tree (Blair and Peyton), so `separator_structure` reads the
vertex connectivity, the blocks and the size-k separators off the tree
with no flow and no subset sweep.
"""

from dataclasses import dataclass

from .blocks import BlockDecomposition
from .connectivity import shortest_path
from .graphs import Graph, bits, mask_of, vertex_tuple

__all__ = [
    "CliqueTree",
    "ChordalityResult",
    "chordality",
    "SeparatorStructure",
    "separator_structure",
]


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


@dataclass(frozen=True)
class SeparatorStructure:
    """The separators of a chordal graph, read off its clique tree.

    adhesions holds the distinct adhesion sets in lexicographic order; the
    empty one is there exactly when the graph is disconnected.
    """

    vertex_connectivity: int
    blocks: BlockDecomposition
    adhesions: tuple[tuple[int, ...], ...]

    def size_k_separators(self, k: int) -> list[tuple[int, ...]] | None:
        """The k-subsets whose removal disconnects the graph, in
        lexicographic order, or None when an adhesion has fewer than k
        vertices. Otherwise a separating k-set holds a minimal separator,
        an adhesion of at least k vertices, so it is that adhesion."""
        if any(len(a) < k for a in self.adhesions):
            return None
        return [a for a in self.adhesions if len(a) == k]


def separator_structure(tree: CliqueTree) -> SeparatorStructure:
    """Vertex connectivity, blocks and separators of the graph of a clique tree.

    The vertex connectivity is the smallest adhesion: n - 1 for a tree of
    one part and 0 for a disconnected graph, whose components the tree
    joins by empty adhesions. The blocks are the unions of the parts that
    adhesions of two or more vertices join, the cutvertices the
    one-vertex adhesions; an isolated vertex is a part, and so a block,
    of its own.
    """
    parts = tree.parts
    root = list(range(len(parts)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    cuts = 0
    for i, j, adhesion in tree.tree_edges:
        if len(adhesion) >= 2:
            root[find(j)] = find(i)
        elif adhesion:
            cuts |= 1 << adhesion[0]
    merged: dict[int, int] = {}
    for i, part in enumerate(parts):
        r = find(i)
        merged[r] = merged.get(r, 0) | mask_of(part)
    block_sets = sorted(vertex_tuple(m) for m in merged.values())
    tree_edges = tuple(
        (bi, v) for bi, bl in enumerate(block_sets) for v in bl if cuts >> v & 1
    )
    kappa = min((len(a) for _, _, a in tree.tree_edges),
                default=len(parts[0]) - 1 if parts else 0)
    return SeparatorStructure(
        kappa,
        BlockDecomposition(tuple(block_sets), vertex_tuple(cuts), tree_edges),
        tuple(sorted({a for _, _, a in tree.tree_edges})),
    )
