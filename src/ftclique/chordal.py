"""Chordality testing with certificates in both directions.

A chordal verdict comes with a clique tree (parts = maximal cliques,
adhesion sets on tree edges); a non-chordal verdict comes with a chordless
cycle of length >= 4. Either certificate can be replayed against the graph.

Both come from one maximum cardinality search (MCS) walk: the test and
the path that closes the cycle follow Tarjan and Yannakakis (SIAM J.
Comput. 13, 1984), the clique tree Blair and Peyton ("An introduction to
chordal graphs and clique trees", 1993).

The minimal separators of a chordal graph are exactly the adhesions of
its clique tree (Blair and Peyton), so the tree's own methods read the
vertex connectivity, the blocks and the size-k separators off its edges
with no flow and no subset sweep.
"""

from dataclasses import dataclass

from .blocks import BlockDecomposition, _decomposition
from .connectivity import component_masks, shortest_path
from .graphs import Graph, bits, mask_of, vertex_tuple

__all__ = ["CliqueTree", "ChordalityResult", "chordality"]


@dataclass(frozen=True)
class CliqueTree:
    """Tree decomposition whose parts are exactly the maximal cliques.

    tree_edges entries are (i, j, adhesion) with i < j indexing parts; the
    adhesion multiset equals the minimal-separator multiset of the graph.
    """

    parts: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int, tuple[int, ...]], ...]

    def vertex_connectivity(self) -> int:
        """The smallest adhesion: n - 1 for a tree of one part, 0 for a
        disconnected graph, whose components the tree joins by empty
        adhesions."""
        return min((len(a) for _, _, a in self.tree_edges),
                   default=len(self.parts[0]) - 1 if self.parts else 0)

    def blocks(self) -> BlockDecomposition:
        """The unions of the parts that adhesions of two or more vertices
        join; the cutvertices are the one-vertex adhesions. An isolated
        vertex is a part, and so a block, of its own."""
        joined = [0] * len(self.parts)
        cuts = 0
        for i, j, adhesion in self.tree_edges:
            if len(adhesion) >= 2:
                joined[i] |= 1 << j
                joined[j] |= 1 << i
            elif adhesion:
                cuts |= 1 << adhesion[0]
        found = [mask_of(v for i in bits(group) for v in self.parts[i])
                 for group in component_masks(joined, (1 << len(joined)) - 1)]
        return _decomposition(found, cuts)

    def size_k_separators(self, k: int) -> list[tuple[int, ...]] | None:
        """The k-subsets whose removal disconnects the graph, in
        lexicographic order, or None when an adhesion has fewer than k
        vertices. Otherwise a separating k-set holds a minimal separator,
        an adhesion of at least k vertices, so it is that adhesion."""
        adhesions = {a for _, _, a in self.tree_edges}
        if any(len(a) < k for a in adhesions):
            return None
        return sorted(a for a in adhesions if len(a) == k)


@dataclass(frozen=True)
class ChordalityResult:
    is_chordal: bool
    clique_tree: CliqueTree | None
    witness_cycle: tuple[int, ...] | None


def chordality(graph: Graph) -> ChordalityResult:
    """Classify the graph as chordal (clique tree) or not (chordless cycle).

    MCS visits next the least unvisited vertex among those with the most
    visited neighbors; bucket[w] holds the unvisited vertices with w
    visited neighbors, so the next one is the least of the top nonempty
    bucket. For each vertex v in that order, `last` is its earlier
    neighbor visited last. An earlier neighbor u not adjacent to `last`
    proves the graph is not chordal: a shortest u-last path avoiding the
    rest of N[v] is induced, and with v it closes a chordless cycle.
    Otherwise v joins the current clique if it has more earlier neighbors
    than the vertex visited before it, and else opens the clique
    earlier(v) + v, linked to the clique holding `last` (to clique 0, with
    an empty adhesion, when v starts a new component).
    """
    n = graph.n
    adj = graph.adj
    bucket = [graph.full_mask] + [0] * n
    count = [0] * n
    # last_of[w]: w's neighbor visited latest so far. Vertex 0, which MCS
    # visits first, stands in for none, so a new component links to clique 0.
    last_of = [0] * n
    clique_of = [0] * n
    cliques: list[int] = []
    links: list[tuple[int, int]] = []
    visited = prev_size = size = 0
    for _ in range(n):
        while not bucket[size]:
            size -= 1
        low = bucket[size] & -bucket[size]
        bucket[size] ^= low
        v = low.bit_length() - 1
        e = adj[v] & visited
        last = last_of[v]
        visited |= low
        for w in bits(adj[v] & ~visited):
            bucket[count[w]] ^= 1 << w
            count[w] += 1
            bucket[count[w]] |= 1 << w
            last_of[w] = v
        stray = e & ~adj[last] & ~(1 << last)
        if stray:
            u = (stray & -stray).bit_length() - 1
            allowed = (graph.full_mask & ~adj[v] & ~low) | (1 << u) | (1 << last)
            cycle = (v, *shortest_path(adj, u, last, allowed))
            return ChordalityResult(False, None, cycle)
        if size > prev_size:
            cliques[-1] |= low
        else:
            if cliques:
                links.append((clique_of[last], len(cliques)))
            cliques.append(e | low)
        clique_of[v] = len(cliques) - 1
        prev_size = size
        size += 1  # no unvisited vertex has more visited neighbors now

    ranked = sorted(cliques, key=vertex_tuple)
    rank = {m: r for r, m in enumerate(ranked)}
    tree_edges = sorted(
        (*sorted((rank[cliques[i]], rank[cliques[j]])), vertex_tuple(cliques[i] & cliques[j]))
        for i, j in links
    )
    tree = CliqueTree(tuple(map(vertex_tuple, ranked)), tuple(tree_edges))
    return ChordalityResult(True, tree, None)
