"""Blocks (maximal 2-connected subgraphs), cutvertices, block-cut tree.

The blocks come from splitting at cutvertices. The pieces start as the
components, and each vertex w is tried once, in the one piece that holds
it: when deleting w disconnects the piece, the piece is replaced by each
component of the piece minus w, plus w. Each such part holds exactly one
block through w, so w never splits a part again, while every other
cutvertex of the piece stays a cutvertex of its part. The pieces that no
vertex splits are the blocks.
"""

from dataclasses import dataclass

from .connectivity import component_masks
from .graphs import Graph, bits, vertex_tuple

__all__ = ["BlockDecomposition", "blocks"]


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks as vertex sets, the cutvertices, and the bipartite tree edges.

    tree_edges pairs a block index with a cutvertex it contains; for a
    connected input this incidence structure is a tree.
    """

    blocks: tuple[tuple[int, ...], ...]
    cutvertices: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]


def _decomposition(found: list[int], cuts: int) -> BlockDecomposition:
    """The decomposition with blocks the vertex masks `found`, sorted as
    vertex tuples, and cutvertices the mask `cuts`."""
    block_sets = sorted(map(vertex_tuple, found))
    tree_edges = tuple(
        (bi, v) for bi, bl in enumerate(block_sets) for v in bl if cuts >> v & 1
    )
    return BlockDecomposition(tuple(block_sets), vertex_tuple(cuts), tree_edges)


def _splits(adj: tuple[int, ...], piece: int, w: int) -> int:
    """The component of the connected piece (a vertex mask) minus w that
    holds one neighbor of w, when deleting w disconnects the piece; else 0.

    Searches the piece minus w from one neighbor of w and stops once it
    has reached all of w's other neighbors there. On a split it never
    reaches them, so it runs until it has reached its whole component.
    """
    rest = piece & ~(1 << w)
    targets = adj[w] & rest
    reach = frontier = targets & -targets
    while frontier and targets & ~reach:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & rest & ~reach
        reach |= frontier
    return reach if targets & ~reach else 0


def blocks(graph: Graph) -> BlockDecomposition:
    """Block decomposition by splitting each piece at its cutvertices.

    A bridge is a 2-vertex block; an isolated vertex is its own block.
    Every edge lands in exactly one block; blocks pairwise share at most one
    vertex, and every shared vertex is a cutvertex. `component_masks` runs
    once for the components and once per cutvertex, on what the split
    search did not reach.
    """
    adj = graph.adj
    pending = component_masks(adj, graph.full_mask)
    found = []
    tried = cuts = 0
    while pending:
        piece = pending.pop()
        for w in bits(piece & ~tried):
            tried |= 1 << w
            reach = _splits(adj, piece, w)
            if reach:
                cuts |= 1 << w
                parts = [reach, *component_masks(adj, piece & ~reach & ~(1 << w))]
                pending += [part | 1 << w for part in parts]
                break
        else:
            found.append(piece)

    return _decomposition(found, cuts)
