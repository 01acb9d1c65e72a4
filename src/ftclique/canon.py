"""Canonical forms for small graphs.

Degree/color refinement plus individualization backtracking produces a
certificate (n, code) that is equal for two graphs exactly when they are
isomorphic (McKay and Piperno, "Practical graph isomorphism, II", 2014).
Each leaf of the search tree is a labeling, encoded as its adjacency
bits; the certificate is the least leaf code, and the canonical labeling
is the first leaf that reached it. Two leaves with one code differ by an
automorphism. At each node, a vertex whose orbit under the automorphisms
found so far that fix the node's individualized vertices meets an
explored sibling is skipped, since it leads to an identical subtree.

A leaf whose code an earlier leaf reached gives an automorphism that maps
the earlier leaf's path onto the current one. It fixes their common prefix
and maps the earlier child of that deepest common node, whose subtree is
explored, onto the current child, so the walk backjumps to that node and
skips the rest of the current child's subtree. Pruned leaves are images of
leaves already seen, with the same codes, so the certificate and labeling
do not depend on the pruning.

Refinement splits each cell by its vertices' neighbor counts into a list
of splitter cells, and sorts the parts by those counts. The root's first
round counts against every cell. A child's parent partition is already
equitable, so the only thing that can split a cell of the child is
adjacency to the individualized vertex v: its first round counts against
{v} alone, and sorting by that count gives the order the full count
gives. After any round, the vertices of one cell agree on every cell that
did not split, so each later round counts only against the parts the
last round produced. A vertex's counts are packed into one integer key,
n.bit_length() bits per splitter with the first splitter highest; no
count reaches n, so the keys sort exactly as the count tuples do. The
partitions, and so the certificates and labelings, are those of the full
count in every round.

automorphism_generators returns the automorphisms the search found at
leaves. Every leaf it prunes is the image of an explored leaf under the
group they generate, so they generate the whole automorphism group.

Intended for the search regime.
"""

from dataclasses import dataclass

from .graphs import Graph, bits

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_labeling",
    "canonical_graph",
    "automorphism_generators",
]

@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Certificate: vertex count plus packed canonical adjacency bits."""

    n: int
    code: int


def _encode(adj: tuple[int, ...], perm: tuple[int, ...]) -> int:
    # Bit t set iff canonical positions (i, j) are adjacent, pairs ordered
    # (0,1), (0,2), ..., (0,n-1), (1,2), ...
    code = 0
    bit = 1
    n = len(perm)
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            if ai >> perm[j] & 1:
                code |= bit
            bit <<= 1
    return code


def _refine(adj: tuple[int, ...], cells: list[int],
            against: list[int] | None = None) -> list[int]:
    # Split cells by neighbor counts until no cell splits. The grouping key
    # is label-free, so isomorphic graphs refine identically. The first
    # round counts against `against` (every cell by default), later rounds
    # only against the parts the last round produced. A vertex's counts
    # are packed into one int, `width` bits per splitter with the first
    # highest; no count reaches n, so the ints sort as the count tuples.
    width = len(adj).bit_length()
    if against is None:
        against = cells
    while True:
        new_cells: list[int] = []
        parts: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                key = 0
                for other in against:
                    key = key << width | (row & other).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            split = [groups[key] for key in sorted(groups)]
            new_cells += split
            parts += split
        if not parts:
            return cells
        cells = new_cells
        against = parts


def _canonize(graph: Graph) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    n = graph.n
    adj = graph.adj
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << v)
    cells = _refine(adj, [by_degree[d] for d in sorted(by_degree)])

    # leaves maps each leaf code to the first labeling that reached it and
    # that leaf's base (its individualized vertices); a later labeling with
    # the same code differs from it by an automorphism, kept in gens.
    leaves: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    gens: list[tuple[int, ...]] = []

    def orbit(v: int, base: tuple[int, ...]) -> int:
        # Mask of v's orbit under the generators found so far that fix
        # base pointwise.
        usable = [g for g in gens if all(g[b] == b for b in base)]
        reached = frontier = 1 << v
        while frontier:
            image = 0
            for u in bits(frontier):
                for g in usable:
                    image |= 1 << g[u]
            frontier = image & ~reached
            reached |= frontier
        return reached

    def walk(cells: list[int], base: tuple[int, ...]) -> int:
        # Explores the node with this base; returns the depth to resume at.
        depth = len(base)
        target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
        if target is None:
            perm = tuple(c.bit_length() - 1 for c in cells)
            prior, prior_base = leaves.setdefault(_encode(adj, perm), (perm, base))
            if prior == perm:
                return depth
            g = [0] * n
            for i in range(n):
                g[prior[i]] = perm[i]
            gens.append(tuple(g))
            # g maps the prior leaf's path onto this one, so it fixes their
            # common prefix and maps the prior child of that node, whose
            # subtree is explored, onto the current one: back up to it.
            return next(i for i in range(depth) if prior_base[i] != base[i])
        cell = cells[target]
        done = 0  # mask of the siblings already explored
        for v in bits(cell):
            # Vertices in one orbit of base-fixing automorphisms lead to
            # identical subtrees; explore one representative.
            if done and orbit(v, base) & done:
                continue
            done |= 1 << v
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1 :]
            # The parent partition is equitable, so only adjacency to v can
            # split a cell of the child.
            resume = walk(_refine(adj, child, [1 << v]), base + (v,))
            if resume < depth:
                return resume
        return depth

    walk(cells, ())
    code = min(leaves)
    return code, leaves[code][0], gens


def canonical_form(graph: Graph) -> CanonicalForm:
    """Certificate equal across all relabelings of the graph, and only those."""
    code, _, _ = _canonize(graph)
    return CanonicalForm(graph.n, code)


def canonical_labeling(graph: Graph) -> tuple[int, ...]:
    """perm with perm[i] = input vertex placed at canonical position i."""
    _, perm, _ = _canonize(graph)
    return perm


def automorphism_generators(graph: Graph) -> list[tuple[int, ...]]:
    """Generators of the whole automorphism group: permutations g that map
    vertex v to g[v]; [] when the group is trivial."""
    _, _, gens = _canonize(graph)
    return gens


def canonical_graph(form: CanonicalForm) -> Graph:
    """Rebuild the canonically labeled graph from a certificate."""
    n = form.n
    edges = []
    bit = 1
    for i in range(n):
        for j in range(i + 1, n):
            if form.code & bit:
                edges.append((i, j))
            bit <<= 1
    return Graph(n, edges)
