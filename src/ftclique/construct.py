"""Constructions that realize the best known edge counts.

tree_of_cliques glues (k+c)-cliques along a tree, each part sharing k
vertices with its parent, which keeps the graph chordal with all minimal
separators of size k; it has p*c + k vertices and hub_edge_bound(k, p, c)
edges. star_construction, the hub K_k joined to p disjoint K_c's, is the
tree whose parts all hang off the root's first k slots.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bits, cycle_graph, vertex_tuple
from .verify import FTParams

__all__ = [
    "star_construction",
    "TreeTemplate",
    "tree_of_cliques",
    "contract_neighborhood",
    "odd_cycle",
    "harary",
    "c2_even_k_construction",
]


def star_construction(k: int, p: int, c: int) -> Graph:
    """Hub K_k on labels 0..k-1, joined completely to p disjoint K_c's.

    Clique i occupies labels k + i*c .. k + (i+1)*c - 1. Any k deletions
    are outweighed inside each damaged clique by the surviving hub part.
    """
    return tree_of_cliques(k, c, TreeTemplate.star(p, k))


Gluing = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True)
class TreeTemplate:
    """Gluing plan for tree_of_cliques.

    Parts are numbered 0..p-1 with part 0 the root. Each non-root part has
    one gluing (parent, child, slots): the child reuses the k vertices at
    the given slot indices (0..k+c-1) of its parent's clique. Within any
    part, slots 0..k-1 are the inherited vertices (fresh for the root) and
    slots k..k+c-1 are the c fresh vertices. path and star build the two
    built-in plans; any other plan is written out as its gluings.
    """

    p: int
    gluings: tuple[Gluing, ...]

    def validate(self, k: int, c: int) -> list[Gluing]:
        """Raise ValueError unless this is a tree plan for (k, p, c).

        Returns the gluings breadth first from the root, each part's
        children in ascending order: the order tree_of_cliques labels them.
        """
        FTParams(k, self.p, c)
        p = self.p
        for parent, child, slots in self.gluings:
            if not (type(parent) is type(child) is int and type(slots) in (tuple, list)
                    and all(type(s) is int for s in slots)):  # bool too
                raise ValueError(f"gluing {(parent, child, slots)!r} is not of ints")
        glued = sorted(self.gluings, key=lambda g: g[1])
        # count first: a header's p alone must not size a list
        if len(glued) != p - 1 or [child for _, child, _ in glued] != list(range(1, p)):
            raise ValueError(f"a template needs exactly one gluing for each part 1..{p - 1}")
        kids: list[list[Gluing]] = [[] for _ in range(p)]
        for gluing in glued:
            parent, child, slots = gluing
            if not 0 <= parent < p:
                raise ValueError(f"part {child} has parent {parent} out of 0..{p - 1}")
            if len(slots) != k or len(set(slots)) != k:
                raise ValueError(
                    f"part {child} must attach at exactly k = {k} distinct slots"
                )
            if any(not (0 <= s < k + c) for s in slots):
                raise ValueError(f"part {child} attachment slot out of 0..{k + c - 1}")
            kids[parent].append(gluing)
        order = list(kids[0])
        for _, child, _ in order:  # also visits the gluings it appends
            order.extend(kids[child])
        if len(order) != p - 1:
            raise ValueError("gluings must reach every part from the root")
        return order

    @classmethod
    def path(cls, p: int, k: int, c: int) -> "TreeTemplate":
        """Chain of parts; each child reuses its parent's k newest vertices,
        slots c..c+k-1, which are the newest only when k <= c."""
        if k > c:
            raise ValueError("newest attachment needs k <= c")
        slots = tuple(range(c, c + k))
        return cls(p, tuple((i, i + 1, slots) for i in range(p - 1)))

    @classmethod
    def star(cls, p: int, k: int) -> "TreeTemplate":
        """All parts hang off the root's first k vertices, slots 0..k-1."""
        slots = tuple(range(k))
        return cls(p, tuple((0, i, slots) for i in range(1, p)))


def tree_of_cliques(k: int, c: int, template: TreeTemplate) -> Graph:
    """Glue (k+c)-cliques along a tree, children sharing k parent vertices.

    Needs k >= 0, p >= 1 and c >= 2, as FTParams does. Fresh labels are
    assigned root-first in breadth order, so the root part is 0..k+c-1 and
    every later part adds c consecutive labels. The result is chordal with
    all maximal cliques of size k+c and all minimal separators of size k,
    has p*c + k vertices and hub_edge_bound(k, p, c) edges.
    """
    order = template.validate(k, c)
    labels = {0: range(k + c)}
    edges = list(combinations(labels[0], 2))
    for i, (parent, child, slots) in enumerate(order, start=1):
        fresh = range(k + i * c, k + (i + 1) * c)
        labels[child] = [labels[parent][s] for s in slots] + list(fresh)
        edges.extend(combinations(labels[child], 2))
    return Graph(template.p * c + k, edges)


def contract_neighborhood(graph: Graph, params: FTParams, x: int) -> Graph:
    """Replace N[x] by a fresh K_k joined to N(N[x]), shrinking p by one.

    Requires the critical order p*c + k, degree(x) == c + k - 1, p >= 2,
    and N[x] a clique (guaranteed when the input is accepted and k == 1;
    supplied graphs violating it are rejected). Survivors keep their
    relative order at labels 0..n-c-k-1; the new hub takes the top k
    labels. For k != 1 the preservation of acceptance is unproven, so a
    warning is issued and callers should re-verify the output.
    """
    k, p, c = params.k, params.p, params.c
    graph._check_vertex(x)
    if graph.n != params.critical_order:
        raise ValueError(
            f"contraction needs order p*c + k = {params.critical_order}, got {graph.n}"
        )
    if p < 2:
        raise ValueError("contraction needs p >= 2; nothing would remain")
    d = graph.degree(x)
    if d != c + k - 1:
        raise ValueError(f"vertex {x} has degree {d}, need exactly c + k - 1 = {c + k - 1}")
    closed = graph.adj[x] | (1 << x)
    if not graph.is_clique(bits(closed)):
        raise ValueError(f"closed neighborhood of {x} is not a clique")
    if k != 1:
        warnings.warn(
            "contraction is only known to preserve acceptance for k = 1; "
            "re-verify the result",
            stacklevel=2,
        )
    boundary = graph.neighborhood_mask(closed)
    survivors, kept = graph.remove_vertices(vertex_tuple(closed))
    pos = {v: i for i, v in enumerate(kept)}
    base = survivors.n
    edges = survivors.edges()
    edges.extend(combinations(range(base, base + k), 2))
    for b in bits(boundary):
        edges.extend((pos[b], base + h) for h in range(k))
    return Graph(base + k, edges)


def odd_cycle(p: int) -> Graph:
    """C_{2p+1}: survives any one deletion while keeping p disjoint edges."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return cycle_graph(2 * p + 1)


def harary(m: int, n: int) -> Graph:
    """Circulant-style graph on n vertices with connectivity m and
    ceil(m*n/2) edges: offsets 1..m//2, plus diameters when m is odd
    (one extra near-diameter edge when n is odd too)."""
    if not 2 <= m < n:
        raise ValueError(f"need 2 <= m < n, got m={m}, n={n}")
    # Graph ORs a repeated edge (v, w) or (w, v) into the same bit.
    edges = [(v, (v + off) % n) for off in range(1, m // 2 + 1) for v in range(n)]
    if m % 2 == 1:
        edges += [(v, (v + n // 2) % n) for v in range((n + 1) // 2)]
    return Graph(n, edges)


def c2_even_k_construction(k: int, p: int) -> Graph:
    """Accepted graph for (k, p, c=2) with (2p+k)(k+1)/2 edges, beating the
    hub bound; exists for even k in the narrow regime 2p + k <= 2k - 2."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if k % 2 != 0:
        raise ValueError(f"k must be even, got {k}")
    if 2 * p + k > 2 * k - 2:
        raise ValueError(
            f"regime requires 2p + k <= 2k - 2; got 2p + k = {2 * p + k}, "
            f"2k - 2 = {2 * k - 2}"
        )
    return harary(k + 1, 2 * p + k)
