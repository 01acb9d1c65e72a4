"""Bitmask-backed simple undirected graphs.

Vertices are the integers 0..n-1 and each neighborhood is stored as an
integer bitmask, so intersection, union and subset tests on vertex sets are
single arithmetic operations for n <= 64 and degrade gracefully to Python's
arbitrary-precision integers beyond that.
"""

from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "mask_of",
    "bits",
    "vertex_tuple",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "empty_graph",
    "disjoint_union",
    "relabeled",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex labels into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_tuple(mask: int) -> tuple[int, ...]:
    """Bitmask -> ascending tuple of vertex labels."""
    return tuple(bits(mask))


class Graph:
    """Immutable simple undirected graph on vertex labels 0..n-1.

    ``adj[v]`` is the bitmask of v's neighbors. Instances are treated as
    immutable: all mutating-style operations return new graphs.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:  # bool too
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # Trusted fast path: caller guarantees symmetry and no self-loops.
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int:  # bool too
            raise ValueError(f"vertex {v!r} is not an int")
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- neighborhoods -----------------------------------------------------

    def neighborhood(self, v: int) -> set[int]:
        """Open neighborhood N(v)."""
        self._check_vertex(v)
        return set(bits(self.adj[v]))

    def neighborhood_mask(self, u_mask: int) -> int:
        """N(U) as a mask, U given as a mask."""
        acc = 0
        m = u_mask
        while m:
            low = m & -m
            acc |= self.adj[low.bit_length() - 1]
            m ^= low
        return acc & ~u_mask

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """True iff the given vertices are pairwise adjacent."""
        u_mask = 0
        for v in vertices:
            self._check_vertex(v)
            u_mask |= 1 << v
        m = u_mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if u_mask & ~low & ~self.adj[v]:
                return False
            m ^= low
        return True

    # -- derived graphs ----------------------------------------------------

    def remove_vertices(self, drop: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Delete a vertex set; relabel survivors to 0..n'-1 keeping order.

        Returns (new graph, kept) where kept[i] is the original label of the
        new vertex i. Old labels map forward via kept.index / bisect.
        """
        drop_mask = 0
        for v in drop:
            self._check_vertex(v)
            drop_mask |= 1 << v
        kept = [v for v in range(self.n) if not (drop_mask >> v & 1)]
        pos = {v: i for i, v in enumerate(kept)}
        adj = []
        for v in kept:
            m = self.adj[v] & ~drop_mask
            newm = 0
            while m:
                low = m & -m
                newm |= 1 << pos[low.bit_length() - 1]
                m ^= low
            adj.append(newm)
        return Graph._from_adj(len(kept), tuple(adj)), tuple(kept)

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertex set; see remove_vertices."""
        keep_mask = 0
        for v in keep:
            self._check_vertex(v)
            keep_mask |= 1 << v
        return self.remove_vertices(bits(self.full_mask & ~keep_mask))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- builders ---------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_adj(n, tuple(full ^ (1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph._from_adj(n, (0,) * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [m << a.n for m in b.adj]
    return Graph._from_adj(a.n + b.n, tuple(adj))


def relabeled(graph: Graph, perm: Iterable[int]) -> Graph:
    """Apply a relabeling: vertex v of the input becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(graph.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    adj = [0] * graph.n
    for v in range(graph.n):
        m = graph.adj[v]
        newm = 0
        while m:
            low = m & -m
            newm |= 1 << perm[low.bit_length() - 1]
            m ^= low
        adj[perm[v]] = newm
    return Graph._from_adj(graph.n, tuple(adj))
