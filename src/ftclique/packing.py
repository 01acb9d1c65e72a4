"""Disjoint clique packings: a pruned backtracking engine plus a slow oracle.

The engine and the oracle deliberately share no search logic; the oracle
enumerates disjoint vertex-set families in lexicographic order and only then
tests cliqueness, so it can arbitrate disagreements at small scale.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph, vertex_tuple

__all__ = [
    "CliquePacking",
    "OracleBudgetError",
    "find_disjoint_cliques",
    "oracle_packing_exists",
    "is_valid_packing",
    "has_clique_containing",
    "clique_containing",
]


class OracleBudgetError(ValueError):
    """The brute-force oracle refuses instances beyond its pinned budget."""


@dataclass(frozen=True)
class CliquePacking:
    """p pairwise disjoint c-cliques, each ascending, ordered by least vertex."""

    cliques: tuple[tuple[int, ...], ...]


def _check_params(p: int, c: int) -> None:
    if not type(p) is type(c) is int:  # bool too
        raise ValueError(f"p and c must be integers, got {p!r}, {c!r}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")


def find_disjoint_cliques(graph: Graph, p: int, c: int,
                          allowed: int | None = None) -> CliquePacking | None:
    """First packing of p disjoint c-cliques in lexicographic order, or None.

    Only vertices in the `allowed` mask (default: all) are used, so the
    result equals packing the induced subgraph on them and mapping back.
    Backtracking over masks with three prunings: when the pool holds
    exactly p*c vertices the least available vertex must be covered, so
    cliques are anchored there; any available vertex with fewer than c-1
    available neighbors is discarded (or dooms the branch in the perfect
    case); branches with fewer available vertices than demanded are cut.
    The discard is a (c-1)-core peel kept up to date locally: a step
    re-checks only the neighbors of what it removed (the placed clique, a
    skipped anchor, or the vertices just peeled), since no other vertex
    lost an available neighbor.
    """
    _check_params(p, c)
    pool = graph.full_mask if allowed is None else allowed & graph.full_mask
    size = pool.bit_count()
    if p * c > size:
        return None
    adj = graph.adj
    perfect = p * c == size
    need_nbrs = c - 1
    chosen: list[int] = []

    def place(avail: int, left: int, dirty: int) -> bool:
        # Every vertex of avail outside `dirty` has need_nbrs neighbors in
        # avail, so only `dirty` is re-checked.
        if left == 0:
            return True
        dirty &= avail
        while dirty:
            weak = touched = 0
            rest = dirty
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = adj[low.bit_length() - 1]
                if (nbrs & avail).bit_count() < need_nbrs:
                    if perfect:
                        return False
                    weak |= low
                    touched |= nbrs
            avail &= ~weak
            dirty = touched & avail
        if avail.bit_count() < left * c:
            return False
        anchor_bit = avail & -avail
        anchor = anchor_bit.bit_length() - 1
        if grow(anchor_bit, adj[anchor] & avail, c - 1, avail, left, adj[anchor]):
            return True
        if perfect:
            return False
        return place(avail & ~anchor_bit, left, adj[anchor])

    def grow(members: int, cands: int, missing: int, avail: int, left: int,
             touched: int) -> bool:
        if missing == 0:
            chosen.append(members)
            if place(avail & ~members, left - 1, touched):
                return True
            chosen.pop()
            return False
        if cands.bit_count() < missing:
            return False
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            if grow(members | low, rest & nbrs, missing - 1, avail, left, touched | nbrs):
                return True
        return False

    if place(pool, p, pool):
        return CliquePacking(tuple(vertex_tuple(m) for m in chosen))
    return None


def _families(pool: tuple[int, ...], count: int, c: int, prev: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if count == 0:
        yield ()
        return
    for sub in combinations(pool, c):
        if sub <= prev:
            continue
        remaining = tuple(v for v in pool if v not in sub)
        for rest in _families(remaining, count - 1, c, sub):
            yield (sub, *rest)


def oracle_packing_exists(graph: Graph, p: int, c: int) -> bool:
    """Reference decision by exhaustive family enumeration.

    Enumerates unordered families of p disjoint c-subsets in lexicographic
    order with no pruning beyond disjointness, then tests cliqueness.
    Refuses instances beyond the pinned budget p*c <= 12 or n <= 12.
    """
    _check_params(p, c)
    if p * c > 12 and graph.n > 12:
        raise OracleBudgetError(
            f"oracle budget is p*c <= 12 or n <= 12; got p*c = {p * c}, n = {graph.n}"
        )
    if p * c > graph.n:
        return False
    pool = tuple(range(graph.n))
    for family in _families(pool, p, c, ()):
        if all(graph.is_clique(sub) for sub in family):
            return True
    return False


def is_valid_packing(graph: Graph, packing: CliquePacking, p: int, c: int) -> bool:
    """Replay a claimed packing: sizes, disjointness, cliqueness."""
    if len(packing.cliques) != p:
        return False
    seen: set[int] = set()
    for clique in packing.cliques:
        if len(clique) != c or len(set(clique)) != c:
            return False
        if seen.intersection(clique):
            return False
        seen.update(clique)
        if not graph.is_clique(clique):
            return False
    return True


def clique_containing(graph: Graph, v: int, c: int, allowed: int | None = None) -> int | None:
    """Mask of the lexicographically first c-clique through v drawn from the
    `allowed` mask, or None if there is none."""
    graph._check_vertex(v)
    if type(c) is not int:  # bool too
        raise ValueError(f"c must be an integer, got {c!r}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    adj = graph.adj
    pool = graph.full_mask if allowed is None else allowed
    if not (pool >> v & 1):
        return None

    def extend(members: int, cands: int, missing: int) -> int | None:
        if missing == 0:
            return members
        if cands.bit_count() < missing:
            return None
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            found = extend(members | low, rest & adj[low.bit_length() - 1], missing - 1)
            if found is not None:
                return found
        return None

    return extend(1 << v, adj[v] & pool, c - 1)


def has_clique_containing(graph: Graph, v: int, c: int, allowed: int | None = None) -> bool:
    """True iff some c-clique contains v, drawn from the `allowed` mask."""
    return clique_containing(graph, v, c, allowed) is not None
