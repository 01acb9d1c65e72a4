"""Fault-tolerance verification.

A graph is accepted for parameters (k, p, c) when every deletion of at most
k vertices leaves p pairwise disjoint c-cliques. Only deletions of exactly
k vertices need checking: removing fewer leaves a supergraph of some
exactly-k deletion on the same surviving vertices, and clique packings
survive taking supergraphs.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

from .graphs import Graph, mask_of
from .packing import CliquePacking, find_disjoint_cliques, oracle_packing_exists

__all__ = [
    "FTParams",
    "FTVerdict",
    "hub_edge_bound",
    "verify_ft",
    "verify_ft_oracle",
    "MinimumCandidacy",
    "is_minimum_candidate",
]

_PARALLEL_THRESHOLD = 256


@dataclass(frozen=True)
class FTParams:
    """Fault-tolerance parameters: survive any k deletions keeping p K_c's."""

    k: int
    p: int
    c: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.c < 2:
            raise ValueError(f"c must be >= 2, got {self.c}")

    @property
    def critical_order(self) -> int:
        """Fewest vertices any accepted graph can have: p*c + k."""
        return self.p * self.c + self.k


@dataclass(frozen=True)
class FTVerdict:
    """Outcome of a verification scan.

    counterexample, when set, is the lexicographically least failing
    deletion set; witness_count is the number of k-subsets checked (its
    position in lexicographic order plus one on failure, C(n, k) on
    success). sample_witnesses optionally maps leading k-subsets to a
    packing that survives them, in original vertex labels.
    """

    holds: bool
    counterexample: tuple[int, ...] | None
    witness_count: int
    sample_witnesses: dict[tuple[int, ...], CliquePacking] | None = None
    reason: str | None = field(default=None, compare=False)


def hub_edge_bound(k: int, p: int, c: int) -> int:
    """Edge count of the hub construction: (C(c,2) + c*k)*p + C(k,2).

    The best known upper bound for the minimum size of an accepted graph on
    p*c + k vertices; proven tight for k <= 1 and for p == 1.
    """
    return (comb(c, 2) + c * k) * p + comb(k, 2)


def degree_floor(k: int, c: int) -> int:
    """Minimum degree forced at the critical order: c + k - 1."""
    return c + k - 1


def _scan(args: tuple) -> tuple[int | None, tuple[int, ...] | None,
                                list[tuple[int, tuple[int, ...], CliquePacking]]]:
    """Check the k-subsets of lexicographic rank lo..hi-1 in order.

    Returns (first failing rank, its subset, witnesses), the first two None
    when every subset survives; witnesses are (rank, subset, packing) for
    surviving ranks below max_witnesses. Each packing is searched on the
    original labels inside the mask of survivors.
    """
    graph, k, p, c, lo, hi, max_witnesses = args
    full = graph.full_mask
    witnesses: list[tuple[int, tuple[int, ...], CliquePacking]] = []
    subsets = islice(combinations(range(graph.n), k), lo, hi)
    for rank, subset in enumerate(subsets, lo):
        packing = find_disjoint_cliques(graph, p, c, full & ~mask_of(subset))
        if packing is None:
            return rank, subset, witnesses
        if rank < max_witnesses:
            witnesses.append((rank, subset, packing))
    return None, None, witnesses


def verify_ft(graph: Graph, params: FTParams, *, max_witnesses: int = 0,
              jobs: int = 1) -> FTVerdict:
    """Scan all k-subsets in lexicographic order, stopping at the first failure.

    The verdict does not depend on `jobs`: parallel workers report the rank
    of their first failure and the aggregator keeps the minimum.
    """
    k, p, c = params.k, params.p, params.c
    n = graph.n
    want = max_witnesses > 0

    if n < params.critical_order:
        if k == 0:
            cx: tuple[int, ...] | None = ()
        elif k <= n:
            cx = tuple(range(k))
        else:
            cx = None
        return FTVerdict(
            holds=False,
            counterexample=cx,
            witness_count=0,
            sample_witnesses={} if want else None,
            reason=f"graph has {n} vertices but p*c + k = {params.critical_order} are required",
        )

    prescreen: str | None = None
    if n == params.critical_order and c >= 3:
        floor = degree_floor(k, c)
        for v in range(n):
            d = graph.adj[v].bit_count()
            if d < floor:
                prescreen = (
                    f"order equals p*c + k and vertex {v} has degree {d} "
                    f"< c + k - 1 = {floor}, so some deletion must fail"
                )
                break

    total = comb(n, k)
    if jobs > 1 and total >= _PARALLEL_THRESHOLD:
        jobs = min(jobs, total)
        step = -(-total // (jobs * 4))
        payload = [(graph, k, p, c, lo, min(lo + step, total), max_witnesses)
                   for lo in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan, payload))
    else:
        results = [_scan((graph, k, p, c, 0, total, max_witnesses))]

    fail_rank: int | None = None
    fail_subset: tuple[int, ...] | None = None
    collected: list[tuple[int, tuple[int, ...], CliquePacking]] = []
    for rank, subset, wit in results:
        collected.extend(wit)
        if rank is not None and (fail_rank is None or rank < fail_rank):
            fail_rank, fail_subset = rank, subset

    if fail_rank is not None:
        witnesses = None
        if want:
            witnesses = {s: pk for r, s, pk in sorted(collected) if r < fail_rank}
        return FTVerdict(
            holds=False,
            counterexample=fail_subset,
            witness_count=fail_rank + 1,
            sample_witnesses=witnesses,
            reason=prescreen,
        )
    witnesses = {s: pk for _, s, pk in sorted(collected)} if want else None
    return FTVerdict(True, None, total, witnesses, None)


def verify_ft_oracle(graph: Graph, params: FTParams) -> FTVerdict:
    """Same scan driven by the brute-force packing oracle (small scale only)."""
    k, p, c = params.k, params.p, params.c
    n = graph.n
    if n < params.critical_order:
        return verify_ft(graph, params)
    rank = 0
    for subset in combinations(range(n), k):
        sub, _ = graph.remove_vertices(subset)
        if not oracle_packing_exists(sub, p, c):
            return FTVerdict(False, subset, rank + 1, None, None)
        rank += 1
    return FTVerdict(True, None, rank, None, None)


@dataclass(frozen=True)
class MinimumCandidacy:
    """Truthiness: the graph has the critical order, is accepted, and meets
    the best known edge bound. proven_minimum marks the regimes where that
    bound is known to be exact (k <= 1, or p == 1 where the degree floor
    forces a complete graph)."""

    is_candidate: bool
    order_ok: bool
    holds: bool
    edge_count: int
    bound: int
    proven_minimum: bool
    note: str

    def __bool__(self) -> bool:
        return self.is_candidate


def is_minimum_candidate(graph: Graph, params: FTParams) -> MinimumCandidacy:
    """Check order == p*c + k, acceptance, and edge count == the hub bound."""
    k, p, c = params.k, params.p, params.c
    bound = hub_edge_bound(k, p, c)
    m = graph.edge_count
    order_ok = graph.n == params.critical_order
    holds = bool(order_ok and verify_ft(graph, params).holds)
    is_cand = order_ok and holds and m == bound
    proven = is_cand and (k <= 1 or p == 1)
    if not order_ok:
        note = f"order {graph.n} != p*c + k = {params.critical_order}"
    elif not holds:
        note = "fails verification"
    elif m != bound:
        note = f"{m} edges; best known bound is {bound}"
    elif proven:
        note = "minimum (bound is exact in this regime)"
    else:
        note = f"candidate at bound {bound}; minimality unproven in this regime"
    return MinimumCandidacy(is_cand, order_ok, holds, m, bound, proven, note)
