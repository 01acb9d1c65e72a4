"""Fault-tolerance verification.

A graph is accepted for parameters (k, p, c) when every deletion of at most
k vertices leaves p pairwise disjoint c-cliques. Only deletions of exactly
k vertices need checking: removing fewer leaves a supergraph of some
exactly-k deletion on the same surviving vertices, and clique packings
survive taking supergraphs.
"""

import multiprocessing
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
]

_PARALLEL_THRESHOLD = 256

_ScanResult = tuple[int | None, tuple[int, ...] | None]


@dataclass(frozen=True)
class FTParams:
    """Fault-tolerance parameters: survive any k deletions keeping p K_c's."""

    k: int
    p: int
    c: int

    def __post_init__(self) -> None:
        if not type(self.k) is type(self.p) is type(self.c) is int:  # bool too
            raise ValueError(f"k, p and c must be integers, got {self.k!r}, {self.p!r}, {self.c!r}")
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
    success). Below order p*c + k nothing is scanned: witness_count is 0
    and counterexample is the first k-subset (None when k > n).
    sample_witnesses optionally maps leading k-subsets to a packing that
    survives them, in original vertex labels.
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


def vertex_below_floor(graph: Graph, floor: int) -> int | None:
    """First vertex of degree below floor, or None."""
    return next((v for v, d in enumerate(graph.degrees()) if d < floor), None)


def _carry(adj: tuple[int, ...], cliques: list[int], before: int,
           allowed: int) -> bool:
    """Carry a packing found inside the mask `before` over to `allowed`.

    before and allowed are the survivors of two deletion sets of one size,
    so as many vertices came back as left. cliques holds the packing's
    c-cliques as vertex masks. True when no clique meets the vertices that
    left, or when one vertex left and the one vertex y that came back is
    adjacent to the rest of the clique that lost it, and takes its place
    (y lay outside `before`, so in no clique); cliques then holds a packing
    inside `allowed`. False, with cliques unchanged, otherwise, and always
    for an empty list.
    """
    gone = before & ~allowed
    back = allowed & ~before
    for i, clique in enumerate(cliques):
        if clique & gone:
            rest = clique & ~gone
            if gone & (gone - 1) or rest & ~adj[back.bit_length() - 1]:
                return False
            cliques[i] = rest | back
            return True
    return bool(cliques)


def _scan(graph: Graph, k: int, p: int, c: int, start: int, end: int) -> _ScanResult:
    """Check the k-subsets of lexicographic rank start to end - 1 in order,
    and return the first failing rank and its subset, both None when every
    subset checked survives.

    The last packing is carried to the next subset when `_carry` can mend
    it: subsets next to each other in lex order mostly differ in one
    vertex, so the packing survives as it is or with that one vertex
    swapped, and any p disjoint c-cliques among the survivors prove a rank.
    The packer runs only where the carry fails, on the original labels
    inside the mask of survivors.
    """
    full = graph.full_mask
    adj = graph.adj
    cliques: list[int] = []
    before = 0
    subsets = islice(combinations(range(graph.n), k), start, end)
    for rank, subset in enumerate(subsets, start):
        allowed = full & ~mask_of(subset)
        if not _carry(adj, cliques, before, allowed):
            packing = find_disjoint_cliques(graph, p, c, allowed)
            if packing is None:
                return rank, subset
            cliques = [mask_of(clique) for clique in packing.cliques]
        before = allowed
    return None, None


def _work(conn, *args) -> None:
    """Worker process body: send back the result of _scan(*args), or its exception."""
    try:
        result = _scan(*args)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _scan_parallel(graph: Graph, k: int, p: int, c: int, jobs: int,
                   start: int, end: int) -> _ScanResult:
    """Run _scan in `jobs` fresh worker processes, each on one contiguous
    block of the ranks start to end - 1 so it keeps the carry, and return
    what one _scan over those ranks returns.

    The blocks are read in order up to the first that fails, which holds
    the least failing rank; what later blocks found is never read, as a
    serial scan never reaches their ranks. Re-raises the exception of a
    worker read, and raises RuntimeError for one that exits without
    sending a result. On every way out the workers not read are
    terminated, and all are joined before the pipes close, so none wakes
    on a broken pipe. A worker that was read exits on its own and runs its
    exit handlers.
    """
    size = end - start
    workers = []
    receivers = []
    read = 0
    try:
        for j in range(jobs):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            receivers.append(receiver)
            worker = multiprocessing.Process(
                target=_work,
                args=(sender, graph, k, p, c, start + size * j // jobs,
                      start + size * (j + 1) // jobs))
            worker.start()
            workers.append(worker)
            sender.close()
        for worker, receiver in zip(workers, receivers):
            try:
                result = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"verify worker exited with code {worker.exitcode} "
                    "before sending a result") from None
            read += 1
            if isinstance(result, Exception):
                raise result
            if result[0] is not None:
                return result
        return None, None
    finally:
        for worker in workers[read:]:
            worker.terminate()
        for worker in workers:
            worker.join()
        for receiver in receivers:
            receiver.close()


def verify_ft(graph: Graph, params: FTParams, *, max_witnesses: int = 0,
              jobs: int = 1) -> FTVerdict:
    """Scan all k-subsets in lexicographic order, stopping at the first failure.

    The first max_witnesses subsets are packed here, in rank order, and
    kept as witnesses; the ranks after them are scanned by _scan, or by
    _scan_parallel in `jobs` blocks. The verdict does not depend on `jobs`:
    the blocks are read in order up to the first that fails. Raises
    ValueError for jobs < 1, max_witnesses < 0 or either not an integer.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if type(max_witnesses) is not int or max_witnesses < 0:
        raise ValueError(f"max_witnesses must be an integer >= 0, got {max_witnesses!r}")
    k, p, c = params.k, params.p, params.c
    n = graph.n

    if n < params.critical_order:
        return FTVerdict(
            holds=False,
            counterexample=tuple(range(k)) if k <= n else None,
            witness_count=0,
            sample_witnesses={} if max_witnesses else None,
            reason=f"graph has {n} vertices but p*c + k = {params.critical_order} are required",
        )

    total = comb(n, k)
    witnesses: dict[tuple[int, ...], CliquePacking] = {}
    for rank, subset in enumerate(islice(combinations(range(n), k), max_witnesses)):
        packing = find_disjoint_cliques(graph, p, c, graph.full_mask & ~mask_of(subset))
        if packing is None:
            break
        witnesses[subset] = packing
    else:
        start = min(max_witnesses, total)
        if jobs > 1 and total - start >= _PARALLEL_THRESHOLD:
            rank, subset = _scan_parallel(graph, k, p, c, min(jobs, total - start), start, total)
        else:
            rank, subset = _scan(graph, k, p, c, start, total)
    sample = witnesses if max_witnesses else None
    if rank is None:
        return FTVerdict(True, None, total, sample, None)

    reason = None
    if n == params.critical_order and c >= 3:
        floor = degree_floor(k, c)
        v = vertex_below_floor(graph, floor)
        if v is not None:
            reason = (
                f"order equals p*c + k and vertex {v} has degree "
                f"{graph.degree(v)} < c + k - 1 = {floor}, so some deletion must fail"
            )
    return FTVerdict(False, subset, rank + 1, sample, reason)


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
