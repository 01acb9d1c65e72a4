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
from multiprocessing.connection import wait

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


def _scan(graph: Graph, k: int, p: int, c: int, start: int, end: int,
          max_witnesses: int) -> tuple[
              int | None, tuple[int, ...] | None,
              dict[tuple[int, ...], CliquePacking]]:
    """Check the k-subsets of lexicographic rank start to end - 1 in order.

    Returns (first failing rank, its subset, witnesses), the first two None
    when every subset checked survives; witnesses map the surviving subsets
    of rank below max_witnesses, in rank order, to their packings. Each
    packing is searched on the original labels inside the mask of survivors.

    From rank max_witnesses on, the last packing is carried to the next
    subset when `_carry` can mend it: subsets next to each other in lex
    order mostly differ in one vertex, so the packing survives as it is or
    with that one vertex swapped, and any p disjoint c-cliques among the
    survivors prove a rank. The packer runs only where the carry fails.
    A witness must be the lex-first packing the reference gives, so the
    ranks below max_witnesses always run the packer.
    """
    full = graph.full_mask
    adj = graph.adj
    witnesses: dict[tuple[int, ...], CliquePacking] = {}
    cliques: list[int] = []
    before = 0
    subsets = islice(combinations(range(graph.n), k), start, end)
    for rank, subset in enumerate(subsets, start):
        allowed = full & ~mask_of(subset)
        if rank < max_witnesses or not _carry(adj, cliques, before, allowed):
            packing = find_disjoint_cliques(graph, p, c, allowed)
            if packing is None:
                return rank, subset, witnesses
            if rank < max_witnesses:
                witnesses[subset] = packing
            cliques = [mask_of(clique) for clique in packing.cliques]
        before = allowed
    return None, None, witnesses


def _work(conn, *args) -> None:
    """Worker process body: send back the result of _scan(*args), or its exception."""
    try:
        result = _scan(*args)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _scan_parallel(graph: Graph, k: int, p: int, c: int, jobs: int,
                   max_witnesses: int, total: int) -> list:
    """Run _scan in `jobs` fresh worker processes, worker j on the ranks
    total*j//jobs up to total*(j+1)//jobs, so each keeps the carry.

    Once a worker reports a failing rank, no later block can hold the least
    one, so the workers of later blocks are terminated at once; earlier
    blocks run to their end. Returns the results by block, None where a
    block was terminated; re-raises a worker's exception, and raises
    RuntimeError for a worker that exits without sending a result. Workers
    that have not answered are terminated on every way out, and every
    worker is joined.
    """
    workers = []
    pending = {}
    results = [None] * jobs
    try:
        for j in range(jobs):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_work,
                args=(sender, graph, k, p, c, total * j // jobs,
                      total * (j + 1) // jobs, max_witnesses))
            worker.start()
            workers.append(worker)
            pending[receiver] = j
            sender.close()
        while pending:
            for receiver in wait(list(pending)):
                if receiver not in pending:
                    continue
                j = pending.pop(receiver)
                try:
                    result = receiver.recv()
                except EOFError:
                    workers[j].join()
                    raise RuntimeError(
                        f"verify worker exited with code {workers[j].exitcode} "
                        "before sending a result") from None
                finally:
                    receiver.close()
                if isinstance(result, Exception):
                    raise result
                results[j] = result
                if result[0] is not None:
                    for later in [r for r, i in pending.items() if i > j]:
                        later.close()
                        workers[pending.pop(later)].terminate()
    finally:
        for receiver, j in pending.items():
            receiver.close()
            workers[j].terminate()
        for worker in workers:
            worker.join()
    return results


def verify_ft(graph: Graph, params: FTParams, *, max_witnesses: int = 0,
              jobs: int = 1) -> FTVerdict:
    """Scan all k-subsets in lexicographic order, stopping at the first failure.

    The verdict does not depend on `jobs`: the workers' blocks of ranks are
    read in order up to the first that fails. Raises
    ValueError for jobs < 1, max_witnesses < 0 or either not an integer.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if type(max_witnesses) is not int or max_witnesses < 0:
        raise ValueError(f"max_witnesses must be an integer >= 0, got {max_witnesses!r}")
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
        v = vertex_below_floor(graph, floor)
        if v is not None:
            prescreen = (
                f"order equals p*c + k and vertex {v} has degree "
                f"{graph.degree(v)} < c + k - 1 = {floor}, so some deletion must fail"
            )

    total = comb(n, k)
    if jobs > 1 and total >= _PARALLEL_THRESHOLD:
        results = _scan_parallel(graph, k, p, c, min(jobs, total),
                                 max_witnesses, total)
    else:
        results = [_scan(graph, k, p, c, 0, total, max_witnesses)]

    witnesses: dict[tuple[int, ...], CliquePacking] = {}
    for rank, subset, found in results:
        witnesses.update(found)
        if rank is not None:
            return FTVerdict(
                holds=False,
                counterexample=subset,
                witness_count=rank + 1,
                sample_witnesses=witnesses if want else None,
                reason=prescreen,
            )
    return FTVerdict(True, None, total, witnesses if want else None, None)


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
