"""Structural audits: necessary conditions every accepted graph satisfies.

Audits target graphs at the critical order p*c + k with c >= 3, where the
theory pins down degrees, local cliques, and how size-k separators split
the graph. Premise violations raise; property violations come back as
failing records with replayable witnesses. A record passes exactly when
it has no witness, and its witness is the first violation in the order
its check states: vertices by label, separators and deletion sets in
lexicographic order, components by least vertex.
"""

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .blocks import blocks
from .chordal import chordality
from .connectivity import component_masks, is_connected
from .graphs import Graph, bits, mask_of, vertex_tuple
from .packing import clique_containing, has_clique_containing
from .verify import FTParams, degree_floor, verify_ft, vertex_below_floor

__all__ = [
    "AuditRecord",
    "AuditReport",
    "audit_basic",
    "audit_low_degree_cliques",
    "audit_separator",
    "size_k_separators",
    "vertex_without_surviving_clique",
    "tight_vertex_with_open_closure",
    "RecognitionResult",
    "recognize_min_1ft",
]

_SWEEP_CAP = 200_000


@dataclass(frozen=True)
class AuditRecord:
    """One audited property: id, plain statement, outcome, first violation."""

    check: str
    rule: str
    passed: bool
    witness: dict | None


@dataclass(frozen=True)
class AuditReport:
    records: tuple[AuditRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> tuple[AuditRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "records": [asdict(r) for r in self.records]}


def _record(check: str, rule: str, witness: dict | None) -> AuditRecord:
    return AuditRecord(check, rule, witness is None, witness)


def vertex_without_surviving_clique(graph: Graph, k: int, c: int) -> int | None:
    """First vertex that some deletion of min(k, deg v) of its neighbors
    leaves in no c-clique, or None.

    At the critical order every vertex must lie in a c-clique after any k
    other vertices are deleted: exactly p*c survivors remain, which the
    packing must cover. A clique through v lies in N[v], so only deletions
    inside N(v) matter, and deleting more of N(v) never helps v: v survives
    every k-deletion exactly when it survives every deletion of
    min(k, deg v) neighbors. With k = 0 this asks that every vertex lie in
    some c-clique.

    The c-cliques through v found so far are kept as masks, and a clique
    search runs only for a deletion set that meets every one of them."""
    if type(k) is not int or k < 0:  # bool too
        raise ValueError(f"k must be >= 0 and an int, got {k!r}")
    full = graph.full_mask
    for v in range(graph.n):
        nbrs = vertex_tuple(graph.adj[v])
        found: list[int] = []
        for s in combinations(nbrs, min(k, len(nbrs))):
            deleted = mask_of(s)
            if any(not clique & deleted for clique in found):
                continue
            clique = clique_containing(graph, v, c, full & ~deleted)
            if clique is None:
                return v
            found.append(clique)
    return None


def _non_adjacent_pair(graph: Graph, mask: int) -> tuple[int, int] | None:
    """Lexicographically first non-adjacent pair of the vertices in mask,
    or None when they form a clique."""
    for a in bits(mask):
        later = mask & ~graph.adj[a] & -(2 << a)  # non-neighbors above a
        if later:
            return a, (later & -later).bit_length() - 1
    return None


def tight_vertex_with_open_closure(graph: Graph, floor: int) -> int | None:
    """First vertex of degree exactly floor whose closed neighborhood is not
    a clique, or None.

    At the critical order with c >= 3 and floor = c + k - 1, deleting any k
    neighbors of such a vertex must leave the other c - 1 as its clique, so
    every pair of its neighbors is adjacent."""
    for v in range(graph.n):
        nbrs = graph.adj[v]
        if nbrs.bit_count() == floor and _non_adjacent_pair(graph, nbrs | 1 << v):
            return v
    return None


def _require_critical(graph: Graph, params: FTParams) -> None:
    if params.c < 3:
        raise ValueError(f"audits require c >= 3, got c = {params.c}")
    if graph.n != params.critical_order:
        raise ValueError(
            f"audits apply at order p*c + k = {params.critical_order}, "
            f"got {graph.n} vertices"
        )


def audit_basic(graph: Graph, params: FTParams) -> AuditReport:
    """Per-vertex necessities: degree floor, clique membership, and clique
    membership after any k deletions. Raises ValueError past the sweep cap."""
    _require_critical(graph, params)
    k, c, n = params.k, params.c, graph.n
    scans = sum(comb(d, min(k, d)) for d in graph.degrees())
    if scans > _SWEEP_CAP:
        raise ValueError(
            f"surviving-clique scan needs {scans} deletion sets; cap is {_SWEEP_CAP}"
        )
    floor = degree_floor(k, c)

    v = vertex_below_floor(graph, floor)
    below = None if v is None else {"vertex": v, "degree": graph.degree(v), "required": floor}

    v = vertex_without_surviving_clique(graph, 0, c)
    cliqueless = None if v is None else {"vertex": v}

    v = vertex_without_surviving_clique(graph, k, c)
    stranded = None
    if v is not None:
        # the least failing set of k other vertices, as a full scan reports it
        others = [u for u in range(n) if u != v]
        s = next(s for s in combinations(others, k) if not has_clique_containing(
            graph, v, c, graph.full_mask & ~mask_of(s)))
        stranded = {"vertex": v, "deleted": list(s)}

    return AuditReport((
        _record("min-degree", f"every vertex has degree >= c + k - 1 = {floor}", below),
        _record("vertex-clique", f"every vertex lies in some {c}-clique", cliqueless),
        _record("surviving-clique", f"every vertex lies in a {c}-clique after deleting "
                f"any {k} other vertices (all deletion sets per vertex)", stranded),
    ))


def audit_low_degree_cliques(graph: Graph, params: FTParams) -> AuditReport:
    """Tight-degree vertices have clique closed neighborhoods, and size-k
    separators leaving an order-c component seal it into a (k+c)-clique."""
    _require_critical(graph, params)
    k, c = params.k, params.c
    floor = degree_floor(k, c)

    v = tight_vertex_with_open_closure(graph, floor)
    open_closure = None
    if v is not None:
        pair = _non_adjacent_pair(graph, graph.adj[v] | 1 << v)
        open_closure = {"vertex": v, "non_adjacent_pair": list(pair)}

    return AuditReport((
        _record("tight-degree-closed-clique", f"every vertex of degree exactly {floor} "
                f"has a clique closed neighborhood (a K_{c + k})", open_closure),
        _record("sealed-small-component", f"for every separating {k}-set whose removal "
                f"leaves a component of order exactly {c}, that component plus the "
                "separator is a clique", _unsealed_small_component(graph, k, c)),
    ))


def _unsealed_small_component(graph: Graph, k: int, c: int) -> dict | None:
    for w, comps in _separations(graph, k):
        for comp in comps:
            if comp.bit_count() != c:
                continue
            pair = _non_adjacent_pair(graph, comp | mask_of(w))
            if pair:
                return {"separator": list(w), "component": list(vertex_tuple(comp)),
                        "non_adjacent_pair": list(pair)}
    return None


@lru_cache(maxsize=1)
def _separations(graph: Graph, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(W, component masks) for every k-subset W, in lexicographic order,
    whose removal leaves at least two components.

    A chordal graph whose clique tree has no adhesion below k has its
    k-vertex adhesions as these W, so only they are split. Any other graph
    sweeps all C(n, k) subsets, up to the cap. The last result is kept, so
    the audits of one graph share it."""
    tree = chordality(graph).clique_tree
    candidates = None if tree is None else tree.size_k_separators(k)
    if candidates is None:
        n = graph.n
        if comb(n, k) > _SWEEP_CAP:
            raise ValueError(
                f"separator sweep needs C({n}, {k}) subsets; cap is {_SWEEP_CAP}"
            )
        candidates = combinations(range(n), k)
    full = graph.full_mask
    found = []
    for w in candidates:
        comps = component_masks(graph.adj, full & ~mask_of(w))
        if len(comps) >= 2:
            found.append((w, tuple(comps)))
    return tuple(found)


def size_k_separators(graph: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-subsets whose removal leaves a disconnected graph."""
    if type(k) is not int or k < 0:  # bool too
        raise ValueError(f"k must be >= 0 and an int, got {k!r}")
    return [w for w, _ in _separations(graph, k)]


def audit_separator(graph: Graph, params: FTParams, separator) -> AuditReport:
    """How an accepted graph must split at a size-k separator W:
    components have order a positive multiple of c summing to p groups,
    each piece plus W is accepted for its share, every separator vertex
    anchors a c-clique inside each component, and every component sees all
    of W."""
    _require_critical(graph, params)
    k, p, c = params.k, params.p, params.c
    if k >= c:
        raise ValueError(f"separator audits require k < c, got k={k}, c={c}")
    try:
        w = tuple(sorted(separator))
    except TypeError:
        raise ValueError(
            f"separator must be a collection of vertices, got {separator!r}") from None
    for v in w:
        graph._check_vertex(v)
    if len(w) != k or len(set(w)) != k:
        raise ValueError(f"separator must be {k} distinct vertices, got {w}")
    w_mask = mask_of(w)
    comps = component_masks(graph.adj, graph.full_mask & ~w_mask)
    if len(comps) < 2:
        raise ValueError(f"{w} does not disconnect the graph")

    # (vertices, share, remainder) of each component, by least vertex
    split = [(vertex_tuple(m), *divmod(m.bit_count(), c)) for m in comps]
    uneven = next(({"component": list(cs), "order": len(cs), "modulus": c}
                   for cs, _, rest in split if rest), None)
    shares = [share for _, share, _ in split]
    unaccepted = None
    for cs, share, rest in split:
        if rest:
            continue
        # the piece has its critical order share*c + k, so a failing
        # verdict names its least failing deletion set
        piece, kept = graph.induced(cs + w)
        verdict = verify_ft(piece, FTParams(k, share, c))
        if not verdict.holds:
            cx = [kept[v] for v in verdict.counterexample]
            unaccepted = {"component": list(cs), "counterexample": cx}
            break
    anchorless = next((
        {"separator_vertex": x, "component": list(cs)}
        for x in w for cs, _, _ in split
        if not has_clique_containing(graph, x, c, mask_of(cs) | 1 << x)
    ), None)
    partial = None
    for cs, _, _ in split:
        seen = graph.neighborhood_mask(mask_of(cs))
        if seen != w_mask:
            partial = {"component": list(cs), "neighborhood": list(vertex_tuple(seen))}
            break

    return AuditReport((
        _record("component-size-multiple", "every component of the split has order a "
                f"positive multiple of {c}", uneven),
        _record("share-total", f"component clique shares sum to p = {p}",
                None if uneven is None and sum(shares) == p else {"shares": shares}),
        _record("piece-fault-tolerance", "every component plus the separator is itself "
                "accepted for its share", unaccepted),
        _record("anchored-clique", f"every separator vertex completes a {c}-clique "
                "inside each component", anchorless),
        _record("full-components", "every component is adjacent to the entire separator",
                partial),
    ))


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    explanation: str

    def __bool__(self) -> bool:
        return self.accepted


def recognize_min_1ft(graph: Graph, p: int, c: int) -> RecognitionResult:
    """Decide minimality for k = 1 structurally: a graph on p*c + 1 vertices
    is a minimum accepted graph for (1, p, c) exactly when it is connected
    and every block is a complete graph on c + 1 vertices. No verification
    scan is run."""
    FTParams(1, p, c)  # validates p and c
    if c < 3:
        raise ValueError(f"c must be >= 3, got {c}")
    n = graph.n
    if n != p * c + 1:
        return RecognitionResult(
            False, f"order {n} != p*c + 1 = {p * c + 1}"
        )
    if not is_connected(graph):
        return RecognitionResult(False, "graph is disconnected")
    decomposition = blocks(graph)
    want_vertices = c + 1
    want_edges = comb(c + 1, 2)
    for block in decomposition.blocks:
        if len(block) != want_vertices:
            return RecognitionResult(
                False,
                f"block {block} has {len(block)} vertices; expected {want_vertices}",
            )
        bmask = mask_of(block)
        m_block = sum((graph.adj[v] & bmask).bit_count() for v in block) // 2
        if m_block != want_edges:
            return RecognitionResult(
                False,
                f"block {block} has {m_block} edges; a K_{c + 1} has {want_edges}",
            )
    return RecognitionResult(
        True,
        f"all {len(decomposition.blocks)} blocks are complete graphs on "
        f"{want_vertices} vertices",
    )
