"""Exhaustive minimum-edge search at the critical order p*c + k.

Candidates are enumerated per work unit (m, d0): graphs with m edges in
which vertex 0 is adjacent to exactly 1..d0 and every vertex has degree at
least d0. Every isomorphism class with minimum degree delta has such a
representative with d0 = delta (put a minimum-degree vertex at 0), so
walking d0 over [c+k-1, n-1] covers all classes with the forced degree
floor. For c >= 3 the enumerator yields only graphs whose vertices of
degree c+k-1 have clique closed neighborhoods (a necessary condition from
`audit`, applied while the graph is built so dead branches are never
walked). Every yielded graph is canonicalized, and each class is verified
once. Units run in (m, d0) order and are idempotent, which makes budget
interruption and resumption safe: a token names the first unfinished
unit, the last graph of it already examined and the classes already
checked at its edge count; every later unit is implied. A finished
search is a token that owes no unit, and resuming from it replays its
result.
"""

import time
from dataclasses import dataclass, field, fields, replace
from math import comb

from .audit import tight_vertex_with_open_closure
from .canon import CanonicalForm, canonical_form, canonical_graph
from .connectivity import is_connected
from .formats import emit_graph6, parse_graph6
from .graphs import Graph, bits, mask_of
from .verify import (
    FTParams,
    FTVerdict,
    degree_floor,
    hub_edge_bound,
    verify_ft,
    verify_ft_oracle,
)

__all__ = [
    "Budget",
    "SearchResume",
    "SearchReport",
    "search_minimum",
    "probe_conjecture",
]

# The walk's slot table and its stack of up to C(n-1, 2) nodes of n rows
# grow as n^3, so the orders taken from callers and tokens stop at 40.
_MASK_ORDER_LIMIT = 40
# Resume tokens record a position in the enumerator's stream, so they are
# only valid for the token format and enumerator that wrote them.
RESUME_VERSION = 5
ENUMERATOR_ID = "lex-slots/degree-floor-d0/tight-closure"


@dataclass(frozen=True)
class Budget:
    """Per-run caps; None means unlimited. Budgets meter one invocation
    and are checked only after work, each yielded graph and each finished
    unit, so resuming with the same budget always makes fresh progress."""

    seconds: float | None = None
    graphs: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and (
                type(self.seconds) not in (int, float) or not self.seconds > 0):  # bool, nan too
            raise ValueError(f"seconds budget must be a positive number, got {self.seconds!r}")
        if self.graphs is not None and (type(self.graphs) is not int or self.graphs < 1):
            raise ValueError(f"graphs budget must be an integer >= 1, got {self.graphs!r}")


def _certs_to_json(certs: tuple[CanonicalForm, ...]) -> list:
    return [[cf.n, format(cf.code, "x")] for cf in certs]


def _floor_and_lower(params: FTParams) -> tuple[int, int]:
    """Forced degree floor and the edge count it forces at the critical order."""
    dmin = degree_floor(params.k, params.c)
    return dmin, (params.critical_order * dmin + 1) // 2


@dataclass(frozen=True)
class SearchResume:
    """Everything needed to continue a search, or to replay a finished one.

    unit is the first unfinished (edge count, degree-of-vertex-0) work
    unit and after its last graph already counted (None if none is). The
    units after it, up to max_edges (or only those of best_m edges once a
    solution is found), are owed. seen_certs are the classes already
    checked at the unit's edge count, so a resumed run checks none twice.
    A finished search owes no unit (unit None) and keeps only its result:
    no after and no seen_certs. graphs_examined is cumulative over all
    runs. Construction rejects, with ValueError, any token that no search
    can have written; search_minimum checks that best_certs are canonical
    and accepted when it starts from the token.
    """

    k: int
    p: int
    c: int
    max_edges: int
    unit: tuple[int, int] | None
    best_m: int | None
    best_certs: tuple[CanonicalForm, ...]
    graphs_examined: int
    after: Graph | None = None
    seen_certs: tuple[CanonicalForm, ...] = ()

    def __post_init__(self) -> None:
        certs = (*self.best_certs, *self.seen_certs)
        ints = [self.k, self.p, self.c, self.max_edges, self.graphs_examined,
                *(self.unit or ()), *(cf.n for cf in certs), *(cf.code for cf in certs)]
        if self.best_m is not None:
            ints.append(self.best_m)
        if any(type(x) is not int for x in ints):
            raise ValueError("resume token fields must be integers")
        params = FTParams(self.k, self.p, self.c)
        n = params.critical_order
        if n > _MASK_ORDER_LIMIT:
            raise ValueError(f"resume token order {n} exceeds {_MASK_ORDER_LIMIT}")
        if self.graphs_examined < 0:
            raise ValueError(f"resume token graphs_examined {self.graphs_examined} < 0")
        dmin, lower = _floor_and_lower(params)
        if self.unit is None:
            if self.after is not None or self.seen_certs:
                raise ValueError("finished resume token keeps an after or seen_certs")
            m, d0 = self.best_m, dmin
        else:
            m, d0 = self.unit
            if not (lower <= m <= self.max_edges and dmin <= d0 < n):
                raise ValueError(
                    f"resume token unit {self.unit} is outside m in "
                    f"[{lower}, {self.max_edges}], d0 in [{dmin}, {n - 1}]"
                )
        pairs = comb(n, 2)
        if not all(cf.n == n and cf.code >= 0 and cf.code.bit_length() <= pairs
                   and cf.code.bit_count() == m for cf in certs):
            raise ValueError(
                f"resume token certificates are not graphs of {n} vertices "
                f"and {m} edges"
            )
        # A solution at best_m means every smaller edge count is done and
        # every larger one dropped, so an unfinished search stopped inside
        # best_m, and every accepted class was one already seen there.
        if self.best_m is not None:
            if not (lower <= self.best_m <= self.max_edges and m == self.best_m
                    and self.best_certs and (self.unit is None
                                             or set(self.best_certs) <= set(self.seen_certs))):
                raise ValueError(
                    f"resume token best_m {self.best_m} disagrees with its "
                    "certificates or unit"
                )
        elif self.best_certs:
            raise ValueError("resume token has certificates but no best_m")
        g = self.after  # must be a graph the enumerator yields in unit
        if g is not None and not (
                g.n == n and g.edge_count == m and min(g.degrees()) >= d0
                and g.adj[0] == mask_of(range(1, d0 + 1))
                and (self.c < 3 or tight_vertex_with_open_closure(g, dmin) is None)):
            raise ValueError(f"resume token after is not a graph of unit {self.unit}")

    def to_dict(self) -> dict:
        """JSON fields; a finished token also gets "status": "complete"."""
        data = {
            "version": RESUME_VERSION,
            "enumerator": ENUMERATOR_ID,
            "k": self.k,
            "p": self.p,
            "c": self.c,
            "max_edges": self.max_edges,
            "unit": None if self.unit is None else list(self.unit),
            "best_m": self.best_m,
            "best_certs": _certs_to_json(self.best_certs),
            "graphs_examined": self.graphs_examined,
            "after": None if self.after is None else emit_graph6(self.after).strip(),
            "seen_certs": _certs_to_json(self.seen_certs),
        }
        return data if self.unit is not None else {"status": "complete", **data}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchResume":
        """Rebuild a token from to_dict output; ValueError on anything else."""
        if not isinstance(data, dict):
            raise ValueError("resume token must be a JSON object")
        written_by = (data.get("version"), data.get("enumerator"))
        if written_by != (RESUME_VERSION, ENUMERATOR_ID):
            raise ValueError(
                f"resume token has version and enumerator {written_by}, not "
                f"{(RESUME_VERSION, ENUMERATOR_ID)}; start the search afresh"
            )
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"resume token lacks {', '.join(missing)}")
        values = {name: data[name] for name in names}
        try:
            if data["unit"] is not None:
                m, d0 = data["unit"]
                values["unit"] = (m, d0)
            for name in ("best_certs", "seen_certs"):
                values[name] = tuple(CanonicalForm(n, int(code, 16)) for n, code in data[name])
            after = data["after"]
            values["after"] = None if after is None else parse_graph6(after)
        except (TypeError, ValueError):
            raise ValueError(
                "resume token unit must be an [m, d0] pair or null, best_certs and "
                "seen_certs [n, hex code] pairs and after a graph6 string or null"
            ) from None
        if data.get("status") != ("complete" if values["unit"] is None else None):
            raise ValueError('resume token status must be "complete" exactly when its unit is null')
        return cls(**values)


@dataclass(frozen=True)
class SearchReport:
    params: FTParams
    n: int
    lower_bound: int
    target_bound: int
    max_edges: int
    minimum_found: int | None
    exemplars: tuple[CanonicalForm, ...]
    graphs_examined: int
    exhaustive: bool
    elapsed: float
    resume: SearchResume | None
    notes: tuple[str, ...] = field(default=())
    # Work counts of this call alone (graphs_examined is cumulative over
    # resumed runs): labeled_graphs taken from the enumerator, none of
    # them twice across resumes, each canonicalized. new_classes of those
    # were unseen at their edge count, also by earlier runs, verify_calls
    # of those were verified (the connectivity prune skips disconnected
    # ones), and accepted of those hold.
    stats: dict = field(default_factory=dict, compare=False)

    def state(self) -> SearchResume:
        """The token to store: the resume token, or once the search is
        finished, one that owes no unit and replays this result."""
        if self.resume is not None:
            return self.resume
        p = self.params
        return SearchResume(p.k, p.p, p.c, self.max_edges, None, self.minimum_found,
                            self.exemplars, self.graphs_examined)

    def exemplar_graphs(self) -> list[Graph]:
        return [canonical_graph(cf) for cf in self.exemplars]

    def to_dict(self) -> dict:
        return {
            "k": self.params.k,
            "p": self.params.p,
            "c": self.params.c,
            "n": self.n,
            "lower_bound": self.lower_bound,
            "target_bound": self.target_bound,
            "max_edges": self.max_edges,
            "minimum_found": self.minimum_found,
            "exemplars": [emit_graph6(g).strip() for g in self.exemplar_graphs()],
            "graphs_examined": self.graphs_examined,
            "exhaustive": self.exhaustive,
            "elapsed_seconds": round(self.elapsed, 3),
            "resume": None if self.resume is None else self.resume.to_dict(),
            "notes": list(self.notes),
            "stats": self.stats,
        }


def _iter_adjacencies(n: int, m: int, dmin: int, d0: int, after=None, tight=None):
    """All m-edge graphs with N(0) == {1..d0} and min degree >= dmin.

    Remaining edges are chosen among vertices 1..n-1 in lexicographic slot
    order. Prunings: total degree deficit must stay within 2 per missing
    edge; skipping a slot must leave each endpoint enough later slots to
    reach the floor. The deficit bound also caps every degree: while it
    holds, d0 plus the sum over v >= 1 of max(deg v, dmin) is at most 2m,
    so the walk stops one step after a degree passes 2m - d0 - (n-2)*dmin.
    Slots are taken before they are skipped, so past `after` (a yielded
    tuple) the walk takes only its slots on its path, leaves it by their
    skip branches and skips its leaf. The walk is one loop: it follows
    each take branch in place and stacks only the skip branch, with the
    rows it starts from; a degree is its row's bit count.

    With a `tight` degree, only graphs in which every vertex of that degree
    has a clique closed neighborhood are yielded, in the same order, and
    dead branches are cut early. Vertex x is final once its last slot
    (x, n-1) is decided (vertex 0 from the start), and for a final vertex
    w of degree tight: (i) no slot with both ends in N(w) may be skipped,
    so when d0 == tight N[0] is a clique; (ii) when w becomes final, the
    walk stops if some final x in N(w) has N[w] not inside N[x], which
    catches pairs decided before w was final. The leaf applies the rule
    itself, through `audit.tight_vertex_with_open_closure`, and so catches
    what (ii) leaves to the neighbors of w that become final after it.
    """
    # Skipping slot (u, v) leaves u the later slots (u, w), w > v: n-1-v
    # of them; and v the later (x, v), u < x < v, and (v, w), w > v: n-2-u.
    # Each slot carries the degrees its endpoints need to allow the skip.
    slots = [(u, v, dmin - (n - 1 - v), dmin - (n - 2 - u))
             for u in range(1, n) for v in range(u + 1, n)]
    total_slots = len(slots)
    # Vertex x < n-2 becomes final on entering the walk at the slot after
    # (x, n-1); closing[i] names it (0: none), and the final vertices are
    # then 0..x. Vertices n-2 and n-1 become final together at the leaf.
    closing = [0] * (total_slots + 1)
    if tight is not None:
        for i, (u, v, _, _) in enumerate(slots, start=1):
            if v == n - 1 and u < n - 2:
                closing[i] = u

    adj = [0] * n
    adj[0] = mask_of(range(1, d0 + 1))
    for v in range(1, d0 + 1):
        adj[v] = 1

    def closes(x: int, tight_done: int) -> int:
        # tight_done (the final vertices of degree tight) once x joins the
        # final vertices 0..x-1, or -1 if x breaks the tight rule.
        if adj[x].bit_count() != tight:
            return tight_done
        closed_x = adj[x] | 1 << x
        for y in bits(adj[x] & ((1 << x) - 1)):
            if closed_x & ~(adj[y] | 1 << y):
                return -1
        return tight_done | 1 << x

    deficit = sum(max(0, dmin - adj[v].bit_count()) for v in range(1, n))
    stack = [(0, m - d0, deficit, after, 1 if d0 == tight else 0, tuple(adj))]
    while stack:
        i, need, deficit, path, tight_done, rows = stack.pop()
        adj[:] = rows
        while deficit <= 2 * need:
            x = closing[i]
            if x:
                tight_done = closes(x, tight_done)
                if tight_done < 0:
                    break
            if need == 0:
                if deficit == 0 and path is None:
                    leaf = tuple(adj)
                    if tight is None or tight_vertex_with_open_closure(
                            Graph._from_adj(n, leaf), tight) is None:
                        yield leaf
                break
            if total_slots - i < need:
                break
            u, v, skip_u, skip_v = slots[i]
            au, av = adj[u], adj[v]
            du, dv = au.bit_count(), av.bit_count()
            on_take = path is None or path[u] >> v & 1
            i += 1
            if du >= skip_u and dv >= skip_v and not au & av & tight_done:
                stack.append((i, need, deficit, None if on_take else path, tight_done,
                              tuple(adj)))
            if not on_take:
                break
            adj[u] = au | 1 << v
            adj[v] = av | 1 << u
            need -= 1
            deficit -= (du < dmin) + (dv < dmin)


def search_minimum(params: FTParams, max_edges: int | None = None,
                   budget: Budget | None = None, *,
                   resume: SearchResume | None = None) -> SearchReport:
    """Smallest edge count admitting an accepted graph on p*c + k vertices.

    Scans m from the degree-floor lower bound upward, stops at the first m
    with a solution, and reports every solution at that m as a canonical
    certificate. With a budget the run may stop early, in which case the
    report carries a resume token; resumed runs reproduce exactly the
    unbudgeted result. Every labeled graph the enumerator yields counts
    towards graphs_examined and the graphs budget; branches the enumerator
    cuts count for nothing.
    """
    k, p, c = params.k, params.p, params.c
    n = params.critical_order
    if n > _MASK_ORDER_LIMIT:
        raise ValueError(f"search supports order <= {_MASK_ORDER_LIMIT}, got {n}")
    if max_edges is not None and type(max_edges) is not int:
        raise ValueError(f"max_edges must be an integer, got {max_edges!r}")
    dmin, lower = _floor_and_lower(params)
    bound = hub_edge_bound(k, p, c)

    if resume is not None:
        if (resume.k, resume.p, resume.c) != (k, p, c):
            raise ValueError("resume token belongs to different parameters")
        if max_edges is not None and max_edges != resume.max_edges:
            raise ValueError("resume token was built for a different max_edges")
        # Checked where the result is taken on trust, not on construction,
        # so a run that writes a token pays nothing for it.
        for cf in resume.best_certs:
            g = canonical_graph(cf)
            if canonical_form(g) != cf or not verify_ft(g, params).holds:
                raise ValueError(f"resume token best_certs hold {emit_graph6(g).strip()}, "
                                 "which is not canonical or not accepted")
    else:
        if max_edges is None:
            max_edges = bound
        resume = SearchResume(k, p, c, max_edges, (lower, dmin) if lower <= max_edges else None,
                              None, (), 0)
    max_edges = resume.max_edges
    m, d0 = resume.unit or (max_edges + 1, dmin)  # finished: past the last unit
    best_m = resume.best_m
    best_certs: set[CanonicalForm] = set(resume.best_certs)
    seen: set[CanonicalForm] = set(resume.seen_certs)
    examined = resume.graphs_examined
    after = resume.after
    last_m = max_edges if best_m is None else best_m

    budget = budget or Budget()
    start = time.monotonic()
    baseline = examined  # budget meters this run only; reports stay cumulative

    def over_budget(examined: int) -> bool:
        if budget.graphs is not None and examined - baseline >= budget.graphs:
            return True
        return budget.seconds is not None and time.monotonic() - start > budget.seconds

    # The enumerator's tight rule and the connectivity prune rest on c >= 3
    # (the audits' premise); below it they could discard accepted graphs.
    tight = dmin if c >= 3 else None
    connectivity_prune = k >= 1 and c >= 3
    new_classes = verify_calls = accepted = 0

    # Walk the units (m, d0) from the cursor up to last_m; a solution at
    # best_m drops every larger edge count. after is the last graph of the
    # current unit already in examined, and the walk resumes past it.
    while m <= last_m:
        for adj in _iter_adjacencies(n, m, d0, d0, None if after is None else after.adj, tight):
            g = Graph._from_adj(n, adj)
            cert = canonical_form(g)
            if cert not in seen:
                seen.add(cert)
                new_classes += 1
                if not connectivity_prune or is_connected(g):
                    verify_calls += 1
                    if verify_ft(g, params).holds:
                        accepted += 1
                        if best_m is None:
                            best_m = last_m = m
                        best_certs.add(cert)
            after = g
            examined += 1
            if over_budget(examined):
                break
        else:  # unit done: advance the cursor
            after = None
            d0 += 1
            if d0 == n:
                m, d0, seen = m + 1, dmin, set()
            if not over_budget(examined):
                continue
        break  # interrupted after a graph or a finished unit

    # The walk only ends past its last unit when it covered every edge
    # count up to the minimum (or max_edges); otherwise the cursor is owed.
    token = None
    notes: list[str] = []
    if m <= last_m:
        token = SearchResume(
            k, p, c, max_edges, (m, d0), best_m,
            tuple(sorted(best_certs)), examined, after, tuple(sorted(seen)),
        )
        notes.append("budget exhausted; resume token covers the remaining units")
        if best_m is not None:
            notes.append(
                f"minimum {best_m} is final (smaller edge counts were exhausted) "
                "but its exemplar list may be incomplete"
            )
    if best_m is not None:
        if best_m == bound:
            notes.append("minimum matches the hub construction bound")
        elif best_m < bound:
            notes.append(f"minimum beats the hub construction bound {bound}")

    return SearchReport(
        params=params,
        n=n,
        lower_bound=lower,
        target_bound=bound,
        max_edges=max_edges,
        minimum_found=best_m,
        exemplars=tuple(sorted(best_certs)),
        graphs_examined=examined,
        exhaustive=token is None,
        elapsed=time.monotonic() - start,
        resume=token,
        notes=tuple(notes),
        stats={
            "labeled_graphs": examined - baseline,
            "new_classes": new_classes,
            "verify_calls": verify_calls,
            "accepted": accepted,
        },
    )


def probe_conjecture(k: int, p: int, c: int, budget: Budget | None = None,
                     *, resume: SearchResume | None = None) -> SearchReport:
    """Test whether the hub bound is the true minimum for k >= 2, k < c.

    Searches up to the bound; finding it confirms tightness for these
    parameters, finding less refutes it (any below-bound solution is
    re-verified with the oracle-backed verifier when it fits the budget).
    """
    if k < 2:
        raise ValueError(f"the probed regime starts at k = 2, got k = {k}")
    if k >= c:
        raise ValueError(
            f"the probed regime requires k < c (it is known to fail "
            f"otherwise), got k = {k}, c = {c}"
        )
    params = FTParams(k, p, c)
    report = search_minimum(params, None, budget, resume=resume)
    notes = list(report.notes)
    if report.minimum_found is not None and report.minimum_found < report.target_bound:
        confirmations = []
        for g in report.exemplar_graphs():
            try:
                verdict: FTVerdict = verify_ft_oracle(g, params)
            except ValueError:
                continue
            confirmations.append(verdict.holds)
        if confirmations and all(confirmations):
            notes.append(
                "below-bound exemplars re-verified by the oracle-backed verifier"
            )
    elif report.minimum_found == report.target_bound:
        notes.append("bound confirmed tight at these parameters")
    return replace(report, notes=tuple(notes))
