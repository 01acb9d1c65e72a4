"""Structural audits and the k = 1 minimality recognizer."""

import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from ftclique import (
    FTParams,
    Graph,
    TreeTemplate,
    audit_basic,
    audit_low_degree_cliques,
    audit_separator,
    complete_graph,
    cycle_graph,
    hub_edge_bound,
    odd_cycle,
    recognize_min_1ft,
    size_k_separators,
    star_construction,
    tree_of_cliques,
    canonical_form,
    disjoint_union,
    verify_ft,
)
from ftclique import audit as audit_module
from ftclique import relabeled
from ftclique.audit import (
    _non_adjacent_pair,
    tight_vertex_with_open_closure,
    vertex_without_surviving_clique,
)
from ftclique.graphs import bits
from ftclique.search import _iter_adjacencies
from helpers import all_graphs_with_edges, random_graph, surviving_clique_reference


def test_audit_basic_passes_on_hub_families():
    for (k, p, c) in [(1, 2, 3), (2, 2, 3), (1, 3, 4)]:
        g = star_construction(k, p, c)
        report = audit_basic(g, FTParams(k, p, c))
        assert report.passed
        assert [r.check for r in report.records] == [
            "min-degree", "vertex-clique", "surviving-clique",
        ]
        assert report.failures() == ()


def test_audit_basic_flags_a_low_degree_vertex():
    report = audit_basic(cycle_graph(7), FTParams(1, 2, 3))
    assert not report.passed
    failed = {r.check for r in report.failures()}
    assert "min-degree" in failed
    record = next(r for r in report.records if r.check == "min-degree")
    assert record.witness == {"vertex": 0, "degree": 2, "required": 3}


def test_audit_basic_on_complete_graph():
    report = audit_basic(complete_graph(7), FTParams(1, 2, 3))
    assert report.passed


def test_audit_premise_violations_raise():
    # wrong order: the audits only make statements at p*c + k vertices
    g = Graph(5, complete_graph(4).edges() + [(3, 4)])
    with pytest.raises(ValueError):
        audit_basic(g, FTParams(1, 1, 3))
    with pytest.raises(ValueError):
        audit_low_degree_cliques(g, FTParams(1, 1, 3))
    # c = 2 is outside the audited regime
    with pytest.raises(ValueError):
        audit_basic(cycle_graph(5), FTParams(1, 2, 2))


def _surviving_clique_cases():
    """(params, graph) at the critical order: seeded random graphs, and
    constructions native, relabeled and minus one edge."""
    rng = random.Random(5150)
    for k, p, c in [(1, 2, 3), (2, 2, 3), (3, 2, 3), (1, 2, 4), (2, 2, 4),
                    (3, 2, 4), (2, 3, 3)]:
        params = FTParams(k, p, c)
        for prob in (0.55, 0.7, 0.85, 0.95):
            for _ in range(8):
                yield params, random_graph(rng, params.critical_order, prob)
    for k, p, c in [(1, 2, 3), (2, 2, 3), (3, 2, 4), (2, 3, 4), (1, 3, 3)]:
        params = FTParams(k, p, c)
        n = params.critical_order
        for g in (star_construction(k, p, c),
                  tree_of_cliques(k, c, TreeTemplate.path(p, k, c))):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = relabeled(g, perm)
            edges = shuffled.edges()
            yield params, g
            yield params, shuffled
            for i in rng.sample(range(len(edges)), 4):
                yield params, Graph(n, edges[:i] + edges[i + 1:])
    # hub-heavy: one clique through a hub answers most of its C(37, 2)
    # deletion sets
    params = FTParams(2, 12, 3)
    hub = _relabeled_star_2_12_3(rng)
    edges = hub.edges()
    yield params, hub
    for i in rng.sample(range(len(edges)), 2):
        yield params, Graph(hub.n, edges[:i] + edges[i + 1:])
    # K_n minus a perfect matching: a vertex needs several cliques
    for k, p, c in [(2, 1, 4), (2, 2, 3), (2, 2, 4), (1, 3, 3), (2, 3, 4), (4, 2, 4)]:
        params = FTParams(k, p, c)
        n = params.critical_order
        perm = list(range(n))
        rng.shuffle(perm)
        yield params, _complete_minus_matching(n)
        yield params, relabeled(_complete_minus_matching(n), perm)


def _relabeled_star_2_12_3(rng: random.Random) -> Graph:
    perm = list(range(38))
    rng.shuffle(perm)
    return relabeled(star_construction(2, 12, 3), perm)


def _complete_minus_matching(n: int) -> Graph:
    """K_n for even n without the edges (0, 1), (2, 3), ..., (n - 2, n - 1)."""
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if v != u ^ 1])


def _first_vertex_in_no_clique(g: Graph, c: int):
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
        if not any(all(g.has_edge(a, b) for a, b in combinations(s, 2))
                   for s in combinations(nbrs, c - 1)):
            return v
    return None


def test_surviving_clique_matches_full_scan():
    outcomes = set()
    for params, g in _surviving_clique_cases():
        k, c = params.k, params.c
        expected = surviving_clique_reference(g, k, c)
        record = next(r for r in audit_basic(g, params).records
                      if r.check == "surviving-clique")
        assert (record.passed, record.witness) == (expected is None, expected), g.edges()
        outcomes.add(record.passed)
        for deletions in (0, k):
            expected = surviving_clique_reference(g, deletions, c)
            assert vertex_without_surviving_clique(g, deletions, c) == (
                None if expected is None else expected["vertex"]), (deletions, g.edges())
        assert vertex_without_surviving_clique(g, 0, c) == _first_vertex_in_no_clique(g, c)
    assert outcomes == {True, False}


def _pinned_audit_corpus():
    """(params, graph): star and path constructions, native and relabeled,
    each with seeded one-edge drops, then random critical-order graphs."""
    rng = random.Random(2027)
    for k in (1, 2, 3):
        for p in (1, 2, 3, 4):
            for c in (3, 4):
                params = FTParams(k, p, c)
                n = params.critical_order
                for g in (star_construction(k, p, c),
                          tree_of_cliques(k, c, TreeTemplate.path(p, k, c))):
                    variants = [g]
                    for _ in range(2):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        variants.append(relabeled(g, perm))
                    for h in variants:
                        yield params, h
                        edges = h.edges()
                        for i in rng.sample(range(len(edges)), 3):
                            yield params, Graph(n, edges[:i] + edges[i + 1:])
    for k, p, c in [(1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 1, 4), (1, 2, 4)]:
        params = FTParams(k, p, c)
        for _ in range(60):
            yield params, random_graph(rng, params.critical_order,
                                       rng.choice([0.6, 0.75, 0.9]))


def test_audit_reports_are_pinned():
    # The JSON of every audit report on a fixed corpus, byte for byte: a
    # rewrite of the audits must keep each outcome, witness and key order.
    reports = []
    failing = 0
    for params, g in _pinned_audit_corpus():
        graph_reports = [audit_basic(g, params).to_dict(),
                         audit_low_degree_cliques(g, params).to_dict()]
        if params.k < params.c:
            graph_reports += [audit_separator(g, params, w).to_dict()
                              for w in size_k_separators(g, params.k)]
        failing += not all(r["passed"] for r in graph_reports)
        reports.append(graph_reports)
    assert (len(reports), failing) == (876, 582)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "c4b61cc775175ce58ea3fc62f89eeb48f231ba749b992d57bc9efa49486b7c9a"


def test_surviving_clique_sweep_reuses_the_cliques_it_found(monkeypatch):
    searches = Counter()
    search = audit_module.clique_containing

    def counting(graph, v, c, allowed=None):
        searches[v] += 1
        return search(graph, v, c, allowed)

    monkeypatch.setattr(audit_module, "clique_containing", counting)
    hub = _relabeled_star_2_12_3(random.Random(7))
    assert vertex_without_surviving_clique(hub, 2, 3) is None
    assert 5 * sum(searches.values()) < sum(comb(d, 2) for d in hub.degrees())
    searches.clear()
    assert vertex_without_surviving_clique(_complete_minus_matching(10), 2, 4) is None
    assert sorted(searches) == list(range(10)) and min(searches.values()) >= 3


def test_surviving_clique_scan_over_the_cap_raises_before_searching(monkeypatch):
    class SearchRan(Exception):
        pass

    def refuse(*args):
        raise SearchRan

    monkeypatch.setattr(audit_module, "clique_containing", refuse)
    # the patched search is the one the sweep calls
    with pytest.raises(SearchRan):
        audit_basic(complete_graph(6), FTParams(3, 1, 3))
    # 63 * C(62, 3) deletion sets inside the neighborhoods, over the cap
    with pytest.raises(ValueError, match="cap"):
        audit_basic(complete_graph(63), FTParams(3, 20, 3))


def test_low_degree_clique_audit():
    for (k, p, c) in [(1, 2, 3), (2, 2, 3)]:
        g = star_construction(k, p, c)
        report = audit_low_degree_cliques(g, FTParams(k, p, c))
        assert report.passed
        assert [r.check for r in report.records] == [
            "tight-degree-closed-clique", "sealed-small-component",
        ]
    # C7 at (1,2,3): the degree-2 vertices have non-adjacent neighborhoods
    report = audit_low_degree_cliques(cycle_graph(7), FTParams(1, 2, 3))
    assert report.passed  # no vertex has degree exactly c + k - 1 = 3


def test_low_degree_audit_catches_a_violation():
    # 7 vertices: a K4 block and a C4 glued so vertex 6 has degree 3 but
    # a non-clique closed neighborhood
    g = Graph(7, complete_graph(4).edges()
              + [(3, 4), (4, 5), (5, 6), (6, 3), (4, 6)])
    report = audit_low_degree_cliques(g, FTParams(1, 2, 3))
    record = next(r for r in report.records
                  if r.check == "tight-degree-closed-clique")
    assert not record.passed
    assert record.witness is not None


def _first_non_adjacent_pair(g: Graph, vertices):
    return next(((a, b) for a, b in combinations(sorted(vertices), 2)
                 if not g.has_edge(a, b)), None)


def _tight_open_closure_reference(g: Graph, floor: int):
    """(v, pair): the first vertex of degree floor whose closed neighborhood
    has a non-adjacent pair, and the first such pair; or None."""
    for v in range(g.n):
        closed = g.neighborhood(v) | {v}
        if len(closed) == floor + 1:
            pair = _first_non_adjacent_pair(g, closed)
            if pair is not None:
                return v, pair
    return None


def _closure_cases():
    """Every labeled graph on at most 5 vertices, then seeded random graphs
    on 6 to 12 vertices."""
    for n in range(1, 6):
        for m in range(comb(n, 2) + 1):
            yield from all_graphs_with_edges(n, m)
    rng = random.Random(8128)
    for _ in range(2000):
        yield random_graph(rng, rng.randint(6, 12), rng.choice([0.5, 0.7, 0.85, 0.95]))


def test_closure_test_and_pair_match_brute_force():
    # The search's leaf filter and resume check call the closure test too,
    # so it is checked here against the definition, not against them.
    rng = random.Random(496)
    outcomes = Counter()
    for g in _closure_cases():
        for floor in range(g.n):
            expected = _tight_open_closure_reference(g, floor)
            got = tight_vertex_with_open_closure(g, floor)
            assert got == (None if expected is None else expected[0]), (floor, g.edges())
            outcomes[expected is None] += 1
        if g.n <= 5:
            masks = range(1 << g.n)
        else:
            masks = [g.adj[v] | 1 << v for v in range(g.n)]
            masks += [rng.getrandbits(g.n) for _ in range(4)]
        for mask in masks:
            expected = _first_non_adjacent_pair(g, bits(mask))
            assert _non_adjacent_pair(g, mask) == expected, (mask, g.edges())
            outcomes["clique" if expected is None else "pair"] += 1
    assert min(outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("bad", [1.5, True, None, "1"])
def test_audit_k_must_be_an_int(bad):
    # a deletion count is an int: not a float, and not a bool
    g = star_construction(1, 2, 3)
    with pytest.raises(ValueError, match="k must be"):
        size_k_separators(g, bad)
    with pytest.raises(ValueError, match="k must be"):
        vertex_without_surviving_clique(g, bad, 3)


def test_size_k_separators():
    g = star_construction(1, 2, 3)
    assert size_k_separators(g, 1) == [(0,)]
    assert size_k_separators(complete_graph(5), 1) == []
    two = tree_of_cliques(2, 3, TreeTemplate.path(2, 2, 3))
    seps = size_k_separators(two, 2)
    assert seps == [(3, 4)]
    with pytest.raises(ValueError, match="k must be >= 0"):
        size_k_separators(two, -1)


def test_separator_sweep_over_the_cap_raises_before_sweeping(monkeypatch):
    class SweepRan(Exception):
        pass

    def refuse(*args):
        raise SweepRan

    audit_module._separations.cache_clear()
    monkeypatch.setattr(audit_module, "component_masks", refuse)
    # the patched split is the one the separators are checked with
    with pytest.raises(SweepRan):
        size_k_separators(star_construction(1, 2, 3), 1)
    # C(61, 4) = 521,855 deletion sets, over the cap; C_61 is not chordal,
    # so it needs the sweep
    g = odd_cycle(30)
    params = FTParams(4, 19, 3)
    started = time.monotonic()
    with pytest.raises(ValueError, match="cap"):
        size_k_separators(g, 4)
    with pytest.raises(ValueError, match="cap"):
        audit_low_degree_cliques(g, params)
    assert time.monotonic() - started < 1.0


def test_audit_separator_on_glued_families():
    g = star_construction(1, 2, 3)
    report = audit_separator(g, FTParams(1, 2, 3), (0,))
    assert report.passed
    assert [r.check for r in report.records] == [
        "component-size-multiple", "share-total", "piece-fault-tolerance",
        "anchored-clique", "full-components",
    ]

    two = tree_of_cliques(2, 3, TreeTemplate.path(3, 2, 3))
    params = FTParams(2, 3, 3)
    for sep in size_k_separators(two, 2):
        assert audit_separator(two, params, sep).passed


def test_audit_separator_premise_violations():
    g = star_construction(1, 2, 3)
    params = FTParams(1, 2, 3)
    with pytest.raises(ValueError):
        audit_separator(g, params, (1,))  # does not disconnect
    with pytest.raises(ValueError):
        audit_separator(g, params, (0, 1))  # wrong size
    for bad in (0, None, (0.0,), (True,), (0, "1")):
        with pytest.raises(ValueError):
            audit_separator(g, params, bad)  # not a collection of int vertices
    with pytest.raises(ValueError):
        # the split statements need k < c
        audit_separator(complete_graph(9), FTParams(3, 2, 3), (0, 1, 2))


def test_audit_separator_flags_uneven_split():
    # path of three triangles: middle vertex separates unevenly for c = 3
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4),
                  (4, 5), (4, 6), (5, 6)])
    params = FTParams(1, 2, 3)
    report = audit_separator(g, params, (2,))
    assert not report.passed
    checks = {r.check: r.passed for r in report.records}
    assert not checks["component-size-multiple"]


def test_audit_separator_flags_damaged_pieces():
    # star(2,2,3) splits at its hub (0, 1) into the triangles {2,3,4} and
    # {5,6,7}; each removal breaks one more check on the first triangle
    g = star_construction(2, 2, 3)
    params = FTParams(2, 2, 3)

    def failures(*removed):
        damaged = Graph(g.n, [e for e in g.edges() if e not in removed])
        return {r.check: r.witness for r in audit_separator(damaged, params, (0, 1)).failures()}

    failed = failures((2, 3))
    assert list(failed) == ["piece-fault-tolerance"]
    assert failed["piece-fault-tolerance"]["counterexample"] == [0, 1]

    failed = failures((2, 3), (0, 3), (0, 4))
    assert list(failed) == ["piece-fault-tolerance", "anchored-clique"]
    assert failed["anchored-clique"]["separator_vertex"] == 0

    failed = failures((2, 3), (0, 2), (0, 3), (0, 4))
    assert list(failed) == ["piece-fault-tolerance", "anchored-clique", "full-components"]
    assert failed["full-components"]["neighborhood"] == [1]


def test_recognize_star_families():
    assert recognize_min_1ft(star_construction(1, 3, 4), 3, 4)
    assert recognize_min_1ft(star_construction(1, 2, 3), 2, 3)
    result = recognize_min_1ft(star_construction(1, 3, 3), 3, 3)
    assert result.accepted
    assert "blocks are complete graphs on 4 vertices" in result.explanation


def test_recognize_rejects_wrong_shapes():
    result = recognize_min_1ft(complete_graph(7), 2, 3)
    assert not result.accepted
    assert "7 vertices" in result.explanation

    result = recognize_min_1ft(complete_graph(6), 2, 3)
    assert not result.accepted
    assert "order 6" in result.explanation

    dense = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                      if (u, v) != (5, 6)])
    assert not recognize_min_1ft(dense, 2, 3).accepted


def test_recognize_glued_trees():
    g = tree_of_cliques(1, 3, TreeTemplate.path(3, 1, 3))
    assert recognize_min_1ft(g, 3, 3)
    h = tree_of_cliques(1, 4, TreeTemplate(3, ((0, 1, (2,)), (0, 2, (2,)))))
    assert recognize_min_1ft(h, 3, 4)


def test_recognize_rejects_disconnected_graphs():
    # four K4s: 16 = 5*3 + 1 vertices and every block a K4, but a deletion
    # inside one K4 leaves room for only four triangles
    g = complete_graph(4)
    for _ in range(3):
        g = disjoint_union(g, complete_graph(4))
    assert not verify_ft(g, FTParams(1, 5, 3)).holds
    result = recognize_min_1ft(g, 5, 3)
    assert not result.accepted
    assert "disconnected" in result.explanation


def _graph_classes(n, m):
    """One graph per isomorphism class with n vertices and m edges."""
    classes = {}
    for d0 in range(n):
        for adj in _iter_adjacencies(n, m, d0, d0):
            g = Graph._from_adj(n, adj)
            classes.setdefault(canonical_form(g), g)
    return classes.values()


@pytest.mark.parametrize("p,c,graphs", [
    (1, 3, lambda: (g for m in range(7) for g in all_graphs_with_edges(4, m))),
    (1, 4, lambda: (g for m in range(11) for g in all_graphs_with_edges(5, m))),
    (2, 3, lambda: (g for m in (12, 13) for g in _graph_classes(7, m))),
], ids=["all-n4", "all-n5", "classes-n7"])
def test_recognizer_matches_verification_on_enumerated_graphs(p, c, graphs):
    params = FTParams(1, p, c)
    bound = hub_edge_bound(1, p, c)
    accepted = 0
    for g in graphs():
        expected = g.edge_count == bound and verify_ft(g, params).holds
        assert bool(recognize_min_1ft(g, p, c)) == expected, g.edges()
        accepted += expected
    assert accepted >= 1


def test_recognize_parameter_validation():
    with pytest.raises(ValueError):
        recognize_min_1ft(complete_graph(4), 0, 3)
    with pytest.raises(ValueError):
        recognize_min_1ft(complete_graph(4), 1, 2)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_recognize_rejects_non_integer_parameters(bad):
    # recognize_min_1ft(g, 2.0, 3) used to accept the (1,2,3) hub graph
    g = star_construction(1, 2, 3)
    for p, c in ((bad, 3), (2, bad)):
        with pytest.raises(ValueError, match="integers"):
            recognize_min_1ft(g, p, c)


def test_recognizer_matches_verification_and_bound():
    # on the critical order for k = 1, acceptance at the bound edge count
    # is equivalent to the recognizer's block condition; exercise both
    # random graphs and perturbed known minima
    from ftclique import relabeled

    rng = random.Random(140)
    p, c = 2, 3
    n = p * c + 1
    bound = hub_edge_bound(1, p, c)
    params = FTParams(1, p, c)
    pool = []
    for _ in range(120):
        pool.append(random_graph(rng, n, rng.choice([0.5, 0.6, 0.7])))
    base = star_construction(1, p, c)
    for _ in range(30):
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = relabeled(base, perm)
        pool.append(shuffled)
        # one edge more (no longer at the bound) and one edge fewer
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not shuffled.has_edge(u, v)]
        pool.append(Graph(n, shuffled.edges() + [rng.choice(non_edges)]))
        drop = rng.randrange(shuffled.edge_count)
        pool.append(Graph(n, [e for i, e in enumerate(shuffled.edges())
                              if i != drop]))
    accepted = 0
    for g in pool:
        expected = g.edge_count == bound and verify_ft(g, params).holds
        got = bool(recognize_min_1ft(g, p, c))
        assert got == expected
        accepted += got
    assert accepted >= 30  # the relabeled minima all pass
