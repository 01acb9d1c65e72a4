"""End-to-end acceptance gate, one test per shipped guarantee.

Each test runs a complete scenario against frozen expected values and
enforces its own wall-clock ceiling, so a plain ``pytest -v`` prints one
pass/fail line per guarantee. Run with ``-s`` for the detail lines.
"""

import random
import time
from math import comb

import networkx as nx

from ftclique.audit import (
    audit_basic,
    audit_low_degree_cliques,
    audit_separator,
    recognize_min_1ft,
    size_k_separators,
)
from ftclique.blocks import blocks
from ftclique.canon import canonical_form
from ftclique.connectivity import edge_connectivity, vertex_connectivity
from ftclique.construct import (
    TreeTemplate,
    c2_even_k_construction,
    contract_neighborhood,
    odd_cycle,
    star_construction,
    tree_of_cliques,
)
from ftclique.formats import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from ftclique.graphs import Graph, complete_graph
from ftclique.search import Budget, probe_conjecture, search_minimum
from ftclique.verify import FTParams, hub_edge_bound, verify_ft, verify_ft_oracle

from helpers import all_graphs_with_edges, random_graph

CONSTRUCTION_PARAMS = [(1, 2, 3), (1, 3, 3), (1, 2, 4), (2, 2, 3), (2, 5, 3)]


def _tree_graphs(k: int, p: int, c: int) -> list[Graph]:
    """Trees of cliques for (k, p, c) from three plans that build three
    distinct labeled graphs: the path, the star (star_construction's
    graph), and a star glued at root slots 1..k."""
    plans = [
        TreeTemplate.path(p, k, c),
        TreeTemplate.star(p, k),
        TreeTemplate(p, tuple((0, i, tuple(range(1, k + 1))) for i in range(1, p))),
    ]
    graphs = [tree_of_cliques(k, c, t) for t in plans]
    assert len(set(graphs)) == 3
    assert graphs[1] == star_construction(k, p, c)
    return graphs


def _report(label: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, ceiling {limit}s"
    suffix = f" [{detail}]" if detail else ""
    print(f"{label}: PASS ({elapsed:.2f}s / {limit:.0f}s){suffix}")


def test_star_edge_count_formula():
    started = time.monotonic()
    for k in range(4):
        for p in range(1, 6):
            for c in range(3, 6):
                g = star_construction(k, p, c)
                want = (comb(c, 2) + c * k) * p + comb(k, 2)
                assert g.n == p * c + k
                assert g.edge_count == want, (k, p, c, g.edge_count, want)
    _report("star edge-count formula, k 0..3 x p 1..5 x c 3..5", started, 1.0)


def test_constructions_verify_across_params():
    started = time.monotonic()
    for k, p, c in CONSTRUCTION_PARAMS:
        params = FTParams(k, p, c)
        family = _tree_graphs(k, p, c)
        for g in family:
            assert g.n == p * c + k
            assert verify_ft(g, params).holds, (k, p, c)
        if (k, p, c) == (2, 5, 3):
            for g in family:
                assert (g.n, g.edge_count) == (17, 46)
    _report(
        "3 distinct clique-tree gluings, the star among them, verify at 5 "
        "parameter sets",
        started, 30.0, "(2,5,3) family is 17 vertices / 46 edges",
    )


def test_blind_search_reproduces_two_triangle_minimum():
    started = time.monotonic()
    report = search_minimum(FTParams(1, 2, 3))
    assert report.minimum_found == 12
    assert report.exhaustive
    assert report.exemplars, "no exemplar returned"
    for g in report.exemplar_graphs():
        decomposition = blocks(g)
        for block in decomposition.blocks:
            assert len(block) == 4
            for u in block:
                for v in block:
                    assert u == v or g.has_edge(u, v)
    # Independent cross-check with a restriction-free enumerator: no
    # 7-vertex, 11-edge graph of min degree >= 3 passes verification.
    candidates = 0
    survivors = 0
    for g in all_graphs_with_edges(7, 11, min_degree=3):
        candidates += 1
        if verify_ft(g, FTParams(1, 2, 3)).holds:
            survivors += 1
    assert candidates == 5670
    assert survivors == 0
    _report(
        "blind search (1,2,3): minimum 12, all exemplar blocks are K_4, "
        "no 11-edge solution in unrestricted enumeration",
        started, 600.0, f"{candidates} labeled 11-edge candidates rejected",
    )


def test_forced_complete_graph_minima():
    started = time.monotonic()
    rep_a = search_minimum(FTParams(2, 1, 3))
    assert rep_a.minimum_found == 10
    assert rep_a.exhaustive
    assert rep_a.exemplars == (canonical_form(complete_graph(5)),)
    rep_b = search_minimum(FTParams(3, 1, 4))
    assert rep_b.minimum_found == 21
    assert rep_b.exhaustive
    assert rep_b.exemplars == (canonical_form(complete_graph(7)),)
    _report(
        "forced minima: (2,1,3) -> 10 = K_5, (3,1,4) -> 21 = K_7",
        started, 60.0,
    )


def test_bound_tightness_probe_2_2_3():
    started = time.monotonic()
    # Deliberately undersized budget: the run must interrupt, hand back a
    # serializable token, and finish across resumed invocations. The
    # search yields 6 graphs, so a budget of 2 stops it mid-unit.
    report = probe_conjecture(2, 2, 3, Budget(graphs=2))
    hops = 1
    assert report.resume is not None, "budget did not interrupt the run"
    while report.resume is not None:
        token = type(report.resume).from_dict(report.resume.to_dict())
        report = probe_conjecture(2, 2, 3, Budget(graphs=2), resume=token)
        hops += 1
        assert hops < 50
    assert report.minimum_found == 19
    assert report.exhaustive, "edge counts 16..19 were not fully covered"
    assert report.target_bound == 19
    assert "bound confirmed tight at these parameters" in report.notes
    star_cert = canonical_form(star_construction(2, 2, 3))
    assert star_cert in report.exemplars
    _report(
        "tightness probe (2,2,3): nothing below 19 edges on 8 vertices, "
        "19 achieved by the hub construction, resumable across budgets",
        started, 7200.0,
        f"{report.graphs_examined} graphs over {hops} budgeted runs",
    )


def test_bound_tightness_probe_2_2_4():
    started = time.monotonic()
    report = probe_conjecture(2, 2, 4)
    assert report.exhaustive, "edge counts 25..29 were not fully covered"
    assert report.n == 10 and report.lower_bound == 25
    assert report.minimum_found == report.target_bound == 29
    exemplars = report.exemplar_graphs()
    assert [emit_graph6(g).strip() for g in exemplars] == ["IJ]CKN~~w"]
    assert canonical_form(star_construction(2, 2, 4)) in report.exemplars
    for g in exemplars:
        assert verify_ft_oracle(g, FTParams(2, 2, 4)).holds
    assert "bound confirmed tight at these parameters" in report.notes
    _report(
        "tightness probe (2,2,4): nothing below 29 edges on 10 vertices, "
        "29 achieved by the hub construction alone",
        started, 60.0,
        f"{report.graphs_examined} graphs, {report.stats['new_classes']} classes",
    )


def _hub_is_the_minimum(k: int, p: int, c: int, n: int, lower: int, hub: int) -> None:
    """Nothing below the hub bound at the critical order, and the hub
    construction itself passes both verifiers."""
    params = FTParams(k, p, c)
    assert hub_edge_bound(k, p, c) == hub
    report = search_minimum(params, max_edges=hub - 1)
    assert report.exhaustive, f"edge counts {lower}..{hub - 1} were not fully covered"
    assert report.n == n and report.lower_bound == lower
    assert report.minimum_found is None and report.exemplars == ()
    assert report.graphs_examined == 0
    g = star_construction(k, p, c)
    assert g.n == n and g.edge_count == hub
    assert verify_ft(g, params).holds
    assert verify_ft_oracle(g, params).holds


def test_bound_tightness_probe_3_2_4():
    started = time.monotonic()
    _hub_is_the_minimum(3, 2, 4, n=11, lower=33, hub=39)
    _report(
        "tightness (3,2,4): nothing below 39 edges on 11 vertices, 39 "
        "achieved by the hub construction",
        started, 60.0,
    )


def test_bound_tightness_probe_2_2_5():
    started = time.monotonic()
    _hub_is_the_minimum(2, 2, 5, n=12, lower=36, hub=41)
    _report(
        "tightness (2,2,5): nothing below 41 edges on 12 vertices, 41 "
        "achieved by the hub construction",
        started, 120.0,
    )


def test_audits_and_connectivity_on_constructed_families():
    started = time.monotonic()
    for k, p, c in CONSTRUCTION_PARAMS:
        params = FTParams(k, p, c)
        family = _tree_graphs(k, p, c)
        for g in family:
            assert audit_basic(g, params).passed, (k, p, c)
            assert audit_low_degree_cliques(g, params).passed, (k, p, c)
            separators = size_k_separators(g, k)
            assert separators, (k, p, c)
            for sep in separators:
                assert audit_separator(g, params, sep).passed, (k, p, c, sep)
            assert edge_connectivity(g) >= c + k - 1, (k, p, c)
            assert vertex_connectivity(g) >= k, (k, p, c)
    _report(
        "audits clean on every constructed family; edge connectivity >= "
        "c+k-1 and vertex connectivity >= k",
        started, 60.0,
    )


def test_contraction_reduces_packing_count():
    started = time.monotonic()
    contracted = 0
    for p in (2, 3):
        for c in (3, 4):
            params = FTParams(1, p, c)
            family = _tree_graphs(1, p, c)
            if p == 3:
                branched = TreeTemplate(3, ((0, 1, (c,)), (0, 2, (0,))))
                family.append(tree_of_cliques(1, c, branched))
            smaller = FTParams(1, p - 1, c)
            for g in family:
                assert recognize_min_1ft(g, p, c).accepted
                hubs = [x for x in range(g.n) if g.degree(x) == c]
                assert hubs, (p, c)
                for x in hubs:
                    h = contract_neighborhood(g, params, x)
                    assert h.n == (p - 1) * c + 1
                    assert verify_ft(h, smaller).holds, (p, c, x)
                    contracted += 1
    _report(
        "contracting any degree-c vertex of a recognized minimum keeps "
        "acceptance at p-1",
        started, 60.0, f"{contracted} contractions checked",
    )


def test_pairs_case_cycles_and_even_k():
    started = time.monotonic()
    for p in range(1, 7):
        g = odd_cycle(p)
        assert g.n == 2 * p + 1
        assert verify_ft(g, FTParams(1, p, 2)).holds, p
    g = c2_even_k_construction(4, 1)
    k, p = 4, 1
    assert g.n == 2 * p + k
    assert g.edge_count == (2 * p + k) * (k + 1) // 2 == 15
    assert canonical_form(g) == canonical_form(complete_graph(6))
    assert verify_ft(g, FTParams(4, 1, 2)).holds
    _report(
        "pairs case: odd cycles pass (1,p,2) for p <= 6; the even-k "
        "circulant at (4,1) is K_6 with 15 edges and passes",
        started, 10.0,
    )


def test_verifier_matches_oracle_on_random_graphs():
    started = time.monotonic()
    rng = random.Random(101)
    param_grid = [FTParams(1, 1, 3), FTParams(1, 2, 3),
                  FTParams(2, 1, 3), FTParams(2, 2, 3)]
    disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
        for params in param_grid:
            if verify_ft(g, params).holds != verify_ft_oracle(g, params).holds:
                disagreements += 1
    assert disagreements == 0
    _report(
        "subset-scan verifier matches the packing oracle on 500 random "
        "graphs x 4 parameter sets",
        started, 300.0, "2000 comparisons, 0 disagreements",
    )


def test_format_round_trips_and_reference_encoding():
    started = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        assert parse_graph6(emit_graph6(g)) == g
        assert parse_edge_list(emit_edge_list(g)) == g
    k5 = complete_graph(5)
    assert emit_graph6(k5) == "D~{\n"
    reference = nx.to_graph6_bytes(nx.complete_graph(5), header=False).strip()
    assert emit_graph6(k5).strip().encode() == reference
    _report(
        "graph6 and edge-list round-trips lossless on 1000 random graphs; "
        "K_5 encoding matches the independent reference",
        started, 10.0,
    )
