"""Fault-tolerance verification scans."""

import random
from itertools import combinations
from math import comb

import pytest

from ftclique import (
    FTParams,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_disjoint_cliques,
    hub_edge_bound,
    is_minimum_candidate,
    relabeled,
    star_construction,
    verify_ft,
    verify_ft_oracle,
)
from ftclique import verify as verify_module
from ftclique.graphs import mask_of
from ftclique.verify import degree_floor
from helpers import (
    packing_after_deletion_reference,
    packings_exist_bruteforce,
    random_graph,
    verify_reference,
)


def test_params_validation():
    with pytest.raises(ValueError):
        FTParams(-1, 1, 3)
    with pytest.raises(ValueError):
        FTParams(0, 0, 3)
    with pytest.raises(ValueError):
        FTParams(0, 1, 1)
    assert FTParams(2, 3, 4).critical_order == 14


def test_bounds_formulas():
    assert hub_edge_bound(0, 1, 3) == 3
    assert hub_edge_bound(1, 2, 3) == 12
    assert hub_edge_bound(2, 2, 3) == 19
    assert hub_edge_bound(2, 5, 3) == 46
    assert degree_floor(1, 3) == 3
    assert degree_floor(2, 4) == 5


def test_k4_tolerates_one_deletion():
    verdict = verify_ft(complete_graph(4), FTParams(1, 1, 3))
    assert verdict.holds
    assert verdict.counterexample is None
    assert verdict.witness_count == 4


def test_five_cycle_keeps_two_edges():
    assert verify_ft(cycle_graph(5), FTParams(1, 2, 2)).holds


def test_seven_cycle_fails_with_least_counterexample():
    verdict = verify_ft(cycle_graph(7), FTParams(1, 2, 3))
    assert not verdict.holds
    assert verdict.counterexample == (0,)
    assert verdict.witness_count == 1
    assert verdict.reason is not None


def test_failure_later_in_the_scan():
    # two K4 blocks sharing nothing plus a bridge of hubs: deleting a
    # vertex of the second block is survivable, deleting one of the first
    # block's interior is not; built so the least failure is not (0,)
    g = disjoint_union(complete_graph(3), complete_graph(4))
    verdict = verify_ft(g, FTParams(1, 2, 3))
    assert not verdict.holds
    # deleting any triangle vertex kills the only second triangle source
    assert verdict.counterexample == (0,)

    h = disjoint_union(complete_graph(4), complete_graph(3))
    verdict = verify_ft(h, FTParams(1, 2, 3))
    assert not verdict.holds
    assert verdict.counterexample == (4,)
    assert verdict.witness_count == 5


def test_star_construction_survives_two_deletions():
    g = star_construction(2, 2, 3)
    verdict = verify_ft(g, FTParams(2, 2, 3))
    assert verdict.holds
    assert verdict.witness_count == 28


def test_witness_retention():
    g = star_construction(1, 2, 3)
    verdict = verify_ft(g, FTParams(1, 2, 3), max_witnesses=3)
    assert verdict.holds
    assert len(verdict.sample_witnesses) == 3
    for subset, packing in verdict.sample_witnesses.items():
        deleted = set(subset)
        for clique in packing.cliques:
            assert not deleted & set(clique)
            assert g.is_clique(clique)


def test_parallel_scan_matches_sequential():
    # C(15, 3) = 455 subsets crosses the parallel threshold
    g = star_construction(3, 4, 3)
    params = FTParams(3, 4, 3)
    seq = verify_ft(g, params, jobs=1)
    par = verify_ft(g, params, jobs=2)
    assert par.holds and seq == par

    bad = disjoint_union(star_construction(3, 3, 3), complete_graph(3))
    seq = verify_ft(bad, params, jobs=1)
    par = verify_ft(bad, params, jobs=3)
    assert not seq.holds
    assert seq.counterexample == par.counterexample == (0, 1, 12)
    assert seq.witness_count == par.witness_count


def test_degenerate_orders():
    verdict = verify_ft(complete_graph(3), FTParams(1, 1, 3))
    assert not verdict.holds
    assert verdict.counterexample == (0,)
    assert "required" in verdict.reason

    verdict = verify_ft(complete_graph(2), FTParams(0, 1, 3))
    assert not verdict.holds
    assert verdict.counterexample == ()

    verdict = verify_ft(complete_graph(2), FTParams(3, 1, 3))
    assert not verdict.holds
    assert verdict.counterexample is None


def test_k_zero_is_a_single_packing_test():
    assert verify_ft(complete_graph(6), FTParams(0, 2, 3)).holds
    assert not verify_ft(cycle_graph(6), FTParams(0, 2, 3)).holds


def test_oracle_verifier_agrees():
    rng = random.Random(424242)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
        for params in (FTParams(1, 1, 3), FTParams(1, 2, 2), FTParams(2, 1, 3)):
            a = verify_ft(g, params)
            b = verify_ft_oracle(g, params)
            assert a.holds == b.holds
            assert a.counterexample == b.counterexample


def test_minimum_candidacy():
    good = is_minimum_candidate(star_construction(2, 2, 3), FTParams(2, 2, 3))
    assert good
    assert good.edge_count == good.bound == 19
    assert not good.proven_minimum
    assert "candidate at bound 19" in good.note

    proven = is_minimum_candidate(complete_graph(5), FTParams(2, 1, 3))
    assert proven
    assert proven.proven_minimum

    k1 = is_minimum_candidate(star_construction(1, 2, 3), FTParams(1, 2, 3))
    assert k1.proven_minimum

    wrong_order = is_minimum_candidate(complete_graph(6), FTParams(2, 1, 3))
    assert not wrong_order
    assert not wrong_order.order_ok

    failing = is_minimum_candidate(cycle_graph(7), FTParams(1, 2, 3))
    assert not failing
    assert failing.note == "fails verification"

    # correct order, accepted, but one edge above the bound
    from ftclique import Graph

    g = star_construction(1, 2, 3)
    extra = next((u, v) for u in range(7) for v in range(u + 1, 7)
                 if not g.has_edge(u, v))
    padded = Graph(7, g.edges() + [extra])
    over = is_minimum_candidate(padded, FTParams(1, 2, 3))
    assert not over
    assert over.holds and over.order_ok
    assert "13 edges" in over.note


def test_masked_packer_matches_relabeled_packing():
    rng = random.Random(20240611)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 11)
        g = random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
        k = rng.randint(0, 2)
        c = rng.choice([2, 3, 4])
        p = rng.randint(1, max(1, min(3, (n - k) // c)))
        for subset in combinations(range(n), k):
            allowed = g.full_mask & ~mask_of(subset)
            got = find_disjoint_cliques(g, p, c, allowed)
            assert got == packing_after_deletion_reference(g, p, c, subset)
            sub, _ = g.remove_vertices(subset)
            assert (got is not None) == packings_exist_bruteforce(sub, p, c)
            checked += 1
    assert checked > 600


@pytest.mark.parametrize("drop", [False, True], ids=["star", "star-minus-edge"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_matches_relabeled_reference(monkeypatch, drop, jobs):
    # Send even this small scan through the process pool when jobs > 1.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    rng = random.Random(7)
    g = star_construction(2, 5, 3)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabeled(g, perm)
    if drop:
        edges = g.edges()
        edges.remove(rng.choice(edges))
        g = Graph(g.n, edges)
    params = FTParams(2, 5, 3)
    verdict = verify_ft(g, params, max_witnesses=comb(g.n, 2), jobs=jobs)
    expected = verify_reference(g, params)
    assert verdict == expected
    assert verdict.reason == expected.reason
    assert verdict.holds != drop
