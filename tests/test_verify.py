"""Fault-tolerance verification scans."""

import multiprocessing
import os
import random
import time
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


def test_scan_stops_before_a_rank_at_or_past_the_stop_value(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return find_disjoint_cliques(*args)

    monkeypatch.setattr(verify_module, "find_disjoint_cliques", counting)
    g = star_construction(2, 5, 3)
    for start, step, stop in [(5, 2, 3), (5, 2, 5), (0, 1, 0), (2, 3, 1)]:
        result = verify_module._scan(g, 2, 5, 3, start, step, comb(g.n, 2),
                                     multiprocessing.RawValue("q", stop))
        assert result == (None, None, [])
    assert calls == []


def test_scan_lowers_the_stop_value_to_its_failing_rank():
    g = disjoint_union(star_construction(3, 3, 3), complete_graph(3))
    expected = verify_ft(g, FTParams(3, 4, 3))
    first = expected.witness_count - 1
    stop = multiprocessing.RawValue("q", comb(g.n, 3))
    rank, subset, _ = verify_module._scan(g, 3, 4, 3, first % 2, 2, 0, stop)
    assert (rank, subset) == (first, expected.counterexample)
    assert stop.value == first
    # A later failure never raises the value again.
    stop.value = 0
    assert verify_module._scan(g, 3, 4, 3, first, 1, 0, stop) == (None, None, [])
    assert stop.value == 0


def test_verify_does_not_depend_on_jobs(monkeypatch):
    # Workers start even for this small scan; each drop moves the failure.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    rng = random.Random(11)
    g = star_construction(2, 5, 3)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabeled(g, perm)
    params = FTParams(2, 5, 3)
    everything = comb(g.n, 2)
    graphs = [g] + [Graph(g.n, [e for e in g.edges() if e != drop])
                    for drop in g.edges()]
    failing_ranks = []
    for h in graphs:
        expected = verify_reference(h, params)
        serial = verify_ft(h, params, max_witnesses=everything, jobs=1)
        assert serial == expected and serial.reason == expected.reason
        for jobs in (2, 3):
            verdict = verify_ft(h, params, max_witnesses=everything, jobs=jobs)
            assert verdict == serial and verdict.reason == serial.reason
        if not serial.holds:
            failing_ranks.append(serial.witness_count - 1)
    assert len(failing_ranks) == len(graphs) - 1
    for jobs in (2, 3):
        assert {rank % jobs for rank in failing_ranks} == set(range(jobs))
    assert multiprocessing.active_children() == []


def test_racing_workers_keep_the_least_failing_rank():
    # More workers than cores, and a failure in every few ranks, so the
    # workers race to lower the shared stop value.
    g = disjoint_union(star_construction(3, 3, 3), complete_graph(3))
    params = FTParams(3, 4, 3)
    everything = comb(g.n, 3)
    serial = verify_ft(g, params, max_witnesses=everything)
    jobs = len(os.sched_getaffinity(0)) + 2 if hasattr(os, "sched_getaffinity") else 4
    started = time.monotonic()
    for _ in range(10):
        verdict = verify_ft(g, params, max_witnesses=everything, jobs=jobs)
        assert verdict == serial
    assert time.monotonic() - started < 60
    assert multiprocessing.active_children() == []


def _run_with_broken_packer(monkeypatch, packer, error):
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(verify_module, "find_disjoint_cliques", packer)
    started = time.monotonic()
    with pytest.raises(error) as info:
        verify_ft(star_construction(2, 5, 3), FTParams(2, 5, 3), jobs=2)
    assert time.monotonic() - started < 30
    assert multiprocessing.active_children() == []
    return info


def test_worker_exception_is_raised_with_its_type(monkeypatch):
    def raising(graph, p, c, allowed=None):
        raise ValueError("packer failed")

    info = _run_with_broken_packer(monkeypatch, raising, ValueError)
    assert "packer failed" in str(info.value)


def test_worker_that_dies_without_a_result_raises(monkeypatch):
    parent = os.getpid()

    def dying(graph, p, c, allowed=None):
        assert os.getpid() != parent
        # Rank 0 deletes {0, 1}: its worker dies, the other one blocks
        # until the caller terminates it.
        if not allowed & 0b11:
            os._exit(3)
        time.sleep(60)

    info = _run_with_broken_packer(monkeypatch, dying, RuntimeError)
    assert "code 3" in str(info.value)


def test_interrupted_caller_terminates_its_workers(monkeypatch):
    def interrupted(connections, timeout=None):
        raise KeyboardInterrupt

    def sleeping(graph, p, c, allowed=None):
        time.sleep(60)

    monkeypatch.setattr(verify_module, "wait", interrupted)
    _run_with_broken_packer(monkeypatch, sleeping, KeyboardInterrupt)


def test_jobs_and_witness_limits_are_checked():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="jobs"):
        verify_ft(g, FTParams(1, 1, 3), jobs=0)
    with pytest.raises(ValueError, match="max_witnesses"):
        verify_ft(g, FTParams(1, 1, 3), max_witnesses=-1)
