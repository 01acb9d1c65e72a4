"""Fault-tolerance verification scans."""

import multiprocessing
import multiprocessing.connection
import os
import random
import time
from itertools import combinations
from math import comb

import pytest

from ftclique import (
    FTParams,
    Graph,
    TreeTemplate,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_disjoint_cliques,
    hub_edge_bound,
    relabeled,
    star_construction,
    tree_of_cliques,
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


def test_scan_checks_exactly_its_rank_range():
    g = disjoint_union(star_construction(3, 3, 3), complete_graph(3))
    expected = verify_ft(g, FTParams(3, 4, 3))
    first = expected.witness_count - 1
    end = comb(g.n, 3)
    assert verify_module._scan(g, 3, 4, 3, 0, first, 0) == (None, None, {})
    assert verify_module._scan(g, 3, 4, 3, first, end, 0) == (
        first, expected.counterexample, {})
    rank, _, _ = verify_module._scan(g, 3, 4, 3, first + 1, end, 0)
    assert rank is None or rank > first


def test_failing_block_cancels_the_later_blocks(monkeypatch):
    # Rank 0 deletes {0, 1} and fails in the first block once the second
    # block's worker sleeps in the packer, so only cancelling that worker
    # returns in time.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)

    def failing_first(graph, p, c, allowed=None):
        if not allowed & 0b11:
            time.sleep(1)
            return None
        time.sleep(60)

    monkeypatch.setattr(verify_module, "find_disjoint_cliques", failing_first)
    g = star_construction(2, 5, 3)
    params = FTParams(2, 5, 3)
    serial = verify_ft(g, params)
    assert (serial.holds, serial.counterexample, serial.witness_count) == (False, (0, 1), 1)
    started = time.monotonic()
    verdict = verify_ft(g, params, jobs=2)
    assert time.monotonic() - started < 10
    assert verdict == serial and verdict.reason == serial.reason
    assert multiprocessing.active_children() == []


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
    # The drops of g fail below rank 79 of 136; reversing the labels moves
    # failures into the last ranks, so every block of jobs 2 and 3 holds some.
    reverse = relabeled(g, list(range(g.n - 1, -1, -1)))
    graphs = [g] + [Graph(h.n, [e for e in h.edges() if e != drop])
                    for h in (g, reverse) for drop in h.edges()]
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
        for j in range(jobs):
            block = range(everything * j // jobs, everything * (j + 1) // jobs)
            assert any(rank in block for rank in failing_ranks)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind, k, p, c", [
    ("star", 2, 5, 3), ("star", 3, 3, 4), ("path", 2, 4, 4),
], ids=["star-2-5-3", "star-3-3-4", "path-2-4-4"])
def test_carried_packings_give_the_packers_verdict(monkeypatch, kind, k, p, c):
    # Native labels let the carry answer most ranks; each dropped edge can
    # break the clique a swap would take in, and the relabelings break up
    # the runs of subsets that differ in one vertex of one clique.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    if kind == "star":
        g = star_construction(k, p, c)
    else:
        g = tree_of_cliques(k, c, TreeTemplate.path(p, k, c))
    native = [g] + [Graph(g.n, [e for e in g.edges() if e != drop])
                    for drop in g.edges()]
    rng = random.Random(2021)
    graphs = list(native)
    for _ in range(2):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [relabeled(h, perm) for h in native]
    params = FTParams(k, p, c)
    failing = 0
    for h in graphs:
        expected = verify_reference(h, params)
        failing += not expected.holds
        for max_witnesses in (0, 3):
            with monkeypatch.context() as patched:
                patched.setattr(verify_module, "_carry", lambda *args: False)
                packer_only = verify_ft(h, params, max_witnesses=max_witnesses)
            for jobs in (1, 2):
                verdict = verify_ft(h, params, max_witnesses=max_witnesses, jobs=jobs)
                assert (verdict.holds, verdict.counterexample, verdict.witness_count) == (
                    expected.holds, expected.counterexample, expected.witness_count)
                assert verdict == packer_only
    assert 0 < failing < len(graphs)
    assert multiprocessing.active_children() == []


def test_carry_answers_most_ranks_on_native_labels(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return find_disjoint_cliques(*args)

    monkeypatch.setattr(verify_module, "find_disjoint_cliques", counting)
    verdict = verify_ft(star_construction(2, 5, 3), FTParams(2, 5, 3))
    assert verdict.holds and verdict.witness_count == 136
    assert len(calls) < 136 / 2


def test_carry_survives_the_split_into_blocks(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return find_disjoint_cliques(*args)

    monkeypatch.setattr(verify_module, "find_disjoint_cliques", counting)
    g = star_construction(2, 5, 3)
    total = comb(g.n, 2)
    assert verify_module._scan(g, 2, 5, 3, 0, total, 0) == (None, None, {})
    serial = len(calls)
    for jobs in (2, 3):
        calls.clear()
        for j in range(jobs):
            assert verify_module._scan(g, 2, 5, 3, total * j // jobs,
                                       total * (j + 1) // jobs, 0) == (None, None, {})
        assert len(calls) <= serial + jobs - 1


def test_racing_workers_keep_the_least_failing_rank():
    # More workers than cores, and a failure in every few ranks, so several
    # blocks fail; the blocks are read in order, the first failing one ends
    # the scan, and the workers not read are terminated.
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


@pytest.mark.parametrize("fault", ["raise", "exit"])
def test_faults_past_the_first_failing_block_are_not_raised(monkeypatch, fault):
    # Rank 0 deletes {0, 1} and fails in the first block after a second;
    # the second block faults at once, at ranks a serial scan never reaches.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)

    def faulting_later(graph, p, c, allowed=None):
        if not allowed & 0b11:
            time.sleep(1)
            return None
        if fault == "raise":
            raise ValueError("packer failed")
        os._exit(3)

    monkeypatch.setattr(verify_module, "find_disjoint_cliques", faulting_later)
    verdict = verify_ft(star_construction(2, 5, 3), FTParams(2, 5, 3), jobs=2)
    assert (verdict.holds, verdict.counterexample, verdict.witness_count) == (False, (0, 1), 1)
    assert multiprocessing.active_children() == []


def test_read_workers_exit_on_their_own(monkeypatch, tmp_path):
    # A worker whose result was read is joined, not terminated, so its exit
    # handlers run; here each takes half a second to reach its marker.
    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    work = verify_module._work

    def slow_exit(conn, graph, k, p, c, start, *rest):
        work(conn, graph, k, p, c, start, *rest)
        time.sleep(0.5)
        (tmp_path / str(start)).touch()

    monkeypatch.setattr(verify_module, "_work", slow_exit)
    assert verify_ft(star_construction(2, 5, 3), FTParams(2, 5, 3), jobs=2).holds
    assert sorted(int(marker.name) for marker in tmp_path.iterdir()) == [0, 68]
    assert multiprocessing.active_children() == []


def test_interrupted_caller_terminates_its_workers(monkeypatch):
    def interrupted(connection):
        raise KeyboardInterrupt

    def sleeping(graph, p, c, allowed=None):
        time.sleep(60)

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
    _run_with_broken_packer(monkeypatch, sleeping, KeyboardInterrupt)


def test_jobs_and_witness_limits_are_checked():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="jobs"):
        verify_ft(g, FTParams(1, 1, 3), jobs=0)
    with pytest.raises(ValueError, match="max_witnesses"):
        verify_ft(g, FTParams(1, 1, 3), max_witnesses=-1)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_non_integer_parameters_are_rejected(bad):
    for args in ((bad, 2, 3), (1, bad, 3), (1, 2, bad)):
        with pytest.raises(ValueError, match="integers"):
            FTParams(*args)
    # star(1, 2, 3) has 7 subsets, below the parallel threshold, so jobs
    # would never be used if it were not checked first
    g, params = star_construction(1, 2, 3), FTParams(1, 2, 3)
    with pytest.raises(ValueError, match="jobs"):
        verify_ft(g, params, jobs=bad)
    with pytest.raises(ValueError, match="max_witnesses"):
        verify_ft(g, params, max_witnesses=bad)
