"""Disjoint clique packing: exact backtracker vs the naive oracle."""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from ftclique import (
    OracleBudgetError,
    TreeTemplate,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_disjoint_cliques,
    has_clique_containing,
    is_valid_packing,
    oracle_packing_exists,
    relabeled,
    star_construction,
    tree_of_cliques,
)
from ftclique.graphs import Graph, mask_of, vertex_tuple
from ftclique.packing import _families, clique_containing
from helpers import find_disjoint_cliques_full_peel, packings_exist_bruteforce, random_graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_two_disjoint_triangles():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    packing = find_disjoint_cliques(g, 2, 3)
    assert packing.cliques == ((0, 1, 2), (3, 4, 5))
    assert is_valid_packing(g, packing, 2, 3)


def test_six_cycle_has_no_triangle():
    assert find_disjoint_cliques(cycle_graph(6), 1, 3) is None
    assert find_disjoint_cliques(cycle_graph(6), 3, 2) is not None


def test_complete_graph_perfect_partition():
    packing = find_disjoint_cliques(complete_graph(6), 2, 3)
    assert packing.cliques == ((0, 1, 2), (3, 4, 5))
    assert find_disjoint_cliques(complete_graph(6), 3, 3) is None


def test_seven_cycle_cannot_pack_triangles():
    assert find_disjoint_cliques(cycle_graph(7), 2, 3) is None


def test_petersen_is_triangle_free():
    g = petersen()
    assert find_disjoint_cliques(g, 1, 3) is None
    assert not oracle_packing_exists(g, 1, 3)
    assert find_disjoint_cliques(g, 5, 2) is not None


def test_parameter_validation():
    with pytest.raises(ValueError):
        find_disjoint_cliques(complete_graph(3), 0, 3)
    with pytest.raises(ValueError):
        find_disjoint_cliques(complete_graph(3), 1, 1)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_non_integer_parameters_are_rejected(bad):
    # at p = 1.5 the packer recursed without end, at p = True it packed one
    # clique, and clique_containing(g, 0, True) returned the mask 1
    g = star_construction(1, 2, 3)
    for p, c in ((bad, 3), (2, bad)):
        with pytest.raises(ValueError, match="integers"):
            find_disjoint_cliques(g, p, c)
        with pytest.raises(ValueError, match="integers"):
            oracle_packing_exists(g, p, c)
    with pytest.raises(ValueError, match="integer"):
        clique_containing(g, 0, bad)


def test_oracle_budget_guard():
    g = complete_graph(13)
    with pytest.raises(OracleBudgetError):
        oracle_packing_exists(g, 5, 3)
    # within budget either way: small demand or small graph
    assert oracle_packing_exists(g, 4, 3)
    assert oracle_packing_exists(complete_graph(12), 4, 3)


def test_agreement_with_oracles():
    rng = random.Random(2718)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.85]))
        p = rng.randint(1, 3)
        c = rng.randint(2, 4)
        got = find_disjoint_cliques(g, p, c)
        exists = packings_exist_bruteforce(g, p, c)
        assert (got is not None) == exists
        assert (got is not None) == oracle_packing_exists(g, p, c)
        if got is not None:
            assert is_valid_packing(g, got, p, c)


def _lex_first_family(g: Graph, p: int, c: int, allowed: int):
    """The first family of `_families`' lexicographic enumeration over the
    allowed vertices whose sets are all cliques, or None."""
    for family in _families(vertex_tuple(allowed), p, c, ()):
        if all(g.is_clique(sub) for sub in family):
            return family
    return None


def test_packer_returns_the_lex_first_family():
    # n <= 10 keeps every instance inside the oracle budget (n <= 12)
    rng = random.Random(4242)
    perfect_pools = found = 0
    for _ in range(400):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.5, 0.7, 0.85, 0.95]))
        c = rng.randint(2, 4)
        p = rng.randint(1, max(1, n // c))
        if rng.random() < 0.4 and p * c <= n:
            allowed = mask_of(rng.sample(range(n), p * c))
        else:
            allowed = rng.getrandbits(n) | (g.full_mask if rng.random() < 0.3 else 0)
        perfect_pools += allowed.bit_count() == p * c
        want = _lex_first_family(g, p, c, allowed)
        got = find_disjoint_cliques(g, p, c, allowed)
        assert (None if got is None else got.cliques) == want, (g.edges(), p, c, allowed)
        found += want is not None
    assert perfect_pools >= 100 and 100 <= found <= 300


def _packing_and_search_tree(packer, *args):
    """The packer's result, and how many times it entered its place and
    grow steps: equal counts mean the two packers walked the same tree."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("place", "grow"):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = packer(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _assert_same_as_full_peel(*args):
    # the incremental peel reaches the full peel's fixpoint at every step,
    # so it returns the same packing after walking the same search tree
    got = _packing_and_search_tree(find_disjoint_cliques, *args)
    assert got == _packing_and_search_tree(find_disjoint_cliques_full_peel, *args), args


def test_packer_matches_the_full_peel_packer():
    rng = random.Random(8080)
    for _ in range(600):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.85, 0.95]))
        c = rng.randint(2, 4)
        p = rng.randint(1, max(1, n // c))
        allowed = rng.getrandbits(n) if rng.random() < 0.7 else None
        _assert_same_as_full_peel(g, p, c, allowed)
    for k, p, c in [(1, 4, 3), (2, 4, 3), (2, 3, 4), (3, 4, 4), (2, 6, 3)]:
        n = p * c + k
        for g in (star_construction(k, p, c), tree_of_cliques(k, c, TreeTemplate.path(p, k, c))):
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabeled(g, perm)
            # every k-deletion leaves a perfect pool for p, a larger one for p - 1
            for s in combinations(range(n), k):
                allowed = g.full_mask & ~mask_of(s)
                for q in {p, p - 1} - {0}:
                    _assert_same_as_full_peel(g, q, c, allowed)


def test_packing_monotone_under_edge_addition():
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng, 8, 0.45)
        p, c = 2, 3
        if find_disjoint_cliques(g, p, c) is None:
            continue
        extra = [(u, v) for u in range(8) for v in range(u + 1, 8)
                 if not g.has_edge(u, v)]
        added = Graph(8, g.edges() + extra[:2])
        assert find_disjoint_cliques(added, p, c) is not None


def test_is_valid_packing_rejections():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    from ftclique import CliquePacking

    assert not is_valid_packing(g, CliquePacking(((0, 1, 2),)), 2, 3)
    assert not is_valid_packing(g, CliquePacking(((0, 1, 2), (2, 3, 4))), 2, 3)
    assert not is_valid_packing(g, CliquePacking(((0, 1, 2), (3, 4))), 2, 3)
    assert not is_valid_packing(g, CliquePacking(((0, 1, 3), (2, 4, 5))), 2, 3)


def test_has_clique_containing():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert has_clique_containing(g, 0, 2)
    assert not has_clique_containing(g, 0, 3)
    k4 = complete_graph(4)
    assert has_clique_containing(k4, 2, 4)
    # restricting the allowed pool can remove every completion
    assert not has_clique_containing(k4, 2, 4, allowed=mask_of([0, 1, 2]))
    assert has_clique_containing(k4, 2, 3, allowed=mask_of([0, 1, 2]))
    # a v outside the allowed pool lies in no clique drawn from it
    assert clique_containing(k4, 2, 2, allowed=mask_of([0, 1, 3])) is None
    with pytest.raises(ValueError, match="c must be >= 1"):
        clique_containing(k4, 2, 0)


@pytest.mark.parametrize("v, allowed", [(5, 1 << 5), (3, None), (-1, None)])
def test_has_clique_containing_rejects_unknown_vertices(v, allowed):
    with pytest.raises(ValueError, match="out of range"):
        has_clique_containing(complete_graph(3), v, 2, allowed)
