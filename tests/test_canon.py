"""Canonical forms: invariance under relabeling, completeness vs brute force."""

import random

from ftclique import (
    canonical_form,
    canonical_graph,
    canonical_labeling,
    complete_graph,
    cycle_graph,
    relabeled,
    star_construction,
)
from helpers import isomorphic_bruteforce, random_graph


def test_relabelings_share_one_form():
    g = cycle_graph(5)
    base = canonical_form(g)
    rng = random.Random(2)
    for _ in range(20):
        perm = list(range(5))
        rng.shuffle(perm)
        assert canonical_form(relabeled(g, perm)) == base


def test_near_misses_are_distinguished():
    k4 = complete_graph(4)
    k4_minus = canonical_form(relabeled(k4, [2, 0, 3, 1]))
    edges = k4.edges()[:-1]
    from ftclique import Graph

    assert canonical_form(Graph(4, edges)) != k4_minus
    assert canonical_form(cycle_graph(6)) != canonical_form(cycle_graph(5))


def test_random_relabelings_sweep():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabeled(g, perm)) == canonical_form(g)


def test_matches_bruteforce_isomorphism():
    rng = random.Random(8080)
    agree = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        a = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
        b = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
        same_form = canonical_form(a) == canonical_form(b)
        assert same_form == isomorphic_bruteforce(a, b)
        agree += same_form
    # regular graphs stress the refinement's backtracking
    a = cycle_graph(6)
    from ftclique import disjoint_union

    b = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert canonical_form(a) != canonical_form(b)
    assert not isomorphic_bruteforce(a, b)


def test_canonical_graph_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        form = canonical_form(g)
        rebuilt = canonical_graph(form)
        assert canonical_form(rebuilt) == form
        assert rebuilt.n == g.n and rebuilt.edge_count == g.edge_count


def test_canonical_labeling_achieves_the_form():
    g = star_construction(1, 2, 3)
    perm = canonical_labeling(g)
    assert sorted(perm) == list(range(g.n))
    # perm[i] is the input vertex at canonical position i, so its inverse
    # relabels the input onto the canonical representative
    inverse = [0] * g.n
    for i, v in enumerate(perm):
        inverse[v] = i
    assert relabeled(g, inverse) == canonical_graph(canonical_form(g))
