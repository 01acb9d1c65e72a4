"""Chordality test, chordless-cycle witnesses, clique trees."""

import random

from ftclique import (
    TreeTemplate,
    chordality,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    tree_of_cliques,
)
from helpers import (
    check_clique_tree,
    is_chordal_bruteforce,
    minimal_separators_bruteforce,
    random_graph,
)


def _witness_is_chordless_cycle(g, cyc):
    assert len(cyc) >= 4
    assert len(set(cyc)) == len(cyc)
    k = len(cyc)
    for i in range(k):
        assert g.has_edge(cyc[i], cyc[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            assert not g.has_edge(cyc[i], cyc[j])


def test_four_cycle_is_not_chordal():
    res = chordality(cycle_graph(4))
    assert not res.is_chordal
    assert res.clique_tree is None
    _witness_is_chordless_cycle(cycle_graph(4), res.witness_cycle)


def test_complete_graph_tree_is_single_part():
    res = chordality(complete_graph(5))
    assert res.is_chordal
    assert res.clique_tree.parts == ((0, 1, 2, 3, 4),)
    assert res.clique_tree.tree_edges == ()


def test_path_graph_clique_tree():
    res = chordality(path_graph(4))
    assert res.is_chordal
    check_clique_tree(path_graph(4), res.clique_tree)
    assert sorted(res.clique_tree.parts) == [(0, 1), (1, 2), (2, 3)]


def test_empty_and_tiny_graphs():
    assert chordality(empty_graph(0)).is_chordal
    assert chordality(empty_graph(1)).is_chordal
    assert chordality(cycle_graph(3)).is_chordal
    res = chordality(disjoint_union(complete_graph(3), complete_graph(2)))
    assert res.is_chordal
    check_clique_tree(disjoint_union(complete_graph(3), complete_graph(2)),
                      res.clique_tree)


def test_glued_clique_tree_parts_and_adhesions():
    g = tree_of_cliques(1, 3, TreeTemplate.path(2, 1, 3))
    res = chordality(g)
    assert res.is_chordal
    tree = res.clique_tree
    assert sorted(len(p) for p in tree.parts) == [4, 4]
    assert [len(adh) for _, _, adh in tree.tree_edges] == [1]
    check_clique_tree(g, tree)

    g = tree_of_cliques(2, 3, TreeTemplate.star(4, 2))
    res = chordality(g)
    tree = res.clique_tree
    assert sorted(len(p) for p in tree.parts) == [5, 5, 5, 5]
    assert sorted(len(adh) for _, _, adh in tree.tree_edges) == [2, 2, 2]
    check_clique_tree(g, tree)


def test_agreement_with_bruteforce_exhaustive_small():
    # every graph on up to 6 vertices; the 2^15 labeled graphs at n = 6
    # cover every maximum cardinality search tie-break at that order. A
    # valid clique tree or chordless cycle proves the verdict, so the
    # brute-force check runs only up to n = 5.
    from itertools import combinations

    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for picks in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
            from ftclique import Graph

            g = Graph(n, edges)
            res = chordality(g)
            if n <= 5:
                assert res.is_chordal == is_chordal_bruteforce(g)
            if res.is_chordal:
                check_clique_tree(g, res.clique_tree)
            else:
                _witness_is_chordless_cycle(g, res.witness_cycle)


def test_agreement_with_bruteforce_random():
    rng = random.Random(31337)
    for _ in range(120):
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        res = chordality(g)
        assert res.is_chordal == is_chordal_bruteforce(g)
        if res.is_chordal:
            check_clique_tree(g, res.clique_tree)
        else:
            _witness_is_chordless_cycle(g, res.witness_cycle)


def test_adhesions_are_the_minimal_separators():
    # on connected chordal graphs the adhesion sets are exactly the
    # minimal separators
    rng = random.Random(808)
    from ftclique import is_connected

    tested = 0
    while tested < 25:
        n = rng.randint(4, 7)
        g = random_graph(rng, n, 0.55)
        res = chordality(g)
        if not res.is_chordal or not is_connected(g):
            continue
        tested += 1
        adhesions = {adh for _, _, adh in res.clique_tree.tree_edges}
        assert adhesions == minimal_separators_bruteforce(g)

    g = tree_of_cliques(2, 3, TreeTemplate.path(3, 2, 3))
    res = chordality(g)
    adhesions = {adh for _, _, adh in res.clique_tree.tree_edges}
    assert adhesions == minimal_separators_bruteforce(g)
    assert all(len(a) == 2 for a in adhesions)
