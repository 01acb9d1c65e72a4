"""Chordality test, chordless-cycle witnesses, clique trees."""

import random
from math import comb

import networkx as nx

from ftclique import (
    Graph,
    TreeTemplate,
    blocks,
    chordality,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    path_graph,
    relabeled,
    size_k_separators,
    star_construction,
    tree_of_cliques,
    vertex_connectivity,
)
from ftclique import audit as audit_module
from ftclique.chordal import separator_structure
from helpers import (
    check_clique_tree,
    is_chordal_bruteforce,
    minimal_separators_bruteforce,
    networkx_blocks,
    random_chordal_graph,
    random_graph,
    separators_by_sweep,
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


def _separator_cases():
    """Seeded random chordal graphs, relabeled constructions, and the
    small shapes: K0, K1, K2, complete graphs, trees, disjoint unions."""
    rng = random.Random(2929)
    graphs = [random_chordal_graph(rng, rng.randint(0, 12), rng.choice([0.0, 0.1, 0.3]))
              for _ in range(400)]
    graphs += [complete_graph(n) for n in range(7)]
    graphs += [path_graph(n) for n in range(2, 7)]
    # random recursive trees
    graphs += [Graph(n, [(rng.randrange(v), v) for v in range(1, n)]) for n in range(2, 12)]
    graphs += [empty_graph(3), disjoint_union(complete_graph(3), complete_graph(2)),
               disjoint_union(path_graph(4), complete_graph(1))]
    for g in (star_construction(1, 3, 3), star_construction(2, 4, 3), star_construction(3, 2, 4),
              tree_of_cliques(1, 3, TreeTemplate.path(5, 1, 3)),
              tree_of_cliques(2, 3, TreeTemplate.path(4, 2, 3)),
              tree_of_cliques(3, 4, TreeTemplate.path(3, 3, 4))):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(relabeled(g, perm))
    return graphs


def test_separator_structure_matches_the_general_algorithms():
    decided = [0] * 4
    shapes = {"disconnected": 0, "complete": 0, "tree": 0, "cutvertex": 0}
    for g in _separator_cases():
        structure = separator_structure(chordality(g).clique_tree)
        assert structure.vertex_connectivity == vertex_connectivity(g), g.edges()
        assert structure.blocks == blocks(g), g.edges()
        for k in range(4):
            found = structure.size_k_separators(k)
            if found is not None:
                decided[k] += 1
                assert found == separators_by_sweep(g, k), (g.edges(), k)
        shapes["disconnected"] += not is_connected(g)
        shapes["complete"] += g.n >= 2 and g.edge_count == g.n * (g.n - 1) // 2
        shapes["tree"] += g.n >= 3 and is_connected(g) and g.edge_count == g.n - 1
        shapes["cutvertex"] += bool(structure.blocks.cutvertices)
    assert min(decided) >= 100, decided
    assert min(shapes.values()) >= 10, shapes


def test_separator_structure_matches_networkx():
    for g in _separator_cases()[::4]:
        if g.n < 2 or not is_connected(g):
            continue
        structure = separator_structure(chordality(g).clique_tree)
        nxg = nx.Graph(g.edges())
        kappa = nx.node_connectivity(nxg)
        assert structure.vertex_connectivity == kappa
        assert (structure.blocks.blocks, structure.blocks.cutvertices) == networkx_blocks(g)
        if g.edge_count < g.n * (g.n - 1) // 2:
            cuts = sorted(tuple(sorted(cut)) for cut in nx.all_node_cuts(nxg))
            assert structure.size_k_separators(kappa) == cuts


def test_size_k_separators_take_the_sweep_only_where_the_tree_does_not_decide(monkeypatch):
    calls = []
    original = audit_module.component_masks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(audit_module, "component_masks", counted)
    cases = [
        # every adhesion has k vertices: one split per separator
        (tree_of_cliques(2, 3, TreeTemplate.path(4, 2, 3)), 2, 3),
        # a chain of K_4 has one-vertex adhesions, fewer than k = 2
        (tree_of_cliques(1, 3, TreeTemplate.path(3, 1, 3)), 2, comb(10, 2)),
        # C_7 is not chordal
        (cycle_graph(7), 2, comb(7, 2)),
    ]
    for g, k, splits in cases:
        audit_module._separations.cache_clear()
        calls.clear()
        assert size_k_separators(g, k) == separators_by_sweep(g, k)
        assert len(calls) == splits
    # also past the sweep's cap of C(61, 4) = 521,855 subsets
    audit_module._separations.cache_clear()
    calls.clear()
    assert size_k_separators(star_construction(4, 19, 3), 4) == [(0, 1, 2, 3)]
    assert len(calls) == 1
