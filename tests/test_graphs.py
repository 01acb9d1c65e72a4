"""Core graph type and builders."""

import random

import pytest

from ftclique import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabeled,
    star_construction,
)
from ftclique.graphs import bits, mask_of, vertex_tuple
from ftclique.packing import clique_containing


def test_mask_helpers_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert vertex_tuple(0) == ()
    assert vertex_tuple(mask_of(range(4))) == (0, 1, 2, 3)


def test_basic_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 0)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighborhood(1) == {0, 2}
    assert g.full_mask == 0b1111


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize("build", [
    lambda: Graph(3, [(True, 2)]),
    lambda: Graph(3, [(0, 1.0)]),
    lambda: Graph(3.0, []),
    lambda: Graph(True, []),
], ids=["bool-endpoint", "float-endpoint", "float-order", "bool-order"])
def test_rejects_vertices_that_are_not_ints(build):
    with pytest.raises(ValueError, match="int"):
        build()


@pytest.mark.parametrize("query", [
    lambda g: g.has_edge(0, 1.5),
    lambda g: g.has_edge(False, 1),
    lambda g: g.degree(1.0),
    lambda g: g.neighborhood(True),
    lambda g: g.is_clique([0, 1.0]),
    lambda g: clique_containing(g, True, 3),
], ids=["has_edge-float", "has_edge-bool", "degree", "neighborhood", "is_clique",
        "clique_containing"])
def test_queries_reject_vertices_that_are_not_ints(query):
    with pytest.raises(ValueError, match="is not an int"):
        query(star_construction(1, 2, 3))


def test_set_neighborhoods():
    g = path_graph(5)
    assert g.neighborhood_mask(mask_of([0])) == mask_of([1])


def test_is_clique():
    g = complete_graph(5)
    assert g.is_clique([0, 2, 4])
    assert g.is_clique([])
    assert g.is_clique([3])
    h = cycle_graph(4)
    assert h.is_clique([0, 1])
    assert not h.is_clique([0, 1, 2])


def test_remove_vertices_relabels_and_reports_kept():
    g = cycle_graph(5)
    h, kept = g.remove_vertices([1, 3])
    assert kept == (0, 2, 4)
    assert h.n == 3
    assert h.edges() == [(0, 2)]  # original edge (0, 4)
    assert kept[0] == 0 and kept[2] == 4


def test_induced_subgraph():
    g = complete_graph(5)
    h, kept = g.induced([4, 1, 3])
    assert kept == (1, 3, 4)
    assert h == complete_graph(3)


def test_builders():
    assert complete_graph(4).edge_count == 6
    assert empty_graph(3).edge_count == 0
    assert cycle_graph(3) == complete_graph(3)
    assert path_graph(1).n == 1
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError, match="at least 1 vertex"):
        path_graph(0)
    u = disjoint_union(complete_graph(3), path_graph(2))
    assert u.n == 5
    assert u.edge_count == 4
    assert u.has_edge(3, 4) and not u.has_edge(2, 3)


def test_relabeled_preserves_structure():
    g = path_graph(4)
    h = relabeled(g, [3, 2, 1, 0])
    assert h.edges() == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        relabeled(g, [0, 0, 1, 2])


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])
    assert a != Graph(4, [(0, 1)])


def test_large_orders_use_big_masks():
    rng = random.Random(11)
    n = 70
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.1]
    g = Graph(n, edges)
    assert g.edge_count == len(set(edges))
    assert sum(g.degrees()) == 2 * g.edge_count
    h, kept = g.remove_vertices([0, 69])
    assert h.n == 68 and len(kept) == 68
