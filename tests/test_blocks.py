"""Block decomposition (maximal 2-connected pieces, bridges, cutvertices)."""

import importlib
import random

from ftclique import (
    TreeTemplate,
    blocks,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabeled,
    star_construction,
    tree_of_cliques,
)
from helpers import networkx_blocks, random_graph


def test_two_triangles_sharing_a_vertex():
    g = star_construction(1, 2, 2)  # vertex 0 joined to edges {1,2} and {3,4}
    dec = blocks(g)
    assert dec.blocks == ((0, 1, 2), (0, 3, 4))
    assert dec.cutvertices == (0,)
    assert sorted(dec.tree_edges) == [(0, 0), (1, 0)]


def test_biconnected_graph_is_one_block():
    dec = blocks(complete_graph(4))
    assert dec.blocks == ((0, 1, 2, 3),)
    assert dec.cutvertices == ()
    assert dec.tree_edges == ()
    assert blocks(cycle_graph(6)).blocks == ((0, 1, 2, 3, 4, 5),)


def test_path_splits_into_bridges():
    dec = blocks(path_graph(4))
    assert dec.blocks == ((0, 1), (1, 2), (2, 3))
    assert dec.cutvertices == (1, 2)


def test_hub_with_three_cliques():
    g = star_construction(1, 3, 3)
    dec = blocks(g)
    assert len(dec.blocks) == 3
    assert all(len(b) == 4 for b in dec.blocks)
    assert dec.cutvertices == (0,)


def test_isolated_vertices_and_empty_graph():
    dec = blocks(empty_graph(3))
    assert dec.blocks == ((0,), (1,), (2,))
    assert dec.cutvertices == ()
    assert blocks(empty_graph(0)).blocks == ()


def test_disconnected_input():
    g = disjoint_union(cycle_graph(3), path_graph(3))
    dec = blocks(g)
    assert dec.blocks == ((0, 1, 2), (3, 4), (4, 5))
    assert dec.cutvertices == (4,)


def test_blocks_partition_edges_and_overlap_only_at_cutvertices():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        dec = blocks(g)
        # every edge in exactly one block
        for u, v in g.edges():
            holds = [b for b in dec.blocks if u in b and v in b]
            assert len(holds) == 1
        # vertices shared by two blocks are exactly the cutvertices
        count: dict[int, int] = {}
        for b in dec.blocks:
            for v in b:
                count[v] = count.get(v, 0) + 1
        shared = {v for v, c in count.items() if c > 1}
        assert shared == set(dec.cutvertices)
        # every vertex appears somewhere
        assert set().union(*map(set, dec.blocks)) == set(range(n)) or n == 0


def test_cutvertex_removal_disconnects_component():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.3)
        before = len(components(g))
        for v in blocks(g).cutvertices:
            rest, _ = g.remove_vertices([v])
            assert len(components(rest)) > before


def test_blocks_match_networkx():
    rng = random.Random(2020)
    graphs = [random_graph(rng, rng.randint(0, 16), rng.choice([0.05, 0.1, 0.2, 0.35, 0.6]))
              for _ in range(300)]
    for g in (star_construction(1, 3, 3),
              tree_of_cliques(1, 3, TreeTemplate.path(12, 1, 3)),
              tree_of_cliques(2, 4, TreeTemplate.path(6, 2, 4))):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(relabeled(g, perm))
    shapes = {"bridge": 0, "isolated": 0, "disconnected": 0}
    for g in graphs:
        dec = blocks(g)
        assert (dec.blocks, dec.cutvertices) == networkx_blocks(g)
        shapes["bridge"] += any(len(b) == 2 for b in dec.blocks)
        shapes["isolated"] += any(len(b) == 1 for b in dec.blocks)
        shapes["disconnected"] += len(components(g)) > 1
    assert min(shapes.values()) >= 20, shapes


def test_component_masks_runs_once_plus_once_per_cutvertex(monkeypatch):
    # `import ftclique.blocks` would bind the re-exported function
    module = importlib.import_module("ftclique.blocks")
    calls = []
    component_masks = module.component_masks

    def counting(*args):
        calls.append(args)
        return component_masks(*args)

    monkeypatch.setattr(module, "component_masks", counting)
    chain = tree_of_cliques(1, 3, TreeTemplate.path(12, 1, 3))
    assert len(blocks(chain).cutvertices) == 11
    assert len(calls) == 1 + 11
    calls.clear()
    assert blocks(tree_of_cliques(2, 4, TreeTemplate.path(6, 2, 4))).cutvertices == ()
    assert len(calls) == 1
