"""Components, edge connectivity, vertex connectivity."""

import importlib
import random

import networkx as nx
from networkx.algorithms.connectivity import local_edge_connectivity, local_node_connectivity

from ftclique import (
    Graph,
    TreeTemplate,
    complete_graph,
    components,
    connectivity,
    cycle_graph,
    disjoint_union,
    edge_connectivity,
    empty_graph,
    is_connected,
    path_graph,
    relabeled,
    star_construction,
    tree_of_cliques,
    vertex_connectivity,
)
from ftclique.connectivity import _max_flow
from ftclique.graphs import bits
from helpers import (
    edge_connectivity_bruteforce,
    random_graph,
    vertex_connectivity_bruteforce,
)


def test_components_and_is_connected():
    g = disjoint_union(complete_graph(3), path_graph(2))
    assert components(g) == [(0, 1, 2), (3, 4)]
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))
    assert components(empty_graph(0)) == []
    assert is_connected(empty_graph(0))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))


def test_known_small_values():
    assert edge_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(complete_graph(4)) == 3
    assert edge_connectivity(cycle_graph(7)) == 2
    assert vertex_connectivity(cycle_graph(7)) == 2
    assert edge_connectivity(path_graph(5)) == 1
    assert vertex_connectivity(path_graph(5)) == 1
    # complete graphs have no separator; the convention is n - 1
    assert vertex_connectivity(complete_graph(1)) == 0
    assert vertex_connectivity(complete_graph(2)) == 1


def test_disconnected_and_degenerate():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    assert edge_connectivity(g) == 0
    assert vertex_connectivity(g) == 0
    assert edge_connectivity(empty_graph(1)) == 0
    assert vertex_connectivity(empty_graph(0)) == 0


def test_hub_family_reaches_the_degree_floor():
    # one hub vertex joined to two triangles: lambda = c + k - 1 = 3
    g = star_construction(1, 2, 3)
    assert edge_connectivity(g) == 3
    assert edge_connectivity_bruteforce(g) == 3
    # the hub is a cutvertex, so kappa stays at k
    assert vertex_connectivity(g) == 1


def test_matches_bruteforce_on_random_graphs():
    rng = random.Random(5150)
    graphs = [complete_graph(n) for n in range(1, 10)]
    for _ in range(60):
        n = rng.randint(2, 9)
        graphs.append(random_graph(rng, n, rng.choice([0.25, 0.5, 0.75])))
    for _ in range(15):
        a = random_graph(rng, rng.randint(1, 4), rng.choice([0.5, 1.0]))
        b = random_graph(rng, rng.randint(1, 4), rng.choice([0.5, 1.0]))
        graphs.append(disjoint_union(a, b))
    for g in graphs:
        assert edge_connectivity(g) == edge_connectivity_bruteforce(g)
        assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g)


def _split_arcs(g: Graph) -> list[int]:
    """In-node v has one arc to out-node v + n, whose arcs go to N(v)."""
    return [1 << (v + g.n) for v in range(g.n)] + list(g.adj)


def test_flow_cancels_units_on_reverse_arcs():
    # The second shortest augmenting path from 3 to 7 runs back along a
    # unit of the first; a flow that adds a forward unit there instead of
    # cancelling it counts 3 disjoint paths where only 2 exist.
    g = Graph(8, [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 6),
                  (1, 7), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (6, 7)])
    assert _max_flow(_split_arcs(g), 3 + g.n, 7) == 2


def _counting_flows(monkeypatch):
    """Record the arguments of every max flow and augmenting-path search."""
    module = importlib.import_module("ftclique.connectivity")
    rounds = []
    flows = []
    augmenting_path = module._augmenting_path
    max_flow = module._max_flow

    def counting_rounds(*args):
        rounds.append(args)
        return augmenting_path(*args)

    def counting_flows(*args):
        flows.append(args)
        return max_flow(*args)

    monkeypatch.setattr(module, "_augmenting_path", counting_rounds)
    monkeypatch.setattr(module, "_max_flow", counting_flows)
    return flows, rounds


def _shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabeled(g, perm)


def test_flows_stop_at_the_best_value_so_far(monkeypatch):
    flows, rounds = _counting_flows(monkeypatch)
    # path(2,6,4): kappa = 2, lambda = minimum degree = 5
    g = tree_of_cliques(2, 4, TreeTemplate.path(6, 2, 4))
    delta = min(g.degrees())
    assert edge_connectivity(g) == delta == 5
    # The dominating set, scanned by decreasing degree, is 4, 12 and 20
    # (in label order it had 6 vertices); each flow stops at delta without
    # a failing search.
    assert len(flows) == 2
    assert len(rounds) == delta * len(flows)
    rounds.clear()
    flows.clear()
    assert vertex_connectivity(g) == 2
    # Esfahanian-Hakimi has 20 pairs here; 4 of them share at least the
    # best value in common neighbors.
    assert len(flows) == 16
    # once the best is 2 a pair costs at most 2 rounds; a flow run to its
    # maximum 2 costs 3, one of them the search that finds no path
    assert len(rounds) <= 2 * len(flows) + delta + 1 < 3 * len(flows)
    # path(1,12,3) relabeled: the first target of v0 shares no neighbor with
    # it and finds the cutvertex, so the scan stops at 1 after one flow.
    g = _shuffled(tree_of_cliques(1, 3, TreeTemplate.path(12, 1, 3)), 1)
    flows.clear()
    assert vertex_connectivity(g) == 1
    assert len(flows) == 1
    flows.clear()
    assert edge_connectivity(g) == 3
    assert len(flows) == 5
    # star(2,12,3) relabeled: one vertex flow, and a hub vertex, scanned
    # first for its degree, dominates alone, so no edge flow runs.
    g = _shuffled(star_construction(2, 12, 3), 1)
    flows.clear()
    assert vertex_connectivity(g) == 2
    assert len(flows) == 1
    flows.clear()
    assert edge_connectivity(g) == 4
    assert flows == []


def test_connected_floor_stops_at_one(monkeypatch):
    # A path has minimum degree 1, so no flow runs. Two K_4 joined by a
    # bridge: the first flow of each scan finds 1 and ends it.
    flows, _ = _counting_flows(monkeypatch)
    g = path_graph(9)
    assert vertex_connectivity(g) == 1
    assert edge_connectivity(g) == 1
    assert flows == []
    g = Graph(8, complete_graph(4).edges() + [(u + 4, v + 4) for u, v in complete_graph(4).edges()]
              + [(3, 4)])
    assert vertex_connectivity(g) == 1
    assert edge_connectivity(g) == 1
    assert len(flows) == 2


def test_disconnected_inputs_run_no_flow(monkeypatch):
    flows, _ = _counting_flows(monkeypatch)
    for g in (disjoint_union(complete_graph(5), complete_graph(5)),
              disjoint_union(cycle_graph(6), empty_graph(1)),
              empty_graph(3), empty_graph(1), empty_graph(0)):
        assert vertex_connectivity(g) == edge_connectivity(g) == 0
        info = connectivity(g)
        assert (info.vertex_connectivity, info.edge_connectivity) == (0, 0)
    assert flows == []


def test_kappa_at_the_minimum_degree_pins_lambda(monkeypatch):
    # Whitney: kappa <= lambda <= delta, so kappa == delta needs no edge flow.
    module = importlib.import_module("ftclique.connectivity")
    calls = []
    monkeypatch.setattr(module, "edge_connectivity", lambda g: calls.append(g))
    for g, value in ((complete_graph(5), 4), (cycle_graph(7), 2),
                     (star_construction(2, 1, 3), 4)):
        info = connectivity(g)
        assert (info.vertex_connectivity, info.edge_connectivity) == (value, value)
    assert calls == []
    # path(1,12,3) has kappa = 1 below delta = 3, so lambda takes its flows.
    connectivity(tree_of_cliques(1, 3, TreeTemplate.path(12, 1, 3)))
    assert len(calls) == 1


def test_certificate_at_the_boundary_leaves_the_smaller_cut(monkeypatch):
    # 0 and 4 are non-adjacent and share exactly delta = 3 neighbors
    # {1, 2, 3}, so their vertex flow is skipped from the start; the cut
    # {1, 2} to the K_5 on 5..9 is smaller and must still be found.
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3), (1, 2), (1, 3), (2, 3),
             (1, 5), (2, 6)]
    edges += [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)]
    g = Graph(10, edges)
    assert min(g.degrees()) == g.degree(0) == 3
    assert (g.adj[0] & g.adj[4]).bit_count() == 3 and not g.has_edge(0, 4)
    flows, _ = _counting_flows(monkeypatch)
    assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g) == 2
    assert (g.n, 4) not in [args[1:3] for args in flows]  # out-node of 0 to 4
    # The edge cut {1-5, 2-6} is 2 below delta; the dominating set scanned
    # by degree starts at 1 and holds 4, which shares 2 neighbors with 1.
    assert edge_connectivity(g) == edge_connectivity_bruteforce(g) == 2
    for seed in range(20):
        h = _shuffled(g, seed)
        assert vertex_connectivity(h) == 2
        assert edge_connectivity(h) == 2


def test_matches_bruteforce_on_every_graph_up_to_five_vertices():
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            kappa = vertex_connectivity_bruteforce(g)
            lam = edge_connectivity_bruteforce(g)
            assert vertex_connectivity(g) == kappa
            assert edge_connectivity(g) == lam
            info = connectivity(g)
            assert (info.vertex_connectivity, info.edge_connectivity) == (kappa, lam)


def test_matches_networkx_on_seeded_random_graphs():
    rng = random.Random(2026)
    for _ in range(2000):
        n = rng.randint(6, 30)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(n))
        info = connectivity(g)
        assert info.vertex_connectivity == nx.node_connectivity(nxg)
        assert info.edge_connectivity == nx.edge_connectivity(nxg)


def test_minimum_degree_vertex_in_every_minimum_separator():
    # Vertex 0 is joined by two edges to each of two K_6, so {0} is the
    # only minimum separator. Every flow from 0 to a non-neighbor is 2;
    # only the flow between neighbors of 0 in different K_6 finds 1.
    edges = [(0, 1), (0, 2), (0, 7), (0, 8)]
    for base in (1, 7):
        edges += [(base + i, base + j) for i in range(6) for j in range(i + 1, 6)]
    g = Graph(13, edges)
    assert min(g.degrees()) == g.adj[0].bit_count() == 4
    assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g) == 1
    assert nx.node_connectivity(nx.Graph(g.edges())) == 1


def test_limited_flow_is_the_capped_max_flow():
    rng = random.Random(4004)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        arcs = _split_arcs(g)
        for s in range(n):
            for t in range(s + 1, n):
                for limit in range(4):
                    assert (_max_flow(g.adj, s, t, limit)
                            == min(_max_flow(g.adj, s, t), limit))
                    if not g.has_edge(s, t):
                        assert (_max_flow(arcs, s + n, t, limit)
                                == min(_max_flow(arcs, s + n, t), limit))


def test_local_flows_match_networkx():
    rng = random.Random(3003)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(n))
        arcs = _split_arcs(g)
        for s in range(n):
            for t in range(s + 1, n):
                assert _max_flow(g.adj, s, t) == local_edge_connectivity(nxg, s, t)
                if not g.has_edge(s, t):
                    assert _max_flow(arcs, s + n, t) == local_node_connectivity(nxg, s, t)


def test_constructions_match_networkx():
    rng = random.Random(1)
    families = [star_construction(2, 12, 3),
                tree_of_cliques(2, 4, TreeTemplate.path(6, 2, 4)),
                tree_of_cliques(1, 3, TreeTemplate.path(12, 1, 3)),
                tree_of_cliques(3, 4, TreeTemplate.path(4, 3, 4))]
    for g in families:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = relabeled(g, perm)
        nxg = nx.Graph(shuffled.edges())
        assert vertex_connectivity(shuffled) == nx.node_connectivity(nxg)
        assert edge_connectivity(shuffled) == nx.edge_connectivity(nxg)


def test_thin_cuts_between_dense_halves_match_networkx():
    # Two dense halves joined by a few edges have lambda below the minimum
    # degree, the case where the flows must reach a dominating vertex on
    # the far side of the cut.
    rng = random.Random(31)
    below = 0
    for _ in range(60):
        a = random_graph(rng, rng.randint(5, 9), 0.8)
        b = random_graph(rng, rng.randint(5, 9), 0.8)
        g = disjoint_union(a, b)
        links = [(rng.randrange(a.n), a.n + rng.randrange(b.n)) for _ in range(rng.randint(1, 3))]
        g = Graph(g.n, list(g.edges()) + links)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabeled(g, perm)
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        lam = nx.edge_connectivity(nxg)
        assert edge_connectivity(g) == lam
        below += lam < min(g.degrees())
    assert below >= 30


def test_whitney_inequalities():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        kappa = vertex_connectivity(g)
        lam = edge_connectivity(g)
        assert kappa <= lam <= min(g.degrees())


def test_connectivity_bundle():
    info = connectivity(cycle_graph(5))
    assert info.components == ((0, 1, 2, 3, 4),)
    assert info.vertex_connectivity == 2
    assert info.edge_connectivity == 2
    split = connectivity(disjoint_union(complete_graph(2), complete_graph(2)))
    assert split.vertex_connectivity == 0
    assert split.edge_connectivity == 0
