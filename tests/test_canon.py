"""Canonical forms: invariance under relabeling, completeness vs brute force."""

import hashlib
import random
import time
from functools import reduce
from itertools import combinations

from ftclique import (
    Graph,
    TreeTemplate,
    automorphism_generators,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    complete_graph,
    cycle_graph,
    disjoint_union,
    relabeled,
    star_construction,
    tree_of_cliques,
)
from ftclique.canon import _refine
from ftclique.graphs import bits
from helpers import (
    automorphism_count_bruteforce,
    isomorphic_bruteforce,
    random_graph,
    refine_reference,
)


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


def _union(*graphs: Graph) -> Graph:
    return reduce(disjoint_union, graphs)


def _complement(g: Graph) -> Graph:
    return Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)])


def _cube(d: int) -> Graph:
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                          if not v >> b & 1])


def _petersen() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _symmetric_corpus():
    petersen = _petersen()
    base = [_union(*[complete_graph(a)] * t) for t, a in
            [(2, 2), (3, 2), (5, 2), (8, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)]]
    base += [cycle_graph(n) for n in range(3, 13)]
    base += [petersen, _cube(3), _cube(4)]
    # regular but not vertex-transitive: refinement leaves vertices of
    # different orbits in one cell, so a backjump past the deepest common
    # node would lose leaves no other branch reaches
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    base += [_union(cycle_graph(3), cycle_graph(4), cycle_graph(5)),
             _union(cycle_graph(6), cycle_graph(3), cycle_graph(3)),
             _union(complete_graph(4), k33), _union(petersen, k33, complete_graph(4))]
    base += [star_construction(k, p, c) for k, p, c in
             [(1, 2, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4), (3, 2, 4), (2, 2, 5), (0, 4, 3), (2, 10, 3)]]
    base += [tree_of_cliques(2, 3, TreeTemplate.path(3, 2, 3)),
             tree_of_cliques(1, 4, TreeTemplate.star(4, 1))]
    rng = random.Random(1616)
    for g in base + [_complement(g) for g in base]:
        yield g
        for _ in range(3):
            yield relabeled(g, rng.sample(range(g.n), g.n))
    yield _union(*[complete_graph(2)] * 20)


def test_canonical_labelings_of_symmetric_graphs_are_pinned():
    # the random corpus of the other pin has almost no automorphisms; here
    # most leaves are automorphic images of earlier ones
    digest = hashlib.sha256()
    for g in _symmetric_corpus():
        digest.update(repr((g.n, canonical_form(g).code, canonical_labeling(g))).encode())
    assert digest.hexdigest() == \
        "45b8bc6e8031d661425705de36dd971c9d7849746f59e4133f5ec600d8b2fa61"


def test_many_automorphisms_are_cheap():
    # 20 K2 has 2^20 * 20! automorphisms; every branch but the first at
    # each level is an image of explored work
    started = time.monotonic()
    canonical_form(_union(*[complete_graph(2)] * 20))
    elapsed = time.monotonic() - started
    assert elapsed < 2, f"canonical_form(20 K2) took {elapsed:.1f}s, ceiling 2s"


def test_refine_matches_full_count_reference():
    rng = random.Random(1414)
    cases = []
    for _ in range(1000):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random())
        order = rng.sample(range(n), n)
        # random cut points, so some cells are singletons
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        cells = [sum(1 << v for v in order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        cases.append((g, cells))
    # order >= 65 with 64 or more neighbors inside one cell: a count field
    # narrower than n.bit_length() bits spills into the field above it
    star = Graph(71, [(0, i) for i in range(1, 71)])
    cocktail = _complement(_union(*[complete_graph(2)] * 35))
    for g in (star, cocktail):
        everything = (1 << g.n) - 1
        cases += [(g, [everything])]
        cases += [(g, [1 << u, everything & ~(1 << u)]) for u in range(4)]
    for g, cells in cases:
        refined = _refine(g.adj, cells)
        assert refined == refine_reference(g.adj, cells)
        # a child of the equitable partition: one vertex of its first
        # non-singleton cell individualized, counted against alone first
        target = next((i for i, cell in enumerate(refined) if cell & (cell - 1)), None)
        if target is None:
            continue
        cell = refined[target]
        for v in bits(cell):
            child = refined[:target] + [1 << v, cell & ~(1 << v)] + refined[target + 1:]
            assert _refine(g.adj, child, [1 << v]) == refine_reference(g.adj, child)


def _group_order(gens, n: int) -> int:
    # Close the generators under composition.
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        images = {tuple(g[h[v]] for v in range(n)) for h in frontier for g in gens}
        frontier = list(images - group)
        group |= images
    return len(group)


def test_automorphism_generators_generate_the_group():
    rng = random.Random(2323)
    for _ in range(600):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.random())
        gens = automorphism_generators(g)
        assert all(relabeled(g, perm) == g for perm in gens)
        assert _group_order(gens, n) == automorphism_count_bruteforce(g)
    for g, order in [(_petersen(), 120), (_cube(3), 48), (_cube(4), 384),
                     (_union(*[complete_graph(2)] * 4), 384)]:
        gens = automorphism_generators(g)
        assert all(relabeled(g, perm) == g for perm in gens)
        assert _group_order(gens, g.n) == order
