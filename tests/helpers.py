"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: permutation search for isomorphism,
bipartition sweeps for cuts, subset sweeps for chordality and separators.
Slow but obviously correct on the small graphs the tests use.
"""

import random
from itertools import combinations, permutations

from ftclique import Graph
from ftclique.graphs import bits


def random_graph(rng: random.Random, n: int, prob: float) -> Graph:
    """Erdos-Renyi style graph: each pair is an edge with probability prob."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < prob]
    return Graph(n, edges)


def random_chordal_graph(rng: random.Random, n: int, isolated: float = 0.1) -> Graph:
    """Chordal graph grown one vertex at a time, then relabeled.

    Each new vertex is joined to a clique of the earlier ones: a random
    earlier vertex and some of its neighbors that are pairwise adjacent,
    or, with probability isolated, nothing, which starts a new component.
    Read backwards this is a perfect elimination order, so the graph is
    chordal.
    """
    adj: list[set[int]] = []
    edges = []
    for v in range(n):
        clique: list[int] = []
        if v and rng.random() >= isolated:
            u = rng.randrange(v)
            clique.append(u)
            for w in rng.sample(sorted(adj[u]), len(adj[u])):
                if rng.random() < 0.7 and all(w in adj[x] for x in clique):
                    clique.append(w)
        adj.append(set(clique))
        for x in clique:
            adj[x].add(v)
            edges.append((x, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def separators_by_sweep(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Every k-subset whose removal leaves at least two components, in
    lexicographic order."""
    from ftclique import components

    return [w for w in combinations(range(g.n), k)
            if len(components(g.remove_vertices(w)[0])) >= 2]


def networkx_blocks(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(blocks, cutvertices) as networkx finds them, isolated vertices
    added as blocks of their own."""
    import networkx as nx

    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    found = [tuple(sorted(c)) for c in nx.biconnected_components(nxg)]
    found += [(v,) for v in range(g.n) if g.adj[v] == 0]
    return tuple(sorted(found)), tuple(sorted(nx.articulation_points(nxg)))


def isomorphic_bruteforce(a: Graph, b: Graph) -> bool:
    """Permutation search with a degree-sequence prefilter; n <= 8 expected."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    deg_b = b.degrees()
    for perm in permutations(range(a.n)):
        if any(a.degree(v) != deg_b[perm[v]] for v in range(a.n)):
            continue
        if all(b.has_edge(perm[u], perm[v]) for u, v in a.edges()):
            return True
    return False


def automorphism_count_bruteforce(g: Graph) -> int:
    """Number of permutations that preserve every edge; n <= 7 expected."""
    deg = g.degrees()
    edges = g.edges()
    return sum(all(deg[v] == deg[perm[v]] for v in range(g.n))
               and all(g.has_edge(perm[u], perm[v]) for u, v in edges)
               for perm in permutations(range(g.n)))


def edge_connectivity_bruteforce(g: Graph) -> int:
    """Minimum crossing-edge count over all bipartitions of the vertices."""
    n = g.n
    if n <= 1:
        return 0
    best = None
    for size in range(1, n // 2 + 1):
        for side in combinations(range(n), size):
            inside = set(side)
            crossing = sum(
                1 for u, v in g.edges() if (u in inside) != (v in inside)
            )
            if best is None or crossing < best:
                best = crossing
    return best


def vertex_connectivity_bruteforce(g: Graph) -> int:
    """Smallest deletion set leaving a disconnected remainder; n-1 for K_n."""
    from ftclique import is_connected

    n = g.n
    if n <= 1:
        return 0
    if g.edge_count == n * (n - 1) // 2:
        return n - 1
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            rest, _ = g.remove_vertices(cut)
            if not is_connected(rest):
                return size
    return n - 1


def is_chordal_bruteforce(g: Graph) -> bool:
    """No subset of >= 4 vertices induces a cycle; n <= 8 expected."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            h, _ = g.induced(sub)
            if h.edge_count != size:
                continue
            if any(h.degree(v) != 2 for v in range(size)):
                continue
            from ftclique import is_connected
            if is_connected(h):
                return False
    return True


def is_maximal_clique(g: Graph, part: tuple[int, ...]) -> bool:
    if not g.is_clique(part):
        return False
    members = set(part)
    for v in range(g.n):
        if v in members:
            continue
        if all(g.has_edge(v, u) for u in part):
            return False
    return True


def check_clique_tree(g: Graph, tree) -> None:
    """Assert the clique-tree contract: maximal-clique parts covering all
    vertices and edges, a spanning tree with stored adhesions equal to the
    part intersections, and the running-intersection property."""
    parts = tree.parts
    q = len(parts)
    assert q >= 1 or g.n == 0
    covered = set()
    for part in parts:
        assert is_maximal_clique(g, part), f"part {part} is not a maximal clique"
        covered.update(part)
    assert covered == set(range(g.n)), "parts must cover every vertex"
    in_part = [set(part) for part in parts]
    for u, v in g.edges():
        assert any(u in s and v in s for s in in_part), f"edge ({u},{v}) uncovered"

    assert len(tree.tree_edges) == max(q - 1, 0)
    parent = list(range(q))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neighbors: dict[int, list[int]] = {i: [] for i in range(q)}
    for i, j, adhesion in tree.tree_edges:
        assert tuple(sorted(in_part[i] & in_part[j])) == adhesion
        ri, rj = find(i), find(j)
        assert ri != rj, "tree edges form a cycle"
        parent[ri] = rj
        neighbors[i].append(j)
        neighbors[j].append(i)

    for v in range(g.n):
        holding = [i for i in range(q) if v in in_part[i]]
        seen = {holding[0]}
        stack = [holding[0]]
        members = set(holding)
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                if j in members and j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert seen == members, f"parts holding {v} are not connected in the tree"


def minimal_separators_bruteforce(g: Graph) -> set[tuple[int, ...]]:
    """All vertex sets with at least two full components in the remainder."""
    from ftclique import components

    out = set()
    n = g.n
    for size in range(n - 1):
        for cand in combinations(range(n), size):
            rest, kept = g.remove_vertices(cand)
            comps = components(rest)
            if len(comps) < 2:
                continue
            full = 0
            cand_set = set(cand)
            for comp in comps:
                seen = set()
                for v in comp:
                    seen.update(g.neighborhood(kept[v]))
                if cand_set <= seen:
                    full += 1
            if full >= 2:
                out.add(cand)
    return out


def matches_gluing_profile(graph: Graph, k: int, c: int) -> bool:
    """True iff the graph is chordal with every maximal clique of size k+c
    and every minimal separator of size k: the shape tree_of_cliques emits,
    which is accepted for (k, p, c) with p = (n - k) / c."""
    from ftclique import chordality

    if (graph.n - k) % c != 0 or graph.n < k + c:
        return False
    result = chordality(graph)
    if not result.is_chordal:
        return False
    tree = result.clique_tree
    if any(len(part) != k + c for part in tree.parts):
        return False
    return all(len(adh) == k for _, _, adh in tree.tree_edges)


def packings_exist_bruteforce(g: Graph, p: int, c: int) -> bool:
    """Scan all ways to pick p disjoint c-subsets and test cliqueness."""

    def extend(chosen: list[tuple[int, ...]], used: set[int]) -> bool:
        if len(chosen) == p:
            return True
        pool = [v for v in range(g.n) if v not in used]
        floor = chosen[-1] if chosen else ()
        for sub in combinations(pool, c):
            if chosen and sub <= floor:
                continue
            if g.is_clique(sub) and extend(chosen + [sub], used | set(sub)):
                return True
        return False

    return extend([], set())


def all_graphs_with_edges(n: int, m: int, min_degree: int = 0):
    """Every labeled n-vertex graph with exactly m edges, degree filtered."""
    pairs = list(combinations(range(n), 2))
    for chosen in combinations(range(len(pairs)), m):
        deg = [0] * n
        for idx in chosen:
            u, v = pairs[idx]
            deg[u] += 1
            deg[v] += 1
        if min_degree and min(deg) < min_degree:
            continue
        yield Graph(n, [pairs[i] for i in chosen])


def search_minimum_reference(params):
    """Unfiltered minimum-edge search: (minimum, exemplar certificates).

    Every m-edge graph with N(0) = {1..d0} and minimum degree c + k - 1
    (not d0) is verified, with no necessary-condition filter, connectivity
    prune or deduplication, and only the accepted ones are canonicalized.
    The library search must find the same minimum and classes.
    """
    from ftclique import canonical_form, degree_floor, hub_edge_bound, verify_ft
    from ftclique.search import _iter_adjacencies

    n = params.critical_order
    dmin = degree_floor(params.k, params.c)
    for m in range((n * dmin + 1) // 2, hub_edge_bound(params.k, params.p, params.c) + 1):
        found = set()
        for d0 in range(dmin, n):
            for adj in _iter_adjacencies(n, m, dmin, d0):
                g = Graph._from_adj(n, adj)
                if verify_ft(g, params).holds:
                    found.add(canonical_form(g))
        if found:
            return m, found
    return None, set()


def bad_resume_afters(after: str, d0: int, tight: int) -> dict:
    """JSON values for a resume token's after field, keyed by their fault,
    none of which a search of the token's unit can have written: its
    graphs have after's order and edge count, N(0) = {1..d0}, minimum
    degree d0 and a clique closed neighborhood at every vertex of degree
    tight. Each graph is after changed in one way."""
    from ftclique import emit_graph6, parse_graph6

    g = parse_graph6(after)
    n, edges = g.n, g.edges()
    inner = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    swap = {d0: d0 + 1, d0 + 1: d0}
    # move an edge off a vertex of degree d0, which then falls below it
    x, y = next((u, v) for u, v in edges if u >= 1 and d0 in (g.degree(u), g.degree(v)))
    low = x if g.degree(x) == d0 else y
    moved = next(e for e in inner if e not in edges and low not in e)
    spare = next(e for e in inner if e not in edges)

    def opened():
        # move one edge among 1..n-1 so that the unit holds but a vertex of
        # degree tight gets a non-adjacent pair of neighbors
        for drop in edges:
            kept = [e for e in edges if e != drop]
            for add in inner:
                h = Graph(n, kept + [add])
                if drop[0] >= 1 and add not in edges and min(h.degrees()) >= d0 and any(
                        h.degree(v) == tight and not h.is_clique(h.neighborhood(v))
                        for v in range(n)):
                    return kept + [add]

    def g6(order, edge_list):
        return emit_graph6(Graph(order, edge_list)).strip()

    return {
        "wrong-order": g6(n + 1, edges),
        "wrong-edge-count": g6(n, edges + [spare]),
        "other-first-neighborhood": g6(n, [(swap.get(u, u), swap.get(v, v))
                                           for u, v in edges]),
        "degree-below-d0": g6(n, [e for e in edges if e != (x, y)] + [moved]),
        "open-tight-closure": g6(n, opened()),
        "malformed-graph6": after[:-1],
        "number": 12345,
    }


def find_disjoint_cliques_full_peel(graph: Graph, p: int, c: int, allowed: int | None = None):
    """`find_disjoint_cliques` as it was before its peel went incremental:
    every step re-tests every available vertex for c - 1 available
    neighbors until none fails. Kept frozen to compare packings exactly."""
    from ftclique import CliquePacking
    from ftclique.graphs import vertex_tuple

    pool = graph.full_mask if allowed is None else allowed & graph.full_mask
    size = pool.bit_count()
    if p * c > size:
        return None
    adj = graph.adj
    perfect = p * c == size
    chosen: list[int] = []

    def place(avail: int, left: int) -> bool:
        if left == 0:
            return True
        while True:
            weak = 0
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                if (adj[low.bit_length() - 1] & avail).bit_count() < c - 1:
                    weak |= low
            if not weak:
                break
            if perfect:
                return False
            avail &= ~weak
        if avail.bit_count() < left * c:
            return False
        anchor_bit = avail & -avail
        anchor = anchor_bit.bit_length() - 1
        if grow(anchor_bit, adj[anchor] & avail, c - 1, avail, left):
            return True
        if perfect:
            return False
        return place(avail & ~anchor_bit, left)

    def grow(members: int, cands: int, missing: int, avail: int, left: int) -> bool:
        if missing == 0:
            chosen.append(members)
            if place(avail & ~members, left - 1):
                return True
            chosen.pop()
            return False
        if cands.bit_count() < missing:
            return False
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            if grow(members | low, rest & adj[low.bit_length() - 1], missing - 1, avail, left):
                return True
        return False

    if place(pool, p):
        return CliquePacking(tuple(vertex_tuple(m) for m in chosen))
    return None


def packing_after_deletion_reference(g: Graph, p: int, c: int, deleted):
    """Relabel, pack and translate: the packing of the graph left by
    deleting `deleted`, searched on a relabeled copy of the survivors and
    mapped back to the original labels."""
    from ftclique import CliquePacking, find_disjoint_cliques

    sub, kept = g.remove_vertices(deleted)
    packing = find_disjoint_cliques(sub, p, c)
    if packing is None:
        return None
    return CliquePacking(tuple(tuple(kept[v] for v in clique)
                               for clique in packing.cliques))


def verify_reference(g: Graph, params):
    """verify_ft's verdict, every surviving deletion kept as a witness,
    built from packing_after_deletion_reference (n >= p*c + k only)."""
    from ftclique import FTVerdict, degree_floor

    k, p, c = params.k, params.p, params.c
    witnesses = {}
    for rank, subset in enumerate(combinations(range(g.n), k)):
        packing = packing_after_deletion_reference(g, p, c, subset)
        if packing is None:
            reason = None
            floor = degree_floor(k, c)
            low = [v for v in range(g.n) if g.degree(v) < floor]
            if g.n == params.critical_order and c >= 3 and low:
                v = low[0]
                reason = (f"order equals p*c + k and vertex {v} has degree "
                          f"{g.degree(v)} < c + k - 1 = {floor}, so some "
                          "deletion must fail")
            return FTVerdict(False, subset, rank + 1, witnesses, reason)
        witnesses[subset] = packing
    return FTVerdict(True, None, len(witnesses), witnesses, None)


def surviving_clique_reference(g: Graph, k: int, c: int):
    """The surviving-clique check as a full scan: for the first vertex v
    that some deletion of k other vertices leaves in no c-clique, the
    lexicographically least such deletion, or None."""
    from ftclique import has_clique_containing
    from ftclique.graphs import mask_of

    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        for s in combinations(others, k):
            if not has_clique_containing(g, v, c, g.full_mask & ~mask_of(s)):
                return {"vertex": v, "deleted": list(s)}
    return None


def refine_reference(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Equitable refinement counting every vertex against every cell in
    every round: the full-count form of `canon._refine`."""
    # Split cells by neighbor counts against every cell until no cell
    # splits. The grouping key is label-free, so isomorphic graphs refine
    # identically.
    while True:
        new_cells: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                sig = tuple((adj[v] & other).bit_count() for other in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            new_cells += [groups[sig] for sig in sorted(groups)]
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells
