"""Canonical forms for small graphs.

Degree/color refinement plus individualization backtracking produces a
certificate (n, code) that is equal for two graphs exactly when they are
isomorphic. Intended for the search regime.
"""

from dataclasses import dataclass

from .graphs import Graph, bits

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_labeling",
    "canonical_graph",
]

@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Certificate: vertex count plus packed canonical adjacency bits."""

    n: int
    code: int


def _encode(adj: tuple[int, ...], perm: tuple[int, ...]) -> int:
    # Bit t set iff canonical positions (i, j) are adjacent, pairs ordered
    # (0,1), (0,2), ..., (0,n-1), (1,2), ...
    code = 0
    bit = 1
    n = len(perm)
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            if ai >> perm[j] & 1:
                code |= bit
            bit <<= 1
    return code


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    # Split cells by neighbor counts against every cell until stable. The
    # grouping key is label-free, so isomorphic graphs refine identically.
    while True:
        changed = False
        new_cells: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                sig = tuple((adj[v] & other).bit_count() for other in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _canonize(graph: Graph) -> tuple[int, tuple[int, ...]]:
    n = graph.n
    adj = graph.adj
    if n == 0:
        return 0, ()

    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << v)
    cells = _refine(adj, [by_degree[d] for d in sorted(by_degree)])

    best: dict[str, object] = {"code": None, "perm": None}
    leaves: dict[int, tuple[int, ...]] = {}
    gens: list[tuple[int, ...]] = []

    def orbit_reached(v: int, done: list[int], base: tuple[int, ...]) -> bool:
        usable = [g for g in gens if all(g[b] == b for b in base)]
        if not usable or not done:
            return False
        root = list(range(n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for g in usable:
            for a in range(n):
                ra, rb = find(a), find(g[a])
                if ra != rb:
                    root[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in done)

    def walk(cells: list[int], base: tuple[int, ...]) -> None:
        target = -1
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                target = i
                break
        if target < 0:
            perm = tuple(c.bit_length() - 1 for c in cells)
            code = _encode(adj, perm)
            prior = leaves.get(code)
            if prior is None:
                leaves[code] = perm
            elif prior != perm:
                g = [0] * n
                for i in range(n):
                    g[prior[i]] = perm[i]
                if any(g[i] != i for i in range(n)):
                    gens.append(tuple(g))
            if best["code"] is None or code < best["code"]:
                best["code"] = code
                best["perm"] = perm
            return
        cell = cells[target]
        done: list[int] = []
        for v in bits(cell):
            # Vertices in one orbit of base-fixing automorphisms found so
            # far lead to identical subtrees; explore one representative.
            if orbit_reached(v, done, base):
                continue
            done.append(v)
            child = (
                cells[:target]
                + [1 << v, cell & ~(1 << v)]
                + cells[target + 1 :]
            )
            walk(_refine(adj, child), base + (v,))

    walk(cells, ())
    return best["code"], best["perm"]  # type: ignore[return-value]


def canonical_form(graph: Graph) -> CanonicalForm:
    """Certificate equal across all relabelings of the graph, and only those."""
    code, _ = _canonize(graph)
    return CanonicalForm(graph.n, code)


def canonical_labeling(graph: Graph) -> tuple[int, ...]:
    """perm with perm[i] = input vertex placed at canonical position i."""
    _, perm = _canonize(graph)
    return perm


def canonical_graph(form: CanonicalForm) -> Graph:
    """Rebuild the canonically labeled graph from a certificate."""
    n = form.n
    edges = []
    bit = 1
    for i in range(n):
        for j in range(i + 1, n):
            if form.code & bit:
                edges.append((i, j))
            bit <<= 1
    return Graph(n, edges)
