"""Components and exact vertex / edge connectivity.

Both connectivity numbers come from one unit-capacity max flow on bitmask
arcs (`_max_flow`), which augments along shortest residual paths that a
layered BFS over masks finds (`_augmenting_path`). `shortest_path` is the
plain BFS that chordality uses for its chordless cycles.

The flow sets are Esfahanian-Hakimi's for the vertex number (Networks 14,
1984) and Matula's for the edge number (FOCS 1987), and a flow runs only
where it can lower the best value so far:
- Floors. A disconnected graph gives 0 without a flow, and a scan stops
  once its best value is 1. `connectivity` takes no edge flow when the
  vertex connectivity equals the minimum degree, since Whitney's
  kappa <= lambda <= delta (Amer. J. Math. 54, 1932) then pins lambda.
- Certificates. The common neighbors of s and t are internally disjoint
  s-t paths, so a pair with at least the best value of them is skipped.
- Orders. The targets of v0 come in order of fewest common neighbors
  with v0, so a small cut is found first and the later targets pass on
  their certificate; the dominating set takes vertices by decreasing
  degree, so a hub dominates alone.
"""

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, bits, vertex_tuple

__all__ = [
    "components",
    "is_connected",
    "edge_connectivity",
    "vertex_connectivity",
    "ConnectivityInfo",
    "connectivity",
]


def component_masks(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected components of the subgraph induced on the mask `sub`."""
    comps = []
    remaining = sub
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & sub & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def components(graph: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, ordered by least vertex."""
    return [vertex_tuple(m) for m in component_masks(graph.adj, graph.full_mask)]


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    return len(component_masks(graph.adj, graph.full_mask)) == 1


def shortest_path(adj: Sequence[int], start: int, goal: int, allowed: int) -> list[int] | None:
    """Shortest start-goal path inside the subgraph induced on `allowed`, or None.

    adj[u] is the mask of u's out-neighbors, so directed arcs work too.
    """
    if not (allowed >> start & 1) or not (allowed >> goal & 1):
        return None
    prev = {start: -1}
    queue = deque([start])
    seen = 1 << start
    while queue:
        u = queue.popleft()
        if u == goal:
            path = []
            while u != -1:
                path.append(u)
                u = prev[u]
            path.reverse()
            return path
        for v in bits(adj[u] & allowed & ~seen):
            seen |= 1 << v
            prev[v] = u
            queue.append(v)
    return None


def _augmenting_path(arcs: list[int], flow: list[int], back: list[int],
                     source: int, sink: int) -> list[int] | None:
    """Shortest source-sink path in the residual graph of `_max_flow`, or None.

    A layered BFS over masks: each layer is the OR of the residual rows
    (arcs[u] & ~flow[u]) | back[u] of the previous layer's vertices, minus
    the vertices already seen; the layer that reaches the sink stops there.
    The path is walked back from the sink, each step to the least vertex
    of the previous layer with an arc to it.
    """
    layers = []
    frontier = seen = 1 << source
    goal = 1 << sink
    while not frontier & goal:
        layers.append(frontier)
        reach = 0
        while frontier and not reach & goal:
            low = frontier & -frontier
            u = low.bit_length() - 1
            reach |= (arcs[u] & ~flow[u]) | back[u]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            return None
        seen |= frontier
    path = [sink]
    v = sink
    for layer in reversed(layers):
        while True:
            low = layer & -layer
            u = low.bit_length() - 1
            if ((arcs[u] & ~flow[u]) | back[u]) >> v & 1:
                break
            layer ^= low
        path.append(u)
        v = u
    path.reverse()
    return path


def _max_flow(arcs: list[int], source: int, sink: int, limit: int | None = None) -> int:
    """Unit-capacity max flow by shortest augmenting paths on bitmask arcs.

    arcs[u] is the mask of heads of u's arcs, each of capacity 1. flow[u]
    holds the heads of u's arcs that carry a unit and back[v] the tails of
    arcs into v that carry one, so the residual arcs of u are
    (arcs[u] & ~flow[u]) | back[u]. Pushing a unit along u -> v cancels a
    unit on v -> u when there is one. With a limit the flow stops once it
    reaches it, so the result is min(max flow, limit).
    """
    size = len(arcs)
    flow = [0] * size
    back = [0] * size
    value = 0
    while limit is None or value < limit:
        path = _augmenting_path(arcs, flow, back, source, sink)
        if path is None:
            break
        for u, v in zip(path, path[1:]):
            if back[u] >> v & 1:
                back[u] ^= 1 << v
                flow[v] ^= 1 << u
            else:
                flow[u] |= 1 << v
                back[v] |= 1 << u
        value += 1
    return value


def _least_flow(adj: Sequence[int], arcs: Sequence[int], shift: int,
                pairs: Iterable[tuple[int, int]], best: int) -> int:
    """The least of best and the s + shift to t flows on arcs over pairs.

    Each flow stops at the best value so far, and the scan stops once it
    is 1. A pair whose common neighbors number at least the best is
    skipped, since each is an s-t path of its own.
    """
    for s, t in pairs:
        if best == 1:
            break
        if (adj[s] & adj[t]).bit_count() < best:
            best = _max_flow(arcs, s + shift, t, best)
    return best


def edge_connectivity(graph: Graph) -> int:
    """Minimum number of edges whose deletion disconnects the graph.

    0 for disconnected or trivial graphs. Each edge is an arc of capacity
    1 in both directions. D is a greedy maximal independent set (scan the
    vertices by decreasing degree, ties by label, and take each one that no
    taken vertex covers), so D dominates the graph, and the answer is the
    minimum degree or the least max flow from D's first vertex s to another
    vertex of D, whichever is smaller (D. W. Matula, "Determining edge
    connectivity in O(nm)", FOCS 1987). A cut with fewer edges than the
    minimum degree delta has more than delta vertices on each side, since
    j <= delta vertices of minimum degree delta send at least
    j(delta - j + 1) >= delta edges out of their side. So each side holds
    a vertex with no cut edge, whose closed neighborhood stays on its side
    and meets D. The degree order lets a hub dominate alone.

    The best value starts at delta (Whitney: vertex <= edge connectivity
    <= minimum degree), and `_least_flow` lowers it. Its certificate holds
    here: s and t are not adjacent, so their common neighbors carry as
    many edge-disjoint s-t paths.
    """
    n = graph.n
    if n <= 1 or not is_connected(graph):
        return 0
    adj = graph.adj
    degrees = graph.degrees()
    dominating = []
    covered = 0
    for v in sorted(range(n), key=lambda v: -degrees[v]):
        if not covered >> v & 1:
            dominating.append(v)
            covered |= adj[v] | 1 << v
    s = dominating[0]
    return _least_flow(adj, adj, 0, ((s, t) for t in dominating[1:]), min(degrees))


def vertex_connectivity(graph: Graph) -> int:
    """Minimum number of vertices whose deletion disconnects the graph.

    n-1 for complete graphs (convention), 0 for disconnected or trivial
    ones. Each vertex v splits into an in-node v with one unit arc to an
    out-node v + n, whose arcs go to the in-nodes of v's neighbors; the
    flow from s + n to a non-neighbor t counts internally disjoint s-t
    paths. With v0 of minimum degree it suffices to take the flows from
    v0 to its non-neighbors and between the non-adjacent pairs of N(v0)
    (A. H. Esfahanian and S. L. Hakimi, "On computing the connectivities
    of graphs and digraphs", Networks 14, 1984): a minimum separator that
    misses v0 splits it from a non-neighbor, and one that contains v0
    misses two non-adjacent neighbors of v0 in different components.

    The best value starts at the minimum degree, and `_least_flow` lowers
    it. The non-neighbors of v0 come in order of fewest common neighbors
    with v0, so a small cut is found early and the later targets pass on
    their common-neighbor certificate.
    """
    n = graph.n
    if n <= 1 or not is_connected(graph):
        return 0
    adj = graph.adj
    arcs = [1 << (v + n) for v in range(n)] + list(adj)
    v0 = min(range(n), key=lambda v: adj[v].bit_count())
    near = adj[v0]
    cut_first = sorted(bits(graph.full_mask & ~near & ~(1 << v0)),
                       key=lambda t: (adj[t] & near).bit_count())
    pairs = chain(((v0, t) for t in cut_first),
                  ((x, y) for x in bits(near) for y in bits(near & ~adj[x] & ~((2 << x) - 1))))
    return _least_flow(adj, arcs, n, pairs, near.bit_count())


@dataclass(frozen=True)
class ConnectivityInfo:
    components: tuple[tuple[int, ...], ...]
    vertex_connectivity: int
    edge_connectivity: int

    @classmethod
    def from_vertex_connectivity(cls, graph: Graph, kappa: int) -> "ConnectivityInfo":
        """Components and edge connectivity of a graph whose vertex
        connectivity is known to be kappa (0 when disconnected).

        When kappa equals the minimum degree, Whitney's
        kappa <= lambda <= delta gives the edge connectivity without a flow.
        """
        comps = tuple(components(graph))
        if len(comps) != 1:
            return cls(comps, 0, 0)
        if kappa == min(graph.degrees()):
            return cls(comps, kappa, kappa)
        return cls(comps, kappa, edge_connectivity(graph))


def connectivity(graph: Graph) -> ConnectivityInfo:
    """Components plus both connectivity numbers (0 when disconnected)."""
    return ConnectivityInfo.from_vertex_connectivity(graph, vertex_connectivity(graph))
