"""Graph serialization: a plain edge-list format and graph6.

Edge list: first line "n m", then m lines "u v" with 0 <= u, v < n in
either order (emitted with u < v), no duplicates, no self-loops. graph6
follows the published byte layout (the upper triangle of the adjacency
matrix read column by column, packed into 6-bit groups offset by 63) and
parsing is bit-exact: bad bytes, nonzero padding and trailing garbage are
rejected.
"""

from .graphs import Graph

__all__ = [
    "parse_edge_list",
    "emit_edge_list",
    "parse_graph6",
    "emit_graph6",
    "detect_format",
    "parse_graph",
    "emit_graph",
    "check_order",
]

_G6_HEADER = ">>graph6<<"
# The largest order graph6's four-byte vertex count holds; edge lists share
# it, so no header can make the parser allocate an unbounded adjacency list.
MAX_ORDER = 258047


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}; expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}; expected integers") from None
    if n < 0 or m < 0:
        raise ValueError(f"negative counts in header {lines[0]!r}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} in header exceeds the supported {MAX_ORDER}")
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1} lines")
    adj = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._from_adj(n, tuple(adj))


def check_order(n: int) -> None:
    """Raise the ValueError both emitters raise on a graph of order n above
    MAX_ORDER, so a caller can refuse before it builds the graph."""
    if n > MAX_ORDER:
        raise ValueError(f"graphs here stop at n = {MAX_ORDER}, got {n}")


def emit_edge_list(graph: Graph) -> str:
    """The edge list of a graph; ValueError above MAX_ORDER, which the parser refuses."""
    check_order(graph.n)
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def _encode_n(n: int) -> str:
    check_order(n)
    if n <= 62:
        return chr(n + 63)
    return chr(126) + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


def emit_graph6(graph: Graph) -> str:
    """One graph6 line (with trailing newline), no optional header."""
    n = graph.n
    out = [_encode_n(n)]
    group = 0
    filled = 0
    for j in range(1, n):
        col = graph.adj[j]
        for i in range(j):
            group = (group << 1) | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out) + "\n"


def parse_graph6(data: str | bytes) -> Graph:
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("graph6 input is not ASCII") from None
    elif isinstance(data, str):
        text = data
    else:
        raise TypeError(f"graph6 input must be str or bytes, not {type(data).__name__}")
    text = text.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):].lstrip()
    if not text:
        raise ValueError("empty graph6 input")
    if any(ch in "\r\n" for ch in text):
        raise ValueError("expected a single graph6 line")
    vals = []
    for ch in text:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise ValueError(f"invalid graph6 byte {b} ({ch!r})")
        vals.append(b - 63)

    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) < 4:
            raise ValueError("truncated graph6 vertex count")
        if vals[1] == 63:
            raise ValueError(f"graph6 forms beyond n = {MAX_ORDER} are not supported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
        if n <= 62:
            raise ValueError("long-form graph6 vertex count below 63")

    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise ValueError(
            f"graph6 body has {len(body)} groups; n={n} needs {want}"
        )
    stream = 0
    for v in body:
        stream = (stream << 6) | v
    pad = want * 6 - nbits
    if pad and stream & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    stream >>= pad

    adj = [0] * n
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if stream >> pos & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._from_adj(n, tuple(adj))


def detect_format(text: str) -> str:
    """"graph6" if the first non-space character opens the >>graph6<< header
    or is a graph6 byte (63..126), else "edge-list", whose header opens with
    a digit or a sign: each text goes to the one parser that may accept it."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty graph input")
    if stripped.startswith(_G6_HEADER) or 63 <= ord(stripped[0]) <= 126:
        return "graph6"
    return "edge-list"


def parse_graph(text: str) -> Graph:
    """Parse an edge list or a graph6 line, as detect_format routes it."""
    if detect_format(text) == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def emit_graph(graph: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        return emit_edge_list(graph)
    if fmt == "graph6":
        return emit_graph6(graph)
    raise ValueError(f"unknown graph format {fmt!r}")
