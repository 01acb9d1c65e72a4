"""Edge-list and graph6 parsing and emission."""

import random

import networkx as nx
import pytest

from ftclique import (
    Graph,
    complete_graph,
    cycle_graph,
    detect_format,
    emit_edge_list,
    emit_graph,
    emit_graph6,
    empty_graph,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    star_construction,
)
from ftclique.formats import MAX_ORDER, _encode_n
from helpers import random_graph


def test_edge_list_round_trip_basic():
    g = cycle_graph(5)
    text = emit_edge_list(g)
    assert text.splitlines()[0] == "5 5"
    assert parse_edge_list(text) == g
    assert parse_edge_list(emit_edge_list(empty_graph(0))) == empty_graph(0)


def test_edge_list_strictness():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1\n1 2\n")  # too many edge lines
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # too few
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 3\n")  # vertex out of range
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n1 1\n")  # self loop
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n1 0\n")  # duplicate edge
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")  # wrong token count
    with pytest.raises(ValueError):
        parse_edge_list("-3 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("a 1\n0 1\n")  # header not integers
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 x\n")  # edge not integers


@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("3\n", "malformed header '3'; expected 'n m'"),
    ("a 1\n0 1\n", "malformed header 'a 1'; expected integers"),
    ("-3 0\n", "negative counts in header '-3 0'"),
    (f"{MAX_ORDER + 1} 0\n", f"order {MAX_ORDER + 1} in header exceeds the supported {MAX_ORDER}"),
    ("3 2\n0 1\n", "header promises 2 edges, found 1 lines"),
    ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),
    ("3 1\n0 x\n", "malformed edge line '0 x'"),
    ("3 1\n0 3\n", "edge (0, 3) out of range for n=3"),
    ("3 1\n-1 2\n", "edge (-1, 2) out of range for n=3"),
    ("3 1\n1 1\n", "self-loop at vertex 1"),
    ("3 2\n0 1\n0 1\n", "duplicate edge (0, 1)"),
    ("3 2\n0 1\n1 0\n", "duplicate edge (1, 0)"),
    ("3 2\n2 1\n1 2\n", "duplicate edge (1, 2)"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_edge_list_takes_either_orientation():
    assert parse_edge_list("4 3\n2 0\n1 3\n0 1\n") == Graph(4, [(0, 1), (0, 2), (1, 3)])


def test_graph6_known_encodings():
    assert emit_graph6(complete_graph(5)).strip() == "D~{"
    assert parse_graph6("D~{") == complete_graph(5)
    assert emit_graph6(empty_graph(0)).strip() == "?"
    assert parse_graph6("?") == empty_graph(0)
    # optional format header is tolerated
    assert parse_graph6(">>graph6<<D~{") == complete_graph(5)


def test_graph6_matches_networkx_both_directions():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.random())
        mine = emit_graph6(g).strip()
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(theirs.encode())
        assert parse_graph6(mine) == Graph(
            back.number_of_nodes(), list(back.edges())
        )


def test_graph6_long_form():
    g = empty_graph(100)
    text = emit_graph6(g)
    assert text[0] == "~"
    assert parse_graph6(text) == g
    rng = random.Random(88)
    h = random_graph(rng, 70, 0.05)
    assert parse_graph6(emit_graph6(h)) == h


def test_graph6_strictness():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("D~")  # truncated
    with pytest.raises(ValueError):
        parse_graph6("D~{{")  # trailing group
    with pytest.raises(ValueError):
        parse_graph6("D~\x19")  # byte below 63
    with pytest.raises(ValueError):
        parse_graph6("D~{\nD~{")  # two records
    with pytest.raises(ValueError):
        parse_graph6(b"\xff")  # not ASCII
    with pytest.raises(ValueError):
        parse_graph6("~??")  # long-form order truncated
    with pytest.raises(ValueError):
        parse_graph6("~???")  # long form for an order below 63
    # nonzero padding bits
    with pytest.raises(ValueError):
        parse_graph6("A?~")
    with pytest.raises(ValueError):
        parse_graph6("AG")  # n = 2 wants exactly one group; padding dirty
    parse_graph6("A_")  # clean single edge


@pytest.mark.parametrize("data", [5, None, ["D~{"]])
def test_graph6_rejects_input_that_is_not_text(data):
    with pytest.raises(TypeError, match="str or bytes"):
        parse_graph6(data)


def test_order_limit_is_shared_by_both_formats():
    # the header's order is checked before n adjacency masks are allocated
    for n in (MAX_ORDER + 1, 10 ** 9):
        with pytest.raises(ValueError, match="exceeds"):
            parse_edge_list(f"{n} 0\n")
    assert parse_edge_list(f"{MAX_ORDER} 0\n").n == MAX_ORDER
    # the largest four-byte graph6 vertex count is the same limit
    assert _encode_n(MAX_ORDER) == "~}~~"
    with pytest.raises(ValueError, match=f"n={MAX_ORDER} needs"):
        parse_graph6("~}~~")
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        parse_graph6("~~????????")
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        emit_graph6(empty_graph(MAX_ORDER + 1))


def test_emit_edge_list_stops_at_the_order_limit():
    # an edge list the parser would refuse is not written either
    assert emit_edge_list(empty_graph(MAX_ORDER)) == f"{MAX_ORDER} 0\n"
    with pytest.raises(ValueError, match=f"stop at n = {MAX_ORDER}, got {MAX_ORDER + 1}"):
        emit_edge_list(empty_graph(MAX_ORDER + 1))


def test_round_trips_random():
    rng = random.Random(9000)
    for _ in range(300):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(emit_graph6(g)) == g
        assert parse_edge_list(emit_edge_list(g)) == g


def test_detect_and_generic_entry_points():
    g = cycle_graph(6)
    as_edges = emit_graph(g, "edge-list")
    as_g6 = emit_graph(g, "graph6")
    assert detect_format(as_edges) == "edge-list"
    assert detect_format(as_g6) == "graph6"
    assert detect_format(">>graph6<<D~{") == "graph6"
    assert detect_format("+7 12\n") == "edge-list"
    assert parse_graph(as_edges) == g
    assert parse_graph(as_g6) == g
    with pytest.raises(ValueError):
        detect_format("  \n")
    with pytest.raises(ValueError):
        emit_graph(g, "dot")


def _parser_corpus(rng):
    """Texts on and around both formats: emitted graphs, the same with
    signed headers, >>graph6<< headers, blank lines and CRLF, each also
    with one character replaced, and short random strings."""
    signed = emit_edge_list(star_construction(1, 2, 3))  # "7 12" header
    yield "+" + signed
    yield from ("-0 0\n", "+0 0\n", "-1 0\n", ">>graph6<<\n", ">graph6<<D~{")
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        edges, g6 = emit_edge_list(g), emit_graph6(g)
        for text in (edges, "+" + edges, "\n  " + edges, edges.replace("\n", "\r\n"),
                     g6, ">>graph6<<" + g6, " >>graph6<< " + g6, "\t" + g6):
            yield text
            i = rng.randrange(len(text))
            yield text[:i] + rng.choice("0123456789+- \n>?@_~") + text[i + 1:]
    for _ in range(500):
        yield "".join(rng.choice("019 +-\n>?@_~") for _ in range(rng.randint(1, 6)))


def test_parse_graph_reaches_every_parser_that_accepts_the_text():
    accepted = {parse_edge_list: [], parse_graph6: []}
    for text in _parser_corpus(random.Random(2024)):
        try:
            got = parse_graph(text)
        except ValueError:
            got = None
        for parse, texts in accepted.items():
            try:
                want = parse(text)
            except ValueError:
                continue
            texts.append(text)
            assert got == want, text
    edge_lists, g6_lines = accepted[parse_edge_list], accepted[parse_graph6]
    assert len(edge_lists) > 500 and len(g6_lines) > 500
    assert sum(t.startswith("+") for t in edge_lists) > 100
    assert sum(t.lstrip().startswith(">>graph6<<") for t in g6_lines) > 100
