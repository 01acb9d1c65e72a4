"""Exhaustive minimum-edge search with budgets and resume tokens."""

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ftclique import (
    Budget,
    CanonicalForm,
    FTParams,
    SearchResume,
    TreeTemplate,
    audit_basic,
    blocks,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    complete_graph,
    hub_edge_bound,
    probe_conjecture,
    relabeled,
    search_minimum,
    star_construction,
    tree_of_cliques,
    verify_ft,
)
from ftclique import search as search_module
from ftclique.audit import tight_vertex_with_open_closure
from ftclique.formats import emit_graph6, parse_graph6
from ftclique.graphs import Graph, mask_of
from ftclique.search import _iter_adjacencies
from helpers import (
    all_graphs_with_edges,
    bad_resume_afters,
    random_graph,
    search_minimum_reference,
)

# The state file of the (2,3,3) run, stopped inside unit (28, 5).
STATE_2_3_3 = Path(__file__).resolve().parent.parent / "results" / "2-3-3.state.json"

# Every parameter set with critical order p*c + k <= 8 (41 of them).
SMALL_PARAMS = [
    (k, p, c)
    for c in range(2, 9)
    for p in range(1, 8 // c + 1)
    for k in range(0, 8 - p * c + 1)
]


def test_single_clique_parameters_force_complete_graphs():
    report = search_minimum(FTParams(1, 1, 3))
    assert report.minimum_found == 6
    assert report.exhaustive
    assert report.exemplar_graphs() == [complete_graph(4)]

    report = search_minimum(FTParams(2, 1, 3))
    assert report.minimum_found == 10
    assert report.exemplar_graphs() == [complete_graph(5)]
    assert "matches the hub construction bound" in " ".join(report.notes)


def test_two_triangles_one_guard():
    report = search_minimum(FTParams(1, 2, 3))
    assert report.minimum_found == 12
    assert report.exhaustive
    assert report.n == 7 and report.lower_bound == 11
    assert len(report.exemplars) == 1
    g = report.exemplar_graphs()[0]
    assert canonical_form(g) == canonical_form(star_construction(1, 2, 3))
    dec = blocks(g)
    assert len(dec.blocks) == 2
    for b in dec.blocks:
        bmask = mask_of(b)
        m = sum((g.adj[v] & bmask).bit_count() for v in b) // 2
        assert len(b) == 4 and m == 6


def test_k_zero_minimum_is_disjoint_cliques():
    report = search_minimum(FTParams(0, 2, 3))
    assert report.minimum_found == 6
    assert report.graphs_examined >= 1


def test_restricted_enumeration_is_complete():
    # the search fixes N(0) = {1..d0}; cross-check against the fully
    # unrestricted enumerator at the smallest interesting parameters
    params = FTParams(1, 1, 3)
    report = search_minimum(params)
    unrestricted = set()
    for m in range(4, 7):
        for g in all_graphs_with_edges(4, m, min_degree=3):
            if verify_ft(g, params).holds:
                unrestricted.add(canonical_form(g))
        if unrestricted:
            break
    assert unrestricted == set(report.exemplars)

    params = FTParams(0, 2, 2)
    report = search_minimum(params)
    unrestricted = set()
    for m in range(report.lower_bound, 7):
        for g in all_graphs_with_edges(4, m, min_degree=1):
            if verify_ft(g, params).holds:
                unrestricted.add(canonical_form(g))
        if unrestricted:
            break
    assert report.minimum_found == 2
    assert unrestricted == set(report.exemplars)


@pytest.mark.parametrize("k,p,c", SMALL_PARAMS)
def test_search_matches_unfiltered_reference(k, p, c):
    params = FTParams(k, p, c)
    report = search_minimum(params)
    minimum, exemplars = search_minimum_reference(params)
    assert report.exhaustive
    assert report.minimum_found == minimum
    assert set(report.exemplars) == exemplars


def test_filter_rejects_before_canonical_forms():
    # the enumerator cuts every graph with an open tight closure before it
    # is canonicalized, so (2,2,3) yields only 6 labeled graphs
    report = search_minimum(FTParams(2, 2, 3))
    stats = report.stats
    assert report.graphs_examined == stats["labeled_graphs"] == 6
    assert stats["new_classes"] == stats["verify_calls"] == stats["accepted"] == 1
    assert report.to_dict()["stats"] == stats


def test_order_guard():
    with pytest.raises(ValueError):
        # 67 vertices exceeds the order limit
        search_minimum(FTParams(1, 22, 3))


def test_max_edges_must_be_an_integer(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a unit was walked")

    monkeypatch.setattr(search_module, "_iter_adjacencies", no_walk)
    for max_edges in (19.5, True):
        with pytest.raises(ValueError, match="max_edges must be an integer"):
            search_minimum(FTParams(2, 2, 3), max_edges=max_edges)


def test_order_limit_is_40_for_searches_and_tokens():
    # order 40 walks C(39, 2) = 741 slots and reaches a graph in the last
    # slot (the first graph of (0,8,5) is 8 K5 on labels in order); order
    # 41 is refused, by the search and by tokens alike
    report = search_minimum(FTParams(0, 8, 5), budget=Budget(graphs=1))
    assert report.n == 40
    assert report.graphs_examined == 1
    assert report.resume.after.has_edge(38, 39)
    with pytest.raises(ValueError, match="order <= 40"):
        search_minimum(FTParams(1, 20, 2), budget=Budget(graphs=1))
    data = {**_token_dict(), "p": 13, "k": 2}
    with pytest.raises(ValueError, match="order 41"):
        SearchResume.from_dict(data)


@pytest.mark.parametrize("seconds", [0, -1.0, float("nan"), True, "5"])
def test_budget_rejects_seconds_that_are_not_positive(seconds):
    with pytest.raises(ValueError, match="seconds budget"):
        Budget(seconds=seconds)


@pytest.mark.parametrize("graphs", [0, 1.5, 2.0, True])
def test_budget_rejects_graphs_that_are_not_positive_integers(graphs):
    # a graph budget is exact, so it counts whole graphs
    with pytest.raises(ValueError, match="graphs budget"):
        Budget(graphs=graphs)


def test_budget_stops_and_resume_finishes():
    params = FTParams(1, 2, 3)
    full = search_minimum(params)

    # (1,2,3) yields 3 graphs, all in unit (12, 3): one stops mid-unit
    partial = search_minimum(params, budget=Budget(graphs=1))
    assert partial.resume is not None
    assert not partial.exhaustive
    assert any("budget" in note for note in partial.notes)

    hops = 0
    state = partial
    while state.resume is not None:
        state = search_minimum(params, resume=state.resume)
        hops += 1
        assert hops < 500
    assert state.minimum_found == full.minimum_found
    assert set(state.exemplars) == set(full.exemplars)
    assert state.exhaustive


def test_seconds_budget_hops_always_move_the_cursor():
    # the budget is checked only after a graph or a finished unit, so even
    # a budget spent before the first graph moves the cursor every hop
    params = FTParams(1, 2, 3)
    straight = search_minimum(params)
    report, positions = None, []
    while report is None or report.resume is not None:
        assert len(positions) < 20
        report = search_minimum(params, budget=Budget(seconds=1e-9),
                                resume=None if report is None else report.resume)
        token = report.resume
        position = None if token is None else (token.unit, token.after, token.graphs_examined)
        assert position not in positions
        positions.append(position)
    assert report.minimum_found == straight.minimum_found
    assert report.exemplars == straight.exemplars
    assert report.graphs_examined == straight.graphs_examined


def test_resume_token_round_trips_through_json():
    params = FTParams(1, 2, 3)
    partial = search_minimum(params, budget=Budget(graphs=1))
    token = partial.resume
    assert token is not None
    rebuilt = SearchResume.from_dict(token.to_dict())
    assert rebuilt == token
    resumed = search_minimum(params, resume=rebuilt,
                             budget=Budget(graphs=10 ** 9))
    assert resumed.minimum_found == 12


def _token_dict(params=FTParams(1, 2, 3)):
    token = search_minimum(params, budget=Budget(graphs=1)).resume
    assert token is not None
    return token.to_dict()


def test_resume_token_carries_version_and_enumerator():
    data = _token_dict()
    assert data["version"] == 5
    assert isinstance(data["enumerator"], str)
    assert isinstance(data["after"], str) and "unit_offset" not in data
    assert isinstance(data["seen_certs"], list)
    for key in ("version", "enumerator"):
        stale = dict(data)
        del stale[key]
        with pytest.raises(ValueError):
            SearchResume.from_dict(stale)
    with pytest.raises(ValueError):
        SearchResume.from_dict({**data, "version": 2})
    # a version-3 token counted its unit's graphs instead of naming the last
    version3 = {key: value for key, value in data.items() if key != "after"}
    with pytest.raises(ValueError, match="afresh"):
        SearchResume.from_dict({**version3, "version": 3, "unit_offset": 10})
    # a version-4 token names a position in the stream before the
    # enumerator cut open tight closures, and carried no seen classes
    version4 = {key: value for key, value in data.items() if key != "seen_certs"}
    with pytest.raises(ValueError, match="afresh"):
        SearchResume.from_dict({**version4, "version": 4,
                                "enumerator": "lex-slots/degree-floor-d0"})


def test_resume_token_after_must_be_a_graph_of_its_unit():
    data = _token_dict()
    assert SearchResume.from_dict({**data, "after": None}).after is None
    for after in bad_resume_afters(data["after"], data["unit"][1], 3).values():
        with pytest.raises(ValueError, match="after"):
            SearchResume.from_dict({**data, "after": after})


@pytest.mark.parametrize("change", [
    # unit is the first pending (m, d0) unit; (1,2,3) has m in [11, 12]
    # and d0 in [3, 6], and one graph stops it in unit (12, 3) with its
    # minimum 12 found
    pytest.param({"unit": []}, id="no-pending"),
    pytest.param({"unit": [[11, 4]]}, id="pending-nested"),
    pytest.param({"unit": 11}, id="pending-flat"),
    pytest.param({"unit": [11, 4, 5]}, id="pending-three-values"),
    pytest.param({"unit": [11, "4"]}, id="pending-text-degree"),
    pytest.param({"unit": None}, id="pending-null"),
    pytest.param({"unit": [12, 7]}, id="pending-unit-out-of-range"),
    pytest.param({"unit": [12, 2]}, id="pending-degree-below-floor"),
    pytest.param({"unit": [10, 4]}, id="pending-edges-below-lower-bound"),
    pytest.param({"unit": [13, 4]}, id="pending-edges-above-max-edges"),
    pytest.param({"after": ""}, id="empty-after"),
    pytest.param({"graphs_examined": -5}, id="negative-examined"),
    pytest.param({"graphs_examined": True}, id="boolean-examined"),
    pytest.param({"k": "1"}, id="text-k"),
    pytest.param({"p": 0}, id="invalid-p"),
    pytest.param({"best_certs": []}, id="best-m-without-certificates"),
    pytest.param({"best_m": None}, id="certificates-without-best-m"),
    pytest.param({"seen_certs": [[7, "3f"]]}, id="seen-certificate-of-other-edge-count"),
    pytest.param({"seen_certs": None}, id="seen-certificates-null"),
    pytest.param({"best_certs": [[7, "zz"]]}, id="certificate-not-hex"),
    pytest.param({"best_certs": [7]}, id="certificate-not-a-pair"),
])
def test_malformed_resume_tokens_are_rejected(change):
    data = {**_token_dict(), **change}
    with pytest.raises(ValueError):
        SearchResume.from_dict(data)


def test_resume_token_best_m_must_match_its_certificates():
    params = FTParams(1, 2, 3)
    cert = search_minimum(params).exemplars[0]
    # a search that found its minimum 12 stops only inside a unit of 12
    # edges, having seen each accepted class there
    good = {**_token_dict(params), "unit": [12, 6], "best_m": 12, "after": None,
            "best_certs": [[cert.n, format(cert.code, "x")]]}
    assert good["seen_certs"] == good["best_certs"]
    assert SearchResume.from_dict(good).best_m == 12
    short = [cert.n, format(cert.code & (cert.code - 1), "x")]
    for bad in ({"best_m": 11},
                {"unit": [11, 3]},
                {"best_certs": [[8, format(cert.code, "x")]]},
                {"best_certs": [short]},
                {"seen_certs": []},
                {"seen_certs": [*good["seen_certs"], short]}):
        with pytest.raises(ValueError):
            SearchResume.from_dict({**good, **bad})


def test_resume_token_missing_fields_are_rejected():
    data = _token_dict()
    for key in ("k", "unit", "best_m", "after", "seen_certs"):
        partial = dict(data)
        del partial[key]
        with pytest.raises(ValueError, match=key):
            SearchResume.from_dict(partial)
    with pytest.raises(ValueError):
        SearchResume.from_dict([data])


def test_finished_token_replays_its_result():
    # a finished search is a token that owes no unit; resuming from it
    # walks nothing and reports the same result with zero work
    params = FTParams(2, 2, 3)
    straight = search_minimum(params)
    token = straight.state()
    assert (token.unit, token.after, token.seen_certs) == (None, None, ())
    data = token.to_dict()
    assert data["status"] == "complete" and data["unit"] is None
    assert SearchResume.from_dict(data) == token
    assert SearchResume.from_dict(data).to_dict() == data
    replay = search_minimum(params, resume=SearchResume.from_dict(data))
    assert replay.exhaustive and replay.resume is None
    assert replay.minimum_found == straight.minimum_found == 19
    assert replay.exemplars == straight.exemplars
    assert replay.graphs_examined == straight.graphs_examined
    assert replay.stats == dict.fromkeys(straight.stats, 0)
    assert replay.state() == token
    # a finished search that found nothing up to max_edges replays nothing
    none_found = search_minimum(FTParams(1, 2, 3), max_edges=11).state()
    assert none_found.best_m is None and none_found.unit is None
    replay = search_minimum(FTParams(1, 2, 3), resume=none_found)
    assert (replay.minimum_found, replay.exemplars, replay.exhaustive) == (None, (), True)


def test_finished_token_keeps_only_its_result():
    data = search_minimum(FTParams(1, 2, 3)).state().to_dict()
    interrupted = _token_dict()
    for bad in ({"status": "running"}, {"unit": interrupted["unit"]},
                {"after": interrupted["after"]}, {"seen_certs": data["best_certs"]}):
        with pytest.raises(ValueError):
            SearchResume.from_dict({**data, **bad})
    unmarked = dict(data)
    del unmarked["status"]
    with pytest.raises(ValueError, match="status"):
        SearchResume.from_dict(unmarked)
    with pytest.raises(ValueError, match="status"):
        SearchResume.from_dict({**interrupted, "status": "complete"})


def test_resume_checks_the_best_certificates():
    params = FTParams(2, 2, 3)
    token = search_minimum(params).state()
    # canonical and 19 edges on 8 vertices, but verify_ft rejects it (GJm}nS)
    rejected = CanonicalForm(8, 0xb5ef9f8)
    assert canonical_form(canonical_graph(rejected)) == rejected
    assert not verify_ft(canonical_graph(rejected), params).holds
    # the accepted class under another labeling: a code above the least one
    accepted = canonical_graph(token.best_certs[0])
    other = relabeled(accepted, list(reversed(range(accepted.n))))
    code = sum(1 << t for t, (u, v) in enumerate(
        (u, v) for u in range(8) for v in range(u + 1, 8)) if other.has_edge(u, v))
    assert code != token.best_certs[0].code and verify_ft(other, params).holds
    for cert in (rejected, CanonicalForm(8, code)):
        for forged in (replace(token, best_certs=(cert,)),
                       replace(token, unit=(19, 7), best_certs=(cert,), seen_certs=(cert,))):
            with pytest.raises(ValueError, match="best_certs"):
                search_minimum(params, resume=forged)


def test_resume_parameter_mismatch():
    partial = search_minimum(FTParams(1, 2, 3), budget=Budget(graphs=1))
    with pytest.raises(ValueError):
        search_minimum(FTParams(2, 2, 3), resume=partial.resume)
    with pytest.raises(ValueError):
        search_minimum(FTParams(1, 2, 3), max_edges=11, resume=partial.resume)
    with pytest.raises(ValueError):
        search_minimum(FTParams(1, 2, 3), resume=replace(partial.resume, unit=(10, 3)))


def test_huge_max_edges_token_round_trips():
    # validation is a bounds check on the cursor, so no unit list is built
    data = {**_token_dict(), "max_edges": 10 ** 12}
    token = SearchResume.from_dict(data)
    assert token.max_edges == 10 ** 12
    assert token.to_dict() == data


def test_huge_max_edges_search_walks_units_lazily():
    # units are walked from a cursor, so 10**9 edge counts cost no memory
    report = search_minimum(FTParams(1, 2, 3), max_edges=10 ** 9)
    assert report.minimum_found == 12
    assert report.exhaustive
    assert report.resume is None
    assert report.max_edges == 10 ** 9


def test_budget_hops_keep_their_stream_positions(monkeypatch):
    # (unit, after, graphs_examined) of each interruption: positions in the
    # enumerator's stream, which saved tokens rely on. A graph budget is
    # exact, and a hop takes from the enumerator only the graphs it counts.
    taken = []

    def counting(*args):
        for adj in _iter_adjacencies(*args):
            taken[-1] += 1
            yield adj

    monkeypatch.setattr(search_module, "_iter_adjacencies", counting)
    params = FTParams(2, 2, 3)
    report, hops = None, []
    while report is None or report.resume is not None:
        assert len(taken) < 10
        taken.append(0)
        report = search_minimum(params, budget=Budget(graphs=2),
                                resume=None if report is None else report.resume)
        assert taken[-1] == report.stats["labeled_graphs"]
        token = report.resume
        if token is not None:
            hops.append((token.unit, emit_graph6(token.after).strip(),
                         token.graphs_examined))
    # all 6 graphs lie in unit (19, 4); the third hop stops on its last one
    assert hops == [((19, 4), "G~|Qik", 2), ((19, 4), "G~{phk", 4),
                    ((19, 4), "G~{Ww{", 6)]
    assert taken == [2, 2, 2, 0]
    assert report.minimum_found == 19
    assert report.exhaustive
    assert report.graphs_examined == 6
    assert [emit_graph6(g).strip() for g in report.exemplar_graphs()] == ["GJaN~{"]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumerator_matches_bruteforce(n):
    # the skip rule counts the later slots of each endpoint in closed form;
    # seeking past a graph yields exactly the rest of the stream
    for dmin in range(1, n):
        for d0 in range(dmin, n):
            for m in range((n * dmin + 1) // 2, n * (n - 1) // 2 + 1):
                expected = sorted(
                    g.adj for g in all_graphs_with_edges(n, m, min_degree=dmin)
                    if g.adj[0] == mask_of(range(1, d0 + 1))
                )
                stream = list(_iter_adjacencies(n, m, dmin, d0))
                assert sorted(stream) == expected
                for i, after in enumerate(stream):
                    assert list(_iter_adjacencies(n, m, dmin, d0, after)) == stream[i + 1:]


def test_walk_does_not_recurse():
    # the order-40 walk decides 741 slots before its first graph, 8 K5 on
    # labels in order, with 50 frames of headroom over the caller's stack
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        adj = next(_iter_adjacencies(40, 80, 4, 4, None, 4))
    finally:
        sys.setrecursionlimit(limit)
    assert adj == tuple(mask_of(range(v - v % 5, v - v % 5 + 5)) & ~(1 << v)
                        for v in range(40))


def test_enumerator_stream_is_pinned():
    # resume tokens name positions in the stream, so its order is pinned,
    # not only its set: n = 4..7, every dmin <= d0 < n, m from one below
    # the floor's edge count to five above, without and with the tight rule
    digest, count = hashlib.sha256(), 0
    for n in range(4, 8):
        for dmin in range(1, n):
            lower = (n * dmin + 1) // 2
            for d0 in range(dmin, n):
                for m in range(lower - 1, lower + 6):
                    for tight in (None, dmin):
                        for adj in _iter_adjacencies(n, m, dmin, d0, None, tight):
                            digest.update(repr(adj).encode())
                            count += 1
    assert count == 210_375
    assert digest.hexdigest() == \
        "4ed446411c51cbe5769b7e418a1a99ae2fe7babf04baf19e3663959d9b8b3543"


@pytest.mark.parametrize("n,m,d0s,graphs", [(8, 19, [4], 6), (10, 29, range(5, 10), 10)])
def test_seeking_from_a_search_unit_gives_its_tail(n, m, d0s, graphs):
    # the (2,2,3) unit (19, 4) and the (2,2,4) units (29, d0), as the
    # search walks them: the unit's d0 as floor and c+k-1 as tight degree
    tight, total = d0s[0], 0
    for d0 in d0s:
        stream = list(_iter_adjacencies(n, m, d0, d0, None, tight))
        for i, after in enumerate(stream):
            assert list(_iter_adjacencies(n, m, d0, d0, after, tight)) == stream[i + 1:]
        total += len(stream)
    assert total == graphs


def _tight_closed(n, adj, tight):
    return tight_vertex_with_open_closure(Graph._from_adj(n, adj), tight) is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tight_enumerator_is_the_filtered_stream(n):
    # the in-walk prunings cut only graphs the tight rule rejects, and the
    # leaf check rejects the rest; seeking works on the pruned stream too
    for dmin in range(1, n):
        for d0 in range(dmin, n):
            for m in range((n * dmin + 1) // 2, n * (n - 1) // 2 + 1):
                expected = [adj for adj in _iter_adjacencies(n, m, dmin, d0)
                            if _tight_closed(n, adj, dmin)]
                stream = list(_iter_adjacencies(n, m, dmin, d0, tight=dmin))
                assert stream == expected
                for i, after in enumerate(stream):
                    assert list(_iter_adjacencies(n, m, dmin, d0, after, tight=dmin)) \
                        == stream[i + 1:]


@pytest.mark.parametrize("m", [16, 17, 18, 19])
def test_tight_enumerator_on_the_2_2_3_units(m):
    # the units (m, 4) of the (2,2,3) search, whose floor c+k-1 is 4
    expected = [adj for adj in _iter_adjacencies(8, m, 4, 4) if _tight_closed(8, adj, 4)]
    assert list(_iter_adjacencies(8, m, 4, 4, tight=4)) == expected
    assert len(expected) == (6 if m == 19 else 0)


@pytest.mark.parametrize("k,p,c,minimum,exemplars", [
    (0, 3, 3, 9, {"H@LAKA@"}),
    (1, 2, 4, 20, {"HJ]CKN~"}),
    (3, 2, 3, 27, {"HLvnnv{", "HJaN~~~"}),
])
def test_order_9_minima(k, p, c, minimum, exemplars):
    # recorded from the search before the enumerator cut open tight
    # closures, which the unfiltered reference gates up to order 8
    report = search_minimum(FTParams(k, p, c))
    assert report.exhaustive
    assert report.minimum_found == minimum
    assert {emit_graph6(g).strip() for g in report.exemplar_graphs()} == exemplars


def test_resumed_hops_check_each_class_once():
    # the token carries the classes seen at its edge count, so hops of 50
    # graphs canonicalize and verify no class twice
    params = FTParams(3, 2, 3)
    straight = search_minimum(params)
    keys = ("labeled_graphs", "new_classes", "verify_calls", "accepted")
    totals = dict.fromkeys(keys, 0)
    report, hops = None, 0
    while report is None or report.resume is not None:
        report = search_minimum(params, budget=Budget(graphs=50),
                                resume=None if report is None else report.resume)
        hops += 1
        for key in keys:
            totals[key] += report.stats[key]
    assert hops > 20
    assert totals == {key: straight.stats[key] for key in keys}
    assert (totals["new_classes"], totals["verify_calls"]) == (5, 5)
    assert report.exemplars == straight.exemplars


def test_max_edges_cutoff_reports_nothing_found():
    for max_edges in (11, 10):  # 10 lies below the lower bound 11
        report = search_minimum(FTParams(1, 2, 3), max_edges=max_edges)
        assert report.minimum_found is None
        assert report.exhaustive
        assert report.exemplars == ()


def test_report_serialization():
    report = search_minimum(FTParams(1, 2, 3))
    data = report.to_dict()
    assert data["minimum_found"] == 12
    assert data["k"] == 1 and data["p"] == 2 and data["c"] == 3
    assert isinstance(data["exemplars"][0], str)
    assert data["resume"] is None
    assert data["stats"]["labeled_graphs"] == report.graphs_examined


def test_probe_regime_guards():
    with pytest.raises(ValueError):
        probe_conjecture(1, 2, 3)
    with pytest.raises(ValueError):
        probe_conjecture(2, 2, 2)
    with pytest.raises(ValueError):
        probe_conjecture(3, 2, 3)


def test_probe_smallest_single_clique_case():
    report = probe_conjecture(2, 1, 3)
    assert report.minimum_found == 10
    assert "bound confirmed tight at these parameters" in report.notes


def test_graph_in_no_clique_is_rejected_by_verify():
    # in unit (28, 5) of (2,3,3) the graph after J}rAHoyLo^? has a vertex
    # in no triangle; the search has no clique filter, so it canonicalizes
    # that graph and verify_ft rejects it at its first subset
    token = SearchResume(2, 3, 3, 28, (28, 5), None, (), 0,
                         parse_graph6("J}rAHoyLo^?"))
    report = search_minimum(FTParams(2, 3, 3), budget=Budget(graphs=1), resume=token)
    g = report.resume.after
    assert emit_graph6(g).strip() == "J}rA@{yL_\\_"
    stats = report.stats
    assert (stats["labeled_graphs"], stats["new_classes"], stats["verify_calls"],
            stats["accepted"]) == (1, 1, 1, 0)
    assert verify_ft(g, FTParams(2, 3, 3)).witness_count == 1
    record = next(r for r in audit_basic(g, FTParams(2, 3, 3)).records
                  if r.check == "vertex-clique")
    assert (record.passed, record.witness) == (False, {"vertex": 7})


def test_probe_notes_a_minimum_below_the_bound(monkeypatch):
    # with the bound one above the true minimum 19, the probe reports a
    # refutation and re-verifies its exemplar with the oracle
    monkeypatch.setattr(search_module, "hub_edge_bound",
                        lambda k, p, c: hub_edge_bound(k, p, c) + 1)
    report = probe_conjecture(2, 2, 3)
    assert report.minimum_found == 19
    assert "minimum beats the hub construction bound 20" in report.notes
    assert "below-bound exemplars re-verified by the oracle-backed verifier" in report.notes


def test_committed_state_file_round_trips():
    data = json.loads(STATE_2_3_3.read_text())
    assert SearchResume.from_dict(data).to_dict() == data


def test_committed_state_file_resumes_at_its_position():
    # certificates decide which classes the token has seen, so this pins
    # them against the certificates stored on disk
    token = SearchResume.from_dict(json.loads(STATE_2_3_3.read_text()))
    report = search_minimum(FTParams(2, 3, 3), budget=Budget(graphs=300), resume=token)
    assert report.graphs_examined == 18_973_114
    assert emit_graph6(report.resume.after).strip() == "J}f`acNBX[_"
    assert report.stats["new_classes"] == 0


def test_results_exemplars_have_the_stored_certificates():
    token = SearchResume.from_dict(json.loads(STATE_2_3_3.read_text()))
    exemplars = ["J_CX@F[w~~_", "J@LALqxp}N_", "J@LAKA@~~~_"]  # RESULTS.md
    assert sorted(canonical_form(parse_graph6(g)) for g in exemplars) == list(token.best_certs)


def _canon_corpus():
    rng = random.Random(1010)
    for _ in range(400):
        n = rng.randint(0, 11)
        yield random_graph(rng, n, rng.random())
    for g in (star_construction(1, 2, 3), star_construction(2, 3, 3),
              star_construction(2, 2, 4), tree_of_cliques(2, 3, TreeTemplate.path(3, 2, 3)),
              tree_of_cliques(1, 3, TreeTemplate.star(3, 1))):
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield relabeled(g, perm)


def test_canonical_labelings_are_pinned():
    # stored certificates and resume positions depend on the exact code
    # and labeling, not only on their invariance
    digest = hashlib.sha256()
    for g in _canon_corpus():
        digest.update(repr((g.n, canonical_form(g).code, canonical_labeling(g))).encode())
    assert digest.hexdigest() == \
        "ce8038ada92116c5aef22465e09a6e8de4fc422d1886eda1363d2f3d04164a46"
