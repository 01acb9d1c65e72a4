"""Exhaustive minimum-edge search with budgets and resume tokens."""

from dataclasses import replace

import pytest

from ftclique import (
    Budget,
    FTParams,
    SearchResume,
    blocks,
    canonical_form,
    complete_graph,
    probe_conjecture,
    search_minimum,
    star_construction,
    verify_ft,
)
from ftclique.graphs import mask_of
from helpers import all_graphs_with_edges, search_minimum_reference

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
    report = search_minimum(FTParams(2, 2, 3))
    stats = report.stats
    assert report.graphs_examined == stats["labeled_graphs"] == 46328
    assert sum(stats["rejected"].values()) + stats["canonical_forms"] == 46328
    assert set(stats["rejected"]) == {"tight-degree-closed-clique", "vertex-clique"}
    assert stats["canonical_forms"] == 6
    assert stats["new_classes"] == stats["verify_calls"] == stats["accepted"] == 1
    assert report.to_dict()["stats"] == stats


def test_order_guard():
    with pytest.raises(ValueError):
        # 67 vertices exceeds the mask-width cap
        search_minimum(FTParams(1, 22, 3))


def test_budget_stops_and_resume_finishes():
    params = FTParams(1, 2, 3)
    full = search_minimum(params)

    partial = search_minimum(params, budget=Budget(graphs=50))
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


def test_resume_token_round_trips_through_json():
    params = FTParams(1, 2, 3)
    partial = search_minimum(params, budget=Budget(graphs=10))
    token = partial.resume
    assert token is not None
    rebuilt = SearchResume.from_dict(token.to_dict())
    assert rebuilt == token
    resumed = search_minimum(params, resume=rebuilt,
                             budget=Budget(graphs=10 ** 9))
    assert resumed.minimum_found == 12


def _token_dict(params=FTParams(1, 2, 3), graphs=10):
    token = search_minimum(params, budget=Budget(graphs=graphs)).resume
    assert token is not None
    return token.to_dict()


def test_resume_token_carries_version_and_enumerator():
    data = _token_dict()
    assert data["version"] == 2
    assert isinstance(data["enumerator"], str)
    for key in ("version", "enumerator"):
        stale = dict(data)
        del stale[key]
        with pytest.raises(ValueError):
            SearchResume.from_dict(stale)
    with pytest.raises(ValueError):
        SearchResume.from_dict({**data, "version": 1})


@pytest.mark.parametrize("change", [
    pytest.param({"pending": []}, id="no-pending"),
    pytest.param({"pending": [[12, 3]]}, id="pending-not-a-suffix"),
    pytest.param({"pending": [[12, 9]]}, id="pending-unit-out-of-range"),
    pytest.param({"pending": [[12, "3"]]}, id="pending-text-degree"),
    pytest.param({"pending": [12, 3]}, id="pending-flat"),
    pytest.param({"pending": None}, id="pending-null"),
    pytest.param({"max_edges": 10 ** 12}, id="huge-max-edges"),
    pytest.param({"unit_offset": -1}, id="negative-offset"),
    pytest.param({"graphs_examined": -5}, id="negative-examined"),
    pytest.param({"graphs_examined": True}, id="boolean-examined"),
    pytest.param({"k": "1"}, id="text-k"),
    pytest.param({"p": 0}, id="invalid-p"),
    pytest.param({"best_m": 12}, id="best-m-without-certificates"),
    pytest.param({"best_certs": [[7, "3f"]]}, id="certificates-without-best-m"),
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
    data = _token_dict(params)
    # a search that found its minimum 12 keeps only units of 12 edges
    good = {**data, "pending": [[12, 6]], "best_m": 12,
            "best_certs": [[cert.n, format(cert.code, "x")]]}
    assert SearchResume.from_dict(good).best_m == 12
    for bad in ({"best_m": 11},
                {"pending": data["pending"]},
                {"best_certs": [[8, format(cert.code, "x")]]},
                {"best_certs": [[cert.n, format(cert.code & (cert.code - 1), "x")]]}):
        with pytest.raises(ValueError):
            SearchResume.from_dict({**good, **bad})


def test_resume_token_missing_fields_are_rejected():
    data = _token_dict()
    for key in ("k", "pending", "best_m", "unit_offset"):
        partial = dict(data)
        del partial[key]
        with pytest.raises(ValueError, match=key):
            SearchResume.from_dict(partial)
    with pytest.raises(ValueError):
        SearchResume.from_dict([data])


def test_resume_parameter_mismatch():
    partial = search_minimum(FTParams(1, 2, 3), budget=Budget(graphs=10))
    with pytest.raises(ValueError):
        search_minimum(FTParams(2, 2, 3), resume=partial.resume)
    with pytest.raises(ValueError):
        search_minimum(FTParams(1, 2, 3), max_edges=11, resume=partial.resume)
    with pytest.raises(ValueError):
        search_minimum(FTParams(1, 2, 3), resume=replace(partial.resume, pending=()))


def test_max_edges_cutoff_reports_nothing_found():
    report = search_minimum(FTParams(1, 2, 3), max_edges=11)
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
