"""End-to-end command-line behavior: exit codes, JSON reports, pipelines."""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import ftclique
from ftclique import (
    CanonicalForm,
    FTParams,
    Graph,
    TreeTemplate,
    blocks,
    canonical_form,
    canonical_graph,
    complete_graph,
    cycle_graph,
    edge_connectivity,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    parse_graph6,
    relabeled,
    size_k_separators,
    star_construction,
    tree_of_cliques,
    verify_ft,
    vertex_connectivity,
)
from ftclique import audit as audit_module
from ftclique import cli
from ftclique import verify as verify_module
from ftclique.cli import main
from ftclique.formats import MAX_ORDER
from helpers import bad_resume_afters


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_construct_then_verify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "star", "--k", "1", "--p", "2", "--c", "3")
    assert code == 0
    path = tmp_path / "star.txt"
    path.write_text(out)

    code, report, _ = run_json(capsys, "verify", "--k", "1", "--p", "2",
                               "--c", "3", str(path))
    assert code == 0
    assert report["holds"] is True
    assert report["n"] == 7 and report["m"] == 12
    assert report["counterexample"] is None


def test_verify_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "c7.txt"
    path.write_text(emit_edge_list(cycle_graph(7)))
    code, report, _ = run_json(capsys, "verify", "--k", "1", "--p", "2",
                               "--c", "3", str(path))
    assert code == 1
    assert report["holds"] is False
    assert report["counterexample"] == [0]
    assert report["reason"]


def test_verify_reads_graph6_and_collects_witnesses(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(emit_graph6(complete_graph(4)))
    code, report, _ = run_json(capsys, "verify", "--k", "1", "--p", "1",
                               "--c", "3", "--witnesses", "2", str(path))
    assert code == 0
    assert len(report["witnesses"]) == 2
    assert report["witnesses"]["0"] == [[1, 2, 3]]


def test_input_format_option_is_gone(tmp_path, capsys):
    # the first character of the input tells the two formats apart
    path = tmp_path / "k4.g6"
    path.write_text(emit_graph6(complete_graph(4)))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--k", "1", "--p", "1", "--c", "3", "--format", "graph6", str(path)])
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_pack_command(tmp_path, capsys):
    path = tmp_path / "k6.txt"
    path.write_text(emit_edge_list(complete_graph(6)))
    code, report, _ = run_json(capsys, "pack", "--p", "2", "--c", "3", str(path))
    assert code == 0
    assert report["cliques"] == [[0, 1, 2], [3, 4, 5]]

    path2 = tmp_path / "c7.txt"
    path2.write_text(emit_edge_list(cycle_graph(7)))
    code, report, _ = run_json(capsys, "pack", "--p", "2", "--c", "3", str(path2))
    assert code == 1
    assert report["found"] is False


def test_construct_tree_from_template(tmp_path, capsys):
    template = tmp_path / "tpl.txt"
    template.write_text("3 1 3\n0 1 3\n1 2 3\n")
    code, out, _ = run(capsys, "construct", "tree", "--template", str(template))
    assert code == 0
    first = out.splitlines()[0]
    assert first == "10 18"

    bad = tmp_path / "bad.txt"
    for text in [
        "3 1 3\n0 1 3\n",  # part 2 has no gluing line
        "",
        "3 1\n",
        "a b c\n",
        "2 1 3\n0 1\n",  # k = 1 wants one slot
        "2 1 3\n0 x 3\n",
        "3 1 3\n0 1 0\n0 1 0\n",  # part 1 has two parents
        "3 1 3\n0 1 0\n0 5 0\n",  # part 5 >= p
        "3 1 3\n2 1 0\n1 2 0\n",  # a cycle among non-root parts
        "2 1 3\n0 1 9\n",  # slot out of 0..3
    ]:
        bad.write_text(text)
        code, _, err = run(capsys, "construct", "tree", "--template", str(bad))
        assert code == 2, text
        assert "error" in json.loads(err), text
    bad.write_text("3 1 3\n0 1 3\n7 2 3\n")
    code, _, err = run(capsys, "construct", "tree", "--template", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "part 2 has parent 7 out of 0..2"


def test_construct_other_kinds(capsys):
    code, out, _ = run(capsys, "construct", "cycle", "--p", "3")
    assert code == 0 and out.splitlines()[0] == "7 7"
    code, out, _ = run(capsys, "construct", "harary", "--m", "4", "--n", "7",
                       "--out-format", "graph6")
    assert code == 0 and out.startswith("F")
    code, out, _ = run(capsys, "construct", "c2", "--k", "4", "--p", "1")
    assert code == 0 and out.splitlines()[0] == "6 15"
    code, _, err = run(capsys, "construct", "c2", "--k", "3", "--p", "1")
    assert code == 2 and "error" in json.loads(err)


def test_construct_refuses_orders_the_parsers_refuse(capsys, monkeypatch):
    # cycle --p 129024 is C_258049, one vertex past what both formats carry,
    # and is refused before it is built. Building C_258047 takes about 4 GB
    # (each adjacency mask is as wide as its largest neighbour), so here the
    # empty graph of the same order stands in for it.
    built = []
    monkeypatch.setattr(cli, "odd_cycle", lambda p: built.append(p) or empty_graph(2 * p + 1))
    for fmt in ("edge-list", "graph6"):
        code, out, err = run(capsys, "construct", "cycle", "--p", "129024",
                             "--out-format", fmt)
        assert code == 2 and out == ""
        assert "258047, got 258049" in json.loads(err)["error"]
    assert built == []
    assert run(capsys, "construct", "cycle", "--p", "129023") == (0, "258047 0\n", "")
    assert built == [129023]


@pytest.mark.parametrize("argv", [
    ("star", "--k", "1", "--p", "100000", "--c", "3"),
    ("cycle", "--p", "129024"),
])
def test_construct_refuses_an_over_limit_order_before_building(argv):
    # The real builds would take seconds and gigabytes; the refusal takes
    # the interpreter's start-up and no more memory than it.
    src = Path(ftclique.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    started = time.monotonic()
    with subprocess.Popen([sys.executable, "-m", "ftclique", "construct", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert time.monotonic() - started < 5.0
    assert proc.returncode == 2 and out == ""
    assert f"stop at n = {MAX_ORDER}" in json.loads(err)["error"]
    assert usage.ru_maxrss < 200 * 1024  # kilobytes on Linux


def test_recognize_command(tmp_path, capsys):
    k7 = tmp_path / "k7.txt"
    k7.write_text(emit_edge_list(complete_graph(7)))
    code, report, _ = run_json(capsys, "recognize", "--p", "2", "--c", "3", str(k7))
    assert code == 1
    assert report["accepted"] is False
    assert "7 vertices" in report["explanation"]

    code, out, _ = run(capsys, "construct", "star", "--k", "1", "--p", "2", "--c", "3")
    star = tmp_path / "star.txt"
    star.write_text(out)
    code, report, _ = run_json(capsys, "recognize", "--p", "2", "--c", "3", str(star))
    assert code == 0
    assert report["accepted"] is True


def test_audit_command(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "star", "--k", "1", "--p", "2", "--c", "3")
    star = tmp_path / "star.txt"
    star.write_text(out)
    code, report, _ = run_json(capsys, "audit", "--k", "1", "--p", "2",
                               "--c", "3", str(star))
    assert code == 0
    assert report["passed"] is True
    assert report["basic"]["passed"] is True
    assert report["low_degree"]["passed"] is True
    assert [s["vertices"] for s in report["separators"]] == [[0]]

    code, report, _ = run_json(capsys, "audit", "--k", "1", "--p", "2",
                               "--c", "3", "--separator", "0", str(star))
    assert code == 0
    assert report["separator"]["passed"] is True
    assert report["basic"] is None

    # premise violation: wrong order
    k4 = tmp_path / "k4.txt"
    k4.write_text(emit_edge_list(complete_graph(4)))
    code, _, err = run(capsys, "audit", "--k", "1", "--p", "2", "--c", "3", str(k4))
    assert code == 2
    assert "error" in json.loads(err)


def test_audit_failure_exit(tmp_path, capsys):
    c7 = tmp_path / "c7.txt"
    c7.write_text(emit_edge_list(cycle_graph(7)))
    code, report, _ = run_json(capsys, "audit", "--k", "1", "--p", "2",
                               "--c", "3", str(c7))
    assert code == 1
    assert report["passed"] is False


def test_audit_with_k_at_least_c_skips_the_separator_audits(tmp_path, capsys):
    # star(3,2,3) is accepted and its hub is a size-3 separator; the split
    # statements need k < c, so the full audit reports no separator list
    for name, graph in [("star", star_construction(3, 2, 3)), ("k9", complete_graph(9))]:
        path = tmp_path / f"{name}.txt"
        path.write_text(emit_edge_list(graph))
        code, _, _ = run(capsys, "verify", "--k", "3", "--p", "2", "--c", "3", str(path))
        assert code == 0
        code, report, _ = run_json(capsys, "audit", "--k", "3", "--p", "2",
                                   "--c", "3", str(path))
        assert code == 0, name
        assert report["passed"] is True
        assert report["basic"]["passed"] and report["low_degree"]["passed"]
        assert report["separators"] is None

    code, _, err = run(capsys, "audit", "--k", "3", "--p", "2", "--c", "3",
                       "--separator", "0,1,2", str(tmp_path / "star.txt"))
    assert code == 2
    assert "k < c" in json.loads(err)["error"]


def test_audit_over_the_sweep_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "k63.txt"
    path.write_text(emit_edge_list(complete_graph(63)))
    code, out, err = run(capsys, "audit", "--k", "3", "--p", "20", "--c", "3", str(path))
    assert code == 2
    assert out == ""
    assert "cap" in json.loads(err)["error"]


def test_audit_sweeps_the_k_subsets_once(tmp_path, capsys, monkeypatch):
    chordal = tree_of_cliques(2, 4, TreeTemplate.path(6, 2, 4))
    # two disjoint non-edges among the root's own vertices close the
    # chordless cycle 0-2-1-3, so its separators need the sweep
    swept = Graph(chordal.n, [e for e in chordal.edges() if e not in ((0, 1), (2, 3))])
    calls = []
    original = audit_module.component_masks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(audit_module, "component_masks", counted)
    # the root's vertices of the second graph fall below the degree floor
    for graph, exit_code in ((chordal, 0), (swept, 1)):
        separators = size_k_separators(graph, 2)
        path = tmp_path / "graph.txt"
        path.write_text(emit_edge_list(graph))
        audit_module._separations.cache_clear()
        calls.clear()
        code, report, _ = run_json(capsys, "audit", "--k", "2", "--p", "6", "--c", "4",
                                   str(path))
        assert code == exit_code
        assert [tuple(s["vertices"]) for s in report["separators"]] == separators != []
        # one search for the separators, then one split per separator audit:
        # the chordal graph splits only at its adhesions, the other sweeps
        # all k-subsets
        search = len(separators) if graph is chordal else comb(graph.n, 2)
        assert len(calls) == search + len(separators)
    assert size_k_separators(chordal, 2) == [(4, 5), (8, 9), (12, 13), (16, 17), (20, 21)]


def test_search_min_with_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    # (1,2,3) yields 3 graphs, so one graph stops it mid-unit
    code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                               "--c", "3", "--budget-graphs", "1",
                               "--state", str(state))
    assert code == 2
    assert report["resume"] is not None
    assert json.loads(state.read_text())["unit"] == report["resume"]["unit"]

    hops = 0
    while code == 2:
        code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                                   "--c", "3", "--budget-graphs", "1200",
                                   "--state", str(state))
        hops += 1
        assert hops < 100
    assert code == 0
    assert report["minimum_found"] == 12
    finished = json.loads(state.read_text())
    assert finished["status"] == "complete" and finished["unit"] is None

    # a completed state file replays without searching again
    code, replay, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                               "--c", "3", "--state", str(state))
    assert code == 0
    assert replay["minimum_found"] == 12 and replay["exhaustive"] is True
    assert replay["exemplars"] == report["exemplars"]
    assert replay["graphs_examined"] == report["graphs_examined"]
    assert replay["stats"]["labeled_graphs"] == 0
    assert json.loads(state.read_text()) == finished


@pytest.mark.parametrize("argv,error", [
    (("--k", "2", "--p", "2", "--c", "3"), "resume token belongs to different parameters"),
    (("--k", "1", "--p", "2", "--c", "3", "--max-edges", "11"),
     "resume token was built for a different max_edges"),
], ids=["other-parameters", "other-max-edges"])
def test_completed_state_replays_only_its_own_search(tmp_path, capsys, argv, error):
    # the (1,2,3) result (minimum 12) must not stand in for (2,2,3) (minimum 19)
    state = tmp_path / "state.json"
    code, _, _ = run(capsys, "search-min", "--k", "1", "--p", "2", "--c", "3",
                     "--state", str(state))
    assert code == 0
    assert json.loads(state.read_text())["status"] == "complete"
    code, out, err = run(capsys, "search-min", *argv, "--state", str(state))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


def test_a_failed_state_write_keeps_the_old_state(tmp_path, capsys, monkeypatch):
    # the state is written to a temporary file and moved over the old one,
    # so a write that fails leaves the old state's bytes and no stray file
    state = tmp_path / "state.json"
    hop = ("search-min", "--k", "2", "--p", "2", "--c", "3", "--budget-graphs", "2",
           "--state", str(state))
    assert run(capsys, *hop)[0] == 2
    before = state.read_bytes()
    dump = json.dump

    def failing_dump(obj, fh, **kwargs):
        if fh is not sys.stdout and fh is not sys.stderr:
            raise OSError("No space left on device")
        return dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", failing_dump)
    code, out, err = run(capsys, *hop)
    assert code == 2
    assert out == ""
    assert "No space left" in json.loads(err)["error"]
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_deeply_nested_state_is_a_usage_error(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text("[" * 200_000)
    code, out, err = run(capsys, "search-min", "--k", "1", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "nested" in json.loads(err)["error"]


def test_search_min_huge_max_edges(capsys):
    # the (m, d0) units up to max_edges are walked, not listed
    code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2", "--c", "3",
                               "--max-edges", str(10 ** 9))
    assert code == 0
    assert report["minimum_found"] == 12
    assert report["exhaustive"] is True
    assert report["resume"] is None


def _completed_223_state(tmp_path, capsys):
    state = tmp_path / "done.json"
    code, _, _ = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                     "--state", str(state))
    assert code == 0
    return json.loads(state.read_text())


def _best_graph(stored):
    (n, code), = stored["best_certs"]
    return canonical_graph(CanonicalForm(n, int(code, 16)))


def _swap_in_a_rejected_exemplar(stored):
    # move one edge of the accepted (2,2,3) graph: still 19 edges on 8
    # vertices and canonical, so only the verify check can reject it
    graph = _best_graph(stored)
    u, v = graph.edges()[0]
    w = next(w for w in range(graph.n) if w != u and not graph.has_edge(u, w))
    moved = [e for e in graph.edges() if e != (u, v)] + [(min(u, w), max(u, w))]
    code = emit_graph6(canonical_graph(canonical_form(Graph(graph.n, moved)))).strip()
    assert parse_graph6(code).edge_count == 19
    assert not verify_ft(parse_graph6(code), FTParams(2, 2, 3)).holds
    cert = canonical_form(parse_graph6(code))
    stored["best_certs"] = [[cert.n, format(cert.code, "x")]]
    return stored


def _not_exhaustive(stored):
    # marked complete, yet it still owes a unit
    stored["unit"] = [19, 4]
    return stored


def _complete_with_after(stored):
    # marked complete, yet it still names a graph of an unfinished unit
    stored["after"] = emit_graph6(_best_graph(stored)).strip()
    return stored


# A version-5 token whose best class verify_ft rejects (GJm}nS): it must
# not resume to an exhaustive minimum of 19 with that graph as exemplar.
FORGED_TOKEN = {"version": 5, "enumerator": "lex-slots/degree-floor-d0/tight-closure",
                "k": 2, "p": 2, "c": 3, "max_edges": 19, "unit": [19, 7], "best_m": 19,
                "best_certs": [[8, "b5ef9f8"]], "graphs_examined": 0, "after": None,
                "seen_certs": [[8, "b5ef9f8"]]}


@pytest.mark.parametrize("stored", [
    {"k": 2, "p": 2},
    [1, 2],
    {"status": "complete"},
    {"status": "complete", "report": {"k": 2, "p": 2, "c": 3, "minimum_found": 3,
                                      "exhaustive": True, "exemplars": ["Gzzzzz"]}},
    _swap_in_a_rejected_exemplar,
    _not_exhaustive,
    _complete_with_after,
    FORGED_TOKEN,
], ids=["missing-keys", "not-an-object", "complete-without-report",
        "forged-report", "rejected-exemplar", "not-exhaustive", "complete-with-after",
        "forged-token"])
def test_search_min_rejects_malformed_state(tmp_path, capsys, stored):
    if callable(stored):  # a tampered copy of a genuine finished token
        stored = stored(_completed_223_state(tmp_path, capsys))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(stored))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("seconds", ["nan", "0", "-2"])
def test_search_min_rejects_seconds_budgets_that_are_not_positive(capsys, seconds):
    code, out, err = run(capsys, "search-min", "--k", "1", "--p", "2", "--c", "3",
                         "--budget-seconds", seconds)
    assert code == 2
    assert out == ""
    assert "seconds budget" in json.loads(err)["error"]


def _interrupted_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    # (2,2,3) yields 6 graphs, all in unit (19, 4)
    code, _, _ = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                     "--budget-graphs", "2", "--state", str(state))
    assert code == 2
    return state, json.loads(state.read_text())


def test_search_min_rejects_empty_pending(tmp_path, capsys):
    # an empty unit names no pending work; it must not replay as an
    # exhaustive search that found nothing, for a minimum of 19
    state, stored = _interrupted_state(tmp_path, capsys)
    state.write_text(json.dumps({**stored, "unit": []}))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "unit" in json.loads(err)["error"]


def test_search_min_rejects_unversioned_state(tmp_path, capsys):
    state, stored = _interrupted_state(tmp_path, capsys)
    del stored["version"]
    state.write_text(json.dumps(stored))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert "version" in json.loads(err)["error"]


@pytest.mark.parametrize("fault", [
    "wrong-order", "wrong-edge-count", "other-first-neighborhood",
    "degree-below-d0", "open-tight-closure", "malformed-graph6", "number",
])
def test_search_min_rejects_an_after_graph_outside_its_unit(tmp_path, capsys, fault):
    state, stored = _interrupted_state(tmp_path, capsys)
    after = bad_resume_afters(stored["after"], stored["unit"][1], 4)[fault]
    state.write_text(json.dumps({**stored, "after": after}))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "after" in json.loads(err)["error"]


def test_search_min_rejects_a_version_3_state(tmp_path, capsys):
    # version 3 counted the unit's graphs already examined (unit_offset)
    state, stored = _interrupted_state(tmp_path, capsys)
    del stored["after"]
    state.write_text(json.dumps({**stored, "version": 3, "unit_offset": 2}))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "afresh" in json.loads(err)["error"]


def test_search_min_rejects_a_version_4_state(tmp_path, capsys):
    # version 4 named a graph of the stream before open tight closures
    # were cut, and carried no seen classes
    state, stored = _interrupted_state(tmp_path, capsys)
    del stored["seen_certs"]
    state.write_text(json.dumps({**stored, "version": 4,
                                 "enumerator": "lex-slots/degree-floor-d0"}))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "afresh" in json.loads(err)["error"]


@pytest.mark.parametrize("k,p", [(1, 20), (0, 24)], ids=["order-41", "order-48"])
def test_search_min_refuses_orders_above_the_limit(capsys, k, p):
    code, out, err = run(capsys, "search-min", "--k", str(k), "--p", str(p), "--c", "2",
                         "--budget-graphs", "1")
    assert code == 2
    assert out == ""
    assert "order <= 40" in json.loads(err)["error"]


def test_search_min_without_state(capsys):
    code, report, _ = run_json(capsys, "search-min", "--k", "2", "--p", "1", "--c", "3")
    assert code == 0
    assert report["minimum_found"] == 10
    assert report["exhaustive"] is True
    assert report["stats"]["accepted"] == 1


def test_props_command(tmp_path, capsys):
    c7 = tmp_path / "c7.txt"
    c7.write_text(emit_edge_list(cycle_graph(7)))
    code, report, _ = run_json(capsys, "props", str(c7))
    assert code == 0
    assert report["n"] == 7 and report["m"] == 7
    assert report["vertex_connectivity"] == 2
    assert report["edge_connectivity"] == 2
    assert report["chordal"] is False
    assert len(report["chordless_cycle"]) >= 4
    assert report["blocks"] == [[0, 1, 2, 3, 4, 5, 6]]

    k4 = tmp_path / "k4.txt"
    k4.write_text(emit_edge_list(complete_graph(4)))
    code, report, _ = run_json(capsys, "props", str(k4))
    assert report["chordal"] is True
    assert report["clique_parts"] == [[0, 1, 2, 3]]


def test_props_runs_flows_and_the_block_split_only_on_non_chordal_graphs(
        tmp_path, capsys, monkeypatch):
    conn = importlib.import_module("ftclique.connectivity")
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(name) or original(*args))

    counted(conn, "vertex_connectivity")
    counted(conn, "edge_connectivity")
    counted(cli, "blocks")
    chain = relabeled(tree_of_cliques(1, 3, TreeTemplate.path(4, 1, 3)),
                      [(5 * v + 3) % 13 for v in range(13)])
    for graph, expected in ((chain, ["edge_connectivity"]),
                            (star_construction(2, 1, 3), []),
                            (cycle_graph(7), ["vertex_connectivity", "blocks"])):
        path = tmp_path / "graph.txt"
        path.write_text(emit_edge_list(graph))
        calls.clear()
        code, report, _ = run_json(capsys, "props", str(path))
        assert code == 0 and calls == expected
        assert report["vertex_connectivity"] == vertex_connectivity(graph)
        assert report["edge_connectivity"] == edge_connectivity(graph)
        assert (report["blocks"], report["cutvertices"]) == (
            [list(b) for b in blocks(graph).blocks], list(blocks(graph).cutvertices))


def test_malformed_input_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 9\n0 1\n")
    code, _, err = run(capsys, "verify", "--k", "1", "--p", "1", "--c", "3", str(bad))
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ("verify", "--k", "1", "--p", "1", "--c", "3"),
    ("pack", "--p", "1", "--c", "3"),
    ("recognize", "--p", "1", "--c", "3"),
    ("audit", "--k", "1", "--p", "1", "--c", "3"),
    ("props",),
], ids=lambda argv: argv[0])
def test_huge_order_header_is_a_usage_error(tmp_path, capsys, argv):
    # the order is checked before a billion-entry adjacency list is allocated
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert "exceeds" in json.loads(err)["error"]


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "props", "/nonexistent/file.txt")
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("flag,value,name", [
    ("--jobs", "0", "jobs"),
    ("--jobs", "-3", "jobs"),
    ("--witnesses", "-1", "max_witnesses"),
])
def test_verify_rejects_bad_jobs_and_witnesses(tmp_path, capsys, flag, value, name):
    path = tmp_path / "k4.txt"
    path.write_text(emit_edge_list(complete_graph(4)))
    code, out, err = run(capsys, "verify", "--k", "1", "--p", "1", "--c", "3",
                         flag, value, str(path))
    assert code == 2
    assert out == ""
    assert name in json.loads(err)["error"]


def test_verify_jobs_default_to_the_usable_cores(tmp_path, capsys, monkeypatch):
    # the default is read each time verify runs, not once with the parser
    path = tmp_path / "k4.txt"
    path.write_text(emit_edge_list(complete_graph(4)))
    real = cli.verify_ft
    seen = []

    def capture(graph, params, *, max_witnesses, jobs):
        seen.append(jobs)
        return real(graph, params, max_witnesses=max_witnesses)

    monkeypatch.setattr(cli, "verify_ft", capture)
    argv = ("verify", "--k", "1", "--p", "1", "--c", "3", str(path))
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        assert run(capsys, *argv)[0] == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert run(capsys, *argv)[0] == 0
    assert seen == [1, 3, 5]


def test_worker_value_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def raising(graph, p, c, allowed=None):
        raise ValueError("packer failed")

    monkeypatch.setattr(verify_module, "_PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(verify_module, "find_disjoint_cliques", raising)
    path = tmp_path / "k4.txt"
    path.write_text(emit_edge_list(complete_graph(4)))
    code, out, err = run(capsys, "verify", "--k", "1", "--p", "1", "--c", "3",
                         "--jobs", "2", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "packer failed"}


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _subprocess(argv):
    src = Path(ftclique.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "ftclique", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def _without_elapsed(result):
    # search-min reports its own running time
    code, out, err = result
    report = json.loads(out)
    del report["elapsed_seconds"]
    return code, report, err


def test_reused_parser_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # usage lines wrap at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    star = tmp_path / "star.txt"
    star.write_text(emit_edge_list(star_construction(1, 2, 3)))
    params = ("--k", "1", "--p", "2", "--c", "3")
    sequence = [
        ["verify", *params, "--witnesses", "16", str(star)],
        ["verify", *params, str(star)],
        ["pack", "--p", "2", "--c", "3", str(star)],
        ["audit", *params, str(star)],
        ["props", str(star)],
        ["construct", "star", *params],
        ["verify", "--k", "x", "-"],
    ]
    cli._build_parser.cache_clear()
    for argv in sequence:
        assert _in_process(capsys, argv) == _subprocess(argv), argv

    # (2,2,3) yields 6 graphs, so hops of 2 stop and resume; once the search
    # completes, one more call replays the completed state
    hop = ["search-min", "--k", "2", "--p", "2", "--c", "3", "--budget-graphs", "2",
           "--state"]

    def search_hop():
        here = _without_elapsed(_in_process(capsys, [*hop, str(tmp_path / "here.json")]))
        assert here == _without_elapsed(_subprocess([*hop, str(tmp_path / "there.json")]))
        return here[0]

    codes = [search_hop()]
    while codes[-1] == 2 and len(codes) < 10:
        codes.append(search_hop())
    codes.append(search_hop())
    assert len(codes) > 2 and codes[-2:] == [0, 0]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(sequence) + len(codes) - 1)


def _pin_inputs(tmp_path):
    """Star and path constructions with k <= 3, p <= 4, c in {3, 4}, each
    native and under one seeded relabeling, each of those with and without
    one seeded edge dropped; every other file is graph6."""
    rng = random.Random("cli-pin")
    inputs = []
    for k in (1, 2, 3):
        for p in range(1, 5):
            for c in (3, 4):
                for shape in ("star", "path"):
                    plan = TreeTemplate.star(p, k) if shape == "star" \
                        else TreeTemplate.path(p, k, c)
                    native = tree_of_cliques(k, c, plan)
                    perm = list(range(native.n))
                    rng.shuffle(perm)
                    for label, graph in (("native", native),
                                         ("relabeled", relabeled(native, perm))):
                        drop = rng.choice(graph.edges())
                        dropped = Graph(graph.n, [e for e in graph.edges() if e != drop])
                        for variant, g in ((label, graph), (f"{label}-drop", dropped)):
                            name = f"{shape}-{k}-{p}-{c}-{variant}"
                            if len(inputs) % 2:
                                path = tmp_path / f"{name}.g6"
                                path.write_text(emit_graph6(g))
                            else:
                                path = tmp_path / f"{name}.txt"
                                path.write_text(emit_edge_list(g))
                            inputs.append((k, p, c, g, str(path)))
    return inputs


def _pin_corpus(tmp_path):
    argvs = []
    for k, p, c, graph, path in _pin_inputs(tmp_path):
        params = ["--k", str(k), "--p", str(p), "--c", str(c)]
        argvs.append(["verify", *params, "--jobs", "1", path])
        argvs.append(["verify", *params, "--jobs", "1", "--witnesses", "3", path])
        argvs.append(["pack", "--p", str(p), "--c", str(c), path])
        argvs.append(["pack", "--p", str(p + 1), "--c", str(c), path])
        if k == 1:
            argvs.append(["recognize", "--p", str(p), "--c", str(c), path])
        argvs.append(["audit", *params, path])
        separators = size_k_separators(graph, k) if k < c else []
        if separators:
            sep = ",".join(map(str, separators[0]))
            argvs.append(["audit", *params, "--separator", sep, path])
        argvs.append(["props", path])

    star = str(tmp_path / "star-1-2-3-native.txt")
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("3 2\n0 1\n1 x\n")
    non_ascii = tmp_path / "non-ascii.txt"
    non_ascii.write_bytes("3 1\n0 1\u00e9\n".encode("utf-8"))
    template = tmp_path / "template.txt"
    template.write_text("4 2 3\n0 1 0 1\n0 2 3 4\n1 3 2 4\n")
    two_parents = tmp_path / "two-parents.txt"
    two_parents.write_text("3 2 3\n0 1 0 1\n0 1 3 4\n")
    argvs += [
        ["verify", "--k", "1", "--p", "2", "--c", "3", str(malformed)],
        ["props", str(non_ascii)],
        ["pack", "--p", "2", "--c", "3", str(tmp_path / "missing.txt")],
        ["pack", "--p", "0", "--c", "3", star],
        ["audit", "--k", "1", "--p", "2", "--c", "3", "--separator", "x", star],
        ["verify", "--k", "1", "--p", "2", "--c", "3", "--jobs", "0", star],
        # the graph is read before the parameters are checked
        ["verify", "--k", "1", "--p", "2", "--c", "3", "--jobs", "0", str(malformed)],
        ["pack", "--p", "0", "--c", "3", str(tmp_path / "missing.txt")],
        ["recognize", "--p", "0", "--c", "3", str(non_ascii)],
    ]
    for fmt in ("edge-list", "graph6"):
        for kind in (["star", "--k", "2", "--p", "3", "--c", "3"],
                     ["tree", "--template", str(template)],
                     ["tree", "--template", str(two_parents)],
                     ["cycle", "--p", "4"],
                     ["harary", "--m", "5", "--n", "9"],
                     ["c2", "--k", "4", "--p", "1"]):
            argvs.append(["construct", *kind, "--out-format", fmt])
    return argvs


# sha256 of every (argv, exit code, stdout, stderr) of the corpus above, with
# the temporary directory replaced: any change to the bytes the CLI writes or
# to its exit codes changes it.
_PIN_DIGEST = "90ab01bb6ad25e5fc9faa8f15e58903a77e3c97aed945cb24a254cbf5df30212"


def test_cli_output_is_pinned(tmp_path, capsys):
    records = []
    for argv in _pin_corpus(tmp_path):
        code, out, err = _in_process(capsys, argv)
        records.append([" ".join(argv), code, out, err])
    text = json.dumps(records).replace(str(tmp_path), "TMP")
    assert len(records) > 1000
    assert hashlib.sha256(text.encode()).hexdigest() == _PIN_DIGEST
