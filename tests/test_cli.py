"""End-to-end command-line behavior: exit codes, JSON reports, pipelines."""

import json
import os

import pytest

from ftclique import complete_graph, cycle_graph, emit_edge_list, emit_graph6
from ftclique import verify as verify_module
from ftclique.cli import _build_parser, main


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
                               "--c", "3", "--witnesses", "2",
                               "--format", "graph6", str(path))
    assert code == 0
    assert len(report["witnesses"]) == 2
    assert report["witnesses"]["0"] == [[1, 2, 3]]


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
    bad.write_text("3 1 3\n0 1 3\n")
    code, _, err = run(capsys, "construct", "tree", "--template", str(bad))
    assert code == 2
    assert "error" in json.loads(err)


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


def test_search_min_with_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                               "--c", "3", "--budget-graphs", "40",
                               "--state", str(state))
    assert code == 2
    assert report["resume"] is not None
    assert json.loads(state.read_text())["pending"]

    hops = 0
    while code == 2:
        code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                                   "--c", "3", "--budget-graphs", "1200",
                                   "--state", str(state))
        hops += 1
        assert hops < 100
    assert code == 0
    assert report["minimum_found"] == 12
    assert json.loads(state.read_text())["status"] == "complete"

    # a completed state file replays without searching again
    code, report, _ = run_json(capsys, "search-min", "--k", "1", "--p", "2",
                               "--c", "3", "--state", str(state))
    assert code == 0
    assert report["minimum_found"] == 12


@pytest.mark.parametrize("stored", [
    {"k": 2, "p": 2},
    [1, 2],
    {"status": "complete"},
], ids=["missing-keys", "not-an-object", "complete-without-report"])
def test_search_min_rejects_malformed_state(tmp_path, capsys, stored):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(stored))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def _interrupted_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    code, _, _ = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                     "--budget-graphs", "600", "--state", str(state))
    assert code == 2
    return state, json.loads(state.read_text())


def test_search_min_rejects_empty_pending(tmp_path, capsys):
    # an empty unit list used to replay as an exhaustive search that
    # found nothing, for parameters whose minimum is 19
    state, stored = _interrupted_state(tmp_path, capsys)
    state.write_text(json.dumps({**stored, "pending": []}))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert out == ""
    assert "pending" in json.loads(err)["error"]


def test_search_min_rejects_unversioned_state(tmp_path, capsys):
    state, stored = _interrupted_state(tmp_path, capsys)
    del stored["version"]
    state.write_text(json.dumps(stored))
    code, out, err = run(capsys, "search-min", "--k", "2", "--p", "2", "--c", "3",
                         "--state", str(state))
    assert code == 2
    assert "version" in json.loads(err)["error"]


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


def test_malformed_input_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 9\n0 1\n")
    code, _, err = run(capsys, "verify", "--k", "1", "--p", "1", "--c", "3", str(bad))
    assert code == 2
    assert "error" in json.loads(err)


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


def test_verify_jobs_default_to_the_usable_cores():
    args = _build_parser().parse_args(["verify", "--k", "1", "--p", "1", "--c", "3"])
    if hasattr(os, "sched_getaffinity"):
        assert args.jobs == len(os.sched_getaffinity(0))
    else:
        assert args.jobs == (os.cpu_count() or 1)


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
