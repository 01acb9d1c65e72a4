"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    NOMINAL_LOOP_S,
    SLOT,
    HostClock,
    Runner,
    import_fresh,
    run_pass,
    run_workload,
)
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    AuditWorkload,
    SearchWorkload,
    VerifyFailWorkload,
    VerifyPassWorkload,
)


def small_workloads():
    """Each workload at a size that runs in about a second."""
    return [
        SearchWorkload(k=1, p=2, c=3, minimum=12, budget=600),
        VerifyPassWorkload(families=(("star", 2, 4, 3, 4), ("path", 2, 3, 4, 3),
                                     ("star", 2, 4, 3, 3)), relabelings=1, witnesses=4),
        VerifyFailWorkload(families=(("star", 2, 3, 3), ("path", 2, 3, 4))),
        AuditWorkload(families=(("path", 1, 4, 3), ("star", 2, 4, 3)), relabelings=1),
    ]


@pytest.fixture
def ft():
    return import_fresh(SRC)


def prepared(workload, ft, seed, directory):
    directory.mkdir(parents=True, exist_ok=True)
    workload.prepare(ft, seed, directory)
    if isinstance(workload, AuditWorkload):
        # Freeze the small families from one honest pass, as freeze.py does.
        workload.frozen = workload.freeze(Runner(ft))
    return workload


@pytest.mark.parametrize("index", range(4), ids=[w.name for w in small_workloads()])
def test_honest_pass_has_no_failures(ft, tmp_path, index):
    workload = prepared(small_workloads()[index], ft, 3, tmp_path)
    runner = Runner(ft)
    records = run_pass(workload, runner)
    assert records and runner.failures == {}
    assert {r.group for r in records} == {"base", "variant"}


def _off_by_one(real):
    def verify_ft(graph, params, **kwargs):
        verdict = real(graph, params, **kwargs)
        return dataclasses.replace(verdict, witness_count=verdict.witness_count - 1)
    return verify_ft


@pytest.mark.parametrize("index", [1, 2], ids=["verify-pass", "verify-fail"])
def test_corrupted_answer_is_a_failed_op(ft, tmp_path, monkeypatch, index):
    workload = prepared(small_workloads()[index], ft, 3, tmp_path)
    monkeypatch.setattr(ft.cli, "verify_ft", _off_by_one(ft.cli.verify_ft))
    runner = Runner(ft)
    records = run_pass(workload, runner)
    assert set(runner.failures) == {r.op for r in records}


def test_corrupted_search_and_audit_answers_fail(ft, tmp_path, monkeypatch):
    search, _, _, audit = small_workloads()
    prepared(search, ft, 3, tmp_path / "search")
    prepared(audit, ft, 3, tmp_path / "audit")
    real_search = ft.cli.search_minimum

    def one_edge_short(*args, **kwargs):
        report = real_search(*args, **kwargs)
        if report.minimum_found is None:
            return report
        return dataclasses.replace(report, minimum_found=report.minimum_found - 1)

    monkeypatch.setattr(ft.cli, "search_minimum", one_edge_short)
    monkeypatch.setattr(ft.cli, "recognize_min_1ft",
                        lambda graph, p, c: ft.audit.RecognitionResult(False, "corrupted"))
    runner = Runner(ft)
    search_records = run_pass(search, runner)
    audit_records = run_pass(audit, runner)
    assert search_records[0].op in runner.failures
    assert search_records[-1].op in runner.failures
    recognize = [r.op for r in audit_records if r.meta["kind"] == "recognize"]
    assert recognize and set(recognize) <= set(runner.failures)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_exception_in_the_program_is_a_failed_op(ft, tmp_path, monkeypatch, traced):
    workload = prepared(small_workloads()[1], ft, 3, tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(ft.verify, "find_disjoint_cliques", boom)
    runner = Runner(ft, Tracer() if traced else None)
    records = run_pass(workload, runner)
    assert set(runner.failures) == {r.op for r in records}
    assert "RuntimeError: injected" in runner.failures[records[-1].op]
    if traced:
        assert all(s is not None for s in runner.tracer.spans)
        assert any(s[0] == "packing.find_disjoint_cliques" for s in runner.tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(ft, tmp_path, name):
    def files(seed, directory):
        directory.mkdir()
        inputs = WORKLOADS[name]().prepare(ft, seed, directory)
        return {inp.path.name: inp.path.read_bytes() for inp in inputs}

    first = files(7, tmp_path / "a")
    assert files(7, tmp_path / "b") == first
    if name != "search-223":  # the search has no seeded inputs
        assert first and any(files(s, tmp_path / f"s{s}") != first for s in (8, 9, 10))


@pytest.mark.parametrize("index", range(4), ids=[w.name for w in small_workloads()])
def test_traced_and_untraced_runs_give_identical_answers(ft, tmp_path, index):
    workload = prepared(small_workloads()[index], ft, 3, tmp_path)
    plain = Runner(ft)
    run_pass(workload, plain)
    traced = Runner(ft, Tracer())
    run_pass(workload, traced)
    assert plain.failures == {} and traced.failures == {}
    def answers(records):
        # search-min reports its own elapsed time, which is not an answer
        return [(r.group, r.argv, r.rc, {k: v for k, v in r.answer.items() if k != "elapsed_seconds"})
                for r in records]

    assert answers(r for r in traced.records if r.traced) == answers(plain.records)
    assert traced.tracer.spans and all(s is not None for s in traced.tracer.spans)
    # The tracer put every original attribute back.
    assert ft.cli.verify_ft.__module__ == "ftclique.verify"
    assert ft.graphs.Graph.remove_vertices.__qualname__ == "Graph.remove_vertices"


def test_run_reports_every_metric_and_records_inputs(tmp_path):
    workload = small_workloads()[1]
    out = io.StringIO()
    bench = tmp_path / "checkout"
    (bench / "bench").mkdir(parents=True)
    (bench / "src").symlink_to(SRC)
    result = run_workload(workload, 4, 0.0, False, bench, out=out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    manifest = json.loads((bench / "bench" / "_work" / "verify-pass-s4" / "manifest.json").read_text())
    assert manifest["seed"] == 4 and len(manifest["inputs"]) == len(workload.inputs)

    traced = run_workload(small_workloads()[1], 4, 0.0, True, bench, out=out)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(traced["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])


def test_host_clock_scales_by_loop_time_and_drops_its_own_cost():
    clock = HostClock()
    # Loops at twice the nominal CPU time, every 0.02 s.
    ends, cpus = clock.series[False]
    for i in range(40):
        ends.append(0.02 * (i + 1))
        cpus.append(2 * NOMINAL_LOOP_S)
    # 0.5 s holds 25 loops; of 0.49 s of CPU, 0.46 s is the program's, at half speed.
    assert clock.seconds(0.301, 0.801, 0.49) == pytest.approx(0.46 / 2)
    # A span with no loop inside takes the speed of the loops before it.
    assert clock.seconds(0.8101, 0.8111, 0.001) == pytest.approx(0.0005)
    # Pooled calls take their speed from the loops run during pooled calls only.
    clock.series[True][0].append(0.9)
    clock.series[True][1].append(4 * NOMINAL_LOOP_S)
    assert clock.seconds(0.95, 0.96, 0.001, pooled=True) == pytest.approx(0.00025)


def test_pool_workers_report_their_cpu_time_at_exit():
    from concurrent.futures import ProcessPoolExecutor

    with HostClock() as clock:
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert sum(pool.map(sum, [range(200_000)] * 4)) > 0
    slots = [SLOT.unpack_from(clock.shared, fork * SLOT.size)[0]
             for fork in range(1, clock.forks + 1)]
    assert len(slots) == 2 and all(cpu > 0 for cpu in slots)
    assert clock.worker_cpu(0) == max(slots) and clock.worker_cpu(2) == 0.0
