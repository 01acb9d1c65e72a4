"""Runs one workload: set-up, timed passes, answer checks, metrics.

A pass runs the workload's base group and then its variant group, one
call at a time through `ftclique.cli.main(argv)` in this process (a closed
loop with one client). Passes repeat while another one fits in the run's
seconds. A group's time is the sum over its calls of each call's median
time across passes; JSON parsing and answer checks happen outside the
timed calls. Every time is CPU time on the call's critical path,
corrected for the host's speed by HostClock.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import mmap
import multiprocessing.util
import os
import resource
import signal
import statistics
import struct
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import perf_counter, process_time, thread_time
from types import SimpleNamespace

from tracer import SpanIndex, Tracer

SETUP_REPS = 15
MODULES = ("audit", "blocks", "canon", "chordal", "cli", "connectivity", "construct",
           "formats", "graphs", "packing", "search", "verify")

def import_fresh(src: Path) -> SimpleNamespace:
    """Import ftclique's modules from src, dropping any copy imported before.

    Modules are returned by name: the package namespace itself cannot be
    used, because `ftclique.blocks` and `ftclique.connectivity` there are
    the functions of those names, not the modules.
    """
    for name in [m for m in sys.modules if m == "ftclique" or m.startswith("ftclique.")]:
        del sys.modules[name]
    ft = SimpleNamespace(**{m: importlib.import_module(f"ftclique.{m}") for m in MODULES})
    where = Path(ft.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"ftclique was imported from {where}, not from {src}")
    return ft


TICK_S = 0.02
LOOP_ROUNDS = 300
NOMINAL_LOOP_S = 0.0006
LOOKBACK_LOOPS = 25
SLOTS = 256
SLOT = struct.Struct("d")  # a pool worker's CPU time when it exits


def _low_bits(x: int, mask: int) -> int:
    return (x & mask).bit_count() + (x >> 3)


def calibration_loop() -> int:
    """Fixed pure-Python work with the operations ftclique's layers use:
    int arithmetic, bit masks, calls, list slices, tuple keys, small sorts."""
    total, word, window, counts = 0, 1, [], {}
    for i in range(LOOP_ROUNDS):
        total += (i * 2654435761) & 1023
        window.append(_low_bits(i * 40503, 0x5555))
        if len(window) > 32:
            window = window[16:]
        key = (i & 15, i >> 4)
        counts[key] = counts.get(key, 0) + 1
        total += len(sorted((i % 7, i % 5, i % 3)))
        word = (word << 1 | 1) & 0xFFFFFFFFFFFFFFFF
        total ^= (word & -word).bit_length()
    return total


class HostClock:
    """CPU time on a call's critical path, corrected for the speed of a shared host.

    A span is timed by CPU time, not wall time: on a shared host the time a
    process waits for a core measures the other tenants, not the program.
    For this package's CPU-bound calls the two agree on an idle machine.

    On a shared virtual machine the same pure-Python work can also run up
    to 1.5x slower for a few seconds at a time, whatever the program does.
    So while the clock runs, a timer signal runs calibration_loop every
    TICK_S seconds in this process, between the program's bytecodes, and
    records the loop's CPU time. A span's time is its CPU time less the
    loops run inside it, times NOMINAL_LOOP_S over the mean time of the
    loops run inside it and of the LOOKBACK_LOOPS loops before it: seconds
    at the speed at which the loop takes NOMINAL_LOOP_S. Extra work in the
    program still shows in full; the loop's own cost, about 3% of a core,
    is taken out.

    A call that uses a process pool has a critical path of this process's
    CPU time in it plus the largest CPU time of its workers. Each worker
    that multiprocessing forks while the clock runs writes its CPU time to
    a slot of shared memory when it exits. Time the workers spend idle,
    waiting for this process or for each other, does not show. Loops run
    during such calls compete with the workers for cores and caches, and
    read slower than loops run alone; so they form a series of their own,
    which corrects pooled calls only.
    """

    def __init__(self):
        # Per series, without and with a process pool: loop end times and CPU times.
        self.series = {pooled: ([], []) for pooled in (False, True)}
        self.pooling = False
        self.forks = 0
        self.shared = mmap.mmap(-1, SLOTS * SLOT.size)
        self._slot = None  # set in a forked worker
        self._previous = None

    def _tick(self, signum, frame):
        cpu = thread_time()
        calibration_loop()
        spent = thread_time() - cpu
        ends, cpus = self.series[self.pooling]
        cpus.append(spent)
        ends.append(perf_counter())

    def _start_in_worker(self):
        """Runs in each process that multiprocessing forks, before its target."""
        if self not in _RUNNING:
            return
        self._slot = self.forks % SLOTS
        SLOT.pack_into(self.shared, self._slot * SLOT.size, 0.0)
        # Runs at the worker's exit, after its last task (exit priority 0 and up).
        multiprocessing.util.Finalize(None, self._finish_in_worker, exitpriority=0)

    def _finish_in_worker(self):
        SLOT.pack_into(self.shared, self._slot * SLOT.size, process_time())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        _RUNNING.append(self)
        multiprocessing.util.register_after_fork(self, HostClock._start_in_worker)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _RUNNING.remove(self)
        signal.signal(signal.SIGALRM, self._previous)

    def worker_cpu(self, forks_before: int) -> float:
        """The largest CPU time of the workers forked after forks_before."""
        return max((SLOT.unpack_from(self.shared, (fork % SLOTS) * SLOT.size)[0]
                    for fork in range(forks_before + 1, self.forks + 1)), default=0.0)

    def seconds(self, start: float, end: float, cpu: float, pooled: bool = False) -> float:
        """Corrected time of the span from start to end (perf_counter values),
        with cpu seconds of CPU time on its critical path."""
        ends, cpus = self.series[pooled]
        inside, stop = bisect_left(ends, start), bisect_right(ends, end)
        loops = cpus[max(0, inside - LOOKBACK_LOOPS):stop]
        own = cpu - sum(cpus[inside:stop])
        if not loops:
            return own
        return own * NOMINAL_LOOP_S / statistics.fmean(loops)

    def slowdown(self) -> float:
        """Median loop time over the nominal one, outside pooled calls so far."""
        cpus = self.series[False][1]
        return statistics.median(cpus) / NOMINAL_LOOP_S if cpus else 0.0


_RUNNING: list[HostClock] = []


def _before_fork() -> None:
    for clock in _RUNNING:
        clock.forks += 1


os.register_at_fork(before=_before_fork)


@dataclass
class OpRecord:
    op: int
    group: str
    argv: list
    meta: dict
    traced: bool
    seconds: float = 0.0  # corrected by HostClock
    cpu: float = 0.0  # critical-path CPU time, uncorrected
    rc: int | None = None
    out: str = ""
    answer: dict | None = None
    error: str | None = None


@dataclass
class Runner:
    """Issues CLI calls, times them, and keeps every op and failure."""

    ft: object
    tracer: Tracer | None = None
    clock: HostClock | None = None
    tracing: bool = False
    records: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)

    def call(self, argv, group, **meta) -> OpRecord:
        rec = OpRecord(len(self.records), group, [str(a) for a in argv], meta, self.tracing)
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.op = rec.op
        out, err = io.StringIO(), io.StringIO()
        pooled = meta.get("jobs", 1) > 1
        if self.clock is not None:
            forks_before = self.clock.forks
            self.clock.pooling = pooled
        start, cpu_start = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec.rc = self.ft.cli.main(rec.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
            rec.error = f"{type(exc).__name__}: {exc}"
        end, cpu = perf_counter(), process_time() - cpu_start
        if self.clock is None:
            rec.seconds = end - start
        else:
            self.clock.pooling = False
            rec.cpu = cpu + self.clock.worker_cpu(forks_before)
            rec.seconds = self.clock.seconds(start, end, rec.cpu, pooled)
        if self.tracer is not None:
            self.tracer.op = None
        rec.out = out.getvalue()
        if rec.error is not None:
            self.fail(rec, rec.error)
        elif rec.out.lstrip().startswith("{"):
            try:
                rec.answer = json.loads(rec.out)
            except ValueError:
                pass  # no answer; the workload's check counts the op as failed
        return rec

    def fail(self, rec: OpRecord, message: str) -> None:
        self.failures.setdefault(rec.op, message)


def run_pass(workload, runner: Runner) -> list:
    """One pass over the workload; returns the timed records of the pass.

    With a tracer, the base group first runs untraced as the reference for
    trace.overhead_ratio, then both groups run traced.
    """
    first = len(runner.records)
    if runner.tracer is not None:
        workload.run(runner, "base")
        runner.tracer.install(runner.ft)
        runner.tracing = True
        try:
            workload.run(runner, "base")
            workload.run(runner, "variant")
        finally:
            runner.tracing = False
            runner.tracer.uninstall()
    else:
        workload.run(runner, "base")
        workload.run(runner, "variant")
    records = runner.records[first:]
    workload.check(runner, records)
    return records


def group_seconds(passes, group, traced, field="seconds") -> float:
    """Summed over the group's calls, each call's median time across passes.

    Calls are matched by position: a pass issues the same calls in the same
    order every time. Only a failed op, a search hop that stops early, can
    change a pass's calls, and that already fails the run. Taking each
    call's median first keeps a burst of machine noise in one pass from
    moving the whole group.
    """
    per_pass = [[getattr(r, field) for r in recs if r.group == group and r.traced == traced]
                for recs in passes]
    return sum((statistics.median(column) for column in zip(*per_pass)), 0.0)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(workload, seed: int, seconds: float, trace: bool, root: Path,
                 out=sys.stdout) -> dict:
    """Set up, run passes for `seconds` (at least one), check, and report."""
    name = workload.name
    src = root / "src"
    workdir = root / "bench" / "_work" / f"{name}-s{seed}"
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    with HostClock() as clock:
        return _run(workload, seed, seconds, trace, src, workdir, out, clock)


def _run(workload, seed, seconds, trace, src, workdir, out, clock) -> dict:
    name = workload.name
    inputs_dir = workdir / "inputs"
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous copy's garbage is not this set-up's cost
        start, cpu_start = perf_counter(), process_time()
        ft = import_fresh(src)
        inputs = workload.prepare(ft, seed, inputs_dir)
        setup_times.append(clock.seconds(start, perf_counter(), process_time() - cpu_start))
    manifest = {
        "workload": name, "seed": seed,
        "inputs": {inp.name: inp.sha256 for inp in inputs},
    }
    with open(workdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    digest = hashlib.sha256(json.dumps(manifest["inputs"], sort_keys=True).encode()).hexdigest()
    print(f"workload {name} seed {seed}: {len(inputs)} input files, "
          f"combined sha256 {digest[:16]}", file=out)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(ft)
        tracer.op = "setup"
        try:
            inputs = workload.prepare(ft, seed, inputs_dir)
        finally:
            tracer.op = None
            tracer.uninstall()
    runner = Runner(ft, tracer, clock)

    passes = []
    started = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(workload, runner))
        now = perf_counter()
        if now - started + (now - pass_start) > seconds:
            break

    attempted = len(runner.records)
    failed = len(runner.failures)
    for op, message in sorted(runner.failures.items())[:20]:
        print(f"FAILED op {op} ({' '.join(runner.records[op].argv[:1])}): {message}", file=out)

    setup = statistics.median(setup_times)
    base = group_seconds(passes, "base", trace)
    variant = group_seconds(passes, "variant", trace)
    # The same times under the names each workload gives them, for people.
    for key, value, unit in (("setup_s", setup, "s"), (workload.base_label, base, "s"),
                             (workload.variant_label, variant, "s"),
                             ("error_rate", failed / attempted, "ratio"),
                             ("passes", len(passes), "count"),
                             ("host_slowdown", clock.slowdown(), "ratio")):
        print(f"{key} {value:.6g} {unit}", file=out)
    if trace:
        metrics = layer_metrics(runner, tracer, passes)
        tracer.write(workdir / "trace.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "base_s": {"value": base, "unit": "s"},
            "variant_s": {"value": variant, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(runner: Runner, tracer: Tracer, passes) -> dict:
    """Per-layer counts and times from the traced calls, per pass.

    Totals cover every traced call of a pass, with these exceptions.
    verify.subsets, self_s, subsets_per_s and prescreen_fails, packing's
    find_* counts, self_s and us_per_call, and graphs.* count --jobs 1
    calls only, because pool workers keep their spans. search.self_s,
    labeled_graphs, classes, dedup_ratio and accepted describe the
    straight search; search.hops and resume_skipped the resumed one.
    verify.j2_speedup divides the untraced --jobs 1 time by the --jobs 2
    time, whose tracing is a few spans per call in the parent process. It
    uses uncorrected CPU times, because HostClock corrects pooled calls by
    loops that compete with the workers, which read slower than the loops
    that correct --jobs 1 calls.
    """
    spans = tracer.spans
    index = SpanIndex(spans)
    records = runner.records
    traced = {r.op for r in records if r.traced}
    j1 = {r.op for r in records if r.traced and r.meta.get("jobs", 1) == 1}
    j2 = [r for r in records if r.traced and r.meta.get("jobs", 1) > 1]
    straight = {r.op for r in records if r.traced and r.meta.get("kind") == "straight"}
    hops = [r for r in records if r.traced and r.meta.get("kind") == "hop"]
    audits = [r for r in records if r.traced and r.meta.get("kind") == "audit"]
    npass = len(passes)

    def ids(prefix, ops=traced):
        return index.select(prefix, ops)

    def per_pass(x):
        return x / npass

    def info_count(idx, pred):
        return sum(1 for i in idx if pred(spans[i][5]))

    m = {}
    searches = ids("search.search_minimum", straight)
    canon_all = ids("canon.canonical_form")
    canon_straight = ids("canon.canonical_form", straight)
    conn_straight = ids("connectivity.is_connected", straight)
    verify_straight = ids("verify.verify_ft", straight)
    m["search.self_s"] = (per_pass(index.self_total(searches)), "s")
    m["search.labeled_graphs"] = (per_pass(len(canon_straight)), "count")
    classes = len(conn_straight) if conn_straight else len(verify_straight)
    m["search.classes"] = (per_pass(classes), "count")
    m["search.dedup_ratio"] = (classes / len(canon_straight) if canon_straight else 0.0, "ratio")
    m["search.accepted"] = (per_pass(info_count(verify_straight, lambda i: i[0])), "count")
    m["search.hops"] = (per_pass(len(hops)), "count")
    m["search.resume_skipped"] = (per_pass(sum(r.meta["skipped"] for r in hops)), "count")

    m["canon.calls"] = (per_pass(len(canon_all)), "count")
    canon_self = index.self_total(canon_all + ids("canon.canonical_graph"))
    m["canon.self_s"] = (per_pass(canon_self), "s")
    m["canon.us_per_call"] = (1e6 * index.total(canon_all) / len(canon_all) if canon_all else 0.0, "us")

    conn = ids("connectivity.is_connected")
    m["connectivity.is_connected_calls"] = (per_pass(len(conn)), "count")
    m["connectivity.is_connected_rejects"] = (per_pass(info_count(conn, lambda ok: not ok)), "count")
    masks = ids("connectivity.component_masks")
    m["connectivity.component_masks_calls"] = (per_pass(len(masks)), "count")
    m["connectivity.component_masks_s"] = (per_pass(index.total(masks)), "s")
    sweeps = []
    for r in audits:
        calls = len(index.select("connectivity.component_masks", {r.op}))
        sweeps.append(calls / comb(r.meta["input"].n, r.meta["input"].k))
    m["audit.sweeps"] = (statistics.mean(sweeps) if sweeps else 0.0, "ratio")
    m["connectivity.flow_s"] = (per_pass(index.total(ids("connectivity.flow"))), "s")

    verify_j1 = ids("verify.verify_ft", j1)
    finds_j1 = ids("packing.find_disjoint_cliques", j1)
    subsets = sum(spans[i][5][1] for i in verify_j1)
    verify_time = index.total(verify_j1)
    m["verify.calls"] = (per_pass(len(ids("verify.verify_ft"))), "count")
    m["verify.subsets"] = (per_pass(subsets), "count")
    m["verify.self_s"] = (per_pass(index.self_total(verify_j1)), "s")
    m["verify.subsets_per_s"] = (subsets / verify_time if verify_time else 0.0, "1/s")
    prescreened = 0
    for i in verify_j1:
        finds = sum(1 for c in index.children[i] if spans[c][0] == "packing.find_disjoint_cliques")
        prescreened += spans[i][5][1] - finds
    m["verify.prescreen_fails"] = (per_pass(prescreened), "count")
    j1_cpu = group_seconds(passes, "base", False, "cpu")
    j2_cpu = group_seconds(passes, "variant", True, "cpu")
    m["verify.j2_speedup"] = (j1_cpu / j2_cpu if j2 and j2_cpu else 0.0, "ratio")
    wasted = 0
    for r in j2:
        if r.answer is not None and r.answer.get("holds") is False:
            wasted += r.meta["subsets"] - r.answer["witness_count"]
    m["verify.j2_wasted_subsets"] = (per_pass(wasted), "count")

    m["packing.find_calls"] = (per_pass(len(finds_j1)), "count")
    m["packing.find_none"] = (per_pass(info_count(finds_j1, lambda none: none)), "count")
    m["packing.self_s"] = (per_pass(index.self_total(finds_j1)), "s")
    m["packing.us_per_call"] = (1e6 * index.total(finds_j1) / len(finds_j1) if finds_j1 else 0.0, "us")
    has_clique = ids("packing.has_clique_containing")
    m["packing.has_clique_calls"] = (per_pass(len(has_clique)), "count")
    m["packing.has_clique_s"] = (per_pass(index.total(has_clique)), "s")
    removes = ids("graphs.remove_vertices", j1)
    m["graphs.remove_vertices_calls"] = (per_pass(len(removes)), "count")
    m["graphs.remove_vertices_s"] = (per_pass(index.total(removes)), "s")

    m["audit.basic_s"] = (per_pass(index.total(ids("audit.audit_basic"))), "s")
    m["audit.low_degree_s"] = (per_pass(index.total(ids("audit.audit_low_degree_cliques"))), "s")
    m["audit.separators_s"] = (per_pass(index.total(ids("audit.size_k_separators"))), "s")
    separator = ids("audit.audit_separator")
    m["audit.separator_s"] = (per_pass(index.total(separator)), "s")
    piece = [c for i in separator for c in index.children[i] if spans[c][0] == "verify.verify_ft"]
    m["audit.piece_verify_s"] = (per_pass(index.total(piece)), "s")
    m["blocks.s"] = (per_pass(index.total(ids("blocks.blocks"))), "s")
    m["chordal.s"] = (per_pass(index.total(ids("chordal.chordality"))), "s")
    m["formats.parse_s"] = (per_pass(index.total(ids("formats.parse"))), "s")
    m["formats.emit_s"] = (per_pass(index.total(ids("formats.emit"))), "s")
    m["cli.self_s"] = (per_pass(index.self_total(ids("cli.main"))), "s")
    m["construct.s"] = (index.total(index.select("construct.", {"setup"})), "s")
    reference = group_seconds(passes, "base", False)
    traced_base = group_seconds(passes, "base", True)
    m["trace.overhead_ratio"] = (traced_base / reference if reference else 0.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
