"""The four benchmark workloads: seeded inputs, the CLI calls, answer checks.

Each workload has two groups of calls. The base group and the variant
group are timed separately and reported as base_s and variant_s:

  search-223      straight search-min         | same search in budgeted hops
  verify-pass     verify --jobs 1             | verify --jobs 2
  verify-fail     verify --jobs 1             | verify --jobs 2
  audit-families  audit                       | props, plus recognize for k = 1

Inputs depend only on the seed and on the constructions the package
emits. Relabelings and edge drops use the benchmark's own code, so the
same seed writes byte-identical files on every commit whose constructions
agree.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

DEFAULT_SEED = 1
FROZEN_PATH = Path(__file__).with_name("frozen.json")


def jobs_variant() -> int:
    """The parallel job count: 2, but never more than the machine's cores."""
    return min(2, os.cpu_count() or 1)


@dataclass
class GraphInput:
    name: str
    family: str
    path: Path
    n: int
    k: int
    p: int
    c: int
    sha256: str
    graph: object = field(repr=False)


def build_family(ft, kind: str, k: int, p: int, c: int) -> tuple[int, list]:
    """Vertex count and sorted edge list of a construction, as emitted."""
    if kind == "star":
        g = ft.construct.star_construction(k, p, c)
    else:
        template = ft.construct.TreeTemplate.path(p, k, c)
        g = ft.construct.tree_of_cliques(k, c, template)
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if g.adj[u] >> v & 1]
    return g.n, edges


def relabel(n: int, edges: list, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def write_graph(ft, directory: Path, name: str, family: str, n: int, edges: list,
                k: int, p: int, c: int) -> GraphInput:
    """Write an edge-list file and keep what the answer checks need."""
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    data = text.encode("ascii")
    path = directory / f"{name}.txt"
    path.write_bytes(data)
    return GraphInput(name, family, path, n, k, p, c,
                      hashlib.sha256(data).hexdigest(), ft.graphs.Graph(n, edges))


def family_name(kind: str, k: int, p: int, c: int) -> str:
    return f"{kind}({k},{p},{c})"


def load_frozen() -> dict:
    with open(FROZEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def lex_rank(subset, n: int) -> int:
    """Position of a sorted k-subset of range(n) in lexicographic order."""
    rank, prev, k = 0, -1, len(subset)
    for i, v in enumerate(subset):
        rank += sum(comb(n - 1 - j, k - 1 - i) for j in range(prev + 1, v))
        prev = v
    return rank


def decode_graph6(text: str) -> tuple[int, list]:
    """Minimal graph6 reader for n < 63, independent of the package."""
    data = [ord(ch) - 63 for ch in text.strip()]
    n = data[0]
    bits = []
    for value in data[1:]:
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos]:
                edges.append((u, v))
            pos += 1
    return n, edges


class Workload:
    name = ""
    base_label = ""
    variant_label = ""

    def __init__(self):
        self.inputs: list[GraphInput] = []

    def prepare(self, ft, seed: int, directory: Path) -> list[GraphInput]:
        raise NotImplementedError

    def run(self, runner, group: str) -> None:
        raise NotImplementedError

    def check(self, runner, records) -> None:
        raise NotImplementedError


class SearchWorkload(Workload):
    """search-min (2,2,3): the only exhaustive search in reach.

    The base group runs it unbudgeted; the variant group splits it into
    hops of `budget` graphs through a --state file until the state reads
    complete. The seed does not change this workload.
    """

    name = "search-223"
    base_label = "search_s"
    variant_label = "search_resumed_s"
    MAX_HOPS = 1000

    def __init__(self, k=2, p=2, c=3, minimum=19, budget=40_000):
        super().__init__()
        self.k, self.p, self.c = k, p, c
        self.minimum = minimum
        self.budget = budget
        self.state = None

    def prepare(self, ft, seed, directory):
        self.state = directory / "state.json"
        return []

    def _argv(self):
        return ["search-min", "--k", str(self.k), "--p", str(self.p), "--c", str(self.c)]

    def _read_state(self):
        if not self.state.exists():
            return None
        with open(self.state, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def run(self, runner, group):
        if group == "base":
            runner.call(self._argv(), group, kind="straight")
            return
        if self.state.exists():
            self.state.unlink()
        argv = self._argv() + ["--budget-graphs", str(self.budget), "--state", str(self.state)]
        for hop in range(self.MAX_HOPS):
            before = self._read_state()
            skipped = 0 if before is None else before.get("unit_offset", 0)
            rec = runner.call(argv, group, kind="hop", hop=hop, skipped=skipped)
            after = self._read_state()
            rec.meta["complete"] = after is not None and after.get("status") == "complete"
            if rec.meta["complete"] or rec.rc != 2:
                return
        runner.fail(rec, f"search did not complete within {self.MAX_HOPS} hops")

    def _check_report(self, runner, rec):
        ans = rec.answer
        if rec.rc != 0 or ans is None:
            runner.fail(rec, f"exit code {rec.rc}, expected 0 with a JSON report")
            return None
        if ans.get("minimum_found") != self.minimum or ans.get("exhaustive") is not True:
            runner.fail(rec, f"minimum {ans.get('minimum_found')} exhaustive "
                             f"{ans.get('exhaustive')}, expected {self.minimum} and true")
            return None
        exemplars = ans.get("exemplars") or []
        if not exemplars:
            runner.fail(rec, "no exemplars")
            return None
        ft = runner.ft
        params = ft.verify.FTParams(self.k, self.p, self.c)
        order = params.critical_order
        for code in exemplars:
            n, edges = decode_graph6(code)
            if n != order or len(edges) != self.minimum:
                runner.fail(rec, f"exemplar {code} has n={n} m={len(edges)}")
                return None
            if not ft.verify.verify_ft_oracle(ft.graphs.Graph(n, edges), params).holds:
                runner.fail(rec, f"oracle rejects exemplar {code}")
                return None
        return exemplars

    def check(self, runner, records):
        straight = [r for r in records if r.meta["kind"] == "straight"]
        hops = [r for r in records if r.meta["kind"] == "hop"]
        expected = None
        for rec in straight:
            got = self._check_report(runner, rec)
            if got is not None:
                expected = expected or got
                if got != expected:
                    runner.fail(rec, "exemplars differ between straight runs")
        if not hops:
            return
        for rec in hops[:-1]:
            if rec.rc != 2 or rec.meta.get("complete"):
                runner.fail(rec, f"hop {rec.meta['hop']} exit code {rec.rc}, expected 2")
        last = hops[-1]
        if not last.meta.get("complete"):
            runner.fail(last, "state file never reached status complete")
            return
        got = self._check_report(runner, last)
        if got is not None and expected is not None and got != expected:
            runner.fail(last, "resumed exemplars differ from the straight run")


class VerifyWorkload(Workload):
    """verify on constructions at --jobs 1 (base) and the parallel count (variant)."""

    witnesses = 0

    def run(self, runner, group):
        jobs = 1 if group == "base" else jobs_variant()
        for inp in self.inputs:
            argv = ["verify", "--k", str(inp.k), "--p", str(inp.p), "--c", str(inp.c),
                    "--jobs", str(jobs)]
            if self.witnesses:
                argv += ["--witnesses", str(self.witnesses)]
            runner.call(argv + [str(inp.path)], group, input=inp, jobs=jobs,
                        subsets=comb(inp.n, inp.k))

    @staticmethod
    def _key(ans):
        return (ans.get("holds"), ans.get("counterexample"), ans.get("witness_count"),
                ans.get("witnesses"))

    def check(self, runner, records):
        first: dict[str, tuple] = {}
        for rec in records:
            inp = rec.meta["input"]
            if rec.answer is None:
                runner.fail(rec, f"exit code {rec.rc} without a JSON report ({rec.error})")
                continue
            if not self.check_answer(runner, rec, inp, rec.answer):
                continue
            key = self._key(rec.answer)
            if first.setdefault(inp.name, key) != key:
                runner.fail(rec, f"{inp.name}: answer differs between --jobs values")


class VerifyPassWorkload(VerifyWorkload):
    """Passing critical-order constructions, native and seeded relabelings.

    Packing dominates here and the cost depends strongly on labels, so
    each family runs with its native labels and `relabelings` seeded
    relabelings. The last family is checked with p one below its build,
    which is off-critical and takes the non-perfect packing path.
    """

    name = "verify-pass"
    base_label = "verify_j1_s"
    variant_label = "verify_j2_s"
    FAMILIES = (("star", 2, 10, 3, 10), ("star", 3, 4, 4, 4),
                ("path", 2, 6, 4, 6), ("star", 2, 10, 3, 9))

    def __init__(self, families=FAMILIES, relabelings=4, witnesses=16):
        super().__init__()
        self.families = families
        self.relabelings = relabelings
        self.witnesses = witnesses

    def prepare(self, ft, seed, directory):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for kind, k, p, c, p_check in self.families:
            n, edges = build_family(ft, kind, k, p, c)
            fam = family_name(kind, k, p, c) + (f"-p{p_check}" if p_check != p else "")
            inputs.append(write_graph(ft, directory, f"{fam}-native", fam, n, edges, k, p_check, c))
            for r in range(self.relabelings):
                inputs.append(write_graph(ft, directory, f"{fam}-r{r}", fam, n,
                                          relabel(n, edges, rng), k, p_check, c))
        self.inputs = inputs
        return inputs

    def check_answer(self, runner, rec, inp, ans):
        if rec.rc != 0 or ans.get("holds") is not True:
            runner.fail(rec, f"{inp.name}: exit {rec.rc}, holds {ans.get('holds')}")
            return False
        total = comb(inp.n, inp.k)
        if ans.get("witness_count") != total:
            runner.fail(rec, f"{inp.name}: witness_count {ans.get('witness_count')} != C(n,k) = {total}")
            return False
        witnesses = ans.get("witnesses") or {}
        if len(witnesses) != min(self.witnesses, total):
            runner.fail(rec, f"{inp.name}: {len(witnesses)} witnesses returned")
            return False
        packing_type = runner.ft.packing.CliquePacking
        is_valid = runner.ft.packing.is_valid_packing
        for key, cliques in witnesses.items():
            deleted = {int(x) for x in key.split(",")}
            packing = packing_type(tuple(tuple(cl) for cl in cliques))
            if any(deleted.intersection(cl) for cl in packing.cliques) or \
                    not is_valid(inp.graph, packing, inp.p, inp.c):
                runner.fail(rec, f"{inp.name}: witness for {key} does not replay")
                return False
        return True


class VerifyFailWorkload(VerifyWorkload):
    """Constructions with one edge removed: every scan fails and exits early.

    The failure rank, and with it the cost of a --jobs 1 scan, depends
    strongly on which edge goes, and neighbouring edges of the native edge
    list fail at similar ranks. So the native edge list is cut into blocks
    of BLOCK edges, and each block drops every STRIDE-th edge from a
    seeded offset, one graph per dropped edge: every batch covers all
    parts of every family. Labels stay native; this workload is about
    early exit and the process pool, which has no cancellation, not about
    labels.
    """

    name = "verify-fail"
    base_label = "verify_j1_s"
    variant_label = "verify_j2_s"
    FAMILIES = (("star", 2, 8, 3), ("star", 3, 3, 4), ("path", 2, 6, 4))
    STRIDE = 2
    BLOCK = 16

    def __init__(self, families=FAMILIES):
        super().__init__()
        self.families = families
        self.frozen = None

    def prepare(self, ft, seed, directory):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for kind, k, p, c in self.families:
            n, edges = build_family(ft, kind, k, p, c)
            fam = family_name(kind, k, p, c)
            for lo in range(0, len(edges), self.BLOCK):
                start = lo + rng.randrange(self.STRIDE)
                for u, v in edges[start:lo + self.BLOCK:self.STRIDE]:
                    kept = [e for e in edges if e != (u, v)]
                    inputs.append(write_graph(ft, directory, f"{fam}-drop-{u}-{v}", fam,
                                              n, kept, k, p, c))
        self.inputs = inputs
        if self.frozen is None and seed == DEFAULT_SEED \
                and self.families == VerifyFailWorkload.FAMILIES:
            self.frozen = load_frozen()[self.name]
        return inputs

    def check_answer(self, runner, rec, inp, ans):
        cx = ans.get("counterexample")
        count = ans.get("witness_count")
        if rec.rc != 1 or ans.get("holds") is not False:
            runner.fail(rec, f"{inp.name}: exit {rec.rc}, holds {ans.get('holds')}, expected a failure")
            return False
        if not (isinstance(cx, list) and len(cx) == inp.k and len(set(cx)) == inp.k
                and all(isinstance(v, int) and 0 <= v < inp.n for v in cx)):
            runner.fail(rec, f"{inp.name}: malformed counterexample {cx}")
            return False
        if count != lex_rank(sorted(cx), inp.n) + 1 or cx != sorted(cx):
            runner.fail(rec, f"{inp.name}: witness_count {count} is not the rank of "
                             f"counterexample {cx} plus one")
            return False
        if self.frozen is not None:
            got, want = self.frozen_answer(ans), self.frozen.get(inp.name)
            if got != want:
                runner.fail(rec, f"{inp.name}: answer {got} != frozen {want}")
                return False
        return True

    @staticmethod
    def frozen_answer(ans):
        return [ans.get("holds"), ans.get("counterexample"), ans.get("witness_count")]


class AuditWorkload(Workload):
    """audit (base) and props plus recognize (variant) on hub families.

    The only workload that runs audit, component_masks, blocks and
    chordal. Each family runs native and under `relabelings` seeded
    relabelings; the frozen answers are invariant under relabeling, so
    they are checked on every seed.
    """

    name = "audit-families"
    base_label = "audit_s"
    variant_label = "props_s"
    FAMILIES = (("path", 2, 6, 4), ("path", 3, 4, 4), ("path", 1, 12, 3), ("star", 2, 12, 3))

    def __init__(self, families=FAMILIES, relabelings=5):
        super().__init__()
        self.families = families
        self.relabelings = relabelings
        self.frozen = None

    def prepare(self, ft, seed, directory):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for kind, k, p, c in self.families:
            n, edges = build_family(ft, kind, k, p, c)
            fam = family_name(kind, k, p, c)
            inputs.append(write_graph(ft, directory, f"{fam}-native", fam, n, edges, k, p, c))
            for r in range(self.relabelings):
                inputs.append(write_graph(ft, directory, f"{fam}-r{r}", fam, n,
                                          relabel(n, edges, rng), k, p, c))
        self.inputs = inputs
        if self.frozen is None:
            self.frozen = load_frozen()[self.name]
        return inputs

    def run(self, runner, group):
        for inp in self.inputs:
            path = str(inp.path)
            if group == "base":
                runner.call(["audit", "--k", str(inp.k), "--p", str(inp.p), "--c", str(inp.c),
                             path], group, input=inp, kind="audit")
                continue
            runner.call(["props", path], group, input=inp, kind="props")
            if inp.k == 1:
                runner.call(["recognize", "--p", str(inp.p), "--c", str(inp.c), path],
                            group, input=inp, kind="recognize")

    @staticmethod
    def answer_of(kind, ans):
        """The relabeling-invariant part of an answer, as frozen."""
        if kind == "audit":
            return {"passed": ans.get("passed"), "separators": len(ans.get("separators") or [])}
        if kind == "props":
            return {"chordal": ans.get("chordal"),
                    "vertex_connectivity": ans.get("vertex_connectivity"),
                    "blocks": len(ans.get("blocks") or [])}
        return {"accepted": ans.get("accepted")}

    def freeze(self, runner) -> dict:
        """Run one pass and return its answers in the form frozen.json keeps."""
        first = len(runner.records)
        self.run(runner, "base")
        self.run(runner, "variant")
        families: dict = {}
        for rec in runner.records[first:]:
            kind = rec.meta["kind"]
            families.setdefault(rec.meta["input"].family, {})[kind] = \
                self.answer_of(kind, rec.answer)
        return families

    def check(self, runner, records):
        for rec in records:
            inp, kind = rec.meta["input"], rec.meta["kind"]
            if rec.answer is None:
                runner.fail(rec, f"{inp.name} {kind}: exit {rec.rc} without a JSON report ({rec.error})")
                continue
            got = self.answer_of(kind, rec.answer)
            want = self.frozen.get(inp.family, {}).get(kind)
            if got != want:
                runner.fail(rec, f"{inp.name} {kind}: {got} != frozen {want}")
            elif rec.rc != 0:
                runner.fail(rec, f"{inp.name} {kind}: exit code {rec.rc}")


WORKLOADS = {
    wl.name: wl
    for wl in (SearchWorkload, VerifyPassWorkload, VerifyFailWorkload, AuditWorkload)
}
