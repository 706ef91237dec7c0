#!/usr/bin/env python3
"""Benchmark of planprobe's interactive query loop.

A session is one generated instance under one policy. Per instance, a timed
pass loads the instance files (library.parse_library), builds the initial
hypothesis set (recognizer.recognize), runs the query loop once per policy
(engine.run_query_loop with a QueryOracle), and checks every final set
against the exhaustive filter (experiment.brute_force_final_set); after the
last instance it writes the experiment CSVs (experiment.write_all_csvs).
Set-up generates the instances (domains.gen_instance) and writes them as
instance files. Passes repeat until --seconds have been measured.

Run from the repository root:

    python3 perfbench/run.py --workload probe_obs5 --seed 1 --seconds 10 --trace 0

Every metric is printed as "<workload> <name> <value> <unit>". The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 its metrics are the gated end-to-end ones,
measured with tracing off. With --trace 1 they are the per-layer ones, from
traced passes alternated with untraced ones. The full record, with the input
and output digests, is written to .perfbench_out/<workload>-s<seed>-t<trace>.json,
and the spans of a traced run to .perfbench_out/<workload>-s<seed>.spans.jsonl.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is repeated and its median reported, so that set-up time is steady.
SETUP_REPS = 3
# Limit on each recognize, query loop and exhaustive check. The slowest
# session at seed 1 takes about 3 s; a step past this limit fails.
DEADLINE_S = 30.0
# Candidate instances drawn per pool slot before giving up on the quotas.
CANDIDATES_PER_SLOT = 40
# The reference loop is timed at most this often, between instances.
REFERENCE_EVERY_S = 0.1
# Measured elasticity of the program's time to the reference loop's time on
# a shared host: the loop slows more than the program does (see NOTES.md).
REFERENCE_ELASTICITY = 0.6

ALL_POLICIES = ("random", "mph", "mpp", "entropy")


@dataclass(frozen=True)
class Workload:
    obs_len: int
    policies: tuple[str, ...]
    # Instances per pool by bin b = h0.bit_length(), so bin b holds
    # 2**(b-1) <= h0 < 2**b. Session cost grows steeply with h0, and a pool
    # drawn without quotas varies with the seed far more than the code does.
    # The quotas follow the generator's own h0 distribution at this obs_len
    # (measured over 400-1500 seeds); the largest bin is a cap.
    quotas: dict[int, int]


WORKLOADS = {
    # Scoring-bound: mpp and entropy select take most of the pass.
    "probe_obs5": Workload(5, ALL_POLICIES,
                           {1: 49, 2: 92, 3: 113, 4: 79, 5: 69, 6: 57, 7: 24, 8: 17}),
    # Recognize and update bound: no scoring policy, the largest sets.
    "grow_obs8": Workload(8, ("random", "mph"),
                          {1: 13, 2: 26, 3: 39, 4: 47, 5: 42, 6: 34, 7: 29, 8: 16, 9: 10, 10: 5}),
    # The large-h0 part of obs_len 7 (h0 >= 8), where entropy select is
    # superlinear in h0. Not in BENCHMARK.json: too seed-dependent to gate.
    "tail_obs7": Workload(7, ("random", "mph", "entropy"),
                          {4: 39, 5: 36, 6: 30, 7: 20, 8: 14, 9: 8, 10: 3}),
    # Self-test only.
    "smoke": Workload(3, ALL_POLICIES, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
}

# Gated end-to-end metrics (BENCHMARK.json), then end-to-end metrics that are
# printed and recorded but too seed-dependent to gate (see NOTES.md).
GATED = {
    "setup_s": "s",
    "session_gmean_ms": "ms",
    "ttfq_gmean_ms": "ms",
    "query_gmean_ms": "ms",
    "questions_mean": "count",
    "peak_rss_mb": "MB",
}
REPORTED = {
    "runs_per_s": "1/s",
    "ttfq_p50_ms": "ms",
    "ttfq_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "fail_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for kind in ALL_POLICIES:
        units[f"policies.select_s.{kind}"] = "s"
        units[f"policies.selects.{kind}"] = "count"
        units[f"policies.candidates_scored.{kind}"] = "count"
    units |= {"plans.refine_calls": "count", "plans.match_calls": "count"}
    units |= {"recognizer.recognize_s": "s", "recognizer.h0_mean": "count",
              "recognizer.h0_max": "count", "recognizer.h0_total": "count"}
    for kind in ALL_POLICIES:
        units[f"engine.loop_self_s.{kind}"] = "s"
        units[f"engine.queries.{kind}"] = "count"
    units["engine.useful_query_frac"] = "ratio"
    units |= {"library.parse_s": "s", "experiment.verify_s": "s",
              "experiment.csv_s": "s", "domains.gen_s": "s"}
    units |= {"trace.overhead_frac": "ratio", "trace.unaccounted_frac": "ratio",
              "trace.candidates_s": "s"}
    return units


PER_LAYER = per_layer_units()


def derive_seed(*parts: object) -> int:
    """A 62-bit seed from the whole text of parts (no truncation)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (tuple hashing and dict
    inserts, like the program's own), about 1 ms on a 2-vCPU host."""
    t = time.perf_counter()
    table = {}
    for i in range(5000):
        table[(i, i & 7)] = hash((i, "ref")) & 0xFF
    return time.perf_counter() - t


class Reference:
    """Scales times to a machine on which reference_loop takes 1 ms.

    The benchmark may run on a shared host whose speed drifts by a quarter
    between runs a minute apart. Timing the reference loop in between the
    work and scaling by it, to the measured elasticity, removes most of that
    drift."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            # A garbage collection or an interrupt inside one sample would
            # make it an outlier, so collection is paused and the fastest
            # of three is kept.
            gc.disable()
            try:
                self.samples.append(min(reference_loop() for _ in range(3)))
            finally:
                gc.enable()
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns a measured time into a scaled one."""
        return (1e-3 / statistics.median(self.samples)) ** REFERENCE_ELASTICITY


class StepDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise StepDeadline(f"step exceeded {DEADLINE_S}s")


def guarded(fn, *args):
    """Call fn under the per-step deadline, enforced by SIGALRM."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tracer:
    """In-memory spans (name, start, end, parent index, session id) and
    counts, recorded around the benchmark's calls into each module."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, sid: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, sid])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed duration minus the time its children cover,
        and the number of spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
            n[name] += 1
        return total, n


def span(tracer: Tracer | None, name: str, sid: str | None = None):
    return tracer.span(name, sid) if tracer is not None else nullcontext()


@contextmanager
def counting_relations(pp, counts: Counter):
    """Count top-level is_refinement and matches calls by wrapping those
    names wherever a planprobe module binds them."""
    saved = []
    for mod in pp.modules:
        for name, key in (("is_refinement", "plans.refine_calls"), ("matches", "plans.match_calls")):
            fn = mod.__dict__.get(name)
            if fn is None:
                continue

            def counting(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            saved.append((mod, name, fn))
            setattr(mod, name, counting)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


class TimedPolicy:
    """Duck-typed stand-in for Policy. run_query_loop only reads .kind and
    calls .select, so this stamps the time at which each question is asked."""

    def __init__(self, policy, pp, tracer: Tracer | None, sid: str):
        self.kind = policy.kind
        self._policy = policy
        self._pp = pp
        self._tracer = tracer
        self._sid = sid
        self.stamps: list[float] = []

    def select(self, hset, closed):
        tracer = self._tracer
        if tracer is None:
            plan = self._policy.select(hset, closed)
        else:
            with tracer.span("trace.candidates", self._sid):
                n = len(self._pp.engine.candidate_plans(hset, closed))
                tracer.counts[f"policies.candidates_scored.{self.kind}"] += n
            with tracer.span(f"policies.select.{self.kind}", self._sid):
                plan = self._policy.select(hset, closed)
        self.stamps.append(time.perf_counter())
        return plan


class Planprobe:
    """The planprobe modules, imported from this checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        for name in ("plans", "library", "recognizer", "engine", "policies", "domains", "experiment"):
            setattr(self, name, importlib.import_module(f"planprobe.{name}"))
        origin = Path(sys.modules["planprobe"].__file__).resolve()
        if SRC not in origin.parents:
            raise ImportError(f"planprobe was imported from {origin}, not from {SRC}")
        self.modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("planprobe.")]


@dataclass(frozen=True)
class Entry:
    stem: str
    seed: int
    h0: int


def build_inputs(pp, name: str, wl: Workload, seed: int, inst_dir: Path,
                 tracer: Tracer | None, ref: Reference) -> tuple[list[Entry], str, int]:
    """Draw candidate instances from the seed, keep each whose h0 bin still
    has room, and write the kept ones as instance files. Returns the pool,
    the sha256 over every written library, observation and truth file, and
    the number of candidates drawn."""
    need = dict(wl.quotas)
    cfg = pp.recognizer.RecognizerConfig(max_hypotheses=2 ** max(need) - 1)
    shutil.rmtree(inst_dir, ignore_errors=True)
    pool: list[Entry] = []
    digest = hashlib.sha256()
    drawn = 0
    while any(need.values()):
        if drawn == CANDIDATES_PER_SLOT * sum(wl.quotas.values()):
            raise RuntimeError(f"{name}: h0 quotas not filled, still missing {need}")
        ref.tick()
        inst_seed = derive_seed(name, seed, drawn)
        drawn += 1
        with span(tracer, "domains.gen"):
            inst = pp.domains.gen_instance(pp.domains.GenParams(obs_len=wl.obs_len, seed=inst_seed))
        # A candidate whose set exceeds the cap at any step is skipped.
        with span(tracer, "setup.classify"):
            h0 = pp.recognizer.HypothesisSet((pp.plans.Hypothesis((), 1.0),), 0)
            for action in inst.observations:
                h0 = pp.recognizer.explain_step(inst.library, h0, action, cfg)
                if h0.truncated:
                    break
        b = len(h0).bit_length()
        if h0.truncated or need.get(b, 0) == 0:
            continue
        need[b] -= 1
        stem = f"i{len(pool):04d}"
        pp.experiment.save_instance(inst, inst_dir, stem)
        for suffix in (".library.json", ".obs.txt", ".truth.json"):
            digest.update((inst_dir / f"{stem}{suffix}").read_bytes())
        pool.append(Entry(stem, inst_seed, len(h0)))
    return pool, digest.hexdigest(), drawn


@dataclass
class Session:
    ttfq_s: float
    seconds: float  # recognize plus the query loop
    intervals: list[float]


@dataclass
class PassStats:
    seconds: float = 0.0
    scale: float = 1.0  # see Reference
    reference: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    sessions: list[Session] = field(default_factory=list)
    questions: list[int] = field(default_factory=list)
    useful: int = 0
    rows_sha256: str = ""
    errors: list[str] = field(default_factory=list)


def run_pass(pp, wl: Workload, pool: list[Entry], inst_dir: Path, csv_dir: Path,
             tracer: Tracer | None) -> PassStats:
    """One timed pass over the pool: every session of every instance, then
    the CSVs."""
    st = PassStats()
    rows = []
    clear = getattr(pp.plans, "clear_relation_caches", None)

    def keyset(hset):
        return {pp.plans.hypothesis_key(h) for h in hset.hypotheses}

    ref = Reference()
    started = time.perf_counter()
    with span(tracer, "pass"):
        for e in pool:
            ref.tick()
            # run_experiment resets the relation caches per instance too.
            if clear is not None:
                clear()
            st.attempted += len(wl.policies)
            try:
                with span(tracer, "library.parse", e.stem):
                    lib = pp.library.parse_library((inst_dir / f"{e.stem}.library.json").read_text())
                    obs = pp.experiment.load_observations(inst_dir / f"{e.stem}.obs.txt")
                    truth = pp.plans.hypothesis_from_dict(
                        json.loads((inst_dir / f"{e.stem}.truth.json").read_text()))
                t0 = time.perf_counter()
                with span(tracer, "recognizer.recognize", e.stem):
                    h0 = guarded(pp.recognizer.recognize, lib, obs)
                rec_s = time.perf_counter() - t0
            except Exception as exc:  # every session of this instance fails
                st.failed += len(wl.policies)
                st.errors.append(f"{e.stem}: {type(exc).__name__}: {exc}")
                continue
            done = []
            for kind in wl.policies:
                sid = f"{e.stem}/{kind}"
                policy = TimedPolicy(pp.policies.Policy(kind, derive_seed(e.seed, kind)), pp, tracer, sid)
                start = time.perf_counter()
                try:
                    with span(tracer, f"engine.loop.{kind}", sid):
                        final, trace = guarded(
                            pp.engine.run_query_loop, h0, pp.engine.QueryOracle(truth), policy)
                except Exception as exc:
                    st.failed += 1
                    st.errors.append(f"{sid}: {type(exc).__name__}: {exc}")
                    continue
                end = time.perf_counter()
                stamps = policy.stamps
                session = Session(
                    ttfq_s=rec_s + (stamps[0] if stamps else end) - start,
                    seconds=rec_s + end - start,
                    intervals=[b - a for a, b in zip(stamps, stamps[1:] + [end])],
                )
                done.append((kind, final, trace, session))
            try:
                with span(tracer, "experiment.verify", e.stem):
                    expected = keyset(guarded(pp.experiment.brute_force_final_set, h0, truth))
                    verdicts = [keyset(final) == expected for _, final, _, _ in done]
            except Exception as exc:
                st.failed += len(done)
                st.errors.append(f"{e.stem}/verify: {type(exc).__name__}: {exc}")
                continue
            for (kind, final, trace, session), good in zip(done, verdicts):
                if not good:
                    st.failed += 1
                    st.wrong += 1
                    st.errors.append(f"{e.stem}/{kind}: final set differs from the exhaustive filter")
                    continue
                st.sessions.append(session)
                st.questions.append(trace.query_count)
                prev = trace.initial_size
                for step in trace.steps:
                    st.useful += step.remaining < prev
                    prev = step.remaining
                if tracer is not None:
                    tracer.counts[f"engine.queries.{kind}"] += trace.query_count
                rows.append(pp.experiment.ExperimentRow(
                    instance=e.stem, policy=kind, obs_len=wl.obs_len, h0_size=len(h0),
                    queries=trace.query_count, remaining=tuple(trace.remaining_series())))
        rows.sort(key=lambda r: (r.instance, r.policy))
        with span(tracer, "experiment.csv"):
            pp.experiment.write_all_csvs(pp.experiment.ExperimentResult(rows=rows), csv_dir)
    st.seconds = time.perf_counter() - started
    st.scale = ref.scale()
    st.reference = ref.samples
    st.rows_sha256 = hashlib.sha256((csv_dir / "rows.csv").read_bytes()).hexdigest()
    return st


def pct(values: list[float], p: int) -> float:
    """p-th percentile (inclusive method); the median for p=50."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(setup_s: float, passes: list[PassStats]) -> dict[str, float]:
    """Gated and reported end-to-end metrics over the sessions of all
    untraced passes, with every time scaled by its pass's Reference."""
    sessions = [Session(s.ttfq_s * p.scale, s.seconds * p.scale, [x * p.scale for x in s.intervals])
                for p in passes for s in p.sessions]
    asked = [s for s in sessions if s.intervals]
    intervals = [x for s in sessions for x in s.intervals]
    ttfq = [s.ttfq_s for s in sessions]
    attempted = sum(p.attempted for p in passes)
    return {
        "setup_s": setup_s,
        "session_gmean_ms": 1e3 * gmean(s.seconds for s in sessions),
        "ttfq_gmean_ms": 1e3 * gmean(ttfq),
        "query_gmean_ms": 1e3 * gmean(statistics.fmean(s.intervals) for s in asked),
        "questions_mean": statistics.fmean(passes[0].questions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs_per_s": len(sessions) / sum(p.seconds * p.scale for p in passes),
        "ttfq_p50_ms": 1e3 * pct(ttfq, 50),
        "ttfq_p95_ms": 1e3 * pct(ttfq, 95),
        "query_p50_ms": 1e3 * pct(intervals, 50),
        "query_p99_ms": 1e3 * pct(intervals, 99),
        "fail_frac": sum(p.failed for p in passes) / attempted,
    }


def per_layer(pool: list[Entry], gen_s: float, tracer: Tracer, relation_calls: Counter,
              traced: list[PassStats], untraced: list[PassStats]) -> dict[str, float]:
    """Per-layer metrics, per traced pass; times are scaled by the traced
    passes' mean Reference scale."""
    k = len(traced)
    self_s, n = tracer.self_times()
    scale = statistics.fmean(p.scale for p in traced)
    self_s = {name: t * scale for name, t in self_s.items()}
    out = {}
    for kind in ALL_POLICIES:
        out[f"policies.select_s.{kind}"] = self_s.get(f"policies.select.{kind}", 0.0) / k
        out[f"policies.selects.{kind}"] = n[f"policies.select.{kind}"] / k
        out[f"policies.candidates_scored.{kind}"] = tracer.counts[f"policies.candidates_scored.{kind}"] / k
        out[f"engine.loop_self_s.{kind}"] = self_s.get(f"engine.loop.{kind}", 0.0) / k
        out[f"engine.queries.{kind}"] = tracer.counts[f"engine.queries.{kind}"] / k
    out["plans.refine_calls"] = relation_calls["plans.refine_calls"]
    out["plans.match_calls"] = relation_calls["plans.match_calls"]
    h0 = [e.h0 for e in pool]
    out["recognizer.recognize_s"] = self_s.get("recognizer.recognize", 0.0) / k
    out["recognizer.h0_mean"] = statistics.fmean(h0)
    out["recognizer.h0_max"] = max(h0)
    out["recognizer.h0_total"] = sum(h0)
    queries = sum(sum(p.questions) for p in traced)
    out["engine.useful_query_frac"] = sum(p.useful for p in traced) / queries if queries else 1.0
    out["library.parse_s"] = self_s.get("library.parse", 0.0) / k
    out["experiment.verify_s"] = self_s.get("experiment.verify", 0.0) / k
    out["experiment.csv_s"] = self_s.get("experiment.csv", 0.0) / k
    out["domains.gen_s"] = gen_s
    out["trace.overhead_frac"] = (statistics.median(p.seconds * p.scale for p in traced)
                                  / statistics.median(p.seconds * p.scale for p in untraced) - 1)
    out["trace.unaccounted_frac"] = self_s.get("pass", 0.0) / sum(p.seconds * scale for p in traced)
    out["trace.candidates_s"] = self_s.get("trace.candidates", 0.0) / k
    return out


def write_spans(path: Path, tracer: Tracer) -> None:
    with path.open("w") as f:
        for name, start, end, parent, sid in tracer.spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "session": sid}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, wl, traced_run = args.workload, WORKLOADS[args.workload], bool(args.trace)

    t0 = time.perf_counter()
    try:
        pp = Planprobe()
    except ImportError as exc:
        print(f"perfbench: cannot import planprobe: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, _on_alarm)

    work = OUT / f"work-{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    inst_dir, csv_dir = work / "instances", work / "csv"
    tracer = Tracer() if traced_run else None
    relation_calls: Counter = Counter()
    untraced: list[PassStats] = []
    traced: list[PassStats] = []
    counted: list[PassStats] = []
    try:
        setups, gen_times, digests = [], [], set()
        for _ in range(SETUP_REPS):
            setup_tracer = Tracer() if traced_run else None
            ref = Reference()
            t = time.perf_counter()
            pool, inputs_sha256, drawn = build_inputs(pp, name, wl, args.seed, inst_dir, setup_tracer, ref)
            setups.append((import_s + time.perf_counter() - t) * ref.scale())
            digests.add(inputs_sha256)
            if setup_tracer is not None:
                gen_times.append(setup_tracer.self_times()[0]["domains.gen"] * ref.scale())
        setup_s = statistics.median(setups)

        started = time.perf_counter()
        while True:
            if not traced_run or len(untraced) <= len(traced):
                untraced.append(run_pass(pp, wl, pool, inst_dir, csv_dir, None))
            else:
                traced.append(run_pass(pp, wl, pool, inst_dir, csv_dir, tracer))
            if time.perf_counter() - started >= args.seconds and (traced or not traced_run):
                break
        if traced_run:
            # The counting wrappers cost more than the spans, so they get a
            # pass of their own that feeds no timing.
            with counting_relations(pp, relation_calls):
                counted.append(run_pass(pp, wl, pool, inst_dir, csv_dir, None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced + counted
    for err in [err for p in passes for err in p.errors][:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    if not any(p.sessions for p in untraced):
        print("perfbench: no session succeeded, so there is nothing to measure", file=sys.stderr)
        return 1
    rows_digests = {p.rows_sha256 for p in passes}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = len(digests) == 1 and len(rows_digests) == 1 and not any(p.wrong for p in passes)
    e2e = end_to_end(setup_s, untraced)
    if traced_run:
        metrics = per_layer(pool, statistics.median(gen_times), tracer, relation_calls, traced, untraced)
        units = PER_LAYER
    else:
        metrics, units = e2e, GATED

    info = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": inputs_sha256, "rows_sha256": sorted(rows_digests)[0],
        "instances": len(pool), "candidates_drawn": drawn,
        "sessions_per_pass": len(pool) * len(wl.policies),
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "sessions_timed": sum(len(p.sessions) for p in untraced),
        "questions_timed": sum(len(s.intervals) for p in untraced for s in p.sessions),
        "reference_ms": 1e3 * statistics.median(x for p in untraced for x in p.reference),
    }
    for key, value in list(info.items())[3:]:
        print(f"{name} {key} {value}")
    all_units = GATED | REPORTED | PER_LAYER
    for key, value in (e2e | metrics).items():
        print(f"{name} {key} {value:.6g} {all_units[key]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    OUT.mkdir(exist_ok=True)
    record = info | result | {
        "end_to_end": {k: {"value": v, "unit": all_units[k]} for k, v in e2e.items()},
        "per_layer": result["metrics"] if traced_run else None,
    }
    (OUT / f"{name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced_run:
        write_spans(OUT / f"{name}-s{args.seed}.spans.jsonl", tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
