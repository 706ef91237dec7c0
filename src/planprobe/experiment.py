"""Batch experiment runner and CSV output.

For each instance, the recognizer builds the initial hypothesis set, every
requested policy drives the query loop against the instance's oracle, and
one row per (instance, policy) lands in rows.csv. summary.csv aggregates
query counts, decay.csv holds the mean remaining-fraction curves, and
winrates.csv pairwise policy comparisons. Failures are collected, the run
continues, and the caller decides the exit status.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .domains import GenParams, Instance, gen_instance
from .engine import QueryOracle, run_query_loop
from .errors import PlanProbeError
from .library import parse_library, serialize_library
from .plans import (
    Hypothesis,
    hypothesis_from_dict,
    hypothesis_key,
    hypothesis_refines,
    hypothesis_to_dict,
)
from .policies import POLICY_KINDS, Policy
from .recognizer import HypothesisSet, RecognizerConfig, recognize

DEFAULT_OBS_LENS = (3, 4, 5, 6, 7)


def brute_force_final_set(h0: HypothesisSet, truth: Hypothesis) -> HypothesisSet:
    """Reference result of exhaustive querying: exactly the hypotheses that
    can be refined to the truth. May be empty when the truth is unrelated to
    the set."""
    survivors = [h for h in h0.hypotheses if hypothesis_refines(h, truth)]
    return HypothesisSet.normalized(survivors, h0.observation_count, h0.truncated)


def save_instance(instance: Instance, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.library.json").write_text(serialize_library(instance.library))
    (out_dir / f"{stem}.obs.txt").write_text("".join(f"{o}\n" for o in instance.observations))
    (out_dir / f"{stem}.truth.json").write_text(
        json.dumps(hypothesis_to_dict(instance.truth, include_weight=False), indent=2) + "\n"
    )


def read_text(path: Path) -> str:
    """The file's text, or a PlanProbeError naming the file."""
    try:
        return path.read_text()
    except OSError as e:
        raise PlanProbeError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise PlanProbeError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_observations(path: Path) -> list[str]:
    """Observation file: one basic-action name per line, or a JSON list."""
    text = read_text(path)
    if text.lstrip().startswith("["):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError):  # not JSON, or nested too deeply to be a list of strings
            doc = None
        if not isinstance(doc, list) or not all(isinstance(o, str) for o in doc):
            raise PlanProbeError(f"{path}: JSON observations must be a list of strings")
        return doc
    return [line.strip() for line in text.splitlines() if line.strip()]


def load_instance(library_path: Path, obs_path: Path, truth_path: Path) -> Instance:
    """An unreadable file, or a truth file that is not JSON, raises a
    PlanProbeError naming the file."""
    lib = parse_library(read_text(library_path))
    observations = load_observations(obs_path)
    try:
        truth = hypothesis_from_dict(json.loads(read_text(truth_path)))
    except json.JSONDecodeError as e:
        raise PlanProbeError(f"{truth_path}: truth file is not valid JSON: {e}") from None
    except RecursionError:
        raise PlanProbeError(f"{truth_path}: truth file nested too deeply") from None
    return Instance(lib, truth, tuple(observations))


def discover_instances(instance_dir: Path) -> list[tuple[str, Callable[[], Instance]]]:
    """A loader for every {stem}.library.json / .obs.txt / .truth.json
    triple, by stem. Files are read only when the loader is called."""
    out = []
    for lib_path in sorted(instance_dir.glob("*.library.json")):
        stem = lib_path.name[: -len(".library.json")]
        load = partial(load_instance, lib_path, instance_dir / f"{stem}.obs.txt", instance_dir / f"{stem}.truth.json")
        out.append((stem, load))
    if not out:
        raise PlanProbeError(f"no instances found in {instance_dir}")
    return out


@dataclass
class ExperimentSpec:
    policies: tuple[str, ...] = POLICY_KINDS
    obs_lens: tuple[int, ...] = DEFAULT_OBS_LENS
    reps: int = 10
    seed: int = 0
    gen: GenParams = GenParams()
    """The generator's library shape. Its obs_len and seed are not read:
    _instances_for sets both per instance with dataclasses.replace."""
    instance_dir: Path | None = None
    max_hypotheses: int | None = None
    verify: bool = False
    timeout: float | None = None

    def __post_init__(self):
        if not self.policies:
            raise PlanProbeError("at least one policy is required")
        for p in self.policies:
            if p not in POLICY_KINDS:
                raise PlanProbeError(f"unknown policy {p!r}")
        for name, values in (("policy", self.policies), ("obs length", self.obs_lens)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise PlanProbeError(f"{name} {repeated[0]!r} is repeated")
        if self.reps < 1:
            raise PlanProbeError("reps must be >= 1")
        if self.max_hypotheses is not None and self.max_hypotheses < 1:
            raise PlanProbeError("max_hypotheses must be >= 1")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise PlanProbeError("timeout must be finite and > 0")


@dataclass(frozen=True)
class ExperimentRow:
    instance: str
    policy: str
    obs_len: int
    h0_size: int
    queries: int
    remaining: tuple[float, ...]  # starts at 1.0, non-increasing


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _instances_for(spec: ExperimentSpec) -> list[tuple[str, Callable[[], Instance]]]:
    """Each instance's id and loader. Instance files are read by their
    loader, so a bad one fails only its instance. Instances are generated
    here, so a draw that fails ends the batch before any loop runs."""
    if spec.instance_dir is not None:
        return discover_instances(spec.instance_dir)
    out = []
    for obs_len in spec.obs_lens:
        for rep in range(spec.reps):
            seed = int.from_bytes(f"{spec.seed}:{obs_len}:{rep}".encode(), "little")
            params = replace(spec.gen, obs_len=obs_len, seed=seed)
            instance = gen_instance(params)
            out.append((f"L{obs_len}_r{rep:03d}", lambda instance=instance: instance))
    return out


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    result = ExperimentResult()
    for instance_id, load in _instances_for(spec):
        try:
            instance = load()
            started = time.monotonic()
            h0 = recognize(
                instance.library,
                list(instance.observations),
                RecognizerConfig(max_hypotheses=spec.max_hypotheses),
            )
            if h0.truncated:
                raise PlanProbeError("hypothesis set truncated by cap; query loop skipped")
            oracle = QueryOracle(instance.truth)
            expected_keys = None
            if spec.verify:
                expected_keys = {hypothesis_key(h) for h in brute_force_final_set(h0, instance.truth).hypotheses}
        except PlanProbeError as e:
            result.failures.append(f"{instance_id}: {e}")
            continue
        for policy_kind in spec.policies:
            if spec.timeout is not None and time.monotonic() - started > spec.timeout:
                result.failures.append(f"{instance_id}: timeout after {spec.timeout}s")
                break
            policy_seed = int.from_bytes(f"{spec.seed}:{instance_id}:{policy_kind}".encode(), "little")
            try:
                final, trace = run_query_loop(h0, oracle, Policy(policy_kind, policy_seed))
            except PlanProbeError as e:
                result.failures.append(f"{instance_id}/{policy_kind}: {e}")
                continue
            if expected_keys is not None:
                got = {hypothesis_key(h) for h in final.hypotheses}
                if got != expected_keys:
                    result.failures.append(
                        f"{instance_id}/{policy_kind}: final set disagrees with exhaustive filter"
                    )
            result.rows.append(
                ExperimentRow(
                    instance=instance_id,
                    policy=policy_kind,
                    obs_len=len(instance.observations),
                    h0_size=len(h0),
                    queries=trace.query_count,
                    remaining=tuple(trace.remaining_series()),
                )
            )
    result.rows.sort(key=lambda r: (r.instance, r.policy))
    return result


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_rows_csv(rows: list[ExperimentRow], path: Path) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["instance", "policy", "obs_len", "h0_size", "queries", "remaining_series"])
        for r in rows:
            writer.writerow(
                [r.instance, r.policy, r.obs_len, r.h0_size, r.queries, ";".join(_fmt(x) for x in r.remaining)]
            )


def write_summary_csv(rows: list[ExperimentRow], path: Path) -> None:
    groups: dict[tuple[str, int], list[ExperimentRow]] = {}
    for r in rows:
        groups.setdefault((r.policy, r.obs_len), []).append(r)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["policy", "obs_len", "mean_queries", "sd_queries", "mean_h0"])
        for (policy, obs_len), group in sorted(groups.items()):
            queries = [r.queries for r in group]
            sd = statistics.stdev(queries) if len(queries) > 1 else 0.0
            writer.writerow(
                [policy, obs_len, _fmt(statistics.mean(queries)), _fmt(sd),
                 _fmt(statistics.mean([r.h0_size for r in group]))]
            )


def mean_decay_curves(rows: list[ExperimentRow]) -> dict[tuple[str, int], list[float]]:
    """Mean remaining fraction per query index, padding converged runs with
    their final value so every run weighs in at every index."""
    groups: dict[tuple[str, int], list[tuple[float, ...]]] = {}
    for r in rows:
        groups.setdefault((r.policy, r.obs_len), []).append(r.remaining)
    curves: dict[tuple[str, int], list[float]] = {}
    for key, series_list in groups.items():
        width = max(len(s) for s in series_list)
        curve = []
        for i in range(width):
            curve.append(statistics.mean(s[i] if i < len(s) else s[-1] for s in series_list))
        curves[key] = curve
    return curves


def write_decay_csv(rows: list[ExperimentRow], path: Path) -> None:
    curves = mean_decay_curves(rows)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["policy", "obs_len", "query_index", "mean_remaining"])
        for (policy, obs_len), curve in sorted(curves.items()):
            for i, value in enumerate(curve):
                writer.writerow([policy, obs_len, i, _fmt(value)])


def write_winrates_csv(rows: list[ExperimentRow], path: Path) -> None:
    by_run: dict[tuple[str, int], dict[str, int]] = {}
    for r in rows:
        by_run.setdefault((r.instance, r.obs_len), {})[r.policy] = r.queries
    policies = sorted({r.policy for r in rows})
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["policy_a", "policy_b", "obs_len", "wins_a", "wins_b", "ties", "win_rate_a"])
        obs_lens = sorted({r.obs_len for r in rows})
        for obs_len in obs_lens:
            for i, a in enumerate(policies):
                for b in policies[i + 1:]:
                    wins_a = wins_b = ties = 0
                    for (_, ol), per_policy in by_run.items():
                        if ol != obs_len or a not in per_policy or b not in per_policy:
                            continue
                        if per_policy[a] < per_policy[b]:
                            wins_a += 1
                        elif per_policy[a] > per_policy[b]:
                            wins_b += 1
                        else:
                            ties += 1
                    total = wins_a + wins_b + ties
                    rate = wins_a / total if total else 0.0
                    writer.writerow([a, b, obs_len, wins_a, wins_b, ties, _fmt(rate)])


def write_all_csvs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(result.rows, out_dir / "rows.csv")
    write_summary_csv(result.rows, out_dir / "summary.csv")
    write_decay_csv(result.rows, out_dir / "decay.csv")
    write_winrates_csv(result.rows, out_dir / "winrates.csv")
