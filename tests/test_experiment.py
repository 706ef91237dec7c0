import csv
import json
import statistics

import pytest

from planprobe.domains import GenParams, gen_instance
from planprobe.experiment import (
    ExperimentSpec,
    _instances_for,
    brute_force_final_set,
    discover_instances,
    mean_decay_curves,
    run_experiment,
    save_instance,
    write_all_csvs,
)
from planprobe.errors import PlanProbeError
from planprobe.library import serialize_library
from planprobe.plans import Hypothesis, hypothesis_key, plan_to_dict
from planprobe.policies import POLICY_KINDS
from planprobe.recognizer import HypothesisSet, recognize

ZERO_WEIGHT = "every hypothesis left has weight 0, so none can be normalized"


def save_zero_prior_instances(directory):
    """Two instances whose truth pursues goal h, of prior 0. In zero_loop,
    g also explains the observation, so recognition succeeds and the answer
    that drops g leaves weight 0. In zero_recognize only h explains it."""
    directory.mkdir(parents=True, exist_ok=True)
    methods = [{"id": "mg", "head": "g", "children": ["a", "c"]},
               {"id": "mh", "head": "h", "children": ["a"]},
               {"id": "mb", "head": "h", "children": ["b"]}]
    library = {"basic": ["a", "b", "c"], "complex": ["g", "h"], "goals": ["g", "h"],
               "goal_priors": {"g": 1.0, "h": 0.0}, "methods": methods}
    for stem, method, action in (("zero_loop", "mh", "a"), ("zero_recognize", "mb", "b")):
        truth = {"plans": [{"label": "h", "method": method, "children": [{"label": action, "observed": 0}]}]}
        (directory / f"{stem}.library.json").write_text(json.dumps(library))
        (directory / f"{stem}.obs.txt").write_text(f"{action}\n")
        (directory / f"{stem}.truth.json").write_text(json.dumps(truth))


# a bad file of instance_001 -> what its failure says after the stem
BAD_INSTANCE_FILES = {
    "obs-not-observed": ("obs.txt", b"b0\n", "truth does not describe the observation sequence"),
    "library-not-a-list": ("library.json", b'{"basic": 5}', "'basic' must be a list"),
    "truth-not-json": ("truth.json", b"{", "{path}: truth file is not valid JSON: "
                       "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "truth-missing": ("truth.json", None, "{path}: No such file or directory"),
    "obs-not-utf8": ("obs.txt", b"\xff\n", "{path}: not UTF-8 text (invalid start byte)"),
}


def break_instance_file(directory, case) -> str:
    """Rewrite (or delete) one file of instance_001 as BAD_INSTANCE_FILES
    says, and return the failure line the batch should record for it."""
    suffix, content, message = BAD_INSTANCE_FILES[case]
    path = directory / f"instance_001.{suffix}"
    if content is None:
        path.unlink()
    else:
        path.write_bytes(content)
    return f"instance_001: {message.format(path=path)}"


class TestBruteForceFinalSet:
    def test_quartet_keeps_refiners(self, quartet):
        out = brute_force_final_set(quartet.hset, quartet.truth)
        assert {hypothesis_key(h) for h in out.hypotheses} == \
               {hypothesis_key(quartet.h1), hypothesis_key(quartet.h3)}
        assert sum(h.weight for h in out.hypotheses) == pytest.approx(1.0)

    def test_complete_truth_member_kept(self, quartet):
        truth_hyp = Hypothesis(quartet.truth.plans, 0.5)
        h0 = HypothesisSet.normalized([truth_hyp, quartet.h4], 3)
        out = brute_force_final_set(h0, quartet.truth)
        assert hypothesis_key(truth_hyp) in {hypothesis_key(h) for h in out.hypotheses}

    def test_unrelated_truth_gives_empty(self, quartet):
        lone_truth = Hypothesis((quartet.complete_main,))
        out = brute_force_final_set(quartet.hset, lone_truth)
        assert len(out) == 0


class TestInstanceIO:
    def test_save_discover_load_round_trip(self, tmp_path):
        inst = gen_instance(GenParams(seed=3, obs_len=4))
        save_instance(inst, tmp_path, "instance_000")
        found = discover_instances(tmp_path)
        assert len(found) == 1
        stem, load = found[0]
        assert stem == "instance_000"
        loaded = load()
        assert serialize_library(loaded.library) == serialize_library(inst.library)
        assert loaded.observations == inst.observations
        assert [plan_to_dict(p) for p in loaded.truth.plans] == [plan_to_dict(p) for p in inst.truth.plans]

    def test_json_observation_list(self, tmp_path):
        inst = gen_instance(GenParams(seed=3, obs_len=4))
        save_instance(inst, tmp_path, "instance_000")
        obs_path = tmp_path / "instance_000.obs.txt"
        obs_path.write_text(str(list(inst.observations)).replace("'", '"'))
        _, load = discover_instances(tmp_path)[0]
        loaded = load()
        assert loaded.observations == inst.observations

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(PlanProbeError):
            discover_instances(tmp_path)


@pytest.mark.parametrize("cap", [0, -1])
def test_spec_rejects_a_cap_below_one_when_built(cap):
    # before any instance is generated, and as a PlanProbeError, which the
    # per-instance handler and the CLI report in one line
    with pytest.raises(PlanProbeError, match="^max_hypotheses must be >= 1$"):
        ExperimentSpec(obs_lens=(3,), reps=1, max_hypotheses=cap)


class TestRunExperiment:
    def test_generated_batch_shape(self):
        spec = ExperimentSpec(obs_lens=(3, 4), reps=2, seed=11, verify=True)
        result = run_experiment(spec)
        assert not result.failures
        assert len(result.rows) == 2 * 2 * 4
        assert result.rows == sorted(result.rows, key=lambda r: (r.instance, r.policy))
        for row in result.rows:
            assert row.remaining[0] == 1.0
            assert list(row.remaining) == sorted(row.remaining, reverse=True)
            assert row.queries == len(row.remaining) - 1

    def test_reps_are_distinct_instances(self):
        # the acceptance batch at seven observations: the seed of every rep
        # is derived from its full seed string
        spec = ExperimentSpec(obs_lens=(7,), reps=100, seed=2026)
        instances = [load() for _, load in _instances_for(spec)]
        assert len({(serialize_library(i.library), i.observations) for i in instances}) == 100

    def test_single_row(self, tmp_path):
        inst = gen_instance(GenParams(seed=5, obs_len=3))
        save_instance(inst, tmp_path, "only")
        spec = ExperimentSpec(policies=("entropy",), reps=1, seed=0, instance_dir=tmp_path)
        result = run_experiment(spec)
        assert len(result.rows) == 1
        assert result.rows[0].instance == "only"
        assert result.rows[0].obs_len == 3

    def test_timeout_records_failures(self):
        spec = ExperimentSpec(obs_lens=(3,), reps=2, seed=1, timeout=1e-9)
        result = run_experiment(spec)
        assert len(result.failures) == 2
        assert all("timeout" in f for f in result.failures)

    @pytest.mark.parametrize("case", BAD_INSTANCE_FILES)
    def test_bad_instance_file_fails_one_instance(self, tmp_path, case):
        for i in range(3):
            save_instance(gen_instance(GenParams(seed=7 + i, obs_len=4)), tmp_path, f"instance_{i:03d}")
        spec = ExperimentSpec(instance_dir=tmp_path, verify=True)
        clean = run_experiment(spec)
        assert not clean.failures
        failure = break_instance_file(tmp_path, case)
        result = run_experiment(spec)
        assert result.failures == [failure]
        assert result.rows == [r for r in clean.rows if r.instance != "instance_001"]

    def test_zero_total_weight_fails_one_instance(self, tmp_path):
        save_zero_prior_instances(tmp_path)
        save_instance(gen_instance(GenParams(seed=5, obs_len=3)), tmp_path, "good")
        loop_failures = [f"zero_loop/{kind}: {ZERO_WEIGHT}" for kind in POLICY_KINDS]
        for verify, first in ((False, loop_failures), (True, [f"zero_loop: {ZERO_WEIGHT}"])):
            result = run_experiment(ExperimentSpec(instance_dir=tmp_path, verify=verify))
            assert result.failures == first + [f"zero_recognize: {ZERO_WEIGHT}"]
            assert [(r.instance, r.policy) for r in result.rows] == [("good", k) for k in sorted(POLICY_KINDS)]

    def test_deterministic(self):
        spec = ExperimentSpec(obs_lens=(3,), reps=3, seed=9)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.rows == b.rows

    def test_convergence_leaves_irreducible_ambiguity(self):
        # exhaustive querying ends at the refinement filter, which for a
        # batch is a mean remaining fraction in the tens of percent, with
        # some instances keeping more than one hypothesis
        spec = ExperimentSpec(policies=("entropy",), obs_lens=(7,), reps=30, seed=2026)
        result = run_experiment(spec)
        finals = [r.remaining[-1] for r in result.rows]
        assert 0.03 <= statistics.mean(finals) <= 0.7
        assert any(r.remaining[-1] * r.h0_size > 1.5 for r in result.rows)


class TestCsvOutput:
    @pytest.fixture
    def result_and_dir(self, tmp_path):
        spec = ExperimentSpec(obs_lens=(3, 4), reps=3, seed=2)
        result = run_experiment(spec)
        write_all_csvs(result, tmp_path)
        return result, tmp_path

    def test_rows_schema(self, result_and_dir):
        result, out = result_and_dir
        with (out / "rows.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0].keys()) == {"instance", "policy", "obs_len", "h0_size", "queries", "remaining_series"}
        assert len(rows) == len(result.rows)
        for row in rows:
            series = [float(x) for x in row["remaining_series"].split(";")]
            assert series[0] == 1.0

    def test_summary_recomputable_from_rows(self, result_and_dir):
        result, out = result_and_dir
        with (out / "summary.csv").open() as f:
            summary = list(csv.DictReader(f))
        assert set(summary[0].keys()) == {"policy", "obs_len", "mean_queries", "sd_queries", "mean_h0"}
        for line in summary:
            group = [r for r in result.rows
                     if r.policy == line["policy"] and r.obs_len == int(line["obs_len"])]
            assert float(line["mean_queries"]) == pytest.approx(statistics.mean(r.queries for r in group))
            assert float(line["mean_h0"]) == pytest.approx(statistics.mean(r.h0_size for r in group))

    def test_decay_curves_monotone(self, result_and_dir):
        result, out = result_and_dir
        curves = mean_decay_curves(result.rows)
        for curve in curves.values():
            assert curve[0] == pytest.approx(1.0)
            assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
        with (out / "decay.csv").open() as f:
            decay = list(csv.DictReader(f))
        assert set(decay[0].keys()) == {"policy", "obs_len", "query_index", "mean_remaining"}

    def test_winrates_accounting(self, result_and_dir):
        result, out = result_and_dir
        with (out / "winrates.csv").open() as f:
            rates = list(csv.DictReader(f))
        instances = {r.instance for r in result.rows}
        per_len = {}
        for r in result.rows:
            per_len.setdefault(r.obs_len, set()).add(r.instance)
        for line in rates:
            total = int(line["wins_a"]) + int(line["wins_b"]) + int(line["ties"])
            assert total == len(per_len[int(line["obs_len"])])
