import random

import pytest

from planprobe import engine
from planprobe.domains import GenParams, gen_instance
from planprobe.engine import (
    QueryOracle,
    candidate_plans,
    query_answer,
    run_query_loop,
    update,
)
from planprobe.errors import OracleInconsistencyError, PolicyError
from planprobe.experiment import ExperimentSpec, _instances_for, brute_force_final_set
from planprobe.plans import (
    Hypothesis,
    PlanNode,
    hypothesis_key,
    hypothesis_refines,
    is_refinement,
    matches,
)
from planprobe.policies import POLICY_KINDS, Policy
from planprobe.recognizer import HypothesisSet, RecognizerConfig, recognize

from . import oracles


def _names(quartet, hset):
    table = {hypothesis_key(h): name for name, h in
             [("h1", quartet.h1), ("h2", quartet.h2), ("h3", quartet.h3), ("h4", quartet.h4)]}
    return {table[hypothesis_key(h)] for h in hset.hypotheses}


class TestQueryAnswer:
    def test_refinable_toward_truth(self, quartet):
        oracle = QueryOracle(quartet.truth)
        assert query_answer(oracle, quartet.p1)
        assert query_answer(oracle, quartet.p2)

    def test_member_of_truth(self, quartet):
        oracle = QueryOracle(quartet.truth)
        assert query_answer(oracle, quartet.complete_main)

    def test_h4_plans_rejected_by_single_plan_truth(self, quartet):
        oracle = QueryOracle(Hypothesis((quartet.complete_main,)))
        assert not query_answer(oracle, quartet.p4)
        assert not query_answer(oracle, quartet.partner4)


class TestUpdate:
    def test_true_answer_prunes_exactly_h4(self, quartet):
        out = update(quartet.hset, quartet.p1, True)
        assert _names(quartet, out) == {"h1", "h2", "h3"}
        assert sum(h.weight for h in out.hypotheses) == pytest.approx(1.0)

    def test_false_on_p2_removes_first_three(self, quartet):
        out = update(quartet.hset, quartet.p2, False)
        assert _names(quartet, out) == {"h4"}

    def test_false_on_p1_removes_only_h1(self, quartet):
        out = update(quartet.hset, quartet.p1, False)
        assert _names(quartet, out) == {"h2", "h3", "h4"}

    def test_empty_result_raises(self, quartet):
        lone = HypothesisSet.normalized([quartet.h4], 3)
        with pytest.raises(OracleInconsistencyError):
            update(lone, quartet.p4, False)

    def test_true_never_removes_owner(self):
        rng = random.Random(3)
        cases = 0
        for seed in range(20):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            plans = candidate_plans(hset, set())
            for _ in range(50):
                p = rng.choice(plans)
                out = update(hset, p, True)
                owners = {hypothesis_key(h) for h in hset.hypotheses if any(matches(q, p) for q in h.plans)}
                kept = {hypothesis_key(h) for h in out.hypotheses}
                assert owners == kept
                cases += 1
        assert cases == 1000

    def test_monotone_and_idempotent(self):
        rng = random.Random(5)
        cases = 0
        for seed in range(20):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            plans = candidate_plans(hset, set())
            oracle = QueryOracle(inst.truth)
            for _ in range(50):
                p = rng.choice(plans)
                answer = query_answer(oracle, p)
                once = update(hset, p, answer)
                assert len(once) <= len(hset)
                twice = update(once, p, answer)
                assert [hypothesis_key(h) for h in twice.hypotheses] == \
                       [hypothesis_key(h) for h in once.hypotheses]
                assert [h.weight for h in twice.hypotheses] == \
                       pytest.approx([h.weight for h in once.hypotheses])
                cases += 1
        assert cases == 1000

    def test_truncated_set_stays_truncated_and_shares_its_table(self):
        inst = gen_instance(GenParams(obs_len=6, seed=1))
        h0 = recognize(inst.library, list(inst.observations), RecognizerConfig(max_hypotheses=30))
        assert h0.truncated and len(h0) == 30
        table = engine.relations(h0)[0]
        # a True answer that keeps 24 of 30, then a False one that keeps 4
        first = candidate_plans(h0, set())[2]
        h1 = update(h0, first, True)
        second = candidate_plans(h1, {first})[1]
        h2 = update(h1, second, False)
        assert (len(h1), len(h2)) == (24, 4)
        for got, (before, plan, answer) in ((h1, (h0, first, True)), (h2, (h1, second, False))):
            assert got.truncated is True and got.observation_count == 6
            assert engine.relations(got)[0] is table
            want = oracles.update(before, plan, answer)
            assert got.hypotheses == want.hypotheses  # plans and weights, exactly


class TestCandidatePlans:
    def test_quartet_dedup(self, quartet):
        plans = candidate_plans(quartet.hset, set())
        assert len(plans) == 7  # partner1 and partner3 coincide

    def test_closed_removed(self, quartet):
        closed = {quartet.p1}
        plans = candidate_plans(quartet.hset, closed)
        assert len(plans) == 6
        assert all(p != quartet.p1 for p in plans)

    def test_all_closed_empty(self, quartet):
        closed = set(candidate_plans(quartet.hset, set()))
        assert candidate_plans(quartet.hset, closed) == []


class TestRunQueryLoop:
    def test_singleton_makes_no_queries(self, quartet):
        lone = HypothesisSet.normalized([quartet.h1], 3)
        held = []
        for kind in POLICY_KINDS:
            final, trace = run_query_loop(lone, QueryOracle(quartet.truth), Policy(kind, 0))
            assert final is lone and trace.query_count == 0
            held.append(lone.relations)
        # the first loop built the set's table, and the other three ran on it
        table, alive = held[0]
        assert isinstance(table, engine.RelationTable) and alive == 1
        assert all(r is held[0] for r in held)

        # h4 uses another root method, so h1 cannot be refined to its plans
        with pytest.raises(OracleInconsistencyError, match="no hypothesis can be refined"):
            run_query_loop(lone, QueryOracle(Hypothesis(quartet.h4.plans)), Policy("random", 0))
        with pytest.raises(OracleInconsistencyError, match="no hypothesis can be refined"):
            run_query_loop(HypothesisSet((), 0), QueryOracle(quartet.truth), Policy("random", 0))

    def test_final_set_matches_exhaustive_filter(self, quartet):
        expected = {hypothesis_key(h) for h in brute_force_final_set(quartet.hset, quartet.truth).hypotheses}
        for kind in ("random", "mph", "mpp", "entropy"):
            for seed in range(4):
                final, trace = run_query_loop(quartet.hset, QueryOracle(quartet.truth), Policy(kind, seed))
                assert {hypothesis_key(h) for h in final.hypotheses} == expected
                sizes = [s.remaining for s in trace.steps]
                assert sizes == sorted(sizes, reverse=True)
                assert trace.remaining_series()[0] == 1.0

    def test_termination_bound(self, quartet):
        distinct = len(candidate_plans(quartet.hset, set()))
        for kind in ("random", "mph", "mpp", "entropy"):
            _, trace = run_query_loop(quartet.hset, QueryOracle(quartet.truth), Policy(kind, 1))
            assert trace.query_count <= distinct

    def test_truth_surviving_every_step(self):
        for seed in range(10):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            h0 = recognize(inst.library, list(inst.observations))
            oracle = QueryOracle(inst.truth)
            refiners = {hypothesis_key(h) for h in h0.hypotheses if hypothesis_refines(h, inst.truth)}
            closed = set()
            current = h0
            policy = Policy("random", seed)
            while len(current) > 1 and candidate_plans(current, closed):
                plan = policy.select(current, closed)
                current = update(current, plan, query_answer(oracle, plan))
                closed.add(plan)
                assert refiners <= {hypothesis_key(h) for h in current.hypotheses}

    def test_truncated_input_rejected(self, quartet):
        truncated = HypothesisSet.normalized([quartet.h1, quartet.h2], 3, truncated=True)
        with pytest.raises(ValueError, match="untruncated"):
            run_query_loop(truncated, QueryOracle(quartet.truth), Policy("random", 0))

    def test_unrelated_truth_rejected(self, quartet):
        # single-plan truth: every two-plan hypothesis fails the cardinality
        # requirement, so nothing can be refined to it
        lone_truth = Hypothesis((quartet.complete_main,))
        with pytest.raises(OracleInconsistencyError):
            run_query_loop(quartet.hset, QueryOracle(lone_truth), Policy("random", 0))

    def test_policy_contract_enforced(self, quartet):
        class Stubborn:
            kind = "stubborn"

            def __init__(self, plan):
                self.plan = plan

            def select(self, hset, closed):
                return self.plan

        with pytest.raises(PolicyError):
            run_query_loop(quartet.hset, QueryOracle(quartet.truth), Stubborn(quartet.complete_main))

    @pytest.mark.parametrize("asks", ["held_by_none", "held_by_pruned"])
    def test_plan_outside_the_set_rejected(self, quartet, asks):
        # complete_main is held by no hypothesis; partner4 only by h4, which
        # the False answer to p4 removes
        plans = {"held_by_none": [quartet.complete_main], "held_by_pruned": [quartet.p4, quartet.partner4]}[asks]

        class Asks:
            kind = "stub"

            def select(self, hset, closed):
                return plans.pop(0)

        with pytest.raises(PolicyError, match="outside the hypothesis set"):
            run_query_loop(quartet.hset, QueryOracle(quartet.truth), Asks())
        assert not plans

    def test_settled_plan_rejected(self, quartet):
        # p1 is answered True, which settles p2 (p1 refines p2) unasked
        class AsksP1ThenP2:
            kind = "stub"

            def __init__(self):
                self.plans = [quartet.p1, quartet.p2]

            def select(self, hset, closed):
                return self.plans.pop(0)

        with pytest.raises(PolicyError, match="settled plan"):
            run_query_loop(quartet.hset, QueryOracle(quartet.truth), AsksP1ThenP2())

    def test_mark_variant_of_asked_plan_rejected(self, quartet):
        # p3 with its observation mark dropped is still the question p3
        unmarked = PlanNode("G1", method="mg", children=(
            PlanNode("o1", observed=0), PlanNode("X"),
            PlanNode("Y", method="my", children=(PlanNode("o3"), PlanNode("b")))))
        assert unmarked != quartet.p3

        class AsksP3Twice:
            kind = "stub"

            def __init__(self):
                self.plans = [quartet.p3, unmarked]

            def select(self, hset, closed):
                return self.plans.pop(0)

        with pytest.raises(PolicyError, match="already-queried"):
            run_query_loop(quartet.hset, QueryOracle(quartet.truth), AsksP3Twice())

    def test_final_set_order_insensitive(self):
        for seed in range(8):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            h0 = recognize(inst.library, list(inst.observations))
            oracle = QueryOracle(inst.truth)
            finals = set()
            for kind in ("random", "mph", "mpp", "entropy"):
                for pseed in (0, 1):
                    final, _ = run_query_loop(h0, oracle, Policy(kind, pseed))
                    finals.add(frozenset(hypothesis_key(h) for h in final.hypotheses))
            assert len(finals) == 1

    def test_trace_serialization(self, quartet):
        final, trace = run_query_loop(quartet.hset, QueryOracle(quartet.truth), Policy("entropy", 0))
        doc = trace.to_dict()
        assert doc["initial_size"] == 4
        assert doc["final_size"] == len(final)
        assert len(doc["steps"]) == trace.query_count
        for step in doc["steps"]:
            assert {"plan_key", "plan", "answer", "remaining"} <= step.keys()


def test_loop_relation_calls_over_the_obs_5_7_batch(monkeypatch):
    """Relation calls of the four loops over the obs-5/7 batch, counted at
    the engine's names, so the oracle's calls count too. Rule (b) and every
    column check a plan's root label before they evaluate a relation, and a
    count above these means one stopped doing so. perfbench reports such
    counts as plans.refine_calls and plans.match_calls."""
    calls = {is_refinement: 0, matches: 0}

    def counted(relation):
        def call(p, q):
            calls[relation] += 1
            return relation(p, q)
        return call

    monkeypatch.setattr(engine, "is_refinement", counted(is_refinement))
    monkeypatch.setattr(engine, "matches", counted(matches))
    for _, load in _instances_for(ExperimentSpec(obs_lens=(5, 7), reps=30, seed=11)):
        inst = load()
        h0 = recognize(inst.library, list(inst.observations))
        for kind in POLICY_KINDS:
            run_query_loop(h0, QueryOracle(inst.truth), Policy(kind, 0))
    assert (calls[is_refinement], calls[matches]) == (2647, 1102)
