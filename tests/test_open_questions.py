"""Differential test: the query loop that names plans up to marks and closes
forced answers unasked, against the root-keyed loop in oracles.py.

On the instances of test_relation_table.py, under every policy, the final
set must equal the root-keyed loop's and the exhaustive filter. Before every
select, each closed plan must have been asked (up to marks) or be forced,
and each open candidate must be forced by neither rule; the plan asked must
be open. A plan is forced by (a) when every live hypothesis holds a plan
refinable from it, and by (b) when it refines to a plan answered True.

The no_premise cases break the premise on the same instances: the agent
also pursues a goal that no hypothesis holds, so no hypothesis refines to
the truth. The loop must refuse before its first question, under every
policy.
"""

import pytest

from planprobe.engine import QueryOracle, query_answer, run_query_loop
from planprobe.errors import OracleInconsistencyError
from planprobe.experiment import brute_force_final_set
from planprobe.plans import Hypothesis, PlanNode, hypothesis_key, is_refinement
from planprobe.policies import POLICY_KINDS, Policy

from . import oracles
from .test_relation_table import INSTANCES


class Audited:
    """Policy that checks, at each select, which plans the loop closed."""

    def __init__(self, kind: str, seed: int, truth):
        self.kind = kind
        self.policy = Policy(kind, seed)
        self.oracle = QueryOracle(truth)
        self.answered: list[tuple[PlanNode, bool]] = []
        self.settled: list[int] = []  # plans closed unasked, at each select

    def forced(self, hset, p: PlanNode) -> tuple[bool, bool]:
        by_premise = all(
            any(is_refinement(p, q) for q in h.plans) for h in hset.hypotheses)
        by_answer = any(answer and is_refinement(p, q) for q, answer in self.answered)
        return by_premise, by_answer

    def select(self, hset, closed):
        asked = {oracles.plan_shape(q) for q, _ in self.answered}
        assert len(closed) >= len(asked)
        self.settled.append(len(closed) - len(asked))
        for root in closed:
            if oracles.plan_shape(root) not in asked:
                assert any(self.forced(hset, root))
        for p in oracles.candidate_plans(hset, closed):
            assert not any(self.forced(hset, p))
        plan = self.policy.select(hset, closed)
        assert oracles.plan_shape(plan) not in asked
        assert not any(self.forced(hset, plan))
        self.answered.append((plan, query_answer(self.oracle, plan)))
        return plan


@pytest.mark.parametrize("premise", [True, False], ids=["premise", "no_premise"])
@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_only_open_questions_and_same_final_set(name, h0, truth, premise):
    if not premise:
        # the extra plan's label is no goal of the library, so no
        # hypothesis of h0 can pair with it
        truth = Hypothesis(truth.plans + (PlanNode("goal outside the library"),))
        for kind in POLICY_KINDS:
            policy = Audited(kind, len(h0), truth)
            with pytest.raises(OracleInconsistencyError, match="no hypothesis can be refined"):
                run_query_loop(h0, QueryOracle(truth), policy)
            assert policy.answered == []
        return
    expected = {hypothesis_key(h) for h in brute_force_final_set(h0, truth).hypotheses}
    for kind in POLICY_KINDS:
        policy = Audited(kind, len(h0), truth)
        final, trace = run_query_loop(h0, QueryOracle(truth), policy)
        assert [s.plan for s in trace.steps] == [q for q, _ in policy.answered]
        counted = 0
        for step, settled in zip(trace.steps, policy.settled):
            counted += step.settled_by_premise + step.settled_by_answer
            assert counted == settled
        old_final, _ = oracles.root_key_query_loop(h0, truth, kind, len(h0))
        assert {hypothesis_key(h) for h in final.hypotheses} == expected
        assert {hypothesis_key(h) for h in old_final.hypotheses} == expected
