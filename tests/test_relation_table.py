"""Differential test: the query loop's relation-table path against the
list-based rules in oracles.py.

At every question of a loop under each policy, the set the loop holds (which
shares the loop's relation table) and the same set without a table (which
gets a one-off table) must both agree exactly with the reference set that
the list-based update rules produce: hypotheses and weights, candidate
plans in order, survivor lists for both answers, plan scores compared with
==, and the selected plan.
"""

from dataclasses import replace

import pytest

from planprobe.domains import GenParams, builtin_chemistry, builtin_quartet, gen_instance
from planprobe.engine import (
    QueryOracle,
    candidate_plans,
    query_answer,
    relations,
    run_query_loop,
    survivors_if_false,
    survivors_if_true,
    update,
)
from planprobe.policies import POLICY_KINDS, Policy, cumulative_plan_prob
from planprobe.recognizer import HypothesisSet, recognize

from . import oracles

OBS_LENS = (3, 4, 5, 6)
PER_OBS_LEN = 13
# The reference rescans every hypothesis for every candidate at every
# question, so larger sets are left to the acceptance sweep.
MAX_H0 = 120


def _instances():
    out = []
    for obs_len in OBS_LENS:
        seed = kept = 0
        while kept < PER_OBS_LEN:
            inst = gen_instance(GenParams(obs_len=obs_len, seed=1000 * obs_len + seed))
            seed += 1
            h0 = recognize(inst.library, list(inst.observations))
            if 1 < len(h0) <= MAX_H0:
                out.append((f"L{obs_len}_s{seed - 1}", h0, inst.truth))
                kept += 1
    q = builtin_quartet()
    out.append(("quartet", q.hset, q.truth))
    for name, inst in sorted(builtin_chemistry().items()):
        out.append((f"chem_{name}", recognize(inst.library, list(inst.observations)), inst.truth))
    return out


INSTANCES = _instances()


class Checked:
    """Policy that, before answering each select of run_query_loop, checks
    the loop's set against the reference set advanced by the list-based
    rules."""

    def __init__(self, kind: str, seed: int, h0: HypothesisSet, truth):
        self.kind = kind
        self.policy = Policy(kind, seed)
        self.oracle = QueryOracle(truth)
        self.reference = h0
        self.checked = 0

    def select(self, hset, closed):
        ref = self.reference
        assert hset.relations is not None
        plain = HypothesisSet(hset.hypotheses, hset.observation_count, hset.truncated)
        assert hset.hypotheses == ref.hypotheses  # plans and weights, exactly
        expected = oracles.candidate_plans(ref, closed)
        for view in (hset, plain):
            assert candidate_plans(view, closed) == expected
            for t in expected:
                assert survivors_if_true(view, t) == oracles.survivors_if_true(ref, t)
                assert survivors_if_false(view, t) == oracles.survivors_if_false(ref, t)
                assert cumulative_plan_prob(view, t) == oracles.cumulative_plan_prob(ref, t)
            picked = self.policy.select(view, closed)
            assert picked == oracles.SELECTORS[self.kind](ref, closed, self.policy.seed)
        answer = query_answer(self.oracle, picked)
        self.reference = oracles.update(ref, picked, answer)
        self.checked += 1
        return picked


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_table_path_equals_list_reference(name, h0, truth):
    for kind in POLICY_KINDS:
        policy = Checked(kind, seed=len(h0), h0=h0, truth=truth)
        final, trace = run_query_loop(h0, QueryOracle(truth), policy)
        assert policy.checked == trace.query_count
        assert final.hypotheses == policy.reference.hypotheses


def test_sibling_branches_share_one_table():
    # Updates of one set with opposite answers share its table while
    # neither live mask contains the other. Columns filled while scoring one
    # branch must be extended, not reused as they are, on the other.
    checked = 0
    for _, h0, _ in INSTANCES:
        base = replace(h0, relations=relations(h0))
        splits = [x for x in oracles.candidate_plans(h0, set())
                  if oracles.survivors_if_true(h0, x) and oracles.survivors_if_false(h0, x)]
        if not splits:
            continue
        branches = [(update(base, splits[0], a), oracles.update(h0, splits[0], a)) for a in (True, False)]
        for branch, ref in branches + branches:
            assert branch.hypotheses == ref.hypotheses
            for t in oracles.candidate_plans(h0, set()):
                assert survivors_if_true(branch, t) == oracles.survivors_if_true(ref, t)
                assert survivors_if_false(branch, t) == oracles.survivors_if_false(ref, t)
        checked += 1
    assert checked >= 40
