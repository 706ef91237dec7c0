"""Differential test: the query loop's relation-table path against the
list-based rules in oracles.py.

At every question of a loop under each policy, the set the loop holds (which
shares h0's relation table) and a new set of the same hypotheses (which
builds its own table on first use) must both agree exactly with the
reference set that the list-based update rules produce: hypotheses and
weights, candidate plans in order, the update of each candidate under both
answers, plan scores compared with ==, and the selected plan.

A chain library at the grammar depth limit, whose deepest label has two
methods, checks that a table is built over plans that deep and that the loop
runs on it.
"""

import json

import pytest

from planprobe.domains import GenParams, builtin_chemistry, gen_instance
from planprobe import engine, experiment
from planprobe.engine import (
    QueryOracle,
    RelationTable,
    candidate_plans,
    query_answer,
    relations,
    run_query_loop,
    update,
)
from planprobe.errors import OracleInconsistencyError
from planprobe.library import MAX_GRAMMAR_DEPTH, parse_library
from planprobe.plans import is_refinement, matches
from planprobe.policies import POLICY_KINDS, Policy, cumulative_plan_prob
from planprobe.recognizer import HypothesisSet, recognize

from . import oracles
from .conftest import builtin_quartet
from .test_library import chain_library_doc

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


def _assert_updates_match(view, ref, plan):
    """update of view by plan gives the reference's hypotheses and weights
    under both answers, or raises where the reference raises."""
    for answer in (True, False):
        try:
            want = oracles.update(ref, plan, answer)
        except OracleInconsistencyError:
            with pytest.raises(OracleInconsistencyError):
                update(view, plan, answer)
        else:
            assert update(view, plan, answer).hypotheses == want.hypotheses


class Checked:
    """Policy that, before answering each select of run_query_loop, checks
    the loop's set, and a new set of its hypotheses with its own table,
    against the reference set advanced by the list-based rules."""

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
                _assert_updates_match(view, ref, t)
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


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_update_chained_over_the_loop_answers_gives_its_final_set(name, h0, truth):
    # update and the loop prune by one rule: public updates over the loop's
    # questions and answers, on a set with its own table, end where it does
    for kind in POLICY_KINDS:
        final, trace = run_query_loop(h0, QueryOracle(truth), Policy(kind, seed=len(h0)))
        current = HypothesisSet(h0.hypotheses, h0.observation_count, h0.truncated)
        for step in trace.steps:
            current = update(current, step.plan, step.answer)
            assert len(current) == step.remaining
        assert current.hypotheses == final.hypotheses  # plans and weights, exactly


def test_sibling_branches_share_one_table():
    # Updates of one set with opposite answers share its table while
    # neither live mask contains the other. Columns read while scoring one
    # branch are reused as they are on the other, and must be right there.
    checked = 0
    for _, h0, _ in INSTANCES:
        # a new set, so its table starts empty whatever ran on h0 before
        base = HypothesisSet(h0.hypotheses, h0.observation_count, h0.truncated)
        splits = [x for x in oracles.candidate_plans(h0, set())
                  if oracles.survivors_if_true(h0, x) and oracles.survivors_if_false(h0, x)]
        if not splits:
            continue
        branches = [(update(base, splits[0], a), oracles.update(h0, splits[0], a)) for a in (True, False)]
        for branch, ref in branches + branches:
            assert branch.hypotheses == ref.hypotheses
            for t in oracles.candidate_plans(h0, set()):
                _assert_updates_match(branch, ref, t)
        checked += 1
    assert checked >= 40


def test_columns_are_exact_over_h0(monkeypatch):
    # The random and mph loops read columns only at the premise check and
    # the update, each at a live mask smaller than h0 after the first
    # answer; what they filled must still be the relation over all of h0,
    # and no column is evaluated twice.
    filled = 0
    for _, h0, truth in INSTANCES:
        base = HypothesisSet(h0.hypotheses, h0.observation_count, h0.truncated)
        for kind in ("random", "mph"):
            run_query_loop(base, QueryOracle(truth), Policy(kind, seed=len(h0)))
        table = relations(base)[0]
        filled += len(table._refine) + len(table._match)
        for t, plan in enumerate(table.plans):
            for column, related in ((table.refine(t), is_refinement), (table.match(t), matches)):
                want = sum(1 << i for i, h in enumerate(base.hypotheses)
                           if any(related(plan, p) for p in h.plans))
                assert column == want
        for name in ("is_refinement", "matches"):
            monkeypatch.setattr(engine, name, lambda *_: pytest.fail("a column was filled twice"))
        for t in range(len(table.plans)):
            table.refine(t)
            table.match(t)
        monkeypatch.undo()
    assert filled >= 300


def test_every_loop_over_one_h0_shares_its_table(monkeypatch):
    # Every policy's loop, and every set update derives in it, holds the
    # table that h0 built on first use.
    shared = 0
    for _, h0, truth in INSTANCES:
        h0 = HypothesisSet(h0.hypotheses, h0.observation_count, h0.truncated)
        table = relations(h0)[0]
        for kind in POLICY_KINDS:
            final, _ = run_query_loop(h0, QueryOracle(truth), Policy(kind, seed=len(h0)))
            if len(final) > 1:
                assert final.relations[0] is table
                shared += 1
    assert shared >= 40

    # run_experiment builds one table per instance, not one per policy
    built = []

    class Counting(RelationTable):
        def __init__(self, hset):
            built.append(hset)
            super().__init__(hset)

    monkeypatch.setattr(engine, "RelationTable", Counting)
    result = experiment.run_experiment(experiment.ExperimentSpec(obs_lens=(4,), reps=6, seed=5))
    assert not result.failures
    assert len(result.rows) == 6 * len(POLICY_KINDS)
    # one table per instance, an instance of a single hypothesis included
    sizes = [r.h0_size for r in result.rows if r.policy == POLICY_KINDS[0]]
    assert 1 in sizes and sum(size > 1 for size in sizes) >= 4
    assert len(built) == len(sizes) == 6


def test_loop_runs_on_a_table_of_plans_at_the_depth_limit():
    # c0 -> c1 -> ... -> c199 -> a, where c199 -> a by two methods: h0 holds
    # two plans of MAX_GRAMMAR_DEPTH + 1 levels that differ only in their
    # deepest method, so they are two questions, and one answer settles it.
    doc = chain_library_doc(MAX_GRAMMAR_DEPTH)
    doc["methods"].append({"id": "m_alt", "head": f"c{MAX_GRAMMAR_DEPTH - 1}", "children": ["a"]})
    h0 = recognize(parse_library(json.dumps(doc)), ["a"])
    assert len(h0) == 2
    node, levels = h0.hypotheses[0].plans[0], 1
    while node.children:
        node, levels = node.children[0], levels + 1
    assert levels == MAX_GRAMMAR_DEPTH + 1
    assert RelationTable(h0).per_hyp == ((0,), (1,))
    for truth in h0.hypotheses:
        for kind in POLICY_KINDS:
            final, trace = run_query_loop(h0, QueryOracle(truth), Policy(kind, seed=0))
            assert trace.query_count == 1
            assert [h.plans for h in final.hypotheses] == [truth.plans]
