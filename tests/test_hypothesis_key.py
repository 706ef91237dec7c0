"""Differential test: plans.hypothesis_key (the set of plans) against the
digest identity it replaced, kept in oracles.py.

On the instances of test_relation_table.py, both keys must split h0, the
final set of every policy's query loop and the exhaustive filter into the
same groups of hypotheses, and no two hypotheses of a recognized set may
share a key. The recognizer merges no successors, because no two are equal:
on generated instances, the built-in chemistry domain and a hand-built
library, the keys of every set a step builds are pairwise distinct.
"""

import pytest

from planprobe.domains import GenParams, gen_instance
from planprobe.engine import QueryOracle, run_query_loop
from planprobe.experiment import brute_force_final_set
from planprobe.plans import Hypothesis, hypothesis_key
from planprobe.policies import POLICY_KINDS, Policy
from planprobe.recognizer import HypothesisSet, explain_step, recognize

from . import oracles
from .test_relation_table import INSTANCES


def _groups(hypotheses, key) -> list[list[int]]:
    """The partition of hypothesis indices into equal keys."""
    by_key: dict = {}
    for i, h in enumerate(hypotheses):
        by_key.setdefault(key(h), []).append(i)
    return sorted(by_key.values())


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_root_key_groups_like_the_digest_key(name, h0, truth):
    sets = [h0, brute_force_final_set(h0, truth)]
    for kind in POLICY_KINDS:
        final, _ = run_query_loop(h0, QueryOracle(truth), Policy(kind, 11))
        sets.append(final)
    for hset in sets:
        assert _groups(hset.hypotheses, hypothesis_key) == \
               _groups(hset.hypotheses, oracles.digest_hypothesis_key)


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_recognized_hypotheses_have_distinct_keys_and_distinct_plans(name, h0, truth):
    keys = [hypothesis_key(h) for h in h0.hypotheses]
    assert len(set(keys)) == len(keys)
    # the premise that makes the key exact: one plan per goal, so no plan twice
    assert all(len(k) == len(h.plans) for k, h in zip(keys, h0.hypotheses))


def test_key_ignores_plan_order_and_weight(quartet):
    a = Hypothesis((quartet.p1, quartet.partner1), 0.25)
    b = Hypothesis((quartet.partner1, quartet.p1), 0.5)
    assert hypothesis_key(a) == hypothesis_key(b)
    assert hypothesis_key(a) != hypothesis_key(quartet.h3)


def _steps_with_distinct_keys(lib, observations) -> int:
    """Fold explain_step from the seed, requiring pairwise distinct keys of
    one plan per goal at every step, and recognize to give the last set.
    Returns the number of hypotheses checked."""
    hset = HypothesisSet((Hypothesis((), 1.0),), 0)
    checked = 0
    for action in observations:
        hset = explain_step(lib, hset, action)
        keys = {hypothesis_key(h) for h in hset.hypotheses}
        assert len(keys) == len(hset)
        assert all(len({p.label for p in h.plans}) == len(h.plans) for h in hset.hypotheses)
        checked += len(hset)
    assert recognize(lib, list(observations)).hypotheses == hset.hypotheses
    return checked


@pytest.mark.parametrize("obs_len", range(3, 10))
def test_no_step_builds_two_equal_hypotheses(obs_len):
    checked = sum(
        _steps_with_distinct_keys(inst.library, inst.observations)
        for inst in (gen_instance(GenParams(obs_len=obs_len, seed=8000 + 100 * obs_len + k)) for k in range(30))
    )
    assert checked >= 30 * obs_len


def test_no_step_builds_two_equal_hypotheses_by_hand(chem, shared_plans_lib):
    for inst in chem.values():
        _steps_with_distinct_keys(inst.library, inst.observations)
    # many parents grow one shared plan here, each at its own mark
    assert _steps_with_distinct_keys(shared_plans_lib, ("x",) * 5) > 100
