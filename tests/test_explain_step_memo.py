"""Differential test: the recognizer's plan memos against the
per-hypothesis step kept in oracles.py.

At every observation, the production `explain_step` and the reference step,
both fed the same previous set, must return the same hypotheses in the same
order (plans compared structurally, weights compared with ==) and the same
`truncated` flag. Both also raise on the same unexplainable observations.
`recognize`, which keeps one memo across the whole fold and normalizes only
its final set, must equal the reference step folded over the observations,
and chaining `explain_step` onto a prefix's `recognize` must equal
`recognize` of the longer prefix. The node memo itself, kept across a whole
fold, must give every plan the enabled targets and weight factors of the
reference's whole-tree walks. Each library's first-action sets must be the
basic actions the reference enumerates chains to, and recognition must leave
no cyclic garbage.

A set that explain_step returns holds its node memo, and the next
explain_step continues it: a chain keeps one memo, and every step from a
carried memo, whatever the action and whatever steps from the same set came
before it, even one that raised, must equal the step from a fresh memo. The
set recognize returns holds none, nor does any set derived from another.
"""

import dataclasses
import gc
import json

import pytest

from planprobe.domains import GenParams, builtin_chemistry, gen_instance
from planprobe.engine import update
from planprobe.errors import UnexplainableObservationError
from planprobe.library import MAX_GRAMMAR_DEPTH, parse_library, serialize_library
from planprobe.plans import Hypothesis
from planprobe.recognizer import (
    HypothesisSet,
    RecognizerConfig,
    _PlanMemo,
    explain_step,
    hypothesis_weight,
    recognize,
)

from . import oracles
from .conftest import builtin_quartet
from .test_library import chain_library_doc

OBS_LENS = (3, 4, 5, 6, 7, 8)
PER_OBS_LEN = 9
# The reference grows every (hypothesis, plan) pair on its own; larger sets
# only cost time here.
MAX_H0 = 400


def _instances():
    """(id, library, observations, set size after each observation)."""
    out = []
    for obs_len in OBS_LENS:
        seed = kept = 0
        while kept < PER_OBS_LEN:
            inst = gen_instance(GenParams(obs_len=obs_len, seed=7000 + 100 * obs_len + seed))
            seed += 1
            sizes = _sizes(inst.library, inst.observations)
            if sizes is not None:
                out.append((f"L{obs_len}_s{seed - 1}", inst.library, inst.observations, sizes))
                kept += 1
    q = builtin_quartet()
    out.append(("quartet", q.library, q.observations, _sizes(q.library, q.observations)))
    for name, inst in sorted(builtin_chemistry().items()):
        out.append((f"chem_{name}", inst.library, inst.observations, _sizes(inst.library, inst.observations)))
    return out


def _sizes(lib, observations):
    """Set sizes after each observation, or None past MAX_H0."""
    hset = _seed()
    sizes = []
    for action in observations:
        hset = oracles.explain_step(lib, hset, action, RecognizerConfig(max_hypotheses=MAX_H0))
        if hset.truncated:
            return None
        sizes.append(len(hset))
    return sizes


def _seed() -> HypothesisSet:
    return HypothesisSet((Hypothesis((), 1.0),), 0)


INSTANCES = _instances()
# a cap of half the largest set binds at least once
CAPPABLE = [i for i in INSTANCES if max(i[3]) >= 3]


def _check_every_step(lib, observations, cfg, hset=None) -> HypothesisSet | None:
    """Advance both steps from the reference's set at every observation and
    require identical results. Returns the final set, or None once both
    steps raise on an unexplainable observation."""
    hset = hset or _seed()
    for action in observations:
        try:
            want = oracles.explain_step(lib, hset, action, cfg)
        except UnexplainableObservationError:
            with pytest.raises(UnexplainableObservationError):
                explain_step(lib, hset, action, cfg)
            return None
        got = explain_step(lib, hset, action, cfg)
        assert got.hypotheses == want.hypotheses  # plans, order and weights, exactly
        assert got.truncated == want.truncated
        assert got.observation_count == want.observation_count
        hset = want
    return hset


def test_enough_instances():
    generated = [sizes for name, _, _, sizes in INSTANCES if name.startswith("L")]
    assert len(generated) >= 50
    assert max(s[-1] for s in generated) > 100
    assert len(CAPPABLE) >= 50


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_matches_reference_uncapped(name, lib, observations, sizes):
    final = _check_every_step(lib, observations, None)
    assert not final.truncated and len(final) == sizes[-1]


@pytest.mark.parametrize("name,lib,observations,sizes", CAPPABLE, ids=[i[0] for i in CAPPABLE])
def test_matches_reference_cap_binding(name, lib, observations, sizes):
    cap = max(sizes) // 2
    final = _check_every_step(lib, observations, RecognizerConfig(max_hypotheses=cap))
    # A cap may drop every hypothesis that could absorb a later observation.
    assert final is None or (final.truncated and len(final) <= cap)


def _configs(sizes):
    """Uncapped, and a cap of half the largest set (binding when that set has
    at least 3 hypotheses)."""
    return (
        RecognizerConfig(),
        RecognizerConfig(max_hypotheses=max(1, max(sizes) // 2)),
    )


def _fold(step, lib, observations, cfg):
    """The final set of `step` folded over the observations, or the index of
    the observation it raised on."""
    hset = _seed()
    for action in observations:
        try:
            hset = step(lib, hset, action, cfg)
        except UnexplainableObservationError as e:
            return e.index
    return hset


def _recognize_or_index(lib, observations, cfg):
    try:
        return recognize(lib, list(observations), cfg)
    except UnexplainableObservationError as e:
        return e.index


def _assert_same(got, want):
    if isinstance(want, int):
        assert got == want  # both raised, at the same observation
        return
    assert got.hypotheses == want.hypotheses  # plans, order and weights, exactly
    assert got.truncated == want.truncated
    assert got.observation_count == want.observation_count


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_recognize_equals_reference_fold(name, lib, observations, sizes):
    for cfg in _configs(sizes):
        want = _fold(oracles.explain_step, lib, observations, cfg)
        _assert_same(_recognize_or_index(lib, observations, cfg), want)


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_explain_step_chains_onto_recognize(name, lib, observations, sizes):
    for cfg in _configs(sizes):
        prefix = _recognize_or_index(lib, observations[:1], cfg)
        for k in range(1, len(observations)):
            longer = _recognize_or_index(lib, observations[: k + 1], cfg)
            if isinstance(prefix, int):
                assert longer == prefix
            else:
                try:
                    chained = explain_step(lib, prefix, observations[k], cfg)
                except UnexplainableObservationError as e:
                    chained = e.index
                _assert_same(chained, longer)
            prefix = longer


def test_cap_binds_and_drops_explanations_in_some_folds():
    """The cap config is not vacuous: it truncates some folds and leaves some
    observation unexplainable in others, where recognize says so."""
    outcomes = [_recognize_or_index(lib, obs, _configs(sizes)[1]) for _, lib, obs, sizes in CAPPABLE]
    assert sum(not isinstance(o, int) and o.truncated for o in outcomes) >= 40
    assert any(isinstance(o, int) for o in outcomes)
    name, lib, obs, sizes = next(i for i, o in zip(CAPPABLE, outcomes) if isinstance(o, int))
    with pytest.raises(UnexplainableObservationError, match="cap dropped hypotheses") as info:
        recognize(lib, list(obs), _configs(sizes)[1])
    assert info.value.truncated


def test_shared_plans_across_hypotheses_merge_like_reference(shared_plans_lib):
    """After two observations of `x` the hypotheses share plans, and many
    parents grow the same shared plan. Their successors still differ, since
    each holds the new mark where its own parent took it, so the reference,
    which merges successors with one multiset of plans, merges none, and
    every step must equal it."""
    final = _check_every_step(shared_plans_lib, ("x", "x", "x", "x"), None)
    assert len(final) > 1


def test_hypothesis_weight_matches_reference():
    for _, lib, observations, _ in INSTANCES[:: 5]:
        hset = _seed()
        for action in observations:
            hset = oracles.explain_step(lib, hset, action)
            for h in hset.hypotheses:
                assert hypothesis_weight(lib, h) == oracles.hypothesis_weight(lib, h)


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_node_memo_matches_whole_tree_walks(name, lib, observations, sizes):
    """One node memo serves the whole fold, as in recognize. At every
    observation, every plan's memoized targets and weight factors must equal
    the reference's whole-tree walks."""
    memo = _PlanMemo(lib)
    hset = _seed()
    for action in observations:
        hset = oracles.explain_step(lib, hset, action)
        for plan in {p for h in hset.hypotheses for p in h.plans}:
            want = oracles.enabled_expansion_targets(lib, plan)
            _, targets, factors = memo[plan]
            assert [path for path, _ in targets] == want
            assert [node for _, node in targets] == [plan.node_at(path) for path in want]
            assert (lib.goal_priors[plan.label],) + factors == oracles.weight_factors(lib, plan)


def test_unexplainable_observation_raises_like_reference():
    # after o1 starts G1, no plan can absorb d or e: they sit only in G2's
    # methods, behind o2
    q = builtin_quartet()
    hset = oracles.explain_step(q.library, _seed(), q.observations[0])
    actions = sorted(q.library.basic | q.library.complex_actions)
    outcomes = [_check_every_step(q.library, (action,), None, hset) for action in actions]
    assert None in outcomes
    assert outcomes[actions.index("d")] is None and outcomes[actions.index("e")] is None


def _chain_targets(lib):
    """Per complex label, the basic actions the reference has a chain to."""
    cache: dict = {}
    return {label: {b for b in lib.basic if oracles._chains_to(lib, label, b, cache)} for label in lib.complex_actions}


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_first_actions_are_the_chain_targets(name, lib, observations, sizes):
    assert lib.first_actions == _chain_targets(lib)


def test_first_actions_at_the_depth_limit():
    # c0 -> ... -> c199 -> (a, b) with a before b, and c100 -> (c101, e),
    # e -> d: b is no first action, and d is one from c100 up
    doc = chain_library_doc(MAX_GRAMMAR_DEPTH)
    doc["basic"] += ["b", "d"]
    doc["complex"].append("e")
    doc["methods"][-1].update(children=["a", "b"], order=[[0, 1]])
    doc["methods"][100]["children"].append("e")
    doc["methods"].append({"id": "me", "head": "e", "children": ["d"]})
    lib = parse_library(json.dumps(doc))
    want = {f"c{i}": {"a", "d"} if i <= 100 else {"a"} for i in range(MAX_GRAMMAR_DEPTH)} | {"e": {"d"}}
    assert lib.first_actions == _chain_targets(lib) == want


def test_recognize_leaves_no_cyclic_garbage():
    gc.disable()
    try:
        gc.collect()
        for _, lib, observations, _ in INSTANCES:
            recognize(lib, list(observations))
            assert gc.collect() == 0
    finally:
        gc.enable()


def _fresh(hset: HypothesisSet) -> HypothesisSet:
    """hset without its memo, so that a step from it starts a fresh one."""
    return HypothesisSet(hset.hypotheses, hset.observation_count, hset.truncated)


def _step_or_index(lib, hset, action, cfg):
    try:
        return explain_step(lib, hset, action, cfg)
    except UnexplainableObservationError as e:
        return e.index


def _carried_chain(lib, observations, cfg) -> list[bool]:
    """Chain explain_step from the seed over the observations, and require
    that it keeps the memo its first step made. Before each observation's
    step, the same set first takes another basic action. Both steps must
    equal a fresh memo's, and so must the observation's step after an
    alternative that raised. Returns whether each alternative raised."""
    basic = sorted(lib.basic)
    hset, memo, raised = _seed(), None, []
    for k, action in enumerate(observations):
        other = [a for a in basic if a != action][k % (len(basic) - 1)]
        alternative = _step_or_index(lib, hset, other, cfg)
        _assert_same(alternative, _step_or_index(lib, _fresh(hset), other, cfg))
        raised.append(isinstance(alternative, int))
        got = _step_or_index(lib, hset, action, cfg)
        _assert_same(got, _step_or_index(lib, _fresh(hset), action, cfg))
        if isinstance(got, int):
            break
        memo = memo or got.memo
        assert got.memo is memo and memo.lib is lib
        hset = got
    return raised


@pytest.mark.parametrize("name,lib,observations,sizes", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_chain_carries_one_memo_and_equals_fresh_memo_steps(name, lib, observations, sizes):
    for cfg in _configs(sizes):
        _carried_chain(lib, observations, cfg)


def test_carried_memo_alternatives_raise_in_some_steps():
    """The alternatives are not vacuous: some raise and some extend."""
    raised = [r for _, lib, obs, sizes in INSTANCES for cfg in _configs(sizes) for r in _carried_chain(lib, obs, cfg)]
    assert sum(raised) >= 50 and raised.count(False) >= 50


MULTI_STEP = [i for i in INSTANCES if len(i[2]) >= 2]


@pytest.mark.parametrize("name,lib,observations,sizes", MULTI_STEP, ids=[i[0] for i in MULTI_STEP])
def test_equal_library_object_gets_a_fresh_memo(name, lib, observations, sizes):
    twin = parse_library(serialize_library(lib))
    assert twin == lib and twin is not lib
    prefix = explain_step(lib, _seed(), observations[0])
    got = explain_step(twin, prefix, observations[1])
    assert got.memo is not prefix.memo and got.memo.lib is twin
    _assert_same(got, explain_step(lib, _fresh(prefix), observations[1]))


def test_recognized_and_derived_sets_carry_no_memo():
    q = builtin_quartet()
    hset = _seed()
    for action in q.observations:
        hset = explain_step(q.library, hset, action)
    assert hset.memo is not None
    h0 = recognize(q.library, list(q.observations))
    assert h0 == hset
    unheld = (
        h0,
        HypothesisSet.normalized(hset.hypotheses, hset.observation_count),
        dataclasses.replace(hset),
        update(hset, hset.hypotheses[0].plans[0], True),
    )
    assert [s.memo for s in unheld] == [None, None, None, None]
