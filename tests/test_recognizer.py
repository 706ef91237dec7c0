import dataclasses
import gc
import json
import math
import re

import pytest

from planprobe.domains import GenParams, gen_instance
from planprobe.errors import LibraryValidationError, PlanError, UnexplainableObservationError
from planprobe.library import MAX_GRAMMAR_DEPTH, PlanLibrary, RefinementMethod, parse_library, serialize_library
from planprobe.plans import (
    Hypothesis,
    PlanNode,
    describes,
    is_complete,
    hypothesis_key,
    hypothesis_refines,
    plan_to_dict,
)
from planprobe.recognizer import (
    HypothesisSet,
    RecognizerConfig,
    enabled_expansion_targets,
    explain_step,
    hypothesis_weight,
    recognize,
)

from . import oracles
from .test_library import chain_library_doc


def _ordered_lib(order):
    return PlanLibrary(
        basic=frozenset({"a", "b"}),
        complex_actions=frozenset({"g"}),
        methods=(RefinementMethod("m", "g", ("a", "b"), frozenset(order)),),
        goals=("g",),
    )


class TestEnabledTargets:
    def test_ordering_gates_second_constituent(self):
        lib = _ordered_lib({(0, 1)})
        hset = recognize(lib, ["a"])
        plan = hset.hypotheses[0].plans[0]
        assert enabled_expansion_targets(lib, plan) == [(1,)]
        hset = recognize(lib, ["a", "b"])
        assert len(hset) == 1

    def test_empty_order_enables_all(self):
        lib = _ordered_lib(set())
        hset = recognize(lib, ["a"])
        plan = hset.hypotheses[0].plans[0]
        assert enabled_expansion_targets(lib, plan) == [(1,)]
        hset2 = recognize(lib, ["b"])
        assert enabled_expansion_targets(lib, hset2.hypotheses[0].plans[0]) == [(0,)]

    def test_blocked_observation_unexplainable(self):
        lib = _ordered_lib({(0, 1)})
        with pytest.raises(UnexplainableObservationError) as info:
            recognize(lib, ["b"])
        assert info.value.index == 0

    def test_predecessor_must_be_fully_observed_at_every_level(self):
        # g -> (sub, b) ordered; sub -> (a, a2): b enabled only once the whole
        # sub subtree is expanded and observed.
        lib = PlanLibrary(
            basic=frozenset({"a", "a2", "b"}),
            complex_actions=frozenset({"g", "sub"}),
            methods=(
                RefinementMethod("mg", "g", ("sub", "b"), frozenset({(0, 1)})),
                RefinementMethod("ms", "sub", ("a", "a2")),
            ),
            goals=("g",),
        )
        hset = recognize(lib, ["a"])
        plan = hset.hypotheses[0].plans[0]
        targets = {plan.node_at(p).label for p in enabled_expansion_targets(lib, plan)}
        assert targets == {"a2"}
        hset = recognize(lib, ["a", "a2"])
        plan = hset.hypotheses[0].plans[0]
        targets = {plan.node_at(p).label for p in enabled_expansion_targets(lib, plan)}
        assert targets == {"b"}

    def test_chemistry_open_leaves_enabled(self, chem):
        inst = chem["pairwise_first_mix"]
        hset = recognize(inst.library, ["mix_AB"])
        pairwise = next(h.plans[0] for h in hset.hypotheses if h.plans[0].method == "strategy_pairwise")
        labels = {pairwise.node_at(p).label for p in enabled_expansion_targets(inst.library, pairwise)}
        assert labels == {"mix_AC", "mix_AD", "mix_BC", "mix_BD", "mix_CD"}


class TestRecognize:
    def test_chemistry_first_mix(self, chem):
        inst = chem["pairwise_first_mix"]
        hset = recognize(inst.library, ["mix_AB"])
        assert len(hset) == 2
        assert {h.plans[0].method for h in hset.hypotheses} == {"strategy_pairwise", "strategy_fourway"}

    def test_minimal_single_hypothesis(self, minimal_lib):
        hset = recognize(minimal_lib, ["a"])
        assert len(hset) == 1
        assert hset.hypotheses[0].weight == pytest.approx(1.0)

    def test_unknown_action_reports_index(self, minimal_lib):
        with pytest.raises(UnexplainableObservationError) as info:
            recognize(minimal_lib, ["a", "zzz"])
        assert info.value.index == 1
        assert info.value.action == "zzz"
        assert info.value.kind == "unknown"

    def test_complex_action_not_observable(self, minimal_lib):
        with pytest.raises(UnexplainableObservationError) as info:
            recognize(minimal_lib, ["g"])
        assert info.value.action == "g"
        assert info.value.kind == "complex"
        assert str(info.value) == "observation 0 ('g', complex action) cannot be explained by any hypothesis"

    def test_empty_observations_rejected(self, minimal_lib):
        with pytest.raises(Exception):
            recognize(minimal_lib, [])

    def test_every_output_describes(self, chem):
        inst = chem["pairwise_two_mixes"]
        hset = recognize(inst.library, list(inst.observations))
        for h in hset.hypotheses:
            assert describes(h, list(inst.observations))
        for seed in range(10):
            instance = gen_instance(GenParams(seed=seed, obs_len=4))
            out = recognize(instance.library, list(instance.observations))
            for h in out.hypotheses:
                assert describes(h, list(instance.observations))

    def test_deterministic(self):
        inst = gen_instance(GenParams(seed=5, obs_len=4))
        text = serialize_library(inst.library)
        outs = []
        for _ in range(2):
            lib = parse_library(text)
            hset = recognize(lib, list(inst.observations))
            outs.append([(h.weight, [plan_to_dict(p) for p in h.plans]) for h in hset.hypotheses])
        assert outs[0] == outs[1]

    def test_weights_normalized(self):
        for seed in range(15):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            assert abs(sum(h.weight for h in hset.hypotheses) - 1.0) <= 1e-9

    def test_no_duplicate_hypotheses(self):
        for seed in range(15):
            inst = gen_instance(GenParams(seed=seed, obs_len=5))
            hset = recognize(inst.library, list(inst.observations))
            keys = [hypothesis_key(h) for h in hset.hypotheses]
            assert len(keys) == len(set(keys))

    def test_small_instance_completeness_vs_enumeration(self):
        checked = 0
        seed = 0
        while checked < 12:
            seed += 1
            params = GenParams(num_goals=2, depth=2, num_basic=4, branching=2, obs_len=3, seed=seed)
            inst = gen_instance(params)
            if oracles.library_complete_plans(inst.library) > 200:
                continue
            got = oracles.hypothesis_set_signature(recognize(inst.library, list(inst.observations)))
            want = oracles.naive_recognize(inst.library, list(inst.observations))
            assert got == want
            checked += 1

    def test_marked_complex_frontier_node_is_rejected(self):
        # a hand-built plan whose unexpanded complex node `s` carries a mark:
        # explaining an action below `s` must not expand an observed node
        lib = PlanLibrary(
            basic=frozenset({"a", "x"}),
            complex_actions=frozenset({"g", "s"}),
            methods=(RefinementMethod("mg", "g", ("s", "x")), RefinementMethod("ms", "s", ("a",))),
            goals=("g",),
        )
        plan = PlanNode("g", method="mg", children=(PlanNode("s", observed=0), PlanNode("x")))
        hset = HypothesisSet((Hypothesis((plan,), 1.0),), 1)
        with pytest.raises(PlanError, match=re.escape("node 's' at (0,) is an observed leaf")):
            explain_step(lib, hset, "a")

    def test_open_node_with_undeclared_label_is_rejected(self):
        # a hand-built plan whose open node `nowhere` the library does not
        # declare: explaining an action must not treat it as a dead end
        lib = PlanLibrary(
            basic=frozenset({"a", "x"}),
            complex_actions=frozenset({"g", "s"}),
            methods=(RefinementMethod("mg", "g", ("s", "x")), RefinementMethod("ms", "s", ("a",))),
            goals=("g",),
        )
        plan = PlanNode("g", method="mg", children=(PlanNode("nowhere"), PlanNode("x")))
        hset = HypothesisSet((Hypothesis((plan,), 1.0),), 1)
        with pytest.raises(LibraryValidationError, match="^methods_for: unknown label 'nowhere'$"):
            explain_step(lib, hset, "a")

    @pytest.mark.parametrize("node, message", [
        # an expanded node naming a method id the library lacks, and one
        # whose label is a basic action: the memo reads both from the
        # library on a miss
        (PlanNode("s", method="nowhere", children=(PlanNode("a"),)), "no method with id 'nowhere'"),
        (PlanNode("x", method="ms", children=(PlanNode("a"),)), "methods_for: basic label 'x'"),
    ], ids=["unknown-method", "basic-label"])
    def test_expanded_node_the_library_cannot_weigh_is_rejected(self, node, message):
        lib = PlanLibrary(
            basic=frozenset({"a", "x"}),
            complex_actions=frozenset({"g", "s"}),
            methods=(RefinementMethod("mg", "g", ("s", "x")), RefinementMethod("ms", "s", ("a",))),
            goals=("g",),
        )
        h = Hypothesis((PlanNode("g", method="mg", children=(node, PlanNode("x"))),), 1.0)
        with pytest.raises(LibraryValidationError, match=f"^{re.escape(message)}$"):
            hypothesis_weight(lib, h)
        with pytest.raises(LibraryValidationError, match=f"^{re.escape(message)}$"):
            explain_step(lib, HypothesisSet((h,), 1), "a")

    def test_several_observations_at_the_depth_limit(self):
        # c0 -> ... -> c199 -> (a, b) with a before b, and c100 -> (c101, e),
        # e -> d: `b` is observed at the deepest leaf and `d` grafts a chain
        # 102 levels down
        doc = chain_library_doc(MAX_GRAMMAR_DEPTH)
        doc["basic"] += ["b", "d"]
        doc["complex"].append("e")
        doc["methods"][-1].update(children=["a", "b"], order=[[0, 1]])
        doc["methods"][100]["children"].append("e")
        doc["methods"].append({"id": "me", "head": "e", "children": ["d"]})
        lib = parse_library(json.dumps(doc))
        observations = ["a", "b", "d"]
        hset = recognize(lib, observations)
        assert len(hset) == 1
        (plan,) = hset.hypotheses[0].plans
        assert is_complete(plan, lib) and describes(hset.hypotheses[0], observations)
        assert plan.node_at((0,) * 100 + (1, 0)).observed == 2
        assert plan.node_at((0,) * (MAX_GRAMMAR_DEPTH - 1) + (1,)).observed == 1
        with pytest.raises(UnexplainableObservationError) as info:
            recognize(lib, ["b"])
        assert info.value.index == 0

    def test_truth_always_recoverable(self):
        for seed in range(25):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            assert any(hypothesis_refines(h, inst.truth) for h in hset.hypotheses)


class TestExplainStepGrowth:
    def test_growth_when_all_parents_extend(self):
        grew = 0
        for seed in range(12):
            inst = gen_instance(GenParams(seed=seed, obs_len=5))
            lib = inst.library
            hset = HypothesisSet((Hypothesis((), 1.0),), 0)
            for action in inst.observations:
                survivors = 0
                for h in hset.hypotheses:
                    single = HypothesisSet((Hypothesis(h.plans, 1.0),), hset.observation_count)
                    try:
                        explain_step(lib, single, action)
                        survivors += 1
                    except UnexplainableObservationError:
                        pass
                nxt = explain_step(lib, hset, action)
                if survivors == len(hset):
                    assert len(nxt) >= len(hset)
                    grew += 1
                hset = nxt
        assert grew > 0


class TestWeightModel:
    def test_uniform_choice_product(self):
        lib = PlanLibrary(
            basic=frozenset({"x", "y"}),
            complex_actions=frozenset({"gA", "gB"}),
            methods=(
                RefinementMethod("mA1", "gA", ("x",)),
                RefinementMethod("mA2", "gA", ("y",)),
                RefinementMethod("mB", "gB", ("x",)),
            ),
            goals=("gA", "gB"),
        )
        hset = recognize(lib, ["x"])
        by_goal = {h.plans[0].label: h.weight for h in hset.hypotheses}
        assert by_goal["gA"] == pytest.approx(1 / 3)
        assert by_goal["gB"] == pytest.approx(2 / 3)

    def test_single_method_grammar_uniform(self, chem):
        inst = chem["pairwise_first_mix"]
        hset = recognize(inst.library, ["mix_AB"])
        assert [h.weight for h in hset.hypotheses] == pytest.approx([0.5, 0.5])

    def test_weight_counts_every_expansion(self, quartet):
        w = hypothesis_weight(quartet.library, quartet.h1)
        # plan 1: prior 0.5, G1 expanded (2 methods), X expanded (1 method)
        # plan 2: prior 0.5, G2 expanded (2 methods)
        assert w == pytest.approx(0.5 * 0.5 * 1.0 * 0.5 * 0.5)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="weights sum to nan"):
            HypothesisSet((Hypothesis((), math.nan),), 0)


class TestCapAndConfig:
    def test_cap_keeps_heaviest(self):
        inst = gen_instance(GenParams(seed=2, obs_len=4))
        lib, obs = inst.library, list(inst.observations)
        prefix = recognize(lib, obs[:-1])
        full = explain_step(lib, prefix, obs[-1])
        cap = len(full) // 2
        capped = explain_step(lib, prefix, obs[-1], RecognizerConfig(max_hypotheses=cap))
        assert not prefix.truncated and not full.truncated
        assert capped.truncated and len(capped) == cap
        # unnormalized products: normalizing can tie two weights that differ
        ranked = sorted(full.hypotheses, key=lambda h: -hypothesis_weight(lib, h))
        weights = [hypothesis_weight(lib, h) for h in ranked]
        assert weights[cap - 1] == weights[cap], "the cut should split a tie, so emission order decides"
        assert [h.plans for h in capped.hypotheses] == [h.plans for h in ranked[:cap]]

    def test_one_plan_per_goal(self):
        for seed in range(10):
            inst = gen_instance(GenParams(seed=seed, obs_len=5))
            hset = recognize(inst.library, list(inst.observations))
            for h in hset.hypotheses:
                roots = [p.label for p in h.plans]
                assert len(roots) == len(set(roots))

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            RecognizerConfig(max_hypotheses=0)


class TestCyclicCollector:
    """The fold runs with the cyclic collector off and restores whatever
    state it found."""

    def test_back_on_after_an_unexplainable_observation(self, quartet):
        assert gc.isenabled()
        # after o1 starts G1, no plan can absorb d
        with pytest.raises(UnexplainableObservationError):
            recognize(quartet.library, ["o1", "d"])
        assert gc.isenabled()
        with pytest.raises(UnexplainableObservationError):
            recognize(quartet.library, ["not an action"])
        assert gc.isenabled()

    def test_left_off_when_it_was_off(self, quartet):
        gc.disable()
        try:
            recognize(quartet.library, list(quartet.observations))
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_hypothesis_is_a_frozen_slotted_record():
    plan = PlanNode("g", method="m", children=(PlanNode("a", observed=0),))
    h = Hypothesis((plan,), 0.5)
    assert not hasattr(h, "__dict__")
    assert h == Hypothesis((PlanNode("g", method="m", children=(PlanNode("a", observed=0),)),), 0.5)
    assert h != Hypothesis((plan,), 0.25) and h != Hypothesis((), 0.5)
    assert hash(h) == hash(((plan,), 0.5))
    assert repr(h) == "Hypothesis(plans=(PlanNode('g', method='m', children=(PlanNode('a', observed=0),)),), weight=0.5)"
    assert Hypothesis(()).weight == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.weight = 1.0
