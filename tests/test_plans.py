import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planprobe
from planprobe.domains import GenParams, gen_instance
from planprobe.errors import PlanError, PlanTooDeepError
from planprobe.library import MAX_GRAMMAR_DEPTH, PlanLibrary, RefinementMethod
from planprobe.plans import (
    Hypothesis,
    PlanNode,
    hypothesis_from_dict,
    hypothesis_refines,
    is_complete,
    is_refinement,
    matches,
    observe_leaf,
    plan_from_dict,
    plan_to_dict,
    validate_hypothesis,
    validate_plan,
)
from planprobe.recognizer import recognize

from .conftest import random_expansion, random_plan
from . import oracles
from .oracles import apply_method, open_frontier


class TestOpenFrontier:
    def test_fourway_hypothesis_after_first_mix(self, chem):
        inst = chem["pairwise_first_mix"]
        hset = recognize(inst.library, ["mix_AB"])
        fourway = next(
            h.plans[0] for h in hset.hypotheses if h.plans[0].method == "strategy_fourway"
        )
        frontier = open_frontier(fourway, inst.library)
        assert [fourway.node_at(p).label for p in frontier] == ["mix_ABCD"]

    def test_fully_observed_complete_plan_has_empty_frontier(self, chem):
        inst = chem["fourway_all_mix"]
        plan = inst.truth.plans[0]
        plan = observe_leaf(plan, (0, 0), 1)  # remaining pending leaf
        assert open_frontier(plan, inst.library) == []

    def test_single_complex_root(self, chem_lib):
        plan = PlanNode("InvestigateReaction")
        assert open_frontier(plan, chem_lib) == [()]

    def test_left_to_right_order(self, quartet):
        frontier = open_frontier(quartet.p1, quartet.library)
        labels = [quartet.p1.node_at(p).label for p in frontier]
        assert labels == ["a", "Y"]  # X's pending leaf before the open Y


class TestApplyMethod:
    def test_minimal(self, minimal_lib):
        plan = PlanNode("g")
        grown = apply_method(plan, (), minimal_lib.methods_for("g")[0])
        assert grown.method == "m"
        assert [c.label for c in grown.children] == ["a"]

    def test_input_unchanged(self, quartet):
        for plan, edit in (
            (quartet.p2, lambda p: apply_method(p, (1,), quartet.library.method("mx"))),
            (quartet.p1, lambda p: observe_leaf(p, (1, 1), 3)),
        ):
            before = plan_to_dict(plan)
            edit(plan)
            assert plan_to_dict(plan) == before

    def test_expanding_p2_reproduces_p1_structure(self, quartet):
        grown = apply_method(quartet.p2, (1,), quartet.library.method("mx"))
        stripped_p1 = plan_from_dict(_strip_marks(plan_to_dict(quartet.p1)))
        stripped_grown = plan_from_dict(_strip_marks(plan_to_dict(grown)))
        assert stripped_grown == stripped_p1

    def test_double_expansion_rejected(self, minimal_lib):
        plan = apply_method(PlanNode("g"), (), minimal_lib.methods_for("g")[0])
        with pytest.raises(PlanError, match="already expanded"):
            apply_method(plan, (), minimal_lib.methods_for("g")[0])

    def test_head_mismatch_rejected(self, quartet):
        with pytest.raises(PlanError, match="expands"):
            apply_method(quartet.p2, (1,), quartet.library.method("my"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda: PlanNode("a").node_at((5,)), "no node at path (5,)"),
            (lambda: observe_leaf(PlanNode("g", "m", (PlanNode("a"),)), (), 0), "node 'g' at () is not a leaf"),
            (lambda: observe_leaf(PlanNode("g", "m", (PlanNode("a", observed=0),)), (0,), 1),
             "leaf 'a' at (0,) already observed at 0"),
        ],
        ids=["no-node", "not-a-leaf", "already-observed"],
    )
    def test_bad_path_rejected(self, edit, message):
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            edit()


def _strip_marks(doc):
    doc = dict(doc)
    doc.pop("observed", None)
    if "children" in doc:
        doc["children"] = [_strip_marks(c) for c in doc["children"]]
    return doc


class TestRefinement:
    def test_quartet_relations(self, quartet):
        assert is_refinement(quartet.p2, quartet.p1)
        assert is_refinement(quartet.p2, quartet.p3)
        assert not is_refinement(quartet.p1, quartet.p3)
        assert not is_refinement(quartet.p3, quartet.p1)

    def test_reflexive_on_random_plans(self, quartet):
        rng = random.Random(11)
        libs = [quartet.library] + [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(3)]
        for i in range(1000):
            lib = libs[i % len(libs)]
            p = random_plan(lib, rng)
            assert is_refinement(p, p)
            assert matches(p, p)

    def test_transitive_on_random_chains(self):
        rng = random.Random(7)
        libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(4)]
        for i in range(1000):
            lib = libs[i % len(libs)]
            p = PlanNode(rng.choice(lib.goals))
            q = random_expansion(lib, p, rng, rng.randint(0, 3))
            r = random_expansion(lib, q, rng, rng.randint(0, 3))
            assert is_refinement(p, q) and is_refinement(q, r)
            assert is_refinement(p, r)

    def test_refinement_implies_match(self):
        rng = random.Random(13)
        libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(4)]
        for i in range(1000):
            lib = libs[i % len(libs)]
            p = random_plan(lib, rng, mark_p=0.0)
            q = random_expansion(lib, p, rng, rng.randint(0, 4))
            assert is_refinement(p, q)
            assert matches(p, q) and matches(q, p)


class TestMatches:
    def test_quartet_examples(self, quartet):
        assert matches(quartet.p1, quartet.p3)
        assert is_refinement(quartet.p1, quartet.complete_main)
        assert is_refinement(quartet.p3, quartet.complete_main)
        for plan in quartet.h4.plans:
            assert not matches(plan, quartet.p1)

    def test_symmetry_random(self):
        rng = random.Random(17)
        libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(4)]
        for i in range(1000):
            lib = libs[i % len(libs)]
            p, q = random_plan(lib, rng), random_plan(lib, rng)
            assert matches(p, q) == matches(q, p)

    def test_against_enumeration_oracle_small_library(self):
        lib = gen_instance(GenParams(num_goals=2, depth=2, num_basic=4, branching=2, obs_len=2, seed=3)).library
        assert oracles.library_complete_plans(lib) <= 200
        rng = random.Random(23)
        plans = [random_plan(lib, rng, mark_p=0.2) for _ in range(25)]
        for p in plans:
            for q in plans:
                assert matches(p, q) == oracles.matches_oracle(lib, p, q)


class TestHypothesisRefines:
    def test_quartet(self, quartet):
        assert not hypothesis_refines(quartet.h2, quartet.h1)
        assert not hypothesis_refines(quartet.h2, quartet.h3)
        for h in (quartet.h1, quartet.h2, quartet.h3, quartet.h4):
            assert hypothesis_refines(h, h)

    def test_cardinality_must_match(self, quartet):
        one = Hypothesis((quartet.p1,))
        two = Hypothesis((quartet.p1, quartet.partner1))
        assert not hypothesis_refines(one, two)
        assert not hypothesis_refines(two, one)

    def test_matching_permutes(self, quartet):
        # same plans, opposite order: identity must still be found
        fwd = Hypothesis((quartet.p2, quartet.partner1))
        rev = Hypothesis((quartet.partner1, quartet.p1))
        assert hypothesis_refines(fwd, rev)

    def test_pairing_by_label_equals_matching_search(self, quartet):
        # every recognized hypothesis against the truth and against the
        # others, plus targets whose labels repeat or differ from h's
        cases = held = 0
        for seed in range(30):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hyps = recognize(inst.library, list(inst.observations)).hypotheses
            targets = [inst.truth] + list(hyps[:12])
            for h in hyps[:40]:
                for g in targets + [Hypothesis(h.plans[:1] * len(h.plans)), Hypothesis(h.plans[::-1])]:
                    expected = oracles.matching_hypothesis_refines(h, g)
                    assert hypothesis_refines(h, g) == expected
                    cases += 1
                    held += expected
        twice = Hypothesis((quartet.p2, quartet.p2))
        assert not hypothesis_refines(quartet.h2, twice)
        assert not oracles.matching_hypothesis_refines(quartet.h2, twice)
        assert cases == 4224 and held > 500


class TestCanonicalKey:
    def test_deep_copy_equal(self, quartet):
        assert quartet.p1 == copy.deepcopy(quartet.p1)

    def test_distinct_plans_differ(self, quartet):
        assert quartet.p1 != quartet.p3
        # a node is never equal to a value of another type
        assert not PlanNode("a") == "a" and PlanNode("a") != "a"
        assert PlanNode("a").__eq__("a") is NotImplemented

    def test_pickled_under_another_hash_seed_equal(self):
        # A node's cached hash covers str hashes, which follow the hash
        # seed, so unpickling must rebuild the node, not restore its fields.
        script = (
            "import pickle, sys\n"
            "from planprobe.plans import PlanNode\n"
            "leaf = PlanNode('a', observed=0)\n"
            "sys.stdout.buffer.write(pickle.dumps(PlanNode('g', 'm', (leaf, PlanNode('b')))))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(planprobe.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        loaded = pickle.loads(done.stdout)
        built = PlanNode("g", "m", (PlanNode("a", observed=0), PlanNode("b")))
        assert loaded == built
        assert hash(loaded) == hash(built)
        assert {built: "hit"}.get(loaded) == "hit"
        copied = copy.deepcopy(loaded)
        assert copied == built and hash(copied) == hash(built)

    def test_no_collisions_on_random_plans(self):
        rng = random.Random(29)
        libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(3)]
        buckets = {}
        n = 100_000
        for i in range(n):
            p = random_plan(libs[i % len(libs)], rng, expand_p=0.4)
            buckets.setdefault(p, p)
        for key, plan in buckets.items():
            assert key == plan
        # equal keys were merged; re-verify a sample pairwise by structure
        sample = list(buckets.values())[:200]
        for i, p in enumerate(sample):
            for q in sample[i + 1:]:
                assert plan_to_dict(p) != plan_to_dict(q)


class TestDescribes:
    # a hypothesis describes observations when its marks are exactly them
    def test_chemistry_hypotheses(self, chem):
        inst = chem["pairwise_first_mix"]
        hset = recognize(inst.library, list(inst.observations))
        for h in hset.hypotheses:
            assert validate_hypothesis(inst.library, h) == {0: "mix_AB"}

    def test_empty_hypothesis_empty_obs(self, minimal_lib):
        assert validate_hypothesis(minimal_lib, Hypothesis(())) == {}

    def test_wrong_labels_and_gaps(self, quartet):
        marks = validate_hypothesis(quartet.library, quartet.h1)
        assert marks == dict(enumerate(["o1", "o2", "o3"]))
        assert marks != dict(enumerate(["o1", "o2"]))
        assert marks != dict(enumerate(["o2", "o1", "o3"]))
        assert marks != dict(enumerate(["o1", "o2", "o3", "o1"]))
        # two plans marking index 0 with the observed action
        lib = PlanLibrary(basic=frozenset({"a"}), complex_actions=frozenset({"g", "h"}),
                          methods=(RefinementMethod("m", "g", ("a",)), RefinementMethod("n", "h", ("a",))),
                          goals=("g", "h"))
        twice = Hypothesis((PlanNode("g", "m", (PlanNode("a", observed=0),)),
                            PlanNode("h", "n", (PlanNode("a", observed=0),))))
        with pytest.raises(PlanError, match="^observation index 0 used by two plans$"):
            validate_hypothesis(lib, twice)


class TestValidation:
    def test_children_must_follow_method(self, quartet):
        bad = PlanNode("G1", method="mg", children=(PlanNode("o1"), PlanNode("Y"), PlanNode("X")))
        with pytest.raises(PlanError, match="do not follow"):
            validate_plan(quartet.library, bad)

    def test_mark_on_complex_rejected(self, quartet):
        with pytest.raises(PlanError):
            PlanNode("X", method="mx", children=(PlanNode("o3"), PlanNode("a")), observed=1)

    def test_duplicate_marks_rejected(self, quartet):
        bad = PlanNode("G2", method="mp2",
                       children=(PlanNode("o2", observed=1), PlanNode("o3", observed=1), PlanNode("e")))
        with pytest.raises(PlanError, match="duplicate observation index"):
            validate_plan(quartet.library, bad)

    def test_non_goal_root_rejected(self, quartet):
        h = Hypothesis((PlanNode("X"),))
        with pytest.raises(PlanError, match="not a goal"):
            validate_hypothesis(quartet.library, h)

    def test_cross_plan_duplicate_marks_rejected(self, quartet):
        h = Hypothesis((quartet.p1, quartet.p4))  # both mark index 0
        with pytest.raises(PlanError, match="two plans"):
            validate_hypothesis(quartet.library, h)

    def test_two_plans_for_one_goal_rejected(self):
        # both plans hold an observation; the recognizer builds at most one
        # plan per goal, so no hypothesis could refine to this truth
        lib = PlanLibrary(basic=frozenset({"a", "b"}), complex_actions=frozenset({"g"}),
                          methods=(RefinementMethod("m", "g", ("a", "b")),), goals=("g",))
        first = PlanNode("g", method="m", children=(PlanNode("a", observed=0), PlanNode("b")))
        second = PlanNode("g", method="m", children=(PlanNode("a"), PlanNode("b", observed=1)))
        with pytest.raises(PlanError, match="^goal 'g' has more than one plan holding observations$"):
            validate_hypothesis(lib, Hypothesis((first, second)))


def test_relations_ignore_observation_marks(quartet):
    # shift p1's o1 mark: p1 still refines to complete_main
    shifted = observe_leaf(
        PlanNode("G1", method="mg",
                 children=(PlanNode("o1"), quartet.p1.children[1], PlanNode("Y"))),
        (0,), 7,
    )
    assert is_refinement(shifted, quartet.complete_main)
    # and p3 with its o1 mark moved still matches p1
    p3_shifted = PlanNode("G1", method="mg",
                          children=(PlanNode("o1", observed=5),
                                    PlanNode("X"),
                                    quartet.p3.children[2]))
    assert matches(quartet.p1, p3_shifted)


def test_serialization_round_trip():
    rng = random.Random(31)
    libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(3)]
    for i in range(300):
        p = random_plan(libs[i % len(libs)], rng)
        assert plan_from_dict(plan_to_dict(p)) == p


def test_plan_past_any_library_depth_raises_plan_error():
    def chain(levels):
        doc = {"label": "a", "observed": 0}
        for i in range(levels):
            doc = {"label": f"c{i}", "method": f"m{i}", "children": [doc]}
        return doc

    assert plan_from_dict(chain(MAX_GRAMMAR_DEPTH)).label == f"c{MAX_GRAMMAR_DEPTH - 1}"
    with pytest.raises(PlanTooDeepError, match="^plan nested deeper than any library allows$") as e:
        hypothesis_from_dict({"plans": [chain(MAX_GRAMMAR_DEPTH + 1)]})
    assert isinstance(e.value, PlanError)


def test_is_complete(chem, minimal_lib):
    assert is_complete(chem["pairwise_first_mix"].truth.plans[0], chem["pairwise_first_mix"].library)
    assert not is_complete(PlanNode("g"), minimal_lib)


@pytest.mark.parametrize(
    "doc",
    [
        {"plans": 5},
        {"plans": [], "weight": [1]},
        {"plans": [], "weight": 10 ** 400},
        {"plans": [], "weight": float("nan")},
        {"plans": [], "weight": True},
        {"plans": [{"label": "g", "method": "m", "children": 5}]},
        {"plans": [{"label": "a", "observed": "x"}]},
        {"plans": [{"label": "a", "observed": True}]},
        {"plans": [{"label": ""}]},
        {"plans": [{"label": 5}]},
        {"plans": [{"label": "g", "method": 5, "children": [{"label": "a"}]}]},
    ],
    ids=["plans-int", "weight-list", "weight-huge", "weight-nan", "weight-bool", "children-int",
         "observed-str", "observed-bool", "label-empty", "label-int", "method-int"],
)
def test_malformed_hypothesis_records_rejected(doc):
    with pytest.raises(PlanError):
        hypothesis_from_dict(doc)
