import hashlib
import itertools
import json
import math
import random

import pytest

from planprobe import domains
from planprobe.domains import GenParams, Instance, gen_instance
from planprobe.engine import QueryOracle, run_query_loop
from planprobe.errors import GenerationError
from planprobe.experiment import brute_force_final_set
from planprobe.library import serialize_library
from planprobe.plans import (
    describes,
    hypothesis_key,
    hypothesis_refines,
    hypothesis_to_dict,
    is_complete,
    is_refinement,
    iter_nodes,
    matches,
    observe_leaf,
    plan_from_dict,
    plan_to_dict,
)
from planprobe.policies import Policy
from planprobe.recognizer import enabled_expansion_targets, recognize

from . import oracles


def _strip(doc):
    doc = dict(doc)
    doc.pop("observed", None)
    if "children" in doc:
        doc["children"] = [_strip(c) for c in doc["children"]]
    return doc


class TestGenInstance:
    def test_deterministic_in_seed(self):
        for seed in (0, 7, 123):
            a = gen_instance(GenParams(seed=seed, obs_len=5))
            b = gen_instance(GenParams(seed=seed, obs_len=5))
            assert serialize_library(a.library) == serialize_library(b.library)
            assert a.observations == b.observations
            assert [plan_to_dict(p) for p in a.truth.plans] == [plan_to_dict(p) for p in b.truth.plans]

    def test_distinct_seeds_distinct_libraries(self):
        texts = {serialize_library(gen_instance(GenParams(seed=s, obs_len=3)).library) for s in range(20)}
        assert len(texts) == 20

    def test_methods_capped_by_branching(self):
        for seed in range(8):
            lib = gen_instance(GenParams(seed=seed, obs_len=3, branching=3)).library
            assert all(len(lib.methods_for(c)) <= 3 for c in lib.complex_actions)

    def test_truth_complete_and_describing(self):
        for seed in range(20):
            inst = gen_instance(GenParams(seed=seed, obs_len=5))
            for plan in inst.truth.plans:
                assert is_complete(plan, inst.library)
            assert describes(inst.truth, inst.observations)
            assert len(inst.observations) == 5

    def test_every_truth_plan_observed(self):
        for seed in range(20):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            for plan in inst.truth.plans:
                marks = [n.observed for _, n in iter_nodes(plan) if n.observed is not None]
                assert marks, "a truth plan contributed no observation"

    def test_observations_respect_ordering(self):
        # replay: strip the marks, then re-apply them in observation order,
        # requiring each marked leaf to be enabled at its turn
        for seed in range(15):
            inst = gen_instance(GenParams(seed=seed, obs_len=6))
            bare = [plan_from_dict(_strip(plan_to_dict(p))) for p in inst.truth.plans]
            mark_at = {}
            for pi, plan in enumerate(inst.truth.plans):
                for path, node in iter_nodes(plan):
                    if node.observed is not None:
                        mark_at[node.observed] = (pi, path)
            for index in range(len(inst.observations)):
                pi, path = mark_at[index]
                assert path in enabled_expansion_targets(inst.library, bare[pi])
                bare[pi] = observe_leaf(bare[pi], path, index)

    def test_depth_one_yields_two_level_trees(self):
        inst = gen_instance(GenParams(depth=1, obs_len=2, seed=4))
        for m in inst.library.methods:
            assert all(c in inst.library.basic for c in m.constituents)
        for plan in inst.truth.plans:
            assert all(len(path) <= 1 for path, _ in iter_nodes(plan))

    def test_bad_params_rejected(self):
        with pytest.raises(GenerationError):
            GenParams(num_goals=0)
        with pytest.raises(GenerationError):
            GenParams(order_density=1.5)

    def test_branching_beyond_method_count_weights_rejected(self):
        # one weight per method count: more branching would be ignored
        assert GenParams(branching=3).branching == 3
        with pytest.raises(GenerationError, match="^branching must be between 1 and 3$"):
            GenParams(branching=4)

    def test_unreachable_obs_len_fails(self):
        with pytest.raises(GenerationError):
            gen_instance(GenParams(depth=1, num_goals=1, num_basic=2, obs_len=50, seed=0))

    def test_recognizer_consistency(self):
        for seed in range(30):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            assert any(hypothesis_refines(h, inst.truth) for h in hset.hypotheses)

    @pytest.mark.parametrize("order_density", [0.0, 1.0])
    def test_generation_never_stalls(self, order_density):
        # the emitter has no empty-pool branch: every draw either yields an
        # instance or fails before emitting, for one of the two named causes
        shapes = itertools.product(range(1, 5), range(1, 10), (2, 6), (1, 3))
        for k, (depth, obs_len, num_basic, num_goals) in enumerate(shapes):
            params = GenParams(num_goals=num_goals, depth=depth, num_basic=num_basic, obs_len=obs_len,
                               seed=k % 3, order_density=order_density)
            try:
                inst = gen_instance(params)
            except GenerationError as e:
                assert "plans too small" in str(e) or "too ambiguous" in str(e), (params, e)
            else:
                assert isinstance(inst, Instance) and len(inst.observations) == obs_len, params


class TestAmbiguityWhileDrawing:
    """The generator counts chains per label while it draws and drops a draw
    at its first over-bound label; a full draw with the bounds lifted,
    checked by enumerating chains_to, must give the same verdict."""

    SHAPES = (GenParams(), GenParams(depth=5, branching=3), GenParams(depth=2, num_basic=6, order_density=0.0))

    def test_kept_exactly_when_enumerated_chains_are_within_bounds(self, monkeypatch):
        verdicts = []
        for params in self.SHAPES:
            for seed in range(6):
                full_rng = random.Random(f"{seed}:0")
                with monkeypatch.context() as m:
                    m.setattr(domains, "_MAX_CHAINS_PER_LABEL", math.inf)
                    m.setattr(domains, "_MAX_CHAINS_PER_GOAL_SUM", math.inf)
                    full = domains._gen_library(params, full_rng)
                per_pair = {(c, o): len(oracles._chains_to(full, c, o, {})) for c in full.complex_actions for o in full.basic}
                want = all(n <= domains._MAX_CHAINS_PER_LABEL for n in per_pair.values()) and all(
                    sum(per_pair[(g, o)] for g in full.goals) <= domains._MAX_CHAINS_PER_GOAL_SUM
                    for o in full.basic
                )
                rng = random.Random(f"{seed}:0")
                lib = domains._gen_library(params, rng)
                if want:
                    assert lib == full, (params, seed)
                    # truth sampling goes on from the full draw's state
                    assert rng.getstate() == full_rng.getstate(), (params, seed)
                else:
                    assert lib is None, (params, seed)
                verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_rejected_draw_builds_no_library(self, monkeypatch):
        def refuse(**fields):
            raise AssertionError("a rejected draw built a library")

        monkeypatch.setattr(domains, "PlanLibrary", refuse)
        assert domains._gen_library(GenParams(depth=150), random.Random("0:0")) is None


class TestChemistry:
    def test_catalog_instances_valid(self, chem):
        for inst in chem.values():
            assert isinstance(inst, Instance)

    def test_instances_pinned(self, chem):
        doc = {name: [hypothesis_to_dict(inst.truth, include_weight=False), list(inst.observations)]
               for name, inst in chem.items()}
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "d8fb39ec0001ea11f3026656b6dc561c57169f1bdd16c806e4d10983fb2f551a"
        # builtin_chemistry picks the pairwise strategy first, the four-way one last
        lib = chem["pairwise_first_mix"].library
        assert [m.id for m in lib.methods_for("InvestigateReaction")] == ["strategy_pairwise", "strategy_fourway"]

    def test_first_mix_two_hypotheses(self, chem):
        inst = chem["pairwise_first_mix"]
        assert len(recognize(inst.library, ["mix_AB"])) == 2

    def test_all_mix_single_hypothesis(self, chem):
        inst = chem["fourway_all_mix"]
        hset = recognize(inst.library, ["mix_ABCD"])
        assert len(hset) == 1
        assert hset.hypotheses[0].plans[0].method == "strategy_fourway"

    def test_strategy_resolves_in_one_query(self, chem):
        for name in ("pairwise_first_mix", "fourway_all_mix"):
            inst = chem[name]
            h0 = recognize(inst.library, list(inst.observations))
            for kind in ("random", "mph", "mpp", "entropy"):
                final, trace = run_query_loop(h0, QueryOracle(inst.truth), Policy(kind, 0))
                assert len(final) == 1
                assert trace.query_count <= 1

    def test_two_mixes_narrow_to_pairwise(self, chem):
        inst = chem["pairwise_two_mixes"]
        hset = recognize(inst.library, list(inst.observations))
        assert len(hset) == 1
        assert hset.hypotheses[0].plans[0].method == "strategy_pairwise"


class TestQuartet:
    def test_nine_walkthrough_assertions(self, quartet):
        from planprobe.engine import update

        # refinement relations
        assert is_refinement(quartet.p2, quartet.p1)
        assert is_refinement(quartet.p2, quartet.p3)
        assert not is_refinement(quartet.p1, quartet.p3)
        assert not is_refinement(quartet.p3, quartet.p1)
        # hypothesis-level relations
        assert not hypothesis_refines(quartet.h2, quartet.h1)
        assert not hypothesis_refines(quartet.h2, quartet.h3)
        # update behaviors
        names = {hypothesis_key(h): n for n, h in
                 [("h1", quartet.h1), ("h2", quartet.h2), ("h3", quartet.h3), ("h4", quartet.h4)]}

        def kept(out):
            return {names[hypothesis_key(h)] for h in out.hypotheses}

        assert kept(update(quartet.hset, quartet.p1, True)) == {"h1", "h2", "h3"}
        assert kept(update(quartet.hset, quartet.p2, False)) == {"h4"}
        assert kept(update(quartet.hset, quartet.p1, False)) == {"h2", "h3", "h4"}

    def test_match_witnessed_by_complete_plan(self, quartet):
        assert matches(quartet.p1, quartet.p3)
        assert is_refinement(quartet.p1, quartet.complete_main)
        assert is_refinement(quartet.p3, quartet.complete_main)

    def test_hypotheses_describe_observations(self, quartet):
        for h in (quartet.h1, quartet.h2, quartet.h3, quartet.h4):
            assert describes(h, quartet.observations)

    def test_truth_filter(self, quartet):
        final = brute_force_final_set(quartet.hset, quartet.truth)
        assert {hypothesis_key(h) for h in final.hypotheses} == \
               {hypothesis_key(quartet.h1), hypothesis_key(quartet.h3)}

    def test_first_true_query_on_p1_prunes_h4(self, quartet):
        from planprobe.engine import query_answer, update

        oracle = QueryOracle(quartet.truth)
        answer = query_answer(oracle, quartet.p1)
        assert answer is True
        out = update(quartet.hset, quartet.p1, answer)
        assert hypothesis_key(quartet.h4) not in {hypothesis_key(h) for h in out.hypotheses}
        assert len(out) == 3
