import math
import random

import pytest

from planprobe.domains import GenParams, gen_instance
from planprobe.engine import candidate_plans, relations, update
from planprobe.errors import PolicyError
from planprobe.library import PlanLibrary, RefinementMethod
from planprobe.plans import Hypothesis, PlanNode, hypothesis_key
from planprobe import policies
from planprobe.policies import (
    Policy,
    cumulative_plan_prob,
    select_min_entropy,
    select_mph,
    select_mpp,
    select_random,
)
from planprobe.recognizer import HypothesisSet, recognize

from . import oracles


def _two_hypothesis_set(quartet, w1, w2):
    return HypothesisSet.normalized(
        [Hypothesis(quartet.h1.plans, w1), Hypothesis(quartet.h4.plans, w2)], 3
    )


class TestCumulativePlanProb:
    def test_quartet_p2(self, quartet):
        assert cumulative_plan_prob(quartet.hset, quartet.p2) == pytest.approx(0.75)

    def test_plan_in_every_hypothesis(self, quartet):
        shared = PlanNode("G1")
        assert cumulative_plan_prob(quartet.hset, shared) == pytest.approx(1.0)

    def test_unrelated_plan_zero(self, quartet):
        lone = PlanNode("Z")
        assert cumulative_plan_prob(quartet.hset, lone) == pytest.approx(0.0)


class TestEntropy:
    def test_half_half(self, quartet):
        assert policies._entropy_of_weights(_two_hypothesis_set(quartet, 0.5, 0.5).weights) == pytest.approx(1.0)

    def test_singleton_zero(self, quartet):
        assert policies._entropy_of_weights(HypothesisSet.normalized([quartet.h1], 3).weights) == 0.0

    def test_four_uniform(self, quartet):
        assert policies._entropy_of_weights(quartet.hset.weights) == pytest.approx(2.0)

    def test_empty_zero(self):
        assert policies._entropy_of_weights(HypothesisSet((), 0).weights) == 0.0

    def test_uniform_is_log2_n(self):
        for n in (2, 3, 5, 8):
            hs = HypothesisSet.normalized([Hypothesis((), 1.0) for _ in range(n)], 0)
            assert policies._entropy_of_weights(hs.weights) == pytest.approx(math.log2(n))

    def test_branch_with_no_weight_zero(self):
        # the survivors of a branch can all pursue goals of prior 0
        assert policies._entropy_of_weights([0.0, 0.0]) == oracles._entropy_of_weights([0.0, 0.0]) == 0.0


class TestSelectRandom:
    def test_single_candidate(self, quartet):
        closed = {p for p in candidate_plans(quartet.hset, set())
                  if p != quartet.p2}
        pick = select_random(quartet.hset, closed, seed=0)
        assert pick == quartet.p2

    def test_same_seed_same_sequence(self, quartet):
        def draw_sequence(seed):
            closed = set()
            out = []
            hset = quartet.hset
            for _ in range(4):
                p = select_random(hset, closed, seed)
                out.append(p)
                closed.add(p)
            return out

        assert draw_sequence(9) == draw_sequence(9)

    def test_uniform_over_seeds_chi_square(self, quartet):
        # 7 distinct candidate plans; add one more via a fresh bare plan to
        # get 8 buckets, matching a uniform chi-square with df = 7
        extra = Hypothesis((PlanNode("G1"), quartet.partner2), 0.0)
        hset = HypothesisSet.normalized(list(quartet.hset.hypotheses) + [extra], 3)
        candidates = candidate_plans(hset, set())
        assert len(candidates) == 8
        counts = {p: 0 for p in candidates}
        n = 10_000
        for seed in range(n):
            counts[select_random(hset, set(), seed)] += 1
        expected = n / 8
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 30  # p ~ 1e-4 at 7 degrees of freedom

    def test_no_candidates_raises(self, quartet):
        closed = set(candidate_plans(quartet.hset, set()))
        with pytest.raises(PolicyError):
            select_random(quartet.hset, closed, 0)


class TestSelectMph:
    def test_heaviest_hypothesis_wins(self, quartet):
        hset = _two_hypothesis_set(quartet, 0.7, 0.3)
        pick = select_mph(hset, set(), seed=0)
        keys = set(quartet.h1.plans)
        assert pick in keys

    def test_fallback_when_exhausted(self, quartet):
        hset = _two_hypothesis_set(quartet, 0.7, 0.3)
        closed = set(quartet.h1.plans)
        pick = select_mph(hset, closed, seed=0)
        assert pick in quartet.h4.plans

    def test_equal_weights_uniform_over_seeds(self, quartet):
        hset = _two_hypothesis_set(quartet, 0.5, 0.5)
        # close everything except one plan per hypothesis
        closed = {quartet.partner1, quartet.partner4}
        hits = {quartet.p1: 0, quartet.p4: 0}
        n = 2000
        for seed in range(n):
            hits[select_mph(hset, closed, seed)] += 1
        for count in hits.values():
            assert abs(count - n / 2) < 150  # ~4.5 sigma


class TestSelectMpp:
    def test_quartet_argmax(self, quartet):
        scores = {t: cumulative_plan_prob(quartet.hset, t)
                  for t in candidate_plans(quartet.hset, set())}
        best = max(scores.values())
        assert best == pytest.approx(0.75)
        assert scores[quartet.p2] == pytest.approx(best)
        pick = select_mpp(quartet.hset, set(), seed=0)
        assert scores[pick] == pytest.approx(best)

    def test_single_hypothesis_all_equal(self, quartet):
        hset = HypothesisSet.normalized([quartet.h1], 3)
        pick = select_mpp(hset, set(), seed=3)
        assert pick in quartet.h1.plans
        assert cumulative_plan_prob(hset, pick) == pytest.approx(1.0)


class TestSelectMinEntropy:
    def test_even_split_beats_lopsided(self):
        lib = PlanLibrary(
            basic=frozenset({"u", "v", "w"}),
            complex_actions=frozenset({"gA", "gB", "gC"}),
            methods=(
                RefinementMethod("a1", "gA", ("u",)),
                RefinementMethod("a2", "gA", ("v",)),
                RefinementMethod("b1", "gB", ("u",)),
                RefinementMethod("b2", "gB", ("v",)),
                RefinementMethod("c1", "gC", ("w",)),
            ),
            goals=("gA", "gB", "gC"),
        )
        shared = PlanNode("gC", method="c1", children=(PlanNode("w", observed=1),))

        def one(goal, method, leaf):
            return PlanNode(goal, method=method, children=(PlanNode(leaf, observed=0),))

        hset = HypothesisSet.normalized(
            [
                Hypothesis((one("gA", "a1", "u"), shared), 1),
                Hypothesis((one("gA", "a2", "v"), shared), 1),
                Hypothesis((one("gB", "b1", "u"),), 1),
                Hypothesis((one("gB", "b2", "v"),), 1),
            ],
            2,
        )
        # shared plan splits 2/2: expected entropy 1.0; every other candidate
        # splits 1/3: 0.25 * 0 + 0.75 * log2(3) ~ 1.19
        pick = select_min_entropy(hset, set(), seed=0)
        assert pick == shared

    def test_uninformative_plan_scores_current_entropy(self, quartet):
        shared = PlanNode("G1")
        p = cumulative_plan_prob(quartet.hset, shared)
        assert p == pytest.approx(1.0)
        assert len(update(quartet.hset, shared, True)) == len(quartet.hset)

    def test_hypothetical_updates_equal_engine_updates(self, quartet):
        for t in candidate_plans(quartet.hset, set()):
            for answer, survivor_fn in ((True, oracles.survivors_if_true), (False, oracles.survivors_if_false)):
                survivors = survivor_fn(quartet.hset, t)
                if survivors:
                    out = update(quartet.hset, t, answer)
                    assert [hypothesis_key(h) for h in out.hypotheses] == \
                           [hypothesis_key(h) for h in survivors]

    def test_quartet_min_score(self, quartet):
        def expected_entropy(t):
            p = cumulative_plan_prob(quartet.hset, t)
            def ent(hyps):
                total = sum(h.weight for h in hyps)
                return -sum(
                    (h.weight / total) * math.log2(h.weight / total) for h in hyps
                ) if len(hyps) > 1 else 0.0
            return p * ent(oracles.survivors_if_true(quartet.hset, t)) + \
                (1 - p) * ent(oracles.survivors_if_false(quartet.hset, t))

        scores = {t: expected_entropy(t) for t in candidate_plans(quartet.hset, set())}
        pick = select_min_entropy(quartet.hset, set(), seed=0)
        assert scores[pick] == pytest.approx(min(scores.values()))

    def test_quartet_scores_by_hand(self, quartet):
        """Today's definition: R * H(True) + (1 - R) * H(False), with R the
        refinement mass, the True branch the match set and the False branch
        the hypotheses outside the refinement set, each renormalized. On the
        uniform quartet every branch holds one or three hypotheses."""
        third = math.log2(3)
        want = {
            # R = 1/4; True keeps three hypotheses, False the other three
            "p1": third, "p3": third, "partner4": third,
            # R = 3/4, True keeps those three and False one; or R = 1/4,
            # True keeps one and False three
            "p2": 0.75 * third, "p4": 0.75 * third,
            "partner1": 0.75 * third, "partner2": 0.75 * third,
        }
        table, alive = relations(quartet.hset)
        weights = [h.weight for h in quartet.hset.hypotheses]
        ids = {name: table.intern(getattr(quartet, name)) for name in want}
        assert set(table.candidates(alive, set())) == set(ids.values())
        for name, score in want.items():
            assert policies._expected_entropy(table, alive, weights, ids[name]) == pytest.approx(score, abs=1e-12)
        picks = {table.intern(select_min_entropy(quartet.hset, set(), seed)) for seed in range(40)}
        assert picks == {ids[name] for name in ("p2", "p4", "partner1", "partner2")}

    def test_refinement_mass_weighs_the_true_branch(self, quartet):
        """Weights 3:1:5:1 over h1..h4. Weighing p1's True branch by its
        match mass M = 0.9 instead of R = 0.3 would rank it above partner1
        and partner2, so the pick tells the two definitions apart."""
        hset = HypothesisSet.normalized(
            [Hypothesis(h.plans, w) for h, w in zip(quartet.hset.hypotheses, (3, 1, 5, 1))], 3
        )

        def ent(*ws):
            return -sum(w / sum(ws) * math.log2(w / sum(ws)) for w in ws)

        # p1: h1 refines it and h1, h2, h3 match it; False keeps h2, h3, h4
        p1 = 0.3 * ent(3, 1, 5) + 0.7 * ent(1, 5, 1)
        p1_by_match_mass = 0.9 * ent(3, 1, 5) + 0.1 * ent(1, 5, 1)
        # partner1: h1, h3, h4 refine and match it, False keeps h2; partner2
        # the other way round
        partner = 0.9 * ent(3, 5, 1)
        assert p1 < partner < p1_by_match_mass
        table, alive = relations(hset)
        weights = [h.weight for h in hset.hypotheses]
        for name, score in (("p1", p1), ("partner1", partner), ("partner2", partner)):
            t = table.intern(getattr(quartet, name))
            assert policies._expected_entropy(table, alive, weights, t) == pytest.approx(score, abs=1e-12)
        for seed in range(20):
            assert table.intern(select_min_entropy(hset, set(), seed)) == table.intern(quartet.p1)


class TestPolicyObject:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            Policy("greedy")

    def test_selectors_return_candidates(self):
        rng = random.Random(1)
        cases = 0
        for seed in range(12):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            keys = set(candidate_plans(hset, set()))
            for kind in ("random", "mph", "mpp", "entropy"):
                pick = Policy(kind, rng.randint(0, 99)).select(hset, set())
                assert pick in keys
                cases += 1
        assert cases == 48

    def test_determinism_given_inputs(self):
        cases = 0
        for seed in range(8):
            inst = gen_instance(GenParams(seed=seed, obs_len=4))
            hset = recognize(inst.library, list(inst.observations))
            for kind in ("random", "mph", "mpp", "entropy"):
                for pseed in range(8):
                    a = Policy(kind, pseed).select(hset, set())
                    b = Policy(kind, pseed).select(hset, set())
                    assert a == b
                    cases += 1
        assert cases == 256

    def test_weight_scaling_invariance(self, quartet):
        base = [Hypothesis(h.plans, h.weight) for h in quartet.hset.hypotheses]
        scaled = [Hypothesis(h.plans, h.weight * 37.0) for h in quartet.hset.hypotheses]
        a = HypothesisSet.normalized(base, 3)
        b = HypothesisSet.normalized(scaled, 3)
        for kind in ("random", "mph", "mpp", "entropy"):
            for seed in range(6):
                assert Policy(kind, seed).select(a, set()) == \
                       Policy(kind, seed).select(b, set())
