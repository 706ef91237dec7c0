"""Acceptance gate: one test per release criterion, each printing a PASS
line with its measured numbers (run with -s or -rA to see them).

Criteria 1 and 8 share a 200-instance sweep; criteria 5 and 6 share a
100-instance batch at seven observations.
"""

import math
import random
import statistics

import pytest

from planprobe.domains import GenParams, builtin_chemistry, gen_instance
from planprobe.engine import (
    QueryOracle,
    candidate_plans,
    query_answer,
    run_query_loop,
    update,
)
from planprobe.errors import UnexplainableObservationError
from planprobe.experiment import ExperimentSpec, brute_force_final_set, mean_decay_curves, run_experiment
from planprobe.plans import (
    Hypothesis,
    PlanNode,
    hypothesis_key,
    hypothesis_refines,
    is_refinement,
    matches,
)
from planprobe.policies import POLICY_KINDS, Policy, _entropy_of_weights
from planprobe.recognizer import HypothesisSet, explain_step, recognize

from . import oracles
from .conftest import builtin_quartet, random_expansion, random_plan

POLICIES = tuple(POLICY_KINDS)


def _sweep_instances(target=200, max_h0=500):
    """Instances within the criterion-1 envelope: goals <= 5, depth <= 3,
    obs <= 5. Oversized hypothesis sets are skipped and counted."""
    shapes = [
        dict(num_goals=5, depth=3, obs_len=5),
        dict(num_goals=4, depth=2, obs_len=4),
        dict(num_goals=3, depth=3, obs_len=3),
        dict(num_goals=5, depth=2, obs_len=5),
    ]
    kept, skipped, seed = [], 0, 0
    while len(kept) < target:
        shape = shapes[seed % len(shapes)]
        inst = gen_instance(GenParams(seed=seed, **shape))
        seed += 1
        h0 = recognize(inst.library, list(inst.observations))
        if len(h0) > max_h0:
            skipped += 1
            continue
        kept.append((inst, h0))
    return kept, skipped


@pytest.fixture(scope="module")
def sweep():
    return _sweep_instances()


@pytest.fixture(scope="module")
def obs7_batch():
    spec = ExperimentSpec(obs_lens=(7,), reps=100, seed=2026)
    result = run_experiment(spec)
    assert not result.failures, result.failures
    return result


def test_criterion_1_final_set_exactness(sweep):
    instances, skipped = sweep
    assert len(instances) >= 200
    checked = 0
    for inst, h0 in instances:
        oracle = QueryOracle(inst.truth)
        expected = {hypothesis_key(h) for h in brute_force_final_set(h0, inst.truth).hypotheses}
        for kind in POLICIES:
            final, _ = run_query_loop(h0, oracle, Policy(kind, seed=checked))
            got = {hypothesis_key(h) for h in final.hypotheses}
            assert got == expected, f"{kind} diverged from exhaustive filter"
            checked += 1
    print(f"\nACCEPTANCE 1 PASS -- exact final-set equality on {len(instances)} instances "
          f"x {len(POLICIES)} policies ({checked} runs, {skipped} oversized skipped)")


def test_criterion_2_relation_oracles():
    pair_count = 0
    lib_count = 0
    seed = 0
    while lib_count < 10:
        seed += 1
        inst = gen_instance(
            GenParams(num_goals=2, depth=2, num_basic=4, branching=2, obs_len=3, seed=seed)
        )
        if oracles.library_complete_plans(inst.library) > 200:
            continue
        lib_count += 1
        hset = recognize(inst.library, list(inst.observations))
        plans, seen = [], set()
        for h in hset.hypotheses:
            for p in h.plans:
                if p not in seen:
                    seen.add(p)
                    plans.append(p)
        plans = plans[:24]
        for p in plans:
            for q in plans:
                assert matches(p, q) == oracles.matches_oracle(inst.library, p, q)
                assert is_refinement(p, q) == oracles.refinement_oracle(inst.library, p, q)
                pair_count += 1
    print(f"\nACCEPTANCE 2 PASS -- match and refinement agree with brute force on "
          f"{pair_count} plan pairs from {lib_count} small libraries")


def test_criterion_3_walkthrough_fixture():
    q = builtin_quartet()
    names = {hypothesis_key(h): n for n, h in
             [("h1", q.h1), ("h2", q.h2), ("h3", q.h3), ("h4", q.h4)]}

    def kept(out):
        return {names[hypothesis_key(h)] for h in out.hypotheses}

    assert is_refinement(q.p2, q.p1)
    assert is_refinement(q.p2, q.p3)
    assert not is_refinement(q.p1, q.p3)
    assert not is_refinement(q.p3, q.p1)
    assert not hypothesis_refines(q.h2, q.h1)
    assert not hypothesis_refines(q.h2, q.h3)
    assert kept(update(q.hset, q.p1, True)) == {"h1", "h2", "h3"}
    assert kept(update(q.hset, q.p2, False)) == {"h4"}
    assert kept(update(q.hset, q.p1, False)) == {"h2", "h3", "h4"}
    print("\nACCEPTANCE 3 PASS -- all nine walkthrough relations and updates hold")


def test_criterion_4_chemistry_fixture():
    inst = builtin_chemistry()["pairwise_first_mix"]
    hset = recognize(inst.library, ["mix_AB"])
    assert len(hset) == 2
    roots = {h.plans[0].method for h in hset.hypotheses}
    assert roots == {"strategy_pairwise", "strategy_fourway"}
    print("\nACCEPTANCE 4 PASS -- one pair-mix observation yields exactly the two strategies")


def test_criterion_5_policy_ordering(obs7_batch):
    means = {}
    for kind in POLICIES:
        queries = [r.queries for r in obs7_batch.rows if r.policy == kind]
        assert len(queries) == 100
        means[kind] = statistics.mean(queries)
    assert means["entropy"] <= means["mpp"] + 1e-9
    assert means["entropy"] <= means["mph"] + 1e-9
    assert means["random"] - means["entropy"] >= 0.10 * means["random"]
    print(f"\nACCEPTANCE 5 PASS -- mean queries at 7 observations: "
          f"entropy={means['entropy']:.2f} mph={means['mph']:.2f} "
          f"mpp={means['mpp']:.2f} random={means['random']:.2f}")


def test_criterion_6_decay_curves(obs7_batch):
    curves = {policy: curve for (policy, _), curve in mean_decay_curves(obs7_batch.rows).items()}
    for kind, curve in curves.items():
        assert curve[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:])), kind
    width = min(len(curves["entropy"]), len(curves["random"]), 6)
    for i in range(1, width):
        assert curves["entropy"][i] <= curves["random"][i] + 1e-9
    head = ", ".join(f"{curves['entropy'][i]:.3f}<={curves['random'][i]:.3f}" for i in range(1, width))
    print(f"\nACCEPTANCE 6 PASS -- decay curves monotone from 1.0; entropy <= random at indices 1..5 ({head})")


def test_criterion_7_hypothesis_counts():
    means = {}
    for obs_len in (3, 4, 5, 6, 7):
        sizes = []
        for rep in range(50):
            inst = gen_instance(GenParams(obs_len=obs_len, seed=40_000 + 97 * rep + obs_len))
            sizes.append(len(recognize(inst.library, list(inst.observations))))
        means[obs_len] = statistics.mean(sizes)
        assert 5 <= means[obs_len] <= 100, f"mean |H| at {obs_len} obs = {means[obs_len]}"

    monotone_checked = 0
    for seed in range(20):
        inst = gen_instance(GenParams(obs_len=5, seed=60_000 + seed))
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
                monotone_checked += 1
            hset = nxt
    pretty = " ".join(f"L{k}={v:.1f}" for k, v in means.items())
    print(f"\nACCEPTANCE 7 PASS -- mean hypothesis counts in [5, 100]: {pretty}; "
          f"{monotone_checked} no-death steps all non-decreasing")


def test_criterion_8_termination_bound(sweep):
    instances, _ = sweep
    runs = 0
    for inst, h0 in instances[:120]:
        bound = len(candidate_plans(h0, set()))
        oracle = QueryOracle(inst.truth)
        for kind in POLICIES:
            _, trace = run_query_loop(h0, oracle, Policy(kind, seed=runs))
            assert trace.query_count <= bound
            runs += 1
    print(f"\nACCEPTANCE 8 PASS -- {runs} runs each within the distinct-plan budget")


def test_criterion_9_property_suites():
    libs = [gen_instance(GenParams(seed=s, obs_len=3)).library for s in range(4)]
    rng = random.Random(99)

    for i in range(1000):  # refinement reflexivity + transitivity
        lib = libs[i % len(libs)]
        p = PlanNode(rng.choice(lib.goals))
        q = random_expansion(lib, p, rng, rng.randint(0, 3))
        r = random_expansion(lib, q, rng, rng.randint(0, 3))
        assert is_refinement(p, p) and is_refinement(r, r)
        assert is_refinement(p, q) and is_refinement(q, r) and is_refinement(p, r)

    for i in range(1000):  # match symmetry and reflexivity
        lib = libs[i % len(libs)]
        p, q = random_plan(lib, rng), random_plan(lib, rng)
        assert matches(p, q) == matches(q, p)
        assert matches(p, p)

    sets = []
    for seed in range(25):
        inst = gen_instance(GenParams(seed=seed, obs_len=4))
        hset = recognize(inst.library, list(inst.observations))
        sets.append((inst, hset))

    cases = 0  # update monotonicity + idempotence + normalization
    while cases < 1000:
        inst, hset = sets[cases % len(sets)]
        plans = candidate_plans(hset, set())
        p = plans[rng.randrange(len(plans))]
        answer = query_answer(QueryOracle(inst.truth), p)
        once = update(hset, p, answer)
        assert len(once) <= len(hset)
        assert abs(sum(h.weight for h in once.hypotheses) - 1.0) <= 1e-9
        twice = update(once, p, answer)
        assert [hypothesis_key(h) for h in twice.hypotheses] == \
               [hypothesis_key(h) for h in once.hypotheses]
        cases += 1

    for i in range(1000):  # entropy edge values
        lone = HypothesisSet.normalized([Hypothesis((), float(i + 1))], 0)
        assert _entropy_of_weights(lone.weights) == 0.0
        n = 2 + i % 7
        uniform = HypothesisSet.normalized([Hypothesis((), 1.0) for _ in range(n)], 0)
        assert _entropy_of_weights(uniform.weights) == pytest.approx(math.log2(n))

    det = 0  # selector determinism under seed
    while det < 1000:
        inst, hset = sets[det % len(sets)]
        kind = POLICIES[det % len(POLICIES)]
        seed = det % 17
        a = Policy(kind, seed).select(hset, set())
        b = Policy(kind, seed).select(hset, set())
        assert a == b
        det += 1

    print("\nACCEPTANCE 9 PASS -- 5 property suites x 1000 randomized cases")
