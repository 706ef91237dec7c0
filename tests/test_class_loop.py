"""Differential test: the query loop that walks one row per mark-free class
and renormalizes bare weights, against the per-hypothesis loop in
oracles.py, which rebuilds a HypothesisSet at each answer.

For every policy, on the instances of test_relation_table.py and on the
three largest h0 of the obs-9 batch, both loops must ask the same plan
object at every step, get the same answer, and report the same remaining
and settled counts; their final sets must be equal, weights compared with
==. At every select the open ids the loop hands over on the set must be
those the table lists for the loop's closed plans, and a selector given
another closed set must list them again. A hand-built set pins
the mph tie between mark variants whose weights differ in the last bit.
Every select must also pick the plan of the reference selector, which
builds its generator even when there is no tie to break.

The class data itself is checked on the same instances: plan ids that
number the plans' mark-free trees in first-occurrence order, one
representative per distinct set of plan ids, every column the loop reads
all-or-nothing on each class, and the owner and representative masks equal
to one sum of bits per class. The oracle premise, checked on one
representative per class, must give the member-by-member verdict. And no
loop may tie h0 into a reference cycle.
"""

import functools
import gc
import weakref

import pytest

from planprobe import engine, policies
from planprobe.engine import QueryOracle, RelationTable, relations, run_query_loop, update
from planprobe.errors import OracleInconsistencyError
from planprobe.experiment import ExperimentSpec, _instances_for
from planprobe.plans import Hypothesis, PlanNode, hypothesis_refines
from planprobe.policies import POLICY_KINDS, Policy
from planprobe.recognizer import HypothesisSet, recognize

from . import oracles
from .test_relation_table import INSTANCES


class HandedChecked:
    """Policy that requires, at each select, the open ids handed over on the
    set to equal the table's listing for the closed plans."""

    def __init__(self, policy: Policy):
        self.kind = policy.kind
        self.policy = policy
        self.selects = 0

    def select(self, hset, closed):
        table, alive = relations(hset)
        assert hset.handed[0] is closed and hset.handed[1] == len(closed)
        assert hset.handed[2] == list(table.candidates(alive, closed))
        self.selects += 1
        return self.policy.select(hset, closed)


def _assert_same_run(h0, truth, kind: str, seed: int):
    oracle = QueryOracle(truth)
    want, want_trace = oracles.table_query_loop(h0, oracle, kind, seed)
    policy = HandedChecked(Policy(kind, seed))
    got, trace = run_query_loop(h0, oracle, policy)
    assert policy.selects == len(trace.steps)
    assert len(trace.steps) == len(want_trace.steps)
    for step, ref in zip(trace.steps, want_trace.steps):
        assert step.plan is ref.plan
        assert (step.answer, step.remaining, step.settled_by_premise, step.settled_by_answer) == \
               (ref.answer, ref.remaining, ref.settled_by_premise, ref.settled_by_answer)
    assert got.hypotheses == want.hypotheses  # plans and weights, exactly
    return trace


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_loop_equals_per_hypothesis_loop(name, h0, truth):
    for kind in POLICY_KINDS:
        _assert_same_run(h0, truth, kind, seed=len(h0))


# the three largest h0 of ExperimentSpec(obs_lens=(9,), reps=20, seed=5)
LARGE = {"L9_r013": 20184, "L9_r004": 2640, "L9_r016": 864}


@functools.cache
def _large(stem: str):
    inst = dict(_instances_for(ExperimentSpec(obs_lens=(9,), reps=20, seed=5)))[stem]()
    h0 = recognize(inst.library, list(inst.observations))
    assert len(h0) == LARGE[stem]
    return h0, inst.truth


@pytest.mark.parametrize("stem", LARGE)
def test_large_h0_loops_equal_per_hypothesis_loop(stem):
    h0, truth = _large(stem)
    for kind in POLICY_KINDS:
        assert _assert_same_run(h0, truth, kind, seed=7).query_count >= 2


class KeepsSet:
    """Policy that keeps the set and a copy of the closed plans of its
    first select at which some plan is closed."""

    def __init__(self, kind: str, seed: int):
        self.kind, self.policy, self.kept = kind, Policy(kind, seed), None

    def select(self, hset, closed):
        if closed and self.kept is None:
            self.kept = (hset, set(closed))
        return self.policy.select(hset, closed)


def test_ids_handed_for_another_closed_set_are_listed_again():
    h0, truth = _large("L9_r016")
    policy = KeepsSet("random", 7)
    run_query_loop(h0, QueryOracle(truth), policy)
    hset, closed = policy.kept
    table, alive = relations(hset)
    # The closed set the ids were listed for, copied; the loop's own set,
    # which later questions grew; that copy grown by the plan of the first
    # handed id; and one of its plans swapped for that plan, so its size is
    # unchanged.
    first = table.plans[hset.handed[2][0]]
    grown = closed | {first}
    swapped = set(closed)
    swapped.pop()
    swapped.add(first)
    for other in (set(closed), hset.handed[0], grown, swapped):
        assert policies._open_candidates(hset, other)[2] == list(table.candidates(alive, other))
    assert hset.handed[2][0] not in policies._open_candidates(hset, swapped)[2]


@pytest.mark.parametrize("name", [name for name, _, _ in INSTANCES] + list(LARGE))
def test_masks_equal_one_sum_per_class(name):
    h0 = _large(name)[0] if name in LARGE else next(h for n, h, _ in INSTANCES if n == name)
    table = RelationTable(h0)
    classes: dict[frozenset, list[int]] = {}
    for i, row in enumerate(table.per_hyp):
        classes.setdefault(frozenset(row), []).append(i)
    owners = [0] * len(table.plans)
    label_owners: dict[str, int] = {}
    for ids, members in classes.items():
        mask = sum(1 << i for i in members)
        for t in ids:
            owners[t] |= mask
            label = table.plans[t].label
            label_owners[label] = label_owners.get(label, 0) | mask
    assert table.owners == owners
    assert table.label_owners == label_owners
    assert table.reps == sum(1 << members[0] for members in classes.values())


@pytest.mark.parametrize("name", [name for name, _, _ in INSTANCES] + list(LARGE))
def test_plan_ids_number_mark_free_trees_in_first_occurrence_order(name):
    # Two plans share an id exactly when their trees with the marks dropped
    # are equal, and ids count those trees in first-occurrence order over h0.
    h0 = _large(name)[0] if name in LARGE else next(h for n, h, _ in INSTANCES if n == name)
    numbers: dict = {}
    want = tuple(tuple(numbers.setdefault(oracles.plan_shape(p), len(numbers)) for p in h.plans)
                 for h in h0.hypotheses)
    table = RelationTable(h0)
    assert table.per_hyp == want
    assert len(table.plans) == len(numbers)


@pytest.mark.parametrize("name", [name for name, _, _ in INSTANCES] + list(LARGE))
def test_premise_on_representatives_equals_every_member(name, monkeypatch):
    # The loop checks the oracle premise on one representative per class.
    # Its verdict must be the member-by-member one, for h0 and for a set
    # update derived from it (which holds h0's table), under the truth, a
    # live hypothesis taken as the truth, and two truths no hypothesis
    # refines: one plan cut back to its bare root, and no plan at all.
    h0, truth = _large(name) if name in LARGE else next((h, g) for n, h, g in INSTANCES if n == name)
    _, trace = run_query_loop(h0, QueryOracle(truth), Policy("random", 7))
    sets = [h0] + [update(h0, step.plan, step.answer) for step in trace.steps[:1]]
    bare = Hypothesis((PlanNode(truth.plans[0].label),) + truth.plans[1:])
    verdicts = []
    for hset in sets:
        table, alive = relations(hset)
        for g in (truth, hset.hypotheses[-1], bare, Hypothesis(())):
            want = any(hypothesis_refines(h, g) for h in hset.hypotheses)
            calls = []
            monkeypatch.setattr(engine, "hypothesis_refines", lambda h, t: calls.append(h) or hypothesis_refines(h, t))
            if want:
                run_query_loop(hset, QueryOracle(g), Policy("random", 7))
            else:
                with pytest.raises(OracleInconsistencyError, match="^no hypothesis can be refined to the oracle's truth$"):
                    run_query_loop(hset, QueryOracle(g), Policy("random", 7))
            monkeypatch.undo()
            assert 1 <= len(calls) <= (alive & table.reps).bit_count()
            verdicts.append(want)
    assert verdicts == [True, True, False, False] * len(sets)


def _g(mark: int) -> PlanNode:
    return PlanNode("g", "mg", (PlanNode("a", observed=mark),))


def _h(mark: int) -> PlanNode:
    return PlanNode("h", "mh", (PlanNode("b", observed=mark),))


def test_mph_ties_read_the_current_weights():
    # a1 and a2 are mark variants, one class, one ulp apart in h0. The first
    # question (k, from the heaviest hypothesis) is answered False and drops
    # k's hypothesis; renormalized, a1 and a2 are equal, so mph draws between
    # them, and a2 lists its plans in the other order.
    k = PlanNode("k")
    hyps = (
        Hypothesis((k,), 0.39612696222009075),
        Hypothesis((_g(0), _h(1)), 0.20671821220562006),
        Hypothesis((_h(0), _g(1)), 0.20671821220562003),
        Hypothesis((PlanNode("z"),), 0.19043661336866918),
    )
    h0 = HypothesisSet(hyps, 2)
    truth = Hypothesis((_g(0), _h(1)))
    after_k = update(h0, k, False)
    assert hyps[1].weight != hyps[2].weight
    assert after_k.hypotheses[0].weight == after_k.hypotheses[1].weight
    # without a2, a1 alone is at the top when the second question is drawn
    alone = update(HypothesisSet.normalized([hyps[0], hyps[1], hyps[3]], 2), k, False)
    differs = []
    for seed in range(20):
        trace = _assert_same_run(h0, truth, "mph", seed)
        assert trace.steps[0].plan is k
        if trace.steps[1].plan.label != Policy("mph", seed).select(alone, {k}).label:
            differs.append(seed)
    assert 1 in differs and len(differs) >= 5


class EagerChecked:
    """Policy that requires each select to pick the plan that the reference
    selector, which draws eagerly, picks on the same set."""

    def __init__(self, kind: str, seed: int):
        self.kind = kind
        self.seed = seed
        self.policy = Policy(kind, seed)

    def select(self, hset, closed):
        plan = self.policy.select(hset, closed)
        assert plan is oracles.table_select(self.kind, hset, closed, self.seed)
        return plan


def test_selects_pick_like_the_eager_draw(monkeypatch):
    built = []
    real = policies._rng
    monkeypatch.setattr(policies, "_rng", lambda seed, closed: built.append(seed) or real(seed, closed))
    for kind in POLICY_KINDS:
        built.clear()
        selects = 0
        for name, h0, truth in INSTANCES:
            for seed in range(3):
                _, trace = run_query_loop(h0, QueryOracle(truth), EagerChecked(kind, seed))
                selects += trace.query_count
        # both paths ran: selects that built no generator, and selects that drew
        assert 0 < len(built) < selects, kind


class Recording:
    """Policy that records the live mask at each select."""

    def __init__(self, kind: str, seed: int):
        self.kind = kind
        self.policy = Policy(kind, seed)
        self.masks: list[int] = []

    def select(self, hset, closed):
        self.masks.append(relations(hset)[1])
        return self.policy.select(hset, closed)


@pytest.mark.parametrize("name,h0,truth", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_classes_are_whole_under_every_column(name, h0, truth):
    table, full = relations(h0)
    first: dict[frozenset, int] = {}
    for i, row in enumerate(table.per_hyp):
        first.setdefault(frozenset(row), i)
    assert table.reps == sum(1 << i for i in first.values())
    assert table.reps.bit_count() == len(first)
    classes = [sum(1 << i for i, row in enumerate(table.per_hyp) if frozenset(row) == key) for key in first]

    masks = {full}
    for kind in POLICY_KINDS:
        policy = Recording(kind, len(h0))
        final, _ = run_query_loop(h0, QueryOracle(truth), policy)
        masks.update(policy.masks)
        masks.add(relations(final)[1] if final is not h0 else full)
    for alive in masks:
        for members in classes:
            assert alive & members in (0, members)
        for t in range(len(table.plans)):
            for column in (table.refine(t), table.match(t)):
                for members in classes:
                    assert column & alive & members in (0, alive & members)


def test_loops_leave_no_reference_cycle_to_h0():
    # A table that held h0 while h0 holds the table would be freed only by
    # the cyclic collector, so with it disabled h0 would outlive its loops.
    gc.disable()
    try:
        for name, h0, truth in INSTANCES:
            h0 = HypothesisSet(h0.hypotheses, h0.observation_count, h0.truncated)
            for kind in POLICY_KINDS:
                run_query_loop(h0, QueryOracle(truth), Policy(kind, 1))
            alive = weakref.ref(h0)
            del h0
            assert alive() is None, name
    finally:
        gc.enable()
