"""Query selection policies.

Four strategies for picking which plan to ask about next:

    random    uniform draw over the not-yet-closed plans
    mph       a plan from the most probable hypothesis that still has one
    mpp       the plan with the highest cumulative probability over the
              hypotheses it can be refined into
    entropy   the plan minimizing the expected entropy of the pruned set

All selectors are pure functions of (hypothesis set, closed plans, seed):
ties are broken by a PRNG derived from the seed and the number of closed
plans, so repeated runs make identical choices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress, takewhile

from .errors import PolicyError
from .plans import PlanNode
from .recognizer import HypothesisSet
from .engine import LiveSet, RelationTable, bit_selectors, relations, restrict


def _rng(seed: int, closed: set[PlanNode]) -> random.Random:
    return random.Random(f"{seed}:{len(closed)}")


def cumulative_plan_prob(hset: HypothesisSet | LiveSet, plan: PlanNode) -> float:
    """Total weight of the hypotheses containing some plan refinable from
    `plan`."""
    table, alive = relations(hset)
    return sum(restrict(hset.weights, alive, table.refine(table.intern(plan), alive)))


def _entropy_of_weights(weights: list[float]) -> float:
    if len(weights) <= 1:
        return 0.0
    total = sum(weights)
    e = 0.0
    for w in weights:
        p = w / total
        if p > 0:
            e -= p * math.log2(p)
    return e


def entropy(hset: HypothesisSet) -> float:
    """Shannon entropy (bits) of the hypothesis distribution; empty and
    singleton sets score 0."""
    return _entropy_of_weights(hset.weights)


def _open_candidates(
    hset: HypothesisSet | LiveSet, closed: set[PlanNode]
) -> tuple[RelationTable, int, list[int]]:
    table, alive = relations(hset)
    candidates = list(table.candidates(alive, closed))
    if not candidates:
        raise PolicyError("no candidate plans left to query")
    return table, alive, candidates


def select_random(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    table, alive, candidates = _open_candidates(hset, closed)
    return table.plan(_rng(seed, closed).choice(candidates), alive)


def select_mph(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    """Pick a not-yet-closed plan from the heaviest hypothesis that still
    has one: draw among the hypotheses tied at that weight (in set order),
    then among the chosen one's open plans (in its plan order).

    A class is open when its representative is. Renormalizing divides every
    weight by one positive total, which never reorders two weights but can
    make them equal, so the members tied at the top weight are a prefix of
    each class's heaviest-first list, read with the set's own weights."""
    table, alive = relations(hset)
    weights = hset.weights
    skip = set(map(table.intern, closed))
    reps = alive & table.reps
    open_classes = [table.ranked[r] for r in compress(range(reps.bit_length()), bit_selectors(reps))
                    if any(t not in skip for t in table.per_hyp[r])]
    if not open_classes:
        raise PolicyError("no candidate plans left to query")

    def weight(i: int) -> float:
        return weights[(alive & ((1 << i) - 1)).bit_count()]

    heads = [weight(members[0]) for members in open_classes]
    best = max(heads)
    tied = sorted(i for members, head in zip(open_classes, heads) if head == best
                  for i in takewhile(lambda i: weight(i) == best, members))
    rng = _rng(seed, closed)
    pending = list(dict.fromkeys(t for t in table.per_hyp[rng.choice(tied)] if t not in skip))
    return table.plan(rng.choice(pending), alive)


def select_mpp(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    table, alive, candidates = _open_candidates(hset, closed)
    weights = hset.weights
    scored = [(sum(restrict(weights, alive, table.refine(t, alive))), t) for t in candidates]
    best = max(score for score, _ in scored)
    tied = [t for score, t in scored if score == best]
    return table.plan(_rng(seed, closed).choice(tied), alive)


def _expected_entropy(table: RelationTable, alive: int, weights: list[float], t: int) -> float:
    """select_min_entropy's score for plan id `t`."""
    refine = table.refine(t, alive)
    p_true = sum(restrict(weights, alive, refine))
    ent_true = _entropy_of_weights(list(restrict(weights, alive, table.match(t, alive))))
    ent_false = _entropy_of_weights(list(restrict(weights, alive, ~refine)))
    return p_true * ent_true + (1.0 - p_true) * ent_false


def select_min_entropy(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    """Pick the plan t with the smallest expected post-update entropy
    R * H(True) + (1 - R) * H(False). R is t's refinement mass,
    cumulative_plan_prob(hset, t). The True branch keeps the hypotheses
    with a plan matching t and the False branch those with no plan
    refinable from t, exactly as engine.update prunes; each entropy is taken
    over the branch's survivors, renormalized. The True branch is weighed by
    R, not by the match mass of the survivors it keeps."""
    table, alive, candidates = _open_candidates(hset, closed)
    weights = hset.weights
    scored = [(_expected_entropy(table, alive, weights, t), t) for t in candidates]
    best = min(score for score, _ in scored)
    tied = [t for score, t in scored if score == best]
    return table.plan(_rng(seed, closed).choice(tied), alive)


_SELECTORS = {
    "random": select_random,
    "mph": select_mph,
    "mpp": select_mpp,
    "entropy": select_min_entropy,
}
POLICY_KINDS = tuple(_SELECTORS)


@dataclass(frozen=True)
class Policy:
    """A named selection strategy with the tie-break seed fixed per run."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SELECTORS:
            raise PolicyError(f"unknown policy kind {self.kind!r} (expected one of {POLICY_KINDS})")

    def select(self, hset: HypothesisSet | LiveSet, closed: set[PlanNode]) -> PlanNode:
        return _SELECTORS[self.kind](hset, closed, self.seed)
