"""Query selection policies.

Four strategies for picking which plan to ask about next:

    random    uniform draw over the not-yet-queried plans
    mph       a plan from the most probable hypothesis that still has one
    mpp       the plan with the highest cumulative probability over the
              hypotheses it can be refined into
    entropy   the plan minimizing the expected entropy of the pruned set

All selectors are pure functions of (hypothesis set, closed keys, seed):
ties are broken by a PRNG derived from the seed and the number of closed
plans, so repeated runs make identical choices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import PolicyError
from .plans import Plan, PlanNode
from .recognizer import HypothesisSet
from .engine import RelationTable, candidate_plans, relations, restrict

POLICY_KINDS = ("random", "mph", "mpp", "entropy")

__all__ = [
    "POLICY_KINDS",
    "Policy",
    "candidate_plans",
    "cumulative_plan_prob",
    "entropy",
    "select_mph",
    "select_min_entropy",
    "select_mpp",
    "select_random",
]


def _rng(seed: int, closed: set[PlanNode]) -> random.Random:
    return random.Random(f"{seed}:{len(closed)}")


def cumulative_plan_prob(hset: HypothesisSet, plan: Plan) -> float:
    """Total weight of the hypotheses containing some plan refinable from
    `plan`."""
    table, alive = relations(hset)
    refine = table.refine(table.intern(plan), alive)
    return sum(h.weight for h in restrict(hset.hypotheses, alive, refine))


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
    return _entropy_of_weights([h.weight for h in hset.hypotheses])


def _open_candidates(
    hset: HypothesisSet, closed: set[PlanNode]
) -> tuple[RelationTable, int, list[int]]:
    table, alive = relations(hset)
    candidates = list(table.candidates(alive, closed))
    if not candidates:
        raise PolicyError("no candidate plans left to query")
    return table, alive, candidates


def select_random(hset: HypothesisSet, closed: set[PlanNode], seed: int) -> Plan:
    table, _, candidates = _open_candidates(hset, closed)
    return table.plans[_rng(seed, closed).choice(candidates)]


def select_mph(hset: HypothesisSet, closed: set[PlanNode], seed: int) -> Plan:
    """Pick an unqueried plan from the heaviest hypothesis; when that one is
    exhausted, walk down the weight ranking."""
    table, alive = relations(hset)
    skip = table.closed_ids(closed)
    open_by_hyp: list[tuple[float, list[int]]] = []
    for h, row in zip(hset.hypotheses, table.rows(alive)):
        pending = list(dict.fromkeys(t for t in row if t not in skip))
        if pending:
            open_by_hyp.append((h.weight, pending))
    if not open_by_hyp:
        raise PolicyError("no candidate plans left to query")
    best = max(w for w, _ in open_by_hyp)
    tied = [pending for w, pending in open_by_hyp if w == best]
    rng = _rng(seed, closed)
    return table.plans[rng.choice(rng.choice(tied))]


def select_mpp(hset: HypothesisSet, closed: set[PlanNode], seed: int) -> Plan:
    table, alive, candidates = _open_candidates(hset, closed)
    weights = [h.weight for h in hset.hypotheses]
    scored = [(sum(restrict(weights, alive, table.refine(t, alive))), t) for t in candidates]
    best = max(score for score, _ in scored)
    tied = [t for score, t in scored if score == best]
    return table.plans[_rng(seed, closed).choice(tied)]


def select_min_entropy(hset: HypothesisSet, closed: set[PlanNode], seed: int) -> Plan:
    """Pick the plan whose expected post-update entropy is smallest, where
    the two hypothetical updates use exactly the engine's pruning rules and
    survivor weights are renormalized before measuring."""
    table, alive, candidates = _open_candidates(hset, closed)
    weights = [h.weight for h in hset.hypotheses]
    scored: list[tuple[float, int]] = []
    for t in candidates:
        refine = table.refine(t, alive)
        p_true = sum(restrict(weights, alive, refine))
        ent_true = _entropy_of_weights(list(restrict(weights, alive, table.match(t, alive))))
        ent_false = _entropy_of_weights(list(restrict(weights, alive, ~refine)))
        scored.append((p_true * ent_true + (1.0 - p_true) * ent_false, t))
    best = min(score for score, _ in scored)
    tied = [t for score, t in scored if score == best]
    return table.plans[_rng(seed, closed).choice(tied)]


_SELECTORS = {
    "random": select_random,
    "mph": select_mph,
    "mpp": select_mpp,
    "entropy": select_min_entropy,
}


@dataclass(frozen=True)
class Policy:
    """A named selection strategy with the tie-break seed fixed per run."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SELECTORS:
            raise PolicyError(f"unknown policy kind {self.kind!r} (expected one of {POLICY_KINDS})")

    def select(self, hset: HypothesisSet, closed: set[PlanNode]) -> Plan:
        return _SELECTORS[self.kind](hset, closed, self.seed)
