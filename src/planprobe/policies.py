"""Query selection policies.

Four strategies for picking which plan to ask about next:

    random    uniform draw over the not-yet-closed plans
    mph       a plan from the most probable hypothesis that still has one
    mpp       the plan with the highest cumulative probability over the
              hypotheses it can be refined into
    entropy   the plan minimizing the expected entropy of the pruned set

All selectors are pure functions of (hypothesis set, closed plans, seed):
ties are broken by a PRNG derived from the seed and the number of closed
plans and built only for a tie, so repeated runs make identical choices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

from .errors import PolicyError
from .library import left_sum
from .plans import PlanNode
from .recognizer import HypothesisSet
from .engine import LiveSet, RelationTable, bit_selectors, relations, restrict


def _rng(seed: int, closed: set[PlanNode]) -> random.Random:
    return random.Random(f"{seed}:{len(closed)}")


def _refinement_mass(table: RelationTable, alive: int, weights: list[float], t: int) -> float:
    """Total weight of the live hypotheses holding a plan refinable from
    plan id `t`."""
    return left_sum(restrict(weights, alive, table.refine(t)))


def cumulative_plan_prob(hset: HypothesisSet | LiveSet, plan: PlanNode) -> float:
    """Total weight of the hypotheses containing some plan refinable from
    `plan`."""
    table, alive = relations(hset)
    return _refinement_mass(table, alive, hset.weights, table.intern(plan))


def _entropy_of_weights(weights: list[float]) -> float:
    """Entropy (bits) of the weights renormalized; 0.0 for at most one
    weight, and for a branch with no weight (its sum is not > 0)."""
    total = left_sum(weights)
    if len(weights) <= 1 or not total > 0:
        return 0.0
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
    """The set's table, live mask and open candidate ids: those the query
    loop handed over on the set if they were listed for this closed set at
    its present size, else listed here."""
    handed = getattr(hset, "handed", None)
    if handed is not None and handed[0] is closed and handed[1] == len(closed):
        (table, alive), candidates = hset.relations, handed[2]
    else:
        table, alive = relations(hset)
        candidates = table.candidates(alive, closed)
    if not candidates:
        raise PolicyError("no candidate plans left to query")
    return table, alive, candidates


def _best(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int, score) -> PlanNode:
    """Draw among the open candidates with the highest
    score(table, alive, weights, t), tied in first-occurrence order."""
    table, alive, candidates = _open_candidates(hset, closed)
    weights = hset.weights
    scores = [score(table, alive, weights, t) for t in candidates]
    best = max(scores)
    tied = [t for s, t in zip(scores, candidates) if s == best]
    return table.plan(tied[0] if len(tied) == 1 else _rng(seed, closed).choice(tied), alive)


def select_random(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    table, alive, candidates = _open_candidates(hset, closed)
    return table.plan(candidates[0] if len(candidates) == 1 else _rng(seed, closed).choice(candidates), alive)


def select_mph(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    """Pick a not-yet-closed plan from the heaviest hypothesis that still
    has one: among the live owners of the open candidates, draw among those
    tied at the top weight (in set order), then among the chosen one's open
    candidates (in its plan order).

    The ties are read from the set's own weights, not h0's: renormalizing
    can make two weights equal that differed in the last bit."""
    table, alive, candidates = _open_candidates(hset, closed)
    mask = 0
    for t in candidates:
        mask |= table.owners[t]
    held = bit_selectors(mask & alive)  # one selector for both compresses
    weights = list(compress(hset.weights, compress(held, bit_selectors(alive))))
    best = max(weights)
    rows = compress(table.per_hyp, held)
    tied = [row for w, row in zip(weights, rows) if w == best]
    open_ids = set(candidates)
    options = [t for t in dict.fromkeys(tied[0]) if t in open_ids]
    if len(tied) > 1 or len(options) > 1:
        # both draws are made, in order: a one-option choice still uses random bits
        rng = _rng(seed, closed)
        options = [rng.choice([t for t in dict.fromkeys(rng.choice(tied)) if t in open_ids])]
    return table.plan(options[0], alive)


def select_mpp(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    return _best(hset, closed, seed, _refinement_mass)


def _expected_entropy(table: RelationTable, alive: int, weights: list[float], t: int) -> float:
    """select_min_entropy's score for plan id `t`."""
    p_true = _refinement_mass(table, alive, weights, t)
    ent_true = _entropy_of_weights(list(restrict(weights, alive, table.match(t))))
    ent_false = _entropy_of_weights(list(restrict(weights, alive, ~table.refine(t))))
    return p_true * ent_true + (1.0 - p_true) * ent_false


def select_min_entropy(hset: HypothesisSet | LiveSet, closed: set[PlanNode], seed: int) -> PlanNode:
    """Pick the plan t with the smallest expected post-update entropy
    R * H(True) + (1 - R) * H(False). R is t's refinement mass,
    cumulative_plan_prob(hset, t). The True branch keeps the hypotheses
    with a plan matching t and the False branch those with no plan
    refinable from t, exactly as engine.update prunes; each entropy is taken
    over the branch's survivors, renormalized. The True branch is weighed by
    R, not by the match mass of the survivors it keeps."""
    return _best(hset, closed, seed, lambda *args: -_expected_entropy(*args))


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
