"""Incremental hypothesis generation over a plan library.

Each observation is explained in every possible way: by marking an enabled
pending leaf, by growing an enabled open complex node down to a matching
leaf, or by starting a plan for a goal the hypothesis is not pursuing yet.
A hypothesis pursues at most one plan per goal, mirroring an agent that
picks a set of intended goals and carries out one plan for each.

Ordering constraints gate where an observation may attach: a constituent is
enabled only when every ordering predecessor (at every ancestor level) roots
a fully observed subtree. When a fresh expansion chain is created, it may
only descend through order-minimal constituents, so an observation can never
claim a position whose required predecessors were never begun.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import PlanError, UnexplainableObservationError
from .library import Chain, PlanLibrary
from .plans import (
    Hypothesis,
    Path,
    Plan,
    PlanNode,
    apply_method,
    observe_leaf,
)

if TYPE_CHECKING:
    from .engine import RelationTable

WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RecognizerConfig:
    max_hypotheses: int | None = None
    new_plan_allowed: bool = True

    def __post_init__(self):
        if self.max_hypotheses is not None and self.max_hypotheses < 1:
            raise ValueError("max_hypotheses must be >= 1")


@dataclass(frozen=True)
class HypothesisSet:
    """Weighted hypotheses explaining the first observation_count
    observations. Weights are normalized; truncated marks a capped set whose
    completeness guarantees no longer hold. A set derived by the query loop
    carries the relation table it shares with the loop's other sets, and the
    mask of its hypotheses over the table's order."""

    hypotheses: tuple[Hypothesis, ...]
    observation_count: int
    truncated: bool = False
    relations: tuple[RelationTable, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.hypotheses:
            total = sum(h.weight for h in self.hypotheses)
            if abs(total - 1.0) > WEIGHT_TOLERANCE:
                raise ValueError(f"hypothesis weights sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.hypotheses)

    @classmethod
    def normalized(
        cls,
        hypotheses: tuple[Hypothesis, ...] | list[Hypothesis],
        observation_count: int,
        truncated: bool = False,
    ) -> HypothesisSet:
        hyps = tuple(hypotheses)
        if not hyps:
            return cls((), observation_count, truncated)
        total = sum(h.weight for h in hyps)
        if total <= 0:
            raise ValueError("cannot normalize non-positive total weight")
        return cls(
            tuple(Hypothesis(h.plans, h.weight / total) for h in hyps),
            observation_count,
            truncated,
        )


def _weight_factors(lib: PlanLibrary, plan: Plan) -> tuple[float, ...]:
    """The root goal's prior, then, for every expanded node in preorder, one
    over the number of methods for its label."""
    out = [lib.goal_priors[plan.root.label]]
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if node.method is not None:
            out.append(1.0 / len(lib.methods_for(node.label)))
            stack.extend(reversed(node.children))
    return tuple(out)


def _times(w: float, factors: tuple[float, ...]) -> float:
    # Left to right, one factor at a time: the same rounding at every step
    # wherever a product over the same plans is formed.
    for f in factors:
        w *= f
    return w


def hypothesis_weight(lib: PlanLibrary, h: Hypothesis) -> float:
    """Unnormalized weight: the product, plan by plan, of each plan's
    weight factors."""
    w = 1.0
    for plan in h.plans:
        w = _times(w, _weight_factors(lib, plan))
    return w


def _fully_observed(lib: PlanLibrary, node: PlanNode, memo: dict[int, bool]) -> bool:
    """Subtree completely expanded with every basic leaf observed."""
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if node.expanded:
        result = all(_fully_observed(lib, c, memo) for c in node.children)
    else:
        result = lib.is_basic(node.label) and node.observed is not None
    memo[key] = result
    return result


def enabled_expansion_targets(lib: PlanLibrary, plan: Plan) -> list[Path]:
    """Frontier nodes whose ordering predecessors, at every ancestor level,
    all root fully observed subtrees. Left-to-right order."""
    out: list[Path] = []
    memo: dict[int, bool] = {}

    def walk(node: PlanNode, path: Path) -> None:
        # node is enabled; a disabled node's subtree holds no target
        if not node.expanded:
            if lib.is_complex(node.label) or node.observed is None:
                out.append(path)
            return
        predecessors = lib.method(node.method).predecessors
        siblings = node.children
        for i, child in enumerate(siblings):
            if all(_fully_observed(lib, siblings[j], memo) for j in predecessors[i]):
                walk(child, path + (i,))

    walk(plan.root, ())
    return out


def _attach_chain(plan: Plan, path: Path, chain: Chain, index: int) -> Plan:
    for method, pos in chain:
        plan = apply_method(plan, path, method)
        path = path + (pos,)
    return observe_leaf(plan, path, index)


def _hypothesis_multiset(plans: tuple[Plan, ...]) -> frozenset:
    """The hypothesis's plans as a multiset: (root, count) pairs."""
    counts: dict[PlanNode, int] = {}
    for p in plans:
        counts[p.root] = counts.get(p.root, 0) + 1
    return frozenset(counts.items())


def explain_step(
    lib: PlanLibrary,
    hset: HypothesisSet,
    action: str,
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Extend every hypothesis by one observation, in all distinct ways.
    Structurally identical successors are merged (weights summed) and the
    result renormalized. Raises UnexplainableObservationError when no
    hypothesis can absorb the action.

    Plans recur across hypotheses, so each distinct plan is grown once per
    call and every plan's weight factors are computed once; a successor's
    weight multiplies the factors of its plans in order, exactly as
    hypothesis_weight does."""
    cfg = cfg or RecognizerConfig()
    if not lib.is_basic(action):
        kind = "complex" if lib.is_complex(action) else "unknown"
        raise UnexplainableObservationError(hset.observation_count, f"{action} ({kind} action)")
    index = hset.observation_count

    factors_of: dict[PlanNode, tuple[float, ...]] = {}
    grown_of: dict[PlanNode, list[tuple[Plan, tuple[float, ...]]]] = {}

    def factors(plan: Plan) -> tuple[float, ...]:
        hit = factors_of.get(plan.root)
        if hit is None:
            hit = factors_of[plan.root] = _weight_factors(lib, plan)
        return hit

    def grown_from(plan: Plan) -> list[tuple[Plan, tuple[float, ...]]]:
        """Every way `plan` absorbs the action, with the grown plans' factors."""
        hit = grown_of.get(plan.root)
        if hit is not None:
            return hit
        out = []
        for path in enabled_expansion_targets(lib, plan):
            node = plan.node_at(path)
            if lib.is_basic(node.label):
                if node.label == action:
                    out.append(observe_leaf(plan, path, index))
            else:
                for chain in lib.chains_to(node.label, action):
                    out.append(_attach_chain(plan, path, chain, index))
        hit = grown_of[plan.root] = [(g, _weight_factors(lib, g)) for g in out]
        return hit

    # a new plan for a goal starts the same way in every hypothesis
    fresh: dict[str, list[tuple[Plan, tuple[float, ...]]]] = {}
    if cfg.new_plan_allowed:
        for goal in lib.goals:
            starts = [_attach_chain(Plan(PlanNode(goal)), (), c, index) for c in lib.chains_to(goal, action)]
            fresh[goal] = [(p, _weight_factors(lib, p)) for p in starts]

    merged: dict[frozenset, Hypothesis] = {}

    def emit(plans: tuple[Plan, ...], weight: float) -> None:
        key = _hypothesis_multiset(plans)
        prev = merged.get(key)
        if prev is None:
            merged[key] = Hypothesis(plans, weight)
        else:
            merged[key] = Hypothesis(prev.plans, prev.weight + weight)

    for h in hset.hypotheses:
        plans = h.plans
        plan_factors = [factors(p) for p in plans]
        # prefix[i]: the product over plans[:i], formed as hypothesis_weight forms it
        prefix = [1.0]
        for fs in plan_factors:
            prefix.append(_times(prefix[-1], fs))
        for i, plan in enumerate(plans):
            for grown, grown_factors in grown_from(plan):
                w = _times(prefix[i], grown_factors)
                for fs in plan_factors[i + 1:]:
                    w = _times(w, fs)
                emit(plans[:i] + (grown,) + plans[i + 1:], w)
        if fresh:
            used_goals = {p.root.label for p in plans}
            for goal in lib.goals:
                if goal in used_goals:
                    continue
                for plan, fs in fresh[goal]:
                    emit(plans + (plan,), _times(prefix[-1], fs))

    if not merged:
        raise UnexplainableObservationError(index, action)

    successors = list(merged.values())
    truncated = hset.truncated
    if cfg.max_hypotheses is not None and len(successors) > cfg.max_hypotheses:
        successors.sort(key=lambda h: -h.weight)
        successors = successors[: cfg.max_hypotheses]
        truncated = True
    return HypothesisSet.normalized(successors, index + 1, truncated)


def recognize(
    lib: PlanLibrary,
    observations: list[str],
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Fold explain_step over the observation sequence, starting from the
    empty seed hypothesis. The result contains every hypothesis that
    describes the observations under the attachment semantics above, unless
    a cap truncated it."""
    if not observations:
        raise PlanError("observation sequence is empty")
    hset = HypothesisSet((Hypothesis((), 1.0),), 0)
    for action in observations:
        hset = explain_step(lib, hset, action, cfg)
    return hset
