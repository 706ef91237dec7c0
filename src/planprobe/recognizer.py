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

recognize folds one step over the observations with a memo that lives for
the call: each distinct plan's enabled targets and weight factors are
computed once and kept while the plan is carried over unchanged, and each
distinct plan is grown once per observation. Successor weights are
products of plan factors and never read the parent's weight, so only the
final set is normalized. explain_step is that step on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, Iterable

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


def hypothesis_weight(lib: PlanLibrary, h: Hypothesis) -> float:
    """Unnormalized weight: the product of each plan's weight factors,
    plan by plan, one factor at a time. math.prod multiplies left to right
    from `start`, so wherever a product over the same plans is formed, it
    rounds the same way at every factor."""
    w = 1.0
    for plan in h.plans:
        w = prod(_weight_factors(lib, plan), start=w)
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


@dataclass
class _PlanMemo:
    """What one recognition run knows about a plan at any observation,
    keyed by plan.root: its weight factors and its enabled expansion targets
    with their nodes; plus the weight factors of the new-plan starts for
    each (goal, action). A plan carried over unchanged from the step before
    finds both here instead of walking its tree again."""

    factors: dict[PlanNode, tuple[float, ...]] = field(default_factory=dict)
    targets: dict[PlanNode, list[tuple[Path, PlanNode]]] = field(default_factory=dict)
    fresh: dict[tuple[str, str], list[tuple[float, ...]]] = field(default_factory=dict)

    def factors_of(self, lib: PlanLibrary, plan: Plan) -> tuple[float, ...]:
        hit = self.factors.get(plan.root)
        if hit is None:
            hit = self.factors[plan.root] = _weight_factors(lib, plan)
        return hit


def _step(
    lib: PlanLibrary,
    cfg: RecognizerConfig,
    memo: _PlanMemo,
    hypotheses: Iterable[tuple[Plan, ...]],
    index: int,
    action: str,
    truncated: bool,
) -> tuple[list[list], bool]:
    """Extend every hypothesis, given by its plans, by observation `index`
    in all distinct ways. Returns the merged and capped successors as
    [plans, weight] pairs with unnormalized weights, and whether the set is
    now truncated (`truncated` says an earlier cap already cut it).

    A successor's weight is the product of its plans' weight factors, formed
    left to right exactly as hypothesis_weight forms it; it never reads the
    parent's weight, so no intermediate set needs normalizing. Successors
    with the same plans merge by adding weights. Their merge key is the set
    of their plan roots, which is plans.hypothesis_key: a hypothesis holds at
    most one plan per goal (a new plan starts only for an unused goal, and a
    grown plan keeps its root label), so its roots are distinct and the set
    stands for the multiset."""
    if not lib.is_basic(action):
        kind = "complex" if lib.is_complex(action) else "unknown"
        raise UnexplainableObservationError(index, f"{action} ({kind} action)")
    targets_of = memo.targets
    grown_of: dict[PlanNode, list[tuple[Plan, tuple[float, ...]]]] = {}

    def grow(plan: Plan) -> list[tuple[Plan, tuple[float, ...]]]:
        """Every way `plan` absorbs the action, with the grown plans' factors."""
        root = plan.root
        targets = targets_of.get(root)
        if targets is None:
            paths = enabled_expansion_targets(lib, plan)
            targets = targets_of[root] = [(path, plan.node_at(path)) for path in paths]
        out = []
        for path, node in targets:
            if lib.is_basic(node.label):
                if node.label == action:
                    out.append(observe_leaf(plan, path, index))
            else:
                for chain in lib.chains_to(node.label, action):
                    out.append(_attach_chain(plan, path, chain, index))
        grown = grown_of[root] = [(g, memo.factors_of(lib, g)) for g in out]
        return grown

    # a new plan for a goal starts the same way in every hypothesis
    fresh: list[tuple[str, list[tuple[Plan, tuple[float, ...]]]]] = []
    if cfg.new_plan_allowed:
        for goal in lib.goals:
            chains = lib.chains_to(goal, action)
            if not chains:
                continue
            starts = [_attach_chain(Plan(PlanNode(goal)), (), c, index) for c in chains]
            start_factors = memo.fresh.get((goal, action))
            if start_factors is None:
                start_factors = memo.fresh[(goal, action)] = [_weight_factors(lib, p) for p in starts]
            for p, fs in zip(starts, start_factors):
                memo.factors[p.root] = fs
            fresh.append((goal, list(zip(starts, start_factors))))

    merged: dict[frozenset[PlanNode], list] = {}

    def emit(key: frozenset[PlanNode], plans: tuple[Plan, ...], weight: float) -> None:
        prev = merged.get(key)
        if prev is None:
            merged[key] = [plans, weight]
        else:
            prev[1] += weight

    for plans in hypotheses:
        roots = [p.root for p in plans]
        plan_factors = [memo.factors_of(lib, p) for p in plans]
        # prefix[i]: the product over plans[:i], formed as hypothesis_weight forms it
        prefix = [1.0]
        for fs in plan_factors:
            prefix.append(prod(fs, start=prefix[-1]))
        for i, plan in enumerate(plans):
            grown = grown_of.get(plan.root)
            if grown is None:
                grown = grow(plan)
            if not grown:
                continue
            others = roots[:i] + roots[i + 1:]
            tail = tuple(f for fs in plan_factors[i + 1:] for f in fs)
            for g, gfs in grown:
                successor = plans[:i] + (g,) + plans[i + 1:]
                emit(frozenset((*others, g.root)), successor, prod(gfs + tail, start=prefix[i]))
        if fresh:
            used_goals = {r.label for r in roots}
            for goal, starts in fresh:
                if goal in used_goals:
                    continue
                for p, fs in starts:
                    emit(frozenset((*roots, p.root)), plans + (p,), prod(fs, start=prefix[-1]))

    if not merged:
        raise UnexplainableObservationError(index, action, truncated)

    successors = list(merged.values())
    if cfg.max_hypotheses is not None and len(successors) > cfg.max_hypotheses:
        successors.sort(key=lambda s: -s[1])
        del successors[cfg.max_hypotheses:]
        truncated = True
    return successors, truncated


def _normalized(successors: list[list], observation_count: int, truncated: bool) -> HypothesisSet:
    return HypothesisSet.normalized(
        [Hypothesis(plans, w) for plans, w in successors], observation_count, truncated
    )


def explain_step(
    lib: PlanLibrary,
    hset: HypothesisSet,
    action: str,
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Extend every hypothesis by one observation, in all distinct ways.
    Structurally identical successors are merged (weights summed) and the
    result normalized. Raises UnexplainableObservationError when no
    hypothesis can absorb the action.

    One step of recognize with a fresh plan memo: each distinct plan is
    grown once and its weight factors computed once. The incoming weights
    are not read, so explain_step(lib, recognize(lib, obs[:k]), obs[k])
    equals recognize(lib, obs[:k + 1])."""
    index = hset.observation_count
    successors, truncated = _step(
        lib, cfg or RecognizerConfig(), _PlanMemo(),
        (h.plans for h in hset.hypotheses), index, action, hset.truncated,
    )
    return _normalized(successors, index + 1, truncated)


def recognize(
    lib: PlanLibrary,
    observations: list[str],
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Fold the step over the observation sequence, starting from the empty
    seed hypothesis. The result contains every hypothesis that describes the
    observations under the attachment semantics above, unless a cap
    truncated it.

    One plan memo serves the whole fold, so a plan carried over unchanged
    keeps its enabled targets and weight factors from the step before, and
    only the final set is normalized. The result equals folding explain_step
    over the observations."""
    if not observations:
        raise PlanError("observation sequence is empty")
    cfg = cfg or RecognizerConfig()
    memo = _PlanMemo()
    successors: list[list] = [[(), 1.0]]
    truncated = False
    for index, action in enumerate(observations):
        successors, truncated = _step(
            lib, cfg, memo, (plans for plans, _ in successors), index, action, truncated
        )
    return _normalized(successors, len(observations), truncated)
