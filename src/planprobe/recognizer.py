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

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import PlanError, UnexplainableObservationError
from .library import PlanLibrary, RefinementMethod
from .plans import (
    Hypothesis,
    Path,
    Plan,
    PlanNode,
    apply_method,
    iter_nodes,
    observe_leaf,
)

if TYPE_CHECKING:
    from .engine import RelationTable

WEIGHT_TOLERANCE = 1e-9

# chain: sequence of (method, constituent position) steps ending at a leaf
Chain = tuple[tuple[RefinementMethod, int], ...]


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


def hypothesis_weight(lib: PlanLibrary, h: Hypothesis) -> float:
    """Unnormalized weight: product over plans of the root goal's prior times,
    for every expanded node, one over the number of methods for its label."""
    w = 1.0
    for plan in h.plans:
        w *= lib.goal_priors[plan.root.label]
        for _, node in iter_nodes(plan):
            if node.expanded:
                w *= 1.0 / len(lib.methods_for(node.label))
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

    def walk(node: PlanNode, path: Path, enabled: bool) -> None:
        if not node.expanded:
            if enabled and (lib.is_complex(node.label) or node.observed is None):
                out.append(path)
            return
        method = lib.method(node.method)
        for i, child in enumerate(node.children):
            child_enabled = enabled and all(
                _fully_observed(lib, node.children[j], memo) for j in method.predecessors[i]
            )
            walk(child, path + (i,), child_enabled)

    walk(plan.root, (), True)
    return out


_CHAIN_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _chains_to(lib: PlanLibrary, label: str, target: str) -> tuple[Chain, ...]:
    """All expansion chains from an open node labeled `label` down to a basic
    leaf labeled `target`, descending only into order-minimal positions of
    each applied method. Deterministic: file order, ascending positions."""
    per_lib = _CHAIN_CACHE.setdefault(lib, {})
    key = (label, target)
    hit = per_lib.get(key)
    if hit is not None:
        return hit
    chains: list[Chain] = []
    for m in lib.methods_for(label):
        for i in m.minimal_positions:
            c = m.constituents[i]
            if c == target and lib.is_basic(c):
                chains.append(((m, i),))
            elif lib.is_complex(c):
                for sub in _chains_to(lib, c, target):
                    chains.append(((m, i),) + sub)
    result = tuple(chains)
    per_lib[key] = result
    return result


def _attach_chain(plan: Plan, path: Path, chain: Chain, index: int) -> Plan:
    for method, pos in chain:
        plan = apply_method(plan, path, method)
        path = path + (pos,)
    return observe_leaf(plan, path, index)


def _hypothesis_multiset(h: Hypothesis) -> frozenset:
    return frozenset(Counter(p.root for p in h.plans).items())


def explain_step(
    lib: PlanLibrary,
    hset: HypothesisSet,
    action: str,
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Extend every hypothesis by one observation, in all distinct ways.
    Structurally identical successors are merged (weights summed) and the
    result renormalized. Raises UnexplainableObservationError when no
    hypothesis can absorb the action."""
    cfg = cfg or RecognizerConfig()
    if not lib.is_basic(action):
        kind = "complex" if lib.is_complex(action) else "unknown"
        raise UnexplainableObservationError(hset.observation_count, f"{action} ({kind} action)")
    index = hset.observation_count

    merged: dict[frozenset, Hypothesis] = {}

    def emit(plans: tuple[Plan, ...]) -> None:
        h = Hypothesis(plans, hypothesis_weight(lib, Hypothesis(plans)))
        key = _hypothesis_multiset(h)
        prev = merged.get(key)
        if prev is None:
            merged[key] = h
        else:
            merged[key] = Hypothesis(prev.plans, prev.weight + h.weight)

    for h in hset.hypotheses:
        for plan_idx, plan in enumerate(h.plans):
            for path in enabled_expansion_targets(lib, plan):
                node = plan.node_at(path)
                if lib.is_basic(node.label):
                    if node.label == action:
                        grown = observe_leaf(plan, path, index)
                        emit(h.plans[:plan_idx] + (grown,) + h.plans[plan_idx + 1:])
                else:
                    for chain in _chains_to(lib, node.label, action):
                        grown = _attach_chain(plan, path, chain, index)
                        emit(h.plans[:plan_idx] + (grown,) + h.plans[plan_idx + 1:])
        if cfg.new_plan_allowed:
            used_goals = {p.root.label for p in h.plans}
            for goal in lib.goals:
                if goal in used_goals:
                    continue
                for chain in _chains_to(lib, goal, action):
                    fresh = _attach_chain(Plan(PlanNode(goal)), (), chain, index)
                    emit(h.plans + (fresh,))

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
