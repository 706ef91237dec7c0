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

recognize folds one step over the observations with a node memo that
lives for the call: a dict keyed by tree node that computes a missing
node's fully-observed flag, enabled frontier and weight factors from the
library it carries, so each is computed once. Every reader indexes it, and
the steps read the library from it. A grown plan shares every subtree off
its attachment path with its parent, so only the new nodes are computed.
Each distinct plan is grown once per observation. A label's graft subtrees,
one per chain down to the action, are built straight from its methods once
per observation, sharing each lower label's subtrees; a label whose
first-action set lacks the action has none, so no chain to an unobserved
action is ever built. A subtree is attached with one path copy,
and a new plan for a goal is one of that goal's subtrees. _step returns plans
only; _fold weighs just the set it returns, by the product
hypothesis_weight forms from each hypothesis's own plans, plus a capped
step's successors to choose the ones it keeps. No two successors are equal
(see _step), so none are merged. explain_step is that step on its own; the
set it returns holds its memo and the next explain_step continues it, so a
chain of steps keeps one memo as recognize does.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, Iterable

from .errors import PlanError, UnexplainableObservationError, ZeroWeightError
from .library import PlanLibrary, left_sum
from .plans import Hypothesis, Path, PlanNode, _replace

if TYPE_CHECKING:
    from .engine import RelationTable

WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RecognizerConfig:
    max_hypotheses: int | None = None

    def __post_init__(self):
        if self.max_hypotheses is not None and self.max_hypotheses < 1:
            raise ValueError("max_hypotheses must be >= 1")


@dataclass(frozen=True)
class HypothesisSet:
    """Weighted hypotheses explaining the first observation_count
    observations. Weights are normalized; truncated marks a capped set whose
    completeness guarantees no longer hold. relations is the set's relation
    table and the mask of its hypotheses over the table's order, held for
    engine.relations: built on first use, and inherited by every set that
    engine.update or the query loop derives from this one. memo is the node
    memo of the explain_step chain that built the set, which the next step
    continues: a dict from every node that chain met to its entry, all kept
    alive as long as the set. An empty memo is falsy, so it is tested
    against None. Neither is an init field, so dataclasses.replace and
    normalized never copy them onto other hypotheses. weights lists the
    hypotheses' weights, read once."""

    hypotheses: tuple[Hypothesis, ...]
    observation_count: int
    truncated: bool = False
    relations: tuple[RelationTable, int] | None = field(default=None, init=False, compare=False, repr=False)
    memo: _PlanMemo | None = field(default=None, init=False, compare=False, repr=False)
    weights: list[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", [h.weight for h in self.hypotheses])
        if self.hypotheses:
            total = left_sum(self.weights)
            if not abs(total - 1.0) <= WEIGHT_TOLERANCE:
                raise ValueError(f"hypothesis weights sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.hypotheses)

    @classmethod
    def normalized(
        cls,
        hypotheses: Iterable[Hypothesis],
        observation_count: int,
        truncated: bool = False,
    ) -> HypothesisSet:
        hyps = tuple(hypotheses)
        if not hyps:
            return cls((), observation_count, truncated)
        weights = normalize([h.weight for h in hyps])
        return cls(tuple(map(Hypothesis, (h.plans for h in hyps), weights)), observation_count, truncated)


def normalize(weights: list[float]) -> list[float]:
    """Each weight divided by the left-to-right sum of all of them, which
    must be positive, else ZeroWeightError. HypothesisSet.normalized and the
    query loop both renormalize through this, so their weights agree bit for
    bit."""
    total = left_sum(weights)
    if total <= 0:
        raise ZeroWeightError("every hypothesis left has weight 0, so none can be normalized")
    return [w / total for w in weights]


class _PlanMemo(dict):
    """What one recognize call, or one chain of explain_step calls, knows
    about each plan node it has met (a plan is its root node): a dict keyed
    by the node itself, marks included, that fills itself on a miss. Each
    entry holds whether the node's subtree is fully observed, its enabled
    frontier as (path relative to the node, node) pairs in left-to-right
    order, and the weight factors of its expanded nodes in preorder, all
    read from lib, which the memo carries. blanks holds, per method id, one
    tuple of blank constituent nodes, shared by every graft subtree built.
    Plans are persistent trees, so a grown plan shares every subtree off its
    attachment path with the plan it grew from, and only the nodes on that
    path and in the grafted subtree are new here."""

    __slots__ = ("lib", "blanks")

    def __init__(self, lib: PlanLibrary):
        self.lib = lib
        self.blanks: dict[str, tuple[PlanNode, ...]] = {}

    def __missing__(self, node: PlanNode) -> tuple[bool, tuple[tuple[Path, PlanNode], ...], tuple[float, ...]]:
        """(fully observed, enabled frontier, weight factors) of `node`,
        computed and stored."""
        lib = self.lib
        if node.method is None:
            full = node.observed is not None and node.label in lib.basic
            targets = (((), node),) if node.observed is None or node.label in lib.complex_actions else ()
            hit = (full, targets, ())
        else:
            # a constituent is enabled when all its ordering predecessors
            # root fully observed subtrees (bits of done); a disabled one
            # holds no target, and the node is full when every bit is set
            kids = [self[c] for c in node.children]
            done = 0
            for j, kid in enumerate(kids):
                if kid[0]:
                    done |= 1 << j
            predecessors = lib.method(node.method).predecessors
            factors = (1.0 / len(lib.methods_for(node.label)),)
            targets = []
            for i, (_, below, fs) in enumerate(kids):
                factors += fs
                if below and not predecessors[i] & ~done:
                    for path, n in below:
                        targets.append(((i, *path), n))
            hit = (done == (1 << len(kids)) - 1, tuple(targets), factors)
        self[node] = hit
        return hit


def _grafts(memo: _PlanMemo, cache: dict[str, list[PlanNode]], leaf: PlanNode, label: str) -> list[PlanNode]:
    """The subtree of every fresh expansion from an open `label` node down to
    `leaf` through order-minimal positions, in chain order: methods in file
    order, positions ascending. `cache` holds one step's subtrees per label,
    so a lower label's subtrees are built once and shared. An undeclared
    label raises LibraryValidationError."""
    out = cache.get(label)
    if out is not None:
        return out
    out = cache[label] = []
    lib = memo.lib
    methods = lib.methods_for(label)
    if leaf.label in lib.first_actions[label]:
        for m in methods:
            blanks = memo.blanks.get(m.id) or memo.blanks.setdefault(m.id, tuple(map(PlanNode, m.constituents)))
            for i in m.minimal_positions:
                c = m.constituents[i]
                below = (leaf,) if c == leaf.label else _grafts(memo, cache, leaf, c) if c in lib.complex_actions else ()
                for sub in below:
                    out.append(PlanNode(label, m.id, blanks[:i] + (sub,) + blanks[i + 1:]))
    return out


def _weight(memo: _PlanMemo, plans: Iterable[PlanNode]) -> float:
    """Per plan, its root goal's prior, then one over the number of methods
    for each expanded node's label, in preorder; multiplied left to right,
    one factor at a time."""
    priors, w = memo.lib.goal_priors, 1.0
    for plan in plans:
        w = prod(memo[plan][2], start=w * priors[plan.label])
    return w


def hypothesis_weight(lib: PlanLibrary, h: Hypothesis) -> float:
    """Unnormalized weight of `h`, the same product the recognizer weighs
    every hypothesis it keeps, or caps, by."""
    return _weight(_PlanMemo(lib), h.plans)


def _step(
    memo: _PlanMemo,
    hypotheses: Iterable[tuple[PlanNode, ...]],
    index: int,
    action: str,
) -> list[tuple[PlanNode, ...]]:
    """Extend every hypothesis, given by its plans, by observation `index`
    in all ways. Returns the successors' plans in emission order, unweighed
    and uncapped: _fold caps and weighs them.

    A grown plan takes its root's place; a new plan, one per chain from an
    unused goal down to the action, is appended.

    No two successors are equal, so none are merged, if the input is the
    seed or some hypotheses of a set this step built, in which every
    expanded node covers a mark. A successor holds the new mark in exactly
    one plan, and undoing that attachment gives back one parent: a plan with
    no other mark was started fresh; otherwise the grafted chain starts at
    the ancestor nearest the root whose subtree holds no other mark, or, if
    there is none, the mark was put on a pending leaf. Distinct attachments
    to one parent give distinct plans, so no two parents share a successor."""
    lib = memo.lib
    if not lib.is_basic(action):
        kind = "complex" if lib.is_complex(action) else "unknown"
        raise UnexplainableObservationError(index, action, kind=kind)
    leaf = PlanNode(action, observed=index)
    cache: dict[str, list[PlanNode]] = {}
    grown_of: dict[PlanNode, list[PlanNode]] = {}

    def grow(root: PlanNode) -> list[PlanNode]:
        """Every way the plan at `root` absorbs the action, each made by one
        path copy."""
        out = grown_of[root] = []
        for path, node in memo[root][1]:
            if node.label in lib.basic:
                if node.label == action:
                    out.append(_replace(root, path, leaf))
                continue
            subtrees = _grafts(memo, cache, leaf, node.label)
            if subtrees and node.observed is not None:
                raise PlanError(f"node {node.label!r} at {path} is an observed leaf")
            for sub in subtrees:
                out.append(_replace(root, path, sub))
        return out

    # the goals whose subtrees reach the action, in goal order
    starts = [(goal, subtrees) for goal in lib.goals if (subtrees := _grafts(memo, cache, leaf, goal))]
    successors = []
    for plans in hypotheses:
        for i, root in enumerate(plans):
            grown = grown_of.get(root)
            for g in grow(root) if grown is None else grown:
                successors.append(plans[:i] + (g,) + plans[i + 1:])
        if starts:
            used_goals = {r.label for r in plans}
            for goal, subtrees in starts:
                if goal not in used_goals:
                    for start in subtrees:
                        successors.append(plans + (start,))
    return successors


def _fold(memo: _PlanMemo, hset: HypothesisSet, observations: list[str], cfg: RecognizerConfig | None) -> HypothesisSet:
    """_step folded from hset over the observations with the node memo
    `memo`, over the library it carries. A step with more successors than
    the cap weighs them all, keeps the heaviest, ties in emission order, and
    marks the set truncated. No other intermediate successor is weighed: one
    weight pass over the final set, normalized, and each Hypothesis built
    once. The fold makes no reference cycles, so the cyclic collector is off
    while it runs and its prior state is restored on the way out, error or
    not."""
    cap, truncated = (cfg or RecognizerConfig()).max_hypotheses, hset.truncated
    hypotheses = [h.plans for h in hset.hypotheses]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for index, action in enumerate(observations, hset.observation_count):
            hypotheses = _step(memo, hypotheses, index, action)
            if not hypotheses:
                raise UnexplainableObservationError(index, action, truncated)
            if cap is not None and len(hypotheses) > cap:
                hypotheses.sort(key=lambda plans: -_weight(memo, plans))
                del hypotheses[cap:]
                truncated = True
        weights = normalize([_weight(memo, plans) for plans in hypotheses])
        return HypothesisSet(tuple(map(Hypothesis, hypotheses, weights)), index + 1, truncated)
    finally:
        if collecting:
            gc.enable()


def explain_step(
    lib: PlanLibrary,
    hset: HypothesisSet,
    action: str,
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Extend every hypothesis by one observation in all distinct ways, and
    normalize; raise UnexplainableObservationError when none can absorb the
    action. `hset` is the seed or some hypotheses, under any weights, of a
    set that recognize or explain_step built: then no successors are equal.

    One step of recognize, continuing the node memo that `hset` holds when
    explain_step built it over the same library object, else with a fresh
    one; the set returned holds that memo. A chain of steps from the seed
    therefore keeps one memo, as recognize does: each distinct plan is
    grown once, and each node's frontier and weight factors are computed
    once per chain. A memo entry depends on the library and the node alone,
    so the steps taken from `hset` before, or one that raised, change no
    result. The set returned, and under a binding cap every successor, is
    weighed from its own plans and the incoming weights are not read, so
    explain_step(lib, recognize(lib, obs[:k]), obs[k]) equals
    recognize(lib, obs[:k + 1])."""
    memo = hset.memo if hset.memo is not None and hset.memo.lib is lib else _PlanMemo(lib)
    out = _fold(memo, hset, [action], cfg)
    object.__setattr__(out, "memo", memo)
    return out


def recognize(
    lib: PlanLibrary,
    observations: list[str],
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    """Fold the step over the observation sequence, starting from the empty
    seed hypothesis. The result contains every hypothesis that describes the
    observations under the attachment semantics above, unless a cap
    truncated it.

    One node memo serves the whole fold, so a node carried over unchanged,
    in the same plan or in one grown from it, keeps its frontier and weight
    factors from the step before. Only a step the cap binds weighs its
    successors, and the final set is weighed once and normalized, each
    hypothesis from its plans alone, so the result equals folding
    explain_step over the observations. The memo is dropped on return: the
    set recognize builds is the one the query loop reads, and a memo kept
    alive with it slows every session."""
    if not observations:
        raise PlanError("observation sequence is empty")
    return _fold(_PlanMemo(lib), HypothesisSet((Hypothesis((), 1.0),), 0), observations, cfg)
