"""Brute-force reference implementations used only by tests.

Everything here recomputes results from first principles with naive search,
deliberately avoiding the package's decision procedures: refinement by
breadth-first expansion search, matching by enumerating complete
refinements and intersecting, recognition by exhaustive attachment
enumeration over plain tuples, and the grammar checks by plain recursion.
Plans are modeled as nested tuples (label, method_id, children, observed)
so no production traversal code is reused. Six sections at the end are the exception. The plan editing
section holds the frontier and single-method growth that only tests use.
The other five serve as references for fast paths rather than as
independent oracles: the list-based relation rules and the root-keyed
query loop reuse the production relations and check the query loop's
relation table and its forced answers, the per-hypothesis query loop reuses
the production relation table and checks the loop that walks one row per
mark-free class, the per-hypothesis recognition step reuses the plan
editing and checks the recognizer's per-step plan memo, the matching search
checks plans.hypothesis_refines, and the digest identity reuses the
production serialization and checks plans.hypothesis_key.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import random
from collections import Counter
from itertools import compress

from planprobe.engine import ProbeTrace, TraceStep, bit_selectors, query_answer, relations, restrict
from planprobe.errors import OracleInconsistencyError, PlanError, UnexplainableObservationError
from planprobe.library import PlanLibrary, RefinementMethod
from planprobe.plans import (
    Hypothesis,
    PlanNode,
    _replace,
    hypothesis_refines,
    is_refinement,
    iter_nodes,
    matches,
    observe_leaf,
    plan_to_dict,
)
from planprobe.recognizer import HypothesisSet, RecognizerConfig

# ---------------------------------------------------------------- tuple form

Tup = tuple  # (label, method_id | None, tuple[Tup, ...], observed | None)


def to_tuple(plan: PlanNode) -> Tup:
    def conv(node: PlanNode) -> Tup:
        return (node.label, node.method, tuple(conv(c) for c in node.children), node.observed)

    return conv(plan)


def strip_marks(t: Tup) -> Tup:
    return (t[0], t[1], tuple(strip_marks(c) for c in t[2]), None)


def tuple_to_json(t: Tup) -> str:
    def conv(u: Tup) -> dict:
        out = {"label": u[0]}
        if u[1] is not None:
            out["method"] = u[1]
        if u[3] is not None:
            out["observed"] = u[3]
        if u[2]:
            out["children"] = [conv(c) for c in u[2]]
        return out

    return json.dumps(conv(t), sort_keys=True, separators=(",", ":"))


def count_nodes(t: Tup) -> int:
    return 1 + sum(count_nodes(c) for c in t[2])


# ------------------------------------------------- complete plan enumeration

def count_complete_plans(lib: PlanLibrary, label: str) -> int:
    if label in lib.basic:
        return 1
    total = 0
    for m in lib.methods_for(label):
        prod = 1
        for c in m.constituents:
            prod *= count_complete_plans(lib, c)
        total += prod
    return total


def library_complete_plans(lib: PlanLibrary) -> int:
    return sum(count_complete_plans(lib, g) for g in lib.goals)


def all_complete_trees(lib: PlanLibrary, label: str) -> list[Tup]:
    if label in lib.basic:
        return [(label, None, (), None)]
    out: list[Tup] = []
    for m in lib.methods_for(label):
        child_options = [all_complete_trees(lib, c) for c in m.constituents]
        for combo in itertools.product(*child_options):
            out.append((label, m.id, tuple(combo), None))
    return out


def complete_refinements(lib: PlanLibrary, t: Tup) -> set[Tup]:
    """All complete trees reachable by expanding open nodes, marks dropped."""
    t = strip_marks(t)

    def rec(u: Tup) -> list[Tup]:
        label, method, children, _ = u
        if method is None:
            if label in lib.basic:
                return [u]
            return all_complete_trees(lib, label)
        child_options = [rec(c) for c in children]
        return [(label, method, tuple(combo), None) for combo in itertools.product(*child_options)]

    return set(rec(t))


def matches_oracle(lib: PlanLibrary, p: PlanNode, q: PlanNode) -> bool:
    """Common complete refinement exists."""
    return bool(
        complete_refinements(lib, to_tuple(p)) & complete_refinements(lib, to_tuple(q))
    )


# ------------------------------------------------------ grammar shape oracle

def grammar_fault(
    complex_actions: frozenset[str], methods: tuple[RefinementMethod, ...], goals: tuple[str, ...], max_depth: int
) -> tuple[str, frozenset[str], int] | None:
    """Why PlanLibrary must reject a grammar, or None, checked in this order
    by plain recursion over head -> complex constituent:
    ("cyclic", the labels on some cycle, 0), ("too deep", the labels heading
    a longest chain, its number of method steps) or ("no method", the
    method-less labels reachable from a goal, 0). Small grammars only: it
    recurses once per level and enumerates paths."""
    heads = {m.head for m in methods}
    below = {
        label: [c for m in methods if m.head == label for c in m.constituents if c in complex_actions]
        for label in complex_actions
    }

    def cycle_labels(label: str, trail: tuple[str, ...]) -> set[str]:
        if label in trail:
            return set(trail[trail.index(label):])
        return set().union(*(cycle_labels(c, trail + (label,)) for c in below[label]))

    cyclic = set().union(*(cycle_labels(label, ()) for label in complex_actions))
    if cyclic:
        return "cyclic", frozenset(cyclic), 0

    def height(label: str) -> int:
        return 1 + max(map(height, below[label]), default=0) if label in heads else 0

    heights = {label: height(label) for label in complex_actions}
    longest = max(heights.values())
    if longest > max_depth:
        return "too deep", frozenset(k for k, v in heights.items() if v == longest), longest

    reached: set[str] = set()

    def visit(label: str) -> None:
        if label not in reached:
            reached.add(label)
            for c in below[label]:
                visit(c)

    for goal in goals:
        visit(goal)
    missing = reached - heads
    return ("no method", frozenset(missing), 0) if missing else None


# -------------------------------------------------- refinement search oracle

def _expand_once(lib: PlanLibrary, t: Tup) -> list[Tup]:
    """Every tree obtainable by expanding exactly one open complex node."""
    label, method, children, mark = t
    out: list[Tup] = []
    if method is None:
        if label in lib.complex_actions:
            for m in lib.methods_for(label):
                out.append(
                    (label, m.id, tuple((c, None, (), None) for c in m.constituents), None)
                )
        return out
    for i, child in enumerate(children):
        for grown in _expand_once(lib, child):
            out.append((label, method, children[:i] + (grown,) + children[i + 1:], mark))
    return out


def refinement_oracle(lib: PlanLibrary, p: PlanNode, q: PlanNode) -> bool:
    """Breadth-first search for an expansion sequence turning p into q."""
    start = strip_marks(to_tuple(p))
    goal = strip_marks(to_tuple(q))
    limit = count_nodes(goal)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            if t == goal:
                return True
            for grown in _expand_once(lib, t):
                if grown in seen or count_nodes(grown) > limit:
                    continue
                seen.add(grown)
                nxt.append(grown)
        frontier = nxt
    return goal in seen


# ------------------------------------------------ naive recognition oracle

def _order_pairs(lib: PlanLibrary, method_id: str) -> frozenset[tuple[int, int]]:
    return lib.method(method_id).order


def _preds_closure(pairs: frozenset[tuple[int, int]], idx: int) -> set[int]:
    preds: set[int] = set()
    frontier = {j for j, k in pairs if k == idx}
    while frontier:
        preds |= frontier
        frontier = {j for j, k in pairs for f in frontier if k == f and j not in preds}
    return preds


def _fully_executed(lib: PlanLibrary, t: Tup) -> bool:
    label, method, children, mark = t
    if method is None:
        return label in lib.basic and mark is not None
    return all(_fully_executed(lib, c) for c in children)


def _enabled(lib: PlanLibrary, t: Tup, path: tuple[int, ...]) -> bool:
    node = t
    for depth, idx in enumerate(path):
        pairs = _order_pairs(lib, node[1])
        for j in _preds_closure(pairs, idx):
            if not _fully_executed(lib, node[2][j]):
                return False
        node = node[2][idx]
    return True


def _all_paths(t: Tup, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Tup]]:
    out = [(path, t)]
    for i, c in enumerate(t[2]):
        out.extend(_all_paths(c, path + (i,)))
    return out


def _minimal_positions(lib: PlanLibrary, method) -> list[int]:
    return [
        i for i in range(len(method.constituents))
        if not any(k == i for _, k in method.order)
    ]


def _naive_chains(lib: PlanLibrary, label: str, target: str) -> list[list[tuple[str, int]]]:
    out: list[list[tuple[str, int]]] = []
    for m in lib.methods_for(label):
        for i in _minimal_positions(lib, m):
            c = m.constituents[i]
            if c == target and c in lib.basic:
                out.append([(m.id, i)])
            elif c in lib.complex_actions:
                for sub in _naive_chains(lib, c, target):
                    out.append([(m.id, i)] + sub)
    return out


def _grow(lib: PlanLibrary, t: Tup, path: tuple[int, ...], chain: list[tuple[str, int]], index: int) -> Tup:
    if not path and not chain:
        return (t[0], t[1], t[2], index)
    if not path:
        method_id, pos = chain[0]
        m = lib.method(method_id)
        children = tuple((c, None, (), None) for c in m.constituents)
        grown_child = _grow(lib, children[pos], (), chain[1:], index)
        children = children[:pos] + (grown_child,) + children[pos + 1:]
        return (t[0], method_id, children, None)
    i = path[0]
    grown = _grow(lib, t[2][i], path[1:], chain, index)
    return (t[0], t[1], t[2][:i] + (grown,) + t[2][i + 1:], t[3])


def naive_attach(lib: PlanLibrary, plans: tuple[Tup, ...], action: str, index: int) -> list[tuple[Tup, ...]]:
    out: list[tuple[Tup, ...]] = []
    for pi, plan in enumerate(plans):
        for path, node in _all_paths(plan):
            label, method, children, mark = node
            if method is not None or not _enabled(lib, plan, path):
                continue
            if label in lib.basic:
                if label == action and mark is None:
                    grown = _grow(lib, plan, path, [], index)
                    out.append(plans[:pi] + (grown,) + plans[pi + 1:])
            else:
                for chain in _naive_chains(lib, label, action):
                    grown = _grow(lib, plan, path, chain, index)
                    out.append(plans[:pi] + (grown,) + plans[pi + 1:])
    used = {p[0] for p in plans}
    for goal in lib.goals:
        if goal in used:
            continue
        for chain in _naive_chains(lib, goal, action):
            grown = _grow(lib, (goal, None, (), None), (), chain, index)
            out.append(plans + (grown,))
    return out


def naive_recognize(lib: PlanLibrary, observations: list[str]) -> set[tuple[str, ...]]:
    """Set of hypotheses (each a sorted tuple of plan JSON strings) reachable
    by exhaustive attachment enumeration."""
    current: list[tuple[Tup, ...]] = [()]
    for index, action in enumerate(observations):
        nxt: list[tuple[Tup, ...]] = []
        for plans in current:
            nxt.extend(naive_attach(lib, plans, action, index))
        dedup: dict[tuple[str, ...], tuple[Tup, ...]] = {}
        for plans in nxt:
            key = tuple(sorted(tuple_to_json(p) for p in plans))
            dedup[key] = plans
        current = list(dedup.values())
    return {tuple(sorted(tuple_to_json(p) for p in plans)) for plans in current}


def hypothesis_set_signature(hset) -> set[tuple[str, ...]]:
    """Same signature for production output, for comparison."""
    out = set()
    for h in hset.hypotheses:
        out.add(
            tuple(sorted(json.dumps(plan_to_dict(p), sort_keys=True, separators=(",", ":")) for p in h.plans))
        )
    return out


# ------------------------------------------ list-based relation rules

# The pruning rules, plan scores and selectors as they read before the
# query loop used a relation table: every call rescans the set's
# hypotheses and calls the production relations directly. The engine and
# policies must agree with these exactly, floats and tie-breaks included.
# A candidate is a plan up to marks (plan_shape), named by its first
# occurrence in the set; with key=plan_root the selectors read as they did
# before the loop dropped marks.

def survivors_if_true(hset, plan: PlanNode) -> list:
    return [h for h in hset.hypotheses if any(matches(p, plan) for p in h.plans)]


def survivors_if_false(hset, plan: PlanNode) -> list:
    return [h for h in hset.hypotheses if not any(is_refinement(plan, p) for p in h.plans)]


def update(hset, plan: PlanNode, answer: bool):
    survivors = survivors_if_true(hset, plan) if answer else survivors_if_false(hset, plan)
    if not survivors:
        raise OracleInconsistencyError(f"update with answer={answer} removed every hypothesis")
    return HypothesisSet.normalized(survivors, hset.observation_count, hset.truncated)


def plan_shape(plan: PlanNode) -> Tup:
    """A plan's identity as a question: its tree with marks dropped."""
    return strip_marks(to_tuple(plan))


def plan_root(plan: PlanNode) -> PlanNode:
    """A plan's identity as a question before the loop dropped marks."""
    return plan


def candidate_plans(hset, closed: set, key=plan_shape) -> list[PlanNode]:
    """The plans of the set once per key, skipping the keys of the closed
    plans, in first-occurrence order."""
    seen = {key(r) for r in closed}
    out: list[PlanNode] = []
    for h in hset.hypotheses:
        for p in h.plans:
            k = key(p)
            if k not in seen:
                seen.add(k)
                out.append(p)
    return out


def _left_sum(values) -> float:
    """Floats added left to right, the order the package sums weights in on
    every version (builtin sum compensates from CPython 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def cumulative_plan_prob(hset, plan: PlanNode) -> float:
    return _left_sum(h.weight for h in hset.hypotheses if any(is_refinement(plan, p) for p in h.plans))


def _rng(seed: int, closed: set) -> random.Random:
    """The eager draw: every reference select builds its generator and
    draws, tie or not. The policies build one only when a draw has two or
    more options, and must still pick the same plans."""
    return random.Random(f"{seed}:{len(closed)}")


def _entropy_of_weights(weights: list[float]) -> float:
    total = _left_sum(weights)
    if len(weights) <= 1 or not total > 0:
        return 0.0
    e = 0.0
    for w in weights:
        p = w / total
        if p > 0:
            e -= p * math.log2(p)
    return e


def select_random(hset, closed: set, seed: int, key=plan_shape) -> PlanNode:
    return _rng(seed, closed).choice(candidate_plans(hset, closed, key))


def select_mph(hset, closed: set, seed: int, key=plan_shape) -> PlanNode:
    # a chosen plan is named by its key's first occurrence in the set
    first = {key(p): p for p in candidate_plans(hset, closed, key)}
    open_by_hyp = []
    for h in hset.hypotheses:
        pending = [first[k] for k in dict.fromkeys(map(key, h.plans)) if k in first]
        if pending:
            open_by_hyp.append((h.weight, pending))
    best = max(w for w, _ in open_by_hyp)
    tied = [pending for w, pending in open_by_hyp if w == best]
    rng = _rng(seed, closed)
    return rng.choice(rng.choice(tied))


def select_mpp(hset, closed: set, seed: int, key=plan_shape) -> PlanNode:
    scored = [(cumulative_plan_prob(hset, t), t) for t in candidate_plans(hset, closed, key)]
    best = max(score for score, _ in scored)
    return _rng(seed, closed).choice([t for score, t in scored if score == best])


def select_min_entropy(hset, closed: set, seed: int, key=plan_shape) -> PlanNode:
    scored = []
    for t in candidate_plans(hset, closed, key):
        p_true = cumulative_plan_prob(hset, t)
        ent_true = _entropy_of_weights([h.weight for h in survivors_if_true(hset, t)])
        ent_false = _entropy_of_weights([h.weight for h in survivors_if_false(hset, t)])
        scored.append((p_true * ent_true + (1.0 - p_true) * ent_false, t))
    best = min(score for score, _ in scored)
    return _rng(seed, closed).choice([t for score, t in scored if score == best])


SELECTORS = {
    "random": select_random,
    "mph": select_mph,
    "mpp": select_mpp,
    "entropy": select_min_entropy,
}


def root_key_query_loop(h0, truth: Hypothesis, kind: str, seed: int):
    """The query loop as it read before it identified plans up to marks and
    closed forced answers unasked: every plan root not yet asked is a
    candidate. Returns the final set and the number of questions."""
    closed: set = set()
    current = h0
    while len(current) > 1 and candidate_plans(current, closed, plan_root):
        plan = SELECTORS[kind](current, closed, seed, plan_root)
        answer = any(is_refinement(plan, t) for t in truth.plans)
        current = update(current, plan, answer)
        closed.add(plan)
    return current, len(closed)


# ------------------------------------------------------------ plan editing

# The open frontier and the growth of a plan by one method application. The
# recognizer grafts whole chains and needs neither; tests build plans with
# them, and the per-hypothesis recognition step below grows its plans with
# apply_method.

def open_frontier(plan: PlanNode, lib: PlanLibrary) -> list[tuple[int, ...]]:
    """Unexpanded complex nodes plus unobserved basic leaves, left to right."""
    return [
        path for path, node in iter_nodes(plan)
        if not node.expanded and (lib.is_complex(node.label) or node.observed is None)
    ]


def apply_method(plan: PlanNode, path: tuple[int, ...], method: RefinementMethod) -> PlanNode:
    """Expand the unexpanded complex node at `path` with `method`, returning a
    new plan. The input plan is never mutated."""
    node = plan.node_at(path)
    if node.expanded:
        raise PlanError(f"node {node.label!r} at {path} is already expanded (not on the frontier)")
    if node.observed is not None:
        raise PlanError(f"node {node.label!r} at {path} is an observed leaf")
    if method.head != node.label:
        raise PlanError(f"method {method.id!r} expands {method.head!r}, not {node.label!r}")
    children = tuple(PlanNode(c) for c in method.constituents)
    return _replace(plan, path, PlanNode(node.label, method.id, children))


# ------------------------------------------ per-hypothesis query loop

# The query loop, update and selectors as they read before the loop walked
# one row per mark-free class: every set the loop holds is a HypothesisSet
# rebuilt and renormalized at each answer, and candidates and mph walk every
# live row. They share the production relation table, whose columns are
# exact over all of h0 and are ANDed with the live mask here. table_query_loop
# takes a policy kind and seed, and returns the final set and the trace.

def table_update(hset, plan: PlanNode, answer: bool):
    table, alive = relations(hset)
    t = table.intern(plan)
    kept = alive & (table.match(t) if answer else ~table.refine(t))
    if not kept:
        raise OracleInconsistencyError(f"update with answer={answer} removed every hypothesis")
    survivors = list(restrict(hset.hypotheses, alive, kept))
    total = _left_sum(h.weight for h in survivors)
    out = HypothesisSet(tuple(Hypothesis(h.plans, h.weight / total) for h in survivors),
                        hset.observation_count, hset.truncated)
    object.__setattr__(out, "relations", (table, kept))
    return out


def table_candidates(table, alive: int, closed: set) -> list[int]:
    skip = set(map(table.intern, closed))
    out = []
    for row in compress(table.per_hyp, bit_selectors(alive)):
        for t in row:
            if t not in skip:
                skip.add(t)
                out.append(t)
    return out


def table_select(kind: str, hset, closed: set, seed: int) -> PlanNode:
    table, alive = relations(hset)
    rng = _rng(seed, closed)
    weights = [h.weight for h in hset.hypotheses]
    if kind == "mph":
        skip = set(map(table.intern, closed))
        open_by_hyp = []
        for w, row in zip(weights, compress(table.per_hyp, bit_selectors(alive))):
            pending = list(dict.fromkeys(t for t in row if t not in skip))
            if pending:
                open_by_hyp.append((w, pending))
        best = max(w for w, _ in open_by_hyp)
        return table.plan(rng.choice(rng.choice([p for w, p in open_by_hyp if w == best])), alive)
    candidates = table_candidates(table, alive, closed)
    if kind == "random":
        return table.plan(rng.choice(candidates), alive)

    def score(t: int) -> float:
        refine = table.refine(t)
        p_true = _left_sum(restrict(weights, alive, refine))
        if kind == "mpp":
            return p_true
        ent_true = _entropy_of_weights(list(restrict(weights, alive, table.match(t))))
        ent_false = _entropy_of_weights(list(restrict(weights, alive, ~refine)))
        return p_true * ent_true + (1.0 - p_true) * ent_false

    scores = [score(t) for t in candidates]
    best = max(scores) if kind == "mpp" else min(scores)
    return table.plan(rng.choice([t for t, x in zip(candidates, scores) if x == best]), alive)


def table_query_loop(h0, oracle, kind: str, seed: int):
    if h0.truncated:
        raise ValueError("query loop requires an untruncated hypothesis set")
    if not any(hypothesis_refines(h, oracle.truth) for h in h0.hypotheses):
        raise OracleInconsistencyError("no hypothesis can be refined to the oracle's truth")
    trace = ProbeTrace(initial_size=len(h0))
    closed: set = set()
    asked: set = set()
    settled: set = set()
    last_true = None
    current = h0

    def settle(ids: list) -> None:
        settled.update(ids)
        closed.update(table.plans[t] for t in ids)

    while len(current) > 1:
        table, alive = relations(current)
        by_answer = []
        if last_true is not None:
            by_answer = [
                t for t in table.by_label[last_true.label]
                if table.owners[t] & alive and t not in asked and t not in settled
                and is_refinement(table.plans[t], last_true)
            ]
            settle(by_answer)
        open_ids = table_candidates(table, alive, closed)
        by_premise = [
            t for t in open_ids
            if not alive & ~table.label_owners[table.plans[t].label]
            and not alive & ~table.refine(t)
        ]
        settle(by_premise)
        if len(open_ids) == len(by_premise):
            break
        plan = table_select(kind, current, closed, seed)
        t = table.intern(plan)
        assert t not in asked and t not in settled and table.owners[t] & alive
        answer = query_answer(oracle, plan)
        current = table_update(current, plan, answer)
        asked.add(t)
        closed.add(plan)
        trace.steps.append(TraceStep(plan, answer, len(current), len(by_premise), len(by_answer)))
        last_true = plan if answer else None
    return current, trace


# ------------------------------------------ per-hypothesis recognition step
#
# The recognizer as it was before per-step plan memoization: every
# (hypothesis, plan) pair finds its own targets and chains and grows its own
# plans, and every successor's weight is recomputed from its plan trees.
# Only the chain cache differs: it lives in a dict passed down from the
# step instead of a module-global table.


def hypothesis_weight(lib: PlanLibrary, h: Hypothesis) -> float:
    w = 1.0
    for plan in h.plans:
        w *= lib.goal_priors[plan.label]
        for _, node in iter_nodes(plan):
            if node.expanded:
                w *= 1.0 / len(lib.methods_for(node.label))
    return w


def weight_factors(lib: PlanLibrary, plan: PlanNode) -> tuple[float, ...]:
    """The root goal's prior, then, for every expanded node in preorder, one
    over the number of methods for its label: the whole-tree walk the
    recognizer's node memo replaced."""
    out = [lib.goal_priors[plan.label]]
    stack = [plan]
    while stack:
        node = stack.pop()
        if node.method is not None:
            out.append(1.0 / len(lib.methods_for(node.label)))
            stack.extend(reversed(node.children))
    return tuple(out)


def _fully_observed(lib: PlanLibrary, node: PlanNode, memo: dict[int, bool]) -> bool:
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


def enabled_expansion_targets(lib: PlanLibrary, plan: PlanNode) -> list:
    out: list = []
    memo: dict[int, bool] = {}

    def walk(node: PlanNode, path: tuple, enabled: bool) -> None:
        if not node.expanded:
            if enabled and (lib.is_complex(node.label) or node.observed is None):
                out.append(path)
            return
        method = lib.method(node.method)
        for i, child in enumerate(node.children):
            child_enabled = enabled and all(
                _fully_observed(lib, node.children[j], memo) for j in _preds_closure(method.order, i)
            )
            walk(child, path + (i,), child_enabled)

    walk(plan, (), True)
    return out


def _chains_to(lib: PlanLibrary, label: str, target: str, cache: dict) -> tuple:
    key = (label, target)
    hit = cache.get(key)
    if hit is not None:
        return hit
    chains: list = []
    for m in lib.methods_for(label):
        for i in m.minimal_positions:
            c = m.constituents[i]
            if c == target and lib.is_basic(c):
                chains.append(((m, i),))
            elif lib.is_complex(c):
                for sub in _chains_to(lib, c, target, cache):
                    chains.append(((m, i),) + sub)
    result = tuple(chains)
    cache[key] = result
    return result


def _attach_chain(plan: PlanNode, path: tuple, chain: tuple, index: int) -> PlanNode:
    for method, pos in chain:
        plan = apply_method(plan, path, method)
        path = path + (pos,)
    return observe_leaf(plan, path, index)


def _hypothesis_multiset(h: Hypothesis) -> frozenset:
    return frozenset(Counter(h.plans).items())


def explain_step(
    lib: PlanLibrary,
    hset: HypothesisSet,
    action: str,
    cfg: RecognizerConfig | None = None,
) -> HypothesisSet:
    cfg = cfg or RecognizerConfig()
    if not lib.is_basic(action):
        kind = "complex" if lib.is_complex(action) else "unknown"
        raise UnexplainableObservationError(hset.observation_count, action, kind=kind)
    index = hset.observation_count
    chain_cache: dict = {}

    merged: dict[frozenset, Hypothesis] = {}

    def emit(plans: tuple[PlanNode, ...]) -> None:
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
                    for chain in _chains_to(lib, node.label, action, chain_cache):
                        grown = _attach_chain(plan, path, chain, index)
                        emit(h.plans[:plan_idx] + (grown,) + h.plans[plan_idx + 1:])
        used_goals = {p.label for p in h.plans}
        for goal in lib.goals:
            if goal in used_goals:
                continue
            for chain in _chains_to(lib, goal, action, chain_cache):
                fresh = _attach_chain(PlanNode(goal), (), chain, index)
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


# ------------------------------------------------ hypothesis refinement

# hypothesis_refines as it read before it paired plans by root label: a
# search for a perfect matching, which needs no precondition on labels.

def matching_hypothesis_refines(h: Hypothesis, g: Hypothesis) -> bool:
    if len(h.plans) != len(g.plans):
        return False
    n = len(g.plans)
    compat = [[is_refinement(hp, gp) for hp in h.plans] for gp in g.plans]
    used = [False] * n

    def assign(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if not used[j] and compat[i][j]:
                used[j] = True
                if assign(i + 1):
                    return True
                used[j] = False
        return False

    return assign(0)


# ------------------------------------------------------ digest identity

# The hypothesis identity as it read before plans.hypothesis_key became the
# set of plans: the sorted, truncated SHA-1 digests of each plan's JSON.

def digest_hypothesis_key(h: Hypothesis) -> tuple[str, ...]:
    blobs = (json.dumps(plan_to_dict(p), sort_keys=True, separators=(",", ":")) for p in h.plans)
    return tuple(sorted(hashlib.sha1(b.encode()).hexdigest()[:12] for b in blobs))
