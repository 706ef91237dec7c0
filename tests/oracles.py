"""Brute-force reference implementations used only by tests.

Everything here recomputes results from first principles with naive search,
deliberately avoiding the package's decision procedures: refinement by
breadth-first expansion search, matching by enumerating complete
refinements and intersecting, recognition by exhaustive attachment
enumeration over plain tuples. Plans are modeled as nested tuples
(label, method_id, children, observed) so no production traversal code is
reused. The list-based relation rules at the end are the exception: they
reuse the production relations and serve as the reference for the query
loop's relation table.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from planprobe.errors import OracleInconsistencyError
from planprobe.library import PlanLibrary
from planprobe.plans import Plan, PlanNode, is_refinement, matches
from planprobe.recognizer import HypothesisSet

# ---------------------------------------------------------------- tuple form

Tup = tuple  # (label, method_id | None, tuple[Tup, ...], observed | None)


def to_tuple(plan: Plan) -> Tup:
    def conv(node: PlanNode) -> Tup:
        return (node.label, node.method, tuple(conv(c) for c in node.children), node.observed)

    return conv(plan.root)


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


def matches_oracle(lib: PlanLibrary, p: Plan, q: Plan) -> bool:
    """Common complete refinement exists."""
    return bool(
        complete_refinements(lib, to_tuple(p)) & complete_refinements(lib, to_tuple(q))
    )


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


def refinement_oracle(lib: PlanLibrary, p: Plan, q: Plan) -> bool:
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
    from planprobe.plans import plan_to_dict

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

def survivors_if_true(hset, plan: Plan) -> list:
    return [h for h in hset.hypotheses if any(matches(p, plan) for p in h.plans)]


def survivors_if_false(hset, plan: Plan) -> list:
    return [h for h in hset.hypotheses if not any(is_refinement(plan, p) for p in h.plans)]


def update(hset, plan: Plan, answer: bool):
    survivors = survivors_if_true(hset, plan) if answer else survivors_if_false(hset, plan)
    if not survivors:
        raise OracleInconsistencyError(f"update with answer={answer} removed every hypothesis")
    return HypothesisSet.normalized(survivors, hset.observation_count, hset.truncated)


def candidate_plans(hset, closed: set) -> list[Plan]:
    seen: set = set()
    out: list[Plan] = []
    for h in hset.hypotheses:
        for p in h.plans:
            if p.root in closed or p.root in seen:
                continue
            seen.add(p.root)
            out.append(p)
    return out


def cumulative_plan_prob(hset, plan: Plan) -> float:
    return sum(h.weight for h in hset.hypotheses if any(is_refinement(plan, p) for p in h.plans))


def _rng(seed: int, closed: set) -> random.Random:
    return random.Random(f"{seed}:{len(closed)}")


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


def select_random(hset, closed: set, seed: int) -> Plan:
    return _rng(seed, closed).choice(candidate_plans(hset, closed))


def select_mph(hset, closed: set, seed: int) -> Plan:
    open_by_hyp = []
    for h in hset.hypotheses:
        seen: set = set()
        pending = []
        for p in h.plans:
            if p.root not in closed and p.root not in seen:
                seen.add(p.root)
                pending.append(p)
        if pending:
            open_by_hyp.append((h.weight, pending))
    best = max(w for w, _ in open_by_hyp)
    tied = [pending for w, pending in open_by_hyp if w == best]
    rng = _rng(seed, closed)
    return rng.choice(rng.choice(tied))


def select_mpp(hset, closed: set, seed: int) -> Plan:
    scored = [(cumulative_plan_prob(hset, t), t) for t in candidate_plans(hset, closed)]
    best = max(score for score, _ in scored)
    return _rng(seed, closed).choice([t for score, t in scored if score == best])


def select_min_entropy(hset, closed: set, seed: int) -> Plan:
    scored = []
    for t in candidate_plans(hset, closed):
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
