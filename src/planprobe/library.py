"""Plan-library grammar: basic actions, complex actions, and refinement methods.

A library file is a JSON document with top-level keys:

    basic        list of action names
    complex      list of action names
    goals        list of complex action names eligible as root intentions
    goal_priors  optional map from goal name to probability (uniform if absent)
    methods      list of records {id, head, children, order} where order is a
                 list of [i, j] index pairs meaning child i completes before
                 child j begins (0-based, order-preserving)
"""

from __future__ import annotations

import functools
import graphlib
import json
import math
import operator
import sys
from dataclasses import dataclass, field

from .errors import LibrarySyntaxError, LibraryValidationError

PRIOR_TOLERANCE = 1e-9

# The longest chain of head-to-constituent steps a grammar may hold, so the
# deepest plan has MAX_GRAMMAR_DEPTH + 1 levels. Plan relations, JSON
# serialization and chain grafting recurse once or twice per level; at
# this limit they stay well inside the interpreter's default recursion limit
# of 1000 (a 330-step chain already exhausted it in `sprp --verify`).
MAX_GRAMMAR_DEPTH = 200


def left_sum(values) -> float:
    """Floats added left to right, as sum() did before 3.12 made its float
    sum compensated. Weights and scores go through this, so they come out
    bit for bit the same on every supported version."""
    return functools.reduce(operator.add, values, 0.0)


def _order_closure(n: int, order: frozenset[tuple[int, int]], where: str) -> tuple[int, ...]:
    """Predecessor bitmask per constituent index (bit j stands for
    constituent j) under the transitive closure of the ordering pairs.
    Rejects out-of-range, reflexive, and cyclic orders.
    Iterative, so an ordering chain of any length closes without deep
    recursion: constituents are taken in topological order, and each passes
    its predecessor bitmask, plus its own bit, on to its direct successors."""
    successors: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n  # direct predecessors not yet taken
    for pair in order:
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise LibraryValidationError(f"{where}: ordering pair {pair} out of range for {n} children")
        if i == j:
            raise LibraryValidationError(f"{where}: cyclic ordering constraint (pair {pair})")
        successors[i].append(j)
        waiting[j] += 1
    masks = [0] * n
    ready = [j for j in range(n) if not waiting[j]]
    taken = 0
    while ready:
        i = ready.pop()
        taken += 1
        passed = masks[i] | 1 << i
        for j in successors[i]:
            masks[j] |= passed
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)
    if taken < n:
        raise LibraryValidationError(f"{where}: cyclic ordering constraint")
    return tuple(masks)


@dataclass(frozen=True)
class RefinementMethod:
    """One way to decompose a complex action into ordered constituents."""

    id: str
    head: str
    constituents: tuple[str, ...]
    order: frozenset[tuple[int, int]] = frozenset()
    # bitmask of each constituent's ordering predecessors, transitively closed
    predecessors: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # constituent indices with no ordering predecessor
    minimal_positions: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.id:
            raise LibraryValidationError("method id must be non-empty")
        if len(self.constituents) < 1:
            raise LibraryValidationError(f"method {self.id!r} has no constituents")
        predecessors = _order_closure(len(self.constituents), self.order, f"method {self.id!r}")
        object.__setattr__(self, "predecessors", predecessors)
        object.__setattr__(self, "minimal_positions", tuple(i for i, preds in enumerate(predecessors) if not preds))


@dataclass(frozen=True)
class PlanLibrary:
    """Validated grammar. Immutable after construction; safe to share.
    first_actions maps each complex label to the basic actions that a fresh
    expansion from it, descending only into order-minimal positions of each
    applied method, can reach."""

    basic: frozenset[str]
    complex_actions: frozenset[str]
    methods: tuple[RefinementMethod, ...]
    goals: tuple[str, ...]
    goal_priors: dict[str, float] = field(default_factory=dict)
    _by_head: dict[str, tuple[RefinementMethod, ...]] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, RefinementMethod] = field(init=False, repr=False, compare=False)
    first_actions: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate()

    def __hash__(self) -> int:
        # equal libraries hash equal: the fields __eq__ compares, less the
        # goal_priors dict, which cannot be hashed
        return hash((self.basic, self.complex_actions, self.methods, self.goals))

    def _validate(self) -> None:
        for name in list(self.basic) + list(self.complex_actions):
            if not name or not isinstance(name, str):
                raise LibraryValidationError(f"action name must be a non-empty string, got {name!r}")
        overlap = self.basic & self.complex_actions
        if overlap:
            raise LibraryValidationError(f"duplicate action classification: {sorted(overlap)}")

        seen_ids: set[str] = set()
        for m in self.methods:
            if m.id in seen_ids:
                raise LibraryValidationError(f"duplicate method id {m.id!r}")
            seen_ids.add(m.id)
            if m.head not in self.complex_actions:
                kind = "basic action" if m.head in self.basic else "undeclared action"
                raise LibraryValidationError(f"method {m.id!r} head {m.head!r} is a {kind}")
            for c in m.constituents:
                if c not in self.basic and c not in self.complex_actions:
                    raise LibraryValidationError(f"method {m.id!r} uses undeclared action {c!r}")

        if not self.goals:
            raise LibraryValidationError("empty goals")
        seen_goals: set[str] = set()
        for g in self.goals:
            if g in seen_goals:
                raise LibraryValidationError(f"duplicate goal {g!r}")
            seen_goals.add(g)
            if g not in self.complex_actions:
                raise LibraryValidationError(f"goal {g!r} is not a declared complex action")

        by_head: dict[str, list[RefinementMethod]] = {}
        for m in self.methods:
            by_head.setdefault(m.head, []).append(m)
        object.__setattr__(self, "_by_head", {h: tuple(ms) for h, ms in by_head.items()})
        object.__setattr__(self, "_by_id", {m.id: m for m in self.methods})

        self._check_grammar()

        if not self.goal_priors:
            uniform = 1.0 / len(self.goals)
            object.__setattr__(self, "goal_priors", {g: uniform for g in self.goals})
        else:
            for g, p in self.goal_priors.items():
                if g not in seen_goals:
                    raise LibraryValidationError(f"goal prior for non-goal {g!r}")
                if p < 0:
                    raise LibraryValidationError(f"negative goal prior for {g!r}")
                if not math.isfinite(p):
                    raise LibraryValidationError(f"goal prior for {g!r} is not finite")
            total = left_sum(self.goal_priors.get(g, 0.0) for g in self.goals)
            if not abs(total - 1.0) <= PRIOR_TOLERANCE:
                raise LibraryValidationError(f"goal priors sum to {total}, expected 1")
            object.__setattr__(
                self, "goal_priors", {g: self.goal_priors.get(g, 0.0) for g in self.goals}
            )

    def _check_grammar(self) -> None:
        # One graphlib order over head -> complex constituents, taken without
        # recursion, makes all three checks. Labels go in sorted, so no message
        # depends on the hash seed. A cycle would make the complete refinements
        # infinite; graphlib reports it constituent-first. Constituents first,
        # the order gives each label's height and first-action set; reversed,
        # heads first, it carries reachability down from the goals.
        below = {
            head: [c for m in methods for c in m.constituents if c in self.complex_actions]
            for head, methods in self._by_head.items()
        }
        labels = sorted(self.complex_actions)
        sorter = graphlib.TopologicalSorter()
        for label in labels:
            sorter.add(label, *below.get(label, ()))
        try:
            order = list(sorter.static_order())
        except graphlib.CycleError as e:
            raise LibraryValidationError(f"cyclic grammar: {' -> '.join(reversed(e.args[1]))}") from None
        height: dict[str, int] = {}  # label -> longest chain of method steps below it
        first: dict[str, frozenset[str]] = {}
        for label in order:
            height[label] = 1 + max((height[c] for c in below[label]), default=0) if label in below else 0
            reach: set[str] = set()
            for m in self._by_head.get(label, ()):
                for i in m.minimal_positions:
                    c = m.constituents[i]
                    if c in self.basic:
                        reach.add(c)
                    else:
                        reach |= first[c]
            first[label] = frozenset(reach)
        object.__setattr__(self, "first_actions", first)
        deepest = max(labels, key=height.__getitem__)
        if height[deepest] > MAX_GRAMMAR_DEPTH:
            raise LibraryValidationError(
                f"grammar too deep: {deepest!r} heads a chain of {height[deepest]} method steps, "
                f"more than the limit of {MAX_GRAMMAR_DEPTH}"
            )
        reached = set(self.goals)
        for label in reversed(order):
            if label in reached:
                if label not in below:
                    raise LibraryValidationError(f"complex action {label!r} is reachable from a goal but has no method")
                reached.update(below[label])

    def is_basic(self, label: str) -> bool:
        return label in self.basic

    def is_complex(self, label: str) -> bool:
        return label in self.complex_actions

    def methods_for(self, label: str) -> tuple[RefinementMethod, ...]:
        """All methods with the given head, in file order."""
        if label not in self.complex_actions:
            kind = "basic" if label in self.basic else "unknown"
            raise LibraryValidationError(f"methods_for: {kind} label {label!r}")
        return self._by_head.get(label, ())

    def method(self, method_id: str) -> RefinementMethod:
        try:
            return self._by_id[method_id]
        except KeyError:
            raise LibraryValidationError(f"no method with id {method_id!r}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise LibrarySyntaxError(message)


def _string_list(doc: dict, key: str) -> list[str]:
    _expect(key in doc, f"missing key {key!r}")
    value = doc[key]
    _expect(isinstance(value, list), f"{key!r} must be a list")
    for item in value:
        _expect(isinstance(item, str) and item != "", f"{key!r} entries must be non-empty strings")
    return value


def parse_library(text: str) -> PlanLibrary:
    """Parse and validate a library file. Raises LibrarySyntaxError with
    position info on malformed input, LibraryValidationError on semantic
    violations (duplicate id, undeclared action, cyclic order, cyclic
    grammar, grammar deeper than MAX_GRAMMAR_DEPTH, a complex action
    reachable from a goal without a method, empty goals)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise LibrarySyntaxError(f"invalid library file: {e.msg}", e.lineno, e.colno) from e
    except RecursionError:
        raise LibrarySyntaxError("invalid library file: nested too deeply") from None
    _expect(isinstance(doc, dict), "library file must be a JSON object")

    basic = _string_list(doc, "basic")
    complex_actions = _string_list(doc, "complex")
    goals = _string_list(doc, "goals")
    declared: set[str] = set()
    for name in basic + complex_actions:
        if name in declared:
            raise LibraryValidationError(f"duplicate action id {name!r}")
        declared.add(name)

    priors_doc = doc.get("goal_priors", {})
    _expect(isinstance(priors_doc, dict), "'goal_priors' must be an object")
    priors: dict[str, float] = {}
    for g, p in priors_doc.items():
        _expect(isinstance(g, str), "'goal_priors' keys must be strings")
        _expect(isinstance(p, (int, float)) and not isinstance(p, bool), f"goal prior for {g!r} must be a number")
        # float() overflows on a huge integer; inf is then rejected as not finite
        priors[g] = float(p) if abs(p) <= sys.float_info.max else math.inf

    methods_doc = doc.get("methods")
    _expect(isinstance(methods_doc, list), "missing key 'methods'" if "methods" not in doc else "'methods' must be a list")
    methods: list[RefinementMethod] = []
    for record in methods_doc:
        _expect(isinstance(record, dict), "method records must be objects")
        for req in ("id", "head", "children"):
            _expect(req in record, f"method record missing {req!r}")
        _expect(isinstance(record["id"], str) and record["id"] != "", "method id must be a non-empty string")
        _expect(isinstance(record["head"], str), "method head must be a string")
        children = record["children"]
        _expect(isinstance(children, list) and children, "method children must be a non-empty list")
        for c in children:
            _expect(isinstance(c, str), "method children must be strings")
        order_doc = record.get("order", [])
        _expect(isinstance(order_doc, list), "method order must be a list of [i, j] pairs")
        pairs: set[tuple[int, int]] = set()
        for pair in order_doc:
            _expect(
                isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair),
                "method order entries must be [i, j] integer pairs",
            )
            pairs.add((pair[0], pair[1]))
        methods.append(
            RefinementMethod(
                id=record["id"],
                head=record["head"],
                constituents=tuple(children),
                order=frozenset(pairs),
            )
        )

    return PlanLibrary(
        basic=frozenset(basic),
        complex_actions=frozenset(complex_actions),
        methods=tuple(methods),
        goals=tuple(goals),
        goal_priors=priors,
    )


def serialize_library(lib: PlanLibrary) -> str:
    """Inverse of parse_library: parse_library(serialize_library(lib)) == lib."""
    doc = {
        "basic": sorted(lib.basic),
        "complex": sorted(lib.complex_actions),
        "goals": list(lib.goals),
        "goal_priors": {g: lib.goal_priors[g] for g in lib.goals},
        "methods": [
            {
                "id": m.id,
                "head": m.head,
                "children": list(m.constituents),
                "order": [list(p) for p in sorted(m.order)],
            }
            for m in lib.methods
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
