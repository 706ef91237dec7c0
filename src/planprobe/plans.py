"""Plan trees, the refinement and match relations, and hypothesis structure.

Plans are labeled trees, and a plan is its root PlanNode, a slots dataclass
that caches its hash at construction: nodes are treated as immutable, though
nothing enforces it. An inner node records which refinement method expanded
it; its children follow the method's constituent order.
Unexpanded complex nodes and unobserved basic leaves form the open frontier,
the part of the plan the agent has yet to carry out.

All relations here are structural: they compare labels and applied method
ids and ignore observation annotations. Two methods with identical
constituents are distinct if their ids differ. Comparing plans built against
different libraries is undefined.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Iterator

from .errors import PlanError, PlanTooDeepError
from .library import MAX_GRAMMAR_DEPTH, PlanLibrary

Path = tuple[int, ...]


@dataclass(slots=True, repr=False)
class PlanNode:
    """Tree node, and as a root a whole plan: a slots dataclass whose hash
    is computed once at construction, so it is immutable by convention only.
    Equality compares the four fields. Pickling and copying rebuild a node
    through the constructor, because the hash of its fields differs between
    processes."""

    label: str
    method: str | None = None
    children: tuple[PlanNode, ...] = ()
    observed: int | None = None
    _hash: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if (self.method is None) != (len(self.children) == 0):
            raise PlanError(f"node {self.label!r}: children present iff a method was applied")
        if self.observed is not None and self.method is not None:
            raise PlanError(f"node {self.label!r}: only leaves can carry an observation index")
        self._hash = hash((self.label, self.method, self.observed, self.children))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return PlanNode, (self.label, self.method, self.children, self.observed)

    def __repr__(self) -> str:
        parts = [repr(self.label)]
        if self.method is not None:
            parts.append(f"method={self.method!r}")
        if self.observed is not None:
            parts.append(f"observed={self.observed}")
        if self.children:
            parts.append(f"children={self.children!r}")
        return f"PlanNode({', '.join(parts)})"

    @property
    def expanded(self) -> bool:
        return self.method is not None

    def node_at(self, path: Path) -> PlanNode:
        node = self
        for i in path:
            try:
                node = node.children[i]
            except IndexError:
                raise PlanError(f"no node at path {path}") from None
        return node


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """A set of plans, one per pursued goal, jointly explaining the
    observations seen so far. The empty hypothesis (no plans) is only valid
    as the recognition seed before any observation arrives."""

    plans: tuple[PlanNode, ...]
    weight: float = 1.0


def iter_nodes(node: PlanNode, path: Path = ()) -> Iterator[tuple[Path, PlanNode]]:
    """Preorder (path, node) traversal."""
    yield path, node
    for i, child in enumerate(node.children):
        yield from iter_nodes(child, path + (i,))


def is_complete(plan: PlanNode, lib: PlanLibrary) -> bool:
    """Every leaf is a basic action."""
    return all(node.expanded or lib.is_basic(node.label) for _, node in iter_nodes(plan))


def _replace(node: PlanNode, path: Path, replacement: PlanNode) -> PlanNode:
    if not path:
        return replacement
    i = path[0]
    children = node.children[:i] + (_replace(node.children[i], path[1:], replacement),) + node.children[i + 1:]
    return PlanNode(node.label, node.method, children, node.observed)


def observe_leaf(plan: PlanNode, path: Path, index: int) -> PlanNode:
    """Annotate the pending leaf at `path` with an observation index."""
    node = plan.node_at(path)
    if node.expanded:
        raise PlanError(f"node {node.label!r} at {path} is not a leaf")
    if node.observed is not None:
        raise PlanError(f"leaf {node.label!r} at {path} already observed at {node.observed}")
    return _replace(plan, path, PlanNode(node.label, observed=index))


def _refines(u: PlanNode, v: PlanNode) -> bool:
    if u.label != v.label:
        return False
    if u.method is None:
        # Unexpanded complex node: v's subtree is unconstrained.
        # Basic leaf: v is the same leaf (labels agree, marks ignored).
        return True
    if u is v:
        return True
    return u.method == v.method and all(
        _refines(cu, cv) for cu, cv in zip(u.children, v.children)
    )


def is_refinement(p: PlanNode, q: PlanNode) -> bool:
    """True iff q can be obtained from p by expanding frontier nodes only
    (reflexive: the empty expansion sequence counts). The relation is
    structural: observation marks are ignored."""
    return _refines(p, q)


def _match_nodes(u: PlanNode, v: PlanNode) -> bool:
    if u.label != v.label:
        return False
    if u.method is None or v.method is None:
        return True
    if u is v:
        return True
    return u.method == v.method and all(
        _match_nodes(cu, cv) for cu, cv in zip(u.children, v.children)
    )


def matches(p: PlanNode, q: PlanNode) -> bool:
    """True iff p and q have a common refinement. Wherever both plans are
    expanded they must agree on the method; wherever one is still open the
    other side supplies the witness. Symmetric; observation marks are
    ignored."""
    return _match_nodes(p, q)


def hypothesis_refines(h: Hypothesis, g: Hypothesis) -> bool:
    """True iff g can be obtained from h plan-by-plan: a one-to-one pairing
    of h's and g's plans where each g-plan is a refinement of its h-plan.

    Requires h's plans to have pairwise distinct root labels, as every
    recognized hypothesis has (one plan per goal). Refinement keeps the root
    label, so each g-plan can only pair with h's plan of its label."""
    if len(h.plans) != len(g.plans):
        return False
    by_label = {p.label: p for p in h.plans}
    paired: set[str] = set()
    for q in g.plans:
        label = q.label
        p = by_label.get(label)
        if p is None or label in paired or not is_refinement(p, q):
            return False
        paired.add(label)
    return True


def validate_plan(lib: PlanLibrary, plan: PlanNode) -> dict[int, str]:
    """Check every node against the library; raises PlanError on violation.
    Returns the plan's marks, observation index -> action, in preorder."""
    marks: dict[int, str] = {}
    for path, node in iter_nodes(plan):
        basic = lib.is_basic(node.label)
        if not basic and not lib.is_complex(node.label):
            raise PlanError(f"undeclared action {node.label!r} at {path}")
        if node.expanded:
            if basic:
                raise PlanError(f"basic action {node.label!r} at {path} cannot be expanded")
            method = lib.method(node.method)
            if method.head != node.label:
                raise PlanError(f"method {node.method!r} at {path} does not expand {node.label!r}")
            labels = tuple(c.label for c in node.children)
            if labels != method.constituents:
                raise PlanError(f"children {labels} at {path} do not follow method {node.method!r}")
        elif node.observed is not None:
            if not basic:
                raise PlanError(f"observation mark on complex node {node.label!r} at {path}")
            if node.observed < 0:
                raise PlanError(f"negative observation index at {path}")
            if node.observed in marks:
                raise PlanError(f"duplicate observation index {node.observed}")
            marks[node.observed] = node.label
    return marks


def validate_hypothesis(lib: PlanLibrary, h: Hypothesis) -> dict[int, str]:
    """Plans valid, roots are goals, observation indices unique across plans,
    and every plan holds observations, at most one plan per goal: recognition
    starts each plan from an observation and builds one plan per goal, so no
    hypothesis could refine to an unmarked plan or to a goal's split plans.
    Returns the marks of all plans, observation index -> action."""
    marks: dict[int, str] = {}
    roots: list[str] = []
    for plan in h.plans:
        plan_marks = validate_plan(lib, plan)
        if plan.label not in lib.goals:
            raise PlanError(f"plan root {plan.label!r} is not a goal")
        for index in plan_marks:
            if index in marks:
                raise PlanError(f"observation index {index} used by two plans")
        if not plan_marks:
            raise PlanError(f"plan of goal {plan.label!r} holds no observation")
        if plan.label in roots:
            raise PlanError(f"goal {plan.label!r} has more than one plan holding observations")
        roots.append(plan.label)
        marks.update(plan_marks)
    return marks


def plan_to_dict(plan: PlanNode) -> dict:
    """Nested {label, method?, observed?, children?} records."""
    out: dict = {"label": plan.label}
    if plan.method is not None:
        out["method"] = plan.method
    if plan.observed is not None:
        out["observed"] = plan.observed
    if plan.children:
        out["children"] = [plan_to_dict(c) for c in plan.children]
    return out


def plan_from_dict(doc: dict) -> PlanNode:
    """Inverse of plan_to_dict: label a non-empty string, method a string,
    observed an int (not a bool), children a list; PlanError otherwise.
    A plan deeper than any library allows (MAX_GRAMMAR_DEPTH + 1 levels)
    raises PlanTooDeepError, a PlanError, so that a document the JSON parser
    reads on one Python version and not on another is rejected on each."""

    def decode(record: dict, depth: int = 0) -> PlanNode:
        if depth > MAX_GRAMMAR_DEPTH:
            raise PlanTooDeepError("plan nested deeper than any library allows")
        if not isinstance(record, dict) or not isinstance(record.get("label"), str) or not record["label"]:
            raise PlanError(f"plan record needs a non-empty string label: {record!r}")
        method, observed, children = record.get("method"), record.get("observed"), record.get("children", [])
        if method is not None and not isinstance(method, str):
            raise PlanError(f"plan method must be a string, got {method!r}")
        if observed is not None and type(observed) is not int:
            raise PlanError(f"observation index must be an integer, got {observed!r}")
        if not isinstance(children, list):
            raise PlanError(f"plan children must be a list, got {children!r}")
        return PlanNode(record["label"], method, tuple(decode(c, depth + 1) for c in children), observed)

    return decode(doc)


def plan_digest(plan: PlanNode) -> str:
    """Short stable identifier of a plan for query traces."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def hypothesis_to_dict(h: Hypothesis, include_weight: bool = True) -> dict:
    out: dict = {"plans": [plan_to_dict(p) for p in h.plans]}
    if include_weight:
        out["weight"] = h.weight
    return out


def hypothesis_from_dict(doc: dict) -> Hypothesis:
    """Inverse of hypothesis_to_dict; plans must be a list and weight a
    finite number, or PlanError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("plans"), list):
        raise PlanError("hypothesis record must contain a list 'plans'")
    weight = doc.get("weight", 1.0)
    if type(weight) not in (int, float) or not abs(weight) <= sys.float_info.max:
        raise PlanError(f"hypothesis weight must be a finite number, got {weight!r}")
    return Hypothesis(tuple(map(plan_from_dict, doc["plans"])), float(weight))


def hypothesis_key(h: Hypothesis) -> frozenset[PlanNode]:
    """Order-insensitive identity of a hypothesis: the set of its plans
    (each plan is its root PlanNode). Exact when the plans are pairwise
    distinct, as in every recognized hypothesis (one plan per goal). No two
    successors of a recognizer step share it (see recognizer._step)."""
    return frozenset(h.plans)
