"""Plan trees, the refinement and match relations, and hypothesis structure.

Plans are immutable labeled trees. An inner node records which refinement
method expanded it; its children follow the method's constituent order.
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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import PlanError
from .library import PlanLibrary, RefinementMethod

Path = tuple[int, ...]


class PlanNode:
    """Immutable tree node. Hash is computed once at construction."""

    __slots__ = ("label", "method", "children", "observed", "_hash")

    def __init__(
        self,
        label: str,
        method: str | None = None,
        children: tuple[PlanNode, ...] = (),
        observed: int | None = None,
    ):
        if (method is None) != (len(children) == 0):
            raise PlanError(f"node {label!r}: children present iff a method was applied")
        if observed is not None and method is not None:
            raise PlanError(f"node {label!r}: only leaves can carry an observation index")
        self.label = label
        self.method = method
        self.children = children
        self.observed = observed
        self._hash = hash((label, method, observed, children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlanNode):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.label == other.label
            and self.method == other.method
            and self.observed == other.observed
            and self.children == other.children
        )

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


@dataclass(frozen=True)
class Plan:
    """A plan tree. complete() holds when every leaf is a basic action."""

    root: PlanNode

    def node_at(self, path: Path) -> PlanNode:
        node = self.root
        for i in path:
            try:
                node = node.children[i]
            except IndexError:
                raise PlanError(f"no node at path {path}") from None
        return node

    def __hash__(self) -> int:
        return hash(self.root)


@dataclass(frozen=True)
class Hypothesis:
    """A set of plans, one per pursued goal, jointly explaining the
    observations seen so far. The empty hypothesis (no plans) is only valid
    as the recognition seed before any observation arrives."""

    plans: tuple[Plan, ...]
    weight: float = 1.0


def _iter_nodes(node: PlanNode, path: Path = ()) -> Iterator[tuple[Path, PlanNode]]:
    yield path, node
    for i, child in enumerate(node.children):
        yield from _iter_nodes(child, path + (i,))


def iter_nodes(plan: Plan) -> Iterator[tuple[Path, PlanNode]]:
    """Preorder (path, node) traversal."""
    return _iter_nodes(plan.root)


def is_complete(plan: Plan, lib: PlanLibrary) -> bool:
    """Every leaf is a basic action."""
    return all(node.expanded or lib.is_basic(node.label) for _, node in iter_nodes(plan))


def open_frontier(plan: Plan, lib: PlanLibrary) -> list[Path]:
    """Unexpanded complex nodes plus unobserved basic leaves, left to right."""
    out: list[Path] = []
    for path, node in iter_nodes(plan):
        if node.expanded:
            continue
        if lib.is_complex(node.label):
            out.append(path)
        elif node.observed is None:
            out.append(path)
    return out


def _replace(node: PlanNode, path: Path, replacement: PlanNode) -> PlanNode:
    if not path:
        return replacement
    i = path[0]
    children = node.children[:i] + (_replace(node.children[i], path[1:], replacement),) + node.children[i + 1:]
    return PlanNode(node.label, node.method, children, node.observed)


def apply_method(plan: Plan, path: Path, method: RefinementMethod) -> Plan:
    """Expand the unexpanded complex node at `path` with `method`, returning a
    new plan. The input plan is never mutated."""
    node = plan.node_at(path)
    if node.expanded:
        raise PlanError(f"node {node.label!r} at {path} is already expanded (not on the frontier)")
    if node.observed is not None:
        raise PlanError(f"node {node.label!r} at {path} is an observed leaf")
    if method.head != node.label:
        raise PlanError(f"method {method.id!r} expands {method.head!r}, not {node.label!r}")
    expanded = PlanNode(
        node.label,
        method=method.id,
        children=tuple(PlanNode(c) for c in method.constituents),
    )
    return Plan(_replace(plan.root, path, expanded))


def observe_leaf(plan: Plan, path: Path, index: int) -> Plan:
    """Annotate the pending leaf at `path` with an observation index."""
    node = plan.node_at(path)
    if node.expanded:
        raise PlanError(f"node {node.label!r} at {path} is not a leaf")
    if node.observed is not None:
        raise PlanError(f"leaf {node.label!r} at {path} already observed at {node.observed}")
    return Plan(_replace(plan.root, path, PlanNode(node.label, observed=index)))


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


def _refines_strict(u: PlanNode, v: PlanNode) -> bool:
    if u.label != v.label:
        return False
    if u.method is None:
        if u.observed is not None and u.observed != v.observed:
            return False
        return True
    return v.method == u.method and all(
        _refines_strict(cu, cv) for cu, cv in zip(u.children, v.children)
    )


def is_refinement(p: Plan, q: Plan, strict_marks: bool = False) -> bool:
    """True iff q can be obtained from p by expanding frontier nodes only
    (reflexive: the empty expansion sequence counts). The relation is
    structural; with strict_marks, a leaf p already observed must appear in
    q observed at the same index."""
    if strict_marks:
        return _refines_strict(p.root, q.root)
    return _refines(p.root, q.root)


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


def _match_nodes_strict(u: PlanNode, v: PlanNode) -> bool:
    if u.label != v.label:
        return False
    if u.method is None and v.method is None:
        return u.observed is None or v.observed is None or u.observed == v.observed
    if u.method is None or v.method is None:
        return True
    return u.method == v.method and all(
        _match_nodes_strict(cu, cv) for cu, cv in zip(u.children, v.children)
    )


def matches(p: Plan, q: Plan, strict_marks: bool = False) -> bool:
    """True iff p and q have a common refinement. Wherever both plans are
    expanded they must agree on the method; wherever one is still open the
    other side supplies the witness. Symmetric. With strict_marks, leaves
    observed on both sides must carry the same index."""
    if strict_marks:
        return _match_nodes_strict(p.root, q.root)
    return _match_nodes(p.root, q.root)


def hypothesis_refines(h: Hypothesis, g: Hypothesis) -> bool:
    """True iff g can be obtained from h plan-by-plan: a perfect matching
    between h's and g's plans where each g-plan is a refinement of its
    h-plan. Requires equal plan counts."""
    if len(h.plans) != len(g.plans):
        return False
    n = len(g.plans)
    compat = [
        [is_refinement(hp, gp) for hp in h.plans]
        for gp in g.plans
    ]
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


def canonical_key(plan: Plan) -> PlanNode:
    """Opaque structural identity key: equal keys iff structurally equal
    plans (labels, methods, child order, observation marks)."""
    return plan.root


def describes(h: Hypothesis, obs: Sequence[str]) -> bool:
    """True iff the observation marks across h's plans cover exactly the
    indices 0..len(obs)-1, each exactly once, with matching action labels."""
    seen: dict[int, str] = {}
    for plan in h.plans:
        for _, node in iter_nodes(plan):
            if node.observed is None:
                continue
            if node.observed in seen:
                return False
            seen[node.observed] = node.label
    if len(seen) != len(obs):
        return False
    return all(seen.get(i) == label for i, label in enumerate(obs))


def validate_plan(lib: PlanLibrary, plan: Plan) -> None:
    """Check every node against the library; raises PlanError on violation."""
    seen_marks: set[int] = set()
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
            if node.observed in seen_marks:
                raise PlanError(f"duplicate observation index {node.observed}")
            seen_marks.add(node.observed)


def validate_hypothesis(lib: PlanLibrary, h: Hypothesis) -> None:
    """Plans valid, roots are goals, observation indices unique across plans."""
    seen_marks: set[int] = set()
    for plan in h.plans:
        validate_plan(lib, plan)
        if plan.root.label not in lib.goals:
            raise PlanError(f"plan root {plan.root.label!r} is not a goal")
        for _, node in iter_nodes(plan):
            if node.observed is not None:
                if node.observed in seen_marks:
                    raise PlanError(f"observation index {node.observed} used by two plans")
                seen_marks.add(node.observed)


def plan_to_dict(plan: Plan) -> dict:
    """Nested {label, method?, observed?, children?} records."""

    def encode(node: PlanNode) -> dict:
        out: dict = {"label": node.label}
        if node.method is not None:
            out["method"] = node.method
        if node.observed is not None:
            out["observed"] = node.observed
        if node.children:
            out["children"] = [encode(c) for c in node.children]
        return out

    return encode(plan.root)


def plan_from_dict(doc: dict) -> Plan:
    def decode(record: dict) -> PlanNode:
        if not isinstance(record, dict) or "label" not in record:
            raise PlanError(f"bad plan record: {record!r}")
        children = tuple(decode(c) for c in record.get("children", []))
        return PlanNode(
            record["label"],
            method=record.get("method"),
            children=children,
            observed=record.get("observed"),
        )

    return Plan(decode(doc))


def plan_digest(plan: Plan) -> str:
    """Short stable identifier for traces and ordering."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def hypothesis_to_dict(h: Hypothesis, include_weight: bool = True) -> dict:
    out: dict = {"plans": [plan_to_dict(p) for p in h.plans]}
    if include_weight:
        out["weight"] = h.weight
    return out


def hypothesis_from_dict(doc: dict) -> Hypothesis:
    if not isinstance(doc, dict) or "plans" not in doc:
        raise PlanError("hypothesis record must contain 'plans'")
    plans = tuple(plan_from_dict(p) for p in doc["plans"])
    return Hypothesis(plans=plans, weight=float(doc.get("weight", 1.0)))


def hypothesis_key(h: Hypothesis) -> tuple[str, ...]:
    """Order-insensitive structural identity of a hypothesis."""
    return tuple(sorted(plan_digest(p) for p in h.plans))
