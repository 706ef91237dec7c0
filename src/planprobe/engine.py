"""Query-and-prune loop over a hypothesis set.

An oracle holding the agent's true hypothesis answers, for a queried plan,
whether some true plan can be refined from it. A True answer keeps exactly
the hypotheses with a plan that still shares a common refinement with the
query; a False answer removes exactly the hypotheses containing a plan the
query refines to. Both rules never drop a hypothesis that can be refined to
the truth, and repeated querying shrinks the set to precisely those
hypotheses.

The loop asks only questions whose answer is still open. Every relation
ignores observation marks, so it identifies plans up to marks: plans that
differ only in their marks are one question, and a mark variant of an asked
plan counts as asked. Before each question it closes, unasked, every
candidate whose answer is forced, since asking it could prune nothing:

    (a) every live hypothesis holds a plan refinable from the candidate.
        Some live hypothesis refines to the truth, so the answer is True,
        and a True answer keeps the hypotheses matching the candidate,
        which is all of them.
    (b) the candidate refines to a plan already answered True. Its answer
        is then True too, and every live hypothesis already matches it.

Both conditions persist as the set shrinks, so the final set is the one
asking every question would give.

The relations are read from a RelationTable that the set holds: relations
builds it on a set's first use and update hands it on to the derived set,
so every loop and selector over one h0 evaluates each column once. Every
loop, whatever h0's size, runs on that table. The table names each plan up
to marks by an int id, keyed by its mark-free tree, and the loop works in
ids: asked and settled plans are id sets, and an answer prunes by the id
the loop interned for the question. One prune rule, _pruned, serves update
and the loop; the loop hands it the table and live mask it holds.

No relation sees marks, so hypotheses holding the same plans up to marks (a
mark-free class) are kept or dropped together by every answer, and the table
lists the open candidates, the only plans a selector reads, from one row per
live class. The loop lists them once per question and, in one pass over
the listed ids, tests rule (b), then rule (a), on each: an id either rule
forces is settled, counted under (b) when it meets both, and the rest stay
open. It hands the open ones to the policy with the set. Between questions
it holds only the live mask and weights, in a LiveSet dataclass,
renormalized at each answer as HypothesisSet.normalized does, and builds
the final HypothesisSet once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Sequence, TypeVar

from .errors import OracleInconsistencyError, PolicyError
from .plans import (
    Hypothesis,
    PlanNode,
    hypothesis_refines,
    is_refinement,
    matches,
    plan_digest,
    plan_to_dict,
)
from .recognizer import HypothesisSet, normalize

if TYPE_CHECKING:
    from .policies import Policy

T = TypeVar("T")

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bit_selectors(mask: int) -> bytes:
    """Selector bytes for itertools.compress: bit i of mask becomes byte i."""
    return format(mask, "b")[::-1].encode().translate(_BIT_BYTES)


@dataclass(frozen=True)
class QueryOracle:
    """Answers refinement queries against a fixed ground-truth hypothesis."""

    truth: Hypothesis


def query_answer(oracle: QueryOracle, plan: PlanNode) -> bool:
    """True iff some plan of the oracle's truth is a refinement of `plan`."""
    for t in oracle.truth.plans:
        if is_refinement(plan, t):
            return True
    return False


def restrict(items: Sequence[T], alive: int, mask: int) -> Iterator[T]:
    """The items whose bit is set in mask, in order, where items[k] belongs
    to the k-th lowest set bit of alive (as a set's hypotheses do)."""
    return compress(items, compress(bit_selectors(mask & alive), bit_selectors(alive)))


def _shape_key(node: PlanNode) -> tuple | str:
    """The tree under node with observation marks dropped: a leaf's key is
    its label, and an expanded node's is (label, method, its children's
    keys). Every relation ignores marks, so two plans with one key are
    interchangeable as questions. Plans are at most MAX_GRAMMAR_DEPTH + 1
    levels deep, well inside the recursion limit."""
    children = node.children
    return (node.label, node.method, tuple(map(_shape_key, children))) if children else node.label


class RelationTable:
    """The refinement and match relations between the plans of one
    hypothesis set h0 and its hypotheses, as bitmasks over h0's order (bit i
    stands for h0.hypotheses[i]).

    Plans are interned up to observation marks: each distinct plan object
    is keyed once by _shape_key, its tree with the marks dropped, as nested
    tuples, and every plan with one key gets one int id, in first-occurrence
    order. per_hyp[i] lists hypothesis i's
    plan ids, owners[t] is the mask of hypotheses holding plan t, by_label
    lists the ids per root label and label_owners holds the mask of
    hypotheses with a plan of each root label. Hypotheses with one set of
    plan ids form a mark-free class; reps masks each class's first member
    in h0 order, its representative. Every column below is a union of
    owners masks, so a live mask derived from h0 by answers holds whole
    classes, and its representatives stand for them.

    The masks are built in time linear in h0: one flag byte per hypothesis
    in one bytearray per plan id (and one for the representatives), each
    read once as a base-2 int.

    The columns refine(t) and match(t) depend on h0 alone and are exact
    over all of it. Each is filled once, on first use, evaluating the
    relation once per distinct plan with t's root label (both relations
    reject any other) that has an owner; every caller ANDs a column with its
    own live mask.
    """

    def __init__(self, h0: HypothesisSet):
        self.hypotheses = h0.hypotheses
        self.ids: dict[PlanNode, int] = {}
        self._by_shape: dict[tuple | str, int] = {}
        self.plans: list[PlanNode] = []
        self.owners: list[int] = []
        self.by_label: dict[str, list[int]] = {}
        self.per_hyp = tuple(tuple(map(self.intern, h.plans)) for h in h0.hypotheses)
        n = len(self.per_hyp)
        flags = [bytearray(n) for _ in range(len(self.plans) + 1)]
        for i, row in enumerate(self.per_hyp):
            for t in row:
                flags[t][i] = 1
        # zipped in reverse, each class keeps the index of its first member
        for i in dict(zip(map(frozenset, reversed(self.per_hyp)), range(n - 1, -1, -1))).values():
            flags[-1][i] = 1
        self.owners = [int(f[::-1].translate(_FLAG_DIGITS) or b"0", 2) for f in flags]
        self.reps = self.owners.pop()
        self.label_owners: dict[str, int] = {}
        for label, ids in self.by_label.items():
            mask = 0
            for t in ids:
                mask |= self.owners[t]
            self.label_owners[label] = mask
        self._refine: dict[int, int] = {}  # plan id -> column
        self._match: dict[int, int] = {}

    def intern(self, plan: PlanNode) -> int:
        """Id of plan's shape, added (with no owners) if new."""
        t = self.ids.get(plan)
        if t is None:
            t = self._by_shape.setdefault(_shape_key(plan), len(self.plans))
            self.ids[plan] = t
            if t == len(self.plans):
                self.plans.append(plan)
                self.owners.append(0)
                self.by_label.setdefault(plan.label, []).append(t)
        return t

    def plan(self, t: int, alive: int) -> PlanNode:
        """The plan of id t held by the first hypothesis in alive that holds
        one. Requires that some hypothesis in alive holds one, as every id
        listed from alive's rows (candidates, open_ids) does."""
        mask = self.owners[t] & alive
        i = (mask & -mask).bit_length() - 1
        return self.hypotheses[i].plans[self.per_hyp[i].index(t)]

    def refine(self, t: int) -> int:
        """Hypotheses holding a plan refinable from plan t."""
        return self._column(self._refine, is_refinement, t)

    def match(self, t: int) -> int:
        """Hypotheses holding a plan that has a common refinement with plan t
        (matches is symmetric)."""
        return self._column(self._match, matches, t)

    def _column(self, columns: dict, related, t: int) -> int:
        column = columns.get(t)
        if column is None:
            query, owners = self.plans[t], self.owners
            column = 0
            for q in self.by_label[query.label]:
                if owners[q] and related(query, self.plans[q]):
                    column |= owners[q]
            columns[t] = column
        return column

    def candidates(self, alive: int, closed: set[PlanNode]) -> list[int]:
        """Ids of the not-yet-closed plans of the live hypotheses, in
        first-occurrence order."""
        return self.open_ids(alive, set(map(self.intern, closed)))

    def open_ids(self, alive: int, skip: set[int]) -> list[int]:
        """Ids of the live hypotheses' plans not in skip, in first-occurrence
        order; skip gains each id listed. Only the representatives' rows are
        read: a class's later members hold no id its representative lacks.
        The query loop lists a question's candidates here once and settles
        the forced ones from this list."""
        out = []
        for row in compress(self.per_hyp, bit_selectors(alive & self.reps)):
            for t in row:
                if t not in skip:
                    skip.add(t)
                    out.append(t)
        return out


@dataclass(slots=True, eq=False)
class LiveSet:
    """What the query loop holds between questions: h0's relation table and
    a live mask over h0, and the live hypotheses' weights in h0 order. It
    reads like a HypothesisSet but builds Hypothesis objects only when asked
    for them. It is a mutable slots dataclass compared by identity, and the
    loop sets handed on the set it hands a policy: (closed, len(closed),
    ids), the question's open candidate ids in first-occurrence order and
    the closed set they were listed for, so the selector need not list them
    again. The ids hold only for that set at that size, as passed in the
    same select call; None elsewhere."""

    relations: tuple[RelationTable, int]
    weights: list[float]
    observation_count: int
    truncated: bool
    handed: tuple[set[PlanNode], int, list[int]] | None = None

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        table, alive = self.relations
        plans = (h.plans for h in compress(table.hypotheses, bit_selectors(alive)))
        return tuple(map(Hypothesis, plans, self.weights))

    def to_set(self) -> HypothesisSet:
        out = HypothesisSet(self.hypotheses, self.observation_count, self.truncated)
        object.__setattr__(out, "relations", self.relations)
        return out


def relations(hset: HypothesisSet | LiveSet) -> tuple[RelationTable, int]:
    """The set's relation table and its live mask. A set derived by update
    or the query loop holds its parent's table; any other set builds its own
    on first use and keeps it, so every loop and selector over one set
    shares one table."""
    if hset.relations is None:
        object.__setattr__(hset, "relations", (RelationTable(hset), (1 << len(hset)) - 1))
    return hset.relations


def _pruned(
    table: RelationTable, alive: int, weights: list[float], t: int, answer: bool,
    observation_count: int, truncated: bool,
) -> LiveSet:
    """The prune rule, for update and the query loop alike: the set with
    live mask alive over table and the live weights, pruned by the answer to
    the plan of id t and renormalized."""
    kept = alive & (table.match(t) if answer else ~table.refine(t))
    if not kept:
        raise OracleInconsistencyError(f"update with answer={answer} removed every hypothesis")
    weights = normalize(list(restrict(weights, alive, kept)))
    return LiveSet((table, kept), weights, observation_count, truncated)


def update(hset: HypothesisSet | LiveSet, plan: PlanNode, answer: bool) -> HypothesisSet:
    """Apply the pruning rule for the given answer and renormalize: True
    keeps the hypotheses with a plan matching the query, False those with no
    plan refinable from it. An empty result means the oracle contradicted
    the set (truncated input or an untruthful oracle) and raises
    OracleInconsistencyError. The result shares the input's relation
    table."""
    table, alive = relations(hset)
    t = table.intern(plan)
    return _pruned(table, alive, hset.weights, t, answer, hset.observation_count, hset.truncated).to_set()


def candidate_plans(hset: HypothesisSet | LiveSet, closed: set[PlanNode]) -> list[PlanNode]:
    """Distinct not-yet-closed plans across the set, up to observation
    marks, in first-occurrence order. Plans appearing in several hypotheses
    are listed once, as held by the first of them."""
    table, alive = relations(hset)
    return [table.plan(t, alive) for t in table.candidates(alive, closed)]


@dataclass(frozen=True)
class TraceStep:
    """One question. settled_by_premise and settled_by_answer count the
    candidates the loop closed unasked since the previous question, by the
    premise rule (a) and by the answered-True rule (b) of the module
    docstring."""

    plan: PlanNode
    answer: bool
    remaining: int
    settled_by_premise: int = 0
    settled_by_answer: int = 0

    def to_dict(self) -> dict:
        return {
            "plan_key": plan_digest(self.plan),
            "plan": plan_to_dict(self.plan),
            "answer": self.answer,
            "remaining": self.remaining,
            "settled_by_premise": self.settled_by_premise,
            "settled_by_answer": self.settled_by_answer,
        }


@dataclass
class ProbeTrace:
    """Per-query record of a run: what was asked, what the oracle said, and
    how many hypotheses remained."""

    initial_size: int
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def final_size(self) -> int:
        return self.steps[-1].remaining if self.steps else self.initial_size

    @property
    def query_count(self) -> int:
        return len(self.steps)

    def remaining_series(self) -> list[float]:
        """Fraction of the initial set remaining, starting at 1.0."""
        series = [1.0]
        for step in self.steps:
            series.append(step.remaining / self.initial_size)
        return series

    def to_dict(self) -> dict:
        return {
            "initial_size": self.initial_size,
            "final_size": self.final_size,
            "queries": self.query_count,
            "steps": [s.to_dict() for s in self.steps],
        }


def run_query_loop(
    h0: HypothesisSet,
    oracle: QueryOracle,
    policy: Policy,
) -> tuple[HypothesisSet, ProbeTrace]:
    """Iteratively query plans chosen by the policy and prune until one
    hypothesis remains or no question is left open. Performs at most as
    many queries as there are distinct plans in h0, up to marks.

    Requires an untruncated set and that some hypothesis can be refined to
    the oracle's truth (the guarantee that pruning can never empty the set).
    hypothesis_refines ignores marks, so the set is checked on one
    representative per mark-free class. Those come from h0's relation
    table, which every loop builds or reuses first, whatever h0's size: a
    truth that no hypothesis refines is reported only after that build.

    Before each select, the candidates whose answer is forced are closed
    unasked, by rules (a) and (b) of the module docstring. The candidates
    are listed once per question, by id, skipping the asked and settled
    ids, and one pass over that list settles each id that rule (b), tested
    first, or rule (a) forces; an id that meets both counts as
    settled_by_answer. Each rule checks the id's root label before it
    evaluates a relation.

    The loop holds a LiveSet sharing h0's relation table, and hands the
    policy one that carries the open ids. A set of fewer than two
    hypotheses asks nothing. The loop returns h0 when nothing was asked,
    and otherwise the set that updating h0 by every answer would give.
    """
    if h0.truncated:
        raise ValueError("query loop requires an untruncated hypothesis set")
    table, alive = relations(h0)
    # one representative per live class; only their plans are read
    held = compress(table.hypotheses, bit_selectors(alive & table.reps))
    if not any(hypothesis_refines(h, oracle.truth) for h in held):
        raise OracleInconsistencyError("no hypothesis can be refined to the oracle's truth")

    trace = ProbeTrace(initial_size=len(h0))
    plans, owners, label_owners = table.plans, table.owners, table.label_owners
    current = LiveSet((table, alive), h0.weights, h0.observation_count, h0.truncated)
    # closed holds a plan per asked or settled id; asked and settled split it
    closed: set[PlanNode] = set()
    asked: set[int] = set()
    settled: set[int] = set()
    last_true: PlanNode | None = None

    while len(current) > 1:
        # one pass: rule (b), then rule (a), settles each listed id or leaves it open
        by_answer = by_premise = 0
        open_ids = []
        for t in table.open_ids(alive, asked | settled):
            q = plans[t]
            if last_true is not None and q.label == last_true.label and is_refinement(q, last_true):
                by_answer += 1
            elif alive & ~label_owners[q.label] or alive & ~table.refine(t):
                open_ids.append(t)
                continue
            else:
                by_premise += 1
            settled.add(t)
            closed.add(q)
        if not open_ids:
            break
        current.handed = (closed, len(closed), open_ids)
        plan = policy.select(current, closed)
        t = table.intern(plan)
        if t in asked:
            raise PolicyError(f"policy {policy.kind!r} returned an already-queried plan")
        if t in settled:
            raise PolicyError(f"policy {policy.kind!r} returned a settled plan, whose answer is already known")
        if not owners[t] & alive:
            raise PolicyError(f"policy {policy.kind!r} returned a plan outside the hypothesis set")
        answer = query_answer(oracle, plan)
        current = _pruned(table, alive, current.weights, t, answer, h0.observation_count, h0.truncated)
        alive = current.relations[1]
        asked.add(t)
        closed.add(plan)
        trace.steps.append(TraceStep(plan, answer, len(current), by_premise, by_answer))
        last_true = plan if answer else None
    return (current.to_set() if trace.steps else h0), trace
