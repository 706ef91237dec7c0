"""Query-and-prune loop over a hypothesis set.

An oracle holding the agent's true hypothesis answers, for a queried plan,
whether some true plan can be refined from it. A True answer keeps exactly
the hypotheses with a plan that still shares a common refinement with the
query; a False answer removes exactly the hypotheses containing a plan the
query refines to. Both rules never drop a hypothesis that can be refined to
the truth, and repeated querying shrinks the set to precisely those
hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Sequence, TypeVar

from .errors import OracleInconsistencyError, PolicyError
from .plans import (
    Hypothesis,
    Plan,
    PlanNode,
    canonical_key,
    hypothesis_refines,
    is_refinement,
    matches,
    plan_digest,
    plan_to_dict,
)
from .recognizer import HypothesisSet

if TYPE_CHECKING:
    from .policies import Policy

T = TypeVar("T")


@dataclass(frozen=True)
class QueryOracle:
    """Answers refinement queries against a fixed ground-truth hypothesis."""

    truth: Hypothesis


def query_answer(oracle: QueryOracle, plan: Plan) -> bool:
    """True iff some plan of the oracle's truth is a refinement of `plan`."""
    return any(is_refinement(plan, t) for t in oracle.truth.plans)


# Selector bytes for itertools.compress: bit j of a mask becomes byte j.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_selectors(mask: int) -> bytes:
    return format(mask, "b")[::-1].encode().translate(_BIT_BYTES)


def restrict(items: Sequence[T], alive: int, mask: int) -> Iterator[T]:
    """The items whose bit is set in mask, in order, where items[k] belongs
    to the k-th lowest set bit of alive (as a set's hypotheses do)."""
    return compress(items, compress(_bit_selectors(mask & alive), _bit_selectors(alive)))


class RelationTable:
    """The refinement and match relations between the plans of one
    hypothesis set h0 and its hypotheses, as bitmasks over h0's order (bit i
    stands for h0.hypotheses[i]).

    Each distinct plan is interned to an int in first-occurrence order:
    per_hyp[i] lists hypothesis i's plan ids and owners[t] is the mask of
    hypotheses holding plan t. The columns refine(t) and match(t) are filled
    on first use, evaluating the relation once per distinct plan that has an
    owner in the caller's live mask; a later call with hypotheses outside
    every mask a column was filled for extends it. A column is therefore
    exact on the bits of any live mask it is asked about.
    """

    def __init__(self, h0: HypothesisSet):
        self.ids: dict[PlanNode, int] = {}
        self.plans: list[Plan] = []
        self.owners: list[int] = []
        per_hyp = []
        for i, h in enumerate(h0.hypotheses):
            row = []
            for p in h.plans:
                t = self.intern(p)
                self.owners[t] |= 1 << i
                row.append(t)
            per_hyp.append(tuple(row))
        self.per_hyp = tuple(per_hyp)
        # plan id -> (column, union of the live masks it was filled for)
        self._refine: dict[int, tuple[int, int]] = {}
        self._match: dict[int, tuple[int, int]] = {}

    def intern(self, plan: Plan) -> int:
        """Id of plan, added (with no owners) if new."""
        t = self.ids.setdefault(canonical_key(plan), len(self.plans))
        if t == len(self.plans):
            self.plans.append(plan)
            self.owners.append(0)
        return t

    def refine(self, t: int, alive: int) -> int:
        """Hypotheses holding a plan refinable from plan t."""
        return self._column(self._refine, is_refinement, t, alive)

    def match(self, t: int, alive: int) -> int:
        """Hypotheses holding a plan that has a common refinement with plan t
        (matches is symmetric)."""
        return self._column(self._match, matches, t, alive)

    def _column(self, columns: dict, related, t: int, alive: int) -> int:
        column, covered = columns.get(t, (0, 0))
        if alive & ~covered:
            query = self.plans[t]
            for q, owners in enumerate(self.owners):
                # plans owned in covered were evaluated when it was filled
                if owners & alive and not owners & covered and related(query, self.plans[q]):
                    column |= owners
            columns[t] = column, covered | alive
        return column

    def rows(self, alive: int) -> Iterator[tuple[int, ...]]:
        """Plan ids of each hypothesis in alive, in h0 order."""
        return compress(self.per_hyp, _bit_selectors(alive))

    def closed_ids(self, closed: set[PlanNode]) -> set[int]:
        """Ids of the closed keys that name a plan in the table."""
        return {t for t in map(self.ids.get, closed) if t is not None}

    def candidates(self, alive: int, closed: set[PlanNode]) -> Iterator[int]:
        """Ids of the not-yet-queried plans of the live hypotheses, in
        first-occurrence order."""
        skip = self.closed_ids(closed)
        for row in self.rows(alive):
            for t in row:
                if t not in skip:
                    skip.add(t)
                    yield t


def relations(hset: HypothesisSet) -> tuple[RelationTable, int]:
    """The relation table a set shares with the other sets of its query loop
    and the set's live mask; a one-off table for any other set."""
    if hset.relations is not None:
        return hset.relations
    return RelationTable(hset), (1 << len(hset)) - 1


def _kept(table: RelationTable, alive: int, plan: Plan, answer: bool) -> int:
    """The pruning rule as a mask: True keeps the live hypotheses with a plan
    matching the query, False those with no plan refinable from it."""
    t = table.intern(plan)
    return alive & (table.match(t, alive) if answer else ~table.refine(t, alive))


def survivors_if_true(hset: HypothesisSet, plan: Plan) -> list[Hypothesis]:
    """Hypotheses with at least one plan matching the queried plan."""
    table, alive = relations(hset)
    return list(restrict(hset.hypotheses, alive, _kept(table, alive, plan, True)))


def survivors_if_false(hset: HypothesisSet, plan: Plan) -> list[Hypothesis]:
    """Hypotheses with no plan refinable from the queried plan."""
    table, alive = relations(hset)
    return list(restrict(hset.hypotheses, alive, _kept(table, alive, plan, False)))


def update(hset: HypothesisSet, plan: Plan, answer: bool) -> HypothesisSet:
    """Apply the pruning rule for the given answer and renormalize. An empty
    result means the oracle contradicted the set (truncated input or an
    untruthful oracle) and raises OracleInconsistencyError. The result
    shares the input's relation table."""
    table, alive = relations(hset)
    kept = _kept(table, alive, plan, answer)
    if not kept:
        raise OracleInconsistencyError(
            f"update with answer={answer} removed every hypothesis"
        )
    survivors = list(restrict(hset.hypotheses, alive, kept))
    out = HypothesisSet.normalized(survivors, hset.observation_count, hset.truncated)
    return replace(out, relations=(table, kept))


def candidate_plans(hset: HypothesisSet, closed: set[PlanNode]) -> list[Plan]:
    """Distinct not-yet-queried plans across the set, in first-occurrence
    order. Structural duplicates appearing in several hypotheses are listed
    once."""
    table, alive = relations(hset)
    return [table.plans[t] for t in table.candidates(alive, closed)]


@dataclass(frozen=True)
class TraceStep:
    plan: Plan
    answer: bool
    remaining: int

    def to_dict(self) -> dict:
        return {
            "plan_key": plan_digest(self.plan),
            "plan": plan_to_dict(self.plan),
            "answer": self.answer,
            "remaining": self.remaining,
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
    check_premise: bool = True,
) -> tuple[HypothesisSet, ProbeTrace]:
    """Iteratively query plans chosen by the policy and prune until one
    hypothesis remains or every plan still in the set has been queried.
    Performs at most as many queries as there are distinct plans in h0.

    Requires an untruncated set and, unless check_premise is disabled, that
    some hypothesis can be refined to the oracle's truth (the guarantee that
    pruning can never empty the set).

    Every set the loop holds and hands to the policy shares one
    RelationTable built for h0.
    """
    if h0.truncated:
        raise ValueError("query loop requires an untruncated hypothesis set")
    if check_premise and not any(hypothesis_refines(h, oracle.truth) for h in h0.hypotheses):
        raise OracleInconsistencyError("no hypothesis can be refined to the oracle's truth")

    trace = ProbeTrace(initial_size=len(h0))
    closed: set[PlanNode] = set()
    table, alive = relations(h0)
    current = replace(h0, relations=(table, alive))
    while len(current) > 1:
        _, alive = current.relations
        if next(table.candidates(alive, closed), None) is None:
            break
        plan = policy.select(current, closed)
        key = canonical_key(plan)
        if key in closed:
            raise PolicyError(f"policy {policy.kind!r} returned an already-queried plan")
        t = table.ids.get(key)
        if t is None or not table.owners[t] & alive:
            raise PolicyError(f"policy {policy.kind!r} returned a plan outside the hypothesis set")
        answer = query_answer(oracle, plan)
        current = update(current, plan, answer)
        closed.add(key)
        trace.steps.append(TraceStep(plan, answer, len(current)))
    return current, trace
