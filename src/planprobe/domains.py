"""Synthetic benchmark instances and a hand-built demonstration domain.

gen_instance draws a random acyclic library arranged in strata (goals on
top, intermediate complex actions below, basic actions at the bottom), picks
the agent's true goals, completes one plan per goal, and emits a prefix of a
legal execution order as the observation sequence. A library draw counts
chains as it goes and stops at its first label over an ambiguity bound;
gen_instance then tries a fresh draw.

builtin_chemistry encodes a small lab domain where a student either mixes
all substance pairs or mixes everything in one flask.

Both build their truths with _complete_plan, which expands each complex
node by the method a chooser picks from its label's methods: gen_instance
passes rng.choice, builtin_chemistry picks the strategy by position.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .errors import GenerationError
from .library import PlanLibrary, RefinementMethod
from .plans import (
    Hypothesis,
    PlanNode,
    is_complete,
    iter_nodes,
    observe_leaf,
    validate_hypothesis,
)
from .recognizer import _PlanMemo

# Stratum mixing knobs, calibrated so hypothesis counts for 3..7 observations
# stay in the tens on default parameters. Libraries where a single basic
# action starts too many distinct derivations are resampled: such hubs make
# the hypothesis space blow up multiplicatively on every matching
# observation, far outside the regime the benchmark targets. A draw stops
# at the first label over a bound, so a rejected library is never built.
_BASIC_SHARE_GOAL = 0.55
_BASIC_SHARE_MID = 0.75
_TAU_CHOICES = (2, 3)
_TAU_WEIGHTS = (60, 40)
_METHOD_COUNT_WEIGHTS = (65, 25, 10)  # weights for 1..branching methods; bounds branching
_MID_PER_LEVEL = 5
_MAX_CHAINS_PER_LABEL = 3     # chains from one complex action to one basic
_MAX_CHAINS_PER_GOAL_SUM = 6  # chains from all goals to one basic
_MAX_LIBRARY_TRIES = 60
_MAX_TRUTH_TRIES = 40


@dataclass(frozen=True)
class GenParams:
    """Generator configuration. order_density is the chance each adjacent
    constituent pair of a method gets an ordering constraint."""

    num_goals: int = 5
    branching: int = 3
    depth: int = 3
    num_basic: int = 22
    obs_len: int = 5
    seed: int = 0
    order_density: float = 0.5

    def __post_init__(self):
        for name in ("num_goals", "branching", "depth", "num_basic", "obs_len"):
            if getattr(self, name) < 1:
                raise GenerationError(f"{name} must be >= 1")
        if self.branching > len(_METHOD_COUNT_WEIGHTS):
            raise GenerationError(f"branching must be between 1 and {len(_METHOD_COUNT_WEIGHTS)}")
        if not 0.0 <= self.order_density <= 1.0:
            raise GenerationError("order_density must be in [0, 1]")


@dataclass(frozen=True)
class Instance:
    """One benchmark unit: a library, the agent's true hypothesis (complete
    plans, observation marks on the emitted prefix), and the observations."""

    library: PlanLibrary
    truth: Hypothesis
    observations: tuple[str, ...]

    def __post_init__(self):
        marks = validate_hypothesis(self.library, self.truth)
        for plan in self.truth.plans:
            if not is_complete(plan, self.library):
                raise GenerationError(f"truth plan rooted at {plan.label!r} is incomplete")
        if marks != dict(enumerate(self.observations)):
            raise GenerationError("truth does not describe the observation sequence")


def _gen_library(params: GenParams, rng: random.Random) -> PlanLibrary | None:
    """A library drawn bottom-up, or None at the first label over an
    ambiguity bound. Every constituent comes from a lower level, so a head's
    chain counts are known once its methods are drawn: chains[head][b] is
    the number of expansion chains from head down to b through order-minimal
    positions. A kept draw uses rng exactly as a draw without the bounds
    would."""
    basics = [f"b{i}" for i in range(params.num_basic)]
    levels: list[list[str]] = [basics]
    for level in range(1, params.depth):
        levels.append([f"c{level}_{i}" for i in range(_MID_PER_LEVEL)])
    goals = [f"g{i}" for i in range(params.num_goals)]
    levels.append(goals)

    complex_actions = [a for level in levels[1:] for a in level]
    methods: list[RefinementMethod] = []
    chains: dict[str, Counter[str]] = {}  # per complex action drawn so far
    lower_pool: list[str] = []  # the complex actions of the levels below
    for level_idx in range(1, len(levels)):
        basic_share = _BASIC_SHARE_GOAL if level_idx == len(levels) - 1 else _BASIC_SHARE_MID
        for head in levels[level_idx]:
            counts = chains[head] = Counter()
            count_weights = _METHOD_COUNT_WEIGHTS[: params.branching]
            n_methods = rng.choices(range(1, len(count_weights) + 1), weights=count_weights)[0]
            for m_idx in range(n_methods):
                tau_len = rng.choices(_TAU_CHOICES, weights=_TAU_WEIGHTS)[0]
                # distinct labels within a method: duplicated constituents
                # let one observation attach several ways in a single plan,
                # which compounds into runaway hypothesis counts
                n_basic_slots = sum(
                    1 for _ in range(tau_len)
                    if level_idx == 1 or rng.random() < basic_share
                )
                slots = rng.sample(basics, min(n_basic_slots, len(basics)))
                n_complex_slots = tau_len - len(slots)
                # never empty: level 1 draws only basic slots, and above it
                # the others come from a pool of at least _MID_PER_LEVEL labels
                slots += rng.sample(lower_pool, min(n_complex_slots, len(lower_pool)))
                rng.shuffle(slots)
                order = frozenset(
                    (i, i + 1) for i in range(len(slots) - 1)
                    if rng.random() < params.order_density
                )
                method = RefinementMethod(id=f"m_{head}_{m_idx}", head=head, constituents=tuple(slots), order=order)
                methods.append(method)
                for i in method.minimal_positions:
                    c = method.constituents[i]
                    if c in chains:
                        counts.update(chains[c])
                    else:
                        counts[c] += 1
            if any(n > _MAX_CHAINS_PER_LABEL for n in counts.values()):
                return None
        lower_pool += levels[level_idx]

    per_goal_sum = sum((chains[g] for g in goals), Counter())
    if any(n > _MAX_CHAINS_PER_GOAL_SUM for n in per_goal_sum.values()):
        return None
    return PlanLibrary(
        basic=frozenset(basics),
        complex_actions=frozenset(complex_actions),
        methods=tuple(methods),
        goals=tuple(goals),
    )


def _complete_plan(lib: PlanLibrary, label: str, choose: Callable[..., RefinementMethod]) -> PlanNode:
    """A complete unmarked plan rooted at label: each complex node expands by
    the method that choose picks from its label's methods in file order,
    children left to right."""
    if lib.is_basic(label):
        return PlanNode(label)
    method = choose(lib.methods_for(label))
    children = tuple(_complete_plan(lib, c, choose) for c in method.constituents)
    return PlanNode(label, method=method.id, children=children)


def _emit_observations(
    lib: PlanLibrary, plans: list[PlanNode], obs_len: int, rng: random.Random
) -> tuple[list[PlanNode], list[str]]:
    """Mark a legal execution prefix of length obs_len. The first picks touch
    every plan once so no true plan stays unobserved. One memo serves the
    whole emission, so a plan is walked only where a step changed it.

    The pool is never empty. The plans are complete and gen_instance passes
    them only with at least obs_len leaves, so at every step a picked plan
    has an unobserved leaf: a first pick takes a plan no earlier step
    touched, and a later step picks every plan. A complete plan with an
    unobserved leaf has an enabled one, since each method's order is
    acyclic: a minimal unfinished constituent has every predecessor fully
    observed."""
    memo = _PlanMemo(lib)
    observations: list[str] = []
    start_order = list(range(len(plans)))
    rng.shuffle(start_order)
    for step in range(obs_len):
        picks = [start_order[step]] if step < len(plans) else range(len(plans))
        pool = [(i, path, leaf) for i in picks for path, leaf in memo[plans[i]][1]]
        plan_idx, path, leaf = rng.choice(pool)
        observations.append(leaf.label)
        plans[plan_idx] = observe_leaf(plans[plan_idx], path, step)
    return plans, observations


def gen_instance(params: GenParams) -> Instance:
    """Deterministic in params.seed. Raises GenerationError when the
    parameters cannot yield a valid instance."""
    cause = f"all {_MAX_LIBRARY_TRIES} libraries drawn were too ambiguous: a basic action starts too many derivations"
    for lib_try in range(_MAX_LIBRARY_TRIES):
        rng = random.Random(f"{params.seed}:{lib_try}")
        lib = _gen_library(params, rng)
        if lib is None:
            continue
        cause = "plans too small for these parameters"
        for _ in range(_MAX_TRUTH_TRIES):
            want = 2 if (params.num_goals >= 2 and params.obs_len >= 2 and rng.random() < 0.35) else 1
            goal_names = rng.sample(list(lib.goals), want)
            plans = [_complete_plan(lib, g, rng.choice) for g in goal_names]
            if sum(not node.children for p in plans for _, node in iter_nodes(p)) < params.obs_len:
                continue
            marked, observations = _emit_observations(lib, plans, params.obs_len, rng)
            truth = Hypothesis(tuple(marked), 1.0)
            return Instance(lib, truth, tuple(observations))
    raise GenerationError(f"could not generate an instance with obs_len={params.obs_len} ({cause})")


def _chem_library() -> PlanLibrary:
    pair_mixes = ("mix_AB", "mix_AC", "mix_AD", "mix_BC", "mix_BD", "mix_CD")
    return PlanLibrary(
        basic=frozenset(pair_mixes + ("mix_ABCD",)),
        complex_actions=frozenset({"InvestigateReaction", "Pairwise", "FourWay"}),
        methods=(
            RefinementMethod("strategy_pairwise", "InvestigateReaction", ("Pairwise",)),
            RefinementMethod("strategy_fourway", "InvestigateReaction", ("FourWay",)),
            RefinementMethod("run_pairwise", "Pairwise", pair_mixes),
            RefinementMethod("run_fourway", "FourWay", ("mix_AB", "mix_ABCD")),
        ),
        goals=("InvestigateReaction",),
    )


def builtin_chemistry() -> dict[str, Instance]:
    """Lab-strategy instances: a student determines which of four substances
    react, either by mixing each pair or by mixing everything in one flask
    (where the first pour pair still shows up as a pair mix)."""
    lib = _chem_library()
    # InvestigateReaction's methods are strategy_pairwise, then
    # strategy_fourway; every other label has one method
    pairwise = _complete_plan(lib, "InvestigateReaction", lambda methods: methods[0])
    fourway = _complete_plan(lib, "InvestigateReaction", lambda methods: methods[-1])
    return {
        "pairwise_first_mix": Instance(
            lib,
            Hypothesis((observe_leaf(pairwise, (0, 0), 0),)),
            ("mix_AB",),
        ),
        "pairwise_two_mixes": Instance(
            lib,
            Hypothesis((observe_leaf(observe_leaf(pairwise, (0, 0), 0), (0, 5), 1),)),
            ("mix_AB", "mix_CD"),
        ),
        "fourway_all_mix": Instance(
            lib,
            Hypothesis((observe_leaf(fourway, (0, 1), 0),)),
            ("mix_ABCD",),
        ),
    }
