from __future__ import annotations

import random

import pytest

from planprobe.domains import builtin_chemistry, builtin_quartet
from planprobe.library import PlanLibrary, RefinementMethod
from planprobe.plans import PlanNode, observe_leaf

from .oracles import apply_method, open_frontier


@pytest.fixture
def chem():
    return builtin_chemistry()


@pytest.fixture
def chem_lib(chem):
    return chem["pairwise_first_mix"].library


@pytest.fixture
def quartet():
    return builtin_quartet()


@pytest.fixture
def minimal_lib():
    return PlanLibrary(
        basic=frozenset({"a"}),
        complex_actions=frozenset({"g"}),
        methods=(RefinementMethod("m", "g", ("a",)),),
        goals=("g",),
    )


@pytest.fixture
def shared_plans_lib():
    """Two goals whose plans both absorb `x`, in several ways each."""
    return PlanLibrary(
        basic=frozenset({"x"}),
        complex_actions=frozenset({"g", "h", "s"}),
        methods=(
            RefinementMethod("g1", "g", ("x", "s")),
            RefinementMethod("g2", "g", ("s", "x")),
            RefinementMethod("h1", "h", ("x", "x")),
            RefinementMethod("s1", "s", ("x",)),
            RefinementMethod("s2", "s", ("x", "x")),
        ),
        goals=("g", "h"),
    )


def random_plan(lib: PlanLibrary, rng: random.Random, expand_p: float = 0.6, mark_p: float = 0.4) -> PlanNode:
    """Random partial plan from a random goal: expand open complex nodes with
    probability expand_p, then observe a random subset of basic leaves."""
    plan = PlanNode(rng.choice(lib.goals))
    while True:
        open_complex = [
            path for path in open_frontier(plan, lib)
            if lib.is_complex(plan.node_at(path).label) and rng.random() < expand_p
        ]
        if not open_complex:
            break
        for path in open_complex:
            node = plan.node_at(path)
            method = rng.choice(lib.methods_for(node.label))
            plan = apply_method(plan, path, method)
    pending = [p for p in open_frontier(plan, lib) if lib.is_basic(plan.node_at(p).label)]
    rng.shuffle(pending)
    index = 0
    for path in pending:
        if rng.random() < mark_p:
            plan = observe_leaf(plan, path, index)
            index += 1
    return plan


def random_expansion(lib: PlanLibrary, plan: PlanNode, rng: random.Random, steps: int) -> PlanNode:
    """Apply up to `steps` random method applications to open complex nodes."""
    for _ in range(steps):
        targets = [
            path for path in open_frontier(plan, lib)
            if lib.is_complex(plan.node_at(path).label)
        ]
        if not targets:
            break
        path = rng.choice(targets)
        method = rng.choice(lib.methods_for(plan.node_at(path).label))
        plan = apply_method(plan, path, method)
    return plan
