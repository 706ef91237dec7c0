from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from planprobe.domains import builtin_chemistry
from planprobe.library import PlanLibrary, RefinementMethod
from planprobe.plans import Hypothesis, PlanNode, observe_leaf, validate_hypothesis
from planprobe.recognizer import HypothesisSet

from .oracles import apply_method, open_frontier


@pytest.fixture
def chem():
    return builtin_chemistry()


@pytest.fixture
def chem_lib(chem):
    return chem["pairwise_first_mix"].library


def builtin_quartet() -> SimpleNamespace:
    """Four two-plan hypotheses over three observations, one complete plan
    pair, and the ground truth, wired so every pruning behavior shows up:
    p2 is refinable to p1 and p3, which do not refine each other but share a
    common refinement (complete_main); h4 uses a different root method."""
    lib = PlanLibrary(
        basic=frozenset({"o1", "o2", "o3", "a", "b", "d", "e"}),
        complex_actions=frozenset({"G1", "G2", "X", "Y", "Z"}),
        methods=(
            RefinementMethod("mg", "G1", ("o1", "X", "Y"), frozenset({(0, 1), (0, 2)})),
            RefinementMethod("malt", "G1", ("o1", "Y", "X"), frozenset({(0, 1), (0, 2)})),
            RefinementMethod("mx", "X", ("o3", "a")),
            RefinementMethod("my", "Y", ("o3", "b")),
            RefinementMethod("mp", "G2", ("o2", "Z"), frozenset({(0, 1)})),
            RefinementMethod("mp2", "G2", ("o2", "o3", "e"), frozenset({(0, 1), (0, 2)})),
            RefinementMethod("mz", "Z", ("o3", "d")),
        ),
        goals=("G1", "G2"),
    )

    def g1(x_expanded: bool, y_expanded: bool, alt: bool = False) -> PlanNode:
        x = PlanNode("X", method="mx", children=(PlanNode("o3", observed=2), PlanNode("a"))) \
            if x_expanded else PlanNode("X")
        y_mark = 2 if y_expanded and not x_expanded else None
        y = PlanNode("Y", method="my", children=(PlanNode("o3", observed=y_mark), PlanNode("b"))) \
            if y_expanded else PlanNode("Y")
        if alt:
            return PlanNode("G1", method="malt", children=(PlanNode("o1", observed=0), y, x))
        return PlanNode("G1", method="mg", children=(PlanNode("o1", observed=0), x, y))

    def g2(z_expanded: bool = False, z_mark: int | None = None) -> PlanNode:
        z = PlanNode("Z", method="mz", children=(PlanNode("o3", observed=z_mark), PlanNode("d"))) \
            if z_expanded else PlanNode("Z")
        return PlanNode("G2", method="mp", children=(PlanNode("o2", observed=1), z))

    p1 = g1(x_expanded=True, y_expanded=False)
    p2 = g1(x_expanded=False, y_expanded=False)
    p3 = g1(x_expanded=False, y_expanded=True)
    p4 = g1(x_expanded=False, y_expanded=False, alt=True)
    partner1 = g2()
    partner2 = PlanNode("G2", method="mp2",
                        children=(PlanNode("o2", observed=1), PlanNode("o3", observed=2), PlanNode("e")))
    partner3 = g2()
    partner4 = g2(z_expanded=True, z_mark=2)
    complete_main = g1(x_expanded=True, y_expanded=True)
    complete_partner = g2(z_expanded=True)

    h1 = Hypothesis((p1, partner1), 0.25)
    h2 = Hypothesis((p2, partner2), 0.25)
    h3 = Hypothesis((p3, partner3), 0.25)
    h4 = Hypothesis((p4, partner4), 0.25)
    for h in (h1, h2, h3, h4):
        validate_hypothesis(lib, h)
    return SimpleNamespace(
        library=lib,
        observations=("o1", "o2", "o3"),
        hset=HypothesisSet((h1, h2, h3, h4), observation_count=3),
        h1=h1, h2=h2, h3=h3, h4=h4,
        p1=p1, p2=p2, p3=p3, p4=p4,
        partner1=partner1, partner2=partner2, partner3=partner3, partner4=partner4,
        complete_main=complete_main,
        complete_partner=complete_partner,
        truth=Hypothesis((complete_main, complete_partner)),
    )


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
