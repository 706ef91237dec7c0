import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planprobe
import planprobe.library
from planprobe.domains import GenParams, gen_instance
from planprobe.errors import LibrarySyntaxError, LibraryValidationError
from planprobe.library import (
    MAX_GRAMMAR_DEPTH,
    PlanLibrary,
    RefinementMethod,
    parse_library,
    serialize_library,
)

from . import oracles

CHEMISTRY_TEXT = """
{
  "basic": ["mix_AB", "mix_AC", "mix_AD", "mix_BC", "mix_BD", "mix_CD", "mix_ABCD"],
  "complex": ["InvestigateReaction", "Pairwise", "FourWay"],
  "goals": ["InvestigateReaction"],
  "methods": [
    {"id": "strategy_pairwise", "head": "InvestigateReaction", "children": ["Pairwise"], "order": []},
    {"id": "strategy_fourway", "head": "InvestigateReaction", "children": ["FourWay"], "order": []},
    {"id": "run_pairwise", "head": "Pairwise",
     "children": ["mix_AB", "mix_AC", "mix_AD", "mix_BC", "mix_BD", "mix_CD"], "order": []},
    {"id": "run_fourway", "head": "FourWay", "children": ["mix_AB", "mix_ABCD"], "order": []}
  ]
}
"""

MINIMAL_TEXT = '{"basic": ["a"], "complex": ["g"], "goals": ["g"], "methods": [{"id": "m", "head": "g", "children": ["a"]}]}'


def test_parse_chemistry_fixture():
    lib = parse_library(CHEMISTRY_TEXT)
    assert lib.basic == {"mix_AB", "mix_AC", "mix_AD", "mix_BC", "mix_BD", "mix_CD", "mix_ABCD"}
    assert {"Pairwise", "FourWay"} <= lib.complex_actions
    assert lib.goals == ("InvestigateReaction",)
    assert lib.goal_priors == {"InvestigateReaction": 1.0}


def test_parse_minimal():
    lib = parse_library(MINIMAL_TEXT)
    assert lib.basic == {"a"} and lib.complex_actions == {"g"}
    assert len(lib.methods) == 1


def test_cyclic_order_rejected():
    text = MINIMAL_TEXT.replace('"children": ["a"]', '"children": ["a", "a"], "order": [[0, 1], [1, 0]]')
    with pytest.raises(LibraryValidationError, match="cyclic ordering constraint"):
        parse_library(text)


def test_transitive_order_cycle_rejected():
    with pytest.raises(LibraryValidationError, match="cyclic ordering constraint"):
        RefinementMethod("m", "g", ("a", "b", "c"), frozenset({(0, 1), (1, 2), (2, 0)}))


def test_order_out_of_range():
    with pytest.raises(LibraryValidationError, match="out of range"):
        RefinementMethod("m", "g", ("a",), frozenset({(0, 1)}))


def test_order_closure_predecessors():
    m = RefinementMethod("m", "g", ("a", "b", "c"), frozenset({(0, 1), (1, 2)}))
    assert m.predecessors == (0, 0b1, 0b11)
    assert m.minimal_positions == (0,)


def long_order_library_doc(n: int, cyclic: bool = False) -> dict:
    """Goal g with one method of n constituents ordered in descending index
    order: n-1 before n-2, ..., 1 before 0. With `cyclic`, 0 also comes
    before n-1, which closes an n-step ordering cycle."""
    order = [[i + 1, i] for i in range(n - 1)] + ([[0, n - 1]] if cyclic else [])
    method = {"id": "m", "head": "g", "children": ["a"] * n, "order": order}
    return {"basic": ["a"], "complex": ["g"], "goals": ["g"], "methods": [method]}


def test_long_ordering_chain_closes_without_recursion():
    lib = parse_library(json.dumps(long_order_library_doc(1500)))
    (m,) = lib.methods
    assert m.predecessors[0] == (1 << 1500) - 2
    assert m.predecessors[1498] == 1 << 1499
    assert m.minimal_positions == (1499,)


def test_long_ordering_chain_parses_in_small_memory():
    """The closure is held as one bitmask per constituent. One set per
    constituent took the peak RSS of this parse to about 410 MB."""
    script = (
        "import resource, sys\n"
        "from planprobe.library import parse_library\n"
        "parse_library(sys.stdin.read())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(planprobe.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(long_order_library_doc(3000)),
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert int(done.stdout) < 100 * 1024  # ru_maxrss is in KiB on Linux


def test_long_ordering_cycle_rejected():
    with pytest.raises(LibraryValidationError, match=r"^method 'm': cyclic ordering constraint$"):
        parse_library(json.dumps(long_order_library_doc(1500, cyclic=True)))


def test_methods_for_chemistry():
    lib = parse_library(CHEMISTRY_TEXT)
    ms = lib.methods_for("InvestigateReaction")
    assert [m.id for m in ms] == ["strategy_pairwise", "strategy_fourway"]


def test_methods_for_minimal(minimal_lib):
    assert [m.id for m in minimal_lib.methods_for("g")] == ["m"]


def test_methods_for_rejects_basic_and_unknown():
    lib = parse_library(CHEMISTRY_TEXT)
    with pytest.raises(LibraryValidationError, match="basic"):
        lib.methods_for("mix_AB")
    with pytest.raises(LibraryValidationError, match="unknown"):
        lib.methods_for("nope")


def test_generated_libraries_respect_branching():
    for seed in range(10):
        lib = gen_instance(GenParams(seed=seed, obs_len=3)).library
        for label in lib.complex_actions:
            assert len(lib.methods_for(label)) <= 3


def test_round_trip_identity():
    for text in (CHEMISTRY_TEXT, MINIMAL_TEXT):
        lib = parse_library(text)
        assert parse_library(serialize_library(lib)) == lib
    for seed in range(8):
        lib = gen_instance(GenParams(seed=seed, obs_len=3)).library
        assert parse_library(serialize_library(lib)) == lib


def test_equal_libraries_hash_equal():
    for seed in range(8):
        lib = gen_instance(GenParams(seed=seed, obs_len=3)).library
        again = parse_library(serialize_library(lib))
        assert again == lib and again is not lib
        assert hash(again) == hash(lib)
        assert len({lib, again}) == 1


def test_methods_for_deterministic_across_parses():
    a = parse_library(CHEMISTRY_TEXT)
    b = parse_library(CHEMISTRY_TEXT)
    assert [m.id for m in a.methods_for("InvestigateReaction")] == \
           [m.id for m in b.methods_for("InvestigateReaction")]


def test_syntax_error_has_position():
    with pytest.raises(LibrarySyntaxError) as info:
        parse_library('{"basic": [}')
    assert info.value.line == 1 and info.value.column is not None


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["basic"].append("g"), "duplicate action"),
        (lambda d: d["methods"].append(dict(d["methods"][0])), "duplicate method id"),
        (lambda d: d["methods"][0].__setitem__("children", ["ghost"]), "undeclared action"),
        (lambda d: d["methods"][0].__setitem__("head", "a"), "basic action"),
        (lambda d: d["methods"][0].__setitem__("head", "ghost"), "undeclared action"),
        (lambda d: d.__setitem__("goals", []), "empty goals"),
        (lambda d: d.__setitem__("goals", ["a"]), "not a declared complex action"),
        (lambda d: d.__setitem__("goal_priors", {"g": 0.5}), "sum"),
        (lambda d: d.__setitem__("goal_priors", {"g": -1.0}), "negative"),
        (lambda d: d.__setitem__("goal_priors", {"g": 0.5, "ghost": 0.5}), "non-goal"),
    ],
)
def test_semantic_rejections(mutate, message):
    doc = json.loads(MINIMAL_TEXT)
    mutate(doc)
    with pytest.raises(LibraryValidationError, match=message):
        parse_library(json.dumps(doc))


@pytest.mark.parametrize("prior", [math.nan, math.inf])
def test_non_finite_goal_prior_rejected(prior):
    with pytest.raises(LibraryValidationError, match=r"^goal prior for 'g' is not finite$"):
        PlanLibrary(
            basic=frozenset({"a"}),
            complex_actions=frozenset({"g"}),
            methods=(RefinementMethod("m", "g", ("a",)),),
            goals=("g",),
            goal_priors={"g": prior},
        )


@pytest.mark.parametrize("prior", [10 ** 400, -(10 ** 400)], ids=["huge", "huge-negative"])
def test_goal_prior_too_large_for_a_float_rejected(prior):
    doc = json.loads(MINIMAL_TEXT)
    doc["goal_priors"] = {"g": prior}
    with pytest.raises(LibraryValidationError, match=r"^goal prior for 'g' is not finite$"):
        parse_library(json.dumps(doc))


@pytest.mark.parametrize("priors", [0, False, "", [], None], ids=["zero", "false", "empty-string", "empty-list", "null"])
def test_falsy_non_object_goal_priors_rejected(priors):
    doc = json.loads(MINIMAL_TEXT)
    doc["goal_priors"] = priors
    with pytest.raises(LibrarySyntaxError, match=r"^'goal_priors' must be an object$"):
        parse_library(json.dumps(doc))


def test_cyclic_grammar_rejected():
    doc = json.loads(MINIMAL_TEXT)
    doc["complex"].append("h")
    doc["methods"].append({"id": "mh", "head": "h", "children": ["g"]})
    doc["methods"].append({"id": "mg2", "head": "g", "children": ["h"]})
    with pytest.raises(LibraryValidationError, match="cyclic grammar"):
        parse_library(json.dumps(doc))


def chain_library_doc(depth: int, cyclic: bool = False) -> dict:
    """Goal c0 -> c1 -> ... -> c{depth-1} -> basic a: `depth` method steps.
    With `cyclic`, the last complex action also expands back to c0."""
    labels = [f"c{i}" for i in range(depth)]
    methods = [
        {"id": f"m{i}", "head": labels[i], "children": [labels[i + 1] if i + 1 < depth else "a"]}
        for i in range(depth)
    ]
    if cyclic:
        methods.append({"id": "back", "head": labels[-1], "children": ["c0"]})
    return {"basic": ["a"], "complex": labels, "goals": ["c0"], "methods": methods}


def test_grammar_depth_limit():
    assert len(parse_library(json.dumps(chain_library_doc(MAX_GRAMMAR_DEPTH))).methods) == MAX_GRAMMAR_DEPTH
    with pytest.raises(LibraryValidationError, match=f"chain of {MAX_GRAMMAR_DEPTH + 1} method steps"):
        parse_library(json.dumps(chain_library_doc(MAX_GRAMMAR_DEPTH + 1)))


def test_deep_grammars_fail_validation_not_the_stack():
    with pytest.raises(LibraryValidationError, match="'c0' heads a chain of 5000 method steps"):
        parse_library(json.dumps(chain_library_doc(5000)))
    with pytest.raises(LibraryValidationError, match=r"cyclic grammar: c0 -> c1 -> .* -> c4999 -> c0$"):
        parse_library(json.dumps(chain_library_doc(5000, cyclic=True)))


def test_reachable_complex_needs_method():
    doc = json.loads(MINIMAL_TEXT)
    doc["complex"].append("h")
    doc["methods"][0]["children"] = ["h"]
    with pytest.raises(LibraryValidationError, match="no method"):
        parse_library(json.dumps(doc))


def test_unreachable_complex_without_method_is_fine():
    doc = json.loads(MINIMAL_TEXT)
    doc["complex"].append("island")
    lib = parse_library(json.dumps(doc))
    assert "island" in lib.complex_actions


def _random_grammar(rng: random.Random) -> tuple[frozenset[str], tuple[RefinementMethod, ...], tuple[str, ...]]:
    """Complex actions, methods and goals over basic a and b. When children
    are drawn only from later labels the grammar is acyclic; some labels
    get no method."""
    labels = [f"x{i}" for i in range(rng.randint(1, 6))]
    downward = rng.random() < 0.7
    methods = []
    for i, head in enumerate(labels):
        if rng.random() < 0.2:
            continue
        pool = (labels[i + 1:] if downward else labels) + ["a", "b"]
        for k in range(rng.randint(1, 2)):
            children = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            methods.append(RefinementMethod(f"m{i}_{k}", head, children))
    rng.shuffle(methods)
    return frozenset(labels), tuple(methods), tuple(rng.sample(labels, rng.randint(1, len(labels))))


def test_grammar_checks_agree_with_recursive_reference(monkeypatch):
    """PlanLibrary accepts exactly the grammars the recursive reference
    accepts, rejects the others for the same fault, and names a label the
    fault allows: a real cycle, the first deepest label in sorted order with
    its chain length, or a reachable method-less label."""
    rng = random.Random(19)
    faults = []
    for _ in range(3000):
        complex_actions, methods, goals = _random_grammar(rng)
        depth = rng.randint(1, 4)
        monkeypatch.setattr(planprobe.library, "MAX_GRAMMAR_DEPTH", depth)
        fault = oracles.grammar_fault(complex_actions, methods, goals, depth)
        faults.append(fault and fault[0])
        try:
            PlanLibrary(frozenset({"a", "b"}), complex_actions, methods, goals)
        except LibraryValidationError as e:
            message = str(e)
        else:
            assert fault is None
            continue
        assert fault is not None, message
        kind, labels, longest = fault
        if kind == "cyclic":
            path = message.removeprefix("cyclic grammar: ").split(" -> ")
            assert message.startswith("cyclic grammar: ") and path[0] == path[-1]
            assert set(path) <= labels
            edges = {(m.head, c) for m in methods for c in m.constituents}
            assert all(step in edges for step in zip(path, path[1:]))
        elif kind == "too deep":
            assert message == (f"grammar too deep: {min(labels)!r} heads a chain of {longest} method steps, "
                               f"more than the limit of {depth}")
        else:
            named = re.fullmatch(r"complex action '(\w+)' is reachable from a goal but has no method", message)
            assert named and named[1] in labels
    counts = {kind: faults.count(kind) for kind in (None, "cyclic", "too deep", "no method")}
    assert min(counts.values()) >= 200, counts


GRAMMARS_WITH_TWO_FAULTS = {
    "two-cycles": {"basic": ["a"], "complex": ["g", "p", "q", "r", "s"], "goals": ["g"], "methods": [
        {"id": "mg", "head": "g", "children": ["a"]},
        {"id": "mp", "head": "p", "children": ["q"]}, {"id": "mq", "head": "q", "children": ["p"]},
        {"id": "mr", "head": "r", "children": ["s"]}, {"id": "ms", "head": "s", "children": ["r"]}]},
    "two-method-less": {"basic": ["a"], "complex": ["g", "p", "q", "r", "s"], "goals": ["g"], "methods": [
        {"id": "mg", "head": "g", "children": ["p", "q", "r", "s"]},
        {"id": "mq", "head": "q", "children": ["a"]}, {"id": "ms", "head": "s", "children": ["a"]}]},
}


@pytest.mark.parametrize("name", GRAMMARS_WITH_TWO_FAULTS)
def test_grammar_fault_message_does_not_depend_on_the_hash_seed(name):
    script = (
        "import sys\n"
        "from planprobe.library import parse_library\n"
        "try:\n"
        "    parse_library(sys.stdin.read())\n"
        "except Exception as e:\n"
        "    print(e)\n"
    )
    src = str(Path(planprobe.__file__).resolve().parents[1])
    messages = {
        subprocess.run(
            [sys.executable, "-c", script], input=json.dumps(GRAMMARS_WITH_TWO_FAULTS[name]),
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    }
    assert len(messages) == 1
    (message,) = messages
    assert message.startswith("cyclic grammar: " if name == "two-cycles" else "complex action ")


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"complex": [], "goals": [], "methods": []}',
        '{"basic": "a", "complex": [], "goals": [], "methods": []}',
        '{"basic": ["a"], "complex": ["g"], "goals": ["g"], "methods": [{"id": "m", "head": "g"}]}',
        '{"basic": ["a"], "complex": ["g"], "goals": ["g"], "methods": [{"id": "m", "head": "g", "children": []}]}',
        '{"basic": ["a"], "complex": ["g"], "goals": ["g"], "methods": [{"id": "m", "head": "g", "children": ["a"], "order": [[0]]}]}',
        '{"basic": [""], "complex": ["g"], "goals": ["g"], "methods": []}',
    ],
)
def test_malformed_documents(text):
    with pytest.raises(LibrarySyntaxError):
        parse_library(text)


def test_priors_respected_and_serialized():
    doc = json.loads(MINIMAL_TEXT)
    doc["complex"].append("h")
    doc["goals"] = ["g", "h"]
    doc["methods"].append({"id": "mh", "head": "h", "children": ["a"]})
    doc["goal_priors"] = {"g": 0.25, "h": 0.75}
    lib = parse_library(json.dumps(doc))
    assert lib.goal_priors == {"g": 0.25, "h": 0.75}
    assert parse_library(serialize_library(lib)) == lib


def test_default_priors_uniform():
    doc = json.loads(MINIMAL_TEXT)
    doc["complex"].append("h")
    doc["goals"] = ["g", "h"]
    doc["methods"].append({"id": "mh", "head": "h", "children": ["a"]})
    lib = parse_library(json.dumps(doc))
    assert lib.goal_priors == {"g": 0.5, "h": 0.5}


def test_basic_complex_overlap_rejected():
    with pytest.raises(LibraryValidationError):
        PlanLibrary(
            basic=frozenset({"a"}),
            complex_actions=frozenset({"a", "g"}),
            methods=(RefinementMethod("m", "g", ("a",)),),
            goals=("g",),
        )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RefinementMethod("", "g", ("a",)), "method id must be non-empty"),
        (lambda: RefinementMethod("m", "g", ()), "method 'm' has no constituents"),
        (lambda: PlanLibrary(basic=frozenset({""}), complex_actions=frozenset({"g"}),
                             methods=(RefinementMethod("m", "g", ("",)),), goals=("g",)),
         "action name must be a non-empty string, got ''"),
    ],
    ids=["empty-method-id", "no-constituents", "empty-action-name"],
)
def test_constructor_rejections(build, message):
    with pytest.raises(LibraryValidationError, match=f"^{re.escape(message)}$"):
        build()
