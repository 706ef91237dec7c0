import codecs
import collections
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import planprobe
from planprobe import cli
from planprobe.cli import main
from planprobe.domains import GenParams, gen_instance
from planprobe.engine import run_query_loop
from planprobe.experiment import DEFAULT_OBS_LENS, ExperimentSpec, run_experiment, save_instance, write_all_csvs
from planprobe.library import MAX_GRAMMAR_DEPTH, parse_library, serialize_library
from planprobe.plans import hypothesis_to_dict
from planprobe.policies import POLICY_KINDS, Policy
from planprobe.recognizer import recognize

from .test_experiment import ZERO_WEIGHT, break_instance_file, save_zero_branch_instance, save_zero_prior_instances
from .test_library import chain_library_doc, long_order_library_doc


@pytest.fixture
def chem_files(tmp_path, chem):
    inst = chem["pairwise_first_mix"]
    lib = tmp_path / "chem.library.json"
    lib.write_text(serialize_library(inst.library))
    obs = tmp_path / "chem.obs.txt"
    obs.write_text("mix_AB\n")
    truth = tmp_path / "chem.truth.json"
    truth.write_text(json.dumps(hypothesis_to_dict(inst.truth, include_weight=False)))
    return lib, obs, truth


def test_recognize_chemistry(chem_files, capsys):
    lib, obs, _ = chem_files
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hypothesis_count"] == 2
    assert report["observation_count"] == 1
    assert not report["truncated"]
    assert sum(h["weight"] for h in report["hypotheses"]) == pytest.approx(1.0)


def test_recognize_minimal(tmp_path, minimal_lib, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(serialize_library(minimal_lib))
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hypothesis_count"] == 1
    assert report["hypotheses"][0]["weight"] == pytest.approx(1.0)


def test_recognize_with_cap_reports_truncation(chem_files, capsys):
    lib, obs, _ = chem_files
    assert main(["recognize", "--library", str(lib), "--obs", str(obs),
                 "--max-hypotheses", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hypothesis_count"] == 1
    assert report["truncated"] is True


def test_recognize_unknown_action_exits_2(chem_files, tmp_path, capsys):
    lib, _, _ = chem_files
    obs = tmp_path / "bad.obs.txt"
    obs.write_text("mix_AB\nmix_XY\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 2
    assert "observation 1" in capsys.readouterr().err


def test_unexplainable_after_cap_says_the_cap_dropped_hypotheses(tmp_path, capsys):
    save_instance(gen_instance(GenParams(obs_len=8, seed=7807)), tmp_path, "i")
    args = ["recognize", "--library", str(tmp_path / "i.library.json"), "--obs", str(tmp_path / "i.obs.txt")]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["observation_count"] == 8
    assert main(args + ["--max-hypotheses", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "observation 5 ('b1') cannot be explained by any hypothesis" in err
    assert "cap dropped hypotheses" in err


def _chain_files(tmp_path, depth):
    doc = chain_library_doc(depth)
    lib = tmp_path / "chain.library.json"
    lib.write_text(json.dumps(doc))
    obs = tmp_path / "chain.obs.txt"
    obs.write_text("a\n")
    return lib, obs


@pytest.mark.parametrize("content,reason", [(None, "No such file or directory"),
                                            (b"\xff", "not UTF-8 text (invalid start byte)")],
                         ids=["missing", "not-utf8"])
def test_unreadable_library_exits_1_naming_the_file(tmp_path, capsys, content, reason):
    lib = tmp_path / "x.library.json"
    if content is not None:
        lib.write_bytes(content)
    obs = tmp_path / "x.obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == f"error: {lib}: {reason}\n"


def test_too_deep_library_exits_1_with_one_line(tmp_path, capsys):
    lib, obs = _chain_files(tmp_path, 1500)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: grammar too deep: 'c0' heads a chain of 1500 method steps")


def test_library_at_depth_limit_recognizes_and_verifies(tmp_path, capsys):
    lib, obs = _chain_files(tmp_path, MAX_GRAMMAR_DEPTH)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 0
    assert json.loads(capsys.readouterr().out)["hypothesis_count"] == 1
    only = recognize(parse_library(lib.read_text()), ["a"]).hypotheses[0]
    truth = tmp_path / "chain.truth.json"
    truth.write_text(json.dumps(hypothesis_to_dict(only, include_weight=False)))
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth),
                 "--policy", "entropy", "--seed", "0", "--verify"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_long_ordering_chain_recognizes_and_cycle_exits_1_with_one_line(tmp_path, capsys):
    _, obs = _chain_files(tmp_path, 1)
    lib = tmp_path / "order.library.json"
    lib.write_text(json.dumps(long_order_library_doc(1500)))
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 0
    assert json.loads(capsys.readouterr().out)["hypothesis_count"] == 1
    lib.write_text(json.dumps(long_order_library_doc(1500, cyclic=True)))
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == "error: method 'm': cyclic ordering constraint\n"


@pytest.mark.parametrize("prior", [math.nan, math.inf])
def test_non_finite_goal_prior_exits_1_with_one_line(tmp_path, capsys, prior):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({
        "basic": ["a"], "complex": ["g", "h"], "goals": ["g", "h"],
        "goal_priors": {"g": prior, "h": 1.0},
        "methods": [{"id": "mg", "head": "g", "children": ["a"]},
                    {"id": "mh", "head": "h", "children": ["a"]}],
    }))
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == "error: goal prior for 'g' is not finite\n"


@pytest.mark.parametrize("priors", [0, False, "", [], None], ids=["zero", "false", "empty-string", "empty-list", "null"])
def test_falsy_non_object_goal_priors_exit_1_with_one_line(tmp_path, capsys, priors):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({
        "basic": ["a"], "complex": ["g"], "goals": ["g"], "goal_priors": priors,
        "methods": [{"id": "m", "head": "g", "children": ["a"]}],
    }))
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == "error: 'goal_priors' must be an object\n"


@pytest.mark.parametrize("change, message", [
    ({"goals": ["g", "g"]}, "duplicate goal 'g'"),
    ({"methods": [{"id": "m", "head": "g", "children": ["a"], "order": [[0, 0]]}]},
     "method 'm': cyclic ordering constraint (pair (0, 0))"),
], ids=["duplicate-goal", "self-ordered-constituent"])
def test_library_rule_broken_in_the_file_exits_1_with_one_line(tmp_path, capsys, change, message):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"basic": ["a"], "complex": ["g"], "goals": ["g"],
                               "methods": [{"id": "m", "head": "g", "children": ["a"]}], **change}))
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _malformed(kind: str, library: dict, truth: dict, action: str) -> tuple[str, dict]:
    """The file ("library" or "truth") and its contents for one malformed
    record: a truth file with a bad field, or a 401-digit goal prior."""
    goal = truth["plans"][0]
    bad = {
        "weight-list": ("truth", dict(truth, weight=[1])),
        "weight-huge": ("truth", dict(truth, weight=10 ** 400)),
        "children-int": ("truth", {"plans": [dict(goal, children=5)]}),
        "observed-str": ("truth", {"plans": [{"label": action, "observed": "x"}]}),
        "plans-int": ("truth", {"plans": 5}),
        "prior-huge": ("library", dict(library, goal_priors={g: 10 ** 400 for g in library["goals"][:1]})),
    }
    return bad[kind]


@pytest.mark.parametrize(
    "kind", ["weight-list", "weight-huge", "children-int", "observed-str", "plans-int", "prior-huge"]
)
def test_malformed_record_exits_1_with_one_line(tmp_path, capsys, kind):
    save_instance(gen_instance(GenParams(obs_len=5, seed=4)), tmp_path, "i")
    paths = {name: tmp_path / f"i.{name}.json" for name in ("library", "truth")}
    docs = {name: json.loads(path.read_text()) for name, path in paths.items()}
    obs = tmp_path / "i.obs.txt"
    name, doc = _malformed(kind, docs["library"], docs["truth"], obs.read_text().split()[0])
    paths[name].write_text(json.dumps(doc))
    args = ["--library", str(paths["library"]), "--obs", str(obs)]
    command = ["recognize", *args] if name == "library" else ["sprp", *args, "--truth", str(paths["truth"])]
    assert main(command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _nested_truth(levels: int) -> str:
    """A truth file whose one plan is nested `levels` deep, c0 -> c1 -> ...,
    written as text because json.dumps cannot encode it."""
    head = "".join(f'{{"label": "c{i}", "method": "m{i}", "children": [' for i in range(levels))
    return '{"plans": [' + head + '{"label": "a", "observed": 0}' + "]}" * levels + "]}"


def test_deeply_nested_truth_file_exits_1_with_one_line(tmp_path, capsys):
    lib, obs = _chain_files(tmp_path, MAX_GRAMMAR_DEPTH)
    truth = tmp_path / "deep.truth.json"
    truth.write_text(_nested_truth(600))
    assert main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)]) == 1
    assert capsys.readouterr().err == f"error: {truth}: truth file nested too deeply\n"


def test_truth_one_level_past_any_library_exits_1_as_nested_too_deeply(tmp_path, capsys):
    # Shallow enough for the JSON parser on every version, so the plan
    # decoder must report it, and with the same line as deeper files.
    lib, obs = _chain_files(tmp_path, MAX_GRAMMAR_DEPTH)
    truth = tmp_path / "deep.truth.json"
    truth.write_text(_nested_truth(MAX_GRAMMAR_DEPTH + 1))
    assert main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)]) == 1
    assert capsys.readouterr().err == f"error: {truth}: truth file nested too deeply\n"


def test_deeply_nested_library_file_exits_1_with_one_line(tmp_path, capsys):
    _, obs = _chain_files(tmp_path, 1)
    lib = tmp_path / "deep.library.json"
    # deeper than the JSON parser's own limit on every supported version:
    # CPython 3.13 parses 3,000 levels
    lib.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == "error: invalid library file: nested too deeply\n"


def test_deeply_nested_observation_list_exits_1_with_one_line(tmp_path, capsys):
    lib, _ = _chain_files(tmp_path, 1)
    obs = tmp_path / "deep.obs.json"
    obs.write_text("[" * 3000 + "]" * 3000)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == f"error: {obs}: JSON observations must be a list of strings\n"


@pytest.mark.parametrize("command", ["recognize", "sprp"])
def test_out_of_memory_exits_1_with_one_line(chem_files, monkeypatch, capsys, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("planprobe.cli.recognize", exhausted)
    lib, obs, truth = chem_files
    argv = [command, "--library", str(lib), "--obs", str(obs)]
    assert main(argv + (["--truth", str(truth)] if command == "sprp" else [])) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["recognize", "--library", str(tmp_path / "none.json"), "--obs", str(tmp_path / "x")]) == 1


def test_malformed_library_exits_1(tmp_path, capsys):
    lib = tmp_path / "broken.json"
    lib.write_text("{not json")
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert "error" in capsys.readouterr().err


def test_sprp_chemistry_one_query(chem_files, capsys):
    lib, obs, truth = chem_files
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth),
                 "--policy", "entropy", "--seed", "3", "--verify"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    assert report["trace"]["initial_size"] == 2
    assert report["trace"]["queries"] == 1
    assert report["trace"]["steps"][0]["remaining"] == 1
    assert len(report["final"]) == 1


def test_sprp_mismatched_truth_exits_1(chem_files, tmp_path, chem, capsys):
    # truth that does not describe the observations is an input error
    lib, _, _ = chem_files
    obs = tmp_path / "fourway.obs.txt"
    obs.write_text("mix_ABCD\n")
    truth = tmp_path / "pairwise.truth.json"
    truth.write_text(json.dumps(hypothesis_to_dict(chem["pairwise_first_mix"].truth, include_weight=False)))
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)])
    assert code == 1


def test_sprp_unmarked_truth_plan_exits_1(chem_files, tmp_path, chem, capsys):
    # recognition starts every plan from an observation, so no hypothesis
    # can be refined to a truth whose second plan holds none: an input error
    lib, obs, _ = chem_files
    pairwise = chem["pairwise_first_mix"].truth.plans[0]
    fourway_unmarked = json.loads(
        json.dumps(hypothesis_to_dict(chem["fourway_all_mix"].truth, include_weight=False))
    )["plans"][0]
    _drop_marks(fourway_unmarked)
    doc = hypothesis_to_dict(chem["pairwise_first_mix"].truth, include_weight=False)
    doc["plans"].append(fourway_unmarked)
    truth = tmp_path / "twoplan.truth.json"
    truth.write_text(json.dumps(doc))
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)])
    assert code == 1
    goal = fourway_unmarked["label"]
    assert capsys.readouterr().err == f"error: plan of goal {goal!r} holds no observation\n"


# g -> a c, c -> b: the truth plans below each break one rule of this
# library, every one observing "a" at index 0 unless the rule is the mark
TWO_LEVEL_LIBRARY = {"basic": ["a", "b"], "complex": ["g", "c"], "goals": ["g"],
                     "methods": [{"id": "mg", "head": "g", "children": ["a", "c"]},
                                 {"id": "mc", "head": "c", "children": ["b"]}]}
C_DONE = {"label": "c", "method": "mc", "children": [{"label": "b"}]}
A_SEEN = {"label": "a", "observed": 0}


@pytest.mark.parametrize("plan, message", [
    ({"label": "g", "method": "mg"}, "node 'g': children present iff a method was applied"),
    ({"label": "zz", "observed": 0}, "undeclared action 'zz' at ()"),
    ({"label": "g", "method": "mg", "children": [{"label": "a", "method": "mc", "children": [{"label": "b"}]},
                                                 C_DONE]},
     "basic action 'a' at (0,) cannot be expanded"),
    ({"label": "g", "method": "mc", "children": [{"label": "b", "observed": 0}]},
     "method 'mc' at () does not expand 'g'"),
    ({"label": "g", "method": "mg", "children": [A_SEEN, {"label": "c", "observed": 1}]},
     "observation mark on complex node 'c' at (1,)"),
    ({"label": "g", "method": "mg", "children": [{"label": "a", "observed": -1}, C_DONE]},
     "negative observation index at (0,)"),
    ({"label": "g", "method": "mg", "children": [A_SEEN, {"label": "c"}]},
     "truth plan rooted at 'g' is incomplete"),
], ids=["method-without-children", "undeclared", "expanded-basic", "other-head",
        "marked-complex-leaf", "negative-index", "incomplete"])
def test_sprp_truth_breaking_the_library_exits_1_with_one_line(tmp_path, capsys, plan, message):
    lib = tmp_path / "two.library.json"
    lib.write_text(json.dumps(TWO_LEVEL_LIBRARY))
    obs = tmp_path / "two.obs.txt"
    obs.write_text("a\n")
    truth = tmp_path / "two.truth.json"
    truth.write_text(json.dumps({"plans": [plan]}))
    assert main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_sprp_inconsistent_truth_exits_3(tmp_path, capsys):
    # the truth marks both observations and describes them, but under method
    # m, whose order puts a first; recognition explains "b a" only by m2, so
    # no hypothesis can be refined to the truth and the oracle premise fails
    methods = [{"id": "m", "head": "g", "children": ["a", "b"], "order": [[0, 1]]},
               {"id": "m2", "head": "g", "children": ["b", "a"], "order": [[0, 1]]}]
    lib = tmp_path / "ordered.library.json"
    lib.write_text(json.dumps({"basic": ["a", "b"], "complex": ["g"], "goals": ["g"], "methods": methods}))
    obs = tmp_path / "ordered.obs.txt"
    obs.write_text("b\na\n")
    plan = {"label": "g", "method": "m",
            "children": [{"label": "a", "observed": 1}, {"label": "b", "observed": 0}]}
    truth = tmp_path / "ordered.truth.json"
    truth.write_text(json.dumps({"plans": [plan]}))
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth)])
    assert code == 3
    assert capsys.readouterr().err == "error: no hypothesis can be refined to the oracle's truth\n"


def test_sprp_verify_mismatch_exits_3(chem_files, monkeypatch, capsys):
    # a loop that prunes nothing leaves both chemistry hypotheses, while the
    # exhaustive filter keeps only the one that refines to the truth
    def unpruned(h0, oracle, policy):
        return h0, run_query_loop(h0, oracle, policy)[1]

    monkeypatch.setattr("planprobe.cli.run_query_loop", unpruned)
    lib, obs, truth = chem_files
    code = main(["sprp", "--library", str(lib), "--obs", str(obs), "--truth", str(truth), "--verify"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "verification failed: final set differs from exhaustive filter\n"
    report = json.loads(captured.out)
    assert report["verified"] is False
    assert len(report["final"]) == 2


def _drop_marks(doc):
    doc.pop("observed", None)
    for child in doc.get("children", []):
        _drop_marks(child)


def test_experiment_verify_mismatch_names_each_policy_and_writes_its_row(tmp_path, chem, monkeypatch, capsys):
    # a loop that prunes nothing leaves both chemistry hypotheses, while the
    # exhaustive filter keeps only the one that refines to the truth
    def unpruned(h0, oracle, policy):
        return h0, run_query_loop(h0, oracle, policy)[1]

    monkeypatch.setattr("planprobe.experiment.run_query_loop", unpruned)
    save_instance(chem["pairwise_first_mix"], tmp_path / "batch", "chem")
    out = tmp_path / "exp"
    assert main(["experiment", "--out", str(out), "--instances", str(tmp_path / "batch"), "--verify"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"failure: chem/{kind}: final set disagrees with exhaustive filter" for kind in POLICY_KINDS]
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["chem", kind] for kind in sorted(POLICY_KINDS)]


def test_gen_writes_instances(tmp_path, capsys):
    out = tmp_path / "batch"
    code = main(["gen", "--out", str(out), "--count", "3", "--obs-len", "4", "--seed", "5"])
    assert code == 0
    assert len(list(out.glob("*.library.json"))) == 3
    assert len(list(out.glob("*.obs.txt"))) == 3
    assert len(list(out.glob("*.truth.json"))) == 3


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gen_count_below_one_exits_1_with_one_line(tmp_path, capsys, count):
    out = tmp_path / "batch"
    assert main(["gen", "--out", str(out), "--count", count]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: count must be >= 1\n")
    assert not out.exists()


def test_gen_branching_above_3_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["gen", "--out", str(out), "--branching", "4"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: branching must be between 1 and 3\n")
    assert not out.exists()


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_experiment_timeout_not_finite_and_positive_exits_1_with_one_line(tmp_path, capsys, timeout):
    out = tmp_path / "exp"
    assert main(["experiment", "--out", str(out), "--obs-len", "3", "--reps", "2", "--timeout", timeout]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: timeout must be finite and > 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--policy", "random", "--policy", "random", "--policy", "mph"], "policy 'random' is repeated"),
    (["--obs-len", "4", "--obs-len", "3"], "obs length 3 is repeated"),
])
def test_experiment_repeated_policy_or_obs_len_exits_1_with_one_line(tmp_path, capsys, flags, message):
    # a repeated flag would run each instance twice and write duplicate rows
    out = tmp_path / "exp"
    assert main(["experiment", "--out", str(out), "--obs-len", "3", "--reps", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_experiment_reps_below_one_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["experiment", "--out", str(out), "--reps", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: reps must be >= 1\n")
    assert not out.exists()


def test_experiment_out_that_is_a_file_exits_1_before_the_batch_runs(tmp_path, monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("the batch ran before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    out = tmp_path / "exp"
    out.write_text("")
    assert main(["experiment", "--out", str(out), "--obs-len", "3", "--reps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("out, flags", [
    ("made/exp", ["--instances", "missing"]),
    ("made/exp", ["--instances", "empty"]),
    ("made/exp", ["--obs-len", "0", "--reps", "1"]),
    ("made/exp", ["--depth", "300", "--obs-len", "3", "--reps", "1"]),  # every library draw is too ambiguous
    ("file", ["--obs-len", "3", "--reps", "1"]),
], ids=["missing-instance-dir", "empty-instance-dir", "obs-len-0", "too-ambiguous", "out-is-a-file"])
def test_experiment_that_fails_before_its_first_instance_writes_nothing(tmp_path, monkeypatch, capsys, out, flags):
    monkeypatch.chdir(tmp_path)
    Path("empty").mkdir()
    Path("file").write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(["experiment", "--out", out, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before  # neither --out nor its parent is left
    assert Path("file").read_text() == "keep\n"


def test_defaults_are_the_dataclasses_defaults(monkeypatch, capsys):
    parser = cli._build_parser()
    files = ["--library", "l", "--obs", "o"]
    assert parser.parse_args(["sprp", *files, "--truth", "t"]).seed == Policy.seed
    gen = parser.parse_args(["gen", "--out", "d"])
    assert (gen.obs_len, gen.seed) == (GenParams.obs_len, GenParams.seed)
    exp = parser.parse_args(["experiment", "--out", "d"])
    assert (exp.reps, exp.seed) == (ExperimentSpec.reps, ExperimentSpec.seed)
    for args in (gen, exp):
        assert [getattr(args, name) for name in cli._SHAPE_FIELDS] == \
            [getattr(GenParams, name) for name in cli._SHAPE_FIELDS]
    monkeypatch.setenv("COLUMNS", "200")  # one help entry per line
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "--help"])
    assert f"repeatable; default: {' '.join(map(str, DEFAULT_OBS_LENS))}\n" in capsys.readouterr().out


def test_experiment_truncated_sets_fail_each_instance_and_leave_a_header_only_csv(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "--out", str(out), "--obs-len", "6", "--reps", "3", "--seed", "1",
                 "--max-hypotheses", "5"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"failure: L6_r00{k}: hypothesis set truncated by cap; query loop skipped" for k in range(3)]
    header = "instance,policy,obs_len,h0_size,queries,remaining_series"
    assert (out / "rows.csv").read_text().splitlines() == [header]


def test_gen_says_when_no_library_passes_the_ambiguity_bound(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "batch"), "--depth", "150"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "all 60 libraries drawn were too ambiguous" in err
    assert "plans too small" not in err


def test_gen_says_plans_too_small_when_no_truth_is_long_enough(tmp_path, capsys):
    args = ["--depth", "1", "--num-goals", "1", "--num-basic", "2", "--obs-len", "50"]
    assert main(["gen", "--out", str(tmp_path / "batch"), *args]) == 1
    assert capsys.readouterr().err == \
        "error: could not generate an instance with obs_len=50 (plans too small for these parameters)\n"


SHAPE_FLAGS = ["--num-goals", "4", "--branching", "2", "--depth", "2", "--num-basic", "15",
               "--order-density", "0.3"]
SHAPE = GenParams(num_goals=4, branching=2, depth=2, num_basic=15, order_density=0.3)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_shape_flags_write_what_the_api_writes(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "gen_cli"), "--count", "2", "--obs-len", "4",
                 "--seed", "3", *SHAPE_FLAGS]) == 0
    for i in range(2):
        save_instance(gen_instance(replace(SHAPE, obs_len=4, seed=3 + i)), tmp_path / "gen_api", f"instance_{i:03d}")
    assert _files(tmp_path / "gen_cli") == _files(tmp_path / "gen_api")
    lib = parse_library((tmp_path / "gen_cli" / "instance_000.library.json").read_text())
    assert len(lib.goals) == 4 and len(lib.basic) == 15

    assert main(["experiment", "--out", str(tmp_path / "exp_cli"), "--reps", "2", "--seed", "5",
                 "--obs-len", "3", "--obs-len", "4", "--verify", *SHAPE_FLAGS]) == 0
    result = run_experiment(ExperimentSpec(obs_lens=(3, 4), reps=2, seed=5, gen=SHAPE, verify=True))
    write_all_csvs(result, tmp_path / "exp_api")
    assert _files(tmp_path / "exp_cli") == _files(tmp_path / "exp_api")
    assert run_experiment(ExperimentSpec(obs_lens=(3, 4), reps=2, seed=5)).rows != result.rows


def test_experiment_generated(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main([
        "experiment", "--out", str(out), "--reps", "2", "--seed", "4",
        "--obs-len", "3", "--policy", "random", "--policy", "entropy", "--verify",
    ])
    assert code == 0
    for name in ("rows.csv", "summary.csv", "decay.csv", "winrates.csv"):
        assert (out / name).exists()


def test_experiment_from_instance_dir(tmp_path, capsys):
    batch = tmp_path / "batch"
    for i in range(2):
        save_instance(gen_instance(GenParams(seed=i, obs_len=3)), batch, f"instance_{i:03d}")
    out = tmp_path / "exp"
    code = main(["experiment", "--out", str(out), "--instances", str(batch),
                 "--policy", "mph", "--seed", "1"])
    assert code == 0
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2  # header + one row per instance


@pytest.mark.parametrize("stem", ["zero_loop", "zero_recognize"])
def test_zero_total_weight_exits_1_with_one_line(tmp_path, capsys, stem):
    save_zero_prior_instances(tmp_path)
    code = main(["sprp", "--library", str(tmp_path / f"{stem}.library.json"),
                 "--obs", str(tmp_path / f"{stem}.obs.txt"), "--truth", str(tmp_path / f"{stem}.truth.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {ZERO_WEIGHT}\n"


def test_experiment_names_a_zero_weight_instance_and_writes_the_rest(tmp_path, capsys):
    batch = tmp_path / "batch"
    save_zero_prior_instances(batch)
    save_instance(gen_instance(GenParams(seed=1, obs_len=3)), batch, "good")
    out = tmp_path / "exp"
    code = main(["experiment", "--out", str(out), "--instances", str(batch), "--policy", "mph", "--verify"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"failure: zero_loop: {ZERO_WEIGHT}", f"failure: zero_recognize: {ZERO_WEIGHT}"]
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["good", "mph"]]


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_a_branch_of_zero_weight_verifies_under_every_policy(tmp_path, capsys, policy):
    stem = save_zero_branch_instance(tmp_path)
    code = main(["sprp", "--library", str(tmp_path / f"{stem}.library.json"),
                 "--obs", str(tmp_path / f"{stem}.obs.txt"), "--truth", str(tmp_path / f"{stem}.truth.json"),
                 "--policy", policy, "--verify"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_experiment_writes_the_rows_of_an_instance_with_a_zero_weight_branch(tmp_path):
    stem = save_zero_branch_instance(tmp_path / "batch")
    out = tmp_path / "exp"
    assert main(["experiment", "--out", str(out), "--instances", str(tmp_path / "batch"), "--verify"]) == 0
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert sorted(row.split(",")[:2] for row in rows[1:]) == sorted([stem, kind] for kind in POLICY_KINDS)


@pytest.mark.parametrize("case", ["obs-not-observed", "truth-not-json"])
def test_experiment_names_a_bad_instance_file_and_writes_the_rest(tmp_path, capsys, case):
    batch = tmp_path / "batch"
    assert main(["gen", "--out", str(batch), "--count", "3", "--obs-len", "4", "--seed", "7"]) == 0
    failure = break_instance_file(batch, case)
    out = tmp_path / "exp"
    code = main(["experiment", "--out", str(out), "--instances", str(batch), "--policy", "mph"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"failure: {failure}"]
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["instance_000", "mph"], ["instance_002", "mph"]]


# With coercion and UTF-8 mode both off, Python keeps the C locale, whose
# preferred encoding is ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0"}


def _run_python(args, ascii_locale=False, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(Path(planprobe.__file__).resolve().parents[1])}
    flags = []
    if ascii_locale:
        env.update(ASCII_LOCALE)  # LC_ALL overrides every other locale variable
        flags = ["-X", "utf8=0"]  # and this overrides PYTHONUTF8
    return subprocess.run([sys.executable, *flags, *args], env=env, stdout=stdout, stderr=subprocess.PIPE)


def _save_melange_instance(directory, stem):
    """One goal over two actions, the first named with a non-ASCII letter,
    written as raw UTF-8 rather than JSON escapes."""
    lib = {"basic": ["m\u00e9lange", "b"], "complex": ["g"], "goals": ["g"],
           "methods": [{"id": "m", "head": "g", "children": ["m\u00e9lange", "b"]}]}
    leaves = [{"label": "m\u00e9lange", "observed": 0}, {"label": "b"}]
    truth = {"plans": [{"label": "g", "method": "m", "children": leaves}]}
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{stem}.library.json").write_text(json.dumps(lib, ensure_ascii=False), encoding="utf-8")
    (directory / f"{stem}.obs.txt").write_text("m\u00e9lange\n", encoding="utf-8")
    (directory / f"{stem}.truth.json").write_text(json.dumps(truth, ensure_ascii=False), encoding="utf-8")


@pytest.fixture
def ascii_locale():
    done = _run_python(["-c", "import locale; print(locale.getpreferredencoding(False))"], ascii_locale=True)
    encoding = done.stdout.decode().strip()
    assert codecs.lookup(encoding).name != "utf-8", encoding


def test_recognize_reads_utf8_files_under_an_ascii_locale(tmp_path, ascii_locale):
    _save_melange_instance(tmp_path, "x")
    args = ["-m", "planprobe.cli", "recognize",
            "--library", str(tmp_path / "x.library.json"), "--obs", str(tmp_path / "x.obs.txt")]
    default = _run_python(args)
    assert default.returncode == 0, default.stderr
    done = _run_python(args, ascii_locale=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == default.stdout


def test_leading_byte_order_mark_is_read_as_utf8(tmp_path, capsys):
    save_instance(gen_instance(GenParams(seed=5, obs_len=4)), tmp_path / "plain", "i")
    (tmp_path / "bom").mkdir()
    for name in ("i.library.json", "i.obs.txt", "i.truth.json"):
        (tmp_path / "bom" / name).write_bytes(codecs.BOM_UTF8 + (tmp_path / "plain" / name).read_bytes())
    outputs = []
    for d in (tmp_path / "plain", tmp_path / "bom"):
        files = ["--library", str(d / "i.library.json"), "--obs", str(d / "i.obs.txt")]
        for argv in (["recognize", *files], ["sprp", *files, "--truth", str(d / "i.truth.json"), "--verify"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[2:] == outputs[:2]


def test_experiment_writes_utf8_csvs_under_an_ascii_locale(tmp_path, ascii_locale):
    stem = "m\u00e9lange_000"
    _save_melange_instance(tmp_path / "batch", stem)
    out = tmp_path / "exp"
    done = _run_python(["-m", "planprobe.cli", "experiment", "--instances", str(tmp_path / "batch"),
                        "--out", str(out)], ascii_locale=True)
    assert done.returncode == 0, done.stderr
    rows = (out / "rows.csv").read_bytes().decode("utf-8").splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [[stem, p] for p in sorted(POLICY_KINDS)]
    default = _run_python(["-m", "planprobe.cli", "experiment", "--instances", str(tmp_path / "batch"),
                           "--out", str(tmp_path / "exp_default")])
    assert default.returncode == 0, default.stderr
    assert (tmp_path / "exp_default" / "rows.csv").read_bytes() == (out / "rows.csv").read_bytes()


@pytest.mark.parametrize("ascii", [False, True], ids=["default-locale", "ascii-locale"])
def test_experiment_fails_alone_an_instance_whose_file_name_is_not_utf8(tmp_path, ascii_locale, ascii):
    batch = tmp_path / "batch"
    save_instance(gen_instance(GenParams(seed=1, obs_len=3)), batch, "instance_001")
    save_instance(gen_instance(GenParams(seed=2, obs_len=3)), batch, "x")
    for suffix in (b".library.json", b".obs.txt", b".truth.json"):
        os.rename(os.path.join(os.fsencode(batch), b"x" + suffix),
                  os.path.join(os.fsencode(batch), b"m\xe9lange_000" + suffix))
    out = tmp_path / "exp"
    done = _run_python(["-m", "planprobe.cli", "experiment", "--instances", str(batch), "--out", str(out),
                        "--policy", "mph"], ascii_locale=ascii)
    assert done.returncode == 1
    assert done.stderr == b"failure: m\\xe9lange_000: file name m\\xe9lange_000.library.json is not UTF-8\n"
    rows = (out / "rows.csv").read_text(encoding="utf-8").strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["instance_001", "mph"]]


@pytest.mark.parametrize("command", ["recognize", "sprp"])
def test_closed_stdout_exits_141_without_a_word(chem_files, command):
    lib, obs, truth = chem_files
    args = ["-m", "planprobe.cli", command, "--library", str(lib), "--obs", str(obs)]
    if command == "sprp":
        args += ["--truth", str(truth)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        done = _run_python(args, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["sprp", "--library", "x"])  # missing required arguments


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["sprp", "--library", "a", "--obs", "b", "--truth", "c", "--policy", "greedy"])


def _json_paths(doc, path=()):
    """The path of every value under doc, doc itself excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutate_json(text, rng):
    """text with one value deleted, or two values (neither inside the other)
    swapped."""
    doc = json.loads(text)
    paths = list(_json_paths(doc))

    def parent(path):
        node = doc
        for key in path[:-1]:
            node = node[key]
        return node

    a = rng.choice(paths)
    others = [b for b in paths if a[: len(b)] != b and b[: len(a)] != a]
    if others and rng.random() < 0.5:
        b = rng.choice(others)
        pa, pb = parent(a), parent(b)
        pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
    else:
        del parent(a)[a[-1]]
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["sprp", "recognize"])
def test_mutated_instance_files_exit_with_a_documented_code_and_one_line(tmp_path, capsys, command):
    # Any input either succeeds or fails with a documented exit code and a
    # one-line message: one JSON value of the library or truth swapped or
    # deleted, or one observation replaced, never ends in a traceback.
    save_instance(gen_instance(GenParams(obs_len=4, seed=3)), tmp_path, "good")
    files = {suffix: (tmp_path / f"good.{suffix}").read_text() for suffix in ("library.json", "truth.json", "obs.txt")}
    lib = json.loads(files["library.json"])
    names = lib["basic"] + lib["complex"] + ["not_an_action"]
    suffixes = ["library.json", "obs.txt"] + (["truth.json"] if command == "sprp" else [])
    rng = random.Random(f"mutate:{command}")
    codes = collections.Counter()
    for case in range(300):
        mutated = dict(files)
        suffix = rng.choice(suffixes)
        if suffix == "obs.txt":
            observations = files[suffix].split()
            observations[rng.randrange(len(observations))] = rng.choice(names)
            mutated[suffix] = "".join(f"{o}\n" for o in observations)
        else:
            mutated[suffix] = _mutate_json(files[suffix], rng)
        for name, text in mutated.items():
            (tmp_path / f"case.{name}").write_text(text)
        args = [command, "--library", str(tmp_path / "case.library.json"), "--obs", str(tmp_path / "case.obs.txt")]
        if command == "sprp":
            args += ["--truth", str(tmp_path / "case.truth.json"), "--verify"]
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (case, suffix, mutated[suffix], err)
        assert err.count("\n") <= 1, (case, suffix, mutated[suffix], err)
        codes[code] += 1
    # the mutations reach both success and failure
    assert codes[0] and codes[1], codes
