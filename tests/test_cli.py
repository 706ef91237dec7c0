import json
import math
from dataclasses import replace

import pytest

from planprobe.cli import main
from planprobe.domains import GenParams, gen_instance
from planprobe.experiment import ExperimentSpec, run_experiment, save_instance, write_all_csvs
from planprobe.library import MAX_GRAMMAR_DEPTH, parse_library, serialize_library
from planprobe.plans import hypothesis_to_dict
from planprobe.recognizer import recognize

from .test_experiment import ZERO_WEIGHT, break_instance_file, save_zero_prior_instances
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


def test_deeply_nested_library_file_exits_1_with_one_line(tmp_path, capsys):
    _, obs = _chain_files(tmp_path, 1)
    lib = tmp_path / "deep.library.json"
    lib.write_text("[" * 3000 + "]" * 3000)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == "error: invalid library file: nested too deeply\n"


def test_deeply_nested_observation_list_exits_1_with_one_line(tmp_path, capsys):
    lib, _ = _chain_files(tmp_path, 1)
    obs = tmp_path / "deep.obs.json"
    obs.write_text("[" * 3000 + "]" * 3000)
    assert main(["recognize", "--library", str(lib), "--obs", str(obs)]) == 1
    assert capsys.readouterr().err == f"error: {obs}: JSON observations must be a list of strings\n"


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


def test_sprp_inconsistent_truth_exits_3(chem_files, tmp_path, chem, capsys):
    # a two-plan truth describes the single observation but no single-plan
    # hypothesis can be refined to it, so the oracle premise fails
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
    assert code == 3


def _drop_marks(doc):
    doc.pop("observed", None)
    for child in doc.get("children", []):
        _drop_marks(child)


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


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["sprp", "--library", "x"])  # missing required arguments


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["sprp", "--library", "a", "--obs", "b", "--truth", "c", "--policy", "greedy"])
