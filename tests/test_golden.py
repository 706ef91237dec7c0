"""Byte-identity gate: a fixed experiment and fixed `sprp` and `recognize`
runs must write exactly the bytes they wrote before.

The experiment and `sprp` digests below were recorded under CPython 3.11.7
when the query loop began to name plans up to observation marks and to close
forced answers unasked, and experiment seeds stopped being truncated: all
three change which questions are asked. The digests they replace had pinned
the output of the engine that still computed every survivor list and plan
score by scanning hypothesis lists, which the per-loop relation table
reproduced byte for byte. Any change to a policy choice, a query count, a
weight or its formatting moves a digest. To re-record after an intended
output change, run this module and copy the digests from the failure
messages.

The `recognize` digests were recorded on the recognizer that
still expanded every (hypothesis, plan) pair on its own and recomputed each
weight from the plan trees, before per-step plan memoization replaced it.
Its output prints every weight with `repr`, so the weights are pinned to the
last bit.
"""

import hashlib

import pytest

from planprobe.cli import main
from planprobe.domains import GenParams, gen_instance
from planprobe.experiment import ExperimentSpec, run_experiment, save_instance, write_all_csvs

EXPERIMENT = ExperimentSpec(obs_lens=(3, 4, 5), reps=4, seed=5)
EXPERIMENT_SHA256 = {
    "rows.csv": "05711363e5d0e18a8770caeaf47bfe9c11936608b2e82a32cb49eaedcf2e2d28",
    "summary.csv": "ade710a0d4f7c42106240bc129b32919677d0f54dc867f49034daa1e50201117",
    "decay.csv": "881eea9299903ad0a69ca511ab2557bded3ee55592f83efa4249093bb62195fa",
    "winrates.csv": "5f325597a96705ebcdefb2a5564e1d5ceab7db85f798376a6c674b2fcea66f26",
}

# h0 has 42 hypotheses; entropy asks 4 questions and mpp 6, and 10
# hypotheses remain, so the final weights are pinned too. Both traces close
# plans unasked, so the settled counts are pinned too.
SPRP_INSTANCE = GenParams(obs_len=5, seed=4)
SPRP_SHA256 = {
    "entropy": "fc74d03652121fdca08d77a41d01abfe7e8ea2e511c96b5629778e8205e328b3",
    "mpp": "07d1e3ecd19275fec686424a036610f8a3fa570a22311417c2bd3054acd2d577",
}

# h0 has 144 hypotheses (1, 4, 8, 24, 72, 144 after each observation); a cap
# of 30 binds at the last two observations, so the cap sort is pinned too.
RECOGNIZE_INSTANCE = GenParams(obs_len=6, seed=1)
RECOGNIZE_SHA256 = {
    None: "125238c8d7207d4a642718893bb74edda9e8d3f6d49f66d384fb1b0773f85142",
    30: "ab7d8f9bdb36c2230c563076b98f20170006e6667f905737ab97f51633a4d030",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_experiment_csvs_byte_identical(tmp_path):
    result = run_experiment(EXPERIMENT)
    assert not result.failures, result.failures
    write_all_csvs(result, tmp_path)
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in EXPERIMENT_SHA256}
    assert got == EXPERIMENT_SHA256


@pytest.mark.parametrize("policy", sorted(SPRP_SHA256))
def test_sprp_trace_byte_identical(policy, tmp_path, capsys):
    save_instance(gen_instance(SPRP_INSTANCE), tmp_path, "golden")
    code = main([
        "sprp",
        "--library", str(tmp_path / "golden.library.json"),
        "--obs", str(tmp_path / "golden.obs.txt"),
        "--truth", str(tmp_path / "golden.truth.json"),
        "--policy", policy,
        "--seed", "3",
        "--verify",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode()) == SPRP_SHA256[policy]


@pytest.mark.parametrize("cap", sorted(RECOGNIZE_SHA256, key=lambda c: c or 0))
def test_recognize_output_byte_identical(cap, tmp_path, capsys):
    save_instance(gen_instance(RECOGNIZE_INSTANCE), tmp_path, "golden")
    argv = [
        "recognize",
        "--library", str(tmp_path / "golden.library.json"),
        "--obs", str(tmp_path / "golden.obs.txt"),
    ]
    if cap is not None:
        argv += ["--max-hypotheses", str(cap)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode()) == RECOGNIZE_SHA256[cap]
