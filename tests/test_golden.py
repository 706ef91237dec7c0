"""Byte-identity gate: a fixed experiment and fixed `sprp` and `recognize`
runs must write exactly the bytes they wrote before.

The digests below were recorded by running this module against the engine
that still computed every survivor list and plan score by scanning hypothesis
lists (with the global relation caches), under CPython 3.11.7, before the
per-loop relation table replaced it. Any change to a policy choice, a query
count, a weight or its formatting moves a digest. To re-record after an
intended output change, run this module and copy the digests from the
failure messages.

The `recognize` digests were recorded the same way, on the recognizer that
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
    "rows.csv": "114ca12485a1ac4f3e9b14dbef9542d1b7ce1fc7b0d7c1e2fb6f9064dd5e486e",
    "summary.csv": "01910defbb0a8a4d74f20313a2dbcbf800d242f4926ed0ed10dc3b5806f45354",
    "decay.csv": "566d6c3105cfc3444c156a8113fbe4af9ae8734b73c55c0eb715cba1fd6fd592",
    "winrates.csv": "ceac47c308594e75f765608d1953f3ec1375e0e1330347a6ac6d0557060bd501",
}

# h0 has 42 hypotheses; entropy asks 18 questions and mpp 32, and 10
# hypotheses remain, so the final weights are pinned too.
SPRP_INSTANCE = GenParams(obs_len=5, seed=4)
SPRP_SHA256 = {
    "entropy": "b6880f75bc0b02cbc4104b5e34a8bb9cc9b949fe9781e4acd186e9939a87632e",
    "mpp": "22bba99c85e1cbc18d2444ab55a2b853f4448e8f8e95adf36308d7ff78895cef",
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
