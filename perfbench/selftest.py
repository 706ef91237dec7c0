#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny "smoke" workload (obs_len 3, five
instances, every policy).

    python3 perfbench/selftest.py

Runs run.py twice untraced and once traced and checks that every metric
named in BENCHMARK.json is reported, that no session failed, and that the
input and rows.csv digests are identical across the runs. Exits 0 on success.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selftest: run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"smoke-s1-t{trace}.json").read_text())
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    digests = set()
    for trace, section in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
        result, record = run(trace)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
        if not result["correct"] or result["failed"] or record["end_to_end"]["fail_frac"]["value"] != 0:
            problems.append(f"--trace {trace}: correct={result['correct']} failed={result['failed']}")
        digests.add((record["inputs_sha256"], record["rows_sha256"]))
    if len(digests) != 1:
        problems.append(f"digests differ across runs: {sorted(digests)}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    if not problems:
        print("selftest: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
