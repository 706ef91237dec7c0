#!/usr/bin/env python3
"""Compare benchmark records of two commits.

    python3 perfbench/compare.py --base OLD/*.json --new NEW/*.json

Each argument is a record written by run.py (.perfbench_out/<workload>-s<seed>-t<trace>.json).
Records are paired by workload, seed and trace flag. A pair whose inputs_sha256
differ was not measured on the same inputs, and the comparison is refused
(exit 2). For every metric the median over the paired records of each side is
printed with the new/base ratio. A pair whose rows_sha256 differ produced
different rows.csv bytes, which is reported and gives exit 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> dict[tuple, dict]:
    out = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        out[(record["workload"], record["seed"], record["trace"])] = record
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    keys = sorted(base.keys() & new.keys())
    if not keys:
        print("compare: no record pairs share workload, seed and trace flag", file=sys.stderr)
        return 2
    for key in keys:
        if base[key]["inputs_sha256"] != new[key]["inputs_sha256"]:
            print(f"compare: {key} inputs differ, refusing to compare", file=sys.stderr)
            return 2
    status = 0
    for key in keys:
        if base[key]["rows_sha256"] != new[key]["rows_sha256"]:
            print(f"compare: {key} rows.csv differs")
            status = 3
    groups: dict[tuple, list] = {}
    for key in keys:
        groups.setdefault((key[0], key[2]), []).append(key)
    for (workload, trace), members in sorted(groups.items()):
        section = "per_layer" if trace else "end_to_end"
        for name, entry in base[members[0]][section].items():
            b = statistics.median(base[k][section][name]["value"] for k in members)
            n = statistics.median(new[k][section][name]["value"] for k in members)
            ratio = f"{n / b:.3f}" if b else "-"
            print(f"{workload} {name} base {b:.6g} new {n:.6g} {entry['unit']} ratio {ratio} (n={len(members)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
