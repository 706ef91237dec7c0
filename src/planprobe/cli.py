"""Command-line front end.

Subcommands:
    recognize    parse observations against a library and report hypotheses
    sprp         run the sequential query-and-prune loop against a truth file
    gen          write synthetic instance files
    experiment   batch policy comparison, CSV output

Exit codes: 0 ok, 1 input error, 2 unexplainable observation,
3 inconsistent oracle (or a verified-equality failure), 141 stdout closed
by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .domains import GenParams, gen_instance
from .engine import QueryOracle, run_query_loop
from .errors import (
    OracleInconsistencyError,
    PlanProbeError,
    UnexplainableObservationError,
)
from .experiment import (
    DEFAULT_OBS_LENS,
    ExperimentSpec,
    brute_force_final_set,
    load_instance,
    load_observations,
    read_text,
    run_experiment,
    save_instance,
    write_all_csvs,
)
from .library import parse_library
from .plans import hypothesis_key, hypothesis_to_dict
from .policies import POLICY_KINDS, Policy
from .recognizer import RecognizerConfig, recognize


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for unexplainable
    # observations here, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


# the GenParams fields set by the library-shape flags of gen and experiment
_SHAPE_FIELDS = ("num_goals", "branching", "depth", "num_basic", "order_density")


def _gen_params(args, **fields) -> GenParams:
    """GenParams from the library-shape flags in args, plus the given fields."""
    return GenParams(**{name: getattr(args, name) for name in _SHAPE_FIELDS}, **fields)


def _build_parser() -> _Parser:
    parser = _Parser(prog="planprobe", description="Plan recognition with query-driven pruning")
    sub = parser.add_subparsers(dest="command", required=True)
    shape = argparse.ArgumentParser(add_help=False)
    for name in _SHAPE_FIELDS:
        default = getattr(GenParams, name)
        shape.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)

    p_rec = sub.add_parser("recognize", help="report hypotheses for an observation file")
    p_rec.add_argument("--library", required=True, type=Path)
    p_rec.add_argument("--obs", required=True, type=Path)
    p_rec.add_argument("--max-hypotheses", type=int, default=None)

    p_sprp = sub.add_parser("sprp", help="query loop: recognize, then prune via oracle queries")
    p_sprp.add_argument("--library", required=True, type=Path)
    p_sprp.add_argument("--obs", required=True, type=Path)
    p_sprp.add_argument("--truth", required=True, type=Path)
    p_sprp.add_argument("--policy", choices=POLICY_KINDS, default="entropy")
    p_sprp.add_argument("--seed", type=int, default=Policy.seed)
    p_sprp.add_argument("--verify", action="store_true",
                        help="check the final set equals the exhaustive refinement filter")

    p_gen = sub.add_parser("gen", parents=[shape], help="write synthetic instance files")
    p_gen.add_argument("--out", required=True, type=Path)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--obs-len", type=int, default=GenParams.obs_len)
    p_gen.add_argument("--seed", type=int, default=GenParams.seed)

    p_exp = sub.add_parser("experiment", parents=[shape], help="batch policy comparison, writes CSV files")
    p_exp.add_argument("--out", required=True, type=Path)
    p_exp.add_argument("--policy", action="append", choices=POLICY_KINDS, default=None,
                       help="repeatable; default: all policies")
    p_exp.add_argument("--obs-len", action="append", type=int, default=None,
                       help=f"repeatable; default: {' '.join(map(str, DEFAULT_OBS_LENS))}")
    p_exp.add_argument("--reps", type=int, default=ExperimentSpec.reps)
    p_exp.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    p_exp.add_argument("--instances", type=Path, default=None,
                       help="directory of instance files instead of generated ones")
    p_exp.add_argument("--max-hypotheses", type=int, default=None)
    p_exp.add_argument("--timeout", type=float, default=None,
                       help="per-instance budget in seconds, checked before each policy's loop")
    p_exp.add_argument("--verify", action="store_true")

    return parser


def _cmd_recognize(args) -> int:
    lib = parse_library(read_text(args.library))
    observations = load_observations(args.obs)
    hset = recognize(lib, observations, RecognizerConfig(max_hypotheses=args.max_hypotheses))
    report = {
        "hypothesis_count": len(hset),
        "observation_count": hset.observation_count,
        "truncated": hset.truncated,
        "hypotheses": [hypothesis_to_dict(h) for h in hset.hypotheses],
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sprp(args) -> int:
    instance = load_instance(args.library, args.obs, args.truth)
    h0 = recognize(instance.library, list(instance.observations))
    oracle = QueryOracle(instance.truth)
    final, trace = run_query_loop(h0, oracle, Policy(args.policy, args.seed))
    report = {
        "policy": args.policy,
        "seed": args.seed,
        "trace": trace.to_dict(),
        "final": [hypothesis_to_dict(h) for h in final.hypotheses],
    }
    verified = True
    if args.verify:
        expected = {hypothesis_key(h) for h in brute_force_final_set(h0, instance.truth).hypotheses}
        got = {hypothesis_key(h) for h in final.hypotheses}
        verified = report["verified"] = got == expected
    print(json.dumps(report, indent=2))
    if not verified:
        print("verification failed: final set differs from exhaustive filter", file=sys.stderr)
        return 3
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise PlanProbeError("count must be >= 1")
    for i in range(args.count):
        params = _gen_params(args, obs_len=args.obs_len, seed=args.seed + i)
        save_instance(gen_instance(params), args.out, f"instance_{i:03d}")
    print(f"wrote {args.count} instance(s) to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        policies=tuple(args.policy) if args.policy else POLICY_KINDS,
        obs_lens=tuple(args.obs_len) if args.obs_len else DEFAULT_OBS_LENS,
        reps=args.reps,
        seed=args.seed,
        gen=_gen_params(args),
        instance_dir=args.instances,
        max_hypotheses=args.max_hypotheses,
        verify=args.verify,
        timeout=args.timeout,
    )
    args.out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the batch runs
    result = run_experiment(spec)
    write_all_csvs(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    for failure in result.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if result.failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "recognize": _cmd_recognize,
        "sprp": _cmd_sprp,
        "gen": _cmd_gen,
        "experiment": _cmd_experiment,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader is gone: exit quietly with the status a shell gives a
        # tool killed by SIGPIPE, and send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UnexplainableObservationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OracleInconsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PlanProbeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
