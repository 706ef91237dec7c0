"""README's Python API runs as written, every `pp.` name it uses exists,
and the package exports exactly the names listed here."""

import re
import types
from pathlib import Path

import planprobe as pp

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_api():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert [n for n in sorted(set(re.findall(r"\bpp\.(\w+)", README))) if not hasattr(pp, n)] == []


# a name added to, or dropped from, planprobe/__init__.py changes this list
PUBLIC_NAMES = [
    "ExperimentRow", "ExperimentSpec", "GenParams", "GenerationError", "Hypothesis", "HypothesisSet",
    "Instance", "LibraryError", "LibrarySyntaxError", "LibraryValidationError", "OracleInconsistencyError",
    "POLICY_KINDS", "PlanError", "PlanLibrary", "PlanNode", "PlanProbeError", "PlanTooDeepError", "Policy",
    "PolicyError", "ProbeTrace", "QueryOracle", "RecognizerConfig", "RefinementMethod",
    "UnexplainableObservationError", "ZeroWeightError", "brute_force_final_set", "builtin_chemistry",
    "candidate_plans", "cumulative_plan_prob", "explain_step", "gen_instance", "hypothesis_refines",
    "hypothesis_weight", "is_complete", "is_refinement", "matches", "observe_leaf", "parse_library",
    "plan_from_dict", "plan_to_dict", "query_answer", "recognize", "run_experiment", "run_query_loop",
    "select_min_entropy", "select_mph", "select_mpp", "select_random", "serialize_library", "update",
    "validate_hypothesis", "validate_plan",
]


def test_public_names_are_the_listed_ones():
    # submodules become attributes of the package once imported; they are not exports
    exported = sorted(n for n, v in vars(pp).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert exported == PUBLIC_NAMES
