"""Plan recognition over hierarchical plan libraries, with an interactive
query loop that prunes the hypothesis space via sound update rules and
selectable probing policies."""

from .errors import (
    GenerationError,
    LibraryError,
    LibrarySyntaxError,
    LibraryValidationError,
    OracleInconsistencyError,
    PlanError,
    PlanProbeError,
    PlanTooDeepError,
    PolicyError,
    UnexplainableObservationError,
    ZeroWeightError,
)
from .library import PlanLibrary, RefinementMethod, parse_library, serialize_library
from .plans import (
    Hypothesis,
    PlanNode,
    hypothesis_refines,
    is_complete,
    is_refinement,
    matches,
    observe_leaf,
    plan_from_dict,
    plan_to_dict,
    validate_hypothesis,
    validate_plan,
)
from .recognizer import (
    HypothesisSet,
    RecognizerConfig,
    explain_step,
    hypothesis_weight,
    recognize,
)
from .engine import (
    ProbeTrace,
    QueryOracle,
    candidate_plans,
    query_answer,
    run_query_loop,
    update,
)
from .policies import (
    POLICY_KINDS,
    Policy,
    cumulative_plan_prob,
    select_min_entropy,
    select_mph,
    select_mpp,
    select_random,
)
from .domains import (
    GenParams,
    Instance,
    builtin_chemistry,
    gen_instance,
)
from .experiment import (
    ExperimentRow,
    ExperimentSpec,
    brute_force_final_set,
    run_experiment,
)

__version__ = "0.1.0"
