"""Exception types shared across the package."""

from __future__ import annotations


class PlanProbeError(Exception):
    """Base class for all errors raised by this package."""


class LibraryError(PlanProbeError):
    """Problem with a plan library definition."""


class LibrarySyntaxError(LibraryError):
    """Malformed library file. Carries the position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class LibraryValidationError(LibraryError):
    """Structurally well-formed library that violates a semantic invariant."""


class PlanError(PlanProbeError):
    """Invalid plan structure or illegal plan operation."""


class PlanTooDeepError(PlanError):
    """A plan record nested deeper than any library allows."""


class UnexplainableObservationError(PlanProbeError):
    """No hypothesis can explain an observation. `kind` is "complex" or
    "unknown" for an action that is not basic. `truncated` marks a set that
    a hypothesis cap cut at an earlier observation, so a dropped hypothesis
    might have explained it."""

    def __init__(self, index: int, action: str, truncated: bool = False, kind: str | None = None):
        described = repr(action) if kind is None else f"{action!r}, {kind} action"
        message = f"observation {index} ({described}) cannot be explained by any hypothesis"
        if truncated:
            message += "; the hypothesis cap dropped hypotheses at an earlier observation"
        super().__init__(message)
        self.index = index
        self.action = action
        self.kind = kind
        self.truncated = truncated


class OracleInconsistencyError(PlanProbeError):
    """An update emptied the hypothesis set, which a truthful oracle over a
    complete hypothesis set can never do."""


class ZeroWeightError(PlanProbeError):
    """Every hypothesis to be normalized has weight 0, as when only goals
    with a prior of 0 explain the observations or survive an answer."""


class PolicyError(PlanProbeError):
    """A query policy violated its contract (no candidates, or a closed/absent plan)."""


class GenerationError(PlanProbeError):
    """Instance generation failed for the given parameters."""
