"""Exception and warning types shared across the pipeline.

Every failure mode that callers are expected to branch on gets its own
class; everything inherits from OrchError so the CLI can map error
classes onto its exit-code contract in one place.
"""

from __future__ import annotations


class OrchError(Exception):
    """Base class for all toolkit errors."""


# --- gateway ---------------------------------------------------------------

class ModelCallError(OrchError):
    """A model call gave no usable completion (transport, malformed reply, truncation, refusal).

    `failure` names the class in the reasons recorded for failed calls.
    """

    failure = "failed model call"


class TransportError(ModelCallError):
    """Network or HTTP failure that survived the retry policy."""

    failure = "transport failure"


class TruncatedError(ModelCallError):
    """Request would overflow (or did overflow) the backend context window."""

    failure = "truncation"


class BackendRefusalError(ModelCallError):
    """Backend returned an empty or refused completion."""

    failure = "empty reply"


class MalformedReplyError(ModelCallError):
    """Backend answered, but its reply lacks the completion text; not retried."""

    failure = "malformed reply"


class UnseenRequestError(OrchError):
    """Replay session has no recorded response for this request."""


class PhaseViolationError(OrchError):
    """A cloud-phase call tried to reach a local profile, or vice versa."""


# --- planner ---------------------------------------------------------------

class MalformedPlanError(OrchError):
    """Planner model reply stayed unparseable after all repair round-trips."""


class BudgetExceededError(OrchError):
    """Repair round-trip budget exhausted on semantically invalid replies."""


class MalformedCasesError(OrchError):
    """Synthetic-case reply stayed unusable after all repair round-trips."""


class CoverageUnreachableWarning(UserWarning):
    """Schema value cardinality exceeds the synthetic-case budget."""


class CoverageIncompleteWarning(UserWarning):
    """Generated cases left some categorical values uncovered after retry."""


# --- rule DSL ---------------------------------------------------------------

class DslError(OrchError):
    """Base class for synthesis-logic parse and check failures."""


class DslSyntaxError(DslError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownFieldError(DslError):
    """Condition references a field no subtask schema declares."""


class IllegalValueError(DslError):
    """Comparison value or rule label is not legal for its position."""


class MissingDefaultError(DslError):
    """Program has no default rule, so it would not be total."""


# --- executor / structured output -------------------------------------------

class OutputParseError(OrchError):
    """Model output could not be parsed against the subtask schema."""


# --- bundle ------------------------------------------------------------------

class BundleError(OrchError):
    """Base class for artifact-bundle failures."""


class PlanInvalidError(BundleError):
    """Plan failed validation and cannot be packed."""


class UnrefinedPromptsError(BundleError):
    """Plan contains non-refined prompts and no override was given."""


class ChecksumMismatchError(BundleError):
    """Whole-file or per-section hash did not verify."""


class VersionIncompatibleError(BundleError):
    """Bundle format major version differs from the reader's."""


class MalformedBundleError(BundleError):
    """Bundle bytes are not a well-formed bundle document."""


# --- evalkit ------------------------------------------------------------------

class IdMismatchError(OrchError):
    """Prediction set is missing a document id that ground truth scores."""
