"""Exception and warning types shared across the pipeline.

A failure gets its own class only where code branches on it (an `except`
or `isinstance` names it) or where the CLI exit code differs from its
parent's. Each class carries its exit code as `exit_code`, and `cli.main`
exits with it, so the class is the only place that knows the code.
Everything else is an OrchError (exit 2) or a ValueError (invalid input,
also exit 2) with a message that says what went wrong.
"""

from __future__ import annotations


class OrchError(Exception):
    """Base class for all toolkit errors: invalid input unless a subclass says otherwise."""

    exit_code = 2


# --- gateway ---------------------------------------------------------------

class ModelCallError(OrchError):
    """A model call gave no usable completion.

    `failure` names the kind in the reasons recorded for failed calls:
    transport failure, refused request, truncation, empty reply or
    malformed reply.
    """

    exit_code = 4

    def __init__(self, message: str, failure: str):
        super().__init__(message)
        self.failure = failure


class TransportError(ModelCallError):
    """Network or HTTP failure; the gateway retries it."""

    def __init__(self, message: str):
        super().__init__(message, "transport failure")


class UnseenRequestError(OrchError):
    """Replay session has no recorded response for this request."""

    exit_code = 4


class PhaseViolationError(OrchError):
    """A cloud-phase call tried to reach a local profile, or vice versa."""

    exit_code = 7


# --- planner ---------------------------------------------------------------

class PlannerError(OrchError):
    """Planner reply stayed unusable or invalid after all repair round-trips."""

    exit_code = 3


class CoverageUnreachableWarning(UserWarning):
    """Schema value cardinality exceeds the synthetic-case budget."""


class CoverageIncompleteWarning(UserWarning):
    """Generated cases left some categorical values uncovered after retry."""


# --- rule DSL ---------------------------------------------------------------

class DslError(OrchError):
    """Synthesis-logic parse or check failure, with its source position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


# --- executor / structured output -------------------------------------------

class OutputParseError(OrchError):
    """Model output could not be parsed against the subtask schema."""


# --- bundle ------------------------------------------------------------------

class BundleError(OrchError):
    """Bundle bytes are malformed, fail a hash, or have an incompatible version."""

    exit_code = 6
