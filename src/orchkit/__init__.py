"""orchkit: a two-phase planner/executor toolkit for guideline-driven
classification over sensitive documents.

A high-capability cloud model plans (subtask decomposition, draft prompts,
synthetic validation cases, deterministic synthesis logic); a constrained
local model executes the validated prompts over real documents in an
isolated environment, with repeated inference, majority voting, and
rule-based outcome synthesis. The two phases meet only through a
checksummed artifact bundle carried across the air gap.
"""

from .bundle import ArtifactBundle, RuntimeDefaults, pack, unpack
from .errors import OrchError
from .gateway import (
    BackendProfile,
    ChatRequest,
    ChatResponse,
    Gateway,
    PHASE_CLOUD,
    PHASE_LOCAL,
    ScriptedBackend,
)
from .model import (
    Document,
    FeatureSchema,
    FeatureSet,
    FieldSpec,
    OutcomeLabel,
    Plan,
    PromptSpec,
    Subtask,
    SubtaskRun,
    SyntheticCase,
    TaskSpec,
    UNKNOWN,
    UserPrefs,
    make_labels,
    validate_plan,
)
from .ruledsl import SynthesisLogic, evaluate, parse_logic, pretty
from .validator import ValidationReport, run_refinement_loop, validate_prompt

__version__ = "0.1.0"

__all__ = [
    "ArtifactBundle", "BackendProfile", "ChatRequest", "ChatResponse",
    "Document", "FeatureSchema", "FeatureSet", "FieldSpec", "Gateway",
    "OrchError", "OutcomeLabel", "PHASE_CLOUD", "PHASE_LOCAL", "Plan",
    "PromptSpec", "RuntimeDefaults", "ScriptedBackend",
    "Subtask", "SubtaskRun", "SyntheticCase", "SynthesisLogic", "TaskSpec",
    "UNKNOWN", "UserPrefs", "ValidationReport", "evaluate", "make_labels",
    "pack", "parse_logic", "pretty", "run_refinement_loop", "unpack",
    "validate_plan", "validate_prompt",
]
