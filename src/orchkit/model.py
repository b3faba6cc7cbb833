"""Core domain types shared across the pipeline.

All types are frozen dataclasses: construction validates structural
invariants and raises ValueError naming the offending field; after that
instances are immutable and safe to share across workers.

Feature values are plain strings throughout. Booleans canonicalize to
"true"/"false" and every field kind reserves the sentinel "unknown" for
absent or unparseable extractions, so synthesis logic can treat
uncertainty explicitly instead of silently overstaging.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import DslError

UNKNOWN = "unknown"

FIELD_KINDS = ("categorical", "boolean", "text")
PROMPT_STATUSES = ("draft", "refined", "failed")
PARSE_STATUSES = ("ok", "repaired", "unparseable")
FORMAT_TAGS = ("free_text", "structured", "other")


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ValueError(f"{where}: {message}")


def _nonempty_text(value: object, where: str) -> str:
    _require(isinstance(value, str), where, "must be a string")
    _require(bool(value.strip()), where, "must be non-empty")  # type: ignore[union-attr]
    return value  # type: ignore[return-value]


def _strings(value: object, where: str) -> tuple[str, ...]:
    _require(isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value),
             where, "must be a list of strings")
    return tuple(value)  # type: ignore[arg-type]


def _count(value: object, where: str, least: int) -> None:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= least,
             where, f"must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# Feature schemas and feature sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """One typed output field of a subtask.

    For categorical fields `values` lists the canonical allowed spellings;
    "unknown" is implicitly legal for every kind. `aliases` maps casefolded
    synonyms onto canonical values and is consulted during normalization.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()
    required: bool = True
    aliases: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _nonempty_text(self.name, "FieldSpec.name")
        _require(self.kind in FIELD_KINDS, "FieldSpec.kind",
                 f"must be one of {FIELD_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "values", _strings(self.values, "FieldSpec.values"))
        _require(isinstance(self.required, bool), "FieldSpec.required",
                 f"must be true or false, got {self.required!r}")
        if self.kind == "categorical":
            _require(len(self.values) >= 1, "FieldSpec.values",
                     f"categorical field {self.name!r} needs at least one allowed value")
            folded = [v.strip().casefold() for v in self.values]
            _require(len(set(folded)) == len(folded), "FieldSpec.values",
                     f"duplicate allowed values on field {self.name!r}")
            _require(UNKNOWN not in folded, "FieldSpec.values",
                     f"{UNKNOWN!r} is implicit and may not be declared on field {self.name!r}")
        else:
            _require(not self.values, "FieldSpec.values",
                     f"only categorical fields list values (field {self.name!r})")
        aliases = {k.strip().casefold(): v.strip() for k, v in self.aliases.items()}
        legal = {v.casefold() for v in self.legal_values()} | {UNKNOWN}
        if self.kind != "text":
            for alias, target in aliases.items():
                _require(target.casefold() in legal, "FieldSpec.aliases",
                         f"alias {alias!r} targets illegal value {target!r} on field {self.name!r}")
        object.__setattr__(self, "aliases", aliases)

    def legal_values(self) -> tuple[str, ...]:
        """Finite value domain, excluding the unknown sentinel (text has none)."""
        if self.kind == "categorical":
            return self.values
        if self.kind == "boolean":
            return ("true", "false")
        return ()

    def normalize_strict(self, raw: object) -> str | None:
        """Canonicalize a raw extracted value; None when illegal for this kind."""
        if raw is None:
            return UNKNOWN
        if isinstance(raw, bool):
            text = "true" if raw else "false"
        else:
            text = str(raw).strip()
        folded = text.casefold()
        if folded in ("", UNKNOWN):
            return UNKNOWN
        folded = self.aliases.get(folded, folded).casefold()
        if folded == UNKNOWN:
            return UNKNOWN
        if self.kind == "text":
            return folded
        for legal in self.legal_values():
            if legal.casefold() == folded:
                return legal
        return None


@dataclass(frozen=True)
class FeatureSchema:
    """Declares every field a subtask may emit (and synthesis may read)."""

    fields: tuple[FieldSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        _require(len(self.fields) >= 1, "FeatureSchema.fields", "must declare at least one field")
        names = [f.name for f in self.fields]
        _require(len(set(names)) == len(names), "FeatureSchema.fields",
                 f"field names must be unique, got {names}")

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def get(self, name: str) -> FieldSpec | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def to_dict(self) -> dict:
        return {"fields": [
            {"name": f.name, "kind": f.kind, "values": list(f.values),
             "required": f.required, "aliases": dict(f.aliases)}
            for f in self.fields]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FeatureSchema":
        return cls(tuple(
            FieldSpec(name=entry["name"], kind=entry["kind"],
                      values=entry.get("values", ()),
                      required=entry.get("required", True),
                      aliases=entry.get("aliases", {}))
            for entry in data["fields"]))


def merge_schemas(schemas: Sequence[FeatureSchema]) -> FeatureSchema:
    """Disjoint union of schemas; first declaration wins on collision.

    Collisions are reported by validate_plan, so downstream merge can
    assume disjointness.
    """
    merged: list[FieldSpec] = []
    seen: set[str] = set()
    for schema in schemas:
        for f in schema.fields:
            if f.name not in seen:
                seen.add(f.name)
                merged.append(f)
    return FeatureSchema(tuple(merged))


@dataclass(frozen=True)
class FeatureSet:
    """Mapping from field name to canonical value, conforming to a schema."""

    values: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        for name, value in self.values.items():
            _require(isinstance(value, str), "FeatureSet.values",
                     f"value for field {name!r} must be a string")

    def get(self, name: str) -> str:
        return self.values.get(name, UNKNOWN)

    def conforms_to(self, schema: FeatureSchema) -> list[str]:
        """Return human-readable conformance violations (empty = conforms)."""
        issues = []
        for f in schema.fields:
            if f.name not in self.values:
                if f.required:
                    issues.append(f"required field {f.name!r} missing")
                continue
            value = self.values[f.name]
            if value != UNKNOWN and f.kind != "text" and value not in f.legal_values():
                issues.append(f"field {f.name!r} has illegal value {value!r}")
        for name in self.values:
            if schema.get(name) is None:
                issues.append(f"undeclared field {name!r}")
        return issues

    @classmethod
    def from_raw(cls, schema: FeatureSchema, raw: Mapping[str, object]) -> "FeatureSet":
        """Build a conforming set from raw extracted values.

        Raises ValueError on raw values that are not a mapping, undeclared
        fields, missing required fields, or illegal values; a missing
        optional field is unknown.
        """
        _require(isinstance(raw, Mapping), "FeatureSet", '"values" must be a JSON object')
        for name in raw:
            _require(schema.get(name) is not None, "FeatureSet", f"undeclared field {name!r}")
        values: dict[str, str] = {}
        for f in schema.fields:
            if f.name not in raw:
                _require(not f.required, "FeatureSet", f"required field {f.name!r} missing")
                values[f.name] = UNKNOWN
                continue
            canonical = f.normalize_strict(raw[f.name])
            _require(canonical is not None, "FeatureSet",
                     f"field {f.name!r} has illegal value {raw[f.name]!r}")
            values[f.name] = canonical  # type: ignore[assignment]
        return cls(values)

    @classmethod
    def all_unknown(cls, schema: FeatureSchema) -> "FeatureSet":
        return cls({name: UNKNOWN for name in schema.field_names()})


# ---------------------------------------------------------------------------
# Labels, preferences, task input
# ---------------------------------------------------------------------------

@functools.total_ordering
@dataclass(frozen=True)
class OutcomeLabel:
    """Final classification label; ordinal is its index in the preference
    list and defines the 'more severe' relation used for tie-breaking."""

    name: str
    ordinal: int

    def __post_init__(self):
        _nonempty_text(self.name, "OutcomeLabel.name")
        _count(self.ordinal, "OutcomeLabel.ordinal", 0)

    def __lt__(self, other: "OutcomeLabel") -> bool:
        return (self.ordinal, self.name) < (other.ordinal, other.name)


def make_labels(names: Sequence[str]) -> tuple[OutcomeLabel, ...]:
    return tuple(OutcomeLabel(name, i) for i, name in enumerate(names))


@dataclass(frozen=True)
class UserPrefs:
    """User-side knobs: label universe, granularity, format notes."""

    output_labels: tuple[OutcomeLabel, ...]
    max_subtasks: int = 6
    synthetic_cases_per_subtask: int = 10
    output_format_notes: str = ""
    include_entities: tuple[str, ...] = ()
    exclude_entities: tuple[str, ...] = ()

    def __post_init__(self):
        _require(isinstance(self.output_labels, (list, tuple)), "UserPrefs.output_labels",
                 "must be a list")
        labels = tuple(
            lbl if isinstance(lbl, OutcomeLabel) else OutcomeLabel(lbl, i)
            for i, lbl in enumerate(self.output_labels))
        _require(len(labels) >= 2, "UserPrefs.output_labels",
                 "needs at least two labels")
        folded = [lbl.name.casefold() for lbl in labels]
        _require(len(set(folded)) == len(folded), "UserPrefs.output_labels",
                 "label names must be distinct")
        for i, lbl in enumerate(labels):
            _require(lbl.ordinal == i, "UserPrefs.output_labels",
                     f"label {lbl.name!r} has ordinal {lbl.ordinal}, expected {i}")
        object.__setattr__(self, "output_labels", labels)
        _count(self.max_subtasks, "UserPrefs.max_subtasks", 1)
        _count(self.synthetic_cases_per_subtask, "UserPrefs.synthetic_cases_per_subtask", 1)
        _require(isinstance(self.output_format_notes, str), "UserPrefs.output_format_notes",
                 "must be a string")
        for name in ("include_entities", "exclude_entities"):
            object.__setattr__(self, name, _strings(getattr(self, name), f"UserPrefs.{name}"))


@dataclass(frozen=True)
class TaskSpec:
    """The planning input: what to decide, the guideline, and preferences."""

    task_description: str
    guideline: str
    preferences: UserPrefs

    def __post_init__(self):
        _nonempty_text(self.task_description, "TaskSpec.task_description")
        _nonempty_text(self.guideline, "TaskSpec.guideline")
        _require(isinstance(self.preferences, UserPrefs), "TaskSpec.preferences",
                 "must be a UserPrefs")


# ---------------------------------------------------------------------------
# Subtasks, prompts, cases, runs, documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subtask:
    """An independently executable unit of extraction with a typed schema."""

    id: str
    name: str
    description: str
    output_schema: FeatureSchema

    def __post_init__(self):
        _nonempty_text(self.id, "Subtask.id")
        _nonempty_text(self.name, "Subtask.name")
        _require(isinstance(self.description, str), "Subtask.description", "must be a string")
        _require(isinstance(self.output_schema, FeatureSchema),
                 "Subtask.output_schema", "must be a FeatureSchema")


@dataclass(frozen=True)
class PromptSpec:
    """A system prompt for one subtask, tracked through refinement.

    Fresh drafts come from PromptSpec.draft() at revision 0; refinement
    bumps the revision, and the validator attaches the report that
    justifies a refined/failed status.
    """

    subtask_id: str
    system_prompt: str
    revision: int = 0
    status: str = "draft"
    report: object | None = None  # ValidationReport; duck-typed to avoid a cycle

    def __post_init__(self):
        _nonempty_text(self.subtask_id, "PromptSpec.subtask_id")
        _nonempty_text(self.system_prompt, "PromptSpec.system_prompt")
        _count(self.revision, "PromptSpec.revision", 0)
        _require(self.status in PROMPT_STATUSES, "PromptSpec.status",
                 f"must be one of {PROMPT_STATUSES}, got {self.status!r}")
        if self.status == "refined":
            _require(self.report is not None, "PromptSpec.report",
                     "refined prompt requires an attached validation report")
            _require(getattr(self.report, "verdict", None) == "passed",
                     "PromptSpec.report", "refined prompt requires a passing report")

    @classmethod
    def draft(cls, subtask_id: str, system_prompt: str) -> "PromptSpec":
        return cls(subtask_id=subtask_id, system_prompt=system_prompt,
                   revision=0, status="draft")

    def with_revision(self, system_prompt: str) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=system_prompt,
                          revision=self.revision + 1, status="draft")

    def refined(self, report: object) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=self.system_prompt,
                          revision=self.revision, status="refined", report=report)

    def failed(self, report: object) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=self.system_prompt,
                          revision=self.revision, status="failed", report=report)


@dataclass(frozen=True)
class SyntheticCase:
    """Guideline-derived input/expected pair used to validate a prompt."""

    subtask_id: str
    input_text: str
    expected: FeatureSet

    def __post_init__(self):
        _nonempty_text(self.subtask_id, "SyntheticCase.subtask_id")
        _nonempty_text(self.input_text, "SyntheticCase.input_text")
        _require(isinstance(self.expected, FeatureSet), "SyntheticCase.expected",
                 "must be a FeatureSet")


@dataclass(frozen=True)
class SubtaskRun:
    """One model execution of a prompt: reasoning trace plus parsed output."""

    subtask_id: str
    document_id: str
    reasoning: str
    output: FeatureSet
    parse_status: str = "ok"

    def __post_init__(self):
        _nonempty_text(self.subtask_id, "SubtaskRun.subtask_id")
        _require(self.parse_status in PARSE_STATUSES, "SubtaskRun.parse_status",
                 f"must be one of {PARSE_STATUSES}, got {self.parse_status!r}")


@dataclass(frozen=True)
class Document:
    """A sensitive input document; only ever touched by the local phase."""

    id: str
    body: str
    format_tag: str = "free_text"

    def __post_init__(self):
        _nonempty_text(self.id, "Document.id")
        _nonempty_text(self.body, "Document.body")
        _require(self.format_tag in FORMAT_TAGS, "Document.format_tag",
                 f"must be one of {FORMAT_TAGS}, got {self.format_tag!r}")


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """Complete planning output: subtasks, prompts, synthesis logic source,
    label universe, synthetic test sets, and provenance.

    Provenance never contains document content; no planning operation
    accepts a Document, so the guarantee is structural.
    """

    subtasks: tuple[Subtask, ...]
    prompts: tuple[PromptSpec, ...]
    logic_source: str
    labels: tuple[OutcomeLabel, ...]
    synthetic_sets: Mapping[str, tuple[SyntheticCase, ...]] = field(default_factory=dict)
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(self, "prompts", tuple(self.prompts))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "synthetic_sets",
                           {k: tuple(v) for k, v in dict(self.synthetic_sets).items()})
        object.__setattr__(self, "provenance", dict(self.provenance))
        _require(len(self.subtasks) >= 1, "Plan.subtasks", "must be non-empty")
        _require(len(self.prompts) == len(self.subtasks), "Plan.prompts",
                 f"{len(self.prompts)} prompts for {len(self.subtasks)} subtasks")
        _nonempty_text(self.logic_source, "Plan.logic_source")
        _require(len(self.labels) >= 2, "Plan.labels", "needs at least two labels")

    def subtask_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.subtasks)

    def schema_for(self, subtask_id: str) -> FeatureSchema | None:
        for s in self.subtasks:
            if s.id == subtask_id:
                return s.output_schema
        return None

    def prompt_for(self, subtask_id: str) -> PromptSpec | None:
        for p in self.prompts:
            if p.subtask_id == subtask_id:
                return p
        return None

    def parsed_logic(self):
        """Parse logic_source against this plan's schemas and labels."""
        from . import ruledsl  # late import: ruledsl depends on this module

        return ruledsl.parse_logic(
            self.logic_source,
            [s.output_schema for s in self.subtasks],
            self.labels)

    def with_prompts(self, prompts: Sequence[PromptSpec]) -> "Plan":
        return Plan(subtasks=self.subtasks, prompts=tuple(prompts),
                    logic_source=self.logic_source, labels=self.labels,
                    synthetic_sets=self.synthetic_sets, provenance=self.provenance)

    def with_synthetic_sets(self, sets: Mapping[str, Sequence[SyntheticCase]]) -> "Plan":
        return Plan(subtasks=self.subtasks, prompts=self.prompts,
                    logic_source=self.logic_source, labels=self.labels,
                    synthetic_sets={k: tuple(v) for k, v in sets.items()},
                    provenance=self.provenance)


def validate_plan(plan: Plan, *, min_cases: int = 1) -> list[str]:
    """Cross-reference and conformance check over a fully constructed plan.

    Returns a list of violation messages; empty means the plan is sound.
    Nothing is raised: callers (pack, CLI) decide what a violation costs.
    """
    violations: list[str] = []
    ids = plan.subtask_ids()
    for dup in {i for i in ids if ids.count(i) > 1}:
        violations.append(f"duplicate subtask id {dup!r}")
    known = set(ids)

    prompt_ids = [p.subtask_id for p in plan.prompts]
    for pid in prompt_ids:
        if pid not in known:
            violations.append(f"prompt references unknown subtask id {pid!r}")
    for sid in ids:
        n = prompt_ids.count(sid)
        if n != 1:
            violations.append(f"subtask {sid!r} has {n} prompts, expected exactly 1")

    for sid, cases in plan.synthetic_sets.items():
        if sid not in known:
            violations.append(f"synthetic set references unknown subtask id {sid!r}")
            continue
        schema = plan.schema_for(sid)
        for idx, case in enumerate(cases):
            if case.subtask_id != sid:
                violations.append(
                    f"case {idx} in set {sid!r} is tagged for subtask {case.subtask_id!r}")
            for issue in case.expected.conforms_to(schema):  # type: ignore[arg-type]
                violations.append(f"case {idx} of subtask {sid!r}: {issue}")
    for sid in ids:
        n = len(plan.synthetic_sets.get(sid, ()))
        if n < min_cases:
            violations.append(
                f"subtask {sid!r} has {n} synthetic cases, minimum is {min_cases}")

    field_owner: dict[str, str] = {}
    for s in plan.subtasks:
        for f in s.output_schema.fields:
            if f.name in field_owner and field_owner[f.name] != s.id:
                violations.append(
                    f"field {f.name!r} declared by both {field_owner[f.name]!r} and {s.id!r}")
            else:
                field_owner.setdefault(f.name, s.id)

    try:
        plan.parsed_logic()
    except DslError as exc:
        violations.append(f"synthesis logic: {exc}")
    return violations
