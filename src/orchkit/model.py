"""Core domain types shared across the pipeline.

Every type here, and every other value type in orchkit, is a `Record`:
its fields are its class annotations, in order, read once when the class
is defined; no code is generated for it. A record is built positionally or
by keyword, a field with a class-attribute value defaults to it, and a
missing, unknown or repeated argument raises TypeError. Construction then
runs the class's `__post_init__`, which validates structural invariants
and raises ValueError naming the offending field. After that the instance
is immutable and safe to share across workers: it compares, hashes and
prints field-wise, its `__dict__` holds exactly its fields in order, and
`replace(record, **changes)` builds a changed copy through the same checks.

Feature values are plain strings throughout. Booleans canonicalize to
"true"/"false" and every field kind reserves the sentinel "unknown" for
absent or unparseable extractions, so synthesis logic can treat
uncertainty explicitly instead of silently overstaging.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

    from .ruledsl import SynthesisLogic

UNKNOWN = "unknown"

FIELD_KINDS = ("categorical", "boolean", "text")
PROMPT_STATUSES = ("draft", "refined", "failed")
PARSE_STATUSES = ("ok", "repaired", "unparseable")
FORMAT_TAGS = ("free_text", "structured", "other")


R = TypeVar("R", bound="Record")

_set = object.__setattr__


class Record:
    """Base of orchkit's immutable value types (see the module docstring).

    A class lists fields to leave out of ==, hash and repr as a keyword:
    `class BackendProfile(Record, hidden=("backend",))`.
    """

    # Set per subclass, from its annotations: the field names, the defaults,
    # the fields that ==, hash and repr read, and `_key(record)`, their values
    # as a tuple. Not annotated themselves, so that they are not fields.
    _fields = _shown = ()
    _defaults = {}

    def __init_subclass__(cls, *, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._shown = shown = tuple(name for name in cls._fields if name not in hidden)
        key = operator.attrgetter(*shown)
        cls._key = staticmethod(key if len(shown) > 1 else lambda record: (key(record),))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        # Fields are set one by one, in order, never through self.__dict__:
        # an instance whose __dict__ is never asked for keeps its values
        # inline, which is smaller and faster to read.
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                _set(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        if kwargs:  # what is left was given positionally too, or names no field
            name = next(iter(kwargs))
            given = name in names[:len(args)]
            problem = "multiple values for" if given else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


def replace(record: R, /, **changes: object) -> R:
    """A copy of `record` with `changes` applied; the class's checks run again."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def record_fields(cls: type[Record]) -> tuple[str, ...]:
    """The field names of a record class, in order."""
    return cls._fields


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

class FieldSpec(Record):
    """One typed output field of a subtask.

    For categorical fields `values` lists the canonical allowed spellings;
    "unknown" is implicitly legal for every kind. `aliases` maps casefolded
    synonyms onto canonical values and is consulted during normalization.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()
    required: bool = True
    aliases: Mapping[str, str] = {}

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
        """Canonicalize a raw extracted value; None when illegal for this kind,
        and for a JSON list or object, which no kind holds."""
        if raw is None:
            return UNKNOWN
        if isinstance(raw, (list, dict)):
            return None
        if isinstance(raw, bool):
            text = "true" if raw else "false"
        else:
            text = str(raw).strip()
        folded = text.casefold()
        if folded in ("", UNKNOWN):
            return UNKNOWN
        folded = self.aliases.get(folded, folded).casefold()
        if folded in ("", UNKNOWN):  # a text alias may target either
            return UNKNOWN
        if self.kind == "text":
            return folded
        for legal in self.legal_values():
            if legal.casefold() == folded:
                return legal
        return None


class FeatureSchema(Record):
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
    """Disjoint union of schemas; a field declared twice raises ValueError,
    as in FeatureSchema. A Plan refuses a field declared by two subtasks, so
    the schemas of a plan's subtasks always merge."""
    return FeatureSchema(tuple(f for schema in schemas for f in schema.fields))


class FeatureSet(Record):
    """Mapping from field name to canonical value, conforming to a schema."""

    values: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        for name, value in self.values.items():
            _require(isinstance(value, str), "FeatureSet.values",
                     f"value for field {name!r} must be a string")

    def get(self, name: str) -> str:
        return self.values.get(name, UNKNOWN)

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
class OutcomeLabel(Record):
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


class UserPrefs(Record):
    """User-side knobs, the prefs file's alone: label universe, granularity,
    synthetic cases per subtask, format notes (read by Config.preferences)."""

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


class TaskSpec(Record):
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

class Subtask(Record):
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


class PromptSpec(Record):
    """A system prompt for one subtask, tracked through refinement.

    Fresh drafts come from PromptSpec.draft() at revision 0; refinement
    bumps the revision, and the validator attaches the report that
    justifies a refined/failed status.
    """

    subtask_id: str
    system_prompt: str
    revision: int = 0
    status: str = "draft"
    report: ValidationReport | None = None

    def __post_init__(self):
        _nonempty_text(self.subtask_id, "PromptSpec.subtask_id")
        _nonempty_text(self.system_prompt, "PromptSpec.system_prompt")
        _count(self.revision, "PromptSpec.revision", 0)
        _require(self.status in PROMPT_STATUSES, "PromptSpec.status",
                 f"must be one of {PROMPT_STATUSES}, got {self.status!r}")
        if self.status == "refined":
            _require(self.report is not None, "PromptSpec.report",
                     "refined prompt requires an attached validation report")
            _require(self.report.verdict == "passed",
                     "PromptSpec.report", "refined prompt requires a passing report")

    @classmethod
    def draft(cls, subtask_id: str, system_prompt: str) -> "PromptSpec":
        return cls(subtask_id=subtask_id, system_prompt=system_prompt,
                   revision=0, status="draft")

    def with_revision(self, system_prompt: str) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=system_prompt,
                          revision=self.revision + 1, status="draft")

    def refined(self, report: ValidationReport) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=self.system_prompt,
                          revision=self.revision, status="refined", report=report)

    def failed(self, report: ValidationReport) -> "PromptSpec":
        return PromptSpec(subtask_id=self.subtask_id, system_prompt=self.system_prompt,
                          revision=self.revision, status="failed", report=report)


class SyntheticCase(Record):
    """Guideline-derived input/expected pair used to validate a prompt."""

    subtask_id: str
    input_text: str
    expected: FeatureSet

    def __post_init__(self):
        _nonempty_text(self.subtask_id, "SyntheticCase.subtask_id")
        _nonempty_text(self.input_text, "SyntheticCase.input_text")
        _require(isinstance(self.expected, FeatureSet), "SyntheticCase.expected",
                 "must be a FeatureSet")


class SubtaskRun(Record):
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


class CaseResult(Record):
    """One synthetic case scored against the run its prompt produced."""

    case_index: int
    case: SyntheticCase
    run: SubtaskRun
    passed: bool
    reason: str = ""


class ValidationReport(Record):
    """One prompt revision's validation run over its synthetic set."""

    subtask_id: str
    revision: int
    results: tuple[CaseResult, ...]
    passes: int
    total: int
    verdict: str  # passed | refine

    def exact_rate(self) -> Fraction:
        from fractions import Fraction  # late import: only the refinement loop ranks reports

        return Fraction(self.passes, self.total) if self.total else Fraction(0)

    def failures(self) -> list[tuple[SyntheticCase, SubtaskRun]]:
        return [(r.case, r.run) for r in self.results if not r.passed]


class Document(Record):
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

class Plan(Record, hidden=("logic",)):
    """Complete planning output: subtasks, prompts, synthesis logic source,
    label universe, synthetic test sets, and provenance.

    Construction checks the structure every reader relies on: subtask ids
    are unique, each subtask has exactly one prompt, no field is declared
    by two subtasks, and synthetic sets are keyed by the plan's subtasks and
    hold only cases tagged for their set whose values a parsed reply could
    equal: FeatureSet.from_raw accepts them unchanged (optional fields may
    be left out). Then it parses the rule program against the plan's
    schemas and labels, raising DslError if it does not parse, and keeps it
    as `logic`, which ==, hash and repr leave out; a value given for it is
    replaced. This is the one place a rule program is parsed.

    Provenance never contains document content; no planning operation
    accepts a Document, so the guarantee is structural.
    """

    subtasks: tuple[Subtask, ...]
    prompts: tuple[PromptSpec, ...]
    logic_source: str
    labels: tuple[OutcomeLabel, ...]
    synthetic_sets: Mapping[str, tuple[SyntheticCase, ...]] = {}
    provenance: Mapping[str, object] = {}
    logic: SynthesisLogic | None = None

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(self, "prompts", tuple(self.prompts))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "synthetic_sets",
                           {k: tuple(v) for k, v in dict(self.synthetic_sets).items()})
        object.__setattr__(self, "provenance", dict(self.provenance))
        _require(len(self.subtasks) >= 1, "Plan.subtasks", "must be non-empty")
        schemas: dict[str, FeatureSchema] = {}  # subtask id -> its schema, in plan order
        owner: dict[str, str] = {}  # field name -> the subtask declaring it
        for s in self.subtasks:
            _require(s.id not in schemas, "Plan.subtasks", f"duplicate subtask id {s.id!r}")
            schemas[s.id] = s.output_schema
            for name in s.output_schema.field_names():
                _require(name not in owner, "Plan.subtasks",
                         f"field {name!r} declared by both {owner.get(name)!r} and {s.id!r}")
                owner[name] = s.id
        prompted = Counter(p.subtask_id for p in self.prompts)
        for sid in prompted:
            _require(sid in schemas, "Plan.prompts", f"prompt for unknown subtask {sid!r}")
        for sid in schemas:
            _require(prompted[sid] == 1, "Plan.prompts",
                     f"subtask {sid!r} has {prompted[sid]} prompts, expected exactly 1")
        for sid, cases in self.synthetic_sets.items():
            _require(sid in schemas, "Plan.synthetic_sets",
                     f"synthetic set for unknown subtask {sid!r}")
            for idx, case in enumerate(cases):
                where = f"case {idx} in set {sid!r}"
                _require(case.subtask_id == sid, "Plan.synthetic_sets",
                         f"{where} is tagged for subtask {case.subtask_id!r}")
                try:
                    conformed = FeatureSet.from_raw(schemas[sid], case.expected.values).values
                except ValueError as exc:
                    raise ValueError(f"Plan.synthetic_sets: {where}: "
                                     + str(exc).removeprefix("FeatureSet: ")) from None
                for name, value in case.expected.values.items():
                    _require(conformed[name] == value, "Plan.synthetic_sets",
                             f"{where}: field {name!r} has non-canonical value {value!r}, "
                             f"expected {conformed[name]!r}")
        _nonempty_text(self.logic_source, "Plan.logic_source")
        _require(len(self.labels) >= 2, "Plan.labels", "needs at least two labels")
        from . import ruledsl  # late import: ruledsl depends on this module

        object.__setattr__(self, "logic", ruledsl.parse_logic(
            self.logic_source, list(schemas.values()), self.labels))

    def prompt_for(self, subtask_id: str) -> PromptSpec:
        """The prompt of one of this plan's subtasks; KeyError for any other id."""
        for p in self.prompts:
            if p.subtask_id == subtask_id:
                return p
        raise KeyError(subtask_id)

    def parsed_logic(self) -> SynthesisLogic:
        """The rule program, parsed when this plan was built."""
        return self.logic

    def with_prompts(self, prompts: Sequence[PromptSpec]) -> "Plan":
        return replace(self, prompts=prompts)

    def with_synthetic_sets(self, sets: Mapping[str, Sequence[SyntheticCase]]) -> "Plan":
        return replace(self, synthetic_sets=sets)


def validate_plan(plan: Plan, *, min_cases: int) -> list[str]:
    """The case rule, over a plan whose structure, cases and rule program its
    constructor already checked: one message per subtask with fewer than
    `min_cases` synthetic cases. Empty means the plan is sound. Nothing is
    raised: callers (validate and pack at the config's min_synthetic_cases,
    unpack at config.DEFAULT_MIN_CASES) decide the cost.
    """
    return [f"subtask {s.id!r} has {n} synthetic cases, minimum is {min_cases}"
            for s in plan.subtasks if (n := len(plan.synthetic_sets.get(s.id, ()))) < min_cases]
