"""Cloud-phase orchestration: decompose a task into subtasks with draft
prompts and synthesis logic, generate synthetic validation cases, and
rewrite prompts that failed validation.

build_plan requests every subtask's synthetic set at once, one
executor.iter_lanes lane per subtask, since no set depends on another; the
width is the number of subtasks, not the operator's `workers`.

No operation in this module accepts a Document, so real document content
cannot reach the cloud channel by construction. Everything the planner
touches is the task description, the guideline, user preferences, and
synthetic material derived from them.

Meta-prompts are versioned template files (plain text, {name} placeholders);
their digests are recorded in plan provenance so a plan can be traced back
to the exact prompts that produced it.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path

from .config import PHASE_CLOUD, template_files
from .errors import (
    CoverageIncompleteWarning,
    CoverageUnreachableWarning,
    DslError,
    OutputParseError,
    PhaseViolationError,
    PlannerError,
)
from .executor import iter_lanes
from .gateway import Gateway
from .jsonio import decode, digest, read_text, sha256_text
from .model import (
    FeatureSchema,
    FeatureSet,
    Plan,
    PromptSpec,
    Record,
    Subtask,
    SubtaskRun,
    SyntheticCase,
    TaskSpec,
    UserPrefs,
    record_fields,
)
from .parsing import extract_json_object, format_block
from .ruledsl import parse_logic  # noqa: F401 - bench/tracer.py wraps it by name

_REPLY_NUDGE = "Reply now with the JSON object only."

DEFAULT_MAX_REPAIRS = 2


def render(template: str, values: Mapping[str, str]) -> str:
    """Fill {name} placeholders by literal replacement.

    Replacement (not str.format) keeps JSON braces inside templates inert.
    """
    out = template
    for key, value in values.items():
        out = out.replace("{" + key + "}", value)
    return out


class TemplateSet(Record):
    """The four meta-prompts the planner runs on the cloud channel."""

    decompose: str
    synthetic: str
    refine: str
    repair: str

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "TemplateSet":
        """The templates config.template_files(directory) names."""
        return cls(**{name: read_text(path) for name, path in template_files(directory).items()})

    def digests(self) -> dict[str, str]:
        return {name: sha256_text(getattr(self, name)) for name in record_fields(TemplateSet)}


def task_digest(task: TaskSpec) -> str:
    """Content hash of the task minus the guideline body."""
    prefs = task.preferences
    return digest({"task_description": task.task_description,
                   "output_labels": [lbl.name for lbl in prefs.output_labels],
                   "max_subtasks": prefs.max_subtasks,
                   "synthetic_cases_per_subtask": prefs.synthetic_cases_per_subtask,
                   "output_format_notes": prefs.output_format_notes,
                   "include_entities": list(prefs.include_entities),
                   "exclude_entities": list(prefs.exclude_entities)})


def compose_system_prompt(task_description: str, draft_body: str,
                          schema: FeatureSchema) -> str:
    """Final subtask prompt: task header, model-written body (which carries
    the guideline excerpts), and the schema-derived format contract."""
    return (f"# Objective\n{task_description.strip()}\n\n"
            f"{draft_body.strip()}\n\n{format_block(schema)}")


def _require_cloud(gateway: Gateway) -> None:
    if gateway.phase != PHASE_CLOUD:
        raise PhaseViolationError("planner operations require a cloud-phase gateway")


def _preferences_text(task: TaskSpec) -> str:
    prefs = task.preferences
    lines = [f"- cases per subtask for validation: {prefs.synthetic_cases_per_subtask}"]
    if prefs.output_format_notes:
        lines.append(f"- output format notes: {prefs.output_format_notes}")
    if prefs.include_entities:
        lines.append("- focus on: " + ", ".join(prefs.include_entities))
    if prefs.exclude_entities:
        lines.append("- ignore: " + ", ".join(prefs.exclude_entities))
    return "\n".join(lines)


def _schema_text(schema: FeatureSchema) -> str:
    lines = []
    for f in schema.fields:
        menu = ", ".join(f.legal_values()) if f.kind != "text" else "free text"
        lines.append(f"- {f.name} ({f.kind}{', required' if f.required else ''}): {menu}")
    return "\n".join(lines)


def _exchange(gateway: Gateway, templates: TemplateSet, system_prompt: str,
              interpret: Callable[[str], object]):
    """One meta-prompt conversation with bounded repair round-trips.

    `interpret` runs through jsonio.decode, so a reply of the wrong shape
    raises OutputParseError like an unparseable one; ValueError/DslError
    mark parseable-but-invalid replies. The last reply's kind decides the
    message of the PlannerError raised when the repair budget runs out.
    """
    prompt = system_prompt
    for _ in range(1 + DEFAULT_MAX_REPAIRS):
        reply = gateway.chat(prompt, _REPLY_NUDGE)
        try:
            return decode(interpret, reply.raw_text, OutputParseError)
        except OutputParseError as exc:
            state, last_message = "unusable", str(exc)
        except (ValueError, DslError) as exc:
            state, last_message = "still invalid", str(exc)
        suffix = render(templates.repair, {"error": last_message, "reply": reply.raw_text})
        prompt = f"{system_prompt}\n\n{suffix}"
    raise PlannerError(
        f"reply {state} after {DEFAULT_MAX_REPAIRS} repair round-trips: {last_message}")


def _interpret_plan_reply(raw: str, task: TaskSpec, provenance: Mapping[str, object]) -> Plan:
    obj = extract_json_object(raw)
    raw_subtasks = obj.get("subtasks")
    logic_source = obj.get("logic")
    if not isinstance(raw_subtasks, list) or not raw_subtasks:
        raise OutputParseError('reply needs a non-empty "subtasks" list')
    if not isinstance(logic_source, str) or not logic_source.strip():
        raise OutputParseError('reply needs a non-empty "logic" string')
    if len(raw_subtasks) > task.preferences.max_subtasks:
        raise ValueError(
            f"{len(raw_subtasks)} subtasks exceed the limit of {task.preferences.max_subtasks}")
    subtasks: list[Subtask] = []
    prompts: list[PromptSpec] = []
    for entry in raw_subtasks:
        sid = entry["id"]
        schema = decode(lambda fields: FeatureSchema.from_dict({"fields": fields}),
                        entry["fields"], lambda message: OutputParseError(
                            f'subtask {sid!r}: "fields" must be a list of objects with '
                            f'"name" and "kind" ({message})'))
        subtask = Subtask(id=sid, name=entry["name"], description=entry["description"],
                          output_schema=schema)
        subtasks.append(subtask)
        prompts.append(PromptSpec.draft(
            subtask.id, compose_system_prompt(task.task_description, entry["prompt"], schema)))
    # The Plan checks the reply's structure, then parses the logic against
    # the declared schemas and label set (DslError).
    return Plan(subtasks=tuple(subtasks), prompts=tuple(prompts), logic_source=logic_source,
                labels=task.preferences.output_labels, provenance=provenance)


def decompose(task: TaskSpec, gateway: Gateway, *,
              templates: TemplateSet | None = None,
              clock: Callable[[], str] | None = None) -> Plan:
    """Produce subtasks, draft prompts, and synthesis logic for a task.

    The returned plan has no synthetic sets yet; generate_synthetic fills
    them per subtask. Deterministic given a deterministic backend: no
    wall-clock enters provenance unless `clock` is supplied. A reply the
    Plan or the rule parser refuses gets a repair round-trip.
    """
    _require_cloud(gateway)
    templates = templates or TemplateSet.load()
    system = render(templates.decompose, {
        "task": task.task_description,
        "guideline": task.guideline,
        "labels": "\n".join(f"{lbl.ordinal}: {lbl.name}"
                            for lbl in task.preferences.output_labels),
        "max_subtasks": str(task.preferences.max_subtasks),
        "preferences": _preferences_text(task),
    })
    provenance: dict[str, object] = {
        "planner_model": gateway.profile.model or "",
        "meta_prompt_digests": templates.digests(),
        "task_digest": task_digest(task),
        "guideline_digest": sha256_text(task.guideline),
    }
    if clock is not None:
        provenance["created_at"] = clock()
    return _exchange(gateway, templates, system,
                     lambda raw: _interpret_plan_reply(raw, task, provenance))


def _interpret_cases_reply(raw: str, subtask: Subtask, count: int) -> list[SyntheticCase]:
    obj = extract_json_object(raw)
    raw_cases = obj.get("cases")
    if not isinstance(raw_cases, list) or not raw_cases:
        raise OutputParseError('reply needs a non-empty "cases" list')
    if len(raw_cases) < count:
        raise ValueError(f"got {len(raw_cases)} cases, need {count}")
    return [SyntheticCase(subtask_id=subtask.id, input_text=entry["input"],
                          expected=FeatureSet.from_raw(subtask.output_schema, entry["expected"]))
            for entry in raw_cases[:count]]


def _uncovered_values(subtask: Subtask, cases: Sequence[SyntheticCase]) -> list[str]:
    missing = []
    for f in subtask.output_schema.fields:
        seen = {case.expected.get(f.name) for case in cases}
        for value in f.legal_values():
            if value not in seen:
                missing.append(f"{f.name}={value}")
    return missing


def generate_synthetic(subtask: Subtask, guideline: str, gateway: Gateway, *,
                       count: int = UserPrefs.synthetic_cases_per_subtask,
                       templates: TemplateSet | None = None) -> list[SyntheticCase]:
    """Generate exactly `count` schema-conforming synthetic cases.

    Value coverage is best-effort: one re-prompt when reachable coverage is
    missed, a CoverageUnreachableWarning when the schema has more values
    than the case budget can ever cover.
    """
    _require_cloud(gateway)
    templates = templates or TemplateSet.load()
    system = render(templates.synthetic, {
        "subtask": f"{subtask.name}: {subtask.description}",
        "schema": _schema_text(subtask.output_schema),
        "guideline": guideline,
        "count": str(count),
    })
    cases = _exchange(gateway, templates, system,
                      lambda raw: _interpret_cases_reply(raw, subtask, count))

    needed = max((len(f.legal_values()) for f in subtask.output_schema.fields), default=0)
    uncovered = _uncovered_values(subtask, cases)
    if needed > count:
        warnings.warn(CoverageUnreachableWarning(
            f"subtask {subtask.id!r}: schema needs {needed} cases to cover every value, "
            f"budget is {count}"))
        return cases
    if uncovered:
        retry_system = (f"{system}\n\nYour previous set left these values uncovered: "
                        f"{', '.join(uncovered)}. Produce a complete replacement set of "
                        f"{count} cases that covers them all.")
        try:
            retry_cases = _exchange(gateway, templates, retry_system,
                                    lambda raw: _interpret_cases_reply(raw, subtask, count))
        except PlannerError:
            retry_cases = None
        if retry_cases is not None:
            retry_uncovered = _uncovered_values(subtask, retry_cases)
            if not retry_uncovered:
                return retry_cases
            if len(retry_uncovered) < len(uncovered):
                cases, uncovered = retry_cases, retry_uncovered
        warnings.warn(CoverageIncompleteWarning(
            f"subtask {subtask.id!r}: values still uncovered after retry: "
            f"{', '.join(uncovered)}"))
    return cases


def _failures_text(failures: Sequence[tuple[SyntheticCase, SubtaskRun]]) -> str:
    blocks = []
    for i, (case, run) in enumerate(failures, start=1):
        blocks.append(
            f"### Failure {i}\n"
            f"Input:\n{case.input_text}\n"
            f"Expected: {json.dumps(dict(case.expected.values), sort_keys=True, ensure_ascii=False)}\n"
            f"Actual:   {json.dumps(dict(run.output.values), sort_keys=True, ensure_ascii=False)}"
            f"{' (output was unparseable)' if run.parse_status == 'unparseable' else ''}\n"
            f"Local model reasoning:\n{run.reasoning or '(none)'}")
    return "\n\n".join(blocks)


def refine_prompt(prompt: PromptSpec, failures: Sequence[tuple[SyntheticCase, SubtaskRun]],
                  gateway: Gateway, *, schema: FeatureSchema,
                  templates: TemplateSet | None = None) -> PromptSpec:
    """Rewrite a failing prompt using the failing cases and reasoning traces.

    Returns a fresh draft at revision + 1. The subtask's format contract is
    re-appended if the rewrite dropped it.
    """
    if not failures:
        raise ValueError("refine_prompt: failures must be non-empty")
    _require_cloud(gateway)
    templates = templates or TemplateSet.load()
    system = render(templates.refine, {
        "prompt": prompt.system_prompt,
        "failures": _failures_text(failures),
    })

    def interpret(raw: str) -> str:
        obj = extract_json_object(raw)
        text = obj.get("system_prompt")
        if not isinstance(text, str) or not text.strip():
            raise OutputParseError('reply needs a non-empty "system_prompt"')
        return text

    new_text = _exchange(gateway, templates, system, interpret)
    contract = format_block(schema)
    if contract not in new_text:
        new_text = f"{new_text.strip()}\n\n{contract}"
    return prompt.with_revision(new_text)


def build_plan(task: TaskSpec, gateway: Gateway, *,
               templates: TemplateSet | None = None,
               clock: Callable[[], str] | None = None) -> Plan:
    """Full planning pass: decompose, then the synthetic sets of every subtask.

    The sets do not depend on each other, so they are requested at once:
    one executor.iter_lanes lane per subtask, as wide as the plan (at most
    max_subtasks) and not bounded by `workers`. The sets come back in
    subtask order. A failed subtask raises once the lanes in flight end,
    with the first failure in subtask order, so a later subtask's exchange
    may finish after an earlier one failed; coverage warnings are raised
    as lanes finish, in completion order.
    """
    templates = templates or TemplateSet.load()
    plan = decompose(task, gateway, templates=templates, clock=clock)
    # generate_synthetic is looked up per lane, so a wrapper on the module
    # global (the benchmark's tracer) sees every call.
    sets = iter_lanes(
        lambda subtask: generate_synthetic(
            subtask, task.guideline, gateway,
            count=task.preferences.synthetic_cases_per_subtask, templates=templates),
        plan.subtasks, width=len(plan.subtasks))
    return plan.with_synthetic_sets(
        {subtask.id: cases for subtask, cases in zip(plan.subtasks, sets)})
