"""Serialized forms: the plan file and the air-gapped artifact bundle.

The bundle is a single canonical-JSON document (sorted keys, compact
separators, UTF-8) with per-section SHA-256 hashes inside it and a
whole-file hash trailer appended as the final line:

    {"integrity": {...}, "sections": {...}}
    #sha256:<64 hex digits>

Canonical form means identical plans pack to byte-identical bundles, the
file is human-auditable before it crosses the air gap, and any single-byte
mutation is caught by the trailer hash before content is yielded. Bundles
carry only planner-phase artifacts; at least one synthetic case per subtask
rides along, so the isolated side can re-validate every prompt first.

unpack is the one place a bundle becomes a plan: it returns the verified
sections with the Plan and RuntimeDefaults it built while checking them.
A body canonical JSON cannot hold (NaN, an infinity, a number out of
range, or nesting too deep to parse) is a malformed bundle. RuntimeDefaults,
the `runtime` section, is orchkit.config's, with the defaults and bounds of
its settings; it is importable from here as well.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from pathlib import Path

from .config import DEFAULT_MIN_CASES, RuntimeDefaults
from .errors import BundleError, DslError
from .jsonio import (
    canonical_json,
    decode,
    digest,
    loads,
    read_json,
    sha256_text,
    write_json,
    write_whole,
)
from .model import (
    CaseResult,
    FeatureSchema,
    FeatureSet,
    OutcomeLabel,
    Plan,
    PromptSpec,
    Record,
    Subtask,
    SubtaskRun,
    SyntheticCase,
    ValidationReport,
    validate_plan,
)

FORMAT_VERSION = "1.0.0"
_TRAILER_PREFIX = "#sha256:"
_EPOCH = "1970-01-01T00:00:00Z"


# ---------------------------------------------------------------------------
# Model <-> dict
# ---------------------------------------------------------------------------

def _subtask_to_dict(subtask: Subtask) -> dict:
    return {"id": subtask.id, "name": subtask.name,
            "description": subtask.description,
            "schema": subtask.output_schema.to_dict()}


def _subtask_from_dict(data: Mapping) -> Subtask:
    return Subtask(id=data["id"], name=data["name"],
                   description=data["description"],
                   output_schema=FeatureSchema.from_dict(data["schema"]))


def _case_to_dict(case: SyntheticCase) -> dict:
    return {"input_text": case.input_text, "expected": dict(case.expected.values)}


def _case_from_dict(data: Mapping, subtask_id: str) -> SyntheticCase:
    return SyntheticCase(subtask_id=subtask_id, input_text=data["input_text"],
                         expected=FeatureSet(data["expected"]))


def report_to_dict(report: ValidationReport) -> dict:
    """A validation run as the bundle stores it, and `validate --emit-history`
    writes each revision's."""
    return {
        "subtask_id": report.subtask_id,
        "revision": report.revision,
        "passes": report.passes,
        "total": report.total,
        "verdict": report.verdict,
        "results": [{
            "case_index": r.case_index,
            "passed": r.passed,
            "reason": r.reason,
            "case": _case_to_dict(r.case),
            "run": {"document_id": r.run.document_id,
                    "reasoning": r.run.reasoning,
                    "output": dict(r.run.output.values),
                    "parse_status": r.run.parse_status},
        } for r in report.results],
    }


def _report_from_dict(data: Mapping, subtask_id: str) -> ValidationReport:
    results = []
    for entry in data["results"]:
        run = SubtaskRun(subtask_id=subtask_id,
                         document_id=entry["run"]["document_id"],
                         reasoning=entry["run"]["reasoning"],
                         output=FeatureSet(entry["run"]["output"]),
                         parse_status=entry["run"]["parse_status"])
        results.append(CaseResult(case_index=entry["case_index"],
                                  case=_case_from_dict(entry["case"], subtask_id), run=run,
                                  passed=entry["passed"], reason=entry["reason"]))
    return ValidationReport(subtask_id=data["subtask_id"], revision=data["revision"],
                            results=tuple(results), passes=data["passes"],
                            total=data["total"], verdict=data["verdict"])


def _prompt_to_dict(prompt: PromptSpec) -> dict:
    report = prompt.report
    return {"subtask_id": prompt.subtask_id,
            "system_prompt": prompt.system_prompt,
            "revision": prompt.revision,
            "status": prompt.status,
            "report": None if report is None else report_to_dict(report)}


def _prompt_from_dict(data: Mapping) -> PromptSpec:
    report = data.get("report")
    return PromptSpec(subtask_id=data["subtask_id"],
                      system_prompt=data["system_prompt"],
                      revision=data["revision"], status=data["status"],
                      report=_report_from_dict(report, data["subtask_id"])
                      if report else None)


def plan_to_dict(plan: Plan) -> dict:
    return {
        "subtasks": [_subtask_to_dict(s) for s in plan.subtasks],
        "prompts": [_prompt_to_dict(p) for p in plan.prompts],
        "logic_source": plan.logic_source,
        "labels": [lbl.name for lbl in plan.labels],
        "synthetic_sets": {sid: [_case_to_dict(c) for c in cases]
                           for sid, cases in plan.synthetic_sets.items()},
        "provenance": dict(plan.provenance),
    }


def plan_from_dict(data: Mapping) -> Plan:
    """The plan a plan file or bundle holds; a structure Plan refuses raises
    ValueError, so no command reaches a model call with one."""
    labels = tuple(OutcomeLabel(name, i) for i, name in enumerate(data["labels"]))
    sets = {sid: tuple(_case_from_dict(c, sid) for c in cases)
            for sid, cases in data["synthetic_sets"].items()}
    return Plan(subtasks=tuple(_subtask_from_dict(s) for s in data["subtasks"]),
                prompts=tuple(_prompt_from_dict(p) for p in data["prompts"]),
                logic_source=data["logic_source"], labels=labels,
                synthetic_sets=sets, provenance=dict(data["provenance"]))


# ---------------------------------------------------------------------------
# Plan files (pre-bundle, planner-side)
# ---------------------------------------------------------------------------

_PLAN_FORMAT = "orchkit-plan/1"


def save_plan(plan: Plan, path: str | Path) -> None:
    write_json(path, {"format": _PLAN_FORMAT, "plan": plan_to_dict(plan)})


def load_plan(path: str | Path) -> Plan:
    """The plan a plan file holds. Every failure raises ValueError naming the
    file, a rule program that does not parse as `synthesis logic: …`."""
    def build(payload: object) -> Plan:
        if not isinstance(payload, dict) or payload.get("format") != _PLAN_FORMAT:
            raise ValueError(f"not a plan file (expected format {_PLAN_FORMAT})")
        try:
            return plan_from_dict(payload["plan"])
        except DslError as exc:
            raise ValueError(f"synthesis logic: {exc}") from exc

    try:
        return read_json(path, build)
    except OSError as exc:
        raise ValueError(f"cannot read plan file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

class ArtifactBundle(Record):
    """What unpack verified: the sections, their plan and its runtime defaults."""

    sections: Mapping[str, object]
    plan: Plan
    runtime: RuntimeDefaults

    def to_plan(self) -> Plan:
        return self.plan


def _sections_for(plan: Plan, runtime: RuntimeDefaults, *, created_at: str,
                  allow_failed: bool, guideline_body: str | None) -> dict:
    from .ruledsl import pretty

    plan_dict = plan_to_dict(plan)
    meta = {
        "format_version": FORMAT_VERSION,
        "created_at": created_at,
        "task_digest": plan.provenance.get("task_digest", ""),
        "guideline_digest": plan.provenance.get("guideline_digest", ""),
        "allow_failed": allow_failed,
    }
    if guideline_body is not None:
        meta["guideline_body"] = guideline_body
    return {
        "meta": meta,
        "subtasks": plan_dict["subtasks"],
        "prompts": plan_dict["prompts"],
        # Source travels verbatim; the digest is over the canonical parsed
        # form so the isolated side can prove its re-parse means the same.
        "logic": {"source": plan.logic_source,
                  "parsed_digest": sha256_text(pretty(plan.parsed_logic()))},
        "labels": plan_dict["labels"],
        "synthetic": plan_dict["synthetic_sets"],
        "runtime": runtime.to_dict(),
        "provenance": plan_dict["provenance"],
    }


def _render(sections: dict) -> bytes:
    integrity = {"algo": "sha256",
                 "sections": {name: digest(value) for name, value in sections.items()}}
    body = canonical_json({"integrity": integrity, "sections": sections}) + "\n"
    trailer = _TRAILER_PREFIX + sha256_text(body) + "\n"
    return (body + trailer).encode("utf-8")


def _require_refined(plan: Plan, allow_failed: bool) -> None:
    """A bundle holds no draft prompt, and a failed one only with allow_failed."""
    bad = [p.subtask_id for p in plan.prompts if p.status == "draft"
           or (p.status == "failed" and not allow_failed)]
    if bad:
        raise ValueError(
            f"prompts not refined for subtasks: {', '.join(sorted(bad))}"
            + ("" if allow_failed else " (use allow_failed to pack failed prompts)"))


def pack(plan: Plan, runtime: RuntimeDefaults | None = None, *,
         created_at: str | None = None, allow_failed: bool = False,
         guideline_body: str | None = None, min_cases: int = DEFAULT_MIN_CASES) -> bytes:
    """Serialize a validated plan for the air-gapped handoff.

    created_at defaults to the epoch so packing is reproducible; pass a real
    timestamp explicitly when provenance matters more than determinism.
    """
    if violations := validate_plan(plan, min_cases=min_cases):
        raise ValueError("; ".join(violations))
    if guideline_body is not None and \
            sha256_text(guideline_body) != plan.provenance.get("guideline_digest"):
        raise ValueError("guideline body does not match the plan's guideline_digest")
    _require_refined(plan, allow_failed)
    sections = _sections_for(plan, runtime or RuntimeDefaults(),
                             created_at=created_at or _EPOCH,
                             allow_failed=allow_failed, guideline_body=guideline_body)
    return _render(sections)


def _finite(text: str) -> float:
    """A JSON number, or the NaN or Infinity json also reads, as a float
    canonical JSON can hold."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a number canonical JSON can hold")
    return value


def unpack(data: bytes) -> ArtifactBundle:
    """Verify every hash, then return the bundle's sections with the Plan
    and RuntimeDefaults they hold, each built once, here.

    Nothing is returned unless the whole-file trailer, the per-section
    hashes, the format major version, and the digests written inside the
    bundle (the parsed rule program's, and the guideline's when its body
    rides along) all check out, and the bundle holds a plan `pack` would
    write: one Plan accepts, with its rule program parsed once there and a
    case per subtask (validate_plan), whose prompts `pack`'s status rule
    accepts. Only pack and unpack check that rule.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleError(f"bundle is not UTF-8: {exc}") from exc
    marker = text.rfind(_TRAILER_PREFIX)
    if marker == -1 or (marker > 0 and text[marker - 1] != "\n"):
        raise BundleError("bundle has no hash trailer")
    body = text[:marker]
    trailer = text[marker + len(_TRAILER_PREFIX):]
    # Exactly 64 lowercase hex digits and a newline; anything else (stray
    # whitespace included) is a mutation, not a cosmetic difference.
    if not re.fullmatch(r"[0-9a-f]{64}\n", trailer):
        raise BundleError("bundle hash trailer is malformed")
    expected = trailer.strip()
    actual = sha256_text(body)
    if actual != expected:
        raise BundleError(
            f"whole-file hash mismatch: trailer {expected[:12]}…, computed {actual[:12]}…")
    try:
        document = loads(body, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise BundleError(f"bundle body is not JSON: {exc}") from exc
    if not (isinstance(document, dict) and isinstance(document.get("sections"), dict)
            and isinstance(document.get("integrity"), dict)):
        raise BundleError("bundle body lacks sections/integrity objects")
    sections = document["sections"]
    recorded = document["integrity"].get("sections", {})
    if not isinstance(recorded, dict) or set(recorded) != set(sections):
        raise BundleError("integrity map does not cover the sections")
    for name, value in sections.items():
        if digest(value) != recorded[name]:
            raise BundleError(f"section {name!r} hash mismatch")
    meta = sections.get("meta", {})
    if not isinstance(meta, dict):
        raise BundleError("bundle meta section must be a JSON object")
    version = meta.get("format_version", "")
    if not isinstance(version, str):
        raise BundleError(f"meta.format_version must be a string, got {version!r}")
    major = version.split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if major != ours:
        raise BundleError(
            f"bundle format {version} is incompatible with reader {FORMAT_VERSION}")
    # Section hashes prove the bytes are as packed, not that the digests
    # written in them are true or the plan usable: a bundle re-rendered
    # around a false claim, or around a plan pack refuses, passes every hash.
    from .ruledsl import pretty

    def build(s: dict) -> ArtifactBundle:
        plan = plan_from_dict({
            "subtasks": s["subtasks"], "prompts": s["prompts"],
            "logic_source": s["logic"]["source"], "labels": s["labels"],
            "synthetic_sets": s["synthetic"], "provenance": s["provenance"]})
        logic = plan.parsed_logic()
        runtime = RuntimeDefaults.from_dict(s["runtime"])
        allow_failed = meta.get("allow_failed", False)
        if not isinstance(allow_failed, bool):
            raise ValueError(f"meta.allow_failed: must be true or false, got {allow_failed!r}")
        _require_refined(plan, allow_failed)
        if shortfalls := validate_plan(plan, min_cases=DEFAULT_MIN_CASES):
            raise ValueError("; ".join(shortfalls))
        if sha256_text(pretty(logic)) != s["logic"]["parsed_digest"]:
            raise BundleError("rule program does not match logic.parsed_digest")
        guideline = meta.get("guideline_body")
        if guideline is not None and sha256_text(guideline) != meta.get("guideline_digest"):
            raise BundleError("guideline_body does not match meta.guideline_digest")
        return ArtifactBundle(s, plan, runtime)

    def unusable(message: str) -> BundleError:
        return BundleError(f"bundle does not hold a usable plan: {message}")

    try:
        return decode(build, sections, unusable)
    except (DslError, ValueError) as exc:
        raise unusable(str(exc)) from exc


def write_bundle(data: bytes, path: str | Path) -> None:
    write_whole(path, data)


def read_bundle(path: str | Path) -> ArtifactBundle:
    """unpack over a bundle file; a BundleError names the file."""
    try:
        return unpack(Path(path).read_bytes())
    except BundleError as exc:
        raise BundleError(f"{path}: {exc}") from exc
