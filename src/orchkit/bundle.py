"""Serialized forms: the plan file and the air-gapped artifact bundle.

The bundle is a single canonical-JSON document (sorted keys, compact
separators, UTF-8) with per-section SHA-256 hashes inside it and a
whole-file hash trailer appended as the final line:

    {"integrity": {...}, "sections": {...}}
    #sha256:<64 hex digits>

Canonical form means identical plans pack to byte-identical bundles, the
file is human-auditable before it crosses the air gap, and any single-byte
mutation is caught by the trailer hash before content is yielded. Bundles
carry only planner-phase artifacts; the synthetic sets ride along so the
isolated side can re-validate prompts before touching real documents.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import BundleError, DslError
from .gateway import DEFAULT_CONTEXT, DEFAULT_TEMPERATURE, PHASE_LOCAL
from .jsonio import canonical_json, decode, digest, read_json, sha256_text, write_json
from .model import (
    FeatureSchema,
    FeatureSet,
    OutcomeLabel,
    Plan,
    PromptSpec,
    Subtask,
    SubtaskRun,
    SyntheticCase,
    validate_plan,
)
from .validator import CaseResult, ValidationReport

FORMAT_VERSION = "1.0.0"
BUNDLE_EXTENSION = ".orchb"
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


def _report_to_dict(report: ValidationReport) -> dict:
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
            "report": _report_to_dict(report) if isinstance(report, ValidationReport) else None}


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
    """The plan a plan file or bundle holds; one with a subtask that has no
    prompt is refused, so no command reaches a model call without one."""
    labels = tuple(OutcomeLabel(name, i) for i, name in enumerate(data["labels"]))
    sets = {sid: tuple(_case_from_dict(c, sid) for c in cases)
            for sid, cases in data["synthetic_sets"].items()}
    plan = Plan(subtasks=tuple(_subtask_from_dict(s) for s in data["subtasks"]),
                prompts=tuple(_prompt_from_dict(p) for p in data["prompts"]),
                logic_source=data["logic_source"], labels=labels,
                synthetic_sets=sets, provenance=dict(data["provenance"]))
    for subtask in plan.subtasks:
        if plan.prompt_for(subtask.id) is None:
            raise ValueError(f"no prompt for subtask {subtask.id!r}")
    return plan


# ---------------------------------------------------------------------------
# Plan files (pre-bundle, planner-side)
# ---------------------------------------------------------------------------

_PLAN_FORMAT = "orchkit-plan/1"


def save_plan(plan: Plan, path: str | Path) -> None:
    write_json(path, {"format": _PLAN_FORMAT, "plan": plan_to_dict(plan)})


def load_plan(path: str | Path) -> Plan:
    def build(payload: object) -> Plan:
        if not isinstance(payload, dict) or payload.get("format") != _PLAN_FORMAT:
            raise ValueError(f"not a plan file (expected format {_PLAN_FORMAT})")
        return plan_from_dict(payload["plan"])

    try:
        return read_json(path, build)
    except OSError as exc:
        raise ValueError(f"cannot read plan file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeDefaults:
    """Execution-side knobs that travel with the bundle."""

    rounds: int = 5
    local_temperature: float = DEFAULT_TEMPERATURE[PHASE_LOCAL]
    local_context: int = DEFAULT_CONTEXT
    threshold: float = 0.80

    def __post_init__(self):
        # The config's bounds; a bool is not a number here, as in JSON.
        for name, kinds, holds, bounds in (
                ("rounds", int, lambda v: v >= 1, "an integer >= 1"),
                ("local_temperature", (int, float), lambda v: 0.0 <= v <= 2.0,
                 "a number in [0, 2]"),
                ("local_context", int, lambda v: v >= 1, "an integer >= 1"),
                ("threshold", (int, float), lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds) or not holds(value):
                raise ValueError(f"RuntimeDefaults.{name}: must be {bounds}, got {value!r}")

    def to_dict(self) -> dict:
        return {"rounds": self.rounds, "local_temperature": self.local_temperature,
                "local_context": self.local_context, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RuntimeDefaults":
        return cls(rounds=data["rounds"], local_temperature=data["local_temperature"],
                   local_context=data["local_context"], threshold=data["threshold"])


@dataclass(frozen=True)
class ArtifactBundle:
    """Verified view over unpacked bundle sections."""

    sections: Mapping[str, object]

    @property
    def format_version(self) -> str:
        return self.sections["meta"]["format_version"]  # type: ignore[index]

    @property
    def created_at(self) -> str:
        return self.sections["meta"]["created_at"]  # type: ignore[index]

    @property
    def allow_failed(self) -> bool:
        return self.sections["meta"].get("allow_failed", False)  # type: ignore[union-attr]

    def runtime(self) -> RuntimeDefaults:
        return RuntimeDefaults.from_dict(self.sections["runtime"])  # type: ignore[arg-type]

    def to_plan(self) -> Plan:
        s = self.sections
        return plan_from_dict({
            "subtasks": s["subtasks"], "prompts": s["prompts"],
            "logic_source": s["logic"]["source"], "labels": s["labels"],
            "synthetic_sets": s["synthetic"], "provenance": s["provenance"],
        })


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


def pack(plan: Plan, runtime: RuntimeDefaults | None = None, *,
         created_at: str | None = None, allow_failed: bool = False,
         guideline_body: str | None = None, min_cases: int = 1) -> bytes:
    """Serialize a validated plan for the air-gapped handoff.

    created_at defaults to the epoch so packing is reproducible; pass a real
    timestamp explicitly when provenance matters more than determinism.
    """
    violations = validate_plan(plan, min_cases=min_cases)
    if violations:
        raise ValueError("; ".join(violations))
    if guideline_body is not None and \
            sha256_text(guideline_body) != plan.provenance.get("guideline_digest"):
        raise ValueError("guideline body does not match the plan's guideline_digest")
    bad = [p.subtask_id for p in plan.prompts if p.status == "draft"
           or (p.status == "failed" and not allow_failed)]
    if bad:
        raise ValueError(
            f"prompts not refined for subtasks: {', '.join(sorted(bad))}"
            + ("" if allow_failed else " (use allow_failed to pack failed prompts)"))
    sections = _sections_for(plan, runtime or RuntimeDefaults(),
                             created_at=created_at or _EPOCH,
                             allow_failed=allow_failed, guideline_body=guideline_body)
    return _render(sections)


def unpack(data: bytes) -> ArtifactBundle:
    """Verify every hash, then yield the bundle contents.

    Nothing is returned unless the whole-file trailer, the per-section
    hashes, the format major version, and the digests written inside the
    bundle (the parsed rule program's, and the guideline's when its body
    rides along) all check out.
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
        document = json.loads(body)
    except json.JSONDecodeError as exc:
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
    version = str(meta.get("format_version", ""))
    major = version.split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if major != ours:
        raise BundleError(
            f"bundle format {version} is incompatible with reader {FORMAT_VERSION}")
    bundle = ArtifactBundle(sections=sections)
    _check_written_digests(bundle)
    return bundle


def _check_written_digests(bundle: ArtifactBundle) -> None:
    """Section hashes prove the bytes are as packed, not that the digests
    written in them are true: a bundle re-rendered around a false claim
    passes every hash."""
    from .ruledsl import pretty

    def check(artifact: ArtifactBundle) -> None:
        logic = artifact.to_plan().parsed_logic()
        artifact.runtime()
        if not isinstance(artifact.allow_failed, bool):
            raise ValueError(f"meta.allow_failed: must be true or false, "
                             f"got {artifact.allow_failed!r}")
        if sha256_text(pretty(logic)) != artifact.sections["logic"]["parsed_digest"]:
            raise BundleError("rule program does not match logic.parsed_digest")
        meta = artifact.sections["meta"]
        body = meta.get("guideline_body")
        if body is not None and sha256_text(body) != meta.get("guideline_digest"):
            raise BundleError("guideline_body does not match meta.guideline_digest")

    def unusable(message: str) -> BundleError:
        return BundleError(f"bundle does not hold a usable plan: {message}")

    try:
        decode(check, bundle, unusable)
    except (DslError, ValueError) as exc:
        raise unusable(str(exc)) from exc


def write_bundle(data: bytes, path: str | Path) -> None:
    Path(path).write_bytes(data)


def read_bundle(path: str | Path) -> ArtifactBundle:
    """unpack over a bundle file; a BundleError names the file."""
    try:
        return unpack(Path(path).read_bytes())
    except BundleError as exc:
        raise BundleError(f"{path}: {exc}") from exc
