"""Correctness oracle: every benchmark run is checked, and a run with a wrong
or missing result is reported as failed, never just timed."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class InferCheck:
    problems: list[str] = field(default_factory=list)
    runs: int = 0          # subtask runs in the predictions
    parse: Counter = field(default_factory=Counter)  # parse_status -> runs

    @property
    def ok(self) -> bool:
        return not self.problems


def check_infer(exit_code: int, predictions: Path, reference: dict[str, str]) -> InferCheck:
    """Exit 0, one prediction per reference document, each `final_label`
    equal to the reference label."""
    check = InferCheck()
    if exit_code != 0:
        check.problems.append(f"infer exited with code {exit_code}")
        return check
    seen: dict[str, str] = {}
    try:
        lines = predictions.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        check.problems.append(f"no predictions file: {exc}")
        return check
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            doc_id, label = record["document_id"], record["final_label"]
            for rnd in record["rounds"]:
                for run in rnd["runs"]:
                    check.runs += 1
                    check.parse[run["parse_status"]] += 1
        except (ValueError, KeyError, TypeError) as exc:
            check.problems.append(f"predictions line {lineno} is malformed: {exc}")
            continue
        if doc_id in seen:
            check.problems.append(f"document {doc_id} predicted twice")
        seen[doc_id] = label
    missing = sorted(set(reference) - set(seen))
    extra = sorted(set(seen) - set(reference))
    wrong = sorted(d for d in set(seen) & set(reference) if seen[d] != reference[d])
    if missing:
        check.problems.append(f"{len(missing)} documents missing, e.g. {missing[0]}")
    if extra:
        check.problems.append(f"{len(extra)} unexpected documents, e.g. {extra[0]}")
    for doc_id in wrong[:3]:
        check.problems.append(f"{doc_id}: predicted {seen[doc_id]!r}, "
                              f"reference {reference[doc_id]!r}")
    if len(wrong) > 3:
        check.problems.append(f"... {len(wrong) - 3} more wrong labels")
    return check


@dataclass
class ConnectedCheck:
    problems: list[str] = field(default_factory=list)
    prompts: int = 0
    refined: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_connected(exit_codes: dict[str, int], validated_plan: Path,
                    expected_revision: int, subtasks: tuple[str, ...]) -> ConnectedCheck:
    """Every command exits 0 (`unpack` included, which verifies the bundle)
    and every prompt is `refined` at the expected revision."""
    check = ConnectedCheck()
    for command, code in exit_codes.items():
        if code != 0:
            check.problems.append(f"{command} exited with code {code}")
    try:
        plan = json.loads(validated_plan.read_text(encoding="utf-8"))["plan"]
        prompts = {p["subtask_id"]: p for p in plan["prompts"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check.problems.append(f"validated plan unreadable: {exc}")
        return check
    check.prompts = len(prompts)
    if sorted(prompts) != sorted(subtasks):
        check.problems.append(f"plan has subtasks {sorted(prompts)}, expected {sorted(subtasks)}")
    for subtask_id, prompt in sorted(prompts.items()):
        if prompt.get("status") == "refined":
            check.refined += 1
        if (prompt.get("status"), prompt.get("revision")) != ("refined", expected_revision):
            check.problems.append(
                f"{subtask_id}: status {prompt.get('status')!r} at revision "
                f"{prompt.get('revision')!r}, expected 'refined' at {expected_revision}")
    return check
