"""Every JSON byte form and content digest orchkit writes, defined once.

The planner and the executor never share a process; they meet only through
files and digests, so these forms are the interface between them:

  * canonical_json -- sorted keys, compact separators, UTF-8, no NaN.
    The bundle body and its section hashes, and the payload behind every
    digest below.
  * digest / sha256_text -- SHA-256 hex. Request digests keying scripted
    and recorded sessions, task and guideline digests in plan provenance,
    meta-prompt template digests, bundle section hashes and trailer.
  * jsonl_line / read_jsonl -- JSON lines, sorted keys, UTF-8. Recorded
    sessions, predictions output, document and labeled-set inputs.
  * write_json -- indented, sorted keys, UTF-8, trailing newline. Plan
    files, validation history, inference summary, evaluation report.

Imports nothing from orchkit, so any module can use it without a cycle.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

T = TypeVar("T")


def canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(value: object) -> str:
    """SHA-256 of a value's canonical JSON."""
    return sha256_text(canonical_json(value))


def jsonl_line(record: object) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def read_jsonl(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """`build` applied to the record on each non-blank line, in file order.

    A line that is not JSON, or a record `build` rejects with KeyError,
    TypeError or ValueError, raises ValueError naming the file and line.
    """
    values = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.append(build(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return values


def write_json(path: str | Path, value: object) -> None:
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
                          + "\n", encoding="utf-8")
