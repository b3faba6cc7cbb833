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
    read_json reads one JSON document back: a plan file, the planning
    preferences or an inference summary.

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


def _build(build: Callable[[object], T], text: str, where: str) -> T:
    """`build` over the JSON in `text`; a failure raises ValueError naming `where`."""
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def read_jsonl(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """`build` applied to the record on each non-blank line, in file order.

    A line that is not JSON, or a record `build` rejects with KeyError,
    AttributeError, TypeError or ValueError, raises ValueError naming the
    file and line.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        return [_build(build, line, f"{path}:{lineno}")
                for lineno, line in enumerate(fh, start=1) if line.strip()]


def read_json(path: str | Path, build: Callable[[object], T]) -> T:
    """`build` applied to the JSON document in a file; failures as in read_jsonl,
    naming the file."""
    return _build(build, Path(path).read_text(encoding="utf-8"), str(path))


def write_json(path: str | Path, value: object) -> None:
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
                          + "\n", encoding="utf-8")
