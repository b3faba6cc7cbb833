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

decode is the one reader of JSON orchkit did not write, and record_id the
one reader of a document id in it. Imports nothing from orchkit, so any
module can use it without a cycle.
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


def decode(build: Callable[[object], T], value: object,
           error: Callable[[str], Exception]) -> T:
    """`build` over an untrusted JSON value. The KeyError, IndexError,
    TypeError or AttributeError a wrong shape raises becomes `error(message)`;
    other errors pass through, so value types check themselves, uncoerced."""
    try:
        return build(value)
    except KeyError as exc:
        raise error(f"missing key {exc}") from exc
    except (IndexError, TypeError, AttributeError) as exc:
        raise error(str(exc)) from exc


def record_id(value: object) -> str:
    """A document id read from a JSON record: a string, or an integer in its
    decimal form. A bool or any other value raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"id must be a string or an integer, got {value!r}")
    return str(value)


def _build(build: Callable[[object], T], text: str, where: str) -> T:
    """decode over the JSON in `text`; any failure raises ValueError naming `where`."""
    try:
        return decode(build, json.loads(text), ValueError)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def read_jsonl(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """`build` applied to the record on each non-blank line, in file order.

    A line that is not JSON, a record of the wrong shape (see decode) or one
    `build` rejects with ValueError raises ValueError naming the file and
    line, e.g. `gt.jsonl:3: missing key 'label'`.
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
