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
    Like every whole-file output (the bundle and the confusion CSV too),
    it goes through write_whole: the file holds all of it or what it
    held before.
    read_json reads one JSON document back: a plan file, the planning
    preferences or an inference summary.
  * read_text -- UTF-8 text: config, task, guideline, template, CSV and
    directory document files. With read_jsonl it decodes every file
    orchkit reads as text, so bytes that are not UTF-8 name file and line.

loads parses every JSON document orchkit reads, a model reply's envelope
included; only a completion's text, which may wrap its object in prose,
is scanned by parsing.extract_json_object instead. Either refuses JSON
nested too deeply to parse as it refuses JSON that does not parse. decode
builds a value from JSON orchkit did not write, and record_id reads a
document id in it. Imports nothing from orchkit, so any module can use it
without a cycle.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
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


def loads(text: str | bytes, **hooks: Callable[[str], object]) -> object:
    """json.loads with `hooks`, except that JSON nested too deeply for the
    parser raises ValueError, as JSON that does not parse does, rather than
    RecursionError."""
    try:
        return json.loads(text, **hooks)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


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
        return decode(build, loads(text), ValueError)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _utf8(line: str, path: str | Path, lineno: int) -> str:
    """A line read with errors="surrogateescape", checked: a byte in it that
    is not UTF-8 raises ValueError naming the file and line."""
    try:
        return line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from exc


def read_text(path: str | Path, build: Callable[[str], T] = str, *,
              newline: str | None = None) -> T:
    """`build` applied to a file's text, decoded as UTF-8 with `newline` as
    open() takes it. Bytes that are not UTF-8 raise ValueError naming the
    file and line, e.g. `orch.cfg:2: 'utf-8' codec can't decode byte 0xff in
    position 11: invalid start byte` (the position within the line); a
    ValueError from `build` is raised naming the file."""
    with Path(path).open(encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        text = "".join(_utf8(line, path, lineno) for lineno, line in enumerate(fh, start=1))
    try:
        return build(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """`build` applied to the record on each non-blank line, in file order.

    A line that is not UTF-8 or not JSON, a record of the wrong shape (see
    decode) or one `build` rejects with ValueError raises ValueError naming
    the file and line, e.g. `gt.jsonl:3: missing key 'label'`.
    """
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        return [_build(build, _utf8(line, path, lineno), f"{path}:{lineno}")
                for lineno, line in enumerate(fh, start=1) if line.strip()]


def read_json(path: str | Path, build: Callable[[object], T]) -> T:
    """`build` applied to the JSON document in a file; failures as in read_jsonl,
    naming the file."""
    return _build(build, read_text(path), str(path))


def write_whole(path: str | Path, data: bytes) -> None:
    """Make `data` the whole of the file at `path`, or leave that file as it
    was. The bytes go to a new file beside it, flushed and fsynced, which
    then replaces it; on any failure the new file is removed. As with a
    plain write, a symlink is written through, the file keeps an existing
    file's permission bits (a new one gets 0o666 less the umask), and a
    target that is not a regular file (/dev/null, a pipe) is written in place.
    """
    target = Path(os.path.realpath(path))
    try:
        mode = target.stat().st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        target.write_bytes(data)
        return
    staged = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as a plain open names it
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        os.replace(staged, target)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, value: object) -> None:
    write_whole(path, (json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
                       + "\n").encode("utf-8"))
