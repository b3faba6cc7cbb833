"""Whole-file outputs are written whole or not at all.

The plan file, the bundle, the inference summary and the confusion CSV are
each replaced in one step: a write that fails partway (here: past a file
size limit, as on a full disk) leaves the previous file byte for byte and
no other file beside it. A write that succeeds keeps what a plain write
gave: an existing file's permission bits, a new file's 0o666 less the
umask, a symlink written through, and a target that is not a regular file
written in place.
"""

from __future__ import annotations

import contextlib
import os
import signal
import stat

import pytest

from orchkit.bundle import pack, save_plan, write_bundle
from orchkit.evalkit import LabeledSet, confusion_to_csv, evaluate_report
from orchkit.jsonio import write_json

from conftest import LABEL_NAMES, golden_plan, refined_plan

resource = pytest.importorskip("resource")  # POSIX


@contextlib.contextmanager
def _file_size_limit(size: int):
    """Writing past `size` bytes of any file fails with EFBIG (OSError)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _report(labels):
    gt = LabeledSet("gt", {f"d{i}": label for i, label in enumerate(labels)})
    return evaluate_report(gt, gt, list(labels))


# Writer -> (its earlier output, its next one): each next one is longer than
# the size limit below.
WRITERS = {
    "plan": (lambda path: save_plan(golden_plan(), path),
             lambda path: save_plan(refined_plan(), path)),
    "bundle": (lambda path: write_bundle(pack(refined_plan()), path),
               lambda path: write_bundle(pack(refined_plan(), allow_failed=True), path)),
    "summary": (lambda path: write_json(path, {"documents": 1}),
                lambda path: write_json(path, {"documents": 5, "labels": list(LABEL_NAMES)})),
    "CSV": (lambda path: confusion_to_csv(_report(LABEL_NAMES[:2]), path),
            lambda path: confusion_to_csv(_report(LABEL_NAMES), path)),
}
LIMIT = 40  # bytes


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_failing_partway_leaves_the_previous_file_and_no_other(tmp_path, writer):
    earlier, later = WRITERS[writer]
    path = tmp_path / "out"
    earlier(path)
    before = path.read_bytes()
    later(tmp_path / "probe")  # builds every value and imports every module first
    assert (tmp_path / "probe").stat().st_size > LIMIT
    (tmp_path / "probe").unlink()
    with pytest.raises(OSError), _file_size_limit(LIMIT):
        later(path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("writer", WRITERS)
def test_a_whole_write_keeps_an_existing_files_mode_and_a_new_files_umask(tmp_path, writer):
    earlier, later = WRITERS[writer]
    kept, new = tmp_path / "kept", tmp_path / "new"
    earlier(kept)
    kept.chmod(0o640)
    mask = os.umask(0o027)
    try:
        later(kept)
        later(new)
    finally:
        os.umask(mask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o640  # 0o666 less the umask
    assert kept.read_bytes() == new.read_bytes()
    assert sorted(tmp_path.iterdir()) == [kept, new]


def test_a_whole_write_goes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    write_json(target, {"run": 1})
    link.symlink_to(target)
    write_json(link, {"run": 2})
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text(encoding="utf-8") == '{\n  "run": 2\n}\n'
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "later.json")
    write_json(dangling, {"run": 3})
    assert dangling.is_symlink() and (tmp_path / "later.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.json", "later.json", "link.json", "target.json"]


def test_a_whole_write_to_a_pipe_writes_into_the_pipe(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json(fifo, {"run": 1})
        assert os.read(reader, 1024) == b'{\n  "run": 1\n}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [fifo]
