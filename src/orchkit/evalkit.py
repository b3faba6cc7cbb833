"""Scoring and reporting: accuracy with indeterminate exclusion, Cohen's
kappa, confusion matrices, and side-by-side comparison tables.

Ground-truth entries labeled "indeterminate" are excluded from scoring
entirely; a prediction source, by contrast, owes a real label for every
scored document, so an indeterminate or undeclared prediction counts as a
miss (it lands in no confusion cell and is tallied separately). All
intermediate arithmetic is exact rational; floats appear only in reports.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

from .jsonio import read_jsonl, read_text, record_id, write_whole
from .model import Record

INDETERMINATE = "indeterminate"


def _canon(label: str) -> str:
    return label.strip().casefold()


class LabeledSet(Record):
    """Document id -> label from one source (gt, system, annotator-k), in
    file order; `load_labeled` refuses a repeated id."""

    source: str
    by_id: dict[str, str]


def kappa_from_matrix(matrix: Sequence[Sequence[int]]) -> tuple[float, bool]:
    """(Cohen's kappa, degenerate) from a square confusion matrix, in exact
    arithmetic. Two cases are degenerate: single-class marginals (chance
    agreement 1) give kappa 1, and an empty matrix (nothing scored, or every
    prediction outside the label order) gives kappa 0."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("kappa_from_matrix: matrix must be square")
    total = sum(sum(row) for row in matrix)
    if total == 0:
        return 0.0, True
    p_o = Fraction(sum(matrix[i][i] for i in range(k)), total)
    p_e = sum((Fraction(sum(matrix[i]), total) * Fraction(sum(row[i] for row in matrix), total)
               for i in range(k)), start=Fraction(0))
    if p_e == 1:
        return 1.0, True
    return float((p_o - p_e) / (1 - p_e)), False


def label_index(labels: Sequence[str]) -> dict[str, int]:
    """Canonical label -> position in a label order; an order naming one
    label twice raises ValueError."""
    index: dict[str, int] = {}
    for lbl in labels:
        if _canon(lbl) in index:
            raise ValueError(f"label order names {lbl!r} twice "
                             "(labels compare case-insensitively)")
        index[_canon(lbl)] = len(index)
    return index


class EvalReport(Record):
    source: str
    n_total: int
    n_excluded: int
    n_scored: int
    accuracy: float
    accuracy_percent: float
    kappa: float
    kappa_degenerate: bool
    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    per_stage_recall: dict[str, float | None]
    n_unmatched_pred: int

    def to_dict(self) -> dict:
        """The report as JSON values; the matrix is keyed "confusion"."""
        payload = dict(vars(self), labels=list(self.labels),
                       confusion=[list(row) for row in self.matrix],
                       per_stage_recall=dict(self.per_stage_recall))
        del payload["matrix"]
        return payload


def evaluate_report(pred: LabeledSet, gt: LabeledSet,
                    labels: Sequence[str] | None = None) -> EvalReport:
    """Score `pred` against `gt` in one pass over the ground truth.

    The matrix (rows = GT, columns = predicted) is in `labels` order, which
    may not name a label twice, else in GT appearance order. A prediction
    outside it is a miss in no cell, so accuracy (exact matches / scored) is
    the trace over the scored count, and a label's recall its cell over its
    row's scored count, misses included (None if that is 0). With no cell
    filled (nothing scored, or every prediction outside the order) accuracy
    is 0 and kappa a degenerate 0. A scored id `pred` lacks, or a scored GT
    label outside `labels`, raises ValueError.
    """
    order = list(labels or ())
    index = label_index(order)
    counts: Counter[tuple[int, str]] = Counter()  # (GT row, canonical prediction)
    missing: list[str] = []
    unknown: list[str] = []
    for doc_id, g in gt.by_id.items():
        if _canon(g) == INDETERMINATE:
            continue
        if doc_id not in pred.by_id:
            missing.append(doc_id)
            continue
        if _canon(g) not in index:
            if labels is not None:
                unknown.append(g)
                continue
            index[_canon(g)] = len(order)
            order.append(g)
        counts[index[_canon(g)], _canon(pred.by_id[doc_id])] += 1
    if missing:
        raise ValueError(
            f"prediction set {pred.source!r} is missing scored ids: {sorted(missing)}")
    if unknown:
        raise ValueError(
            f"ground-truth label {unknown[0]!r} not in label set {tuple(order)}")
    matrix = [[0] * len(order) for _ in order]
    row_scored = [0] * len(order)  # a row's scored documents, misses included
    for (row, p), n in counts.items():
        row_scored[row] += n
        if p in index:
            matrix[row][index[p]] += n
    n_scored = sum(counts.values())
    trace = sum(matrix[i][i] for i in range(len(order)))
    accuracy = float(Fraction(trace, n_scored)) if n_scored else 0.0
    kappa, degenerate = kappa_from_matrix(matrix)
    return EvalReport(
        source=pred.source, n_total=len(gt.by_id), n_excluded=len(gt.by_id) - n_scored,
        n_scored=n_scored, accuracy=accuracy, accuracy_percent=round(accuracy * 100.0, 2),
        kappa=kappa, kappa_degenerate=degenerate,
        labels=tuple(order), matrix=tuple(tuple(row) for row in matrix),
        per_stage_recall={lbl: float(Fraction(matrix[i][i], row_scored[i]))
                          if row_scored[i] else None for i, lbl in enumerate(order)},
        n_unmatched_pred=n_scored - sum(map(sum, matrix)))


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def load_labeled(path: str | Path, source: str | None = None) -> LabeledSet:
    """A labeled set from any of its file forms; source defaults to the file stem.

    A .csv holds id,label rows (a header row of exactly 'id,label' is
    skipped, as is one leading byte-order mark); any other file is JSON
    lines of {"id", "label"} records or of the executor's predictions
    ({"document_id", "final_label"}). A row or line repeating an earlier
    one's id raises ValueError naming the file, the line and the id.
    """
    path = Path(path)
    by_id: dict[str, str] = {}

    def add(doc_id: object, label: object) -> None:
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        doc_id = record_id(doc_id)
        if doc_id in by_id:
            raise ValueError(f"duplicate document id {doc_id!r}")
        by_id[doc_id] = label

    if path.suffix == ".csv":
        # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
        text = read_text(path, newline="").removeprefix("\ufeff")
        rows = csv.reader(io.StringIO(text, newline=""))
        for row in rows:
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {row!r} needs id,label")
            if row[0].strip().casefold() == "id" and row[1].strip().casefold() == "label":
                continue
            try:
                add(row[0].strip(), row[1].strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{rows.line_num}: {exc}") from exc
    else:
        read_jsonl(path, lambda r: add(r["document_id"], r["final_label"])
                   if "final_label" in r else add(r["id"], r["label"]))
    return LabeledSet(source=source or path.stem, by_id=by_id)


def confusion_to_csv(report: EvalReport, path: str | Path) -> None:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["gt\\pred", *report.labels])
    for lbl, row in zip(report.labels, report.matrix):
        writer.writerow([lbl, *row])
    write_whole(path, buffer.getvalue().encode("utf-8"))


def render_table(reports: Sequence[EvalReport]) -> str:
    """Plain-text comparison table: one row per prediction source."""
    header = ("Condition", "Accuracy", "Kappa", "Scored", "Excluded")
    rows = [(r.source, f"{r.accuracy_percent:.2f}%",
             f"{r.kappa:.3f}" + (" (degenerate)" if r.kappa_degenerate else ""),
             str(r.n_scored), str(r.n_excluded)) for r in reports]
    widths = [max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(header)]
    lines = [header, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)


def render_confusion(report: EvalReport) -> str:
    width = max([len(lbl) for lbl in report.labels] + [5])
    lines = ["confusion matrix (rows = ground truth, columns = predicted):"]
    lines.append(" " * (width + 2) + "  ".join(lbl.rjust(width) for lbl in report.labels))
    for lbl, row in zip(report.labels, report.matrix):
        lines.append(lbl.rjust(width + 2) + "  "
                     + "  ".join(str(n).rjust(width) for n in row))
    return "\n".join(lines)
