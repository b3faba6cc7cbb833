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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .jsonio import read_jsonl, read_text, record_id

INDETERMINATE = "indeterminate"


def _canon(label: str) -> str:
    return label.strip().casefold()


@dataclass(frozen=True)
class LabeledSet:
    """Document-id -> label pairs from one source (gt, system, annotator-k)."""

    source: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        ids = [i for i, _ in self.pairs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"LabeledSet.pairs: duplicate document ids {dupes}")

    def as_mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _aligned(pred: LabeledSet, gt: LabeledSet) -> list[tuple[str, str, str]]:
    """(id, gt_label, pred_label) for scored ids; indeterminate GT excluded."""
    lookup = pred.as_mapping()
    rows = []
    missing = []
    for doc_id, gt_label in gt.pairs:
        if _canon(gt_label) == INDETERMINATE:
            continue
        if doc_id not in lookup:
            missing.append(doc_id)
            continue
        rows.append((doc_id, gt_label, lookup[doc_id]))
    if missing:
        raise ValueError(
            f"prediction set {pred.source!r} is missing scored ids: {sorted(missing)}")
    return rows


@dataclass(frozen=True)
class AccuracyResult:
    accuracy: float
    n_total: int
    n_excluded: int
    n_scored: int
    n_correct: int

    @property
    def percent(self) -> float:
        return round(self.accuracy * 100.0, 2)


def accuracy(pred: LabeledSet, gt: LabeledSet) -> AccuracyResult:
    """Exact-match proportion over scored documents."""
    rows = _aligned(pred, gt)
    correct = sum(1 for _, g, p in rows if _canon(g) == _canon(p))
    n_scored = len(rows)
    return AccuracyResult(
        accuracy=float(Fraction(correct, n_scored)) if n_scored else 0.0,
        n_total=len(gt), n_excluded=len(gt) - n_scored,
        n_scored=n_scored, n_correct=correct)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    degenerate: bool  # chance agreement was exactly 1 (single-class marginals)


def kappa_from_matrix(matrix: Sequence[Sequence[int]]) -> KappaResult:
    """Cohen's kappa from a square confusion matrix, exact arithmetic."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("kappa_from_matrix: matrix must be square")
    total = sum(sum(row) for row in matrix)
    if total == 0:
        raise ValueError("kappa_from_matrix: matrix must have positive total")
    p_o = Fraction(sum(matrix[i][i] for i in range(k)), total)
    row_sums = [sum(matrix[i][j] for j in range(k)) for i in range(k)]
    col_sums = [sum(matrix[i][j] for i in range(k)) for j in range(k)]
    p_e = sum((Fraction(row_sums[i], total) * Fraction(col_sums[i], total)
               for i in range(k)), start=Fraction(0))
    if p_e == 1:
        return KappaResult(kappa=1.0, degenerate=True)
    return KappaResult(kappa=float((p_o - p_e) / (1 - p_e)), degenerate=False)


@dataclass(frozen=True)
class ConfusionResult:
    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]  # rows = GT, columns = predicted
    n_scored: int
    n_unmatched_pred: int  # predictions outside the label set (count as misses)

    def trace(self) -> int:
        return sum(self.matrix[i][i] for i in range(len(self.labels)))

    def total(self) -> int:
        return sum(sum(row) for row in self.matrix)


def _label_universe(rows: Iterable[tuple[str, str, str]],
                    labels: Sequence[str] | None) -> tuple[str, ...]:
    if labels is not None:
        return tuple(labels)
    seen: list[str] = []
    for _, g, _p in rows:
        if _canon(g) not in [_canon(x) for x in seen]:
            seen.append(g)
    return tuple(seen)


def confusion(pred: LabeledSet, gt: LabeledSet,
              labels: Sequence[str] | None = None) -> ConfusionResult:
    """k x k counts in the given label order (default: GT appearance order)."""
    rows = _aligned(pred, gt)
    universe = _label_universe(rows, labels)
    index = {_canon(lbl): i for i, lbl in enumerate(universe)}
    size = len(universe)
    matrix = [[0] * size for _ in range(size)]
    unmatched = 0
    for _, g, p in rows:
        gi = index.get(_canon(g))
        if gi is None:
            raise ValueError(f"confusion: ground-truth label {g!r} not in label set {universe}")
        pi = index.get(_canon(p))
        if pi is None:
            unmatched += 1  # counted as a miss; no cell to land in
            continue
        matrix[gi][pi] += 1
    return ConfusionResult(labels=universe,
                           matrix=tuple(tuple(row) for row in matrix),
                           n_scored=len(rows), n_unmatched_pred=unmatched)


@dataclass(frozen=True)
class EvalReport:
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
        return {
            "source": self.source,
            "n_total": self.n_total,
            "n_excluded": self.n_excluded,
            "n_scored": self.n_scored,
            "accuracy": self.accuracy,
            "accuracy_percent": self.accuracy_percent,
            "kappa": self.kappa,
            "kappa_degenerate": self.kappa_degenerate,
            "labels": list(self.labels),
            "confusion": [list(row) for row in self.matrix],
            "per_stage_recall": dict(self.per_stage_recall),
            "n_unmatched_pred": self.n_unmatched_pred,
        }


def evaluate_report(pred: LabeledSet, gt: LabeledSet,
                    labels: Sequence[str] | None = None) -> EvalReport:
    acc = accuracy(pred, gt)
    conf = confusion(pred, gt, labels)
    kap = kappa_from_matrix(conf.matrix)
    recall: dict[str, float | None] = {}
    for i, lbl in enumerate(conf.labels):
        row_total = sum(conf.matrix[i])
        recall[lbl] = (float(Fraction(conf.matrix[i][i], row_total))
                       if row_total else None)
    return EvalReport(source=pred.source, n_total=acc.n_total,
                      n_excluded=acc.n_excluded, n_scored=acc.n_scored,
                      accuracy=acc.accuracy, accuracy_percent=acc.percent,
                      kappa=kap.kappa, kappa_degenerate=kap.degenerate,
                      labels=conf.labels, matrix=conf.matrix,
                      per_stage_recall=recall,
                      n_unmatched_pred=conf.n_unmatched_pred)


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
    seen: set[str] = set()

    def pair(doc_id: object, label: object) -> tuple[str, str]:
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        doc_id = record_id(doc_id)
        if doc_id in seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        return doc_id, label

    pairs = []
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
                pairs.append(pair(row[0].strip(), row[1].strip()))
            except ValueError as exc:
                raise ValueError(f"{path}:{rows.line_num}: {exc}") from exc
    else:
        pairs = read_jsonl(path, lambda r: pair(r["document_id"], r["final_label"])
                           if "final_label" in r else pair(r["id"], r["label"]))
    return LabeledSet(source=source or path.stem, pairs=tuple(pairs))


def confusion_to_csv(report: EvalReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gt\\pred", *report.labels])
        for lbl, row in zip(report.labels, report.matrix):
            writer.writerow([lbl, *row])


def render_table(reports: Sequence[EvalReport]) -> str:
    """Plain-text comparison table: one row per prediction source."""
    header = ("Condition", "Accuracy", "Kappa", "Scored", "Excluded")
    rows = [(r.source, f"{r.accuracy_percent:.2f}%",
             f"{r.kappa:.3f}" + (" (degenerate)" if r.kappa_degenerate else ""),
             str(r.n_scored), str(r.n_excluded)) for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
              for row in rows]
    return "\n".join(lines)


def render_confusion(report: EvalReport) -> str:
    width = max([len(lbl) for lbl in report.labels] + [5])
    lines = ["confusion matrix (rows = ground truth, columns = predicted):"]
    lines.append(" " * (width + 2) + "  ".join(lbl.rjust(width) for lbl in report.labels))
    for lbl, row in zip(report.labels, report.matrix):
        lines.append(lbl.rjust(width + 2) + "  "
                     + "  ".join(str(n).rjust(width) for n in row))
    return "\n".join(lines)
