"""Metric arithmetic against hand-computed oracles and counting properties."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest

from orchkit.cli import main
from orchkit.evalkit import (
    INDETERMINATE,
    LabeledSet,
    evaluate_report,
    kappa_from_matrix,
    load_labeled,
    render_confusion,
    render_table,
)

STAGES = ("Resectable", "Borderline Resectable", "Locally Advanced", "Metastatic")


def build_sets(n_scored: int, n_correct: int, n_indeterminate: int = 0,
               labels=STAGES, seed: int = 5):
    """GT/pred pair with exactly n_correct matches over n_scored scored docs."""
    rng = random.Random(seed)
    gt_pairs = []
    pred_pairs = []
    for i in range(n_scored):
        doc = f"r{i:03d}"
        truth = labels[i % len(labels)]
        gt_pairs.append((doc, truth))
        if i < n_correct:
            pred_pairs.append((doc, truth))
        else:
            wrong = labels[(i + 1) % len(labels)]
            pred_pairs.append((doc, wrong))
    for j in range(n_indeterminate):
        doc = f"x{j:03d}"
        gt_pairs.append((doc, INDETERMINATE))
        pred_pairs.append((doc, labels[rng.randrange(len(labels))]))
    return LabeledSet("system", dict(pred_pairs)), LabeledSet("gt", dict(gt_pairs))


def trace(matrix) -> int:
    return sum(matrix[i][i] for i in range(len(matrix)))


# --- accuracy --------------------------------------------------------------------

def test_accuracy_33_of_47_reports_70_21():
    pred, gt = build_sets(n_scored=47, n_correct=33, n_indeterminate=3)
    result = evaluate_report(pred, gt)
    assert result.n_total == 50
    assert result.n_excluded == 3
    assert result.n_scored == 47
    assert trace(result.matrix) == 33
    assert abs(result.accuracy_percent - 70.21) <= 0.01


def test_accuracy_41_of_48_reports_85_42():
    pred, gt = build_sets(n_scored=48, n_correct=41, n_indeterminate=2)
    result = evaluate_report(pred, gt)
    assert result.n_total == 50 and result.n_scored == 48
    assert abs(result.accuracy_percent - 85.42) <= 0.01


def test_accuracy_perfect_is_100():
    pred, gt = build_sets(n_scored=12, n_correct=12)
    assert evaluate_report(pred, gt).accuracy_percent == 100.0


def test_accuracy_id_mismatch_only_for_scored_ids():
    pred, gt = build_sets(n_scored=5, n_correct=5, n_indeterminate=1)
    trimmed = LabeledSet("system", {i: lbl for i, lbl in pred.by_id.items() if i != "x000"})
    assert evaluate_report(trimmed, gt).n_scored == 5  # indeterminate id not required
    broken = LabeledSet("system", dict(list(pred.by_id.items())[1:]))
    with pytest.raises(ValueError, match=r"is missing scored ids: \['r000'\]"):
        evaluate_report(broken, gt)


def test_missing_ids_are_named_before_an_unknown_ground_truth_label():
    gt = LabeledSet("gt", {"a": "Other", "b": STAGES[0], "c": "Also other"})
    with pytest.raises(ValueError, match=r"^prediction set 'p' is missing scored ids: \['b'\]$"):
        evaluate_report(LabeledSet("p", {"a": STAGES[0], "c": STAGES[0]}), gt, STAGES)
    full = LabeledSet("p", dict.fromkeys("abc", STAGES[0]))
    with pytest.raises(ValueError, match=re.escape(
            f"ground-truth label 'Other' not in label set {STAGES}")):
        evaluate_report(full, gt, STAGES)


@pytest.mark.parametrize("flag", ["--labels", "--labels-from-summary"])
def test_label_order_naming_a_label_twice_exits_2(tmp_path, capsys, flag):
    """Labels compare case-insensitively, so A,a,B would score A in a phantom
    row and column that nothing can land in. An order read from a summary
    names the file, like the summary's other errors."""
    gt = tmp_path / "gt.csv"
    gt.write_text("id,label\nd1,A\nd2,B\n", encoding="utf-8")
    order = ["A", "a", "B"]
    value, where = ",".join(order), ""
    if flag == "--labels-from-summary":
        value = str(tmp_path / "summary.json")
        where = f"{value}: "
        (tmp_path / "summary.json").write_text(json.dumps({"label_order": order}),
                                               encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--pred", str(gt), "--gt", str(gt), flag, value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {where}label order names 'a' twice (labels compare case-insensitively)\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="label order names ' b ' twice"):
        evaluate_report(*build_sets(n_scored=2, n_correct=2), labels=["B", "a", " b "])


def test_every_prediction_outside_the_label_order_scores_zero(tmp_path, capsys):
    """No cell filled is a result, not an error: 0.00% accuracy and a
    degenerate kappa of 0."""
    gt = tmp_path / "gt.csv"
    gt.write_text("id,label\nd1,A\nd2,B\n", encoding="utf-8")
    pred = tmp_path / "pred.csv"
    pred.write_text(f"d1,{INDETERMINATE}\nd2,{INDETERMINATE}\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    assert "system     0.00%     0.000 (degenerate)  2       0       " in stdout
    assert stdout.endswith("accuracy: 0.00% (2 scored = 2 total - 0 indeterminate)\n")
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["accuracy"], report["kappa"], report["kappa_degenerate"]) == (0.0, 0.0, True)
    assert (report["n_scored"], report["n_unmatched_pred"]) == (2, 2)
    assert report["confusion"] == [[0, 0], [0, 0]]
    # A ground truth with no scored entry reports the same way.
    nothing = evaluate_report(LabeledSet("p", {}), LabeledSet("gt", {"d1": INDETERMINATE}))
    assert (nothing.n_scored, nothing.accuracy, nothing.kappa, nothing.kappa_degenerate) == (
        0, 0.0, 0.0, True)


# --- Cohen's kappa ------------------------------------------------------------------

def test_kappa_perfect_agreement_is_one():
    pred, gt = build_sets(n_scored=20, n_correct=20)
    assert evaluate_report(pred, gt, STAGES).kappa == 1.0


def test_kappa_uniform_2x2_is_zero():
    assert kappa_from_matrix([[1, 1], [1, 1]]) == (0.0, False)


def test_kappa_four_class_oracle_value():
    # Spreadsheet-style derivation, frozen before the implementation ran:
    matrix = [[10, 2, 0, 0],
              [3, 8, 1, 0],
              [0, 2, 9, 1],
              [0, 0, 1, 10]]
    total = 47
    p_o = Fraction(10 + 8 + 9 + 10, total)                  # 37/47
    rows = [12, 12, 12, 11]
    cols = [13, 12, 11, 11]
    p_e = sum(Fraction(r, total) * Fraction(c, total)
              for r, c in zip(rows, cols))                   # 553/2209
    expected = (p_o - p_e) / (1 - p_e)                       # 1186/1656 = 593/828
    assert expected == Fraction(593, 828)
    kappa, degenerate = kappa_from_matrix(matrix)
    assert abs(kappa - float(expected)) < 1e-9 and not degenerate


def test_kappa_degenerate_single_class():
    pred = LabeledSet("p", {"a": "x", "b": "x"})
    gt = LabeledSet("gt", {"a": "x", "b": "x"})
    result = evaluate_report(pred, gt, labels=("x",))
    assert result.kappa == 1.0 and result.kappa_degenerate


def test_kappa_invariant_under_consistent_relabeling():
    pred, gt = build_sets(n_scored=40, n_correct=23)
    base = evaluate_report(pred, gt, STAGES).kappa
    mapping = dict(zip(STAGES, ("D", "C", "B", "A")))
    pred2 = LabeledSet("p", {i: mapping[lbl] for i, lbl in pred.by_id.items()})
    gt2 = LabeledSet("gt", {i: mapping[lbl] for i, lbl in gt.by_id.items()})
    permuted = evaluate_report(pred2, gt2, ("A", "B", "C", "D")).kappa
    assert permuted == pytest.approx(base, abs=1e-12)


# --- confusion matrix ------------------------------------------------------------------

def test_confusion_perfect_is_diagonal():
    pred, gt = build_sets(n_scored=16, n_correct=16)
    result = evaluate_report(pred, gt, STAGES)
    for i in range(4):
        for j in range(4):
            assert (result.matrix[i][j] > 0) == (i == j)
    assert sum(map(sum, result.matrix)) == 16


def test_confusion_single_cell_placement():
    pred = LabeledSet("p", {"d": "Locally Advanced"})
    gt = LabeledSet("gt", {"d": "Borderline Resectable"})
    result = evaluate_report(pred, gt, STAGES)
    assert result.matrix[1][2] == 1
    assert sum(map(sum, result.matrix)) == 1


def test_confusion_row_sums_match_direct_counts_randomized():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 60)
        gt_pairs = tuple((f"d{i}", STAGES[rng.randrange(4)]) for i in range(n))
        pred_pairs = tuple((f"d{i}", STAGES[rng.randrange(4)]) for i in range(n))
        gt = LabeledSet("gt", dict(gt_pairs))
        pred = LabeledSet("p", dict(pred_pairs))
        result = evaluate_report(pred, gt, STAGES)
        for i, stage in enumerate(STAGES):
            direct = sum(1 for _, lbl in gt_pairs if lbl == stage)
            assert sum(result.matrix[i]) == direct
        assert sum(map(sum, result.matrix)) == n


def test_trace_identity_accuracy_equals_trace_over_sum():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 50)
        n_ind = rng.randint(0, 5)
        gt_pairs = [(f"d{i}", STAGES[rng.randrange(4)]) for i in range(n)]
        gt_pairs += [(f"i{j}", INDETERMINATE) for j in range(n_ind)]
        pred_pairs = [(f"d{i}", STAGES[rng.randrange(4)]) for i in range(n)]
        pred_pairs += [(f"i{j}", STAGES[0]) for j in range(n_ind)]
        report = evaluate_report(LabeledSet("p", dict(pred_pairs)),
                                 LabeledSet("gt", dict(gt_pairs)), STAGES)
        matches = sum(1 for (_, g), (_, p) in zip(gt_pairs[:n], pred_pairs) if g == p)
        assert report.n_scored == n
        assert report.accuracy == float(Fraction(matches, n))
        assert Fraction(matches, n) == \
            Fraction(trace(report.matrix), sum(map(sum, report.matrix)))
        assert sum(map(sum, report.matrix)) == n  # excluded ids land in no cell


def test_indeterminate_prediction_counts_as_miss_outside_matrix():
    pred = LabeledSet("p", {"a": INDETERMINATE, "b": STAGES[1]})
    gt = LabeledSet("gt", {"a": STAGES[0], "b": STAGES[1]})
    report = evaluate_report(pred, gt, STAGES)
    assert report.accuracy == 0.5 and report.n_scored == 2
    assert trace(report.matrix) == 1
    assert sum(map(sum, report.matrix)) == 1 and report.n_unmatched_pred == 1


def test_per_stage_recall_counts_a_rows_misses():
    gt = LabeledSet("gt", {"a": "A", "b": "B", "c": "A", "d": "C"})
    pred = LabeledSet("p", {"a": INDETERMINATE, "b": "B", "c": "A", "d": INDETERMINATE})
    assert evaluate_report(pred, gt).per_stage_recall == {"A": 0.5, "B": 1.0, "C": 0.0}
    # A label the order names but no scored document holds has no recall.
    assert evaluate_report(pred, gt, ["A", "B", "C", "D"]).per_stage_recall["D"] is None


# --- reports and IO -------------------------------------------------------------------

def test_evaluate_report_shape():
    pred, gt = build_sets(n_scored=47, n_correct=33, n_indeterminate=3)
    report = evaluate_report(pred, gt, STAGES)
    assert report.accuracy_percent == 70.21
    assert report.labels == STAGES
    assert sum(sum(row) for row in report.matrix) == 47
    assert set(report.per_stage_recall) == set(STAGES)
    payload = report.to_dict()
    assert payload["n_excluded"] == 3
    text = render_table([report])
    assert "70.21%" in text and "system" in text
    assert "rows = ground truth" in render_confusion(report)


def test_loaders_round_trip(tmp_path):
    csv_path = tmp_path / "gt.csv"
    csv_path.write_text("id,label\nd1,Resectable\nd2,indeterminate\n", encoding="utf-8")
    gt = load_labeled(csv_path, source="gt")
    assert list(gt.by_id.items()) == [("d1", "Resectable"), ("d2", "indeterminate")]

    jsonl_path = tmp_path / "gt.jsonl"
    jsonl_path.write_text('\n{"id": "d1", "label": "Metastatic"}\n  \n', encoding="utf-8")
    assert load_labeled(jsonl_path).by_id == {"d1": "Metastatic"}

    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text(
        '{"document_id": "d1", "final_label": "Resectable", "rounds": []}\n',
        encoding="utf-8")
    assert load_labeled(preds_path).by_id == {"d1": "Resectable"}

    csv_path.write_text("id,label\nd1,Resectable\n\nd1,Metastatic\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{csv_path}:4: duplicate document id 'd1'")):
        load_labeled(csv_path)


@pytest.mark.parametrize("marked", ["pred", "gt", "both"])
def test_csv_starting_with_a_byte_order_mark_keeps_its_header_a_header(tmp_path, capsys,
                                                                      marked):
    """A spreadsheet's "CSV UTF-8" export starts with U+FEFF."""
    files = {"pred": "id,label\nd1,Resectable\nd2,Resectable\n",
             "gt": "id,label\nd1,Resectable\nd2,Metastatic\n"}
    for name, text in files.items():
        encoding = "utf-8-sig" if marked in (name, "both") else "utf-8"
        (tmp_path / f"{name}.csv").write_text(text, encoding=encoding)
    assert load_labeled(tmp_path / "gt.csv").by_id == {"d1": "Resectable",
                                                       "d2": "Metastatic"}
    assert main(["evaluate", "--pred", str(tmp_path / "pred.csv"),
                 "--gt", str(tmp_path / "gt.csv")]) == 0
    assert "accuracy: 50.00% (2 scored = 2 total" in capsys.readouterr().out


@pytest.mark.parametrize("record, fragment", [
    ({"id": ["d1"], "label": "Metastatic"}, "id must be a string or an integer, got ['d1']"),
    ({"id": False, "label": "Metastatic"}, "id must be a string or an integer, got False"),
    ({"id": "d1", "label": ["Metastatic"]}, "label must be a string, got ['Metastatic']"),
    ({"document_id": "d1", "final_label": 3}, "label must be a string, got 3"),
    ({"document_id": "4", "final_label": "Metastatic"}, "duplicate document id '4'"),
], ids=["list id", "bool id", "list label", "number label", "repeated id"])
def test_labeled_set_takes_string_labels_and_string_or_integer_ids(tmp_path, capsys,
                                                                   record, fragment):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"id": 4, "label": "Resectable"}\n', encoding="utf-8")
    assert load_labeled(path).by_id == {"4": "Resectable"}
    path.write_text('{"id": 4, "label": "Resectable"}\n' + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {fragment}")):
        load_labeled(path)
    assert main(["evaluate", "--pred", str(path), "--gt", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: {fragment}\n"
