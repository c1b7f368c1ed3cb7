"""Confusion matrices and one-vs-rest metrics against hand-computed values."""

import csv

import numpy as np
import pytest

from m3ad.errors import ContractError
from m3ad.metrics import (confusion, report, write_confusion_csv,
                          write_metrics_csv)

# Hand-audited 3-class example.
#
#            pred 0  1  2
# true 0        [5, 1, 0]     row sums: 6, 9, 5  -> n = 20
# true 1        [2, 6, 1]
# true 2        [0, 1, 4]
_CM = np.array([[5, 1, 0],
                [2, 6, 1],
                [0, 1, 4]])


def test_confusion_counts_by_hand():
    y_true = [0, 0, 1, 1, 2, 1, 0]
    y_pred = [0, 1, 1, 1, 2, 0, 0]
    cm = confusion(y_true, y_pred, 3)
    expected = np.array([[2, 1, 0],
                         [1, 2, 0],
                         [0, 0, 1]])
    np.testing.assert_array_equal(cm, expected)
    assert cm.dtype == np.int64


def test_confusion_contracts():
    with pytest.raises(ContractError, match="1-D"):
        confusion([[0]], [[0]], 2)
    with pytest.raises(ContractError, match="equal length"):
        confusion([0, 1], [0], 2)
    with pytest.raises(ContractError, match="true labels"):
        confusion([0, 3], [0, 1], 3)
    with pytest.raises(ContractError, match="pred labels"):
        confusion([0, 1], [0, -1], 3)


def _undefined(rep):
    """(metric, class) of every NaN per-class entry of a report."""
    return [(name, i) for name in ("precision", "recall", "specificity", "f1")
            for i, value in enumerate(getattr(rep, name)) if np.isnan(value)]


def test_report_hand_audited_values():
    rep = report(_CM)
    assert rep.accuracy == pytest.approx(15 / 20)

    np.testing.assert_allclose(rep.precision, [5 / 7, 6 / 8, 4 / 5], atol=1e-15)
    np.testing.assert_allclose(rep.recall, [5 / 6, 6 / 9, 4 / 5], atol=1e-15)
    # class 0: tn = 20 - 5 - 1 - 2 = 12, fp = 2 -> 12/14
    np.testing.assert_allclose(rep.specificity, [12 / 14, 9 / 11, 14 / 15], atol=1e-15)

    f1_0 = 2 * (5 / 7) * (5 / 6) / ((5 / 7) + (5 / 6))
    f1_1 = 2 * (6 / 8) * (6 / 9) / ((6 / 8) + (6 / 9))
    np.testing.assert_allclose(rep.f1, [f1_0, f1_1, 4 / 5], atol=1e-15)
    assert f1_0 == pytest.approx(10 / 13)
    assert f1_1 == pytest.approx(12 / 17)
    assert rep.macro_f1 == pytest.approx((10 / 13 + 12 / 17 + 4 / 5) / 3)
    assert _undefined(rep) == []


def test_report_undefined_precision_and_f1():
    # nothing predicted as class 1 -> precision[1] undefined -> f1[1] undefined
    cm = np.array([[5, 0], [2, 0]])
    with pytest.warns(RuntimeWarning, match="excludes 1 undefined"):
        rep = report(cm)
    assert _undefined(rep) == [("precision", 1), ("f1", 1)]
    # macro falls back to the remaining class
    assert rep.macro_f1 == pytest.approx(rep.f1[0])


def test_report_undefined_recall_and_specificity():
    # no true class-1 samples -> recall[1] undefined;
    # everything is class 0 -> specificity[0] has tn + fp = 0
    cm = np.array([[5, 0], [0, 0]])
    with pytest.warns(RuntimeWarning):
        rep = report(cm)
    assert {("recall", 1), ("specificity", 0)} <= set(_undefined(rep))
    assert rep.accuracy == 1.0


def test_report_f1_zero_when_both_defined_zero():
    # class 0: tp=0 with both fp>0 and fn>0 -> P = R = 0 -> F1 = 0, defined
    cm = np.array([[0, 1], [1, 0]])
    rep = report(cm)
    assert rep.precision[0] == 0.0 and rep.recall[0] == 0.0
    assert rep.f1[0] == 0.0
    assert _undefined(rep) == []
    assert rep.macro_f1 == 0.0


def test_report_contracts():
    with pytest.raises(ContractError, match="square"):
        report(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="empty"):
        report(np.zeros((3, 3)))


def test_accuracy_equals_mean_match(rng):
    for _ in range(50):
        c = int(rng.choice([2, 3, 7]))
        n = int(rng.integers(1, 120))
        y_true = rng.integers(0, c, n)
        y_pred = rng.integers(0, c, n)
        rep = report(confusion(y_true, y_pred, c))
        assert rep.accuracy == pytest.approx(float((y_true == y_pred).mean()))


def test_report_invariant_under_joint_permutation(rng):
    y_true = rng.integers(0, 3, 200)
    y_pred = rng.integers(0, 3, 200)
    perm = rng.permutation(200)
    a = report(confusion(y_true, y_pred, 3))
    b = report(confusion(y_true[perm], y_pred[perm], 3))
    np.testing.assert_array_equal(a.precision, b.precision)
    np.testing.assert_array_equal(a.f1, b.f1)
    assert a.accuracy == b.accuracy


def test_binary_recall_specificity_duality(rng):
    # recall of class 1 is the specificity of class 0 in a binary problem
    y_true = rng.integers(0, 2, 100)
    y_pred = rng.integers(0, 2, 100)
    rep = report(confusion(y_true, y_pred, 2))
    assert rep.recall[1] == pytest.approx(rep.specificity[0])
    assert rep.recall[0] == pytest.approx(rep.specificity[1])


def test_metrics_csv_round_trip(tmp_path):
    with pytest.warns(RuntimeWarning):
        rep = report(np.array([[5, 0], [2, 0]]))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rep, ["neg", "pos"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "class", "value"]
    table = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(table[("accuracy", "")]) == rep.accuracy
    assert table[("precision", "pos")] == "undefined"
    assert float(table[("precision", "neg")]) == rep.precision[0]
    assert float(table[("macro_f1", "")]) == rep.macro_f1
    # total rows: header + accuracy + 4 metrics x 2 classes + macro
    assert len(rows) == 11


def test_confusion_csv_round_trip(tmp_path):
    path = tmp_path / "cm.csv"
    write_confusion_csv(path, _CM, ["NC", "MCI", "AD"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["true", "NC", "MCI", "AD"]
    back = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(back, _CM)
    assert [row[0] for row in rows[1:]] == ["NC", "MCI", "AD"]
