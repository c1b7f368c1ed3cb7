"""Confusion-matrix evaluation: accuracy, one-vs-rest per-class metrics,
and macro F1.

Zero-denominator metrics are reported as undefined (NaN) rather than
zero; undefined F1 values are excluded from the macro mean with a
warning. F1 itself is 0, not undefined, when precision and recall are
both defined and both zero.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def confusion(y_true, y_pred, num_classes: int) -> np.ndarray:
    """(C, C) count matrix, rows = true class, columns = predicted."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ContractError(f"label vectors must be 1-D and equal length, "
                            f"got {yt.shape} and {yp.shape}")
    for name, arr in (("true", yt), ("pred", yp)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ContractError(f"{name} labels out of range [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (yt, yp), 1)
    return cm


@dataclass
class MetricsReport:
    accuracy: float
    precision: np.ndarray    # per class, NaN where undefined
    recall: np.ndarray
    specificity: np.ndarray
    f1: np.ndarray
    macro_f1: float


def _ratio(num: float, den: float) -> float:
    return float("nan") if den == 0 else num / den


def report(cm: np.ndarray) -> MetricsReport:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ContractError(f"confusion matrix must be square, got shape {cm.shape}")
    n = int(cm.sum())
    if n == 0:
        raise ContractError("empty confusion matrix")
    c = cm.shape[0]
    precision = np.empty(c)
    recall = np.empty(c)
    specificity = np.empty(c)
    f1 = np.empty(c)
    for i in range(c):
        tp = float(cm[i, i])
        fn = float(cm[i].sum() - tp)
        fp = float(cm[:, i].sum() - tp)
        tn = float(n - tp - fn - fp)
        precision[i] = _ratio(tp, tp + fp)
        recall[i] = _ratio(tp, tp + fn)
        specificity[i] = _ratio(tn, tn + fp)
        if np.isnan(precision[i]) or np.isnan(recall[i]):
            f1[i] = float("nan")
        elif precision[i] + recall[i] == 0.0:
            f1[i] = 0.0
        else:
            f1[i] = 2.0 * precision[i] * recall[i] / (precision[i] + recall[i])
    defined_f1 = f1[~np.isnan(f1)]
    if defined_f1.size < c:
        warnings.warn(
            f"macro F1 excludes {c - defined_f1.size} undefined class(es)",
            RuntimeWarning, stacklevel=2)
    macro = float(defined_f1.mean()) if defined_f1.size else float("nan")
    accuracy = float(np.trace(cm) / n)
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         specificity=specificity, f1=f1, macro_f1=macro)


def _fmt(value: float) -> str:
    return "undefined" if np.isnan(value) else repr(float(value))


def write_metrics_csv(path, rep: MetricsReport, class_names: list[str]) -> None:
    """Rows of (metric, class, value); aggregate rows leave class empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "class", "value"])
        writer.writerow(["accuracy", "", _fmt(rep.accuracy)])
        for metric in ("precision", "recall", "specificity", "f1"):
            values = getattr(rep, metric)
            for i, name in enumerate(class_names):
                writer.writerow([metric, name, _fmt(values[i])])
        writer.writerow(["macro_f1", "", _fmt(rep.macro_f1)])


def write_confusion_csv(path, cm: np.ndarray, class_names: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true"] + list(class_names))
        for i, name in enumerate(class_names):
            writer.writerow([name] + [int(v) for v in cm[i]])
