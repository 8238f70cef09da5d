"""Threshold-independent open-set metrics and analysis matrices.

AUC follows the Mann-Whitney convention (ties count 0.5), OSCR integrates
the correct-classification-rate vs false-positive-rate step curve, and the
Incon ratio compares how often the two branches disagree on unknown vs
known samples. Both AUC and OSCR are checked against brute-force oracles
in the test suite.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .io import atomic_open
from .prototypes import softmax


def auc(known_scores, unknown_scores) -> float:
    """P(known score > unknown score) + 0.5 P(tie), via midranks."""
    known = np.asarray(known_scores, dtype=np.float64)
    unknown = np.asarray(unknown_scores, dtype=np.float64)
    if known.size == 0 or unknown.size == 0:
        raise ValueError("need at least one known and one unknown score")
    _, inverse, counts = np.unique(
        np.concatenate([known, unknown]), return_inverse=True, return_counts=True
    )
    # a group of tied values occupying 1-based ranks a..b gets (a + b) / 2
    last = np.cumsum(counts)
    midranks = 0.5 * (2 * last - counts + 1)
    u = midranks[inverse[: known.size]].sum() - known.size * (known.size + 1) / 2.0
    return float(u / (known.size * unknown.size))


def closed_acc(predictions, labels) -> float:
    """Fraction of correct predictions over known-class samples."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValueError("need at least one prediction")
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    return float((predictions == labels).mean())


def oscr(known_scores, known_correct, unknown_scores) -> float:
    """Area under the CCR-vs-FPR curve over all score thresholds.

    CCR(t) is the fraction of known samples that are correctly classified
    and score >= t; FPR(t) is the fraction of unknown samples scoring >= t
    (Dhamija, Guenther & Boult, NeurIPS 2018). The curve is a
    right-continuous step function of FPR: it steps up at each distinct
    unknown score u, and the step to its left is the CCR just above u, the
    count of correct known scores > u, found in one sort (O(n log n)).
    """
    ks = np.asarray(known_scores, dtype=np.float64)
    us = np.asarray(unknown_scores, dtype=np.float64)
    if ks.size == 0 or us.size == 0:
        raise ValueError("need at least one known and one unknown score")
    kc = np.asarray(known_correct, dtype=bool)
    if kc.shape != ks.shape:
        raise ValueError("known_correct must align with known_scores")
    hits = np.sort(ks[kc])
    values, counts = np.unique(us, return_counts=True)
    values, counts = values[::-1], counts[::-1]  # decreasing thresholds
    fpr = np.concatenate([[0], np.cumsum(counts)]) / us.size
    ccr = (hits.size - np.searchsorted(hits, values, side="right")) / ks.size
    # cumsum adds the steps left to right, so the rounding is that of the step-by-step sum
    return float(np.cumsum(np.diff(fpr) * ccr)[-1])


def incon_metric(preds_a, preds_b, is_known) -> float | None:
    """Ratio of unknown-sample to known-sample branch-disagreement rates.

    Returns None (undefined) when the known disagreement rate is zero;
    callers exclude undefined values from averages.
    """
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    is_known = np.asarray(is_known, dtype=bool)
    if preds_a.shape != preds_b.shape or preds_a.shape != is_known.shape:
        raise ValueError("prediction lists and mask must align")
    if not is_known.any() or is_known.all():
        raise ValueError("need both known and unknown samples")
    change = preds_a != preds_b
    known_frac = float(change[is_known].mean())
    unknown_frac = float(change[~is_known].mean())
    if known_frac == 0.0:
        return None
    return unknown_frac / known_frac


def proximity_matrix(prototypes: np.ndarray) -> np.ndarray:
    """Row-stochastic class-proximity matrix of one branch.

    Row k softmaxes the dot products p^k . p^j over j != k; the diagonal is
    zero. Comparing the two branches' matrices visualizes how differently
    they lay out the classes.
    """
    p = np.asarray(prototypes, dtype=np.float64)
    n = p.shape[0]
    dots = p @ p.T
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((n, n))
    out[off] = softmax(dots[off].reshape(n, n - 1)).ravel()
    return out


def agreement_confusion(preds_a, preds_b, n_classes: int) -> np.ndarray:
    """Counts of samples predicted class a by one branch and b by the other."""
    preds_a = np.asarray(preds_a, dtype=np.int64)
    preds_b = np.asarray(preds_b, dtype=np.int64)
    if preds_a.shape != preds_b.shape:
        raise ValueError("prediction lists must align")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (preds_a - 1, preds_b - 1), 1)
    return out


def aggregate_reports(rows: list[dict]) -> dict:
    """Arithmetic means of per-seed report rows; undefined Incon values are
    excluded."""
    if not rows:
        return {"n_seeds": 0}
    incons = [r["incon"] for r in rows if r["incon"] is not None]
    return {
        "n_seeds": len(rows),
        "auc_mean": float(np.mean([r["auc"] for r in rows])),
        "acc_mean": float(np.mean([r["acc"] for r in rows])),
        "oscr_mean": float(np.mean([r["oscr"] for r in rows])),
        "incon_mean": float(np.mean(incons)) if incons else None,
        "incon_defined": len(incons),
    }


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(v)) for v in row])


def report_to_json(report: dict) -> str:
    """Canonical JSON used for emitted reports (stable key order)."""
    return json.dumps(report, indent=2, sort_keys=True)
