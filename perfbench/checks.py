"""Output checks: the benchmark's own brute-force oracles and the rules a
repeat must satisfy to count as a success.

The oracles never call the program's metric code. AUC counts every
(known, unknown) pair, ties as one half; OSCR sweeps every distinct score
as a threshold and integrates the correct-classification rate against the
false-positive rate as a right-continuous step curve.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

UNKNOWN_LABEL = -1
METRIC_TOL = 1e-9
GRAD_TOL = 1e-4
GRAD_MIN_COORDS = 200
_CHUNK = 512


def auc_pairwise(known: np.ndarray, unknown: np.ndarray) -> float:
    """Mann-Whitney AUC by counting ordered pairs, ties counted as 1/2."""
    num = 0.0
    for i in range(0, known.size, _CHUNK):
        k = known[i : i + _CHUNK, None]
        num += (k > unknown[None, :]).sum() + 0.5 * (k == unknown[None, :]).sum()
    return float(num / (known.size * unknown.size))


def oscr_sweep(known: np.ndarray, correct: np.ndarray, unknown: np.ndarray) -> float:
    """Area under CCR(t) vs FPR(t), one point per distinct score t.

    Points run from threshold +inf (0, 0) down to -inf (1, accuracy); each
    step contributes its width times the CCR at its left end, so at a
    repeated FPR the point reached last sets the height.
    """
    thresholds = np.unique(np.concatenate([known, unknown]))[::-1]
    hits = known[correct]
    fpr = [0.0]
    ccr = [0.0]
    for i in range(0, thresholds.size, _CHUNK):
        t = thresholds[i : i + _CHUNK, None]
        fpr.extend((unknown[None, :] >= t).sum(axis=1) / unknown.size)
        ccr.extend((hits[None, :] >= t).sum(axis=1) / known.size)
    fpr.append(1.0)
    ccr.append(correct.sum() / known.size)
    fpr = np.asarray(fpr)
    ccr = np.asarray(ccr)
    return float(((fpr[1:] - fpr[:-1]) * ccr[:-1]).sum())


def read_scores(path: str):
    """(known fused scores, known correct mask, unknown fused scores)."""
    known, correct, unknown = [], [], []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            label = int(row["true_label"])
            score = float(row["fused_smax"])
            if label == UNKNOWN_LABEL:
                unknown.append(score)
            else:
                known.append(score)
                correct.append(int(row["k_star"]) == label)
    return np.array(known), np.array(correct, dtype=bool), np.array(unknown)


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class RunChecker:
    """Checks every repeat of one run workload.

    The first repeat's ``report.json`` and ``ablation_table.csv`` are the
    reference for the later ones: reports are pure functions of the config,
    so any byte difference is a failure. Oracle results are memoised by
    the digest of ``scores.csv``.
    """

    def __init__(self, runs: list[tuple[str, str]], retention: float, test_windows: int):
        self.runs = runs
        self.retention = retention
        self.test_windows = test_windows
        self.reference: dict[str, bytes] = {}
        self._oracle: dict[str, tuple[float, float]] = {}

    def oracle(self, scores_path: str) -> tuple[float, float]:
        key = file_digest(scores_path)
        if key not in self._oracle:
            known, correct, unknown = read_scores(scores_path)
            self._oracle[key] = (auc_pairwise(known, unknown), oscr_sweep(known, correct, unknown))
        return self._oracle[key]

    def _same_as_first(self, path: str) -> bool:
        with open(path, "rb") as f:
            data = f.read()
        return self.reference.setdefault(path, data) == data

    def check_seed(self, out_dir: str, row: dict) -> list[str]:
        """Problems with one seed's report row and its scores.csv."""
        if "error" in row:
            return [f"seed {row['seed']} failed: {row['error']}"]
        problems = []
        scores = os.path.join(out_dir, f"seed_{row['seed']}", "scores.csv")
        auc, oscr = self.oracle(scores)
        for name, want in (("auc", auc), ("oscr", oscr)):
            if not abs(row[name] - want) <= METRIC_TOL:
                problems.append(f"{scores}: {name} {row[name]!r} != oracle {want!r}")
        if not row["retention_achieved"] >= self.retention:
            problems.append(
                f"seed {row['seed']}: retention {row['retention_achieved']} < {self.retention}"
            )
        if row["n_known"] + row["n_unknown"] != self.test_windows:
            problems.append(
                f"seed {row['seed']}: {row['n_known']}+{row['n_unknown']} test windows, "
                f"expected {self.test_windows}"
            )
        return problems

    def check_repeat(self, exit_codes: dict[str, int], n_seeds: int, out_root: str) -> dict:
        """Attempted/failed operation counts (one per variant and seed),
        the problems found, and the AUC/OSCR of every successful seed.

        ``exit_codes`` maps each variant to the exit code of the CLI call
        that ran it.
        """
        attempted = failed = 0
        problems: list[str] = []
        aucs, oscrs = [], []
        table = os.path.join(out_root, "ablation_table.csv")
        table_ok = not os.path.exists(table) or self._same_as_first(table)
        if not table_ok:
            problems.append(f"{table} differs from the first repeat")
        for variant, out_dir in self.runs:
            attempted += n_seeds
            report_path = os.path.join(out_dir, "report.json")
            if exit_codes.get(variant) != 0 or not os.path.exists(report_path):
                problems.append(f"{variant}: exit code {exit_codes.get(variant)}, no report")
                failed += n_seeds
                continue
            variant_problems = []
            if not self._same_as_first(report_path):
                variant_problems.append(f"{report_path} differs from the first repeat")
            with open(report_path) as f:
                rows = json.load(f)["per_seed"]
            if len(rows) != n_seeds:
                variant_problems.append(f"{variant}: {len(rows)} seed rows, expected {n_seeds}")
            n_bad = 0
            for row in rows:
                seed_problems = self.check_seed(out_dir, row)
                if seed_problems:
                    n_bad += 1
                    problems.extend(seed_problems)
                else:
                    aucs.append(row["auc"])
                    oscrs.append(row["oscr"])
            problems.extend(variant_problems)
            bad_whole_run = variant_problems or not table_ok
            failed += n_seeds if bad_whole_run else min(n_seeds, n_bad)
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "auc": aucs,
            "oscr": oscrs,
        }


def check_gradients(reports: list[dict]) -> dict:
    """One operation per (loss, instance seed) finite-difference check."""
    problems = []
    for rep in reports:
        tag = f"{rep['loss']} seed {rep['instance_seed']}"
        if "error" in rep:
            problems.append(f"{tag}: {rep['error']}")
        elif not rep["max_rel_error"] < GRAD_TOL:
            problems.append(f"{tag}: max relative error {rep['max_rel_error']:.3e}")
        elif rep["n_checked"] < GRAD_MIN_COORDS:
            problems.append(f"{tag}: only {rep['n_checked']} coordinates checked")
    return {"attempted": len(reports), "failed": len(problems), "problems": problems}
