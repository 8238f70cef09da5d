"""Score fusion, rejection thresholding, and accept/reject decisions.

Each branch scores a test sample with its branch_score_fn: a prototype
branch by dot-product similarity to its prototypes, the softmax baseline's
branch by its posterior probabilities. Branch scores are averaged, the
maximum fused score S_max is compared against a threshold calibrated to
retain a target fraction of known samples, and everything below is
rejected as unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import atomic_open
from .signals import UNKNOWN_LABEL, WindowTable

# score_windows splits the rows into the fewest equal blocks of at most
# this many, so the hidden activations of a large test set are never all
# alive at once. BLAS may round a product of a few rows differently from a
# long one; blocks of at least half this size score every row exactly as
# one pass over the whole table would (at the default run's 1600 -> 256 ->
# 128 shapes on OpenBLAS 0.3.31, 250-row blocks still do, 125-row ones do
# not). At 512 a block's gathered rows are 6.6 MB of a 1600-wide table, so
# training, not scoring, sets a run's peak memory.
SCORE_BLOCK_ROWS = 512


@dataclass
class ScoreTable:
    """Per-branch similarities of M scored windows plus the fused decision."""

    sims: np.ndarray  # (M, K, N)
    s_max: np.ndarray  # (M,) maximum over classes of the mean over the K branches
    predicted: np.ndarray  # (M,) fused argmax class 1..N
    true_labels: np.ndarray  # (M,) 1..N, or UNKNOWN_LABEL

    def __len__(self) -> int:
        return self.sims.shape[0]

    @property
    def known(self) -> np.ndarray:
        """(M,) mask of windows whose true class is known."""
        return self.true_labels != UNKNOWN_LABEL

    @property
    def branch_predictions(self) -> np.ndarray:
        """(M, K) per-branch argmax classes (1..N), lowest index on ties."""
        return self.sims.argmax(axis=2) + 1


def score_windows(branch_score_fns, windows: WindowTable) -> ScoreTable:
    """Score windows with every branch and fuse by the mean over branches.

    The prediction is the fused argmax, lowest class index on ties; the
    true labels are the table's own (split_trials remaps them to 1..N or
    UNKNOWN_LABEL). Rows are scored in blocks of at most
    SCORE_BLOCK_ROWS into one preallocated similarity table; each block's
    rows are gathered from the table only while that block is scored.
    """
    m = len(windows)
    n_blocks = max(1, -(-m // SCORE_BLOCK_ROWS))
    bounds = [m * i // n_blocks for i in range(n_blocks + 1)]
    sims = None
    for start, end in zip(bounds[:-1], bounds[1:]):
        x = windows.rows(slice(start, end))
        block = np.stack([fn(x) for fn in branch_score_fns], axis=1)
        del x  # freed before the next block is gathered
        if sims is None:
            sims = np.empty((m, *block.shape[1:]), dtype=block.dtype)
        sims[start:end] = block
    fused = sims.mean(axis=1)
    k0 = fused.argmax(axis=1)
    return ScoreTable(
        sims=sims,
        s_max=fused[np.arange(len(k0)), k0],
        predicted=k0 + 1,
        true_labels=windows.labels,
    )


def calibrate_threshold(known_smax, retention: float) -> float:
    """Nearest-rank threshold retaining at least the target fraction.

    The threshold is the ceil((1 - retention) * n)-th smallest calibration
    score; acceptance is score >= threshold, so at least retention * n of
    the calibration scores are accepted.
    """
    scores = np.asarray(known_smax, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot calibrate a threshold from an empty score list")
    if not 0.0 < retention < 1.0:
        raise ValueError(f"retention must lie in (0, 1), got {retention}")
    # 1e-9 guard so float fuzz in (1-retention)*n cannot shift the rank
    rank = max(1, math.ceil((1.0 - retention) * scores.size - 1e-9))
    return float(np.sort(scores)[rank - 1])


def decide(scored: ScoreTable, threshold: float) -> np.ndarray:
    """Accept as the predicted class iff s_max >= threshold, else reject.

    Returns the accepted class id per window, or UNKNOWN_LABEL on
    rejection. Scores exactly at the threshold are accepted.
    """
    return np.where(scored.s_max >= threshold, scored.predicted, UNKNOWN_LABEL)


def write_score_dump(path, scored: ScoreTable, threshold: float) -> None:
    """Per-sample score CSV consumed by the metrics module and external tools.

    The bytes are those of csv.writer's default dialect: no field needs
    quoting, and every line ends in \\r\\n. Each column is converted to text
    once, floats by repr, and the file is written in one call.
    """
    n_branches = scored.sims.shape[1]
    header = (
        ["sample_id", "true_label"]
        + [f"branch{k+1}_smax" for k in range(n_branches)]
        + ["fused_smax", "k_star", "decision"]
    )
    m = len(scored)
    columns = (
        map(str, range(m)),
        map(str, scored.true_labels.tolist()),
        *(map(repr, branch) for branch in scored.sims.max(axis=2).T.tolist()),
        map(repr, scored.s_max.tolist()),
        map(str, scored.predicted.tolist()),
        map(str, decide(scored, threshold).tolist()),
    )
    lines = [",".join(header), *map(",".join, zip(*columns)), ""]
    with atomic_open(path, newline="") as f:
        f.write("\r\n".join(lines))
