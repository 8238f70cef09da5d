"""Per-class learnable prototypes with a distance-softmax classifier.

The generalized distance between an embedding z and a prototype p is the
negated dot product d(z, p) = -z.p, so the class posterior is a softmax over
dot products. The training objective of a single branch combines the
distance cross-entropy (DCE, cross_entropy over the dot products; the
softmax baseline's linear head uses the same cross_entropy) with a
compactness term pulling embeddings onto their own prototype.

Every loss returns (loss, d_embeddings, d_prototypes) with freshly
allocated gradients that the caller may overwrite. Each loss works in a
few (M, d) arrays it allocates once and writes in place (compactness_loss
in two, pl_loss adds its terms into DCE's gradients), with the same bits
as one fresh array per expression. The losses compute in the dtype of
their inputs (numpy promotes a mix); every run path feeds them float64.
"""

from __future__ import annotations

import numpy as np


def init_prototypes(n_classes: int, dim: int, seed: int) -> np.ndarray:
    """Standard-normal (n_classes, dim) prototypes, row k-1 for remapped
    class k, deterministic per seed."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_classes, dim))


# scatter_add_rows gathers at most this many rows of one target at a time
SCATTER_ROWS = 32


def scatter_add_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """In place out[index[i]] += rows[i], bit for bit as np.add.at does it.

    Per target row, the selected rows are summed after out[k] along axis
    0, which numpy adds sequentially in row order like np.add.at; starting
    the sum from -0.0, the additive identity, keeps signed zeros. They go
    in blocks of SCATTER_ROWS, each summed after the running total, which
    is the same sequence of additions. A single column would be summed
    pairwise, so it goes through np.add.at. Indices must lie in
    0..len(out)-1.
    """
    if rows.shape[1] == 1:
        np.add.at(out, index, rows)
        return
    for k in range(out.shape[0]):
        picked = np.flatnonzero(index == k)
        for i in range(0, len(picked), SCATTER_ROWS):
            block = np.concatenate((out[k][None], rows[picked[i : i + SCATTER_ROWS]]))
            out[k] = np.add.reduce(block, axis=0, initial=-0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    logits = np.atleast_2d(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """labels as int64; ValueError unless every one lies in 1..n_classes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError(f"labels must lie in 1..{n_classes}")
    return labels


def cross_entropy(logits: np.ndarray, labels):
    """Mean negative log-softmax of each row's true class, labels 1..N over
    the N columns of the (M, N) logits, and its gradient in the logits.

    Returns (loss, d_logits). Computed through log-softmax, so the log
    argument never underflows.
    """
    y0 = check_labels(labels, logits.shape[1]) - 1
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = -(shifted - np.log(total))[rows, y0].mean()
    dlogits = np.divide(e, total, out=e)  # the softmax
    dlogits[rows, y0] -= 1.0
    dlogits /= len(rows)
    return loss, dlogits


def dce_loss(embeddings: np.ndarray, labels, prototypes: np.ndarray):
    """Distance cross-entropy: the cross-entropy of the dot products z.p^k,
    the negated distances. Returns (loss, d_embeddings, d_prototypes)."""
    z, p = embeddings, prototypes
    loss, dlogits = cross_entropy(z @ p.T, labels)
    return loss, dlogits @ p, dlogits.T @ z


def compactness_loss(embeddings: np.ndarray, labels, prototypes: np.ndarray):
    """Smooth-L1 pull of each embedding onto its own prototype.

    With u = z - p^y:  0.5*||u||_2^2 when ||u||_1 < 1, else ||u||_1 - 0.5.

    The value steps at ||u||_1 = 1, where the large branch gives exactly
    0.5 but the small branch gives 0.5*||u||_2^2, as low as 0.5/d. For
    u = (0.5, 0.5) it is 0.25 just below the switch and 0.5 at and above it.
    """
    z, p = embeddings, prototypes
    y0 = check_labels(labels, p.shape[0]) - 1
    m = z.shape[0]
    u = z - p[y0]
    work = np.abs(u)  # the one (M, d) buffer besides u
    l1 = work.sum(axis=1)
    small = l1 < 1.0
    sq_norm = np.multiply(u, u, out=work).sum(axis=1)
    du = np.sign(u, out=work)
    np.copyto(du, u, where=small[:, None])
    loss = np.where(small, 0.5 * sq_norm, l1 - 0.5).mean()
    du /= m
    d_protos = np.zeros(p.shape, du.dtype)
    scatter_add_rows(d_protos, y0, np.negative(du, out=u))
    return loss, du, d_protos


def pl_loss(embeddings: np.ndarray, labels, prototypes: np.ndarray, beta: float):
    """Single-branch objective: DCE plus beta times the compactness term."""
    dce, dz, dp = dce_loss(embeddings, labels, prototypes)
    if beta == 0.0:
        return dce, dz, dp
    com, dz_com, dp_com = compactness_loss(embeddings, labels, prototypes)
    dz += np.multiply(beta, dz_com, out=dz_com)
    dp += np.multiply(beta, dp_com, out=dp_com)
    return dce + beta * com, dz, dp
