"""Cross-branch inconsistency learning: the core training machinery.

Two prototype branches are trained on identical mini-batches. Within each
branch, per-sample proximity distributions over the non-corresponding
classes are built from margin-clamped relative distances; the inconsistency
loss then pushes the two branches' distributions toward opposite extremes,
while a triplet term keeps classes separated inside each branch.

Loss pieces, with y the sample's class and sg() a stop-gradient:
  margin distance   d(z, p^j) = -max(sg(z.p^y) - z.p^j - m1, 0),  j != y
  proximity row     softmax_j of -d(z, p^j)       (uniform when all clamp)
  inconsistency     -mean_i log sum_j [pA(1-pB) + pB(1-pA)]   (clamped log)
  triplet           mean_i max(||z-p^y|| - ||z-p^j*|| + m2, 0),
                    j* the nearest other prototype to p^y, refreshed per batch

Every variant is init_branch() followed by the one loop in train(): K
branches, each with its own momentum velocities and a prototype or linear
softmax head, and a per-batch objective(x, y, branches) -> (terms, parts) that
gives the loss terms and, per trained branch, a (forward cache, d loss /
d embeddings, head gradients) part. The branches are coupled only through
their embedding gradients, fixed before any parameter moves, so train()
runs each branch's encoder backward (branch_gradients) into one gradient
set and steps that branch before the next branch's backward.

Every loss returns freshly allocated gradients that its caller may
overwrite; div_loss adds each weighted term into the PL gradients in
place. triplet_loss works in three (M, d) arrays. div_loss drops a frozen
partner's activations once its proximity rows exist, and each trained
branch's embeddings once its terms are in, so at the peak of a joint step
(branch b's triplet term) it holds both branches' forward caches, branch
a's gradients, branch b's embeddings and PL-plus-inconsistency gradient,
and the triplet term's three arrays: 2.8 MB of scratch at the default
widths (252 rows, 1600 -> 256 -> 128), against 4.6 MB when every
expression was a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoder import (
    EncoderParams,
    EncoderSpec,
    ForwardCache,
    NonFiniteGradientError,
    encoder_backward,
    encoder_forward,
    init_encoder,
    lr_schedule,
    sgd_step,
)
from .io import atomic_open, atomic_write_text
from .prototypes import (
    COMPACTNESS_FORMS,
    check_labels,
    cross_entropy,
    init_prototypes,
    pl_loss,
    scatter_add_rows,
    softmax,
)
from .signals import DatasetPartition, check_fields, ruled


class TrainingError(RuntimeError):
    """A seed cannot be trained: training diverged (the message carries
    epoch/batch diagnostics), or its test side has nothing to evaluate."""


@dataclass(frozen=True)
class DivHyperParams:
    """Weights and margins of the combined objective.

    beta scales compactness inside each branch's PL loss, gamma the
    cross-branch inconsistency loss, alpha the triplet loss; m1 is the
    inconsistency margin, m2 the triplet margin.
    """

    beta: float = ruled(1.0, "[0, inf)")
    gamma: float = ruled(1.0, "[0, inf)")
    alpha: float = ruled(1.0, "[0, inf)")
    m1: float = ruled(0.5, "[0, inf)")
    m2: float = ruled(1.0, "[0, inf)")
    epsilon_log: float = ruled(1e-12, "(0, inf)")
    compactness_form: str = ruled("huber_sq", COMPACTNESS_FORMS)

    def __post_init__(self):
        check_fields(self)


@dataclass
class BranchState:
    """One perspective: an encoder, its head arrays and their SGD momentum
    velocities, one per array of arrays().

    The head is [prototypes (N, d)] for a prototype branch, or
    [weight (N, d), bias (N,)] for the softmax baseline's linear head.
    """

    encoder: EncoderParams
    head: list[np.ndarray]
    head_seed: int
    velocities: list[np.ndarray]

    @property
    def prototypes(self) -> np.ndarray | None:
        """The (N, d) prototype matrix, or None for a softmax head."""
        return self.head[0] if len(self.head) == 1 else None

    def arrays(self) -> list[np.ndarray]:
        return self.encoder.arrays() + self.head


def init_branch(
    spec: EncoderSpec,
    n_classes: int,
    encoder_seed: int,
    head_seed: int,
    head: str = "prototypes",
) -> BranchState:
    """A fresh branch with a "prototypes" head, or a "softmax" linear head
    (weight ~ N(0, 2/d), zero bias), drawn from head_seed, and zero
    velocities."""
    enc = init_encoder(spec, encoder_seed)
    d = spec.output_dim
    if head == "prototypes":
        arrays = [init_prototypes(n_classes, d, head_seed)]
    elif head == "softmax":
        rng = np.random.default_rng(head_seed)
        arrays = [rng.normal(0.0, np.sqrt(2.0 / d), size=(n_classes, d)), np.zeros(n_classes)]
    else:
        raise ValueError(f"head must be 'prototypes' or 'softmax', got {head!r}")
    return BranchState(
        encoder=enc,
        head=arrays,
        head_seed=head_seed,
        velocities=[np.zeros_like(a) for a in enc.arrays() + arrays],
    )


def branch_gradients(
    cache: ForwardCache, grad_embeddings: np.ndarray, head_grads: list[np.ndarray], out=None
) -> list[np.ndarray]:
    """One branch's parameter gradients, aligned with BranchState.arrays():
    the encoder backward of grad_embeddings (written into ``out`` when
    given, see encoder_backward) followed by the head gradients."""
    return encoder_backward(cache, grad_embeddings, out=out) + head_grads


def branch_score_fn(branch: BranchState):
    """Branch scorer: batch of flattened windows -> (M, N) prototype
    similarities Sim(z, p^k) = z.p^k, or for a softmax head its posterior
    probabilities."""
    protos = branch.prototypes

    def fn(x: np.ndarray) -> np.ndarray:
        emb, _ = encoder_forward(branch.encoder, x)
        if protos is not None:
            return emb @ protos.T
        head_w, head_b = branch.head
        return softmax(emb @ head_w.T + head_b)

    return fn


# ---------------------------------------------------------------------------
# proximity distributions and the inconsistency loss
# ---------------------------------------------------------------------------


@dataclass
class ProximityCache:
    """Intermediates needed to backpropagate through a proximity row."""

    embeddings: np.ndarray  # (M, d)
    prototypes: np.ndarray  # (N, d)
    cols: np.ndarray  # (M, N-1) class indices (0-based) per row, own class removed
    active: np.ndarray  # (M, N-1) where the margin clamp is not engaged


@dataclass
class ProximityDistribution:
    """Row-stochastic (M, N-1) proximity over non-corresponding classes."""

    probs: np.ndarray
    labels: np.ndarray  # (M,) excluded class per row, 1..N
    cache: ProximityCache | None = None


def own_class_dots(embeddings: np.ndarray, labels, prototypes: np.ndarray) -> np.ndarray:
    """Per-sample dot product with the own-class prototype, z_i . p^{y_i}."""
    y0 = np.asarray(labels, dtype=np.int64) - 1
    return (embeddings * prototypes[y0]).sum(axis=1)


def proximity_probs(
    embeddings: np.ndarray,
    labels,
    prototypes: np.ndarray,
    m1: float,
    keep_cache: bool = True,
    *,
    own_dots: np.ndarray | None,
) -> ProximityDistribution:
    """Per-sample softmax over margin-clamped relative distances.

    When every distance of a row clamps to zero the row is uniform.
    own_dots, unless None, overrides the computed z.p^y reference per row;
    the finite-difference oracle uses it to hold that stop-gradient term at
    its unperturbed value.
    """
    z, p = embeddings, prototypes
    n = p.shape[0]
    labels = check_labels(labels, n)
    m = z.shape[0]
    y0 = labels - 1
    dots = z @ p.T
    grid = np.tile(np.arange(n), (m, 1))
    cols = grid[grid != y0[:, None]].reshape(m, n - 1)
    if own_dots is None:
        own = dots[np.arange(m), y0][:, None]
    else:
        own = own_dots[:, None]
    gaps = own - np.take_along_axis(dots, cols, axis=1)
    logits = np.maximum(gaps - m1, 0.0)
    probs = softmax(logits)
    cache = None
    if keep_cache:
        cache = ProximityCache(embeddings=z, prototypes=p, cols=cols, active=gaps > m1)
    return ProximityDistribution(probs=probs, labels=labels, cache=cache)


def proximity_backward(dist: ProximityDistribution, dprobs: np.ndarray):
    """Backprop row-softmax and margin clamp of a cached distribution.

    Returns (d_embeddings, d_prototypes) for the gradient dprobs w.r.t.
    dist.probs; the own-class dot is a stop-gradient.
    """
    cache = dist.cache
    probs = dist.probs
    dlogits = probs * (dprobs - (dprobs * probs).sum(axis=1, keepdims=True))
    m, n = cache.embeddings.shape[0], cache.prototypes.shape[0]
    ddots = np.zeros((m, n), dlogits.dtype)
    # d logit / d (z.p^j) = -1 where unclamped; own-class dot is stop-gradient
    np.put_along_axis(ddots, cache.cols, -dlogits * cache.active, axis=1)
    return ddots @ cache.prototypes, ddots.T @ cache.embeddings


def inconsistency_loss(
    dist_a: ProximityDistribution,
    dist_b: ProximityDistribution,
    epsilon_log: float,
):
    """Cross-branch inconsistency over aligned proximity rows.

    Minimized (-ln 2) when the two rows are one-hot at different classes;
    the log argument is clamped below at epsilon_log, where the gradient
    vanishes. Returns (loss, dprobs_a, dprobs_b), the gradients w.r.t. the
    two distributions; proximity_backward carries each further.
    """
    pa, pb = dist_a.probs, dist_b.probs
    if pa.shape != pb.shape:
        raise ValueError(f"misaligned batches: {pa.shape} vs {pb.shape}")
    if not np.array_equal(dist_a.labels, dist_b.labels):
        raise ValueError("misaligned batches: branch rows exclude different classes")
    m = pa.shape[0]
    inner = (pa * (1.0 - pb) + pb * (1.0 - pa)).sum(axis=1)
    arg = np.maximum(inner, epsilon_log)
    loss = -np.log(arg).mean()
    dinner = np.where(inner > epsilon_log, -1.0 / (m * arg), 0.0)
    return loss, dinner[:, None] * (1.0 - 2.0 * pb), dinner[:, None] * (1.0 - 2.0 * pa)


# ---------------------------------------------------------------------------
# triplet separability
# ---------------------------------------------------------------------------


def nearest_other_prototype(prototypes: np.ndarray) -> np.ndarray:
    """For each class, the 0-based index of the nearest other prototype."""
    diff = prototypes[:, None, :] - prototypes[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist.argmin(axis=1)


def triplet_loss(embeddings: np.ndarray, labels, prototypes: np.ndarray, m2: float):
    """Hinge on anchor-positive vs anchor-negative prototype distances.

    The negative for class y is the prototype nearest to p^y (recomputed
    here, i.e. every batch). Returns (loss, d_embeddings, d_prototypes).
    """
    z, p = embeddings, prototypes
    y0 = check_labels(labels, p.shape[0]) - 1
    m = z.shape[0]
    neg0 = nearest_other_prototype(p)[y0]
    u_pos, u_neg = z - p[y0], z - p[neg0]
    sq = np.multiply(u_pos, u_pos)  # reused for u_neg's squares, then for dz
    d_pos = np.sqrt(sq.sum(axis=1))
    d_neg = np.sqrt(np.multiply(u_neg, u_neg, out=sq).sum(axis=1))
    viol = d_pos - d_neg + m2
    active = viol > 0
    loss = np.maximum(viol, 0.0).mean()
    # unit vectors with subgradient 0 at zero distance
    pos_hat = np.divide(u_pos, np.where(d_pos > 0, d_pos, 1.0)[:, None], out=u_pos)
    neg_hat = np.divide(u_neg, np.where(d_neg > 0, d_neg, 1.0)[:, None], out=u_neg)
    w = active.astype(sq.dtype)[:, None] / m
    dz = np.multiply(w, np.subtract(pos_hat, neg_hat, out=sq), out=sq)
    dp = np.zeros(p.shape, dz.dtype)
    scatter_add_rows(dp, y0, np.multiply(-w, pos_hat, out=pos_hat))
    # accumulates onto the first scatter
    scatter_add_rows(dp, neg0, np.multiply(w, neg_hat, out=neg_hat))
    return loss, dz, dp


# ---------------------------------------------------------------------------
# per-batch objectives and the training loop
# ---------------------------------------------------------------------------


def pl_objective(x: np.ndarray, y: np.ndarray, branches: list[BranchState], hp: DivHyperParams):
    """PL loss alone on one prototype branch (the single-branch baseline)."""
    (branch,) = branches
    emb, cache = encoder_forward(branch.encoder, x)
    pl, dz, dp = pl_loss(emb, y, branch.prototypes, hp.beta, hp.compactness_form)
    return {"pl_a": pl, "total": pl}, [(cache, dz, [dp])]


def softmax_objective(x: np.ndarray, y: np.ndarray, branches: list[BranchState]):
    """Cross-entropy of one branch's linear head on one batch (the softmax
    baseline)."""
    (branch,) = branches
    head_w, head_b = branch.head
    emb, cache = encoder_forward(branch.encoder, x)
    ce, dlogits = cross_entropy(emb @ head_w.T + head_b, y)
    head_grads = [dlogits.T @ emb, dlogits.sum(axis=0)]
    return {"pl_a": ce, "total": ce}, [(cache, dlogits @ head_w, head_grads)]


def div_loss(
    x: np.ndarray,
    y: np.ndarray,
    branches: list[BranchState],
    hp: DivHyperParams,
    frozen: BranchState | None = None,
    own_dots: tuple | None = None,
):
    """Full objective of one branch pair on one batch.

    Joint (branches = [a, b]): PL per branch, the shared inconsistency term
    and triplet per branch, with gradients into both. Against a frozen
    partner (branches = [a], frozen = b): PL and triplet of a, with the
    inconsistency term paired against b, which receives no gradient.
    own_dots (one array per branch of the pair) overrides the stop-gradient
    z.p^y references, as in proximity_probs. Returns (terms, parts) with
    one (cache, d_embeddings, [d_prototypes]) part per trained branch.
    """
    pair = list(branches) if frozen is None else [*branches, frozen]
    if len(pair) != 2:
        raise ValueError(f"div_loss needs a branch pair, got {len(pair)} branches")
    own_dots = own_dots or (None, None)
    forward, dists = [], []
    for i, b in enumerate(pair):
        trained = i < len(branches)
        emb, cache = encoder_forward(b.encoder, x)
        dists.append(proximity_probs(
            emb, y, b.prototypes, hp.m1, keep_cache=trained, own_dots=own_dots[i],
        ))
        if trained:  # a frozen partner's activations go once its rows exist
            forward.append((emb, cache))
    del emb, cache
    incon, *dprobs = inconsistency_loss(dists[0], dists[1], hp.epsilon_log)
    pls, trips, parts = [], [], []
    for i, branch in enumerate(branches):
        emb, cache = forward.pop(0)  # a branch's embeddings go with its terms
        protos = branch.prototypes
        pl, dz, dp = pl_loss(emb, y, protos, hp.beta, hp.compactness_form)
        if hp.gamma != 0.0:
            dz_inc, dp_inc = proximity_backward(dists[i], dprobs[i])
            dz += np.multiply(hp.gamma, dz_inc, out=dz_inc)
            dp += np.multiply(hp.gamma, dp_inc, out=dp_inc)
            del dz_inc  # each term's (M, d) gradient goes once it is added
        dists[i].cache = None  # it holds emb
        trip, dz_t, dp_t = triplet_loss(emb, y, protos, hp.m2)
        if hp.alpha != 0.0:
            dz += np.multiply(hp.alpha, dz_t, out=dz_t)
            dp += np.multiply(hp.alpha, dp_t, out=dp_t)
        del dz_t
        pls.append(pl)
        trips.append(trip)
        parts.append((cache, dz, [dp]))
    terms = {
        **{f"pl_{t}": v for t, v in zip("ab", pls)},
        "incon": incon,
        **{f"trip_{t}": v for t, v in zip("ab", trips)},
        "total": sum(pls) + hp.gamma * incon + hp.alpha * sum(trips),
    }
    return terms, parts


@dataclass(frozen=True)
class TrainConfig:
    """The config's "training" section: the SGD schedule of every branch."""

    epochs: int = ruled(100, "[0, inf)")
    batch_size: int = ruled(256, "[1, inf)")
    # the plain-MLP setup needs a smaller step than deep-backbone training
    lr: float = ruled(0.002, "[0, inf)")
    momentum: float = ruled(0.9, "[0, 1)")

    def __post_init__(self):
        check_fields(self)


def train(
    branches: list[BranchState],
    objective,
    partition: DatasetPartition,
    config: TrainConfig,
    shuffle_seed: int,
) -> list[dict[str, float]]:
    """Train K branches on identical mini-batches, shuffled by shuffle_seed.

    objective gives the loss terms ("total" always present) and one part
    per branch (module docstring). In turn, each branch's encoder gradients
    go into the one set this call owns (the encoders share a shape) and the
    branch takes an SGD step with its own velocities, at the epoch's
    lr_schedule rate of config.lr and config.momentum. One {term: epoch mean}
    dict per epoch is returned; a non-finite loss or gradient raises
    TrainingError naming the epoch and batch. Labels are the train table's
    own, 1..N (objectives reject any other before the step). Every batch x
    is gathered into one buffer, valid only during its objective call.
    """
    if not partition.standardized:
        raise ValueError("partition must be standardized before training")
    windows = partition.train_windows
    y = windows.labels
    if not len(y):
        raise ValueError("training partition is empty")
    rng = np.random.default_rng(shuffle_seed)
    arrays = [b.arrays() for b in branches]
    enc_grads = [np.empty_like(a) for a in branches[0].encoder.arrays()]
    trace: list[dict[str, float]] = []
    batch = np.empty((min(config.batch_size, len(y)), windows.input_dim), windows.signal.dtype)
    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config.lr)
        sums: dict[str, float] = {}
        perm = rng.permutation(len(y))
        for bi, start in enumerate(range(0, len(y), config.batch_size)):
            idx = perm[start : start + config.batch_size]
            x = windows.rows(idx, out=batch[: len(idx)])
            terms, parts = objective(x, y[idx], branches)
            where = f"at epoch {epoch}, batch {bi}"
            if not np.isfinite(terms["total"]):
                detail = ", ".join(f"{k}={v}" for k, v in terms.items())
                raise TrainingError(f"non-finite loss {where} ({detail})")
            for k, (b, part) in enumerate(zip(branches, parts)):
                try:
                    sgd_step(arrays[k], branch_gradients(*part, out=enc_grads),
                             b.velocities, lr, config.momentum)
                except NonFiniteGradientError as e:
                    raise TrainingError(f"{e} of branch {k + 1} {where}") from e
            del parts, part  # the caches go before the next batch's forward pass
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + len(idx) * value
        trace.append({k: s / len(y) for k, s in sums.items()})
    return trace


def train_sequential(
    partition: DatasetPartition,
    config: TrainConfig,
    hp: DivHyperParams,
    spec: EncoderSpec,
    branch_seeds: list[tuple[int, int]],
    shuffle_seed: int,
):
    """Train one branch per (encoder, prototype) seed pair, one after another,
    each on the batches that shuffle_seed draws.

    The first branch is a plain PL baseline; each later branch trains with
    the full objective, its inconsistency term paired against the previous
    (frozen) branch. Returns (branches, traces).
    """
    if not branch_seeds:
        raise ValueError("need at least one (encoder, prototype) seed pair")
    branches: list[BranchState] = []
    traces: list[list[dict[str, float]]] = []
    for enc_seed, proto_seed in branch_seeds:
        branch = init_branch(spec, partition.label_split.n_known, enc_seed, proto_seed)
        if branches:
            objective = partial(div_loss, hp=hp, frozen=branches[-1])
        else:
            objective = partial(pl_objective, hp=hp)
        traces.append(train([branch], objective, partition, config, shuffle_seed))
        branches.append(branch)
    return branches, traces


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "predin-branches-v1"

# every term an objective reports, in loss_trace.csv column order
LOSS_TRACE_COLUMNS = ("pl_a", "pl_b", "incon", "trip_a", "trip_b", "total")


def write_loss_trace(path, trace: list[dict[str, float]]) -> None:
    """CSV loss trace, one row per epoch of train()'s term means; a term the
    objective does not report is left empty, and one without a column
    raises ValueError."""
    lines = [",".join(("epoch",) + LOSS_TRACE_COLUMNS)]
    for epoch, terms in enumerate(trace):
        extra = sorted(terms.keys() - set(LOSS_TRACE_COLUMNS))
        if extra:
            raise ValueError(f"loss trace has no column for terms {extra}")
        cells = [repr(float(terms[c])) if c in terms else "" for c in LOSS_TRACE_COLUMNS]
        lines.append(",".join([str(epoch)] + cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_dual_checkpoint(
    path, branches: list[BranchState], hp: DivHyperParams, config: TrainConfig
) -> None:
    """K branches plus hyperparameters; np.load gives every array back bitwise.

    Per branch k: layer dims, activation, (encoder, head) seeds, the
    parameter arrays b{k}_p* in BranchState.arrays() order, how many of
    them form the head, the (lr, momentum, epoch) of the last epoch that
    config trains (epoch 0 when it trains none) and the velocities b{k}_v*.
    """
    last = max(config.epochs - 1, 0)
    opt_row = np.array([lr_schedule(last, config.lr), config.momentum, last])
    payload = {
        "format": np.array(CHECKPOINT_FORMAT),
        "hp": np.array([hp.beta, hp.gamma, hp.alpha, hp.m1, hp.m2, hp.epsilon_log]),
        "compactness_form": np.array(hp.compactness_form),
        "n_branches": np.array(len(branches), dtype=np.int64),
    }
    for k, branch in enumerate(branches):
        spec = branch.encoder.spec
        payload[f"b{k}_layer_dims"] = np.array(spec.layer_dims, dtype=np.int64)
        payload[f"b{k}_activation"] = np.array(spec.activation)
        payload[f"b{k}_seeds"] = np.array(
            [branch.encoder.init_seed, branch.head_seed], dtype=np.int64
        )
        payload[f"b{k}_n_head"] = np.array(len(branch.head), dtype=np.int64)
        payload[f"b{k}_opt"] = opt_row
        for i, a in enumerate(branch.arrays()):
            payload[f"b{k}_p{i}"] = a
        for i, v in enumerate(branch.velocities):
            payload[f"b{k}_v{i}"] = v
    with atomic_open(path, "wb") as f:
        np.savez(f, **payload)

