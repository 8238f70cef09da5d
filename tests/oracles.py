"""Brute-force reference implementations used to validate the package.

These deliberately recompute results the slow, obvious way (pairwise
loops, exhaustive sweeps, scalar arithmetic) and never call the code paths
they are oracles for.
"""

import csv
import math
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from predin.encoder import EncoderParams, EncoderSpec, ForwardCache, lr_schedule
from predin.inconsistency import (
    BranchState,
    inconsistency_loss,
    nearest_other_prototype,
    proximity_backward,
    proximity_probs,
)
from predin.prototypes import check_labels, dce_loss
from predin.scoring import decide
from predin.signals import (
    SignalRecording,
    SyntheticConfig,
    _class_offsets,
    _samples_in,
)


def auc_pairwise(known, unknown) -> float:
    """Mann-Whitney AUC by directly counting ordered pairs."""
    known = np.asarray(known, dtype=np.float64)
    unknown = np.asarray(unknown, dtype=np.float64)
    gt = (known[:, None] > unknown[None, :]).sum()
    eq = (known[:, None] == unknown[None, :]).sum()
    return float((gt + 0.5 * eq) / (known.size * unknown.size))


def auc_pairwise_scalar(known, unknown) -> float:
    """Same count in pure Python, for small inputs."""
    num = 0.0
    for k in known:
        for u in unknown:
            if k > u:
                num += 1.0
            elif k == u:
                num += 0.5
    return num / (len(known) * len(unknown))


def oscr_sweep(known_scores, known_correct, unknown_scores) -> float:
    """OSCR via an exhaustive sweep over every distinct threshold.

    Builds the full (FPR, CCR) point list in decreasing-threshold order,
    then integrates the right-continuous step curve: at each x the last
    point wins, and each segment contributes width times the left value.
    """
    ks = np.asarray(known_scores, dtype=np.float64)
    kc = np.asarray(known_correct, dtype=bool)
    us = np.asarray(unknown_scores, dtype=np.float64)
    points = [(0.0, 0.0)]
    for t in sorted(set(ks.tolist()) | set(us.tolist()), reverse=True):
        ccr = float(np.mean(kc & (ks >= t)))
        fpr = float(np.mean(us >= t))
        points.append((fpr, ccr))
    points.append((1.0, float(np.mean(kc))))
    heights = {}
    for x, y in points:
        heights[x] = y
    xs = sorted(heights)
    return sum((x1 - x0) * heights[x0] for x0, x1 in zip(xs[:-1], xs[1:]))


def auc_tie_loop(known_scores, unknown_scores) -> float:
    """Midrank AUC with a Python loop over runs of tied values.

    The former library implementation; the vectorized auc must equal it
    bit for bit.
    """
    known = np.asarray(known_scores, dtype=np.float64)
    unknown = np.asarray(unknown_scores, dtype=np.float64)
    combined = np.concatenate([known, unknown])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty(combined.size, dtype=np.float64)
    ranks[order] = np.arange(1, combined.size + 1)
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    u = ranks[: known.size].sum() - known.size * (known.size + 1) / 2.0
    return float(u / (known.size * unknown.size))


def oscr_step_loop(known_scores, known_correct, unknown_scores) -> float:
    """OSCR from one (FPR, CCR) point per distinct threshold, integrated by
    a Python loop over the step curve.

    The former library implementation; the sort-based oscr must equal it
    bit for bit.
    """
    ks = np.asarray(known_scores, dtype=np.float64)
    kc = np.asarray(known_correct, dtype=bool)
    us = np.asarray(unknown_scores, dtype=np.float64)
    thresholds = np.unique(np.concatenate([ks, us]))[::-1]
    points = [(0.0, 0.0)]  # threshold = +inf
    for t in thresholds:
        points.append((float((us >= t).mean()), float((kc & (ks >= t)).mean())))
    points.append((1.0, float(kc.mean())))  # threshold = -inf
    by_x = {}
    for x, y in points:
        by_x[x] = y  # at a repeated x the last point wins
    xs = sorted(by_x)
    area = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        area += (x1 - x0) * by_x[x0]
    return area


def count_windows_enumeration(length: int, window_len: int, stride: int) -> int:
    """Window count by walking every start position."""
    count = 0
    start = 0
    while start + window_len <= length:
        count += 1
        start += stride
    return count


def mlp_forward_scalar(weights, biases, x_row):
    """Scalar triple-loop forward pass of one input row, tanh on each hidden layer."""
    a = list(x_row)
    n_layers = len(weights)
    for li, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for j in range(w.shape[0]):
            s = b[j]
            for i in range(w.shape[1]):
                s += w[j][i] * a[i]
            if li < n_layers - 1:
                s = np.tanh(s)
            out.append(s)
        a = out
    return np.array(a)


def dot_scalar(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def window_recordings(recordings, window_ms: float, step_ms: float) -> SimpleNamespace:
    """Every window of every recording, each copied out on its own.

    The former library table: one C-contiguous (M, C, T) array ``x`` filled
    with np.concatenate(..., out=) from each recording's sliding view, in
    recording order, plus per-window ``labels``, ``trials`` and ``subjects``.
    """
    views = []
    for r in recordings:
        t = int(round(window_ms * r.sampling_rate / 1000.0))
        stride = int(round(step_ms * r.sampling_rate / 1000.0))
        if r.n_timesteps < t:
            views.append(np.empty((0, r.n_channels, t)))
        else:
            views.append(sliding_window_view(r.samples, t, axis=1)[:, ::stride].transpose(1, 0, 2))
    x = np.empty((sum(map(len, views)), *views[0].shape[1:]))
    np.concatenate(views, out=x)

    def per_window(attr):
        return np.concatenate([np.full(len(v), getattr(r, attr), dtype=np.int64)
                               for r, v in zip(recordings, views)])

    return SimpleNamespace(x=x, labels=per_window("gesture_label"),
                           trials=per_window("trial_id"), subjects=per_window("subject_id"))


def standardize_copies(train_x, test_x, floor: float = 1e-8):
    """The former in-place standardization of (M, C, T) window copies.

    Each channel's statistics come from ``train_x[:, c, :].flatten()``
    (mean, then np.std's subtract-square-mean steps in that copy); both
    arrays are then scaled in place by the mean and the floored std.
    """
    mean = np.empty(train_x.shape[1])
    std = np.empty(train_x.shape[1])
    for c in range(train_x.shape[1]):
        row = train_x[:, c, :].flatten()
        mean[c] = row.mean()
        row -= mean[c]
        row *= row
        std[c] = np.sqrt(row.mean())
    std = np.where(std < floor, floor, std)
    for x in (train_x, test_x):
        x -= mean[:, None]
        x /= std[:, None]


def sgd_step_three_lines(arrays, grads, velocities, lr: float, momentum: float) -> None:
    """The former momentum update, one temporary per parameter."""
    for a, g, v in zip(arrays, grads, velocities):
        v *= momentum
        v += g
        a -= lr * v


def encoder_forward_allocating(params, inputs):
    """The former forward: each layer's pre-activation, bias sum and
    tanh is a fresh array. Returns (embeddings, ForwardCache)."""
    x = np.asarray(inputs, dtype=np.float64)
    n_layers = len(params.weights)
    layer_inputs = []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(a)
        z = a @ w.T + b
        a = np.tanh(z) if i < n_layers - 1 else z
    return a, ForwardCache(params=params, layer_inputs=layer_inputs)


def encoder_backward_allocating(cache, grad_embeddings, out=None):
    """The former backward: every call allocates fresh gradient arrays, and
    ``out`` is ignored."""
    params = cache.params
    grads = []  # built last layer first, bias before weight
    delta = np.asarray(grad_embeddings, dtype=np.float64)
    for i in range(len(params.weights) - 1, -1, -1):
        grads += [delta.sum(axis=0), delta.T @ cache.layer_inputs[i]]
        if i > 0:
            a = cache.layer_inputs[i]  # the tanh's output: its derivative is 1 - a*a
            delta = (delta @ params.weights[i]) * (1.0 - a * a)
    return grads[::-1]


def compactness_loss_allocating(embeddings, labels, prototypes):
    """The former compactness term, one fresh (M, d) array per step.
    np.add.at stands in for scatter_add_rows, which equals it bit for bit."""
    z = np.asarray(embeddings, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    y0 = check_labels(labels, p.shape[0]) - 1
    m = z.shape[0]
    u = z - p[y0]
    l1 = np.abs(u).sum(axis=1)
    small = l1 < 1.0
    loss = np.where(small, 0.5 * (u * u).sum(axis=1), l1 - 0.5).mean()
    du = np.where(small[:, None], u, np.sign(u)) / m
    d_protos = np.zeros_like(p)
    np.add.at(d_protos, y0, -du)
    return loss, du, d_protos


def pl_loss_allocating(embeddings, labels, prototypes, beta=1.0):
    """The former PL loss: DCE plus beta times compactness, summed into fresh
    arrays."""
    dce, dz_dce, dp_dce = dce_loss(embeddings, labels, prototypes)
    if beta == 0.0:
        return dce, dz_dce, dp_dce
    com, dz_com, dp_com = compactness_loss_allocating(embeddings, labels, prototypes)
    return dce + beta * com, dz_dce + beta * dz_com, dp_dce + beta * dp_com


def triplet_loss_allocating(embeddings, labels, prototypes, m2):
    """The former triplet term, one fresh (M, d) array per step. np.add.at
    stands in for scatter_add_rows, which equals it bit for bit."""
    z = np.asarray(embeddings, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    y0 = check_labels(labels, p.shape[0]) - 1
    m = z.shape[0]
    neg0 = nearest_other_prototype(p)[y0]
    u_pos = z - p[y0]
    u_neg = z - p[neg0]
    d_pos = np.sqrt((u_pos * u_pos).sum(axis=1))
    d_neg = np.sqrt((u_neg * u_neg).sum(axis=1))
    viol = d_pos - d_neg + m2
    active = viol > 0
    loss = np.maximum(viol, 0.0).mean()
    # unit vectors with subgradient 0 at zero distance
    pos_hat = u_pos / np.where(d_pos > 0, d_pos, 1.0)[:, None]
    neg_hat = u_neg / np.where(d_neg > 0, d_neg, 1.0)[:, None]
    w = active.astype(np.float64)[:, None] / m
    dz = w * (pos_hat - neg_hat)
    dp = np.zeros_like(p)
    np.add.at(dp, y0, -w * pos_hat)
    np.add.at(dp, neg0, w * neg_hat)  # accumulates onto the first scatter
    return loss, dz, dp


def div_loss_allocating(x, y, branches, hp, frozen=None):
    """The former div_loss on the allocating forward and losses: both
    forwards first, then the proximity rows, and each weighted term added
    as a fresh product. Returns (terms, parts) as div_loss does."""
    pair = list(branches) if frozen is None else [*branches, frozen]
    forward = [encoder_forward_allocating(b.encoder, x) for b in pair]
    dists = [
        proximity_probs(emb, y, b.prototypes, hp.m1, keep_cache=i < len(branches), own_dots=None)
        for i, (b, (emb, _)) in enumerate(zip(pair, forward))
    ]
    incon, *dprobs = inconsistency_loss(dists[0], dists[1])
    pls, trips, parts = [], [], []
    for i, branch in enumerate(branches):
        (emb, cache), protos = forward[i], branch.prototypes
        pl, dz, dp = pl_loss_allocating(emb, y, protos, hp.beta)
        if hp.gamma != 0.0:
            dz_inc, dp_inc = proximity_backward(dists[i], dprobs[i])
            dz += hp.gamma * dz_inc
            dp += hp.gamma * dp_inc
        trip, dz_t, dp_t = triplet_loss_allocating(emb, y, protos, hp.m2)
        if hp.alpha != 0.0:
            dz += hp.alpha * dz_t
            dp += hp.alpha * dp_t
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


def train_allocating(branches, objective, partition, config, shuffle_seed):
    """The former training loop, on freshly allocated gradients.

    All branches' gradients are made first, each by
    encoder_backward_allocating plus the part's head gradients, and stay
    bound until the next step's are made; then every branch takes its
    sgd_step_three_lines update of the velocities kept here for it, zero
    at the start, at the epoch's lr_schedule rate and config.momentum.
    Returns the same {term: epoch mean} trace as train().
    """
    windows = partition.train_windows
    y = windows.labels
    velocities = [[np.zeros_like(a) for a in b.arrays()] for b in branches]
    rng = np.random.default_rng(shuffle_seed)
    trace = []
    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config.lr)
        sums = {}
        perm = rng.permutation(len(y))
        for start in range(0, len(y), config.batch_size):
            idx = perm[start : start + config.batch_size]
            terms, parts = objective(windows.rows(idx), y[idx], branches)
            branch_grads = [
                encoder_backward_allocating(cache, dz) + head for cache, dz, head in parts
            ]
            for b, grads, v in zip(branches, branch_grads, velocities):
                sgd_step_three_lines(b.arrays(), grads, v, lr, config.momentum)
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + len(idx) * value
        trace.append({k: s / len(y) for k, s in sums.items()})
    return trace


def margin_distance(z, prototypes, label: int, m1: float) -> np.ndarray:
    """Margin-clamped relative distances of one embedding to the other classes.

    Entry j (in ascending class order, own class skipped) is
    -max(z.p^y - z.p^j - m1, 0); the z.p^y term is a constant under
    differentiation. The one-sample form of the clamp inside
    proximity_probs.
    """
    z = np.asarray(z, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    n = p.shape[0]
    if not 1 <= label <= n:
        raise ValueError(f"label must lie in 1..{n}")
    dots = p @ z
    own = dots[label - 1]
    others = np.delete(dots, label - 1)
    return -np.maximum(own - others - m1, 0.0)


def class_posterior(z, prototypes) -> np.ndarray:
    """Posterior over the N known classes for a single embedding: the
    softmax of its prototype dot products, with max subtraction."""
    dots = np.asarray(prototypes, dtype=np.float64) @ np.asarray(z, dtype=np.float64)
    e = np.exp(dots - dots.max())
    return e / e.sum()


def generate_synthetic_serial(config: SyntheticConfig) -> list[SignalRecording]:
    """The former one-thread generator: every recording's oscillation,
    noise and sum evaluated as one expression, in list order, its noise
    smoothed row by row into a fresh array; returns the recordings. The
    two-thread generate_synthetic must equal it byte for byte."""
    rng = np.random.default_rng(config.data_seed)
    n = _samples_in("recording_ms", config.recording_ms, config.sampling_rate_hz)
    offsets = _class_offsets(config, rng)
    freqs = rng.uniform(5.0, 45.0, size=config.channels)
    phases = rng.uniform(0.0, 2 * np.pi, size=config.channels)
    t = np.arange(n) / config.sampling_rate_hz
    recordings: list[SignalRecording] = []
    for c in range(config.n_classes):
        for trial in range(1, config.trials + 1):
            trial_phase = rng.uniform(0.0, 2 * np.pi)
            osc = np.sin(
                2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None] + trial_phase
            )
            noise = rng.standard_normal((config.channels, n))
            if config.smooth_samples > 1:  # moving average, rescaled to unit variance
                width = config.smooth_samples
                smoothed = np.empty_like(noise)
                for i in range(config.channels):
                    smoothed[i] = np.convolve(noise[i], np.ones(width) / width, mode="same")
                noise = smoothed * math.sqrt(width)
            samples = (
                offsets[c][:, None]
                + config.separation * config.osc_scale * osc
                + config.noise_scale * noise
            )
            recordings.append(
                SignalRecording(
                    samples=samples,
                    sampling_rate=config.sampling_rate_hz,
                    gesture_label=c + 1,
                    trial_id=trial,
                    subject_id=1,
                )
            )
    return recordings


def write_score_dump_csv(path, scored, threshold) -> None:
    """The former score dump: one csv.writer row per scored window. The
    joined-column write_score_dump must write the same bytes."""
    n_branches = scored.sims.shape[1]
    header = (
        ["sample_id", "true_label"]
        + [f"branch{k+1}_smax" for k in range(n_branches)]
        + ["fused_smax", "k_star", "decision"]
    )
    columns = zip(
        scored.true_labels.tolist(),
        scored.sims.max(axis=2).tolist(),
        scored.s_max.tolist(),
        scored.predicted.tolist(),
        decide(scored, threshold).tolist(),
    )
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i, (true, branch_smax, s_max, k_star, decision) in enumerate(columns):
            writer.writerow([i, true, *map(repr, branch_smax), repr(s_max), k_star, decision])


def assert_checkpoint_holds(path, branches) -> None:
    """The checkpoint at path, read with np.load, holds exactly the
    predin-branches-v3 entries of these branches, each with the dtype,
    shape and bytes of the array it stores."""
    want = {
        "format": np.array("predin-branches-v3"),
        "n_branches": np.array(len(branches), dtype=np.int64),
    }
    for k, branch in enumerate(branches):
        want[f"b{k}_n_head"] = np.array(len(branch.head), dtype=np.int64)
        want.update((f"b{k}_p{i}", a) for i, a in enumerate(branch.arrays()))
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(want)
        for key, w in want.items():
            got = data[key]
            assert (got.dtype, got.shape, got.tobytes()) == (w.dtype, w.shape, w.tobytes()), key


def branches_from_checkpoint(path) -> list:
    """The branches of a predin-branches-v3 checkpoint, from the file alone.

    Branch k's arrays are b{k}_p0, b{k}_p1, ... up to the first index the
    file lacks: each layer's weight (out, in) and bias, then b{k}_n_head
    head arrays. The layer widths are read off the weights' shapes.
    """
    branches = []
    with np.load(path, allow_pickle=False) as data:
        assert data["format"].item() == "predin-branches-v3"
        for k in range(int(data["n_branches"])):
            arrays = []
            while f"b{k}_p{len(arrays)}" in data.files:
                arrays.append(data[f"b{k}_p{len(arrays)}"])
            n_enc = len(arrays) - int(data[f"b{k}_n_head"])
            weights, biases = arrays[0:n_enc:2], arrays[1:n_enc:2]
            widths = [w.shape[0] for w in weights]
            spec = EncoderSpec(weights[0].shape[1], widths[:-1], widths[-1])
            encoder = EncoderParams(spec=spec, weights=weights, biases=biases)
            branches.append(BranchState(encoder=encoder, head=arrays[n_enc:]))
    return branches
