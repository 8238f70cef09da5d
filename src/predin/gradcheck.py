"""Finite-difference verification of every analytic gradient path.

An instance is small (3 classes, 8-dim embeddings, batch of 6): the random
BranchStates one loss trains, on the tanh encoder that every run trains. A
softmax head is drawn after the prototypes it replaces. The analytic
gradients are compared against central finite differences over a sampled
subset of encoder parameters and head arrays. Loss values for the
differencing are recomputed from scratch, with the perturbed values written
into the branches' arrays, so the numeric side never touches the backward
code it is checking. Every case runs an objective with the (terms, parts)
contract that train() consumes and turns each part into parameter
gradients with branch_gradients, as train() does: "pl" runs pl_objective,
"div" and "div_frozen" div_loss jointly and against a frozen partner,
"softmax" softmax_objective on a linear-head branch. "dce", "compactness"
and "triplet" run one loss on one prototype branch, and "incon" the
inconsistency term alone over a branch pair.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .encoder import (
    EncoderParams,
    EncoderSpec,
    FiniteDiffReport,
    encoder_forward,
    finite_diff_check,
)
from .inconsistency import (
    BranchState,
    DivHyperParams,
    branch_gradients,
    div_loss,
    inconsistency_loss,
    pl_objective,
    proximity_backward,
    proximity_probs,
    softmax_objective,
    triplet_loss,
)
from .prototypes import compactness_loss, dce_loss

_DIMS = (12, 16, 8)  # input, hidden and embedding widths
_SPEC = EncoderSpec(_DIMS[0], _DIMS[1:-1], _DIMS[-1])
_N_CLASSES = 3
_BATCH = 6


def _random_branch(spec: EncoderSpec, rng, head: str = "prototypes") -> BranchState:
    """A random branch: per layer a weight ~ N(0, 2/fan_in) and a bias ~
    0.1 N(0, 1), then standard-normal prototypes, which a "softmax" head
    drawn after them (weight ~ N(0, 2/d), bias ~ 0.1 N(0, 1)) replaces."""
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(rng.standard_normal(fan_out) * 0.1)
    d = dims[-1]
    arrays = [rng.standard_normal((_N_CLASSES, d))]
    if head == "softmax":
        weight = rng.normal(0.0, np.sqrt(2.0 / d), size=(_N_CLASSES, d))
        arrays = [weight, rng.standard_normal(_N_CLASSES) * 0.1]
    return BranchState(EncoderParams(spec, weights, biases), arrays)


def _single_loss_objective(x, y, branches, loss):
    """One prototype branch under loss(embeddings, labels, prototypes)."""
    (branch,) = branches
    emb, cache = encoder_forward(branch.encoder, x)
    value, dz, dp = loss(emb, y, branch.prototypes)
    return {"total": value}, [(cache, dz, [dp])]


def _incon_objective(x, y, branches, hp: DivHyperParams, own_dots):
    """The inconsistency term alone over a branch pair, into both branches."""
    forward = [encoder_forward(b.encoder, x) for b in branches]
    dists = [
        proximity_probs(emb, y, b.prototypes, hp.m1, own_dots=own)
        for (emb, _), b, own in zip(forward, branches, own_dots)
    ]
    incon, *dprobs = inconsistency_loss(*dists)
    backward = [proximity_backward(dist, d) for dist, d in zip(dists, dprobs)]
    return {"total": incon}, [(c, dz, [dp]) for (_, c), (dz, dp) in zip(forward, backward)]


def _case(loss_name: str, spec: EncoderSpec, rng: np.random.Generator, x, labels):
    """(trained, objective): the random branches one loss differentiates,
    and the objective(x, y, branches) -> (terms, parts) train() runs on them."""
    hp = DivHyperParams()
    single = {
        "dce": dce_loss,
        "compactness": compactness_loss,
        "triplet": lambda z, y, p: triplet_loss(z, y, p, hp.m2),
    }
    if loss_name in single:
        return [_random_branch(spec, rng)], partial(_single_loss_objective, loss=single[loss_name])
    if loss_name == "pl":
        return [_random_branch(spec, rng)], partial(pl_objective, hp=hp)
    if loss_name == "softmax":
        return [_random_branch(spec, rng, head="softmax")], softmax_objective
    if loss_name not in ("incon", "div", "div_frozen"):
        raise ValueError(f"unknown loss {loss_name!r}")
    pair = [_random_branch(spec, rng) for _ in range(2)]
    # the margins' stop-gradient z.p^y references, held at the unperturbed point
    own = [(encoder_forward(b.encoder, x)[0] * b.prototypes[labels - 1]).sum(axis=1) for b in pair]
    if loss_name == "incon":
        return pair, partial(_incon_objective, hp=hp, own_dots=own)
    if loss_name == "div":
        return pair, partial(div_loss, hp=hp, own_dots=own)
    return pair[:1], partial(div_loss, hp=hp, frozen=pair[1], own_dots=own)


LOSS_NAMES = ("dce", "compactness", "pl", "incon", "triplet", "div", "div_frozen", "softmax")


def check_loss_gradients(loss_name: str, instance_seed: int, n_coords: int) -> FiniteDiffReport:
    """Finite-difference check of one loss on one random instance."""
    rng = np.random.default_rng(instance_seed)
    x = rng.standard_normal((_BATCH, _SPEC.input_dim))
    labels = rng.integers(1, _N_CLASSES + 1, size=_BATCH)
    trained, objective = _case(loss_name, _SPEC, rng, x, labels)
    live = [a for b in trained for a in b.arrays()]
    grads = [g for part in objective(x, labels, trained)[1] for g in branch_gradients(*part)]

    def loss(work):
        for a, w in zip(live, work):
            a[...] = w
        return objective(x, labels, trained)[0]["total"]

    return finite_diff_check(live, loss, grads, n_coords=n_coords, seed=instance_seed)


def run_gradient_suite(n_seeds: int, n_coords: int):
    """All losses x seeds, aggregated per loss.

    Returns [(loss_name, FiniteDiffReport)] where each report carries the
    worst relative error and the summed coordinate counts over the seeds.
    """
    results = []
    for name in LOSS_NAMES:
        worst = FiniteDiffReport(0.0, 0, 0, 0)
        for t in range(n_seeds):
            rep = check_loss_gradients(name, instance_seed=1000 + t, n_coords=n_coords)
            worst = FiniteDiffReport(
                max_rel_error=max(worst.max_rel_error, rep.max_rel_error),
                n_checked=worst.n_checked + rep.n_checked,
                n_kink_skipped=worst.n_kink_skipped + rep.n_kink_skipped,
                n_small_skipped=worst.n_small_skipped + rep.n_small_skipped,
            )
        results.append((name, worst))
    return results
