"""Finite-difference verification of every analytic gradient path.

Builds small random instances (3 classes, 8-dim embeddings, batch of 6)
and compares the analytic gradients of each loss against central finite
differences over a sampled subset of encoder parameters and head arrays.
Loss values for the differencing are recomputed from scratch on perturbed
parameters, so the numeric side never touches the backward code it is
checking. Every case runs an objective with the (terms, parts) contract
that train() consumes and turns each part into parameter gradients with
branch_gradients, as train() does: "pl" runs pl_objective, "div" and
"div_frozen" div_loss jointly and against a frozen partner, "softmax"
softmax_objective on a linear-head branch. "dce", "compactness" and
"triplet" run one loss on one prototype branch, and "incon" the
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
    own_class_dots,
    pl_objective,
    proximity_backward,
    proximity_probs,
    softmax_objective,
    triplet_loss,
)
from .prototypes import compactness_loss, dce_loss

_SPEC = EncoderSpec(input_dim=12, hidden_dims=(16,), output_dim=8, activation="relu")
_N_CLASSES = 3
_BATCH = 6
_N_ENC = 2 * (len(_SPEC.layer_dims) - 1)


def _random_branch_arrays(rng: np.random.Generator) -> list[np.ndarray]:
    dims = _SPEC.layer_dims
    arrays = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        arrays.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        arrays.append(rng.standard_normal(fan_out) * 0.1)
    arrays.append(rng.standard_normal((_N_CLASSES, _SPEC.output_dim)))
    return arrays


def _random_softmax_arrays(rng: np.random.Generator) -> list[np.ndarray]:
    """Encoder arrays plus a linear head: weight ~ N(0, 2/d), bias ~ 0.1 N(0, 1)."""
    d = _SPEC.output_dim
    return _random_branch_arrays(rng)[:_N_ENC] + [
        rng.normal(0.0, np.sqrt(2.0 / d), size=(_N_CLASSES, d)),
        rng.standard_normal(_N_CLASSES) * 0.1,
    ]


def _rebuild(arrays: list[np.ndarray]) -> BranchState:
    """Branch over the encoder arrays followed by its head arrays."""
    enc = EncoderParams(
        spec=_SPEC, weights=arrays[0:_N_ENC:2], biases=arrays[1:_N_ENC:2], init_seed=0
    )
    # the checker never steps, so the branch carries no velocities
    return BranchState(enc, arrays[_N_ENC:], head_seed=0, velocities=[])


def _frozen_own_dots(base_arrays, x, labels):
    """Stop-gradient reference dots z.p^y, fixed at the unperturbed point.

    The margin distance treats this term as a constant under
    differentiation, so the finite-difference target function must hold it
    frozen while everything else varies.
    """
    half = len(base_arrays) // 2
    frozen = []
    for side in (base_arrays[:half], base_arrays[half:]):
        branch = _rebuild(side)
        emb, _ = encoder_forward(branch.encoder, x)
        frozen.append(own_class_dots(emb, labels, branch.prototypes))
    return frozen


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
    incon, *dprobs = inconsistency_loss(*dists, hp.epsilon_log)
    backward = [proximity_backward(dist, d) for dist, d in zip(dists, dprobs)]
    return {"total": incon}, [(c, dz, [dp]) for (_, c), (dz, dp) in zip(forward, backward)]


def _case(loss_name: str, rng: np.random.Generator, x, labels):
    """(arrays, n_trained, objective) of one loss: the drawn arrays of the
    n_trained branches it differentiates, one branch after another, and
    the objective(x, y, branches) -> (terms, parts) that train() would run."""
    hp = DivHyperParams()
    single = {
        "dce": dce_loss,
        "compactness": lambda z, y, p: compactness_loss(z, y, p, hp.compactness_form),
        "triplet": lambda z, y, p: triplet_loss(z, y, p, hp.m2),
    }
    if loss_name in single:
        objective = partial(_single_loss_objective, loss=single[loss_name])
        return _random_branch_arrays(rng), 1, objective
    if loss_name == "pl":
        return _random_branch_arrays(rng), 1, partial(pl_objective, hp=hp)
    if loss_name == "softmax":
        return _random_softmax_arrays(rng), 1, softmax_objective
    if loss_name not in ("incon", "div", "div_frozen"):
        raise ValueError(f"unknown loss {loss_name!r}")
    pair = _random_branch_arrays(rng) + _random_branch_arrays(rng)
    own = _frozen_own_dots(pair, x, labels)
    if loss_name == "incon":
        return pair, 2, partial(_incon_objective, hp=hp, own_dots=own)
    if loss_name == "div":
        return pair, 2, partial(div_loss, hp=hp, own_dots=own)
    half = len(pair) // 2  # branch b is held frozen at its base point
    return pair[:half], 1, partial(div_loss, hp=hp, frozen=_rebuild(pair[half:]), own_dots=own)


LOSS_NAMES = ("dce", "compactness", "pl", "incon", "triplet", "div", "div_frozen", "softmax")


def check_loss_gradients(loss_name: str, instance_seed: int, n_coords: int) -> FiniteDiffReport:
    """Finite-difference check of one loss on one random instance."""
    rng = np.random.default_rng(instance_seed)
    x = rng.standard_normal((_BATCH, _SPEC.input_dim))
    labels = rng.integers(1, _N_CLASSES + 1, size=_BATCH)
    arrays, n_trained, objective = _case(loss_name, rng, x, labels)

    def compute(flat):
        k = len(flat) // n_trained
        branches = [_rebuild(flat[i : i + k]) for i in range(0, len(flat), k)]
        terms, parts = objective(x, labels, branches)
        return terms["total"], [g for part in parts for g in branch_gradients(*part)]

    return finite_diff_check(
        arrays, lambda a: compute(a)[0], compute(arrays)[1], n_coords=n_coords, seed=instance_seed
    )


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
