"""Finite-difference verification of every analytic gradient path.

Builds small random instances (3 classes, 8-dim embeddings, batch of 6)
and compares the analytic gradients of each loss against central finite
differences over a sampled subset of encoder parameters and head arrays.
Loss values for the differencing are recomputed from scratch on perturbed
parameters, so the numeric side never touches the backward code it is
checking. The combined objective is checked through div_loss itself, both
jointly ("div") and against a frozen partner ("div_frozen"), and the
softmax baseline through softmax_objective on a linear-head branch
("softmax"). Every case turns embedding gradients into parameter
gradients with branch_gradients, as train() does.
"""

from __future__ import annotations

import numpy as np

from .encoder import (
    EncoderParams,
    EncoderSpec,
    FiniteDiffReport,
    encoder_forward,
    finite_diff_check,
    init_optimizer,
)
from .inconsistency import (
    BranchState,
    DivHyperParams,
    branch_gradients,
    div_loss,
    inconsistency_loss,
    own_class_dots,
    proximity_backward,
    proximity_probs,
    softmax_objective,
    triplet_loss,
)
from .prototypes import compactness_loss, dce_loss, pl_loss

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
    return BranchState(enc, arrays[_N_ENC:], head_seed=0, optimizer=init_optimizer([], 0.0, 0.0))


def _single_branch_case(loss_kind: str, hp: DivHyperParams, x, labels):
    """arrays -> (loss, analytic grads) of one loss on one prototype branch."""

    def compute(arrays):
        branch = _rebuild(arrays)
        protos = branch.prototypes
        emb, cache = encoder_forward(branch.encoder, x)
        if loss_kind == "dce":
            loss, dz, dp = dce_loss(emb, labels, protos)
        elif loss_kind == "compactness":
            loss, dz, dp = compactness_loss(emb, labels, protos, hp.compactness_form)
        elif loss_kind == "pl":
            loss, dz, dp = pl_loss(emb, labels, protos, hp.beta, hp.compactness_form)
        elif loss_kind == "triplet":
            loss, dz, dp = triplet_loss(emb, labels, protos, hp.m2)
        else:
            raise ValueError(loss_kind)
        return loss, branch_gradients(cache, dz, [dp])

    return compute


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


def _incon_case(hp: DivHyperParams, x, labels, base_arrays):
    own_a, own_b = _frozen_own_dots(base_arrays, x, labels)

    def compute(arrays):
        half = len(arrays) // 2
        a, b = _rebuild(arrays[:half]), _rebuild(arrays[half:])
        emb_a, cache_a = encoder_forward(a.encoder, x)
        emb_b, cache_b = encoder_forward(b.encoder, x)
        dist_a = proximity_probs(emb_a, labels, a.prototypes, hp.m1, own_dots=own_a)
        dist_b = proximity_probs(emb_b, labels, b.prototypes, hp.m1, own_dots=own_b)
        loss, dprobs_a, dprobs_b = inconsistency_loss(dist_a, dist_b, hp.epsilon_log)
        dz_a, dp_a = proximity_backward(dist_a, dprobs_a)
        dz_b, dp_b = proximity_backward(dist_b, dprobs_b)
        grads_a = branch_gradients(cache_a, dz_a, [dp_a])
        return loss, grads_a + branch_gradients(cache_b, dz_b, [dp_b])

    return compute


def _div_loss_case(hp: DivHyperParams, x, labels, base_arrays, frozen: bool):
    """div_loss over both branches' arrays, or over branch a's alone with
    branch b held frozen at its base point."""
    own = _frozen_own_dots(base_arrays, x, labels)
    half = len(base_arrays) // 2
    partner = _rebuild(base_arrays[half:])

    def compute(arrays):
        if frozen:
            terms, parts = div_loss(x, labels, [_rebuild(arrays)], hp, frozen=partner, own_dots=own)
        else:
            branches = [_rebuild(arrays[:half]), _rebuild(arrays[half:])]
            terms, parts = div_loss(x, labels, branches, hp, own_dots=own)
        return terms["total"], [g for part in parts for g in branch_gradients(*part)]

    return compute


def _softmax_case(x, labels):
    def compute(arrays):
        terms, (part,) = softmax_objective(x, labels, [_rebuild(arrays)])
        return terms["total"], branch_gradients(*part)

    return compute


LOSS_NAMES = ("dce", "compactness", "pl", "incon", "triplet", "div", "div_frozen", "softmax")


def check_loss_gradients(
    loss_name: str, instance_seed: int, n_coords: int
) -> FiniteDiffReport:
    """Finite-difference check of one loss on one random instance."""
    rng = np.random.default_rng(instance_seed)
    x = rng.standard_normal((_BATCH, _SPEC.input_dim))
    labels = rng.integers(1, _N_CLASSES + 1, size=_BATCH)
    hp = DivHyperParams()
    if loss_name in ("dce", "compactness", "pl", "triplet"):
        arrays = _random_branch_arrays(rng)
        compute = _single_branch_case(loss_name, hp, x, labels)
    elif loss_name == "incon":
        arrays = _random_branch_arrays(rng) + _random_branch_arrays(rng)
        compute = _incon_case(hp, x, labels, arrays)
    elif loss_name in ("div", "div_frozen"):
        pair = _random_branch_arrays(rng) + _random_branch_arrays(rng)
        frozen = loss_name == "div_frozen"
        arrays = pair[: len(pair) // 2] if frozen else pair
        compute = _div_loss_case(hp, x, labels, pair, frozen)
    elif loss_name == "softmax":
        arrays = _random_softmax_arrays(rng)
        compute = _softmax_case(x, labels)
    else:
        raise ValueError(f"unknown loss {loss_name!r}")
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
