"""The per-batch code writes into arrays it owns; each result must equal
the former allocating expression, kept in oracles, bit for bit. It also
computes in the dtype of its inputs: a float32 step stays float32, and a
float32 batch against float64 branches gives the float64 bits."""

from functools import partial

import numpy as np
import pytest

from predin.encoder import (
    EncoderSpec,
    encoder_backward,
    encoder_forward,
    init_encoder,
    sgd_step,
)
from predin.inconsistency import (
    DivHyperParams,
    TrainConfig,
    branch_gradients,
    div_loss,
    init_branch,
    inconsistency_loss,
    nearest_other_prototype,
    pl_objective,
    proximity_backward,
    proximity_probs,
    softmax_objective,
    triplet_loss,
)
from predin.prototypes import compactness_loss, init_prototypes, pl_loss

from oracles import (
    compactness_loss_allocating,
    div_loss_allocating,
    encoder_backward_allocating,
    encoder_forward_allocating,
    pl_loss_allocating,
    triplet_loss_allocating,
)

ROWS = [1, 7, 252]
DIMS = [1, 2, 128]
N_CLASSES = 6


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def assert_same_results(got, want):
    """Loss value, d_embeddings and d_prototypes, bit for bit."""
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert same_bits(g, w)


def batch(m, d, exact, seed=0):
    """Embeddings around their own prototypes at distances from 1e-3 to 10,
    so both compactness branches occur. With ``exact``, row 0 and about a
    third of the others lie exactly on their prototype (u = 0), and about a
    tenth exactly on the nearest other one."""
    rng = np.random.default_rng([m, d, seed])
    protos = init_prototypes(N_CLASSES, d, seed=m + d)
    labels = rng.permutation(np.arange(m) % N_CLASSES + 1)
    y0 = labels - 1
    scale = 10.0 ** rng.uniform(-3.0, 1.0, (m, 1))
    z = protos[y0] + scale * rng.standard_normal((m, d)) / d
    if exact:
        on_own = rng.random(m) < 0.3
        on_own[0] = True
        on_neg = ~on_own & (rng.random(m) < 0.15)
        z[on_own] = protos[y0[on_own]]
        z[on_neg] = protos[nearest_other_prototype(protos)[y0[on_neg]]]
    return z, labels, protos


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
class TestLosses:
    @pytest.mark.parametrize("form", ["huber_sq", "literal"])
    def test_compactness(self, m, d, exact, form):
        z, y, p = batch(m, d, exact)
        assert_same_results(
            compactness_loss(z, y, p, form=form), compactness_loss_allocating(z, y, p, form=form)
        )

    @pytest.mark.parametrize("form", ["huber_sq", "literal"])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_pl(self, m, d, exact, form, beta):
        z, y, p = batch(m, d, exact)
        assert_same_results(
            pl_loss(z, y, p, beta, form), pl_loss_allocating(z, y, p, beta, form)
        )

    @pytest.mark.parametrize("m2", [0.0, 1.0])
    def test_triplet(self, m, d, exact, m2):
        z, y, p = batch(m, d, exact)
        got = triplet_loss(z, y, p, m2)
        assert_same_results(got, triplet_loss_allocating(z, y, p, m2))
        if exact and m2 == 1.0:
            assert got[1][0].tobytes() != bytes(8 * d)  # a row at d_pos = 0 is active

    def test_inputs_left_intact(self, m, d, exact):
        z, y, p = batch(m, d, exact)
        before = [a.copy() for a in (z, y, p)]
        compactness_loss(z, y, p, form="literal")
        pl_loss(z, y, p, 0.5, "huber_sq")
        triplet_loss(z, y, p, 1.0)
        for a, b in zip((z, y, p), before):
            assert same_bits(a, b)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
def test_encoder_forward_and_backward(m, d, activation):
    # two hidden layers, so the derivative product runs twice
    spec = EncoderSpec(input_dim=12, hidden_dims=(16, 9), output_dim=d, activation=activation)
    params = init_encoder(spec, seed=m + d)
    rng = np.random.default_rng([m, d])
    for b in params.biases:
        b += rng.standard_normal(b.shape)
    x = rng.standard_normal((m, 12))
    x_before = x.copy()
    emb, cache = encoder_forward(params, x)
    want_emb, want_cache = encoder_forward_allocating(params, x)
    assert same_bits(emb, want_emb)
    assert same_bits(x, x_before)
    assert len(cache.layer_inputs) == len(want_cache.layer_inputs) == 3
    for g, w in zip(cache.layer_inputs, want_cache.layer_inputs):
        assert same_bits(g, w)
    if activation == "relu":
        assert (cache.layer_inputs[1] == 0.0).any()  # the kink is exercised
    grad = rng.standard_normal((m, d))
    want = encoder_backward_allocating(want_cache, grad)
    buffers = [np.full_like(a, np.nan) for a in params.arrays()]
    for got in (encoder_backward(cache, grad, None), encoder_backward(cache, grad, out=buffers)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bits(g, w)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
def test_div_loss(m, d, frozen, gamma, alpha):
    spec = EncoderSpec(input_dim=12, hidden_dims=(16,), output_dim=d, activation="tanh")
    pair = [init_branch(spec, N_CLASSES, e, p) for e, p in ((1, 2), (3, 4))]
    rng = np.random.default_rng([m, d])
    for b in pair[0].encoder.biases + pair[1].encoder.biases:
        b += rng.standard_normal(b.shape)
    x = rng.standard_normal((m, 12))
    y = rng.permutation(np.arange(m) % N_CLASSES + 1)
    hp = DivHyperParams(gamma=gamma, alpha=alpha)
    branches, partner = (pair[:1], pair[1]) if frozen else (pair, None)
    got_terms, got_parts = div_loss(x, y, branches, hp, frozen=partner)
    want_terms, want_parts = div_loss_allocating(x, y, branches, hp, frozen=partner)
    assert list(got_terms) == list(want_terms)
    for key in want_terms:
        assert same_bits(got_terms[key], want_terms[key]), key
    assert len(got_parts) == len(want_parts) == len(branches)
    for (cache, dz, head), (want_cache, want_dz, want_head) in zip(got_parts, want_parts):
        assert same_bits(dz, want_dz)
        assert len(head) == len(want_head) == 1
        assert same_bits(head[0], want_head[0])
        for g, w in zip(cache.layer_inputs, want_cache.layer_inputs):
            assert same_bits(g, w)


OBJECTIVES = ["pl", "softmax", "div_joint", "div_frozen"]


def one_step(kind, dtype, x, y):
    """One training step of an objective on branches whose parameters and
    velocities are in dtype. Returns (terms, per-branch gradients, branches
    after their sgd_step)."""
    spec = EncoderSpec(input_dim=12, hidden_dims=(16,), output_dim=4, activation="tanh")
    tc = TrainConfig(lr=0.01)
    head = "softmax" if kind == "softmax" else "prototypes"
    pair = [init_branch(spec, N_CLASSES, e, p, head=head) for e, p in ((1, 2), (3, 4))]
    for b in pair:
        for arrays in (b.encoder.weights, b.encoder.biases, b.head):
            arrays[:] = [a.astype(dtype) for a in arrays]
        b.velocities[:] = [np.zeros_like(a) for a in b.arrays()]
    hp = DivHyperParams()
    branches, objective = {
        "pl": ([pair[0]], partial(pl_objective, hp=hp)),
        "softmax": ([pair[0]], softmax_objective),
        "div_joint": (pair, partial(div_loss, hp=hp)),
        "div_frozen": ([pair[0]], partial(div_loss, hp=hp, frozen=pair[1])),
    }[kind]
    terms, parts = objective(x, y, branches)
    grads = [branch_gradients(*part) for part in parts]
    for b, g in zip(branches, grads):
        sgd_step(b.arrays(), g, b.velocities, tc.lr, tc.momentum)
    return terms, grads, branches


def step_batch(m=32):
    rng = np.random.default_rng(m)
    return rng.standard_normal((m, 12)), rng.permutation(np.arange(m) % N_CLASSES + 1)


@pytest.mark.parametrize("kind", OBJECTIVES)
def test_float32_step_computes_in_float32(kind):
    x, y = step_batch()
    terms, grads, branches = one_step(kind, np.float32, x.astype(np.float32), y)
    for key, value in terms.items():
        assert np.isfinite(value) and np.asarray(value).dtype == np.float32, key
    trained = [a for b in branches for a in b.arrays() + b.velocities]
    for a in [g for branch_grads in grads for g in branch_grads] + trained:
        assert a.dtype == np.float32
        assert np.isfinite(a).all()


@pytest.mark.parametrize("kind", OBJECTIVES)
def test_float32_batch_promotes_to_the_float64_bits(kind):
    x, y = step_batch()
    x32 = x.astype(np.float32)
    got_terms, got_grads, got = one_step(kind, np.float64, x32, y)
    want_terms, want_grads, want = one_step(kind, np.float64, x32.astype(np.float64), y)
    assert list(got_terms) == list(want_terms)
    for key in want_terms:
        assert same_bits(got_terms[key], want_terms[key]), key
    for g, w in zip(got_grads, want_grads, strict=True):
        assert all(same_bits(a, b) for a, b in zip(g, w, strict=True))
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g.arrays() + g.velocities, w.arrays() + w.velocities, strict=True):
            assert same_bits(a, b)


@pytest.mark.parametrize("narrow", ["embeddings", "prototypes", "both"])
@pytest.mark.parametrize("m", ROWS)
def test_losses_compute_in_the_dtype_of_their_inputs(m, narrow):
    # float32 operands give float32 results. A float32 operand against a
    # float64 one computes in float64: with float32 embeddings bit for bit
    # as the cast; the cast copy of a transposed float32 prototype matrix
    # can take another BLAS kernel, so with float32 prototypes each result
    # agrees to 1e-12 of its largest entry (differences to a prototype
    # taken in float32 miss that by 1e-8)
    z, y, p = batch(m, 128, exact=True)
    if narrow in ("embeddings", "both"):
        z = z.astype(np.float32)
    if narrow in ("prototypes", "both"):
        p = p.astype(np.float32)
    z64, p64 = z.astype(np.float64), p.astype(np.float64)

    def check(got, want):
        for g, w in zip(got, want, strict=True):
            g = np.asarray(g)
            if narrow == "both":
                assert g.dtype == np.float32 and np.isfinite(g).all()
            elif narrow == "embeddings":
                assert same_bits(g, w)
            else:
                assert g.dtype == np.float64
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())

    check(pl_loss(z, y, p, 1.0, "literal"), pl_loss(z64, y, p64, 1.0, "literal"))
    check(pl_loss(z, y, p, 1.0, "huber_sq"), pl_loss(z64, y, p64, 1.0, "huber_sq"))
    check(triplet_loss(z, y, p, 1.0), triplet_loss(z64, y, p64, 1.0))
    dists = [proximity_probs(z, y, p, 0.5, own_dots=None),
             proximity_probs(z64, y, p64, 0.5, own_dots=None)]
    check([dists[0].probs], [dists[1].probs])
    (got_incon, got_dprobs, _), (want_incon, want_dprobs, _) = (
        inconsistency_loss(d, d, 1e-12) for d in dists
    )
    check([got_incon, got_dprobs], [want_incon, want_dprobs])
    check(proximity_backward(dists[0], got_dprobs), proximity_backward(dists[1], want_dprobs))
