import warnings

import numpy as np
import pytest

from predin.encoder import (
    EncoderParams,
    EncoderSpec,
    encoder_backward,
    encoder_forward,
    finite_diff_check,
    init_encoder,
    SGD_BLOCK,
    lr_schedule,
    sgd_step,
)

from oracles import mlp_forward_scalar, sgd_step_three_lines

SPEC = EncoderSpec(input_dim=5, hidden_dims=(7,), output_dim=4, activation="relu")


class TestInit:
    def test_deterministic(self):
        a = init_encoder(SPEC, seed=3)
        b = init_encoder(SPEC, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_distinct_seeds_differ(self):
        a = init_encoder(SPEC, seed=1)
        b = init_encoder(SPEC, seed=2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_shapes(self):
        spec = EncoderSpec(input_dim=64, hidden_dims=(), output_dim=128, activation="relu")
        params = init_encoder(spec, seed=0)
        assert params.weights[0].shape == (128, 64)
        assert params.biases[0].shape == (128,)

    def test_biases_zero_weights_scaled(self):
        params = init_encoder(EncoderSpec(1000, (), 1000, "relu"), seed=0)
        assert not params.biases[0].any()
        # He scale sqrt(2/1000)
        assert params.weights[0].std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.05)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            EncoderSpec(input_dim=0, hidden_dims=(4,), output_dim=2, activation="relu")
        with pytest.raises(ValueError):
            EncoderSpec(input_dim=4, hidden_dims=(4,), output_dim=2, activation="swish")


class TestForward:
    def test_zero_params_zero_output(self):
        params = init_encoder(SPEC, seed=0)
        for w in params.weights:
            w[:] = 0.0
        emb, _ = encoder_forward(params, np.ones((3, 5)))
        np.testing.assert_array_equal(emb, np.zeros((3, 4)))

    def test_single_linear_layer_identity(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), output_dim=4, activation="relu")
        params = init_encoder(spec, seed=0)
        params.weights[0][:] = np.eye(4)
        x = np.random.default_rng(0).standard_normal((6, 4))
        emb, _ = encoder_forward(params, x)
        np.testing.assert_array_equal(emb, x)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_scalar_reference(self, activation):
        spec = EncoderSpec(input_dim=5, hidden_dims=(7, 6), output_dim=4, activation=activation)
        params = init_encoder(spec, seed=9)
        x = np.random.default_rng(1).standard_normal((2, 5))
        emb, _ = encoder_forward(params, x)
        for i in range(2):
            ref = mlp_forward_scalar(params.weights, params.biases, activation, x[i])
            np.testing.assert_allclose(emb[i], ref, atol=1e-12)

    def test_dimension_mismatch(self):
        params = init_encoder(SPEC, seed=0)
        with pytest.raises(ValueError, match="inputs must be"):
            encoder_forward(params, np.zeros((3, 6)))

    def test_batch_order_equivariant(self):
        params = init_encoder(SPEC, seed=4)
        x = np.random.default_rng(2).standard_normal((8, 5))
        perm = np.random.default_rng(3).permutation(8)
        emb, _ = encoder_forward(params, x)
        emb_perm, _ = encoder_forward(params, x[perm])
        np.testing.assert_array_equal(emb[perm], emb_perm)


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        params = init_encoder(SPEC, seed=0)
        _, cache = encoder_forward(params, np.ones((3, 5)))
        grads = encoder_backward(cache, np.zeros((3, 4)), None)
        for g in grads:
            assert not g.any()

    def test_single_layer_sum_loss(self):
        # loss = sum of outputs of a single linear layer: dW[j,i] = sum_m x[m,i]
        spec = EncoderSpec(input_dim=3, hidden_dims=(), output_dim=2, activation="relu")
        params = init_encoder(spec, seed=0)
        x = np.random.default_rng(5).standard_normal((4, 3))
        _, cache = encoder_forward(params, x)
        grads = encoder_backward(cache, np.ones((4, 2)), None)
        np.testing.assert_allclose(grads[0], np.tile(x.sum(axis=0), (2, 1)))
        np.testing.assert_allclose(grads[1], [4.0, 4.0])

    @staticmethod
    def _squared_error_check(spec):
        params = init_encoder(spec, seed=7)
        x = np.random.default_rng(6).standard_normal((5, 5))
        target = np.random.default_rng(7).standard_normal((5, 4))

        def loss_fn(arrays):
            p = EncoderParams(
                spec=spec, weights=arrays[0::2], biases=arrays[1::2], init_seed=0,
            )
            emb, _ = encoder_forward(p, x)
            return 0.5 * ((emb - target) ** 2).sum()

        emb, cache = encoder_forward(params, x)
        grads = encoder_backward(cache, emb - target, None)
        return finite_diff_check(params.arrays(), loss_fn, grads, n_coords=60, seed=1)

    def test_matches_finite_differences(self):
        report = self._squared_error_check(SPEC)
        assert report.max_rel_error < 1e-4

    def test_tanh_matches_finite_differences(self):
        # the harness default: the derivative 1 - a^2 is taken from the
        # cached activations of both hidden layers
        spec = EncoderSpec(input_dim=5, hidden_dims=(7, 6), output_dim=4, activation="tanh")
        report = self._squared_error_check(spec)
        assert report.n_checked >= 50
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("rows", [1, 7, 252])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_out_buffers_get_the_allocated_bits(self, activation, rows):
        spec = EncoderSpec(input_dim=200, hidden_dims=(64, 32), output_dim=16,
                           activation=activation)
        params = init_encoder(spec, seed=4)
        rng = np.random.default_rng(rows)
        emb, cache = encoder_forward(params, rng.standard_normal((rows, 200)))
        grad = rng.standard_normal(emb.shape)
        fresh = encoder_backward(cache, grad, None)
        # NaN-filled buffers that an earlier call has written over: every
        # entry must be overwritten again, not accumulated into
        out = [np.full_like(a, np.nan) for a in params.arrays()]
        encoder_backward(cache, -grad, out=out)
        got = encoder_backward(cache, grad, out=out)
        assert len(got) == len(out) and all(g is o for g, o in zip(got, out))
        for g, f in zip(got, fresh):
            assert g.tobytes() == f.tobytes()

    def test_mismatched_grad_shape(self):
        params = init_encoder(SPEC, seed=0)
        _, cache = encoder_forward(params, np.ones((3, 5)))
        with pytest.raises(RuntimeError, match="stale or mismatched"):
            encoder_backward(cache, np.zeros((2, 4)), None)


class TestSgd:
    def test_zero_grad_zero_velocity_unchanged(self):
        a = np.ones((2, 2))
        sgd_step([a], [np.zeros((2, 2))], [np.zeros((2, 2))], 0.01, 0.9)
        np.testing.assert_array_equal(a, np.ones((2, 2)))

    def test_vanilla_step(self):
        a = np.full((2,), 1.0)
        g = np.full((2,), 3.0)
        sgd_step([a], [g], [np.zeros(2)], 0.01, 0.0)
        np.testing.assert_allclose(a, 1.0 - 0.01 * 3.0)

    def test_two_momentum_steps(self):
        # v1 = g, v2 = 0.9 g + g; total displacement lr*(g + 1.9 g)
        a = np.zeros(1)
        g = np.array([2.0])
        v = [np.zeros(1)]
        sgd_step([a], [g], v, 0.01, 0.9)
        sgd_step([a], [g], v, 0.01, 0.9)
        np.testing.assert_allclose(a, -(0.01 * 2.0 + 0.01 * 1.9 * 2.0))

    def test_lr_zero_bitwise_unchanged(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3))
        before = a.copy()
        sgd_step([a], [rng.standard_normal((3, 3))], [np.zeros((3, 3))], 0.0, 0.9)
        assert a.tobytes() == before.tobytes()

    def test_non_finite_grad_rejected(self):
        a = np.ones(2)
        with pytest.raises(ValueError, match="non-finite"):
            sgd_step([a], [np.array([np.nan, 0.0])], [np.zeros(2)], 0.01, 0.9)

    def test_non_finite_last_grad_leaves_every_array_unchanged(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal((3, 2)), rng.standard_normal(4), rng.standard_normal(2)]
        v = [np.zeros_like(a) for a in arrays]
        sgd_step(arrays, [np.ones_like(a) for a in arrays], v, 0.01, 0.9)  # non-zero velocities
        before = [a.copy() for a in arrays + v]
        grads = [np.ones_like(a) for a in arrays]
        grads[-1][1] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient in array 2"):
            sgd_step(arrays, grads, v, 0.01, 0.9)
        for x, y in zip(before, arrays + v):
            assert x.tobytes() == y.tobytes()


    def test_twenty_steps_match_three_line_update_bitwise(self):
        rng = np.random.default_rng(10)
        # single blocks, several blocks of rows or entries, and a row wider than a block
        shapes = [(7, 5), (7,), (4, 7), (5, 9000), (40000,), (2, SGD_BLOCK + 3)]
        arrays = [rng.standard_normal(sh) for sh in shapes]
        ref = [a.copy() for a in arrays]
        ref_v = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        for step in range(20):
            grads = [rng.standard_normal(sh) * 10.0 ** (step % 5 - 2) for sh in shapes]
            sgd_step(arrays, grads, v, 0.05, 0.9)
            sgd_step_three_lines(ref, grads, ref_v, 0.05, 0.9)
        for got, want in zip(arrays + v, ref + ref_v):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [[np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf]])
    def test_inf_last_grad_leaves_every_array_unchanged(self, bad):
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        v = [np.zeros_like(a) for a in arrays]
        sgd_step(arrays, [np.ones_like(a) for a in arrays], v, 0.01, 0.9)
        before = [a.copy() for a in arrays + v]
        with pytest.raises(ValueError, match="non-finite gradient in array 1"):
            sgd_step(arrays, [np.ones((3, 2)), np.array(bad)], v, 0.01, 0.9)
        for x, y in zip(before, arrays + v):
            assert x.tobytes() == y.tobytes()

    def test_finite_grad_whose_sum_overflows_passes(self):
        a, ref = np.zeros(3), np.zeros(3)
        g = np.array([1.5e308, 1.5e308, -1.0])
        with np.errstate(over="ignore"):
            assert np.isinf(g.sum())  # so the step takes the entry-by-entry path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sgd_step([a], [g], [np.zeros(3)], 0.01, 0.9)
        sgd_step_three_lines([ref], [g], [np.zeros(3)], 0.01, 0.9)
        assert a.tobytes() == ref.tobytes()


class TestLrSchedule:
    @pytest.mark.parametrize(
        "epoch,expected",
        [(0, 0.01), (59, 0.01), (60, 0.001), (79, 0.001), (80, 0.0001), (99, 0.0001)],
    )
    def test_decades(self, epoch, expected):
        assert lr_schedule(epoch, 0.01) == pytest.approx(expected)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 0.01)


class TestFiniteDiff:
    def test_quadratic_is_near_exact(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 3))

        def loss_fn(arrays):
            return float((arrays[0] ** 2).sum())

        report = finite_diff_check([a], loss_fn, [2.0 * a], n_coords=12, seed=0)
        assert report.max_rel_error < 1e-8

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(6)

        def loss_fn(arrays):
            return float((arrays[0] ** 2).sum())

        report = finite_diff_check([a], loss_fn, [3.0 * a], n_coords=6, seed=0)
        assert report.max_rel_error > 0.1
