import numpy as np
import pytest

from predin.prototypes import (
    compactness_loss,
    dce_loss,
    init_prototypes,
    pl_loss,
    scatter_add_rows,
)
from predin.encoder import finite_diff_check

from oracles import class_posterior


def protos_from(rows):
    return np.asarray(rows, dtype=float)


class TestInitPrototypes:
    def test_paper_shape(self):
        p = init_prototypes(15, 128, seed=0)
        assert p.shape == (15, 128)

    def test_deterministic(self):
        a = init_prototypes(5, 8, seed=42)
        b = init_prototypes(5, 8, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_standard_normal_mean(self):
        p = init_prototypes(1000, 100, seed=7)  # 1e5 entries
        assert -0.02 < p.mean() < 0.02

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            init_prototypes(1, 8, seed=0)
        with pytest.raises(ValueError):
            init_prototypes(3, 0, seed=0)


class TestClassPosterior:
    def test_equal_dots_uniform(self):
        p = protos_from([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        post = class_posterior(np.array([0.5, 2.0]), p)
        np.testing.assert_allclose(post, [1 / 3] * 3)

    def test_two_class_values(self):
        # dots (1, 0) -> (0.7311, 0.2689)
        p = protos_from([[1.0], [0.0]])
        post = class_posterior(np.array([1.0]), p)
        np.testing.assert_allclose(post, [0.73105857863, 0.26894142137], atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        protos = rng.standard_normal((4, 6))
        z = rng.standard_normal(6)
        base = class_posterior(z, protos)
        # adding a constant to every dot product = adding c * z_hat to each prototype
        # easiest route: shift logits directly through a prototype translation
        shift = 3.7 * z / (z @ z)
        shifted = class_posterior(z, protos + shift)
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        assert base.argmax() == shifted.argmax()

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.standard_normal((5, 7)) * 10
            post = class_posterior(rng.standard_normal(7) * 10, p)
            assert abs(post.sum() - 1.0) < 1e-12


class TestDceLoss:
    def test_uniform_is_log_n(self):
        p = protos_from(np.zeros((4, 3)))
        z = np.zeros((2, 3))
        loss, _, _ = dce_loss(z, [1, 3], p)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_two_class_value(self):
        p = protos_from([[1.0], [0.0]])
        loss, _, _ = dce_loss(np.array([[1.0]]), [1], p)
        assert loss == pytest.approx(0.31326168752, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.standard_normal((4, 6))
            z = rng.standard_normal((7, 6))
            labels = rng.integers(1, 5, size=7)
            loss, _, _ = dce_loss(z, labels, p)
            assert loss >= 0.0

    def test_extreme_logits_stay_finite(self):
        p = protos_from([[1e4], [-1e4]])
        loss, dz, dp = dce_loss(np.array([[1.0]]), [2], p)
        assert np.isfinite(loss) and np.isfinite(dz).all() and np.isfinite(dp).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((5, 4))
        protos = rng.standard_normal((3, 4))
        labels = rng.integers(1, 4, size=5)

        def loss_fn(arrays):
            return dce_loss(arrays[0], labels, arrays[1])[0]

        loss, dz, dp = dce_loss(z, labels, protos)
        report = finite_diff_check([z, protos], loss_fn, [dz, dp], n_coords=32, seed=2)
        assert report.max_rel_error < 1e-4

    def test_label_out_of_range(self):
        p = protos_from(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dce_loss(np.zeros((1, 2)), [4], p)


class TestCompactnessLoss:
    def test_zero_at_prototype(self):
        p = protos_from([[1.0, 2.0], [0.0, 0.0]])
        loss, dz, dp = compactness_loss(np.array([[1.0, 2.0]]), [1], p)
        assert loss == 0.0
        assert not dz.any() and not dp.any()

    def test_large_branch(self):
        p = protos_from([[0.0, 0.0], [9.9, 9.9]])
        loss, _, _ = compactness_loss(np.array([[2.0, 0.0]]), [1], p)
        assert loss == pytest.approx(1.5)

    def test_small_branch_squared(self):
        p = protos_from([[0.0, 0.0], [9.9, 9.9]])
        loss, _, _ = compactness_loss(np.array([[0.3, 0.4]]), [1], p)
        assert loss == pytest.approx(0.125)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 5)) * 2
        protos = rng.standard_normal((3, 5))
        labels = rng.integers(1, 4, size=6)

        def loss_fn(arrays):
            return compactness_loss(arrays[0], labels, arrays[1])[0]

        loss, dz, dp = compactness_loss(z, labels, protos)
        report = finite_diff_check([z, protos], loss_fn, [dz, dp], n_coords=32, seed=3)
        assert report.max_rel_error < 1e-4


class TestPlLoss:
    def _instance(self, seed=8):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((5, 4))
        protos = rng.standard_normal((3, 4))
        labels = rng.integers(1, 4, size=5)
        return z, labels, protos

    def test_beta_zero_equals_dce(self):
        z, labels, protos = self._instance()
        full = pl_loss(z, labels, protos, 0.0)
        dce = dce_loss(z, labels, protos)
        assert full[0] == dce[0]
        np.testing.assert_array_equal(full[1], dce[1])
        np.testing.assert_array_equal(full[2], dce[2])

    def test_beta_one_is_sum(self):
        z, labels, protos = self._instance()
        total, _, _ = pl_loss(z, labels, protos, 1.0)
        dce, _, _ = dce_loss(z, labels, protos)
        com, _, _ = compactness_loss(z, labels, protos)
        assert total == pytest.approx(dce + com, abs=1e-12)

    def test_gradient_is_weighted_sum(self):
        z, labels, protos = self._instance()
        beta = 0.7
        _, dz, dp = pl_loss(z, labels, protos, beta)
        _, dz_d, dp_d = dce_loss(z, labels, protos)
        _, dz_c, dp_c = compactness_loss(z, labels, protos)
        np.testing.assert_allclose(dz, dz_d + beta * dz_c, atol=1e-14)
        np.testing.assert_allclose(dp, dp_d + beta * dp_c, atol=1e-14)

    def test_monotone_in_beta(self):
        z, labels, protos = self._instance()
        losses = [pl_loss(z, labels, protos, b)[0] for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_step_decreases_loss(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            z = rng.standard_normal((1, 6))
            protos = rng.standard_normal((3, 6))
            labels = np.array([int(rng.integers(1, 4))])
            u = z[0] - protos[labels[0] - 1]
            if abs(np.abs(u).sum() - 1.0) < 1e-2:
                continue  # keep clear of the compactness kink
            loss, dz, dp = pl_loss(z, labels, protos, 1.0)
            lr = 1e-4
            z2 = z - lr * dz
            protos2 = protos - lr * dp
            loss2, _, _ = pl_loss(z2, labels, protos2, 1.0)
            assert loss2 < loss


class TestScatterAddRows:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 128])
    def test_matches_add_at_bitwise(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            n, n_out = int(rng.integers(0, 40)), int(rng.integers(1, 7))
            rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, 1))
            rows[rng.random((n, d)) < 0.3] = -0.0  # signed zeros on both sides
            rows[rng.random((n, d)) < 0.1] = 0.0
            base = rng.standard_normal((n_out, d))
            base[rng.random((n_out, d)) < 0.5] = -0.0
            index, index2 = rng.integers(0, n_out, n), rng.integers(0, n_out, n)
            want, got = base.copy(), base.copy()
            # two scatters onto one array, as triplet_loss does
            np.add.at(want, index, rows)
            np.add.at(want, index2, -rows[::-1])
            scatter_add_rows(got, index, rows)
            scatter_add_rows(got, index2, -rows[::-1])
            assert want.tobytes() == got.tobytes()
