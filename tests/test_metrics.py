import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predin.metrics import (
    agreement_confusion,
    aggregate_reports,
    auc,
    closed_acc,
    incon_metric,
    oscr,
    proximity_matrix,
)

from oracles import auc_pairwise, auc_pairwise_scalar, auc_tie_loop, oscr_step_loop, oscr_sweep


def _loop_reference_cases():
    """Named lists of (known, correct, unknown) inputs on which the
    vectorized metrics must equal the loop references bit for bit."""
    rng = np.random.default_rng(11)

    def draws(decimals):
        out = []
        for _ in range(10):
            n_k, n_u = (int(n) for n in rng.integers(1, 400, size=2))
            ks, us = rng.standard_normal(n_k), rng.standard_normal(n_u)
            if decimals is not None:  # rounding forces ties
                ks, us = np.round(ks, decimals), np.round(us, decimals)
            out.append((ks, rng.random(n_k) < 0.7, us))
        return out

    # 10^5 scores in total; rounding keeps the loop reference's threshold sweep short
    large_k = np.round(rng.standard_normal(60_000), 2)
    large_u = np.round(rng.standard_normal(40_000), 2)
    return {
        "rounded": draws(1),
        "continuous": draws(None),
        "single_sample": [([0.3], [True], [0.3]), ([0.2], [False], [0.4])],
        "all_tied": [([0.5] * 7, [True, False] * 3 + [True], [0.5] * 4)],
        "large_1e5": [(large_k, rng.random(large_k.size) < 0.8, large_u)],
    }


LOOP_CASES = _loop_reference_cases()


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_three_of_four_pairs(self):
        assert auc([0.9, 0.4], [0.5, 0.1]) == 0.75

    def test_mirrored_lists_exactly_half(self):
        scores = [0.1, 0.5, 0.9]
        assert auc(scores, scores) == 0.5

    def test_ties_count_half(self):
        assert auc([1.0], [1.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])
        with pytest.raises(ValueError):
            auc([1.0], [])

    def test_matches_scalar_pairwise_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            known = rng.integers(0, 5, size=rng.integers(1, 12)).astype(float)
            unknown = rng.integers(0, 5, size=rng.integers(1, 12)).astype(float)
            assert auc(known, unknown) == pytest.approx(
                auc_pairwise_scalar(known, unknown), abs=1e-12
            )

    def test_matches_vectorized_oracle_large(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_k = int(rng.integers(1, 500))
            n_u = int(rng.integers(1, 500))
            known = np.round(rng.standard_normal(n_k), 2)  # rounding forces ties
            unknown = np.round(rng.standard_normal(n_u), 2)
            assert auc(known, unknown) == pytest.approx(
                auc_pairwise(known, unknown), abs=1e-9
            )

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(2)
        known = rng.permutation(40) + 0.5  # distinct values
        unknown = rng.permutation(30).astype(float)
        assert auc(known, unknown) + auc(unknown, known) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        known=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        unknown=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-5.0, 5.0),
    )
    def test_invariant_under_increasing_transform(self, known, unknown, scale, shift):
        known = np.asarray(known, dtype=float)
        unknown = np.asarray(unknown, dtype=float)
        base = auc(known, unknown)
        transformed = auc(scale * known + shift, scale * unknown + shift)
        assert transformed == pytest.approx(base, abs=1e-12)


    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_equals_tie_loop_reference(self, case):
        for known, _, unknown in LOOP_CASES[case]:
            assert auc(known, unknown) == auc_tie_loop(known, unknown)


class TestClosedAcc:
    def test_all_correct(self):
        assert closed_acc([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert closed_acc([2, 3, 1], [1, 2, 3]) == 0.0

    def test_three_of_four(self):
        assert closed_acc([1, 2, 3, 4], [1, 2, 3, 9]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            closed_acc([], [])


class TestOscr:
    def test_two_point_hand_case(self):
        # knowns {(0.9, correct), (0.8, incorrect)}, unknown {0.85}
        assert oscr([0.9, 0.8], [True, False], [0.85]) == pytest.approx(0.5)

    def test_perfect_open_set_classifier(self):
        assert oscr([0.9, 0.8], [True, True], [0.1, 0.2]) == pytest.approx(1.0)

    def test_all_known_incorrect(self):
        assert oscr([0.9, 0.8], [False, False], [0.5]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oscr([], [], [0.1])
        with pytest.raises(ValueError):
            oscr([0.5], [True], [])

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_k = int(rng.integers(1, 300))
            n_u = int(rng.integers(1, 300))
            ks = np.round(rng.standard_normal(n_k), 2)
            kc = rng.random(n_k) < 0.7
            us = np.round(rng.standard_normal(n_u), 2)
            assert oscr(ks, kc, us) == pytest.approx(oscr_sweep(ks, kc, us), abs=1e-9)

    def test_capped_by_closed_accuracy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ks = rng.standard_normal(50)
            kc = rng.random(50) < 0.6
            us = rng.standard_normal(40)
            assert oscr(ks, kc, us) <= kc.mean() + 1e-12

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        ks = rng.standard_normal(30)
        kc = rng.random(30) < 0.8
        us = rng.standard_normal(20)
        base = oscr(ks, kc, us)
        assert oscr(np.exp(ks), kc, np.exp(us)) == pytest.approx(base, abs=1e-12)


    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_equals_step_loop_reference(self, case):
        for known, correct, unknown in LOOP_CASES[case]:
            assert oscr(known, correct, unknown) == oscr_step_loop(known, correct, unknown)


class TestInconMetric:
    def test_ratio(self):
        # unknown change fraction 0.4, known 0.1 -> 4.0
        preds_a = [1] * 10 + [1] * 10
        preds_b = [1] * 9 + [2] + [1] * 6 + [2] * 4
        is_known = [True] * 10 + [False] * 10
        assert incon_metric(preds_a, preds_b, is_known) == pytest.approx(4.0)

    def test_equal_fractions_give_one(self):
        preds_a = [1, 1, 1, 1]
        preds_b = [1, 2, 1, 2]
        is_known = [True, True, False, False]
        assert incon_metric(preds_a, preds_b, is_known) == pytest.approx(1.0)

    def test_degenerate_denominator_undefined(self):
        preds_a = [1, 1, 1, 1]
        preds_b = [1, 1, 2, 2]  # agree on knowns, differ on unknowns
        is_known = [True, True, False, False]
        assert incon_metric(preds_a, preds_b, is_known) is None

    def test_requires_both_populations(self):
        with pytest.raises(ValueError):
            incon_metric([1, 2], [1, 2], [True, True])
        with pytest.raises(ValueError):
            incon_metric([1, 2], [1, 2], [False, False])


class TestProximityMatrix:
    def test_orthonormal_prototypes_uniform(self):
        mat = proximity_matrix(np.eye(4))
        off = mat[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1 / 3, atol=1e-12)

    def test_near_duplicate_pair_dominates(self):
        p = np.eye(4) * 3.0
        p[1] = p[0] + 0.01  # classes 1 and 2 nearly identical
        mat = proximity_matrix(p)
        assert mat[0].argmax() == 1
        assert mat[1].argmax() == 0
        assert mat[0, 1] > 0.9

    def test_shape_and_diagonal(self):
        rng = np.random.default_rng(6)
        mat = proximity_matrix(rng.standard_normal((5, 8)))
        assert mat.shape == (5, 5)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(5))
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


class TestAgreementConfusion:
    def test_identical_predictions_diagonal(self):
        mat = agreement_confusion([1, 2, 3, 2], [1, 2, 3, 2], n_classes=3)
        np.testing.assert_array_equal(mat, np.diag([1, 2, 1]))

    def test_total_is_sample_count(self):
        rng = np.random.default_rng(7)
        a = rng.integers(1, 6, size=100)
        b = rng.integers(1, 6, size=100)
        assert agreement_confusion(a, b, 5).sum() == 100

    def test_cell_semantics(self):
        mat = agreement_confusion([1, 1], [2, 2], n_classes=2)
        assert mat[0, 1] == 2
        assert mat.sum() == 2

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            agreement_confusion([1], [1, 2], 2)


class TestAggregate:
    def test_means_exclude_undefined_incon(self):
        reports = [
            dict(auc=0.8, acc=0.9, oscr=0.7, incon=2.0, threshold=0.1,
                 retention_achieved=0.95, n_known=10, n_unknown=5, seed=1),
            dict(auc=0.6, acc=0.8, oscr=0.5, incon=None, threshold=0.2,
                 retention_achieved=0.96, n_known=10, n_unknown=5, seed=2),
        ]
        agg = aggregate_reports(reports)
        assert agg["auc_mean"] == pytest.approx(0.7)
        assert agg["incon_mean"] == pytest.approx(2.0)
        assert agg["incon_defined"] == 1
        assert agg["n_seeds"] == 2

    def test_empty(self):
        assert aggregate_reports([]) == {"n_seeds": 0}
