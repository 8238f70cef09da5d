import dataclasses
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

import predin.io
from predin import inconsistency
from predin.encoder import (
    EncoderSpec,
    encoder_forward,
    finite_diff_check,
    init_encoder,
    sgd_step,
)
from predin.harness import EncoderConfig
from predin.inconsistency import (
    LOSS_TRACE_COLUMNS,
    BranchState,
    DivHyperParams,
    ProximityDistribution,
    TrainConfig,
    TrainingError,
    branch_gradients,
    div_loss,
    inconsistency_loss,
    init_branch,
    nearest_other_prototype,
    pl_objective,
    proximity_backward,
    proximity_probs,
    save_dual_checkpoint,
    softmax_objective,
    train,
    train_sequential,
    triplet_loss,
    write_loss_trace,
)
from predin.metrics import write_matrix_csv
from predin.prototypes import init_prototypes, pl_loss
from predin.scoring import ScoreTable, write_score_dump
from predin.signals import (
    UNKNOWN_LABEL,
    DatasetPartition,
    SyntheticConfig,
    generate_synthetic,
    split_known_unknown,
    split_trials,
    standardize,
)

from oracles import assert_checkpoint_holds, margin_distance, train_allocating

SPEC = EncoderSpec(input_dim=6, hidden_dims=(8,), output_dim=4)


def protos_from(rows):
    return np.asarray(rows, dtype=float)


def dist_from_probs(probs, labels):
    return ProximityDistribution(
        probs=np.asarray(probs, dtype=float), labels=np.asarray(labels, dtype=np.int64)
    )


def tiny_partition(seed=3, n_classes=5, n_known=3, sampling_rate_hz=400.0):
    cfg = SyntheticConfig(
        n_classes=n_classes, channels=2, trials=3, recording_ms=450.0,
        sampling_rate_hz=sampling_rate_hz, separation=1.5, noise_scale=0.4, data_seed=seed,
    )
    split = split_known_unknown(range(1, n_classes + 1), n_known, seed=seed)
    return standardize(split_trials(generate_synthetic(cfg), 200.0, 50.0, {1, 2}, {3}, split))


class TestMarginDistance:
    def test_open_gap(self):
        # own dot 2.0, other dot 1.0, margin 0.5 -> d = -0.5
        p = protos_from([[2.0, 0.0], [1.0, 0.0]])
        d = margin_distance(np.array([1.0, 0.0]), p, label=1, m1=0.5)
        np.testing.assert_allclose(d, [-0.5])

    def test_gap_inside_margin_clamps(self):
        p = protos_from([[1.0, 0.0], [0.8, 0.0]])  # gap 0.2 < 0.5
        d = margin_distance(np.array([1.0, 0.0]), p, label=1, m1=0.5)
        np.testing.assert_array_equal(d, [0.0])

    def test_zero_margin_boundary(self):
        p = protos_from([[1.0, 0.0], [1.0, 0.0]])  # equal dots, m1 = 0
        d = margin_distance(np.array([1.0, 0.0]), p, label=1, m1=0.0)
        np.testing.assert_array_equal(d, [0.0])

    def test_excludes_own_class(self):
        p = protos_from(np.eye(3))
        d = margin_distance(np.array([5.0, 0.0, 0.0]), p, label=1, m1=0.5)
        assert d.shape == (2,)


class TestProximityProbs:
    def test_all_clamped_uniform(self):
        p = protos_from(np.eye(4) * 0.01)
        z = np.zeros((3, 4))
        dist = proximity_probs(z, [1, 2, 3], p, m1=0.5, own_dots=None)
        np.testing.assert_allclose(dist.probs, np.full((3, 3), 1 / 3))

    def test_scalar_softmax_example(self):
        # N=3, unclamped logits (0.5, 0) -> (0.6225, 0.3775)
        p = protos_from([[3.0, 0.0], [1.5, 0.0], [2.0, 0.0]])
        z = np.array([[1.0, 0.0]])  # dots (3, 1.5, 2), label 1, gaps (1.5, 1.0), m1=1
        dist = proximity_probs(z, [1], p, m1=1.0, own_dots=None)
        np.testing.assert_allclose(dist.probs, [[0.62245933, 0.37754067]], atol=1e-7)

    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((6, 5))
        z = rng.standard_normal((9, 5))
        labels = rng.integers(1, 7, size=9)
        dist = proximity_probs(z, labels, p, m1=0.5, own_dots=None)
        assert dist.probs.shape == (9, 5)
        np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_exclude_own_class(self):
        p = protos_from(np.eye(3) * 10)
        z = np.eye(3) * 10
        dist = proximity_probs(z, [1, 2, 3], p, m1=0.1, own_dots=None)
        # column layout skips the own class, ascending order of the rest
        np.testing.assert_array_equal(dist.cache.cols, [[1, 2], [0, 2], [0, 1]])


class TestInconsistencyLoss:
    def test_disjoint_one_hots_reach_lower_bound(self):
        a = dist_from_probs([[1.0, 0.0, 0.0]], [1])
        b = dist_from_probs([[0.0, 1.0, 0.0]], [1])
        loss, _, _ = inconsistency_loss(a, b)
        assert loss == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_uniform_rows_over_two_classes(self):
        a = dist_from_probs([[0.5, 0.5]], [1])
        b = dist_from_probs([[0.5, 0.5]], [1])
        assert inconsistency_loss(a, b)[0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_one_hots_clamp(self):
        a = dist_from_probs([[1.0, 0.0]], [1])
        b = dist_from_probs([[1.0, 0.0]], [1])
        loss, dprobs_a, dprobs_b = inconsistency_loss(a, b)
        assert loss == -np.log(inconsistency.EPSILON_LOG)
        # clamped region carries no gradient
        assert not dprobs_a.any() and not dprobs_b.any()

    def test_lower_bound_over_random_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pa = rng.dirichlet(np.ones(4), size=3)
            pb = rng.dirichlet(np.ones(4), size=3)
            loss, _, _ = inconsistency_loss(
                dist_from_probs(pa, [1, 1, 1]), dist_from_probs(pb, [1, 1, 1])
            )
            assert loss >= -np.log(2.0) - 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        pa = rng.dirichlet(np.ones(3), size=4)
        pb = rng.dirichlet(np.ones(3), size=4)
        labels = [1, 2, 1, 2]
        loss_1, dprobs_a_1, dprobs_b_1 = inconsistency_loss(
            dist_from_probs(pa, labels), dist_from_probs(pb, labels)
        )
        loss_2, dprobs_a_2, dprobs_b_2 = inconsistency_loss(
            dist_from_probs(pb, labels), dist_from_probs(pa, labels)
        )
        assert loss_1 == loss_2
        np.testing.assert_array_equal(dprobs_a_1, dprobs_b_2)
        np.testing.assert_array_equal(dprobs_b_1, dprobs_a_2)

    def test_misaligned_batches_rejected(self):
        a = dist_from_probs([[0.5, 0.5]], [1])
        b = dist_from_probs([[0.5, 0.5], [0.5, 0.5]], [1, 2])
        with pytest.raises(ValueError, match="misaligned"):
            inconsistency_loss(a, b)
        c = dist_from_probs([[0.5, 0.5]], [2])
        with pytest.raises(ValueError, match="misaligned"):
            inconsistency_loss(a, c)

    def test_fully_clamped_branch_gets_zero_gradient(self):
        # branch A: all gaps < m1 -> uniform row, no gradient through its distances
        protos_a = protos_from([[1.0, 0.0], [0.9, 0.0], [0.8, 0.0], [0.7, 0.0]])
        z_a = np.array([[0.1, 0.0]])  # gaps 0.01 .. 0.03 < 0.5
        protos_b = protos_from([[5.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        z_b = np.array([[1.0, 0.0]])  # gaps 4, 6, 3 > 0.5
        dist_a = proximity_probs(z_a, [1], protos_a, m1=0.5, own_dots=None)
        dist_b = proximity_probs(z_b, [1], protos_b, m1=0.5, own_dots=None)
        assert not dist_a.cache.active.any()
        assert dist_b.cache.active.all()
        _, dprobs_a, _ = inconsistency_loss(dist_a, dist_b)
        d_embeddings_a, d_prototypes_a = proximity_backward(dist_a, dprobs_a)
        # the loss still pulls on A's distribution, but the clamp blocks it
        assert dprobs_a.any()
        assert not d_embeddings_a.any()
        assert not d_prototypes_a.any()

    def test_partially_clamped_branch_still_learns(self):
        # one active column in A, all active in B: gradients flow into both
        protos_a = protos_from([[1.0, 0.0], [0.9, 0.0], [-2.0, 0.0], [0.7, 0.0]])
        z_a = np.array([[1.0, 0.0]])  # gaps 0.1, 3.0, 0.3 -> only class 3 active
        protos_b = protos_from([[5.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        z_b = np.array([[1.0, 0.0]])
        dist_a = proximity_probs(z_a, [1], protos_a, m1=0.5, own_dots=None)
        dist_b = proximity_probs(z_b, [1], protos_b, m1=0.5, own_dots=None)
        assert dist_a.cache.active.sum() == 1
        _, dprobs_a, dprobs_b = inconsistency_loss(dist_a, dist_b)
        d_embeddings_a, d_prototypes_a = proximity_backward(dist_a, dprobs_a)
        d_embeddings_b, _ = proximity_backward(dist_b, dprobs_b)
        assert d_embeddings_a.any()
        assert d_embeddings_b.any()
        # the clamped columns of A contribute nothing to its prototype grads
        assert not d_prototypes_a[1].any()  # gap 0.1 < m1
        assert d_prototypes_a[2].any()  # gap 3.0 > m1


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        # anchor distance 0.2, negative 1.5, m2 = 1 -> max(-0.3, 0) = 0
        p = protos_from([[0.0, 0.0], [0.0, 1.5]])
        z = np.array([[0.2, 0.0]])
        loss, dz, dp = triplet_loss(z, [1], p, m2=1.0)
        assert loss == 0.0
        assert not dz.any() and not dp.any()

    def test_violated_margin_value(self):
        # anchor 1.0, negative 1.2, m2 = 1 -> 0.8
        p = protos_from([[0.0, 0.0], [0.0, 2.0]])
        z = np.array([[1.0, 0.0]])  # d_pos = 1.0, d_neg = sqrt(1+4) ~ 2.236
        # pick the negative prototype to sit at distance 1.2 instead
        p = protos_from([[0.0, 0.0], [1.0, 1.2]])
        loss, _, _ = triplet_loss(z, [1], p, m2=1.0)
        assert loss == pytest.approx(1.0 - 1.2 + 1.0)

    def test_perfect_anchor(self):
        p = protos_from([[1.0, 1.0], [4.0, 4.0]])
        z = np.array([[1.0, 1.0]])  # on the prototype; negative 4.24 away > m2
        loss, _, _ = triplet_loss(z, [1], p, m2=1.0)
        assert loss == 0.0

    def test_negative_is_nearest_other_prototype(self):
        p = protos_from([[0.0, 0.0], [0.0, 3.0], [0.1, 0.0]])
        # p0's nearest is p2 (0.1 away); p1 is 3.0 from p0 and 3.0017 from p2
        assert nearest_other_prototype(p).tolist() == [2, 0, 0]

    def test_gradients(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((6, 5))
        protos = rng.standard_normal((3, 5))
        labels = rng.integers(1, 4, size=6)

        def loss_fn(arrays):
            return triplet_loss(arrays[0], labels, arrays[1], 1.0)[0]

        loss, dz, dp = triplet_loss(z, labels, protos, 1.0)
        assert loss > 0
        report = finite_diff_check([z, protos], loss_fn, [dz, dp], n_coords=32, seed=5)
        assert report.max_rel_error < 1e-4


class TestInitBranch:
    def test_prototype_head_is_init_prototypes(self):
        branch = init_branch(SPEC, 3, encoder_seed=1, head_seed=2)
        assert branch.prototypes.tobytes() == init_prototypes(3, 4, 2).tobytes()

    def test_softmax_head_draw(self):
        branch = init_branch(SPEC, 3, 1, 7, head="softmax")
        weight, bias = branch.head
        expected = np.random.default_rng(7).normal(0.0, np.sqrt(2.0 / 4), size=(3, 4))
        assert weight.tobytes() == expected.tobytes()
        assert bias.tobytes() == np.zeros(3).tobytes()
        assert branch.prototypes is None
        for x, y in zip(branch.encoder.arrays(), init_encoder(SPEC, 1).arrays()):
            assert x.tobytes() == y.tobytes()

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="'linear'"):
            init_branch(SPEC, 3, 1, 2, head="linear")


class TestDivLoss:
    def _batch_and_branches(self, seed=6):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((8, 6)), rng.integers(1, 4, size=8)
        a = init_branch(SPEC, 3, encoder_seed=1, head_seed=2)
        b = init_branch(SPEC, 3, encoder_seed=3, head_seed=4)
        return x, y, a, b

    def test_weights_zero_reduces_to_two_baselines(self):
        x, y, a, b = self._batch_and_branches()
        hp = DivHyperParams(gamma=0.0, alpha=0.0)
        t, parts = div_loss(x, y, [a, b], hp)
        grads = [branch_gradients(*part) for part in parts]
        emb_a, _ = encoder_forward(a.encoder, x)
        pl_a, dz_a, dp_a = pl_loss(emb_a, y, a.prototypes, hp.beta)
        assert t["total"] == t["pl_a"] + t["pl_b"]
        assert t["pl_a"] == pl_a
        np.testing.assert_array_equal(grads[0][-1], dp_a)

    def test_full_objective_composition(self):
        x, y, a, b = self._batch_and_branches()
        hp = DivHyperParams(gamma=1.0, alpha=1.0)
        t, _ = div_loss(x, y, [a, b], hp)
        assert t["total"] == pytest.approx(
            t["pl_a"] + t["pl_b"] + t["incon"] + t["trip_a"] + t["trip_b"], abs=1e-12
        )

    def test_frozen_partner_matches_joint_branch_a(self):
        # against a frozen b, branch a sees the joint objective's a-side terms
        x, y, a, b = self._batch_and_branches()
        hp = DivHyperParams()
        joint, joint_parts = div_loss(x, y, [a, b], hp)
        joint_grads = [branch_gradients(*part) for part in joint_parts]
        frozen, frozen_parts = div_loss(x, y, [a], hp, frozen=b)
        frozen_grads = [branch_gradients(*part) for part in frozen_parts]
        assert set(frozen) == {"pl_a", "incon", "trip_a", "total"}
        for key in ("pl_a", "incon", "trip_a"):
            assert frozen[key] == joint[key]
        assert frozen["total"] == pytest.approx(
            joint["pl_a"] + joint["incon"] + joint["trip_a"], abs=1e-12
        )
        assert len(frozen_grads) == 1
        for g_frozen, g_joint in zip(frozen_grads[0], joint_grads[0]):
            np.testing.assert_array_equal(g_frozen, g_joint)

    @pytest.mark.parametrize("kind", ["pl", "softmax", "div_joint", "div_frozen"])
    def test_terms_have_a_total_and_a_trace_column(self, kind):
        x, y, a, b = self._batch_and_branches()
        hp = DivHyperParams()
        if kind == "pl":
            terms, parts = pl_objective(x, y, [a], hp)
        elif kind == "softmax":
            enc = init_encoder(SPEC, seed=1)
            head = [np.zeros((3, 4)), np.zeros(3)]
            linear = BranchState(enc, head)
            terms, parts = softmax_objective(x, y, [linear])
        elif kind == "div_joint":
            terms, parts = div_loss(x, y, [a, b], hp)
        else:
            terms, parts = div_loss(x, y, [a], hp, frozen=b)
        assert "total" in terms
        assert set(terms) <= set(LOSS_TRACE_COLUMNS)
        assert len(parts) == (2 if kind == "div_joint" else 1)

    def test_needs_a_branch_pair(self):
        x, y, a, b = self._batch_and_branches()
        with pytest.raises(ValueError, match="pair"):
            div_loss(x, y, [a], DivHyperParams())

    def test_branch_symmetry(self):
        x, y, a, b = self._batch_and_branches()
        hp = DivHyperParams()
        t1, parts_1 = div_loss(x, y, [a, b], hp)
        t2, parts_2 = div_loss(x, y, [b, a], hp)
        assert t1["incon"] == t2["incon"]
        assert t1["total"] == pytest.approx(t2["total"], abs=1e-12)
        np.testing.assert_array_equal(
            branch_gradients(*parts_1[0])[-1], branch_gradients(*parts_2[1])[-1]
        )


def _joint_branches(part, seeds=((1, 2), (3, 4))):
    spec = _spec_for(part)
    return [init_branch(spec, 3, enc, proto) for enc, proto in seeds]


class TestTraining:
    def test_zero_epochs_returns_unchanged(self):
        part = tiny_partition()
        branches = _joint_branches(part)
        before = [a.copy() for a in branches[0].arrays()]
        train(branches, partial(div_loss, hp=DivHyperParams()), part, TrainConfig(epochs=0), 0)
        for x, y in zip(before, branches[0].arrays()):
            assert x.tobytes() == y.tobytes()

    def test_identical_seeds_gamma_zero_stay_bitwise_equal(self):
        part = tiny_partition()
        branches = _joint_branches(part, seeds=((7, 8), (7, 8)))
        objective = partial(div_loss, hp=DivHyperParams(gamma=0.0, alpha=1.0))
        tc = TrainConfig(epochs=4, batch_size=32, lr=0.002)
        train(branches, objective, part, tc, 5)
        for x, y in zip(branches[0].arrays(), branches[1].arrays()):
            assert x.tobytes() == y.tobytes()

    def test_training_decreases_pl_loss(self):
        part = tiny_partition()
        branches = _joint_branches(part)
        trace = train(
            branches, partial(div_loss, hp=DivHyperParams()), part,
            TrainConfig(epochs=12, batch_size=64, lr=0.002), 0,
        )
        assert trace[-1]["pl_a"] < trace[0]["pl_a"]
        assert trace[-1]["pl_b"] < trace[0]["pl_b"]

    def test_divergence_aborts_with_diagnostics(self):
        part = tiny_partition()
        branches = _joint_branches(part)
        branches[0].encoder.weights[-1][:] = 1e200  # output layer: tanh cannot absorb it
        objective = partial(div_loss, hp=DivHyperParams())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch 0"):
                train(branches, objective, part, TrainConfig(epochs=1), 0)

    def test_non_finite_gradient_names_epoch_and_batch(self):
        part = tiny_partition()
        branches = _joint_branches(part)
        hp = DivHyperParams()
        tc = TrainConfig(epochs=3, batch_size=16)
        n_batches = -(-len(part.train_windows.labels) // tc.batch_size)
        calls = []

        def poisoned(x, y, branches):
            terms, parts = div_loss(x, y, branches, hp)
            calls.append(len(y))
            if (len(calls) - 1) // n_batches == 1:  # every batch of epoch 1
                _, _, (dp,) = parts[1]
                dp[0, 0] = np.nan
            return terms, parts

        with pytest.raises(TrainingError, match="branch 2 at epoch 1, batch 0"):
            train(branches, poisoned, part, tc, 0)
        assert len(calls) == n_batches + 1

    def test_unstandardized_partition_rejected(self):
        part = tiny_partition()
        raw = DatasetPartition(part.train_windows, part.test_windows, part.label_split)
        branches = _joint_branches(part)
        with pytest.raises(ValueError, match="standardized"):
            train(branches, partial(div_loss, hp=DivHyperParams()), raw, TrainConfig(epochs=1), 0)

    def test_empty_partition_rejected(self):
        part = tiny_partition()
        empty = dataclasses.replace(
            part.train_windows, **{k: getattr(part.train_windows, k)[:0]
                                   for k in ("starts", "labels")}
        )
        branches = _joint_branches(part)
        with pytest.raises(ValueError, match="training partition is empty"):
            train(branches, partial(div_loss, hp=DivHyperParams()),
                  dataclasses.replace(part, train_windows=empty), TrainConfig(epochs=1), 0)

    @pytest.mark.parametrize(
        "objective, head, n_branches",
        [(partial(pl_objective, hp=DivHyperParams()), "prototypes", 1),
         (partial(div_loss, hp=DivHyperParams()), "prototypes", 2),
         (softmax_objective, "softmax", 1)],
        ids=["pl_objective", "div_loss", "softmax_objective"],
    )
    def test_unknown_class_window_rejected_before_any_step(self, objective, head, n_branches):
        # every objective checks its batch's labels before train() steps on it
        part = tiny_partition()
        labels = part.train_windows.labels.copy()
        labels[-1] = UNKNOWN_LABEL
        part.train_windows = dataclasses.replace(part.train_windows, labels=labels)
        spec = _spec_for(part)
        branches = [init_branch(spec, 3, 2 * k + 1, 2 * k + 2, head=head)
                    for k in range(n_branches)]
        before = [a.copy() for b in branches for a in b.arrays()]
        with pytest.raises(ValueError, match=r"labels must lie in 1\.\.3"):
            train(branches, objective, part, TrainConfig(epochs=1), 0)
        after = [a for b in branches for a in b.arrays()]
        for x, y in zip(before, after):
            assert x.tobytes() == y.tobytes()

    def test_sequential_k1_equals_pl_baseline(self):
        part = tiny_partition()
        spec = _spec_for(part)
        tc = TrainConfig(epochs=5, batch_size=64, lr=0.002)
        hp = DivHyperParams()
        branches, traces = train_sequential(part, tc, hp, spec, [(21, 22)], 11)
        direct = init_branch(spec, 3, 21, 22)
        train([direct], partial(pl_objective, hp=hp), part, tc, 11)
        for x, y in zip(branches[0].arrays(), direct.arrays()):
            assert x.tobytes() == y.tobytes()
        assert len(traces) == 1

    def test_sequential_chain_trains_each_against_previous(self):
        part = tiny_partition()
        spec = _spec_for(part)
        tc = TrainConfig(epochs=3, batch_size=64, lr=0.002)
        branches, traces = train_sequential(
            part, tc, DivHyperParams(), spec, [(31, 32), (33, 34), (35, 36)], 12
        )
        assert len(branches) == 3
        # later traces carry the inconsistency component, the first does not
        assert "incon" not in traces[0][0]
        assert "incon" in traces[1][0]

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_checkpoint_roundtrip_bitwise(self, tmp_path, epochs):
        part = tiny_partition()
        branches = _joint_branches(part)
        hp = DivHyperParams(beta=0.5, gamma=2.0, m1=0.25)
        tc = TrainConfig(epochs=epochs, batch_size=64, lr=0.002)
        train(branches, partial(div_loss, hp=hp), part, tc, 0)
        path = tmp_path / "dual.npz"
        save_dual_checkpoint(path, branches)
        assert_checkpoint_holds(path, branches)

    def test_rate_decays_at_epochs_60_and_80(self, monkeypatch):
        # every branch steps at config.lr up to epoch 59, at a tenth of it
        # up to 79 and at a hundredth from 80, with config.momentum
        part = tiny_partition()
        steps = []

        def recording(arrays, grads, velocities, lr, momentum):
            steps.append((lr, momentum))
            sgd_step(arrays, grads, velocities, lr, momentum)

        monkeypatch.setattr(inconsistency, "sgd_step", recording)
        tc = TrainConfig(epochs=81, batch_size=64, lr=0.003, momentum=0.8)
        train(_joint_branches(part), partial(div_loss, hp=DivHyperParams()), part, tc, 0)
        n_batches = -(-len(part.train_windows.labels) // tc.batch_size)
        rates = [0.003] * 60 + [0.003 * 0.1] * 20 + [0.003 * 0.01]
        assert steps == [(lr, 0.8) for lr in rates for _ in range(2 * n_batches)]

    def test_loss_trace_rejects_a_term_without_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="'clamp_frac'"):
            write_loss_trace(path, [{"pl_a": 1.0, "total": 1.0}, {"clamp_frac": 0.5, "total": 1.0}])
        assert not path.exists()

    def test_loss_trace_csv(self, tmp_path):
        part = tiny_partition()
        branches = _joint_branches(part)
        trace = train(
            branches, partial(div_loss, hp=DivHyperParams()), part,
            TrainConfig(epochs=3, batch_size=64, lr=0.002), 0,
        )
        path = tmp_path / "trace.csv"
        write_loss_trace(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,pl_a,pl_b,incon,trip_a,trip_b,total"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[6]) == pytest.approx(trace[0]["total"])


class TestGradientBuffers:
    """train() owns one encoder-gradient set: each branch's backward writes
    it, and the branch steps before the next branch's backward."""

    @pytest.mark.parametrize("kind", ["pl", "softmax", "div_joint", "div_frozen"])
    def test_train_equals_the_allocating_loop(self, kind):
        # 36 train windows in batches of 16: the last batch holds 4. The rate
        # and momentum are not the defaults, so a train that stepped at
        # either default would not match the oracle, which reads config
        part = tiny_partition()
        spec = _spec_for(part)
        tc = TrainConfig(epochs=3, batch_size=16, lr=0.01, momentum=0.5)
        hp = DivHyperParams()

        def setup():
            if kind == "softmax":
                return [init_branch(spec, 3, 1, 2, head="softmax")], softmax_objective
            if kind == "pl":
                return [init_branch(spec, 3, 1, 2)], partial(pl_objective, hp=hp)
            if kind == "div_joint":
                return _joint_branches(part), partial(div_loss, hp=hp)
            partner = init_branch(spec, 3, 3, 4)
            return [init_branch(spec, 3, 1, 2)], partial(div_loss, hp=hp, frozen=partner)

        runs = []
        for loop in (train, train_allocating):
            branches, objective = setup()
            runs.append((branches, loop(branches, objective, part, tc, 9)))
        (got, got_trace), (want, want_trace) = runs
        assert got_trace == want_trace
        for g, w in zip(got, want):
            for x, y in zip(g.arrays(), w.arrays()):
                assert x.tobytes() == y.tobytes()

    def test_train_holds_one_encoder_gradient_set(self):
        # the harness's default widths on 1600-wide windows: W0 is 256 x 1600
        # float64 (3.3 MB). The branches are built while traced, so a
        # gradient set that a branch kept would count too
        part = tiny_partition(sampling_rate_hz=4000.0)
        enc = EncoderConfig()
        spec = EncoderSpec(part.train_windows.input_dim, enc.hidden_dims, enc.feature_dim)
        tc = TrainConfig(epochs=1, batch_size=16)
        objective = partial(div_loss, hp=DivHyperParams())

        def joint():
            return [init_branch(spec, 3, e, p) for e, p in ((1, 2), (3, 4))]

        train(joint(), objective, part, tc, 0)  # a first run, untraced
        tracemalloc.start()
        try:
            branches = joint()
            train(branches, objective, part, tc, 1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for b in branches for a in b.arrays())
        velocities = held  # train's zero set per branch, shaped like its arrays
        grad_set = sum(a.nbytes for a in branches[0].encoder.arrays())
        assert grad_set >= 1 << 20
        # measured: beyond the branches and the velocities, one set plus
        # 0.6 MB while training, 5 KB after it; with a set kept per branch,
        # two sets plus 0.5 MB, both still held after. Only the branches
        # outlive the call: the velocities are freed with it
        assert peak - held - velocities < grad_set + grad_set // 2
        assert current - held < grad_set // 4

    def test_joint_step_scratch_under_3_mb(self):
        # one joint predin step at the harness's default widths (252 rows,
        # 1600 -> 256 -> 128, six classes): div_loss, then each branch's
        # backward into one gradient set and its sgd_step. Measured: 2.77 MB
        # above the start; 4.57 MB when every loss term, activation and
        # derivative product was a fresh (M, d) array
        enc = EncoderConfig()
        spec = EncoderSpec(1600, enc.hidden_dims, enc.feature_dim)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((252, 1600))
        y = rng.permutation(np.arange(252) % 6 + 1)
        branches = [init_branch(spec, 6, e, p) for e, p in ((1, 2), (3, 4))]
        grads = [np.empty_like(a) for a in branches[0].encoder.arrays()]
        velocities = [[np.zeros_like(a) for a in b.arrays()] for b in branches]
        tc = TrainConfig()

        def step():
            _, parts = div_loss(x, y, branches, DivHyperParams())
            for b, v, part in zip(branches, velocities, parts):
                sgd_step(b.arrays(), branch_gradients(*part, out=grads), v, tc.lr, tc.momentum)

        step()  # a first step, untraced
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000


class TestCheckpoint:
    def test_failed_save_leaves_existing_checkpoint(self, tmp_path, monkeypatch):
        part = tiny_partition()
        branches = _joint_branches(part)
        path = tmp_path / "checkpoint.npz"
        save_dual_checkpoint(path, branches)
        before = path.read_bytes()

        def fail_midway(f, **arrays):
            f.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_midway)
        branches[0].head[0] += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_dual_checkpoint(path, branches)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["checkpoint.npz"]


class _FailsMidway:
    """File whose first write stores half its text and then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _score_table():
    return ScoreTable(
        sims=np.array([[[0.2, 0.9]], [[0.7, 0.1]]]),
        s_max=np.array([0.9, 0.7]),
        predicted=np.array([2, 1]),
        true_labels=np.array([2, -1]),
    )


ARTIFACT_WRITERS = {
    "scores.csv": lambda path: write_score_dump(path, _score_table(), 0.5),
    "loss_trace.csv": lambda path: write_loss_trace(path, [{"total": 1.5, "pl_a": 1.5}]),
    "proximity.csv": lambda path: write_matrix_csv(path, np.eye(3)),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
def test_failed_write_leaves_existing_artifact(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_text("previous run\n")
    real_open = open
    monkeypatch.setattr(
        predin.io, "open",
        lambda *args, **kwargs: _FailsMidway(real_open(*args, **kwargs)), raising=False,
    )
    with pytest.raises(OSError, match="disk full"):
        ARTIFACT_WRITERS[name](path)
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == [name]


def _spec_for(partition):
    dim = partition.train_windows.input_dim
    return EncoderSpec(input_dim=dim, hidden_dims=(16,), output_dim=8)
