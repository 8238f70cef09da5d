import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predin.encoder import EncoderSpec, init_encoder
from predin.inconsistency import BranchState, branch_score_fn
from predin.scoring import (
    SCORE_BLOCK_ROWS,
    ScoreTable,
    calibrate_threshold,
    decide,
    score_windows,
    write_score_dump,
)
from predin.signals import UNKNOWN_LABEL, LabelSplit, SignalRecording, WindowTable, split_trials

from oracles import dot_scalar, write_score_dump_csv


def make_windows(x, labels=None):
    """Window table of (M, C, T) inputs laid end to end in one signal;
    labels default to class 1."""
    x = np.asarray(x, dtype=np.float64)
    m, c, t = x.shape
    labels = np.ones(m, dtype=np.int64) if labels is None else np.asarray(labels)
    return WindowTable(signal=x.transpose(1, 0, 2).reshape(c, m * t), window_len=t,
                       starts=np.arange(m) * t, labels=labels)


def score_fixed(*branch_sims):
    """Score one window per row of each branch's fixed (M, N) similarities."""
    sims = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in branch_sims]
    fns = [lambda x, s=s: s for s in sims]
    m = len(sims[0]) if sims else 1
    return score_windows(fns, make_windows(np.zeros((m, 1, 1))))


def prototype_scorer(encoder, protos: np.ndarray):
    """The scorer of a prototype branch with this encoder and these prototypes."""
    # a scorer never steps, so the branch carries no velocities
    return branch_score_fn(BranchState(encoder, [protos], 0, []))


def identity_scorer(protos: np.ndarray):
    """Prototype scorer whose encoder is the identity, so sims are x . p^k."""
    dim = protos.shape[1]
    spec = EncoderSpec(input_dim=dim, hidden_dims=(), output_dim=dim, activation="relu")
    enc = init_encoder(spec, seed=0)
    enc.weights[0][:] = np.eye(dim)
    return prototype_scorer(enc, protos)


class TestBranchSimilarity:
    def test_orthogonal_gives_zeros(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        sims = identity_scorer(protos)(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(sims, [[0.0, 0.0]])

    def test_self_similarity_is_squared_norm(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((4, 6))
        sims = identity_scorer(p)(p[2:3])
        assert sims[0, 2] == pytest.approx(p[2] @ p[2], abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal((5, 7))
        z = rng.standard_normal((3, 7))
        sims = identity_scorer(p)(z)
        for i in range(3):
            for k in range(5):
                assert sims[i, k] == pytest.approx(dot_scalar(z[i], p[k]), abs=1e-12)


class TestFuseScores:
    def test_mean_of_two(self):
        table = score_fixed([2.0], [4.0])
        np.testing.assert_array_equal(table.sims.mean(axis=1), [[3.0]])
        assert table.s_max.tolist() == [3.0]

    def test_single_branch_identity(self):
        table = score_fixed([1.0, 2.0])
        np.testing.assert_array_equal(table.sims.mean(axis=1), [[1.0, 2.0]])
        assert (table.s_max.tolist(), table.predicted.tolist()) == ([2.0], [2])

    def test_five_equal_branches(self):
        v = np.array([[0.3, -1.2, 4.0], [1.0, 2.0, -3.0]])
        table = score_fixed(*[v] * 5)
        np.testing.assert_allclose(table.sims.mean(axis=1), v)
        np.testing.assert_allclose(table.s_max, [4.0, 2.0])
        assert table.predicted.tolist() == [3, 2]
        assert table.sims.shape == (2, 5, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_fixed([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            score_fixed()


class TestClassify:
    def test_argmax(self):
        table = score_fixed([0.1, 0.9, 0.3])
        assert (table.s_max[0], table.predicted[0]) == (0.9, 2)

    def test_tie_breaks_low_index(self):
        assert score_fixed([[0.5, 0.5, 0.5], [0.1, 0.7, 0.7]]).predicted.tolist() == [1, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((4, 6))
        perm = rng.permutation(6)
        k = score_fixed(scores).predicted
        k_perm = score_fixed(scores[:, perm]).predicted
        np.testing.assert_array_equal(perm[k_perm - 1], k - 1)


class TestCalibrateThreshold:
    def test_nearest_rank_on_1_to_100(self):
        scores = np.arange(1.0, 101.0)
        thr = calibrate_threshold(scores, retention=0.95)
        assert thr == 5.0
        assert (scores >= thr).sum() == 96

    def test_two_scores_half_retention(self):
        thr = calibrate_threshold([1.0, 2.0], retention=0.5)
        assert thr == 1.0

    def test_all_equal(self):
        thr = calibrate_threshold([3.0, 3.0, 3.0], retention=0.9)
        assert thr == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold([], retention=0.95)

    def test_retention_bounds(self):
        with pytest.raises(ValueError):
            calibrate_threshold([1.0], retention=0.0)
        with pytest.raises(ValueError):
            calibrate_threshold([1.0], retention=1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200),
        retention=st.floats(0.01, 0.99),
    )
    def test_retention_always_met(self, scores, retention):
        thr = calibrate_threshold(scores, retention)
        retained = np.mean(np.asarray(scores) >= thr)
        assert retained >= retention - 1e-12


class TestDecide:
    THR = 0.5

    def _decide(self, s_max, k=2):
        sims = np.zeros((1, 3))
        sims[0, k - 1] = s_max  # two equal branches fuse to s_max at class k
        return decide(score_fixed(sims, sims), self.THR)

    def test_above_accepts(self):
        assert self._decide(0.7).tolist() == [2]

    def test_below_rejects(self):
        assert self._decide(0.3).tolist() == [UNKNOWN_LABEL]

    def test_exactly_at_threshold_accepts(self):
        assert self._decide(0.5).tolist() == [2]


class TestScoreWindows:
    def _setup(self):
        protos = np.eye(4)[:3]
        split = LabelSplit(known_classes=(10, 20, 30))
        return identity_scorer(protos), split

    def test_true_labels_remapped(self):
        # split_trials remaps the labels once; the score table carries them
        scorer, split = self._setup()
        x = np.array([[[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0, 0.0]]])
        recs = [SignalRecording(w, 1000.0, label, 3, 1) for w, label in zip(x, (20, 40))]
        windows = split_trials(recs, 4.0, 4.0, {1}, {3}, split).test_windows
        scored = score_windows([scorer], windows)
        assert len(scored) == 2
        assert scored.true_labels.tolist() == [2, UNKNOWN_LABEL]
        assert scored.known.tolist() == [True, False]
        assert scored.predicted.tolist() == [1, 3]  # dot with the e1 / e3 prototype

    def test_constant_shift_preserves_argmax(self):
        rng = np.random.default_rng(3)
        sims = [rng.standard_normal((4, 5)), rng.standard_normal((4, 5))]
        table = score_fixed(*sims)
        shifted = score_fixed(*[s + 7.5 for s in sims])
        np.testing.assert_allclose(
            shifted.sims.mean(axis=1), table.sims.mean(axis=1) + 7.5, atol=1e-12)
        np.testing.assert_allclose(shifted.s_max, table.s_max + 7.5, atol=1e-12)
        np.testing.assert_array_equal(shifted.predicted, table.predicted)

    def test_branch_predictions_property(self):
        s = ScoreTable(
            sims=np.array([[[0.1, 0.9], [0.8, 0.2]]]),
            s_max=np.array([0.55]),
            predicted=np.array([2]),
            true_labels=np.array([1]),
        )
        assert s.branch_predictions.tolist() == [[2, 1]]

    def test_score_dump_roundtrip(self, tmp_path):
        scorer, _ = self._setup()
        windows = make_windows(np.ones((3, 1, 4)), labels=[1, 1, UNKNOWN_LABEL])
        scored = score_windows([scorer] * 2, windows)
        thr = -10.0
        path = tmp_path / "scores.csv"
        write_score_dump(path, scored, thr)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert list(rows[0]) == [
            "sample_id", "true_label", "branch1_smax", "branch2_smax",
            "fused_smax", "k_star", "decision",
        ]
        assert [int(r["true_label"]) for r in rows] == [1, 1, UNKNOWN_LABEL]
        assert float(rows[0]["fused_smax"]) == scored.s_max[0]
        assert int(rows[0]["decision"]) == scored.predicted[0]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("threshold", [0.5, -0.0, float("inf"), float("-inf")])
    def test_score_dump_bytes_equal_csv_writer(self, tmp_path, k, threshold):
        rng = np.random.default_rng(k)
        sims = rng.standard_normal((40, k, 3))
        sims[:4, 0, :] = [[-0.0, -1.0, -2.0], [np.inf, 0.0, 1.0], [-np.inf, -np.inf, -np.inf],
                          [1e-300, -1.5e308, 0.1]]
        fused = sims.mean(axis=1)
        k0 = fused.argmax(axis=1)
        s_max = fused[np.arange(40), k0]
        s_max[:4] = [-0.0, np.inf, -np.inf, 0.0]
        labels = rng.integers(1, 4, size=40)
        labels[::7] = UNKNOWN_LABEL
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        for m in (40, 1, 0):
            table = ScoreTable(sims[:m], s_max[:m], k0[:m] + 1, labels[:m])
            write_score_dump(new, table, threshold)
            write_score_dump_csv(old, table, threshold)
            assert new.read_bytes() == old.read_bytes()
            if m == 40:
                assert all(v in new.read_bytes() for v in (b",-0.0,", b",inf,", b",-inf,"))


class TestScoreBlocks:
    B = SCORE_BLOCK_ROWS

    @pytest.mark.parametrize("m", [0, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 5,
                                   4 * B + 5])
    def test_blocks_equal_one_pass_bitwise(self, m):
        rng = np.random.default_rng(m)
        spec = EncoderSpec(input_dim=24, hidden_dims=(16,), output_dim=8, activation="tanh")
        fns = [prototype_scorer(init_encoder(spec, seed=s), rng.standard_normal((6, 8)))
               for s in (1, 2)]
        x = rng.standard_normal((m, 2, 12))
        windows = make_windows(x)
        rows_seen = []

        def recording(fn):
            def wrapped(x):
                rows_seen.append(len(x))
                return fn(x)
            return wrapped

        scored = score_windows([recording(fn) for fn in fns], windows)
        one_pass = np.stack([fn(x.reshape(m, 24)) for fn in fns], axis=1)
        assert scored.sims.shape == (m, 2, 6)
        assert scored.sims.tobytes() == one_pass.tobytes()
        fused = one_pass.mean(axis=1)
        assert scored.s_max.tobytes() == fused.max(axis=1).tobytes()
        np.testing.assert_array_equal(scored.predicted, fused.argmax(axis=1) + 1)
        # blocks hold at most SCORE_BLOCK_ROWS rows and at least half as many
        assert sum(rows_seen) == 2 * m
        assert max(rows_seen) <= self.B and min(rows_seen) >= min(m, self.B // 2)
        assert len(rows_seen) == 2 * max(1, -(-m // self.B))

    @pytest.mark.parametrize("m", [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4 * B + 1])
    def test_blocks_equal_one_pass_bitwise_at_harness_shapes(self, m):
        # the default run's shapes (4 channels x 400 samples -> 256 -> 128,
        # tanh, two branches, overlapping 100-sample strides) reach the BLAS
        # kernels a real run uses, which 24 -> 16 -> 8 never does
        rng = np.random.default_rng(m)
        spec = EncoderSpec(input_dim=1600, hidden_dims=(256,), output_dim=128, activation="tanh")
        fns = [prototype_scorer(init_encoder(spec, seed=s), rng.standard_normal((6, 128)))
               for s in (1, 2)]
        ids = np.ones(m, dtype=np.int64)
        windows = WindowTable(rng.standard_normal((4, (m - 1) * 100 + 400)), 400,
                              np.arange(m) * 100, ids)
        scored = score_windows(fns, windows)
        x = windows.rows(slice(None))
        one_pass = np.stack([fn(x) for fn in fns], axis=1)
        assert scored.sims.tobytes() == one_pass.tobytes()
        fused = one_pass.mean(axis=1)
        assert scored.s_max.tobytes() == fused.max(axis=1).tobytes()
        np.testing.assert_array_equal(scored.predicted, fused.argmax(axis=1) + 1)

    def test_peak_memory_is_one_gathered_block(self):
        # three blocks of overlapping windows: only one block's gathered rows
        # and activations may be alive at once, never the whole table
        m, c, t, step, hidden, out, n = 2 * self.B + 500, 4, 64, 16, 32, 8, 6
        rng = np.random.default_rng(0)
        ids = np.ones(m, dtype=np.int64)
        windows = WindowTable(rng.standard_normal((c, (m - 1) * step + t)), t,
                              np.arange(m) * step, ids)
        spec = EncoderSpec(input_dim=c * t, hidden_dims=(hidden,), output_dim=out,
                           activation="tanh")
        fns = [prototype_scorer(init_encoder(spec, seed=s), rng.standard_normal((n, out)))
               for s in (1, 2)]
        tracemalloc.start()
        try:
            scored = score_windows(fns, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = -(-m // 3)
        gathered = block * c * t * 8
        # a @ w.T, + b and the activation of each layer, then each branch's
        # (block, N) scores and their stack
        activations = 3 * block * (hidden + out) * 8 + 2 * block * len(fns) * n * 8
        assert peak <= scored.sims.nbytes + gathered + activations + 256 * 1024
