import re
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from predin import signals
from predin.signals import (
    UNKNOWN_LABEL,
    DatasetPartition,
    LabelSplit,
    NonFiniteStatistics,
    ParseError,
    SignalRecording,
    SyntheticConfig,
    WindowTable,
    generate_synthetic,
    load_csv,
    segment_windows,
    split_known_unknown,
    split_trials,
    standardize,
    window_geometry,
)

import oracles
from oracles import count_windows_enumeration


# every class 1..9 is known and keeps its id: a split for tests that route
# without an unknown class
ALL_KNOWN = LabelSplit(known_classes=tuple(range(1, 10)))


def make_recording(n_samples, channels=2, rate=2000.0, label=1, trial=1):
    rng = np.random.default_rng(0)
    return SignalRecording(
        samples=rng.standard_normal((channels, n_samples)),
        sampling_rate=rate,
        gesture_label=label,
        trial_id=trial,
        subject_id=1,
    )


def make_table(arrays, labels=1):
    """Window table of equally shaped (C, T) arrays, laid end to end in one
    signal, with scalar or per-window labels."""
    m = len(arrays)
    signal = np.concatenate(arrays, axis=1) if m else np.empty((1, 0))
    t = arrays[0].shape[1] if m else 1
    return WindowTable(
        signal=signal,
        window_len=t,
        starts=np.arange(m, dtype=np.int64) * t,
        labels=np.broadcast_to(labels, m).astype(np.int64),
    )


def cube(table, sel=slice(None)):
    """Gathered rows of the selected windows as an (n, C, T) array."""
    return table.rows(sel).reshape(-1, table.signal.shape[0], table.window_len)


class TestSignalRecording:
    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -100.0, True, "2000"])
    def test_bad_sampling_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sampling_rate must be a finite number > 0"):
            make_recording(8, rate=rate)


class TestWindowing:
    def test_paper_geometry(self):
        # 200 ms / 50 ms at 2000 Hz
        assert window_geometry(2000.0, 200.0, 50.0) == (400, 100)

    def test_single_window(self):
        windows = segment_windows(make_recording(400), 200.0, 50.0)
        assert len(windows) == 1
        assert cube(windows).shape == (1, 2, 400)

    def test_count_formula(self):
        windows = segment_windows(make_recording(1000), 200.0, 50.0)
        assert len(windows) == (1000 - 400) // 100 + 1 == 7

    def test_too_short_gives_empty(self):
        windows = segment_windows(make_recording(399), 200.0, 50.0)
        assert len(windows) == 0
        assert cube(windows).shape == (0, 2, 400)

    @pytest.mark.parametrize(
        "rate, window_ms, step_ms, key",
        [(1e308, 200.0, 50.0, "window_ms"), (2000.0, 1e308, 50.0, "window_ms"),
         (2000.0, 200.0, 1e308, "step_ms")],
    )
    def test_huge_finite_timing_rejected_naming_the_key(self, rate, window_ms, step_ms, key):
        with pytest.raises(ValueError, match=f"{key}=.* at sampling_rate_hz=.* no finite"):
            window_geometry(rate, window_ms, step_ms)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            segment_windows(make_recording(400), 200.0, 0.0)
        with pytest.raises(ValueError):
            segment_windows(make_recording(400), 200.0, -10.0)

    def test_windows_preserve_metadata(self):
        rec = make_recording(600, label=7, trial=3)
        windows = segment_windows(rec, 200.0, 50.0)
        assert len(windows) == 3
        np.testing.assert_array_equal(windows.labels, [7] * 3)

    def test_count_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            length = int(rng.integers(400, 5000))
            got = len(segment_windows(make_recording(length), 200.0, 50.0))
            assert got == count_windows_enumeration(length, 400, 100)

    def test_window_content_matches_source(self):
        rec = make_recording(700)
        windows = segment_windows(rec, 200.0, 50.0)
        for i in range(len(windows)):
            np.testing.assert_array_equal(cube(windows, [i])[0],
                                          rec.samples[:, 100 * i : 100 * i + 400])

    def test_segment_table_is_read_only_view(self):
        rec = make_recording(700)
        windows = segment_windows(rec, 200.0, 50.0)
        assert np.shares_memory(windows.signal, rec.samples)
        assert not windows.signal.flags.writeable
        np.testing.assert_array_equal(windows.starts, [0, 100, 200, 300])

    def test_recordings_table_is_contiguous(self):
        # each side's signal is one fresh C-contiguous copy of its recordings,
        # and every gather from it is C-contiguous
        recs = [make_recording(500, label=4, trial=1), make_recording(700, label=5, trial=2)]
        two = split_trials(list(recs), 200.0, 50.0, {1, 2}, set(), ALL_KNOWN)
        one_each = split_trials(list(recs), 200.0, 50.0, {1}, {2}, ALL_KNOWN)
        assert two.train_windows.signal.shape == (2, 500 + 700)
        for windows in (two.train_windows, one_each.train_windows, one_each.test_windows):
            assert windows.signal.flags.c_contiguous and windows.signal.flags.owndata
            assert not any(np.shares_memory(windows.signal, r.samples) for r in recs)
            for sel in (slice(None), np.array([1, 0, 1]), slice(1, 2)):
                got = windows.rows(sel)
                assert got.flags.c_contiguous
                assert not np.shares_memory(got, windows.signal)

    def test_recordings_concatenate_in_order(self):
        recs = [make_recording(500, label=4, trial=1), make_recording(700, label=5, trial=2)]
        windows = split_trials(list(recs), 200.0, 50.0, {1, 2}, set(), ALL_KNOWN).train_windows
        assert len(windows) == 2 + 4
        np.testing.assert_array_equal(windows.labels, [4, 4, 5, 5, 5, 5])
        np.testing.assert_array_equal(cube(windows)[2], recs[1].samples[:, :400])

    def test_starts_outside_signal_rejected(self):
        ids = np.ones(1, dtype=np.int64)
        for start in (-1, 97):
            with pytest.raises(ValueError, match="inside the signal"):
                WindowTable(np.zeros((2, 100)), 4, np.array([start]), ids)


class TestStandardize:
    def _partition(self, train_arrays, test_arrays=()):
        train = make_table(train_arrays)
        test = make_table(test_arrays)
        return DatasetPartition(train_windows=train, test_windows=test, label_split=ALL_KNOWN)

    def test_two_value_channel(self):
        part = self._partition([np.array([[1.0, 3.0]])])
        out = standardize(part)
        # mean 2.0 and std 1.0 are the only ones that give exactly -1 and 1
        assert cube(out.train_windows)[0].tolist() == [[-1.0, 1.0]]
        assert out.standardized

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4000))
        x = (x - x.mean()) / x.std()
        out = standardize(self._partition([x]))
        np.testing.assert_allclose(cube(out.train_windows)[0], x, atol=1e-6)

    def test_constant_channel_floored(self):
        sample = np.array([[5.0, 5.0 + 3e-9, np.nextafter(5.0, 6.0)]])
        part = self._partition([np.full((1, 3), 5.0)], [sample])
        with pytest.warns(UserWarning, match=r"channels \[0\] are \(near-\)constant.*floored"):
            out = standardize(part)
        np.testing.assert_array_equal(cube(out.train_windows)[0], np.zeros((1, 3)))
        # the test side is scaled by the floor itself, bit for bit
        assert cube(out.test_windows)[0].tobytes() == ((sample - 5.0) / 1e-8).tobytes()

    def test_stats_from_train_only(self):
        rng = np.random.default_rng(2)
        train = [rng.standard_normal((3, 50)) for _ in range(4)]
        test = [10.0 + rng.standard_normal((3, 50)) for _ in range(2)]
        out = standardize(self._partition(train, test))
        stacked = np.concatenate(train, axis=1)
        mean, std = stacked.mean(axis=1)[:, None], stacked.std(axis=1)[:, None]
        for got, arrays in ((out.train_windows, train), (out.test_windows, test)):
            assert cube(got).tobytes() == np.stack([(x - mean) / std for x in arrays]).tobytes()
        # train side is exactly zero-mean unit-std afterwards, test is not
        train_stack = np.concatenate(list(cube(out.train_windows)), axis=1)
        np.testing.assert_allclose(train_stack.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(train_stack.std(axis=1), 1.0, atol=1e-6)

    def test_same_transform_applied_to_test(self):
        train = [np.array([[0.0, 2.0]])]
        test = [np.array([[4.0, 6.0]])]
        out = standardize(self._partition(train, test))
        np.testing.assert_allclose(cube(out.test_windows)[0], [[3.0, 5.0]])

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            standardize(self._partition([]))

    def test_scales_tables_in_place(self):
        rng = np.random.default_rng(3)
        part = self._partition([rng.standard_normal((2, 5)) for _ in range(3)],
                               [rng.standard_normal((2, 5))])
        train_x, test_x = part.train_windows.signal, part.test_windows.signal
        out = standardize(part)
        assert out.train_windows.signal is train_x and out.test_windows.signal is test_x
        assert out.standardized

    def test_single_window_single_channel_stats(self):
        # one (1, T) channel slice is contiguous: the statistics must still
        # be taken from a copy, never by scaling the table while reducing it
        x = np.array([[1.0, 2.0, 4.0, 9.0]])
        y = np.array([[0.0, 3.0, 5.0, 10.0]])
        out = standardize(self._partition([x], [y]))
        assert cube(out.train_windows)[0].tobytes() == ((x - x.mean()) / x.std()).tobytes()
        assert cube(out.test_windows)[0].tobytes() == ((y - x.mean()) / x.std()).tobytes()

    def test_second_call_rejected(self):
        rng = np.random.default_rng(4)
        part = standardize(self._partition([rng.standard_normal((2, 6)) for _ in range(3)],
                                           [rng.standard_normal((2, 6))]))
        before = cube(part.train_windows)
        with pytest.raises(ValueError, match="already standardized"):
            standardize(part)
        np.testing.assert_array_equal(cube(part.train_windows), before)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_statistics_rejected_before_writing(self):
        # finite samples whose sum (channel 2) or sum of squares (channel 0)
        # overflows; channel 1 is fine. NonFiniteStatistics is the one
        # report: numpy warns of no overflow on the way
        train = [np.array([[1e200, 1.0], [1.0, 2.0], [1e308, 1e308]]),
                 np.array([[-1e200, 2.0], [3.0, 4.0], [1e308, 1e308]])]
        part = self._partition(train, [np.ones((3, 2))])
        signals_before = [part.train_windows.signal.copy(), part.test_windows.signal.copy()]
        with pytest.raises(
            NonFiniteStatistics, match=re.escape("channels [0, 2] is not finite")
        ):
            standardize(part)
        assert not part.standardized
        np.testing.assert_array_equal(part.train_windows.signal, signals_before[0])
        np.testing.assert_array_equal(part.test_windows.signal, signals_before[1])

    def test_recording_views_never_written(self):
        rec = make_recording(700)
        samples = rec.samples.copy()
        train = segment_windows(rec, 200.0, 50.0)
        test = segment_windows(make_recording(500, trial=2), 200.0, 50.0)
        with pytest.raises(ValueError, match="read-only"):
            standardize(DatasetPartition(train, test, ALL_KNOWN))
        np.testing.assert_array_equal(rec.samples, samples)
        assert not train.signal.flags.writeable and not test.signal.flags.writeable


class TestGatherOracle:
    """Gathered rows and standardization against the former table that
    copied every window out on its own, bit for bit."""

    SPLIT = LabelSplit(known_classes=(1, 2))

    def _recordings(self):
        rng = np.random.default_rng(11)
        lengths = [900, 399, 1234, 400, 2000, 1500]  # 399: too short for one window
        return [
            SignalRecording(rng.standard_normal((3, n)) * (1 + i) + i, 2000.0, i % 3 + 1,
                            1 + i % 2, 1)
            for i, n in enumerate(lengths)
        ]

    def _sides(self, recs):
        train = [r for r in recs if r.trial_id == 1 and r.gesture_label in (1, 2)]
        test = [r for r in recs if r.trial_id == 2]
        return train, test

    def _flat(self, copies):
        m, c, t = copies.x.shape
        return copies.x.reshape(m, c * t)

    def test_rows_match_oracle_bitwise(self):
        recs = self._recordings()
        part = split_trials(list(recs), 200.0, 50.0, {1}, {2}, self.SPLIT)
        rng = np.random.default_rng(5)
        for got, routed in zip((part.train_windows, part.test_windows), self._sides(recs)):
            assert len({r.gesture_label for r in routed}) > 1  # a multi-recording side
            flat = self._flat(oracles.window_recordings(routed, 200.0, 50.0))
            m = len(got)
            assert m == len(flat) > 4
            sels = [slice(None), slice(2, m - 1), slice(3, 3), slice(None, None, -2),
                    rng.integers(0, m, 40), rng.permutation(m), np.array([m - 1, 0, m - 1]),
                    np.array([], dtype=np.int64)]
            for sel in sels:
                rows = got.rows(sel)
                assert rows.shape == flat[sel].shape
                assert rows.tobytes() == flat[sel].tobytes()

    def test_rows_into_out_match_oracle_bitwise(self):
        # as train() gathers each batch: into the leading rows of one buffer
        # that earlier, longer gathers have already written
        recs = self._recordings()
        got = split_trials(list(recs), 200.0, 50.0, {1}, {2}, self.SPLIT).train_windows
        flat = self._flat(oracles.window_recordings(self._sides(recs)[0], 200.0, 50.0))
        m = len(got)
        buf = np.full((m + 3, got.input_dim), np.nan)
        rng = np.random.default_rng(6)
        for sel in [rng.permutation(m), slice(None, None, -2), np.array([m - 1, 0, m - 1]),
                    rng.integers(0, m, 3), np.array([], dtype=np.int64)]:
            n = len(flat[sel])
            rows = got.rows(sel, out=buf[:n])
            assert rows.base is buf and rows.shape == flat[sel].shape
            assert rows.tobytes() == flat[sel].tobytes()
        for bad in [buf[:2, ::2], buf[:2].T.copy().T, buf[:3]]:
            with pytest.raises(ValueError, match="out must be a C-contiguous"):
                got.rows(np.array([0, 1]), out=bad)

    def test_empty_side_matches_oracle(self):
        recs = self._recordings()
        # the test side routes nothing; a side of one too-short recording has no windows
        for got, routed in (
            (split_trials(list(recs), 200.0, 50.0, {1}, set(), ALL_KNOWN).test_windows, []),
            (split_trials(recs[1:2], 200.0, 50.0, {2}, set(), ALL_KNOWN).train_windows,
             recs[1:2]),
        ):
            expected = (np.empty((0, 3 * 400)) if not routed
                        else self._flat(oracles.window_recordings(routed, 200.0, 50.0)))
            assert len(got) == 0
            for sel in (slice(None), np.array([], dtype=np.int64)):
                rows = got.rows(sel)
                assert rows.shape == expected.shape and rows.dtype == expected.dtype

    def test_standardize_matches_oracle_bitwise(self):
        recs = self._recordings()
        part = standardize(split_trials(list(recs), 200.0, 50.0, {1}, {2}, self.SPLIT))
        train, test = (oracles.window_recordings(r, 200.0, 50.0) for r in self._sides(recs))
        oracles.standardize_copies(train.x, test.x)
        assert part.standardized
        for got, copies in ((part.train_windows, train), (part.test_windows, test)):
            assert got.rows(slice(None)).tobytes() == self._flat(copies).tobytes()


class TestLabelSplit:
    def test_biopat_proportions(self):
        split = split_known_unknown(range(1, 28), 10, seed=0)
        assert split.n_known == 10
        assert len(set(range(1, 28)) - set(split.known_classes)) == 17

    def test_single_unknown_boundary(self):
        split = split_known_unknown(range(5), 4, seed=3)
        assert len(set(range(5)) - set(split.known_classes)) == 1

    def test_deterministic(self):
        a = split_known_unknown(range(20), 8, seed=11)
        b = split_known_unknown(range(20), 8, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        splits = {split_known_unknown(range(20), 8, seed=s).known_classes for s in range(5)}
        assert len(splits) > 1

    def test_n_known_too_large(self):
        with pytest.raises(ValueError):
            split_known_unknown(range(5), 5, seed=0)

    @pytest.mark.parametrize("n_known", [1, 0, -1])
    def test_n_known_below_two(self, n_known):
        with pytest.raises(ValueError, match="need at least 2 known classes"):
            split_known_unknown(range(5), n_known, seed=0)

    def test_remap_contiguous(self):
        split = split_known_unknown(range(100, 127), 10, seed=1)
        known = split.known_classes
        np.testing.assert_array_equal(split.remap(np.array(known)), range(1, 11))
        labels = np.array([*sorted(set(range(100, 127)) - set(known)), *known[::-1]])
        want = [known.index(c) + 1 if c in known else UNKNOWN_LABEL for c in labels.tolist()]
        np.testing.assert_array_equal(split.remap(labels), want)


class TestSplitTrials:
    # 4-sample recordings at 1000 Hz, cut by 4 ms windows: one window each
    W = (4.0, 4.0)

    def _recordings(self):
        labels, trials = np.meshgrid([1, 2, 3], [1, 2, 3, 4], indexing="ij")
        return [
            SignalRecording(np.full((1, 4), float(i)), 1000.0, int(label), int(trial), 1)
            for i, (label, trial) in enumerate(zip(labels.ravel(), trials.ravel()))
        ]

    def test_routing(self):
        # recording i holds the value i and carries trial i % 4 + 1
        part = split_trials(self._recordings(), *self.W, {1, 2}, {3}, ALL_KNOWN)
        np.testing.assert_array_equal(cube(part.train_windows)[:, 0, 0], [0, 1, 4, 5, 8, 9])
        # rows travel with their labels, in their original order
        np.testing.assert_array_equal(cube(part.test_windows)[:, 0, 0], [2.0, 6.0, 10.0])
        np.testing.assert_array_equal(part.test_windows.labels, [1, 2, 3])

    def test_empty_test_trials(self):
        part = split_trials(self._recordings(), *self.W, {1, 2}, set(), ALL_KNOWN)
        assert len(part.test_windows) == 0
        assert cube(part.test_windows).shape == (0, 1, 4)

    def test_unlisted_trial_dropped(self):
        part = split_trials(self._recordings(), *self.W, {1}, {2}, ALL_KNOWN)
        routed = len(part.train_windows) + len(part.test_windows)
        assert routed == 6  # trials 3 and 4 dropped

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            split_trials(self._recordings(), *self.W, {1, 2}, {2, 3}, ALL_KNOWN)

    def test_known_filter_on_train_side(self):
        # class 3 is unknown: kept out of train, and remapped in test
        split = LabelSplit(known_classes=(1, 2))
        part = split_trials(self._recordings(), *self.W, {1, 2}, {3}, split)
        assert set(part.train_windows.labels.tolist()) == {1, 2}
        assert part.test_windows.labels.tolist() == [1, 2, UNKNOWN_LABEL]

    def test_equals_routing_every_window(self):
        # routing recordings equals windowing everything and masking rows
        cfg = SyntheticConfig(n_classes=5, channels=3, trials=4, recording_ms=700.0,
                              sampling_rate_hz=500.0, data_seed=8)
        recs = generate_synthetic(cfg)
        split = split_known_unknown(range(1, cfg.n_classes + 1), 3, seed=2)
        part = split_trials(list(recs), 200.0, 50.0, {1, 3}, {2}, split)
        every = oracles.window_recordings(recs, 200.0, 50.0)
        to_train = np.isin(every.trials, [1, 3]) & np.isin(every.labels, split.known_classes)
        for got, rows in ((part.train_windows, to_train), (part.test_windows, every.trials == 2)):
            np.testing.assert_array_equal(cube(got), every.x[rows])
            # each window's label is remapped once, where it is routed
            np.testing.assert_array_equal(got.labels, split.remap(every.labels[rows]))
            assert got.rows(slice(None)).flags.c_contiguous
        assert part.train_windows.labels.min() >= 1
        assert (part.test_windows.labels == UNKNOWN_LABEL).any()

    def test_only_routed_recordings_windowed(self, monkeypatch):
        from predin import signals

        cut = []
        original = signals.segment_windows

        def counting(rec, *args):
            cut.append((rec.gesture_label, rec.trial_id))
            return original(rec, *args)

        monkeypatch.setattr(signals, "segment_windows", counting)
        split = LabelSplit(known_classes=(1, 2))
        split_trials(self._recordings(), *self.W, {1, 2}, {3}, split)
        # class 3 in train trials and every trial-4 recording are never cut
        assert sorted(cut) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 3)]

    def test_mixed_window_lengths_rejected(self):
        # 4 ms is 4 samples at 1000 Hz but 8 at 2000 Hz: one side cannot hold both
        recs = [SignalRecording(np.zeros((1, 16)), rate, 1, 1, 1) for rate in (1000.0, 2000.0)]
        with pytest.raises(ValueError, match="different lengths"):
            split_trials(recs, *self.W, {1}, set(), ALL_KNOWN)

    def test_no_recordings_rejected(self):
        with pytest.raises(ValueError, match="no recordings"):
            split_trials([], *self.W, {1}, {2}, ALL_KNOWN)

    def test_mixed_channel_counts_rejected(self):
        # a one-channel recording would broadcast into a wider side unnoticed
        recs = [SignalRecording(np.zeros((c, 16)), 1000.0, 1, 1, 1) for c in (2, 1)]
        with pytest.raises(ValueError, match="different channel counts"):
            split_trials(recs, *self.W, {1}, set(), ALL_KNOWN)


class TestSplitTrialsRelease:
    """split_trials empties the list it is handed while the sides are
    copied, newest recording first; a shallow copy handed in leaves the
    caller's list as it was and builds the same tables."""

    SPLIT = LabelSplit(known_classes=(1, 2))

    def _recordings(self):
        cfg = SyntheticConfig(n_classes=3, channels=2, trials=4, recording_ms=700.0,
                              sampling_rate_hz=500.0, data_seed=4)
        return generate_synthetic(cfg)

    def test_same_tables_as_without_release(self):
        kept = self._recordings()
        released = self._recordings()
        a = split_trials(list(kept), 200.0, 50.0, {1, 3}, {2}, self.SPLIT)
        b = split_trials(released, 200.0, 50.0, {1, 3}, {2}, self.SPLIT)
        assert len(kept) == 12 and released == []
        for x, y in ((a.train_windows, b.train_windows), (a.test_windows, b.test_windows)):
            assert x.signal.tobytes() == y.signal.tobytes()
            assert x.signal.flags.c_contiguous and y.signal.flags.c_contiguous
            for f in ("starts", "labels"):
                assert getattr(x, f).tobytes() == getattr(y, f).tobytes()
                assert getattr(x, f).dtype == getattr(y, f).dtype

    def test_each_recording_freed_once_copied_newest_first(self, monkeypatch):
        from predin import signals

        recs = self._recordings()
        refs = [weakref.ref(r.samples) for r in recs]
        index = {id(r): i for i, r in enumerate(recs)}
        cut = []  # (index of the recording cut, recordings still alive)
        original = signals.segment_windows

        def watching(rec, *args):
            cut.append((index[id(rec)], sum(ref() is not None for ref in refs)))
            return original(rec, *args)

        monkeypatch.setattr(signals, "segment_windows", watching)
        # trial 4 is routed nowhere and class 3 of trials 1 and 3 stays out of train
        split_trials(recs, 200.0, 50.0, {1, 3}, {2}, self.SPLIT)
        routed = [i for i in range(12) if i % 4 in (0, 2) and i < 8 or i % 4 == 1]
        assert [i for i, _ in cut] == sorted(routed, reverse=True)
        # when recording i is cut, every later one is already gone
        assert all(alive == i + 1 for i, alive in cut)
        assert all(ref() is None for ref in refs)

    def test_rejected_split_releases_nothing(self):
        recs = [SignalRecording(np.zeros((1, 16)), rate, 1, 1, 1) for rate in (1000.0, 2000.0)]
        with pytest.raises(ValueError, match="different lengths"):
            split_trials(recs, 4.0, 4.0, {1}, set(), ALL_KNOWN)
        assert len(recs) == 2


class TestSynthetic:
    def test_recording_count_and_determinism(self):
        cfg = SyntheticConfig(n_classes=10, channels=4, trials=3, recording_ms=300.0, data_seed=7)
        recs_a = generate_synthetic(cfg)
        recs_b = generate_synthetic(cfg)
        assert len(recs_a) == 30
        assert {r.gesture_label for r in recs_a} == set(range(1, 11))
        for a, b in zip(recs_a, recs_b):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_distinct_seed_changes_data(self):
        a = generate_synthetic(SyntheticConfig(recording_ms=300.0, data_seed=1))
        b = generate_synthetic(SyntheticConfig(recording_ms=300.0, data_seed=2))
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(n_classes=2))

    def test_zero_separation_collapses_signatures(self):
        cfg = SyntheticConfig(separation=0.0, recording_ms=300.0, data_seed=5)
        recs = generate_synthetic(cfg)
        # with no signature, per-class means are indistinguishable from noise
        means = np.array([r.samples.mean(axis=1) for r in recs])
        assert np.abs(means).max() < 0.5

    def test_every_class_has_every_trial(self):
        cfg = SyntheticConfig(n_classes=4, trials=3, recording_ms=300.0, data_seed=0)
        recs = generate_synthetic(cfg)
        seen = {(r.gesture_label, r.trial_id) for r in recs}
        assert seen == {(c, t) for c in range(1, 5) for t in range(1, 4)}

    @pytest.mark.parametrize(
        "overrides",
        [{"recording_ms": 20.0}, {"recording_ms": 25.0}, {"recording_ms": 0.1},
         {"recording_ms": 0.1, "smooth_samples": 0}, {"recording_ms": 0.2, "smooth_samples": 1},
         {"sampling_rate_hz": 10.0, "smooth_samples": 13}],
        ids=["40_of_51", "50_of_51", "0_of_51", "0_of_0", "0_of_1", "12_of_13"],
    )
    def test_recording_shorter_than_its_kernel_rejected_naming_the_keys(self, overrides):
        # smoothing needs smooth_samples samples, and a recording at least one
        with pytest.raises(ValueError) as info:
            SyntheticConfig(**overrides)
        for key in ("recording_ms", "sampling_rate_hz", "smooth_samples"):
            assert key in str(info.value)


class TestSyntheticPipeline:
    """generate_synthetic makes each recording on two threads and must give
    the bytes of the serial generator kept in oracles, with no thread left."""

    @pytest.mark.parametrize("seed", [1, 2024])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"recording_ms": 3000.0}, {"channels": 1}, {"smooth_samples": 0},
         {"smooth_samples": 1}, {"smooth_samples": 51, "channels": 3}, {"trials": 1},
         {"n_classes": 3}, {"separation": 2, "osc_scale": 3, "noise_scale": 1},
         {"channels": 2}, {"channels": 5}, {"smooth_samples": 2},
         {"recording_ms": 25.5}],
        ids=["default", "eval_large_3s", "channels1", "smooth0", "smooth1", "smooth51",
             "trials1", "classes3", "int_scales", "channels2", "channels5", "smooth2",
             "kernel_long"],
    )
    def test_bytes_equal_serial_generator(self, overrides, seed):
        cfg = SyntheticConfig(**overrides, data_seed=seed)
        got = generate_synthetic(cfg)
        want = oracles.generate_synthetic_serial(cfg)
        assert len(got) == len(want) == cfg.n_classes * cfg.trials
        for a, b in zip(got, want):
            assert a.samples.shape == b.samples.shape and a.samples.dtype == b.samples.dtype
            assert a.samples.tobytes() == b.samples.tobytes()
            assert (a.gesture_label, a.trial_id, a.subject_id, a.sampling_rate) == (
                b.gesture_label, b.trial_id, b.subject_id, b.sampling_rate)

    def _run(self, generate, cfg):
        """(exception type and text or None, warning texts) of one call."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                generate(cfg)
                error = None
            except Exception as e:
                error = (type(e), str(e))
        return error, [str(w.message) for w in caught]

    def test_overflow_rejected_as_before_and_no_thread_left(self):
        cfg = SyntheticConfig(separation=1e308, recording_ms=300.0, data_seed=0)
        before = threading.active_count()
        got = self._run(generate_synthetic, cfg)
        assert threading.active_count() == before
        assert got[0] == (ValueError, "recording contains non-finite samples")
        assert got == self._run(oracles.generate_synthetic_serial, cfg)
        generate_synthetic(SyntheticConfig(recording_ms=300.0, data_seed=0))
        assert threading.active_count() == before

    class HelperInterrupt(BaseException):
        """Not an Exception, as KeyboardInterrupt and SystemExit are not."""

    @pytest.mark.parametrize("error", [RuntimeError, HelperInterrupt],
                             ids=["Exception", "BaseException"])
    def test_helper_error_partway_reaches_the_caller(self, monkeypatch, error):
        real, helper_calls, raised = signals._oscillate, [], []

        def failing_on_the_third_recording(*args):
            if threading.current_thread() is not caller:
                helper_calls.append(1)
                if len(helper_calls) == 3:
                    raise error("helper failed")
            real(*args)

        def call():
            try:
                generate_synthetic(SyntheticConfig(recording_ms=300.0, data_seed=0))
            except BaseException as e:
                raised.append(e)

        monkeypatch.setattr(signals, "_oscillate", failing_on_the_third_recording)
        # the call runs on a thread of its own, so that a helper which
        # swallowed the error, leaving the caller waiting, fails the test
        caller = threading.Thread(target=call, daemon=True)
        before = threading.active_count()
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [(type(e), str(e)) for e in raised] == [(error, "helper failed")]
        assert len(helper_calls) == 3  # the helper took no job after the failing one
        assert threading.active_count() == before

    def test_peak_memory_at_the_eval_large_shape(self):
        # the recordings, plus two recordings' noise and a smoothed row: the
        # pipeline peaks 2.51 recording sizes above the recordings, the
        # former layout (the calling thread drew, smoothed into a fresh
        # array and scaled into another) 4.26
        cfg = SyntheticConfig(recording_ms=30000.0, data_seed=7)
        tracemalloc.start()
        try:
            recordings = generate_synthetic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = recordings[0].samples.nbytes
        assert len(recordings) == 30 and one == 4 * 60_000 * 8
        assert peak <= 30 * one + 3 * one

    def test_helper_runs_in_the_callers_error_state(self):
        # seed 1 overflows first where the helper adds the offsets, not in
        # the offsets the main thread draws; the caller's errstate must
        # hold there too
        cfg = SyntheticConfig(n_classes=3, channels=1, trials=1, recording_ms=300.0,
                              separation=1e308, osc_scale=1.0, data_seed=1)
        before = threading.active_count()
        for generate in (oracles.generate_synthetic_serial, generate_synthetic):
            with np.errstate(over="raise"), pytest.raises(
                FloatingPointError, match="overflow encountered in add"
            ):
                generate(cfg)
        assert threading.active_count() == before


class TestLoadCsv:
    def _write(self, tmp_path, data_rows, meta_rows):
        data = tmp_path / "signal.csv"
        meta = tmp_path / "meta.csv"
        data.write_text("\n".join(data_rows) + ("\n" if data_rows else ""))
        meta.write_text(
            "start_row,end_row,label,trial,subject,sampling_rate_hz\n"
            + "\n".join(meta_rows)
            + ("\n" if meta_rows else "")
        )
        return data, meta

    def test_roundtrip(self, tmp_path):
        data, meta = self._write(
            tmp_path,
            ["1.0,2.0", "3.0,4.0", "5.0,6.0", "7.0,8.0"],
            ["0,2,5,1,9,1000", "2,4,6,2,9,1000"],
        )
        recs = load_csv(data, meta)
        assert len(recs) == 2
        np.testing.assert_array_equal(recs[0].samples, [[1.0, 3.0], [2.0, 4.0]])
        assert recs[0].gesture_label == 5
        assert recs[1].trial_id == 2
        assert recs[0].sampling_rate == 1000.0

    def test_metadata_enumeration_drives_count(self, tmp_path):
        # 8-column data, 27 gestures x 3 trials
        rows = [",".join(["0.5"] * 8) for _ in range(81 * 2)]
        meta = [f"{2*i},{2*i+2},{i % 27 + 1},{i // 27 + 1},1,2000" for i in range(81)]
        data_path, meta_path = self._write(tmp_path, rows, meta)
        assert len(load_csv(data_path, meta_path)) == 81

    def test_empty_file(self, tmp_path):
        data, meta = self._write(tmp_path, [], [])
        assert load_csv(data, meta) == []

    def test_short_row_named(self, tmp_path):
        data, meta = self._write(tmp_path, ["1,2,3", "4,5"], ["0,2,1,1,1,100"])
        with pytest.raises(ParseError, match="row 2"):
            load_csv(data, meta)

    def test_non_numeric_cell_position(self, tmp_path):
        data, meta = self._write(tmp_path, ["1,2", "3,oops"], ["0,2,1,1,1,100"])
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_csv(data, meta)

    def test_range_outside_data(self, tmp_path):
        data, meta = self._write(tmp_path, ["1,2", "3,4"], ["0,5,1,1,1,100"])
        with pytest.raises(ParseError, match=r"\[0, 5\)"):
            load_csv(data, meta)

    def test_missing_metadata_column(self, tmp_path):
        data = tmp_path / "signal.csv"
        meta = tmp_path / "meta.csv"
        data.write_text("1,2\n3,4\n")
        meta.write_text("start_row,end_row\n0,2\n")
        with pytest.raises(ParseError, match="missing column"):
            load_csv(data, meta)

    @pytest.mark.parametrize(
        "header, row, message",
        [("start_row,end_row,label,trial,subject,sampling_rate_hz", "x,2,1,1,1,100",
          "non-integer start_row='x'"),
         ("start_row,end_row,label,trial,subject,sampling_rate_hz", "0,2,1,1,1,x",
          "non-numeric sampling_rate_hz='x'"),
         ("start_row,end_row,label,trial,subject", "0,2,1,1,1",
          "missing column 'sampling_rate_hz'")],
    )
    def test_unparsed_metadata_cell_message(self, tmp_path, header, row, message):
        # the integer columns and the rate share one field parser and its messages
        data = tmp_path / "signal.csv"
        meta = tmp_path / "meta.csv"
        data.write_text("1,2\n3,4\n")
        meta.write_text(f"{header}\n{row}\n")
        with pytest.raises(ParseError, match=re.escape(f"{meta}: metadata line 2: {message}")):
            load_csv(data, meta)

    @pytest.mark.parametrize("rate", ["inf", "nan", "0", "-100"])
    def test_bad_sampling_rate_names_line(self, tmp_path, rate):
        data, meta = self._write(tmp_path, ["1,2", "3,4"], ["0,1,1,1,1,100", f"1,2,1,2,1,{rate}"])
        with pytest.raises(
            ParseError, match=r"meta\.csv: metadata line 3: sampling_rate must be a finite number > 0"
        ):
            load_csv(data, meta)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_sample_names_line(self, tmp_path, cell):
        data, meta = self._write(tmp_path, ["1,2", f"3,{cell}"], ["0,1,1,1,1,100", "1,2,1,2,1,100"])
        with pytest.raises(
            ParseError, match=r"meta\.csv: metadata line 3: recording contains non-finite samples"
        ):
            load_csv(data, meta)

    def test_blank_row_before_data_named(self, tmp_path):
        # skipped, the blank row would shift the rows after it: range [0, 4)
        # would take the samples 1, 3, 5 and 7
        data, meta = self._write(tmp_path, ["1,2", "3,4", "", "5,6", "7,8"], ["0,4,1,1,1,100"])
        with pytest.raises(ParseError, match=re.escape(f"{data}: row 3: blank row before")):
            load_csv(data, meta)

    def test_blank_rows_after_the_data_allowed(self, tmp_path):
        data, meta = self._write(tmp_path, ["1,2", "3,4", "", ""], ["0,2,1,1,1,100"])
        assert load_csv(data, meta)[0].samples.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_checked_in_fixture(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"
        recs = load_csv(root / "signal.csv", root / "metadata.csv")
        assert len(recs) == 2
        assert recs[0].samples.shape == (2, 4)
        assert [r.trial_id for r in recs] == [1, 2]
        assert all(r.gesture_label == 5 for r in recs)


class TestPipelineInvariants:
    def test_split_pipeline_is_pure(self):
        cfg = SyntheticConfig(n_classes=5, channels=2, trials=3, recording_ms=400.0,
                              sampling_rate_hz=500.0, data_seed=3)
        recs = generate_synthetic(cfg)
        samples = [r.samples.copy() for r in recs]

        def build():
            split = split_known_unknown(range(1, cfg.n_classes + 1), 3, seed=9)
            return standardize(split_trials(list(recs), 200.0, 50.0, {1, 2}, {3}, split))

        a, b = build(), build()
        assert a.label_split == b.label_split
        for side in ("train_windows", "test_windows"):
            np.testing.assert_array_equal(cube(getattr(a, side)), cube(getattr(b, side)))
        # the in-place scaling never reaches the recordings
        for r, before in zip(recs, samples):
            np.testing.assert_array_equal(r.samples, before)

    def test_unknown_classes_present_in_test(self):
        cfg = SyntheticConfig(n_classes=6, channels=2, trials=3, recording_ms=400.0,
                              sampling_rate_hz=500.0, data_seed=3)
        recs = generate_synthetic(cfg)
        split = split_known_unknown(range(1, cfg.n_classes + 1), 3, seed=4)
        per_recording = len(segment_windows(recs[0], 200.0, 50.0))
        part = split_trials(recs, 200.0, 50.0, {1, 2}, {3}, split)
        # labels arrive remapped: every unknown class's trial-3 windows carry
        # UNKNOWN_LABEL in test, and train holds only the known 1..N
        unknown = part.test_windows.labels == UNKNOWN_LABEL
        assert unknown.sum() == (cfg.n_classes - split.n_known) * per_recording
        assert set(part.train_windows.labels.tolist()) == set(range(1, split.n_known + 1))
