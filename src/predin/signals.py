"""Windowing, standardization, and split logic for multichannel recordings.

Recordings enter either from CSV files (one row per timestep) or from the
synthetic generator, get cut into fixed-length windows, and are routed into
train/test partitions by trial id with a seeded known/unknown class split.

CSV formats (fixtures in docs/fixtures/):
  signal CSV    one row per timestep, C comma-separated decimal values
  metadata CSV  header start_row,end_row,label,trial,subject,sampling_rate_hz;
                row ranges are 0-based and end-exclusive into the signal file
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Label carried by test windows whose class was not selected as known.
UNKNOWN_LABEL = -1

# Channels with a training std below this are scaled by the floor instead.
STD_FLOOR = 1e-8


class ParseError(ValueError):
    """Malformed CSV input; the message names the offending location."""


@dataclass
class SignalRecording:
    """One continuous multichannel recording of a single labeled trial."""

    samples: np.ndarray  # (channels, timesteps)
    sampling_rate: float
    gesture_label: int
    trial_id: int
    subject_id: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or min(self.samples.shape) < 1:
            raise ValueError(
                f"samples must be a (channels, timesteps) matrix, got shape "
                f"{self.samples.shape}"
            )
        if not (is_finite(self.sampling_rate) and self.sampling_rate > 0):
            raise ValueError(
                f"sampling_rate must be a finite number > 0, got {self.sampling_rate!r}"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("recording contains non-finite samples")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.samples.shape[1]


@dataclass
class WindowTable:
    """M fixed-length windows cut from one (C, L) signal, with one label,
    trial and subject id each.

    Window i is ``signal[:, starts[i] : starts[i] + window_len]``; windows
    overlap in the signal instead of being stored apart. ``rows`` gathers
    the encoder inputs of selected windows into one contiguous block.
    """

    signal: np.ndarray  # (channels, L)
    window_len: int
    starts: np.ndarray  # (M,) first sample of each window
    labels: np.ndarray  # (M,) original class ids
    trials: np.ndarray  # (M,)
    subjects: np.ndarray  # (M,)

    def __post_init__(self):
        if self.signal.ndim != 2:
            raise ValueError(f"signal must be a (C, L) array, got shape {self.signal.shape}")
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if not len(self.labels) == len(self.trials) == len(self.subjects) == len(self.starts):
            raise ValueError("window metadata vectors must have one entry per window")
        if len(self.starts) and not (
            self.starts.min() >= 0 and self.starts.max() + self.window_len <= self.signal.shape[1]
        ):
            raise ValueError("window starts must lie inside the signal")

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def input_dim(self) -> int:
        """Length C*T of one flattened window."""
        return self.signal.shape[0] * self.window_len

    def rows(self, sel=slice(None)) -> np.ndarray:
        """(n, C*T) encoder inputs of the windows ``starts[sel]`` selects
        (an index vector or a slice), gathered into one fresh C-contiguous
        block."""
        starts = self.starts[sel]
        if not len(starts):
            return np.empty((0, self.input_dim), dtype=self.signal.dtype)
        view = sliding_window_view(self.signal, self.window_len, axis=1)
        return view.transpose(1, 0, 2)[starts].reshape(len(starts), self.input_dim)


@dataclass(frozen=True)
class LabelSplit:
    """Seeded partition of class ids into known and unknown sets.

    Known classes are remapped to contiguous ids 1..N in the order of
    ``known_classes``; everything else maps to UNKNOWN_LABEL.
    """

    known_classes: tuple[int, ...]
    unknown_classes: frozenset[int]
    seed: int

    def __post_init__(self):
        if len(self.known_classes) < 2:
            raise ValueError("need at least 2 known classes")
        if set(self.known_classes) & self.unknown_classes:
            raise ValueError("known and unknown classes overlap")

    @property
    def n_known(self) -> int:
        return len(self.known_classes)

    def remap(self, original_labels):
        """Original class id (int) or ids (array) -> contiguous 1..N, or UNKNOWN_LABEL."""
        hits = np.asarray(original_labels)[..., None] == np.asarray(self.known_classes)
        out = np.where(hits.any(axis=-1), hits.argmax(axis=-1) + 1, UNKNOWN_LABEL)
        return int(out) if out.ndim == 0 else out


@dataclass
class StandardizationStats:
    """Per-channel training mean/std; floored channels are recorded."""

    mean: np.ndarray  # (channels,)
    std: np.ndarray  # (channels,), floored at STD_FLOOR
    floored_channels: tuple[int, ...] = ()


@dataclass
class DatasetPartition:
    """Train/test windows split by trial, plus the label split that filtered
    the train side. Windows keep their original class labels; remapping to
    1..N happens when batches are assembled."""

    train_windows: WindowTable | None  # None once trained on (harness.run_seed)
    test_windows: WindowTable
    label_split: LabelSplit | None = None
    stats: StandardizationStats | None = None


def window_geometry(sampling_rate: float, window_ms: float, step_ms: float) -> tuple[int, int]:
    """Window length and stride in samples for the given timing.

    200 ms / 50 ms at 2000 Hz gives (400, 100).
    """
    if step_ms <= 0:
        raise ValueError(f"step_ms must be positive, got {step_ms}")
    window_len = int(round(window_ms * sampling_rate / 1000.0))
    stride = int(round(step_ms * sampling_rate / 1000.0))
    if window_len < 1:
        raise ValueError(f"window_ms={window_ms} is shorter than one sample at {sampling_rate} Hz")
    if stride < 1:
        raise ValueError(f"step_ms={step_ms} is shorter than one sample at {sampling_rate} Hz")
    return window_len, stride


def segment_windows(recording: SignalRecording, window_ms: float, step_ms: float) -> WindowTable:
    """Slide a fixed window over the recording; trailing partials are dropped.

    Yields floor((timesteps - window_len) / stride) + 1 windows, or none
    when the recording is shorter than one window. The table's signal is a
    read-only view of the recording's samples.
    """
    window_len, stride = window_geometry(recording.sampling_rate, window_ms, step_ms)
    m = max(0, (recording.n_timesteps - window_len) // stride + 1)
    signal = recording.samples.view()
    signal.flags.writeable = False
    return WindowTable(
        signal=signal,
        window_len=window_len,
        starts=np.arange(m, dtype=np.int64) * stride,
        labels=np.full(m, recording.gesture_label, dtype=np.int64),
        trials=np.full(m, recording.trial_id, dtype=np.int64),
        subjects=np.full(m, recording.subject_id, dtype=np.int64),
    )


def split_known_unknown(all_classes, n_known: int, seed: int) -> LabelSplit:
    """Seeded draw of n_known known classes; the rest become unknown."""
    classes = sorted(set(all_classes))
    if n_known >= len(classes):
        raise ValueError(
            f"n_known={n_known} must be smaller than the number of classes "
            f"({len(classes)})"
        )
    if n_known < 2:
        raise ValueError("need at least 2 known classes")
    rng = np.random.default_rng(seed)
    picked = rng.permutation(len(classes))[:n_known]
    known = tuple(sorted(classes[i] for i in picked))
    unknown = frozenset(classes) - set(known)
    return LabelSplit(known_classes=known, unknown_classes=unknown, seed=seed)


def split_trials(
    recordings,
    window_ms: float,
    step_ms: float,
    train_trials,
    test_trials,
    label_split: LabelSplit | None = None,
) -> DatasetPartition:
    """Route recordings into train/test by trial id, then window each side.

    Every recording carries one trial and one label, so routing whole
    recordings routes their windows exactly; only routed recordings are
    windowed. Each side's table holds one fresh copy of its routed
    recordings, concatenated in time, and the start of every window in it.
    Recordings whose trial id is in neither set are dropped. When a label
    split is given, unknown-class recordings are kept out of the train side
    (they stay in test).
    """
    train_trials = set(train_trials)
    test_trials = set(test_trials)
    if train_trials & test_trials:
        raise ValueError(f"train and test trials overlap: {sorted(train_trials & test_trials)}")
    if not recordings:
        raise ValueError("no recordings to split")
    known = None if label_split is None else set(label_split.known_classes)

    def side(routed) -> WindowTable:
        if not routed:
            first = recordings[0]
            window_len, _ = window_geometry(first.sampling_rate, window_ms, step_ms)
            return WindowTable(np.empty((first.n_channels, 0)), window_len,
                               *(np.empty(0, dtype=np.int64) for _ in range(4)))
        tables = [segment_windows(r, window_ms, step_ms) for r in routed]
        if len({t.window_len for t in tables}) > 1:
            raise ValueError("routed recordings give windows of different lengths")
        # one fresh copy of the routed recordings, end to end; each window's
        # start moves by the samples of the recordings before it
        signal = np.concatenate([t.signal for t in tables], axis=1)
        offsets = np.cumsum([0] + [t.signal.shape[1] for t in tables[:-1]])
        starts = np.concatenate([t.starts + o for t, o in zip(tables, offsets)])
        fields = ("labels", "trials", "subjects")
        return WindowTable(signal, tables[0].window_len, starts,
                           *(np.concatenate([getattr(t, f) for t in tables]) for f in fields))

    return DatasetPartition(
        train_windows=side([
            r for r in recordings
            if r.trial_id in train_trials and (known is None or r.gesture_label in known)
        ]),
        test_windows=side([r for r in recordings if r.trial_id in test_trials]),
        label_split=label_split,
    )


def standardize(partition: DatasetPartition) -> DatasetPartition:
    """Channel-wise standardization with statistics from the train windows only.

    The same per-channel mean/std is applied to train and test, so nothing
    about the test distribution leaks into the transform. Channels whose
    training std falls below STD_FLOOR are scaled by the floor and a
    warning is emitted. Each side's signal is scaled in place, which scales
    every window cut from it, and the partition is returned with its
    ``stats`` set; a partition that already carries stats, or whose signals
    are read-only views of recordings, is rejected before anything is
    written.
    """
    if partition.stats is not None:
        raise ValueError("partition is already standardized")
    train = partition.train_windows
    if not len(train):
        raise ValueError("cannot standardize: training partition is empty")
    for name in ("train_windows", "test_windows"):
        if not getattr(partition, name).signal.flags.writeable:
            raise ValueError(
                f"cannot standardize in place: {name} is read-only "
                "(window the recordings with split_trials)"
            )
    # reduce each channel as one (M*T,) row of its windows in table order:
    # the summation order the statistics are defined by, so they stay
    # bit-stable; a sample in several windows counts once per window
    n_channels = train.signal.shape[0]
    view = sliding_window_view(train.signal, train.window_len, axis=1)
    mean = np.empty(n_channels)
    std = np.empty(n_channels)
    for c in range(n_channels):
        row = view[c][train.starts].reshape(-1)  # the gather is a copy, never a view
        mean[c] = row.mean()
        row -= mean[c]  # np.std's own steps, done in the one copy
        row *= row
        std[c] = np.sqrt(row.mean())
        del row  # freed before the next channel is gathered
    floored = np.nonzero(std < STD_FLOOR)[0]
    if floored.size:
        warnings.warn(
            f"channels {floored.tolist()} are (near-)constant in training data; "
            f"std floored at {STD_FLOOR}",
            stacklevel=2,
        )
        std = np.where(std < STD_FLOOR, STD_FLOOR, std)
    for w in (train, partition.test_windows):
        w.signal -= mean[:, None]
        w.signal /= std[:, None]
    partition.stats = StandardizationStats(mean, std, floored_channels=tuple(floored.tolist()))
    return partition


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for the synthetic multichannel dataset.

    Class signatures are per-channel offset patterns assembled from two
    small pools, one per channel group: every class is a distinct
    (pattern, pattern) pair, so classes share each half-signature with
    other classes and are only identified by the combination. A held-out
    class therefore resembles one class on the first channel group and a
    different class on the second, which is exactly the kind of ambiguity
    open-set rejection has to handle. On top of the offsets sit a
    class-independent per-channel oscillation (random phase per trial) and
    band-limited noise. Signature scales are proportional to
    ``separation``; separation=0 collapses every class into pure noise.
    """

    n_classes: int = 10
    channels: int = 4
    trials: int = 3
    recording_ms: float = 1200.0
    sampling_rate_hz: float = 2000.0
    separation: float = 1.0
    osc_scale: float = 0.5
    noise_scale: float = 0.5
    smooth_samples: int = 51

    def __post_init__(self):
        if not is_int(self.n_classes) or self.n_classes < 3:
            raise ValueError(
                f"n_classes: need at least 3 classes (known plus unknown), got {self.n_classes!r}"
            )
        for name, low in (("channels", 1), ("trials", 1), ("smooth_samples", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("recording_ms", "sampling_rate_hz"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        for name in ("separation", "osc_scale", "noise_scale"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")


def is_int(value) -> bool:
    """An integer of any width, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _smooth_rows(noise: np.ndarray, width: int) -> np.ndarray:
    """Moving-average each row, rescaled to keep unit per-sample variance."""
    if width <= 1:
        return noise
    kernel = np.ones(width) / width
    out = np.empty_like(noise)
    for i in range(noise.shape[0]):
        out[i] = np.convolve(noise[i], kernel, mode="same")
    return out * math.sqrt(width)


def _class_offsets(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-class channel offsets: distinct pattern pairs from two pools."""
    c_half = config.channels // 2
    if c_half == 0:
        # single channel: plain per-class offsets, no pair structure
        return config.separation * rng.standard_normal((config.n_classes, config.channels))
    pool = max(2, math.ceil(math.sqrt(config.n_classes)))
    pool_a = config.separation * rng.standard_normal((pool, c_half))
    pool_b = config.separation * rng.standard_normal((pool, config.channels - c_half))
    pairs = rng.permutation(pool * pool)[: config.n_classes]
    return np.concatenate([pool_a[pairs // pool], pool_b[pairs % pool]], axis=1)


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Build one recording per (class, trial), deterministic per seed.

    Returns (recordings, class_ids) with classes labeled 1..n_classes and
    trials labeled 1..trials.
    """
    rng = np.random.default_rng(seed)
    n = int(round(config.recording_ms * config.sampling_rate_hz / 1000.0))
    offsets = _class_offsets(config, rng)
    freqs = rng.uniform(5.0, 45.0, size=config.channels)
    phases = rng.uniform(0.0, 2 * np.pi, size=config.channels)
    t = np.arange(n) / config.sampling_rate_hz
    recordings: list[SignalRecording] = []
    for c in range(config.n_classes):
        for trial in range(1, config.trials + 1):
            trial_phase = rng.uniform(0.0, 2 * np.pi)
            osc = np.sin(
                2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None] + trial_phase
            )
            noise = _smooth_rows(
                rng.standard_normal((config.channels, n)), config.smooth_samples
            )
            samples = (
                offsets[c][:, None]
                + config.separation * config.osc_scale * osc
                + config.noise_scale * noise
            )
            recordings.append(
                SignalRecording(
                    samples=samples,
                    sampling_rate=config.sampling_rate_hz,
                    gesture_label=c + 1,
                    trial_id=trial,
                    subject_id=1,
                )
            )
    return recordings, set(range(1, config.n_classes + 1))


def _parse_int(row: dict, key: str, lineno: int, path) -> int:
    try:
        return int(row[key])
    except (KeyError, TypeError):
        raise ParseError(f"{path}: metadata line {lineno}: missing column {key!r}") from None
    except ValueError:
        raise ParseError(
            f"{path}: metadata line {lineno}: non-integer {key}={row[key]!r}"
        ) from None


def load_csv(data_path, meta_path) -> list[SignalRecording]:
    """Read recordings from a signal CSV plus a metadata CSV.

    The metadata file assigns each 0-based, end-exclusive row range of the
    signal file to one recording. Malformed rows raise ParseError naming the
    file, line, and column; a recording SignalRecording rejects (a
    non-finite sample or sampling rate) names its metadata line.
    """
    rows: list[list[float]] = []
    n_channels: int | None = None
    with open(data_path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            if n_channels is None:
                n_channels = len(row)
            if len(row) != n_channels:
                raise ParseError(
                    f"{data_path}: row {lineno}: expected {n_channels} values, "
                    f"got {len(row)}"
                )
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{data_path}: row {lineno}, column {col}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        return []
    data = np.asarray(rows, dtype=np.float64)

    recordings: list[SignalRecording] = []
    with open(meta_path, newline="") as f:
        reader = csv.DictReader(f)
        for lineno, row in enumerate(reader, start=2):  # line 1 is the header
            start = _parse_int(row, "start_row", lineno, meta_path)
            end = _parse_int(row, "end_row", lineno, meta_path)
            if not (0 <= start < end <= len(data)):
                raise ParseError(
                    f"{meta_path}: metadata line {lineno}: range [{start}, {end}) "
                    f"outside the {len(data)} data rows"
                )
            try:
                rate = float(row["sampling_rate_hz"])
            except (KeyError, TypeError):
                raise ParseError(
                    f"{meta_path}: metadata line {lineno}: missing column 'sampling_rate_hz'"
                ) from None
            except ValueError:
                raise ParseError(
                    f"{meta_path}: metadata line {lineno}: non-numeric "
                    f"sampling_rate_hz={row['sampling_rate_hz']!r}"
                ) from None
            label, trial, subject = (
                _parse_int(row, key, lineno, meta_path) for key in ("label", "trial", "subject")
            )
            try:
                recording = SignalRecording(
                    samples=data[start:end].T.copy(), sampling_rate=rate,
                    gesture_label=label, trial_id=trial, subject_id=subject,
                )
            except ValueError as e:  # a non-finite sample or rate
                raise ParseError(f"{meta_path}: metadata line {lineno}: {e}") from None
            recordings.append(recording)
    return recordings
