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

import contextvars
import csv
import math
import numbers
import queue
import threading
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Label carried by test windows whose class was not selected as known.
UNKNOWN_LABEL = -1

# Channels with a training std below this are scaled by the floor instead.
STD_FLOOR = 1e-8


class ParseError(ValueError):
    """Malformed CSV input; the message names the offending location."""


class NonFiniteStatistics(ValueError):
    """Training samples whose channel mean or std overflows; the message
    names the channels."""


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
    """M fixed-length windows cut from one (C, L) signal, with one label each.

    Window i is ``signal[:, starts[i] : starts[i] + window_len]``; windows
    overlap in the signal instead of being stored apart. ``rows`` gathers
    the encoder inputs of selected windows into one contiguous block.
    """

    signal: np.ndarray  # (channels, L)
    window_len: int
    starts: np.ndarray  # (M,) first sample of each window
    labels: np.ndarray  # (M,) class ids: 1..N or UNKNOWN_LABEL once routed by split_trials

    def __post_init__(self):
        if self.signal.ndim != 2:
            raise ValueError(f"signal must be a (C, L) array, got shape {self.signal.shape}")
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if len(self.labels) != len(self.starts):
            raise ValueError("labels must have one entry per window")
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

    def rows(self, sel, out: np.ndarray | None = None) -> np.ndarray:
        """(n, C*T) encoder inputs of the windows ``starts[sel]`` selects
        (an index vector or a slice), copied window by window into ``out``,
        a C-contiguous (n, C*T) array, or into a fresh one; it is returned."""
        starts = self.starts[sel]
        if out is None:
            out = np.empty((len(starts), self.input_dim), dtype=self.signal.dtype)
        elif out.shape != (len(starts), self.input_dim) or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous {(len(starts), self.input_dim)} array, "
                f"got shape {out.shape}"
            )
        # window by window: np.take(view, starts, out=out) would first copy
        # the whole overlapping window view into a temporary
        blocks = out.reshape(len(starts), self.signal.shape[0], self.window_len)
        for j, start in enumerate(starts.tolist()):
            blocks[j] = self.signal[:, start : start + self.window_len]
        return out


@dataclass(frozen=True)
class LabelSplit:
    """The known class ids of a known/unknown split.

    Known classes are remapped to contiguous ids 1..N in the order of
    ``known_classes``; every other class is unknown and maps to UNKNOWN_LABEL.
    """

    known_classes: tuple[int, ...]

    def __post_init__(self):
        if len(self.known_classes) < 2:
            raise ValueError("need at least 2 known classes")

    @property
    def n_known(self) -> int:
        return len(self.known_classes)

    def remap(self, original_labels: np.ndarray) -> np.ndarray:
        """(M,) original class ids -> contiguous 1..N, or UNKNOWN_LABEL."""
        hits = original_labels[:, None] == np.asarray(self.known_classes)
        return np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, UNKNOWN_LABEL)


@dataclass
class DatasetPartition:
    """Train/test windows split by trial, plus the label split that filtered
    the train side and remapped every window's label."""

    train_windows: WindowTable | None  # None once trained on (harness.run_seed)
    test_windows: WindowTable
    label_split: LabelSplit
    standardized: bool = False  # set by standardize, once both sides are scaled


def _samples_in(key: str, ms: float, sampling_rate: float) -> int:
    """The whole number of samples nearest to ``ms`` milliseconds at the
    rate; ValueError naming ``key`` and the rate when a huge but finite
    setting gives no finite count."""
    n = ms * sampling_rate / 1000.0
    if not math.isfinite(n):
        raise ValueError(
            f"{key}={ms!r} at sampling_rate_hz={sampling_rate!r} is no finite number of samples"
        )
    return int(round(n))


def window_geometry(sampling_rate: float, window_ms: float, step_ms: float) -> tuple[int, int]:
    """Window length and stride in samples for the given timing.

    200 ms / 50 ms at 2000 Hz gives (400, 100).
    """
    if step_ms <= 0:
        raise ValueError(f"step_ms must be positive, got {step_ms}")
    window_len = _samples_in("window_ms", window_ms, sampling_rate)
    stride = _samples_in("step_ms", step_ms, sampling_rate)
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
    )


def split_known_unknown(all_classes, n_known: int, seed: int) -> LabelSplit:
    """Seeded draw of n_known known classes; the rest become unknown."""
    classes = sorted(set(all_classes))
    if n_known >= len(classes):
        raise ValueError(
            f"n_known={n_known} must be smaller than the number of classes "
            f"({len(classes)})"
        )
    rng = np.random.default_rng(seed)
    # a negative count picks none, so LabelSplit rejects it like any count below 2
    picked = rng.permutation(len(classes))[: max(n_known, 0)]
    return LabelSplit(known_classes=tuple(sorted(classes[i] for i in picked)))


def split_trials(
    recordings,
    window_ms: float,
    step_ms: float,
    train_trials,
    test_trials,
    label_split: LabelSplit,
) -> DatasetPartition:
    """Route recordings into train/test by trial id, then window each side.

    Every recording carries one trial and one label, so routing whole
    recordings routes their windows exactly; only routed recordings are
    windowed. Each side's table holds one fresh copy of its routed
    recordings, concatenated in time, and the start of every window in it.
    Recordings whose trial id is in neither set are dropped, and so are
    unknown-class recordings of a train trial (those of a test trial stay
    in test). Every window's label is remapped through the label split:
    1..N on the train side, 1..N or UNKNOWN_LABEL on the test side.

    The sides are filled from the last recording back, and the list
    ``recordings`` is emptied in place as they are copied (a caller that
    reads it later hands in a copy): each recording is popped once its
    samples are in its side (an unrouted one at once), so it is freed then
    unless held elsewhere. Newest first, each freed recording lies at the
    top of the heap, the only place the allocator hands memory back from.
    """
    train_trials = set(train_trials)
    test_trials = set(test_trials)
    if train_trials & test_trials:
        raise ValueError(f"train and test trials overlap: {sorted(train_trials & test_trials)}")
    if not recordings:
        raise ValueError("no recordings to split")
    known = set(label_split.known_classes)
    # the side each recording goes to: 0 train, 1 test, None neither
    route = [
        0 if r.trial_id in train_trials and r.gesture_label in known
        else 1 if r.trial_id in test_trials else None
        for r in recordings
    ]
    # every check comes before the first pop, so a rejected split pops nothing
    shapes = []  # per side: (channels, window length, samples)
    for side in (0, 1):
        routed = [r for r, s in zip(recordings, route) if s == side]
        probe = routed or recordings[:1]  # an empty side takes the first recording's shape
        lengths = {window_geometry(r.sampling_rate, window_ms, step_ms)[0] for r in probe}
        if len(lengths) > 1:
            raise ValueError("routed recordings give windows of different lengths")
        channels = {r.n_channels for r in probe}
        if len(channels) > 1:
            raise ValueError("routed recordings have different channel counts")
        shapes.append((channels.pop(), lengths.pop(), sum(r.n_timesteps for r in routed)))
    del routed, probe  # a recording they held would outlive its copy
    signals = [np.empty((c, n)) for c, _, n in shapes]
    ends = [n for _, _, n in shapes]  # each side is filled leftwards from here
    pieces = ([], [])  # per side, newest first: (starts, labels)
    for i in reversed(range(len(recordings))):
        rec = recordings.pop()
        side = route[i]
        if side is None:
            continue
        table = segment_windows(rec, window_ms, step_ms)
        ends[side] -= rec.n_timesteps
        start = ends[side]
        pieces[side].append((table.starts + start, table.labels))
        del table  # its signal is a view that would keep rec's samples alive
        signals[side][:, start : start + rec.n_timesteps] = rec.samples
    del rec  # the first recording is freed here

    def build(side) -> WindowTable:
        starts, labels = (
            [np.concatenate(v[::-1]) for v in zip(*pieces[side])] if pieces[side]
            else [np.empty(0, dtype=np.int64) for _ in range(2)]
        )
        return WindowTable(signals[side], shapes[side][1], starts, label_split.remap(labels))

    return DatasetPartition(train_windows=build(0), test_windows=build(1), label_split=label_split)


def standardize(partition: DatasetPartition) -> DatasetPartition:
    """Channel-wise standardization with statistics from the train windows only.

    The same per-channel mean/std is applied to train and test, so nothing
    about the test distribution leaks into the transform. Channels whose
    training std falls below STD_FLOOR are scaled by the floor and a
    warning is emitted. Each side's signal is scaled in place, which scales
    every window cut from it, and the partition is returned marked
    ``standardized``. The statistics are not kept. A partition already
    standardized, or whose signals are read-only views of recordings, is
    rejected before anything is written, and so are training samples whose
    mean or std is not finite (NonFiniteStatistics, naming the channels).
    """
    if partition.standardized:
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
    # a sum or square that overflows gives inf or nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(n_channels):
            row = view[c][train.starts].reshape(-1)  # the gather is a copy, never a view
            mean[c] = row.mean()
            row -= mean[c]  # np.std's own steps, done in the one copy
            row *= row
            std[c] = np.sqrt(row.mean())
            del row  # freed before the next channel is gathered
    overflowed = np.nonzero(~(np.isfinite(mean) & np.isfinite(std)))[0]
    if overflowed.size:
        raise NonFiniteStatistics(
            f"cannot standardize: the training mean or std of channels "
            f"{overflowed.tolist()} is not finite (their samples overflow float64)"
        )
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
    partition.standardized = True
    return partition


def is_int(value) -> bool:
    """An integer of any width, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number, but not a bool; an integer too large for a
    float counts as infinite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_KINDS = {"int": "an integer", "float": "a finite number", "tuple[int, ...]": "a list of integers"}


def ruled(default, admits):
    """A dataclass field that check_fields checks against ``admits``.

    The field's annotation gives its kind. An int, float or tuple[int, ...]
    field (each entry of the tuple) admits the finite numbers of an
    interval such as "[0, 1)" or "(0, inf)", closed at a square bracket and
    open at a round one; a bool is no number, and an integer given for a
    float is kept as given. A str field admits a tuple of strings, or any
    string but "" when admits is "non-empty". A default of MISSING makes
    the field required.
    """
    return field(default=default, metadata={"admits": admits})


def _within(value, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    return above and (value <= high if interval[-1] == "]" else value < high)


def check_fields(obj) -> None:
    """Check every ruled field of the dataclass obj and store its list
    fields as tuples; ValueError "<field> must be <kind> in <interval>,
    got <value>" names the first field that fails."""
    for f in fields(obj):
        if "admits" not in f.metadata:
            continue
        admits, value = f.metadata["admits"], getattr(obj, f.name)
        if f.type == "str":
            choices = isinstance(admits, tuple)
            ok = isinstance(value, str) and (value in admits if choices else value != "")
            want = f"one of {admits}" if choices else "a non-empty string"
        else:
            is_list = f.type == "tuple[int, ...]"
            ok = is_list == isinstance(value, (list, tuple)) and all(
                is_finite(v) and (f.type == "float" or is_int(v)) and _within(v, admits)
                for v in (value if is_list else [value])
            )
            want = f"{_KINDS[f.type]} in {admits}"
        if not ok:
            raise ValueError(f"{f.name} must be {want}, got {value!r}")
        if f.type == "tuple[int, ...]":
            object.__setattr__(obj, f.name, tuple(int(v) for v in value))


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
    It is the config's synthetic ``dataset`` section, so it also carries
    the section's ``type`` and the generator's seed, ``data_seed``.
    """

    type: str = ruled("synthetic", ("synthetic",))
    n_classes: int = ruled(10, "[3, inf)")  # known plus unknown
    channels: int = ruled(4, "[1, inf)")
    trials: int = ruled(3, "[1, inf)")
    recording_ms: float = ruled(1200.0, "(0, inf)")
    sampling_rate_hz: float = ruled(2000.0, "(0, inf)")
    separation: float = ruled(1.0, "(-inf, inf)")
    osc_scale: float = ruled(0.5, "(-inf, inf)")
    noise_scale: float = ruled(0.5, "(-inf, inf)")
    smooth_samples: int = ruled(51, "[0, inf)")
    data_seed: int = ruled(2024, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        n = _samples_in("recording_ms", self.recording_ms, self.sampling_rate_hz)
        if n < max(1, self.smooth_samples):
            raise ValueError(
                f"recording_ms={self.recording_ms!r} at sampling_rate_hz="
                f"{self.sampling_rate_hz!r} is {n} samples, fewer than "
                f"max(1, smooth_samples={self.smooth_samples})"
            )


def _smooth_rows(noise: np.ndarray, width: int) -> None:
    """Moving-average each row of noise in place, rescaled to keep unit
    per-sample variance; a width of 0 or 1 leaves noise as it is."""
    if width <= 1:
        return
    kernel = np.ones(width) / width
    for row in noise:
        row[:] = np.convolve(row, kernel, mode="same")  # a new array: row is read first
    noise *= math.sqrt(width)


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


def _oscillate(out, two_pi_freqs, t, phases, trial_phase) -> None:
    """Write sin(two_pi_freqs * t + phases + trial_phase) into out, one row
    per channel, allocating nothing; each product and sum is the one the
    plain expression evaluates, so the bits are the same."""
    np.multiply(two_pi_freqs[:, None], t[None, :], out=out)
    out += phases[:, None]
    out += trial_phase
    np.sin(out, out=out)


def _draw_worker(jobs, done, rng, two_pi_freqs, t, phases) -> None:
    """The helper thread of generate_synthetic. For each (noise, rows) job
    until None, draw one recording's trial phase and then its noise into
    noise, and write the oscillation of its first len(rows) channels into
    rows; then put the trial phase, or the exception for the calling
    thread to raise, on done. Allocates nothing large."""
    for noise, rows in iter(jobs.get, None):
        try:
            trial_phase = rng.uniform(0.0, 2 * np.pi)
            rng.standard_normal(out=noise)
            _oscillate(rows, two_pi_freqs, t, phases, trial_phase)
        except BaseException as e:  # anything uncaught would leave the main thread waiting
            done.put(e)
        else:
            done.put(trial_phase)


def generate_synthetic(config: SyntheticConfig) -> list[SignalRecording]:
    """Build one recording per (class, trial), deterministic per data_seed.

    Returns the recordings, classes labeled 1..n_classes and trials
    labeled 1..trials.

    The recordings are made in a two-stage pipeline on two threads. Once
    the calling thread has drawn the offsets, frequencies and phases, one
    helper thread makes every later random draw, in the serial order: per
    recording its trial phase, then its noise into an array the calling
    thread allocated. It then writes the oscillation of the recording's
    first C - C // 4 of its C channels. While the helper does so for
    recording r + 1, the calling thread writes the oscillation of
    recording r's other channels, scales it, adds the offsets, smooths the
    noise in place and adds it. The calling thread allocates every large
    array, all the recordings first, in list order. It also takes every
    step that can overflow, in the serial order, so the warnings and errors
    are those of one thread; the helper's steps stay finite for any config
    SyntheticConfig admits. The helper runs in a copy of the caller's
    context (numpy's error state) and is joined before this returns or
    raises.
    """
    rng = np.random.default_rng(config.data_seed)
    n = _samples_in("recording_ms", config.recording_ms, config.sampling_rate_hz)
    offsets = _class_offsets(config, rng)
    freqs = rng.uniform(5.0, 45.0, size=config.channels)
    phases = rng.uniform(0.0, 2 * np.pi, size=config.channels)
    t = np.arange(n) / config.sampling_rate_hz
    two_pi_freqs = 2 * np.pi * freqs
    scale = config.separation * config.osc_scale
    # the helper writes the oscillation of the first `split` channels: three
    # in four, as smoothing a row costs the caller more than drawing it
    # costs the helper (at 4 x 60,000 samples, 2 vCPU: 5.3 ms against 3.8 ms
    # per recording, and 1.2 ms per oscillation row)
    split = config.channels - config.channels // 4
    labels = [(c, trial) for c in range(config.n_classes) for trial in range(1, config.trials + 1)]
    shape = (config.channels, n)
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
    helper = threading.Thread(
        target=contextvars.copy_context().run,
        args=(_draw_worker, jobs, done, rng, two_pi_freqs[:split], t, phases[:split]),
    )
    helper.start()
    recordings: list[SignalRecording] = []
    try:
        # every recording's array first, in list order, then one noise array
        # per recording above them: each new noise array fills the hole of
        # the one freed a step before, and the last two leave the heap top
        # free to trim. Allocated one step ahead instead, next to its noise,
        # a recording could stay resident once freed (eval_large's peak RSS
        # read 140-143 MB instead of 111 MB under some environment sizes)
        arrays = [np.empty(shape) for _ in labels]
        drawn = np.empty(shape)
        jobs.put((drawn, arrays[0][:split]))
        for r, (c, trial) in enumerate(labels):
            samples, noise = arrays[r], drawn
            trial_phase = done.get()
            if isinstance(trial_phase, BaseException):
                raise trial_phase
            if r + 1 < len(labels):  # the helper starts on the next recording
                drawn = np.empty(shape)
                jobs.put((drawn, arrays[r + 1][:split]))
            _oscillate(samples[split:], two_pi_freqs[split:], t, phases[split:], trial_phase)
            samples *= scale
            samples += offsets[c][:, None]
            _smooth_rows(noise, config.smooth_samples)
            noise *= config.noise_scale
            samples += noise
            recordings.append(
                SignalRecording(
                    samples=samples,
                    sampling_rate=config.sampling_rate_hz,
                    gesture_label=c + 1,
                    trial_id=trial,
                    subject_id=1,
                )
            )
    finally:
        jobs.put(None)
        helper.join()
    return recordings


def _parse_field(row: dict, key: str, lineno: int, path, parse=int):
    """parse(row[key]); ParseError naming the file, line and column when the
    column is missing or its cell does not parse."""
    try:
        return parse(row[key])
    except (KeyError, TypeError):
        raise ParseError(f"{path}: metadata line {lineno}: missing column {key!r}") from None
    except ValueError:
        kind = "non-integer" if parse is int else "non-numeric"
        raise ParseError(f"{path}: metadata line {lineno}: {kind} {key}={row[key]!r}") from None


@dataclass(frozen=True, kw_only=True)
class CsvDataset:
    """The config's csv ``dataset`` section: the two files load_csv reads."""

    type: str = ruled("csv", ("csv",))
    data_path: str = ruled(MISSING, "non-empty")
    meta_path: str = ruled(MISSING, "non-empty")

    def __post_init__(self):
        check_fields(self)


def load_csv(data_path, meta_path) -> list[SignalRecording]:
    """Read recordings from a signal CSV plus a metadata CSV.

    The metadata file assigns each 0-based, end-exclusive row range of the
    signal file to one recording. Malformed rows, and a blank row before a
    data row, raise ParseError naming the file, line, and column; a
    recording SignalRecording rejects (a non-finite sample or sampling
    rate) names its metadata line.
    """
    rows: list[list[float]] = []
    n_channels: int | None = None
    blank = None  # line of the first blank row, if any
    with open(data_path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                blank = blank or lineno
                continue
            if blank:
                raise ParseError(f"{data_path}: row {blank}: blank row before the data row {lineno}")
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
            start = _parse_field(row, "start_row", lineno, meta_path)
            end = _parse_field(row, "end_row", lineno, meta_path)
            if not (0 <= start < end <= len(data)):
                raise ParseError(
                    f"{meta_path}: metadata line {lineno}: range [{start}, {end}) "
                    f"outside the {len(data)} data rows"
                )
            rate = _parse_field(row, "sampling_rate_hz", lineno, meta_path, parse=float)
            label, trial, subject = (
                _parse_field(row, key, lineno, meta_path) for key in ("label", "trial", "subject")
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
