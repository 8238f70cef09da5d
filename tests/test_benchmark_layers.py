"""The traced benchmark wraps functions by name; a rename must fail here first.

perfbench/spans.py lists, per predin module, the public functions its
tracer wraps, and the tracer raises AttributeError on a name that no
longer exists. Two of its counters, ``signals.windows`` and
``scoring.score_windows.windows``, read ``len()`` of what
``segment_windows`` and ``score_windows`` return. Its own tests are not
collected with this suite, so these tests load it by path, resolve every
entry and run those counters on real results.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from predin import signals
from predin.encoder import EncoderSpec, init_encoder
from predin.scoring import prototype_score_fn, score_windows
from predin.signals import (
    SignalRecording,
    SyntheticConfig,
    generate_synthetic,
    segment_windows,
    split_known_unknown,
    split_trials,
    standardize,
)

from oracles import count_windows_enumeration

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = _load_spans()


def _count(name, total, args, result):
    """Run the benchmark's counter for one call; returns its new total."""
    totals = {total: 0}
    SPANS.COUNTERS[name](totals, args, {}, result)
    return totals[total]


def _recordings():
    cfg = SyntheticConfig(n_classes=5, channels=2, trials=3, recording_ms=700.0,
                          sampling_rate_hz=500.0)
    recs, classes = generate_synthetic(cfg, seed=1)
    split = split_known_unknown(classes, 3, seed=2)
    return recs, split


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, fns in SPANS.LAYERS.items() for f in fns]
)
def test_traced_function_exists(module, name):
    home = importlib.import_module(f"predin.{module}")
    assert callable(getattr(home, name, None)), f"predin.{module}.{name} is not a function"


@pytest.mark.parametrize("length", [399, 400, 401, 777, 5000])
def test_window_counter_counts_every_window(length):
    rec = SignalRecording(np.zeros((2, length)), 2000.0, 1, 1, 1)
    counted = _count("signals.segment_windows", "signals.windows",
                     (rec, 200.0, 50.0), segment_windows(rec, 200.0, 50.0))
    assert counted == count_windows_enumeration(length, 400, 100)


def test_segment_windows_called_once_per_routed_recording(monkeypatch):
    recs, split = _recordings()
    cut = []
    original = signals.segment_windows

    def counting(rec, *args):
        result = original(rec, *args)
        cut.append((id(rec), len(result)))
        return result

    monkeypatch.setattr(signals, "segment_windows", counting)
    part = split_trials(recs, 200.0, 50.0, {1, 2}, {3}, split)
    routed = [r for r in recs if r.trial_id == 3
              or (r.trial_id in (1, 2) and r.gesture_label in split.known_classes)]
    assert sorted(i for i, _ in cut) == sorted(id(r) for r in routed)
    assert sum(n for _, n in cut) == len(part.train_windows) + len(part.test_windows) > 0


def test_score_counter_counts_every_test_window():
    recs, split = _recordings()
    part = standardize(split_trials(recs, 200.0, 50.0, {1, 2}, {3}, split))
    spec = EncoderSpec(input_dim=part.test_windows.input_dim, hidden_dims=(8,), output_dim=4,
                       activation="tanh")
    fns = [prototype_score_fn(init_encoder(spec, seed=1), np.eye(3, 4))]
    args = (fns, part.test_windows, split)
    counted = _count("scoring.score_windows", "scoring.score_windows.windows", args,
                     score_windows(*args))
    assert counted == len(part.test_windows) > 0
