"""The traced benchmark wraps functions by name; a rename must fail here first.

perfbench/spans.py lists, per predin module, the public functions its
tracer wraps, and the tracer raises AttributeError on a name that no
longer exists. Its counters read attributes of the arguments and results
of real calls (``spec``, ``cache.params.spec``, ``cache.active``, ``len()``
of a returned table). Its own tests are not collected with this suite, so
these tests load it by path, resolve every entry and run every counter on
real results, checking each total against the shapes.
"""

import contextlib
import importlib
import importlib.util
import json
import sys
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from predin import signals
from predin.encoder import (
    EncoderSpec,
    encoder_backward,
    encoder_forward,
    init_encoder,
    init_optimizer,
    sgd_step,
)
from predin.inconsistency import (
    TrainConfig,
    branch_score_fn,
    init_branch,
    nearest_other_prototype,
    proximity_probs,
    triplet_loss,
)
from predin.metrics import oscr
from predin.scoring import score_windows
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
                          sampling_rate_hz=500.0, data_seed=1)
    return generate_synthetic(cfg), split_known_unknown(range(1, cfg.n_classes + 1), 3, seed=2)


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
    part = split_trials(list(recs), 200.0, 50.0, {1, 2}, {3}, split)
    routed = [r for r in recs if r.trial_id == 3
              or (r.trial_id in (1, 2) and r.gesture_label in split.known_classes)]
    assert sorted(i for i, _ in cut) == sorted(id(r) for r in routed)
    assert sum(n for _, n in cut) == len(part.train_windows) + len(part.test_windows) > 0


def test_score_counter_counts_every_test_window():
    recs, split = _recordings()
    part = standardize(split_trials(recs, 200.0, 50.0, {1, 2}, {3}, split))
    spec = EncoderSpec(input_dim=part.test_windows.input_dim, hidden_dims=(8,), output_dim=4,
                       activation="tanh")
    fns = [branch_score_fn(init_branch(spec, 3, 1, 2, TrainConfig()))]
    args = (fns, part.test_windows)
    counted = _count("scoring.score_windows", "scoring.score_windows.windows", args,
                     score_windows(*args))
    assert counted == len(part.test_windows) > 0


# every counter below runs on one real call; each case returns the call's
# (args, result) and the totals the shapes imply
_SPEC = EncoderSpec(input_dim=12, hidden_dims=(16, 8), output_dim=4, activation="tanh")
_ROWS = 10
_FORWARD_FLOP = 2 * _ROWS * (12 * 16 + 16 * 8 + 8 * 4)


def _forward_case():
    x = np.random.default_rng(0).normal(size=(_ROWS, 12))
    args = (init_encoder(_SPEC, seed=1), x)
    return args, encoder_forward(*args), {"encoder.encoder_forward.flop": _FORWARD_FLOP}


def _backward_case():
    _, (emb, cache), _ = _forward_case()
    args = (cache, np.ones_like(emb), None)
    return args, encoder_backward(*args), {"encoder.encoder_backward.flop": 2 * _FORWARD_FLOP}


def _sgd_case():
    arrays = init_encoder(_SPEC, seed=1).arrays()
    args = (arrays, [np.ones_like(a) for a in arrays], init_optimizer(arrays, 0.1, 0.9))
    n_params = 12 * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4
    # read param, grad, velocity; write velocity, param: 8-byte floats
    return args, sgd_step(*args), {"encoder.sgd_step.bytes": 5 * 8 * n_params}


def _triplet_case():
    # rows 0-3 sit on their own prototype (hinge off), rows 4-9 on the
    # nearest other one (hinge on)
    protos = 3.0 * np.eye(3, 4)
    labels = np.array([1, 2, 3, 1, 1, 2, 3, 1, 2, 3])
    y0 = labels - 1
    on = np.arange(_ROWS) >= 4
    z = protos[np.where(on, nearest_other_prototype(protos)[y0], y0)]
    args = (z, labels, protos, 1.0)
    totals = {"inconsistency.triplet_loss.active": 6, "inconsistency.triplet_loss.rows": _ROWS}
    return args, triplet_loss(*args), totals


def _proximity_case():
    # z = c e_y against unit prototypes gives every gap c: with m1 = 0.5
    # rows with c = 1 clear the margin on all N-1 = 3 entries, c = 0.1 on none
    protos = np.eye(4)
    labels = np.array([1, 2, 3, 4, 1, 2, 3])
    scale = np.array([1.0, 1.0, 0.1, 1.0, 0.1, 0.1, 1.0])
    z = scale[:, None] * protos[labels - 1]
    args = (z, labels, protos, 0.5)
    totals = {"inconsistency.proximity_probs.active": 4 * 3,
              "inconsistency.proximity_probs.entries": 7 * 3}
    return args, proximity_probs(*args, own_dots=None), totals


def _proximity_no_cache_case():
    (z, labels, protos, m1), _, _ = _proximity_case()
    args = (z, labels, protos, m1, False)
    return args, proximity_probs(*args, own_dots=None), {}


def _oscr_case():
    rng = np.random.default_rng(3)
    args = (rng.random(7), rng.random(7) < 0.5, rng.random(5))
    return args, oscr(*args), {"metrics.oscr.n": 12}


COUNTER_CASES = {
    "encoder.encoder_forward": [_forward_case],
    "encoder.encoder_backward": [_backward_case],
    "encoder.sgd_step": [_sgd_case],
    "inconsistency.triplet_loss": [_triplet_case],
    "inconsistency.proximity_probs": [_proximity_case, _proximity_no_cache_case],
    "metrics.oscr": [_oscr_case],
}


@pytest.mark.parametrize(
    "name, case", [(n, c) for n, cases in COUNTER_CASES.items() for c in cases],
    ids=lambda v: v if isinstance(v, str) else v.__name__.strip("_"),
)
def test_counter_totals_match_shapes(name, case):
    args, result, expected = case()
    totals = defaultdict(int)
    SPANS.COUNTERS[name](totals, args, {}, result)
    assert dict(totals) == expected
    assert set(expected) <= set(SPANS.TOTALS)


def test_every_counter_is_tested():
    # segment_windows and score_windows are run by the two tests above
    tested = set(COUNTER_CASES) | {"signals.segment_windows", "scoring.score_windows"}
    assert tested == set(SPANS.COUNTERS)


# functions only the gradient suite calls; the run workloads never reach them
_GRADCHECK_ONLY = {"encoder.finite_diff_check", "gradcheck.check_loss_gradients"}


def _tiny_run_config(tmp_path):
    """A one-seed, one-epoch config file on a 15-recording synthetic set."""
    config = {
        "dataset": {"type": "synthetic", "n_classes": 5, "channels": 2, "trials": 3,
                    "recording_ms": 450.0, "sampling_rate_hz": 400.0, "data_seed": 99},
        "n_known": 3, "seeds": [1],
        "encoder": {"hidden_dims": [8], "feature_dim": 4},
        "training": {"epochs": 1, "batch_size": 64},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def test_run_workloads_reach_every_traced_function(tmp_path, monkeypatch):
    # a function the benchmark wraps but the CLI stops calling (say the
    # softmax variant bypassing baseline_softmax_train) reads 0 in every
    # per-layer metric instead of failing; count calls the way the tracer
    # wraps them, in every predin module that binds the name
    import predin.cli

    calls = dict.fromkeys((f"{m}.{f}" for m, fns in SPANS.LAYERS.items() for f in fns), 0)
    modules = [m for n, m in sys.modules.items() if n == "predin" or n.startswith("predin.")]
    for layer, functions in SPANS.LAYERS.items():
        home = importlib.import_module(f"predin.{layer}")
        for fname in functions:
            original = getattr(home, fname)

            def counted(*args, _key=f"{layer}.{fname}", _fn=original, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                if getattr(mod, fname, None) is original:
                    monkeypatch.setattr(mod, fname, counted)

    path = _tiny_run_config(tmp_path)
    assert predin.cli.main(["ablation", "--config", str(path)]) == 0
    assert predin.cli.main(["run", "--config", str(path), "--variant", "sequential_k"]) == 0
    missed = sorted(k for k, n in calls.items() if n == 0 and k not in _GRADCHECK_ONLY)
    assert missed == []


@contextlib.contextmanager
def _installed_tracer():
    """The benchmark's tracer, installed for the body and removed after."""
    modules = [m for n, m in sys.modules.items() if n == "predin" or n.startswith("predin.")]
    bound = {
        (mod, fname): getattr(mod, fname)
        for mod in modules for fns in SPANS.LAYERS.values() for fname in fns
        if hasattr(mod, fname)
    }
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        for (mod, fname), fn in bound.items():
            setattr(mod, fname, fn)


def test_release_holds_under_the_tracer(tmp_path):
    # the tracer's wrapper holds each call's arguments until it returns
    # (build_partition's and split_trials' recordings list, run_seed's
    # partition), so a release that counts on the callee holding the last
    # reference fails only when traced
    import predin.cli
    from predin import harness

    with _installed_tracer() as tracer:
        recording_refs, lists, train_refs = [], [], []
        alive_at_standardize, alive_at_scoring = [], []
        load, build, score = harness.load_dataset, harness.build_partition, harness.score_windows
        standardize = harness.standardize

        def capturing_load(*args):
            recordings = load(*args)
            recording_refs.extend(weakref.ref(r.samples) for r in recordings)
            return recordings

        def capturing_build(*args, **kwargs):
            lists.append(args[1])
            partition = build(*args, **kwargs)
            train_refs.append(weakref.ref(partition.train_windows.signal))
            return partition

        def checking_standardize(*args):
            alive_at_standardize.append(sum(r() is not None for r in recording_refs))
            return standardize(*args)

        def checking_score(*args):
            alive_at_scoring.append(
                (sum(r() is not None for r in recording_refs), train_refs[-1]() is not None)
            )
            return score(*args)

        harness.load_dataset = capturing_load
        harness.build_partition = capturing_build
        harness.standardize = checking_standardize
        harness.score_windows = checking_score
        path = _tiny_run_config(tmp_path)
        assert predin.cli.main(["run", "--config", str(path)]) == 0
    assert "harness.run_seed" in tracer.names
    assert tracer.totals["signals.windows"] > 0  # split_trials still cuts through segment_windows
    assert len(recording_refs) == 15
    assert lists == [[]]  # the list the wrappers hold was emptied in place
    assert alive_at_standardize == [0]
    assert alive_at_scoring == [(0, False)]


def test_generator_traced_on_the_eval_large_plan(tmp_path):
    # the generator's helper thread must call no wrapped function: the
    # tracer's span stack belongs to the main thread
    from predin import harness

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SPANS_PATH.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    base = json.loads((SPANS_PATH.parents[1] / workloads.EXAMPLE_CONFIG).read_text())
    plan = workloads.make_plan("eval_large", 5, str(tmp_path / "out"), base, tiny=True)
    config = harness.config_from_dict(plan["config"])
    with _installed_tracer() as tracer:
        traced = harness.load_dataset(config)
    assert tracer.names == ["harness.load_dataset", "signals.generate_synthetic"]
    assert tracer.parents == [-1, 0]
    untraced = generate_synthetic(SyntheticConfig(**plan["config"]["dataset"]))
    assert len(traced) == len(untraced) == 30 and traced[0].n_timesteps == 6000
    for a, b in zip(traced, untraced):
        assert a.samples.tobytes() == b.samples.tobytes()
