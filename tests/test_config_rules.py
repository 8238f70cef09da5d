"""Config rules stated on the fields: every field has one, the README table
documents them, and property tests built from them check what they admit
and reject."""

import copy
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from predin import harness
from predin.harness import (
    EncoderConfig, ExperimentConfig, config_from_dict, run_experiment, run_seed,
)
from predin.inconsistency import DivHyperParams, TrainConfig
from predin.signals import CsvDataset, ParseError, SyntheticConfig, load_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the fields no rule covers: the nested sections, each checked through the
# rules of its type (the dataset section's "type" picks one of two)
CHECKED_BY_CODE = {"dataset", "hyperparams", "encoder", "training"}

# each config type -> the JSON path of one of its fields
PATHS = {
    ExperimentConfig: lambda n: n,
    EncoderConfig: lambda n: f"encoder.{n}",
    TrainConfig: lambda n: f"training.{n}",
    DivHyperParams: lambda n: f"hyperparams.{n}",
    SyntheticConfig: lambda n: f"dataset.{n}",
    CsvDataset: lambda n: f"dataset.{n}",
}

KIND_WORDS = {"int": "integer", "float": "real", "tuple[int, ...]": "integer list", "str": "string"}

def ruled_fields(cls):
    return [f for f in dataclasses.fields(cls) if "admits" in f.metadata]


def interval(text):
    """(low, high, closed_low, closed_high) of a rule such as "[0, 1)"."""
    low, high = text[1:-1].split(", ")
    return float(low), float(high), text[0] == "[", text[-1] == "]"


def test_every_config_field_has_a_rule_or_is_checked_by_code():
    for cls in PATHS:
        for f in dataclasses.fields(cls):
            name = f"{cls.__name__}.{f.name}"
            assert ("admits" in f.metadata) != (f.name in CHECKED_BY_CODE), name
            if "admits" not in f.metadata:
                continue
            admits = f.metadata["admits"]
            assert f.type in KIND_WORDS, name
            if f.type == "str":
                assert admits == "non-empty" or isinstance(admits, tuple), name
            else:
                low, high, _, _ = interval(admits)
                assert low < high and admits[0] in "[(" and admits[-1] in "])", name


def _admits_cell(admits) -> str:
    if isinstance(admits, tuple):
        return ", ".join(f"`{choice}`" for choice in admits)
    return admits if admits == "non-empty" else f"`{admits}`"


def test_readme_table_matches_the_field_rules():
    lines = README.read_text().splitlines()
    start = lines.index("| field | kind | admits |") + 2  # past the separator row
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        path, kind, admits = (cell.strip() for cell in line.strip("|").split(" | "))
        documented[path.strip("`")] = (kind, admits)
    rules = {}  # JSON path -> (kind, admits)
    for cls, path in PATHS.items():
        for f in ruled_fields(cls):
            admits = f.metadata["admits"]
            if path(f.name) in rules:  # each dataset type's own "type": one row lists them all
                admits = rules[path(f.name)][1] + admits
            rules[path(f.name)] = (f.type, admits)
    expected = {p: (KIND_WORDS[kind], _admits_cell(admits)) for p, (kind, admits) in rules.items()}
    assert documented == expected


# ---------------------------------------------------------------------------
# property tests: valid values drawn from the rules, invalid ones built from
# them
# ---------------------------------------------------------------------------


def valid_values(f, entry=False):
    """Values f's rule admits (one entry of it when entry is set)."""
    admits = f.metadata["admits"]
    if f.type == "str":
        return st.sampled_from(admits) if isinstance(admits, tuple) else st.text(min_size=1)
    low, high, closed_low, closed_high = interval(admits)
    if f.type == "float":
        return st.floats(
            min_value=low if math.isfinite(low) else None,
            max_value=high if math.isfinite(high) else None,
            exclude_min=math.isfinite(low) and not closed_low,
            exclude_max=math.isfinite(high) and not closed_high,
            allow_nan=False,
            allow_infinity=False,
        )
    ints = st.integers(
        min_value=int(low) + (not closed_low) if math.isfinite(low) else None,
        max_value=int(high) - (not closed_high) if math.isfinite(high) else None,
    )
    return ints if entry or f.type == "int" else st.lists(ints, max_size=4)


def drawn(draw, cls, **fixed):
    """A cls whose ruled fields are drawn from their rules, but those in fixed."""
    kwargs = {f.name: draw(valid_values(f)) for f in ruled_fields(cls)}
    return cls(**{**kwargs, **fixed})


def samples_ms(n, rate):
    """The milliseconds that n samples span at the rate."""
    return n * 1000.0 / rate


@st.composite
def valid_configs(draw):
    """An ExperimentConfig drawn from the field rules, with either dataset
    type, plus the cross-field ones: non-empty distinct seeds, disjoint
    trials and, for a synthetic dataset, a recording of at least
    max(1, smooth_samples) samples and a run the generated set can
    satisfy (each length a whole number of samples)."""
    rules = {f.name: f for f in ruled_fields(ExperimentConfig)}
    kwargs = {section: drawn(draw, cls) for section, cls in
              (("hyperparams", DivHyperParams), ("encoder", EncoderConfig), ("training", TrainConfig))}
    trial = valid_values(rules["train_trials"], entry=True)
    fixed = {}  # the top-level fields a synthetic dataset bounds
    synthetic = draw(st.booleans())
    if synthetic:
        generator = {f.name: f for f in ruled_fields(SyntheticConfig)}
        rate, smooth = (draw(valid_values(generator[name]))
                        for name in ("sampling_rate_hz", "smooth_samples"))
        n = draw(st.integers(max(1, smooth), 4 * max(1, smooth)))
        try:  # at a tiny rate, recording_ms can overflow to inf
            ds = drawn(draw, SyntheticConfig, sampling_rate_hz=rate, smooth_samples=smooth,
                       recording_ms=samples_ms(n, rate), trials=draw(st.integers(2, 10**6)))
        except ValueError:
            reject()
        trial = st.integers(1, ds.trials)
        fixed["n_known"] = draw(st.integers(2, ds.n_classes - 1))
        fixed["window_ms"] = samples_ms(draw(st.integers(1, n)), rate)
        fixed["step_ms"] = samples_ms(draw(st.integers(1, 2 * n)), rate)
    else:
        ds = drawn(draw, CsvDataset)
    kwargs["seeds"] = draw(st.lists(valid_values(rules["seeds"], entry=True),
                                    min_size=1, max_size=4, unique=True))
    trials = draw(st.lists(trial, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(trials) - 1))
    kwargs["train_trials"], kwargs["test_trials"] = trials[:cut], trials[cut:]
    if not synthetic:
        return drawn(draw, ExperimentConfig, dataset=ds, **kwargs)
    try:  # and so can step_ms, which spans up to twice the recording
        return drawn(draw, ExperimentConfig, dataset=ds, **kwargs, **fixed)
    except ValueError:
        reject()


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(valid_configs())
def test_valid_config_round_trips(cfg):
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert config_from_dict(echo) == cfg


def test_partial_dataset_section_echoes_every_default():
    cfg = config_from_dict({"dataset": {"n_classes": 8, "data_seed": 7}})
    echo = json.loads(json.dumps(cfg.to_dict()))
    defaults = {f.name: f.default for f in dataclasses.fields(SyntheticConfig)}
    assert echo["dataset"] == dict(defaults, n_classes=8, data_seed=7)
    assert echo["dataset"]["type"] == "synthetic"
    assert config_from_dict(echo) == cfg


def _shipped_configs():
    """The example config, and every run workload's config as the benchmark
    plans it at both sizes (perfbench/workloads.py is loaded by path)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    example = json.loads((ROOT / workloads.EXAMPLE_CONFIG).read_text())
    yield pytest.param(example, id="example_config")
    for name in workloads.RUN_WORKLOADS:
        for tiny in (True, False):
            plan = workloads.make_plan(name, 1701, "runs/bench", example, tiny=tiny)
            yield pytest.param(plan["config"], id=f"{name}-tiny={tiny}")


@pytest.mark.parametrize("raw", _shipped_configs())
def test_echo_is_the_config_it_was_built_from(raw):
    # report.json echoes to_dict(); a config that spells out every key must
    # come back as written, or a report stops saying what ran
    echo = config_from_dict(copy.deepcopy(raw)).to_dict()
    assert json.dumps(echo, sort_keys=True) == json.dumps(raw, sort_keys=True)


def outside(f):
    """The values nearest to f's interval that it excludes."""
    low, high, closed_low, closed_high = interval(f.metadata["admits"])
    out = []
    for bound, closed, toward in ((low, closed_low, -math.inf), (high, closed_high, math.inf)):
        if not math.isfinite(bound):
            continue
        if f.type == "float":
            out.append(math.nextafter(bound, toward) if closed else bound)
        else:
            out.append(int(bound) + (int(math.copysign(1, toward)) if closed else 0))
    return out


HUGE = 10**400  # 401 digits: too large for a float


def invalid_values(f):
    """Values f's rule rejects: wrong types, non-finite and huge numbers,
    and the nearest values outside its interval or choices."""
    if f.type == "str":
        admits = f.metadata["admits"]
        return [None, 1, True, ["x"], {}, ""] + (["bogus"] if isinstance(admits, tuple) else [])
    bad = [None, "1", True, False, {}, float("nan"), float("inf"), -float("inf"), HUGE, -HUGE]
    bad += outside(f)
    if f.type == "int":
        return bad + [1.0, 2.5, [1]]
    if f.type == "float":
        return bad + [[1.0]]
    return [5, "1", None, {}, HUGE] + [[v] for v in bad] + [[1.0], [2.5]]


def _with(d: dict, section: str, key: str, value) -> dict:
    """A copy of the config dict d with d[section][key] (d[key] when
    section is "") set to value."""
    d = copy.deepcopy(d)
    (d.setdefault(section, {}) if section else d)[key] = value
    return d


# a dataset section of each type, for a config whose dataset is of the other
DATASETS = {
    SyntheticConfig: {"type": "synthetic"},
    CsvDataset: {"type": "csv", "data_path": "signal.csv", "meta_path": "meta.csv"},
}


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(valid_configs(), st.text(min_size=1))
def test_one_bad_field_rejected_naming_it(cfg, unknown_key):
    base = cfg.to_dict()
    for cls, path in PATHS.items():
        for f in ruled_fields(cls):
            for value in invalid_values(f):
                d = base
                if cls in DATASETS and not isinstance(cfg.dataset, cls):
                    d = dict(base, dataset=DATASETS[cls])
                with pytest.raises(ValueError) as info:
                    config_from_dict(_with(d, *path(f.name).rpartition(".")[::2], value))
                assert f"{f.name} must be" in str(info.value), (path(f.name), value)
    for f in ruled_fields(TrainConfig):
        for value in invalid_values(f):
            with pytest.raises(ValueError, match=f"{f.name} must be"):
                TrainConfig(**{f.name: value})
    for section in ("", "dataset", "encoder", "training", "hyperparams"):
        if unknown_key in (base[section] if section else base):
            continue
        with pytest.raises(ValueError, match="unknown config keys") as info:
            config_from_dict(_with(base, section, unknown_key, 1))
        assert repr(unknown_key) in str(info.value)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

META_HEADER = "start_row,end_row,label,trial,subject,sampling_rate_hz"


def write_csv_pair(directory, data_rows, meta_rows):
    """Write signal.csv and meta.csv into directory; returns their paths."""
    data = os.path.join(directory, "signal.csv")
    meta = os.path.join(directory, "meta.csv")
    with open(data, "w") as f:
        f.write("".join(",".join(row) + "\n" for row in data_rows))
    with open(meta, "w") as f:
        f.write("".join(",".join(row) + "\n" for row in [META_HEADER.split(",")] + meta_rows))
    return data, meta


# cells no column parses: the integer columns and the sampling rate
NOT_INTEGERS = ["", "x", "1.5", "1e3", "0x1"]
BAD_RATES = ["", "x", "nan", "inf", "-inf", "0", "-1"]
NOT_NUMBERS = ["", "x", "1.2.3", "--1", "0x10", "1e"]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_corrupt_csv_cell_names_file_and_line(data):
    channels = data.draw(st.integers(1, 3))
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    cell = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    data_rows = [data.draw(st.lists(cell, min_size=channels, max_size=channels))
                 for _ in range(sum(lengths))]
    ends = [sum(lengths[: i + 1]) for i in range(len(lengths))]
    meta_rows = [[str(end - n), str(end), str(i + 1), "1", "1", "2000"]
                 for i, (n, end) in enumerate(zip(lengths, ends))]
    if data.draw(st.booleans()):
        row = data.draw(st.integers(0, len(data_rows) - 1))
        col = data.draw(st.integers(0, channels - 1))
        data_rows[row][col] = data.draw(st.sampled_from(NOT_NUMBERS))
        where = ("signal.csv", f"row {row + 1}, column {col + 1}")
    else:
        row = data.draw(st.integers(0, len(meta_rows) - 1))
        col = data.draw(st.integers(0, 5))
        meta_rows[row][col] = data.draw(st.sampled_from(BAD_RATES if col == 5 else NOT_INTEGERS))
        where = ("meta.csv", f"metadata line {row + 2}")
    with tempfile.TemporaryDirectory() as directory:
        paths = write_csv_pair(directory, data_rows, meta_rows)
        with pytest.raises(ParseError) as info:
            load_csv(*paths)
        assert f"{os.path.join(directory, where[0])}: {where[1]}" in str(info.value)


@pytest.mark.parametrize(
    "key, trials, missing",
    [("test_trials", {"train_trials": [1], "test_trials": [3]}, [3]),
     ("train_trials", {"train_trials": [3], "test_trials": [2]}, [3]),
     ("train_trials", {"train_trials": [1, 4, 5], "test_trials": [2]}, [4, 5])],
)
def test_csv_trial_in_no_recording_rejected_naming_key(tmp_path, key, trials, missing):
    # 4 classes x 2 trials, one 20-row recording each, 2 channels at 100 Hz
    data_rows = [[str(0.1 * i), str(-0.2 * i)] for i in range(160)]
    meta_rows = [[str(20 * r), str(20 * r + 20), str(r // 2 + 1), str(r % 2 + 1), "1", "100"]
                 for r in range(8)]
    data, meta = write_csv_pair(tmp_path, data_rows, meta_rows)
    cfg = config_from_dict({
        "dataset": {"type": "csv", "data_path": data, "meta_path": meta},
        "window_ms": 50.0, "step_ms": 50.0, "n_known": 2, "seeds": [1],
        "encoder": {"hidden_dims": [4], "feature_dim": 4}, "training": {"epochs": 1},
        "output_dir": str(tmp_path / "out"), **trials,
    })
    with pytest.raises(ValueError, match=re.escape(f"{key} {missing}") + r".*trials \[1, 2\]"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "bad, rate, reason",
    [(0, "1e308", "is no finite number of samples"),
     (4, "1e308", "is no finite number of samples"),
     (5, "1", "is shorter than one sample")],
)
def test_csv_recording_without_window_geometry_names_its_line(tmp_path, bad, rate, reason):
    # 3 classes x 2 trials, one 20-row recording each, 2 channels at 100 Hz but one
    data_rows = [[str(0.1 * i), str(-0.2 * i)] for i in range(120)]
    meta_rows = [[str(20 * r), str(20 * r + 20), str(r // 2 + 1), str(r % 2 + 1), "1",
                  rate if r == bad else "100"] for r in range(6)]
    data, meta = write_csv_pair(tmp_path, data_rows, meta_rows)
    cfg = config_from_dict({
        "dataset": {"type": "csv", "data_path": data, "meta_path": meta},
        "window_ms": 100.0, "step_ms": 50.0, "n_known": 2, "seeds": [1],
        "train_trials": [1], "test_trials": [2],
        "encoder": {"hidden_dims": [4], "feature_dim": 4}, "training": {"epochs": 1},
        "output_dir": str(tmp_path / "out"),
    })
    with pytest.raises(ValueError, match=re.escape(f"{meta}: metadata line {bad + 2}: ") + ".*"
                       + re.escape(reason)):
        run_experiment(cfg)



@pytest.mark.parametrize(
    "fast",
    [{1, 3, 5, 7},  # trial 2 at 200 Hz: the train and test sides differ
     {4},  # one trial-1 recording at 200 Hz: the train side mixes lengths
     {7}],  # one trial-2 recording at 200 Hz: the test side mixes lengths
)
def test_csv_window_lengths_differ_names_the_line(tmp_path, fast):
    # 4 classes x 2 trials, one 40-row recording each, 2 channels at 100 Hz
    # (10 samples per 100 ms window), the recordings in `fast` at 200 Hz (20)
    data_rows = [[str(0.1 * i), str(-0.2 * i)] for i in range(320)]
    meta_rows = [[str(40 * r), str(40 * r + 40), str(r // 2 + 1), str(r % 2 + 1), "1",
                  "200" if r in fast else "100"] for r in range(8)]
    data, meta = write_csv_pair(tmp_path, data_rows, meta_rows)
    cfg = config_from_dict({
        "dataset": {"type": "csv", "data_path": data, "meta_path": meta},
        "window_ms": 100.0, "step_ms": 50.0, "n_known": 2, "seeds": [1],
        "train_trials": [1], "test_trials": [2],
        "encoder": {"hidden_dims": [4], "feature_dim": 4}, "training": {"epochs": 1},
        "output_dir": str(tmp_path / "out"),
    })
    # recording r is on metadata line r + 2; the first one, at 100 Hz, sets the length
    want = (f"{meta}: metadata line {min(fast) + 2}: window_ms=100.0 is 20 samples at "
            "sampling_rate_hz=200.0, but 10 on metadata line 2")
    with pytest.raises(ValueError, match=re.escape(want)):
        run_experiment(cfg)


def test_seed_without_a_train_window_fails_alone(tmp_path):
    # trial 1 holds classes 1 and 2 only, test trial 2 classes 1-4; with 2
    # known classes, seeds 2 and 3 draw {3, 4}, which trial 1 does not carry,
    # and seeds 4-8 one class of each, whose prototype trial 1 could not train
    data_rows = [[str(0.1 * i), str(-0.2 * i)] for i in range(240)]
    meta_rows = [[str(40 * r), str(40 * r + 40), str(label), str(trial), "1", "100"]
                 for r, (label, trial) in enumerate([(1, 1), (2, 1), (1, 2), (2, 2),
                                                     (3, 2), (4, 2)])]
    data, meta = write_csv_pair(tmp_path, data_rows, meta_rows)
    out = tmp_path / "out"
    cfg = config_from_dict({
        "dataset": {"type": "csv", "data_path": data, "meta_path": meta},
        "window_ms": 100.0, "step_ms": 50.0, "n_known": 2, "seeds": list(range(1, 9)),
        "train_trials": [1], "test_trials": [2],
        "encoder": {"hidden_dims": [4], "feature_dim": 4}, "training": {"epochs": 1},
        "output_dir": str(out),
    })
    report = run_experiment(cfg)
    assert report["aggregate"]["failed_seeds"] == [2, 3, 4, 5, 6, 7, 8]
    errors = {row["seed"]: row["error"] for row in report["per_seed"] if "error" in row}
    untrained = {2: [3, 4], 3: [3, 4], 4: [4], 5: [4], 6: [4], 7: [3], 8: [4]}
    assert errors == {seed: f"seed {seed}: train trials [1] give no window for known classes "
                            f"{classes}; training needs at least one"
                      for seed, classes in untrained.items()}
    assert report["aggregate"]["n_seeds"] == 1
    assert json.loads((out / "report.json").read_text()) == report
    assert sorted(p.name for p in out.glob("seed_*")) == ["seed_1"]


def test_seed_without_known_and_unknown_test_windows_fails_alone(tmp_path):
    # trial 1 holds classes 1-4, test trial 2 only classes 1 and 2; with 2
    # known classes, seed 1 draws {1, 2} (no unknown test window) and seeds
    # 2 and 3 draw {3, 4} (no known one), the other seeds one of each.
    # Trial 3's one recording is shorter than a window.
    data_rows = [[str(0.1 * i), str(-0.2 * i)] for i in range(245)]
    meta_rows = [[str(40 * r), str(40 * r + 40), str(label), str(trial), "1", "100"]
                 for r, (label, trial) in enumerate([(1, 1), (2, 1), (3, 1), (4, 1),
                                                     (1, 2), (2, 2)])]
    meta_rows.append(["240", "245", "3", "3", "1", "100"])
    data, meta = write_csv_pair(tmp_path, data_rows, meta_rows)
    raw = {
        "dataset": {"type": "csv", "data_path": data, "meta_path": meta},
        "window_ms": 100.0, "step_ms": 50.0, "n_known": 2, "seeds": list(range(1, 9)),
        "train_trials": [1], "test_trials": [2],
        "encoder": {"hidden_dims": [4], "feature_dim": 4}, "training": {"epochs": 1},
        "output_dir": str(tmp_path / "out"),
    }
    report = run_experiment(config_from_dict(raw))
    assert report["aggregate"]["failed_seeds"] == [1, 2, 3]
    errors = {row["seed"]: row["error"] for row in report["per_seed"] if "error" in row}
    assert errors[1] == ("seed 1: test trials [2] give no unknown-class window for known "
                         "classes [1, 2]; open-set evaluation needs both known and unknown ones")
    assert errors[2] == ("seed 2: test trials [2] give no known-class window for known "
                         "classes [3, 4]; open-set evaluation needs both known and unknown ones")
    assert all(row["auc"] is not None for row in report["per_seed"][3:])
    assert report["aggregate"]["n_seeds"] == 5
    report = run_experiment(config_from_dict({**raw, "seeds": [2], "test_trials": [3]}))
    assert report["per_seed"][0]["error"] == (
        "seed 2: test trials [3] give no window for known classes [3, 4]; "
        "open-set evaluation needs both known and unknown ones")


# every config key, as an error message names it
CONFIG_KEYS = sorted({f.name for cls in PATHS for f in dataclasses.fields(cls)})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_run_on_a_random_csv_set_fails_early_or_per_seed(data):
    # a small CSV set of 1-3 channels at 100 Hz, at times with one recording
    # constant, tiny, huge or at 200 Hz, and a tiny run the config rules admit
    channels = data.draw(st.integers(1, 3))
    # the set's layout is drawn uniformly: Hypothesis favours the fewest labels and trials
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n = data.draw(st.integers(4, 14))
    recordings = zip(rng.integers(3, 41, n), rng.integers(1, 5, n), rng.integers(1, 4, n))
    odd = data.draw(st.integers(0, n - 1))
    odd_kind = data.draw(st.sampled_from(["plain"] * 4 + ["constant", "tiny", "huge", "fast"]))
    scales = {"constant": 0.0, "tiny": 1e-200, "huge": 1e200}
    data_rows, meta_rows = [], []
    for i, (rows, label, trial) in enumerate(recordings):
        kind = odd_kind if i == odd else "plain"
        samples = 0.5 + scales.get(kind, 1.0) * rng.standard_normal((rows, channels))
        meta_rows.append([str(len(data_rows)), str(len(data_rows) + rows), str(label),
                          str(trial), "1", "200" if kind == "fast" else "100"])
        data_rows += [[repr(v) for v in row] for row in samples.tolist()]
    trials = data.draw(st.permutations([1, 2, 3]))
    cut = data.draw(st.integers(1, 2))
    raw = {
        "window_ms": data.draw(st.sampled_from([30.0, 50.0, 100.0])),
        "step_ms": data.draw(st.sampled_from([10.0, 50.0])),
        "n_known": data.draw(st.integers(2, 3)),
        "seeds": data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True)),
        "variant": data.draw(st.sampled_from(sorted(harness.VARIANTS))),
        "train_trials": trials[:cut],
        "test_trials": trials[cut : cut + data.draw(st.integers(1, 3 - cut))],
        "encoder": {"hidden_dims": [4], "feature_dim": 3},
        "training": {"epochs": data.draw(st.integers(1, 2)),
                     "batch_size": data.draw(st.sampled_from([4, 256]))},
    }
    trained = []

    def checking_run_seed(config, partition, seed):
        # every known class trains: the train side holds each of labels 1..N
        n_known = partition.label_split.n_known
        assert set(partition.train_windows.labels.tolist()) == set(range(1, n_known + 1)), seed
        trained.append(seed)
        return run_seed(config, partition, seed)

    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        data_path, meta_path = write_csv_pair(directory, data_rows, meta_rows)
        cfg = config_from_dict({
            **raw, "dataset": {"type": "csv", "data_path": data_path, "meta_path": meta_path},
            "output_dir": os.path.join(directory, "out"),
        })
        mp.setattr(harness, "run_seed", checking_run_seed)
        try:
            report = run_experiment(cfg)
        except ValueError as e:  # ParseError is one
            assert not trained, (trained, e)
            names_key = any(re.search(rf"\b{key}\b", str(e)) for key in CONFIG_KEYS)
            assert names_key or re.search(r"metadata line \d+", str(e)), e
            return
    rows = report["per_seed"]
    assert [row["seed"] for row in rows] == list(cfg.seeds)
    for row in rows:
        if "error" in row:
            assert row["error"].startswith(f"seed {row['seed']}: "), row
            continue
        assert row["seed"] in trained
        assert all(math.isfinite(row[key]) for key in
                   ("auc", "acc", "oscr", "threshold", "retention_achieved")), row
        assert row["incon"] is None or math.isfinite(row["incon"]), row
    assert report["aggregate"]["failed_seeds"] == [row["seed"] for row in rows if "error" in row]
