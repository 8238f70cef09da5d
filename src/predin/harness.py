"""End-to-end experiment driver: config, model variants, multi-seed runs.

A run is fully determined by its config: per seed it splits classes,
windows and routes the recordings, trains the requested model variant,
scores the test set, and computes metrics; seed results are aggregated by
arithmetic mean. Reports re-run bit-identically from their config echo.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .encoder import EncoderSpec
from .inconsistency import (
    BranchState,
    DivHyperParams,
    TrainConfig,
    TrainingError,
    branch_score_fn,
    div_loss,
    init_branch,
    pl_objective,
    save_dual_checkpoint,
    softmax_objective,
    train,
    train_sequential,
    write_loss_trace,
)
from .io import atomic_write_text
from .metrics import (
    agreement_confusion,
    aggregate_reports,
    auc,
    closed_acc,
    incon_metric,
    oscr,
    proximity_matrix,
    report_to_json,
    write_matrix_csv,
)
from .scoring import ScoreTable, calibrate_threshold, score_windows, write_score_dump
from .signals import (
    UNKNOWN_LABEL,
    CsvDataset,
    DatasetPartition,
    NonFiniteStatistics,
    SignalRecording,
    SyntheticConfig,
    check_fields,
    generate_synthetic,
    load_csv,
    ruled,
    split_known_unknown,
    split_trials,
    standardize,
    window_geometry,
)

# each variant -> the DivHyperParams weights it zeroes: the ablation rows
# are a lattice over gamma (inconsistency) and alpha (triplet)
VARIANTS = {
    "softmax": (),
    "pl_baseline": (),
    "dual": ("gamma", "alpha"),
    "dual_trip": ("gamma",),
    "predin_wo_trip": ("alpha",),
    "predin": (),
    "sequential_k": (),
}

# stream tags for deriving independent sub-seeds from one run seed
_ENC_A, _PROTO_A, _ENC_B, _PROTO_B, _SHUFFLE, _HEAD = 1, 2, 3, 4, 5, 6


def _as_object(value, section: str | None = None) -> dict:
    """value itself; ValueError naming the section when it is not an object."""
    if not isinstance(value, dict):
        where = "the config" if section is None else f"config section {section!r}"
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _section_type(section: str, kinds: tuple, values: dict):
    """The dataclass the section's values build: its one type, or the one
    of a union whose ``type`` its "type" key names (by default the first's).
    ValueError naming the section on an unknown or missing key."""
    kind = kinds[0]
    if len(kinds) > 1:
        tag = values.get("type", kind.type)
        kind = next((k for k in kinds if k.type == tag), None)
        if kind is None:
            tags = tuple(k.type for k in kinds)
            raise ValueError(f"unknown {section} type {tag!r}; type must be one of {tags}")
    unknown = sorted(values.keys() - {f.name for f in fields(kind)})
    if unknown:
        raise ValueError(f"unknown config keys under {section!r}: {unknown}")
    missing = sorted(f.name for f in fields(kind) if f.name not in values
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ValueError(f"missing config keys under {section!r}: {missing}")
    return kind


def derive_seed(base_seed: int, stream: int) -> int:
    """Stable independent sub-seed for one role of a run."""
    return int(np.random.SeedSequence([base_seed, stream]).generate_state(1)[0])


@dataclass(frozen=True)
class EncoderConfig:
    """The config's "encoder" section; the data gives the input width."""

    hidden_dims: tuple[int, ...] = ruled((256,), "[1, inf)")
    feature_dim: int = ruled(128, "[1, inf)")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings, by default the tuned desk-scale protocol; a field
    typed by a dataclass, or a union of them, is a nested JSON section of
    that type's fields (a union's "type" key names the member)."""

    dataset: SyntheticConfig | CsvDataset = field(default_factory=SyntheticConfig)
    window_ms: float = ruled(200.0, "(0, inf)")
    step_ms: float = ruled(50.0, "(0, inf)")
    n_known: int = ruled(6, "[2, inf)")
    seeds: tuple[int, ...] = ruled((1, 2, 3, 4, 5), "[0, inf)")
    variant: str = ruled("predin", tuple(VARIANTS))
    train_trials: tuple[int, ...] = ruled((1, 2), "(-inf, inf)")
    test_trials: tuple[int, ...] = ruled((3,), "(-inf, inf)")
    hyperparams: DivHyperParams = field(default_factory=DivHyperParams)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    retention: float = ruled(0.95, "(0, 1)")
    sequential_k: int = ruled(2, "[1, inf)")
    output_dir: str = ruled("runs/out", "non-empty")

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.dataset, (SyntheticConfig, CsvDataset)):  # passed in, not parsed
            got = type(self.dataset).__name__
            raise ValueError(f"dataset must be a SyntheticConfig or CsvDataset, got {got}")
        for name in ("seeds", "train_trials", "test_trials"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        shared = sorted(set(self.train_trials) & set(self.test_trials))
        if shared:
            raise ValueError(f"train_trials and test_trials share trials {shared}")
        gen = self.dataset
        if isinstance(gen, SyntheticConfig):
            # a run the generated set cannot satisfy fails here naming the key, not mid-run
            for name in ("train_trials", "test_trials"):
                outside = sorted(t for t in getattr(self, name) if not 1 <= t <= gen.trials)
                if outside:
                    raise ValueError(
                        f"{name} {outside} lie outside the dataset's trials 1..{gen.trials}"
                    )
            window_geometry(gen.sampling_rate_hz, self.window_ms, self.step_ms)
            if self.window_ms > gen.recording_ms:
                raise ValueError(
                    f"window_ms={self.window_ms} is longer than recording_ms={gen.recording_ms}"
                )
            if self.n_known >= gen.n_classes:
                raise ValueError(
                    f"n_known={self.n_known} must be smaller than n_classes={gen.n_classes}"
                )

    def to_dict(self) -> dict:
        """The documented JSON schema: each section a nested object, tuples as lists."""
        return asdict(self, dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v for k, v in items
        })


# nested JSON section -> the dataclasses it may be built into: a field's
# type, or each member of a union of them
_SECTIONS = {
    name: kinds
    for name, hint in get_type_hints(ExperimentConfig).items()
    for kinds in [get_args(hint) or (hint,)]
    if all(map(is_dataclass, kinds))
}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from the documented JSON schema, filling defaults."""
    unknown = sorted(_as_object(d).keys() - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs = dict(d)
    for section, kinds in _SECTIONS.items():
        values = _as_object(d.get(section, {}), section)
        kwargs[section] = _section_type(section, kinds, values)(**values)
    return ExperimentConfig(**kwargs)


def _unique_keys(pairs: list) -> dict:
    """json object hook: a key given twice in one object is an error."""
    for i, (key, _) in enumerate(pairs):
        if any(key == earlier for earlier, _ in pairs[:i]):
            raise ValueError(f"duplicate config key {key!r}")
    return dict(pairs)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f, object_pairs_hook=_unique_keys))


def load_dataset(config: ExperimentConfig) -> list[SignalRecording]:
    """Materialize the config's recordings."""
    ds = config.dataset
    if isinstance(ds, CsvDataset):
        return load_csv(ds.data_path, ds.meta_path)
    return generate_synthetic(ds)


def build_partition(config: ExperimentConfig, recordings, seed: int) -> DatasetPartition:
    """Route, window and standardize one seed's train/test tables; each
    side's routed recordings are copied once and scaled in place, and no
    window is copied out until it is used. The known classes are drawn from
    every label in ``recordings`` before split_trials empties the list. A
    known class without a train window, a test side without both known and
    unknown windows, or train statistics that are not finite fail the seed
    with TrainingError before it trains."""
    split = split_known_unknown({r.gesture_label for r in recordings}, config.n_known, seed)
    part = split_trials(
        recordings, config.window_ms, config.step_ms,
        config.train_trials, config.test_trials, split,
    )
    per_class = np.bincount(part.train_windows.labels, minlength=split.n_known + 1)[1:]
    untrained = [c for c, n in zip(split.known_classes, per_class) if not n]
    if untrained:
        raise TrainingError(
            f"seed {seed}: train trials {list(config.train_trials)} give no window "
            f"for known classes {untrained}; training needs at least one"
        )
    unknown = part.test_windows.labels == UNKNOWN_LABEL
    if unknown.all() or not unknown.any():
        missing = "" if not len(unknown) else "known-class " if unknown.any() else "unknown-class "
        raise TrainingError(
            f"seed {seed}: test trials {list(config.test_trials)} give no {missing}window "
            f"for known classes {list(split.known_classes)}; "
            "open-set evaluation needs both known and unknown ones"
        )
    try:
        return standardize(part)
    except NonFiniteStatistics as e:
        raise TrainingError(f"seed {seed}: {e}") from e


def _variant_hp(config: ExperimentConfig) -> DivHyperParams:
    return replace(config.hyperparams, **dict.fromkeys(VARIANTS[config.variant], 0.0))


def baseline_softmax_train(
    partition: DatasetPartition,
    spec: EncoderSpec,
    config: TrainConfig,
    encoder_seed: int,
    head_seed: int,
    shuffle_seed: int,
):
    """Cross-entropy training of one softmax-head branch; its rejection
    score is the maximum softmax probability. Returns (branch, trace)."""
    n_classes = partition.label_split.n_known
    branch = init_branch(spec, n_classes, encoder_seed, head_seed, head="softmax")
    return branch, train([branch], softmax_objective, partition, config, shuffle_seed)


# ---------------------------------------------------------------------------
# per-seed execution
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    branches: list[BranchState]
    traces: list[list[dict[str, float]]]  # per trained run: one {term: mean} per epoch
    report: dict  # the seed's report.json row
    scored: ScoreTable
    matrices: dict


def _train_variant(config: ExperimentConfig, partition: DatasetPartition, seed: int):
    """Train the configured variant; returns (branches, traces).

    softmax and pl_baseline train one branch, the joint variants two;
    sequential_k trains sequential_k branches one after another.
    """
    encoder, input_dim = config.encoder, partition.train_windows.input_dim
    spec = EncoderSpec(input_dim, encoder.hidden_dims, encoder.feature_dim)
    n_classes = partition.label_split.n_known
    tc = config.training
    shuffle_seed = derive_seed(seed, _SHUFFLE)
    hp = _variant_hp(config)
    variant = config.variant

    if variant == "softmax":
        branch, trace = baseline_softmax_train(
            partition, spec, tc,
            derive_seed(seed, _ENC_A), derive_seed(seed, _HEAD), shuffle_seed,
        )
        return [branch], [trace]

    if variant == "sequential_k":
        seeds = [
            (derive_seed(seed, 101 + 2 * t), derive_seed(seed, 102 + 2 * t))
            for t in range(config.sequential_k)
        ]
        return train_sequential(partition, tc, hp, spec, seeds, shuffle_seed)

    streams = [(_ENC_A, _PROTO_A), (_ENC_B, _PROTO_B)]
    objective = partial(div_loss, hp=hp)
    if variant == "pl_baseline":
        streams = streams[:1]
        objective = partial(pl_objective, hp=hp)
    branches = [
        init_branch(spec, n_classes, derive_seed(seed, enc), derive_seed(seed, proto))
        for enc, proto in streams
    ]
    return branches, [train(branches, objective, partition, tc, shuffle_seed)]


def evaluate_scored(scored: ScoreTable, retention: float, seed: int) -> tuple[dict, dict]:
    """The seed's report.json row plus analysis matrices from its scored
    test set, which must hold both known and unknown windows
    (build_partition checks this before the seed trains)."""
    n_classes = scored.sims.shape[2]
    is_known = scored.known
    ks = scored.s_max[is_known]
    us = scored.s_max[~is_known]
    predicted = scored.predicted[is_known]
    true = scored.true_labels[is_known]
    thr = calibrate_threshold(ks, retention)
    matrices: dict[str, np.ndarray] = {}
    incon = None
    if scored.sims.shape[1] >= 2:
        # disagreement between the two most recently paired perspectives
        preds = scored.branch_predictions[:, -2:]
        incon = incon_metric(preds[:, 0], preds[:, 1], is_known)
        matrices["agreement_known"] = agreement_confusion(
            preds[is_known, 0], preds[is_known, 1], n_classes
        )
        matrices["agreement_unknown"] = agreement_confusion(
            preds[~is_known, 0], preds[~is_known, 1], n_classes
        )
    row = {
        "seed": seed,
        "auc": auc(ks, us),
        "acc": closed_acc(predicted, true),
        "oscr": oscr(ks, predicted == true, us),
        "incon": incon,
        "threshold": thr,
        "retention_achieved": float((ks >= thr).mean()),
        "n_known": ks.size,
        "n_unknown": us.size,
    }
    return row, matrices


def run_seed(config: ExperimentConfig, partition: DatasetPartition, seed: int) -> SeedResult:
    """Train, score and evaluate one seed on its built partition.

    The partition's train side is cleared once training is done, so it is
    freed before scoring even while the caller still holds the partition.
    The data checks are build_partition's: every known class has a train
    window, and the test side holds known and unknown windows.
    """
    branches, traces = _train_variant(config, partition, seed)
    partition.train_windows = None
    scored = score_windows([branch_score_fn(b) for b in branches], partition.test_windows)
    report, matrices = evaluate_scored(scored, config.retention, seed)
    return SeedResult(branches, traces, report, scored, matrices)


# ---------------------------------------------------------------------------
# artifacts and the full run
# ---------------------------------------------------------------------------


def _write_seed_artifacts(seed_dir: str, result: SeedResult) -> dict:
    os.makedirs(seed_dir, exist_ok=True)
    rel = {}
    write_score_dump(
        os.path.join(seed_dir, "scores.csv"), result.scored, result.report["threshold"]
    )
    rel["scores"] = "scores.csv"
    for t, trace in enumerate(result.traces):
        name = "loss_trace.csv" if len(result.traces) == 1 else f"loss_trace_branch{t+1}.csv"
        write_loss_trace(os.path.join(seed_dir, name), trace)
        rel.setdefault("loss_traces", []).append(name)
    for i, branch in enumerate(result.branches):
        if branch.prototypes is None:  # softmax head
            continue
        name = f"proximity_branch{i+1}.csv"
        write_matrix_csv(os.path.join(seed_dir, name), proximity_matrix(branch.prototypes))
        rel.setdefault("proximity_matrices", []).append(name)
    for key, mat in result.matrices.items():
        name = f"{key}.csv"
        write_matrix_csv(os.path.join(seed_dir, name), mat)
        rel[key] = name
    save_dual_checkpoint(os.path.join(seed_dir, "checkpoint.npz"), result.branches)
    rel["checkpoint"] = "checkpoint.npz"
    return rel


def run_experiment(config: ExperimentConfig, recordings=None) -> dict:
    """Execute the configured variant across all seeds, aggregate, and
    write every artifact under the config's output_dir.

    Returns the report: exactly what report.json holds. ``recordings``,
    loaded from the config when not given, is left as it was: each seed's
    build empties a shallow copy, and only a run's last seed empties a
    list the run loaded itself. A seed's model is freed once its artifacts
    are written. Per-seed training failures are recorded without aborting
    the run; the aggregate marks the failed seeds.
    """
    started = time.perf_counter()
    out_dir = config.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as f:
            f.write("ok")
        os.remove(probe)
    except OSError as e:
        raise OSError(f"output directory {out_dir!r} is not writable: {e}") from e

    owned = recordings is None
    recordings = load_dataset(config) if owned else recordings
    # a CSV set's trials are known only once it is read
    carried = sorted({r.trial_id for r in recordings})
    for name in ("train_trials", "test_trials"):
        missing = sorted(set(getattr(config, name)) - set(carried))
        if missing:
            raise ValueError(f"{name} {missing} are in no recording; they carry trials {carried}")
    if isinstance(config.dataset, CsvDataset):
        # recording i came from metadata line i + 2, as load_csv numbers them;
        # every recording a seed may route must give the first one's window
        listed = {*config.train_trials, *config.test_trials}
        first = None  # (line, window length) of the first recording in a listed trial
        for line, r in enumerate(recordings, start=2):
            where = f"{config.dataset.meta_path}: metadata line {line}"
            try:
                window_len, _ = window_geometry(r.sampling_rate, config.window_ms, config.step_ms)
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
            if r.trial_id in listed:
                first = first or (line, window_len)
                if window_len != first[1]:
                    raise ValueError(
                        f"{where}: window_ms={config.window_ms} is {window_len} samples at "
                        f"sampling_rate_hz={r.sampling_rate!r}, but {first[1]} on "
                        f"metadata line {first[0]}"
                    )
    per_seed: list[dict] = []
    artifacts: dict[str, dict] = {}
    for seed in config.seeds:
        # no seed reads the recordings after the last: unless the caller
        # passed them in, its build frees each one as soon as it is copied
        handed = recordings if owned and seed == config.seeds[-1] else list(recordings)
        try:  # no name here holds the partition: it is freed before the next seed's build
            result = run_seed(config, build_partition(config, handed, seed), seed)
        except TrainingError as e:
            per_seed.append({"seed": seed, "error": str(e)})
            continue
        per_seed.append(result.report)
        seed_dir = os.path.join(out_dir, f"seed_{seed}")
        artifacts[f"seed_{seed}"] = _write_seed_artifacts(seed_dir, result)
        del result  # the seed's model is freed before the next seed trains
    aggregate = aggregate_reports([row for row in per_seed if "error" not in row])
    aggregate["failed_seeds"] = [row["seed"] for row in per_seed if "error" in row]
    report = {
        "version": f"predin {__version__}",
        "config": config.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate,
        "artifacts": artifacts,
    }
    emit_report(report, time.perf_counter() - started, out_dir)
    return report


def emit_report(report: dict, wall_clock_s: float, out_dir: str) -> None:
    """Write report.json (deterministic) and metrics_table.csv, each atomically.

    The wall-clock time goes to a separate timing.txt sidecar so report
    files re-run bit-identically.
    """
    atomic_write_text(os.path.join(out_dir, "report.json"), report_to_json(report) + "\n")
    columns = ("seed", "auc", "acc", "oscr", "incon",
               "threshold", "retention_achieved", "n_known", "n_unknown")
    lines = [",".join(columns)]
    for row in report["per_seed"]:
        if "error" in row:
            msg = row["error"].replace(",", ";")
            lines.append(f"{row['seed']},error:{msg},,,,,,,")
            continue
        lines.append(",".join(str(row[k]) if row[k] is not None else "" for k in columns))
    agg = report["aggregate"]
    if agg.get("n_seeds"):
        lines.append(
            "mean,{auc},{acc},{oscr},{incon},,,,".format(
                auc=agg["auc_mean"],
                acc=agg["acc_mean"],
                oscr=agg["oscr_mean"],
                incon=agg["incon_mean"] if agg["incon_mean"] is not None else "",
            )
        )
    atomic_write_text(os.path.join(out_dir, "metrics_table.csv"), "\n".join(lines) + "\n")
    atomic_write_text(
        os.path.join(out_dir, "timing.txt"), f"wall_clock_s={wall_clock_s:.3f}\n"
    )


# every variant but sequential_k, which trains a chain rather than a lattice row
ABLATION_VARIANTS = tuple(v for v in VARIANTS if v != "sequential_k")


def run_ablation(base_config: ExperimentConfig) -> dict:
    """Run every ablation variant with identical seeds and tabulate.

    Returns {variant: report}; writes ablation_table.csv plus one report
    directory per variant under the base output dir. The dataset is loaded
    once and shared: no variant writes into the recordings.
    """
    recordings = load_dataset(base_config)
    reports: dict[str, dict] = {}
    for variant in ABLATION_VARIANTS:
        cfg = replace(
            base_config,
            variant=variant,
            output_dir=os.path.join(base_config.output_dir, variant),
        )
        reports[variant] = run_experiment(cfg, recordings=recordings)
    lines = ["variant,auc,oscr,acc,incon"]
    for variant, report in reports.items():
        agg = report["aggregate"]
        if not agg.get("n_seeds"):
            lines.append(f"{variant},,,,")
            continue
        incon = agg["incon_mean"] if agg["incon_mean"] is not None else ""
        lines.append(f"{variant},{agg['auc_mean']},{agg['oscr_mean']},{agg['acc_mean']},{incon}")
    atomic_write_text(
        os.path.join(base_config.output_dir, "ablation_table.csv"), "\n".join(lines) + "\n"
    )
    return reports
