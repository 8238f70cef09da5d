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
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .encoder import ACTIVATIONS, EncoderSpec
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
    DatasetPartition,
    SyntheticConfig,
    generate_synthetic,
    is_finite,
    is_int,
    load_csv,
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


# nested JSON sections -> the flat ExperimentConfig fields each holds;
# "hyperparams" is the DivHyperParams field as a dict, every other field a
# top-level key
_SECTIONS = {
    "encoder": ("hidden_dims", "feature_dim", "activation"),
    "training": ("epochs", "batch_size", "lr", "momentum"),
}
_SECTION_OF = {name: section for section, names in _SECTIONS.items() for name in names}

# dataset keys accepted per dataset type, and the ones that must be present
_DATASET_KEYS = {
    "synthetic": ({"type", "data_seed", *(f.name for f in fields(SyntheticConfig))}, set()),
    "csv": ({"type", "data_path", "meta_path"}, {"data_path", "meta_path"}),
}


def _as_object(value, section: str | None = None) -> dict:
    """value itself; ValueError naming the section when it is not an object."""
    if not isinstance(value, dict):
        where = "the config" if section is None else f"config section {section!r}"
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _check_section(section: str, keys, allowed, required=()) -> None:
    """Raise ValueError naming the section and any unknown or missing key."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config keys under {section!r}: {unknown}")
    missing = sorted(set(required) - set(keys))
    if missing:
        raise ValueError(f"missing config keys under {section!r}: {missing}")


def _synthetic_config(dataset: dict) -> SyntheticConfig:
    """The generator settings of a synthetic dataset section."""
    return SyntheticConfig(**{k: v for k, v in dataset.items() if k not in ("type", "data_seed")})


def derive_seed(base_seed: int, stream: int) -> int:
    """Stable independent sub-seed for one role of a run."""
    return int(np.random.SeedSequence([base_seed, stream]).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict = field(
        default_factory=lambda: {"type": "synthetic", "data_seed": 2024}
    )
    window_ms: float = 200.0
    step_ms: float = 50.0
    n_known: int = 6
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    variant: str = "predin"
    train_trials: tuple[int, ...] = (1, 2)
    test_trials: tuple[int, ...] = (3,)
    hyperparams: DivHyperParams = field(default_factory=DivHyperParams)
    hidden_dims: tuple[int, ...] = (256,)
    feature_dim: int = 128
    # harness defaults are the tuned desk-scale protocol: the bounded tanh
    # keeps unknown-input feature norms comparable to known ones, and the
    # plain-MLP setup needs a smaller step than deep-backbone training
    activation: str = "tanh"
    epochs: int = 100
    batch_size: int = 256
    lr: float = 0.002
    momentum: float = 0.9
    retention: float = 0.95
    sequential_k: int = 2
    output_dir: str = "runs/out"

    def __post_init__(self):
        for name in ("seeds", "train_trials", "test_trials", "hidden_dims"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(map(is_int, value)):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
            object.__setattr__(self, name, tuple(int(v) for v in value))
        for name in ("n_known", "feature_dim", "epochs", "batch_size", "sequential_k"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds) or min(self.seeds) < 0:
            raise ValueError(f"seeds must be distinct and >= 0, got {list(self.seeds)}")
        for name, choices in (("variant", VARIANTS), ("activation", ACTIVATIONS)):
            value = getattr(self, name)
            if not (isinstance(value, str) and value in choices):
                raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")
        for name in ("window_ms", "step_ms", "lr", "momentum", "retention"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0.0 < self.retention < 1.0:
            raise ValueError(f"retention must lie in (0, 1), got {self.retention}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("window_ms", "step_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, low in (
            ("n_known", 2), ("sequential_k", 1), ("feature_dim", 1),
            ("epochs", 0), ("batch_size", 1), ("lr", 0),
        ):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not all(h >= 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {list(self.hidden_dims)}")
        for name in ("train_trials", "test_trials"):
            if not getattr(self, name):
                raise ValueError(f"{name} must name at least one trial")
        shared = sorted(set(self.train_trials) & set(self.test_trials))
        if shared:
            raise ValueError(f"train_trials and test_trials share trials {shared}")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        kind = _as_object(self.dataset, "dataset").get("type", "synthetic")
        if not (isinstance(kind, str) and kind in _DATASET_KEYS):
            raise ValueError(f"unknown dataset type {kind!r}")
        _check_section("dataset", self.dataset, *_DATASET_KEYS[kind])
        if kind == "csv":
            for key in ("data_path", "meta_path"):
                if not isinstance(self.dataset[key], str):
                    raise ValueError(f"{key} must be a string, got {self.dataset[key]!r}")
        else:
            seed = self.dataset.get("data_seed", 0)  # absent: load_dataset's default
            if not (is_int(seed) and seed >= 0):
                raise ValueError(f"data_seed must be an integer >= 0, got {seed!r}")
            # generator settings, and a run the generated set cannot satisfy,
            # fail here naming the key, not mid-run
            gen = _synthetic_config(self.dataset)
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
        """The documented JSON schema: section members nested, tuples as lists."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if is_dataclass(value):
                value = asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            if f.name in _SECTION_OF:
                out.setdefault(_SECTION_OF[f.name], {})[f.name] = value
            else:
                out[f.name] = value
        return out


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from the documented JSON schema, filling defaults."""
    top = {f.name for f in fields(ExperimentConfig)} - _SECTION_OF.keys()
    unknown = sorted(_as_object(d).keys() - top - _SECTIONS.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs = {k: v for k, v in d.items() if k in top}
    hp = _as_object(kwargs.get("hyperparams", {}), "hyperparams")
    _check_section("hyperparams", hp, (f.name for f in fields(DivHyperParams)))
    kwargs["hyperparams"] = DivHyperParams(**hp)
    for section, names in _SECTIONS.items():
        values = _as_object(d.get(section, {}), section)
        _check_section(section, values, names)
        kwargs.update(values)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def load_dataset(config: ExperimentConfig):
    """Materialize recordings and the full class-id set from the config."""
    ds = config.dataset
    if ds.get("type", "synthetic") == "synthetic":
        return generate_synthetic(_synthetic_config(ds), ds.get("data_seed", 2024))
    # "csv": ExperimentConfig admits no other dataset type
    recordings = load_csv(ds["data_path"], ds["meta_path"])
    return recordings, {r.gesture_label for r in recordings}


def build_partition(config: ExperimentConfig, recordings, classes, seed: int) -> DatasetPartition:
    """Route, window and standardize one seed's train/test tables; each
    side's routed recordings are copied once and scaled in place, and no
    window is copied out until it is used."""
    split = split_known_unknown(classes, config.n_known, seed)
    part = split_trials(
        recordings, config.window_ms, config.step_ms,
        config.train_trials, config.test_trials, split,
    )
    return standardize(part)


def _encoder_spec(config: ExperimentConfig, input_dim: int) -> EncoderSpec:
    return EncoderSpec(
        input_dim=input_dim,
        hidden_dims=config.hidden_dims,
        output_dim=config.feature_dim,
        activation=config.activation,
    )


def _train_config(config: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        base_lr=config.lr,
        momentum=config.momentum,
        shuffle_seed=derive_seed(seed, _SHUFFLE),
    )


def _variant_hp(config: ExperimentConfig) -> DivHyperParams:
    return replace(config.hyperparams, **dict.fromkeys(VARIANTS[config.variant], 0.0))


def baseline_softmax_train(
    partition: DatasetPartition,
    spec: EncoderSpec,
    n_classes: int,
    config: TrainConfig,
    encoder_seed: int,
    head_seed: int,
):
    """Cross-entropy training of one softmax-head branch; its rejection
    score is the maximum softmax probability. Returns (branch, trace)."""
    branch = init_branch(
        spec, n_classes, encoder_seed, head_seed, config.base_lr, config.momentum, head="softmax"
    )
    return branch, train([branch], softmax_objective, partition, config)


# ---------------------------------------------------------------------------
# per-seed execution
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    branches: list[BranchState]
    traces: list[list[dict[str, float]]]  # per trained run: one {term: mean} per epoch
    hp: DivHyperParams
    report: dict | None = None  # the seed's report.json row
    scored: ScoreTable | None = None
    matrices: dict = field(default_factory=dict)


def _train_variant(config: ExperimentConfig, partition: DatasetPartition, seed: int) -> SeedResult:
    """Train the configured variant; returns the SeedResult skeleton.

    softmax and pl_baseline train one branch, the joint variants two;
    sequential_k trains sequential_k branches one after another.
    """
    spec = _encoder_spec(config, partition.train_windows.input_dim)
    n_classes = partition.label_split.n_known
    tc = _train_config(config, seed)
    hp = _variant_hp(config)
    variant = config.variant

    if variant == "softmax":
        branch, trace = baseline_softmax_train(
            partition, spec, n_classes, tc,
            derive_seed(seed, _ENC_A), derive_seed(seed, _HEAD),
        )
        return SeedResult(branches=[branch], traces=[trace], hp=hp)

    if variant == "sequential_k":
        seeds = [
            (derive_seed(seed, 101 + 2 * t), derive_seed(seed, 102 + 2 * t))
            for t in range(config.sequential_k)
        ]
        branches, traces = train_sequential(partition, tc, hp, spec, n_classes, seeds)
        return SeedResult(branches=branches, traces=traces, hp=hp)

    streams = [(_ENC_A, _PROTO_A), (_ENC_B, _PROTO_B)]
    objective = partial(div_loss, hp=hp)
    if variant == "pl_baseline":
        streams = streams[:1]
        objective = partial(pl_objective, hp=hp)
    branches = [
        init_branch(
            spec, n_classes, derive_seed(seed, enc), derive_seed(seed, proto),
            tc.base_lr, tc.momentum,
        )
        for enc, proto in streams
    ]
    trace = train(branches, objective, partition, tc)
    return SeedResult(branches=branches, traces=[trace], hp=hp)


def evaluate_scored(
    scored: ScoreTable, retention: float, n_classes: int, seed: int
) -> tuple[dict, dict]:
    """The seed's report.json row plus analysis matrices from its scored
    test set."""
    is_known = scored.known
    if is_known.all() or not is_known.any():
        raise ValueError("test set must contain both known and unknown samples")
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
    """
    result = _train_variant(config, partition, seed)
    partition.train_windows = None
    split = partition.label_split
    score_fns = [branch_score_fn(b) for b in result.branches]
    scored = score_windows(score_fns, partition.test_windows, split)
    report, matrices = evaluate_scored(scored, config.retention, split.n_known, seed)
    result.report = report
    result.scored = scored
    result.matrices = matrices
    return result


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
    save_dual_checkpoint(os.path.join(seed_dir, "checkpoint.npz"), result.branches, result.hp)
    rel["checkpoint"] = "checkpoint.npz"
    return rel


def run_experiment(
    config: ExperimentConfig, write_artifacts: bool = True, dataset=None
) -> dict:
    """Execute the configured variant across all seeds and aggregate.

    Returns the report: exactly what report.json holds. ``dataset`` is the
    (recordings, classes) pair of ``load_dataset``; it is loaded from the
    config when not given. Per-seed training failures are recorded without
    aborting the run; the aggregate marks the failed seeds.
    """
    started = time.perf_counter()
    out_dir = config.output_dir
    if write_artifacts:
        try:
            os.makedirs(out_dir, exist_ok=True)
            probe = os.path.join(out_dir, ".write_probe")
            with open(probe, "w") as f:
                f.write("ok")
            os.remove(probe)
        except OSError as e:
            raise OSError(f"output directory {out_dir!r} is not writable: {e}") from e

    recordings, classes = load_dataset(config) if dataset is None else dataset
    per_seed: list[dict] = []
    artifacts: dict[str, dict] = {}
    for seed in config.seeds:
        partition = build_partition(config, recordings, classes, seed)
        if seed == config.seeds[-1]:
            # no seed reads the recordings again: the last seed trains and
            # scores without them unless the caller passed them in and holds them
            del recordings
        try:
            result = run_seed(config, partition, seed)
        except TrainingError as e:
            per_seed.append({"seed": seed, "error": str(e)})
            continue
        finally:
            del partition  # the next seed's tables are built without this one's
        per_seed.append(result.report)
        if write_artifacts:
            seed_dir = os.path.join(out_dir, f"seed_{seed}")
            artifacts[f"seed_{seed}"] = _write_seed_artifacts(seed_dir, result)
    aggregate = aggregate_reports([row for row in per_seed if "error" not in row])
    aggregate["failed_seeds"] = [row["seed"] for row in per_seed if "error" in row]
    report = {
        "version": f"predin {__version__}",
        "config": config.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate,
        "artifacts": artifacts,
    }
    if write_artifacts:
        emit_report(report, time.perf_counter() - started, out_dir)
    return report


def emit_report(report: dict, wall_clock_s: float, out_dir: str) -> None:
    """Write report.json (deterministic) and metrics_table.csv, each atomically.

    The wall-clock time goes to a separate timing.txt sidecar so report
    files re-run bit-identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "report.json"), report_to_json(report) + "\n")
    lines = ["seed,auc,acc,oscr,incon,threshold,retention_achieved,n_known,n_unknown"]
    for row in report["per_seed"]:
        if "error" in row:
            msg = row["error"].replace(",", ";")
            lines.append(f"{row['seed']},error:{msg},,,,,,,")
            continue
        lines.append(
            ",".join(
                str(row[k]) if row[k] is not None else ""
                for k in (
                    "seed", "auc", "acc", "oscr", "incon",
                    "threshold", "retention_achieved", "n_known", "n_unknown",
                )
            )
        )
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


ABLATION_VARIANTS = ("softmax", "pl_baseline", "dual", "dual_trip", "predin_wo_trip", "predin")


def run_ablation(base_config: ExperimentConfig, write_artifacts: bool = True) -> dict:
    """Run every ablation variant with identical seeds and tabulate.

    Returns {variant: report}; writes ablation_table.csv plus one report
    directory per variant under the base output dir. The dataset is loaded
    once and shared: no variant writes into the recordings.
    """
    dataset = load_dataset(base_config)
    reports: dict[str, dict] = {}
    for variant in ABLATION_VARIANTS:
        cfg = replace(
            base_config,
            variant=variant,
            output_dir=os.path.join(base_config.output_dir, variant),
        )
        reports[variant] = run_experiment(cfg, write_artifacts=write_artifacts, dataset=dataset)
    if write_artifacts:
        lines = ["variant,auc,oscr,acc,incon"]
        for variant, report in reports.items():
            agg = report["aggregate"]
            if not agg.get("n_seeds"):
                lines.append(f"{variant},,,,")
                continue
            incon = agg["incon_mean"] if agg["incon_mean"] is not None else ""
            lines.append(
                f"{variant},{agg['auc_mean']},{agg['oscr_mean']},{agg['acc_mean']},{incon}"
            )
        os.makedirs(base_config.output_dir, exist_ok=True)
        atomic_write_text(
            os.path.join(base_config.output_dir, "ablation_table.csv"),
            "\n".join(lines) + "\n",
        )
    return reports
