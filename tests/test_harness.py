import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from predin import inconsistency
from predin.cli import main as cli_main
from predin.encoder import EncoderSpec, init_encoder
from predin.inconsistency import DivHyperParams, TrainConfig, TrainingError, branch_score_fn
from predin.harness import (
    ABLATION_VARIANTS,
    VARIANTS,
    EncoderConfig,
    ExperimentConfig,
    _variant_hp,
    _write_seed_artifacts,
    build_partition,
    config_from_dict,
    evaluate_scored,
    load_config,
    load_dataset,
    run_ablation,
    run_experiment,
    run_seed,
)
from predin.scoring import score_windows, write_score_dump
from predin.signals import CsvDataset, SignalRecording, SyntheticConfig, split_known_unknown

from oracles import assert_checkpoint_holds, branches_from_checkpoint


TINY_DATASET = SyntheticConfig(
    n_classes=5,
    channels=2,
    trials=3,
    recording_ms=450.0,
    sampling_rate_hz=400.0,
    separation=1.5,
    noise_scale=0.4,
    data_seed=99,
)


SECTIONS = {"encoder": EncoderConfig, "training": TrainConfig}


def tiny_config(**overrides):
    """The tiny set's config; a keyword that names a field of a SECTIONS
    type goes into that section."""
    base = dict(
        dataset=TINY_DATASET,
        window_ms=200.0,
        step_ms=50.0,
        n_known=3,
        seeds=(1,),
        variant="predin",
        hidden_dims=(16,),
        feature_dim=8,
        epochs=4,
        batch_size=64,
        lr=0.002,
        output_dir="unused",
    )
    base.update(overrides)
    for section, kind in SECTIONS.items():
        names = {f.name for f in dataclasses.fields(kind)} & base.keys()
        base[section] = kind(**{name: base.pop(name) for name in names})
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(seeds=(3, 4), variant="dual")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(path)
        assert loaded == dataclasses.replace(cfg)

    def test_every_field_off_default_round_trips(self):
        cfg = tiny_config(
            dataset=CsvDataset(data_path="a.csv", meta_path="b.csv"),
            window_ms=150.0, step_ms=25.0, seeds=(9, 8), variant="dual_trip",
            train_trials=(2,), test_trials=(1, 3),
            hyperparams=DivHyperParams(0.5, 2.0, 0.25, 0.1, 2.0),
            hidden_dims=(8, 4), activation="relu", batch_size=32, lr=0.01, momentum=0.5,
            retention=0.9, sequential_k=3,
        )
        default = ExperimentConfig()
        for f in dataclasses.fields(cfg):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for section in SECTIONS:
            for f in dataclasses.fields(getattr(cfg, section)):
                got, want = (getattr(getattr(c, section), f.name) for c in (cfg, default))
                assert got != want, f"{section}.{f.name}"
        echo = json.loads(json.dumps(cfg.to_dict()))
        assert echo["encoder"] == {"hidden_dims": [8, 4], "feature_dim": 8, "activation": "relu"}
        assert echo["training"] == {"epochs": 4, "batch_size": 32, "lr": 0.01, "momentum": 0.5}
        assert echo["hyperparams"] == dataclasses.asdict(cfg.hyperparams)
        assert config_from_dict(echo) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"variant": "predin", "typo_field": 1})

    def test_unknown_section_keys_rejected(self):
        with pytest.raises(ValueError, match=r"under 'training': \['epoch'\]"):
            config_from_dict({"training": {"epoch": 3}})
        with pytest.raises(ValueError, match=r"under 'encoder': \['hidden'\]"):
            config_from_dict({"encoder": {"hidden": [8]}})
        with pytest.raises(ValueError, match=r"under 'hyperparams': \['gama'\]"):
            config_from_dict({"hyperparams": {"gama": 1.0}})
        with pytest.raises(ValueError, match=r"unknown config keys under 'dataset': \['n_clases'\]"):
            config_from_dict({"dataset": {"type": "synthetic", "n_clases": 4}})
        csv = {"type": "csv", "data_path": "signal.csv", "meta_path": "meta.csv"}
        with pytest.raises(ValueError, match=r"missing config keys under 'dataset': \['data_path'\]"):
            config_from_dict({"dataset": {"type": "csv", "meta_path": "meta.csv"}})
        with pytest.raises(ValueError, match=r"unknown config keys under 'dataset': \['n_classes'\]"):
            config_from_dict({"dataset": dict(csv, n_classes=4)})
        with pytest.raises(ValueError, match="unknown dataset type 'hdf5'"):
            config_from_dict({"dataset": {"type": "hdf5"}})

    @pytest.mark.parametrize(
        "text, key",
        [('{"seeds": [1], "seeds": [2]}', "seeds"),
         ('{"training": {"epochs": 5, "epochs": 0}}', "epochs")],
        ids=["top_level", "in_section"],
    )
    def test_duplicate_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"duplicate config key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("retention", 0.0),
            ("retention", 1.0),
            ("n_known", 1),
            ("window_ms", 0.0),
            ("step_ms", -50.0),
            ("sequential_k", 0),
            ("epochs", -1),
            ("batch_size", 0),
            ("lr", -1.0),
            ("lr", float("nan")),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("momentum", float("nan")),
            ("feature_dim", 0),
            ("hidden_dims", (16, 0)),
            ("activation", "sigmoid"),
            ("seeds", (1, 1)),
            ("train_trials", ()),
            ("test_trials", ()),
            ("test_trials", (2, 3)),  # trial 2 is also a train trial
            ("seeds", (1.5, 2.7)),
            ("seeds", (True, 2)),
            ("seeds", 5),
            ("train_trials", (1.0,)),
            ("test_trials", ("3",)),
            ("hidden_dims", (8.5,)),
            ("feature_dim", 8.0),
            ("epochs", 2.5),
            ("batch_size", True),
            ("n_known", 3.7),
            ("sequential_k", 2.5),
            ("seeds", (3, -1)),
            ("window_ms", "200"),
            ("window_ms", float("inf")),
            ("step_ms", True),
            ("lr", "0.1"),
            ("lr", float("inf")),
            ("momentum", "0.5"),
            ("retention", "0.9"),
            ("variant", ["predin"]),
            ("variant", ""),
            ("activation", ["tanh"]),
            ("output_dir", None),
            ("output_dir", ""),
            ("output_dir", 3),
            # unsatisfiable on the 3-trial, 450 ms, 400 Hz, 5-class tiny set
            ("train_trials", (7,)),
            ("train_trials", (0, 1)),
            ("test_trials", (9,)),
            ("window_ms", 5000.0),
            ("window_ms", 1.0),
            ("step_ms", 1.0),
            ("n_known", 5),
            # a 401-digit integer overflows a float
            pytest.param("window_ms", 10**400, id="window_ms-401_digits"),
            pytest.param("lr", 10**400, id="lr-401_digits"),
            ("seeds", ()),
            # finite, but no finite number of samples at the set's rate
            ("window_ms", 1e308),
            ("step_ms", 1e308),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("section", ["dataset", "hyperparams", "encoder", "training"])
    @pytest.mark.parametrize("value", [None, [], 3])
    def test_non_object_section_rejected(self, section, value):
        with pytest.raises(ValueError, match=f"section '{section}' must be a JSON object"):
            config_from_dict({section: value})

    def test_dataset_built_from_python_must_be_its_dataclass(self):
        with pytest.raises(ValueError, match="^dataset must be a SyntheticConfig or CsvDataset, got dict$"):
            ExperimentConfig(dataset={"type": "csv"})

    def test_non_object_config_rejected(self):
        with pytest.raises(ValueError, match="the config must be a JSON object, got list"):
            config_from_dict([])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_classes", 2),
            ("n_classes", 5.0),
            ("channels", 0),
            ("channels", 2.5),
            ("trials", 0),
            ("trials", False),
            ("recording_ms", -5.0),
            ("recording_ms", float("inf")),
            ("sampling_rate_hz", 0),
            ("separation", float("nan")),
            ("osc_scale", float("inf")),
            ("noise_scale", "0.4"),
            ("smooth_samples", -1),
            ("type", ["x"]),
            ("data_seed", 1.5),
            ("data_seed", -3),
            ("data_seed", "7"),
            ("data_seed", True),
            pytest.param("recording_ms", 10**400, id="recording_ms-401_digits"),
            ("recording_ms", 1e308),
            ("sampling_rate_hz", 1e308),
        ],
    )
    def test_invalid_synthetic_setting_rejected_when_built(self, key, value):
        with pytest.raises(ValueError, match=key):
            config_from_dict({"dataset": dict(dataclasses.asdict(TINY_DATASET), **{key: value})})

    def test_csv_dataset_checked_when_loaded(self):
        # trials and recording lengths of a CSV set are known only once it is read
        csv = {"type": "csv", "data_path": "signal.csv", "meta_path": "meta.csv"}
        cfg = config_from_dict({"dataset": csv, "train_trials": [7], "window_ms": 5000.0})
        assert cfg.train_trials == (7,)

    @pytest.mark.parametrize("key", ["data_path", "meta_path"])
    def test_non_string_csv_path_rejected(self, key):
        dataset = {"type": "csv", "data_path": "a.csv", "meta_path": "b.csv", key: 5}
        with pytest.raises(ValueError, match=key):
            config_from_dict({"dataset": dataset})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta", "1"),
            ("beta", True),
            ("gamma", [1.0]),
            ("m1", float("inf")),
            ("m2", None),
        ],
    )
    def test_invalid_hyperparam_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            config_from_dict({"hyperparams": {key: value}})

    def test_integer_values_echo_as_integers(self):
        cfg = config_from_dict(
            {"window_ms": 200, "training": {"lr": 1}, "hyperparams": {"beta": 2}}
        )
        echo = json.dumps(cfg.to_dict())
        assert '"window_ms": 200,' in echo
        assert '"lr": 1,' in echo
        assert '"beta": 2,' in echo

    def test_invalid_section_value_rejected_when_loaded(self):
        with pytest.raises(ValueError, match="momentum"):
            config_from_dict(json.loads('{"training": {"momentum": NaN}}'))
        with pytest.raises(ValueError, match="activation"):
            config_from_dict({"encoder": {"activation": "sigmoid"}})

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            DivHyperParams(beta=-0.1)
        with pytest.raises(ValueError, match="beta"):
            config_from_dict({"hyperparams": {"beta": -0.1}})

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="m1"):
            config_from_dict(json.loads('{"hyperparams": {"m1": NaN}}'))

    @pytest.mark.parametrize(
        "key, value", [("compactness_form", "huber_sq"), ("epsilon_log", 1e-12)]
    )
    def test_removed_hyperparam_key_rejected(self, key, value):
        # an old config's implementation choices, at their former defaults
        for variant in ("softmax", "predin"):
            with pytest.raises(ValueError) as err:
                config_from_dict({"variant": variant, "hyperparams": {key: value}})
            assert str(err.value) == f"unknown config keys under 'hyperparams': [{key!r}]"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            tiny_config(variant="quadruple")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_config(seeds=())

    def test_defaults_fill(self):
        cfg = config_from_dict({})
        assert cfg.variant == "predin"
        assert cfg.retention == 0.95
        assert cfg.hyperparams.m1 == 0.5
        assert cfg.hyperparams.m2 == 1.0


class TestVariantLattice:
    @pytest.mark.parametrize(
        "variant, gamma, alpha",
        [
            ("softmax", 2.0, 3.0),
            ("pl_baseline", 2.0, 3.0),
            ("dual", 0.0, 0.0),
            ("dual_trip", 0.0, 3.0),
            ("predin_wo_trip", 2.0, 0.0),
            ("predin", 2.0, 3.0),
            ("sequential_k", 2.0, 3.0),
        ],
    )
    def test_variant_zeroes_its_weights(self, variant, gamma, alpha):
        hp = DivHyperParams(beta=0.5, gamma=2.0, alpha=3.0, m1=0.2)
        got = _variant_hp(tiny_config(variant=variant, hyperparams=hp))
        assert got == dataclasses.replace(hp, gamma=gamma, alpha=alpha)

    def test_predin_with_zero_weights_equals_dual(self):
        hp = dict(gamma=0.0, alpha=0.0)
        cfg_predin = tiny_config(variant="predin")
        cfg_predin = dataclasses.replace(
            cfg_predin, hyperparams=dataclasses.replace(cfg_predin.hyperparams, **hp)
        )
        cfg_dual = dataclasses.replace(cfg_predin, variant="dual")
        recordings = load_dataset(cfg_predin)
        r_predin = run_seed(cfg_predin, build_partition(cfg_predin, list(recordings), 1), 1)
        r_dual = run_seed(cfg_dual, build_partition(cfg_dual, recordings, 1), 1)
        assert r_predin.report == r_dual.report

    def test_dual_branch_a_equals_pl_baseline(self):
        cfg_dual = tiny_config(variant="dual")
        cfg_pl = dataclasses.replace(cfg_dual, variant="pl_baseline")
        recordings = load_dataset(cfg_dual)
        dual = run_seed(cfg_dual, build_partition(cfg_dual, list(recordings), 1), 1)
        pl = run_seed(cfg_pl, build_partition(cfg_pl, recordings, 1), 1)
        assert len(dual.scored) == len(pl.scored)
        np.testing.assert_array_equal(dual.scored.sims[:, 0], pl.scored.sims[:, 0])

    def test_pl_baseline_artifacts_are_dual_branch_a(self, tmp_path):
        # a reuse of pl_baseline as dual's branch a rests on this: both draw
        # branch a from the same seeds, and dual trains it on the PL term alone
        dirs = {}
        for variant in ("pl_baseline", "dual"):
            dirs[variant] = tmp_path / variant
            run_experiment(tiny_config(variant=variant, seeds=(1, 2), output_dir=str(dirs[variant])))
        for seed in (1, 2):
            pl, dual = (np.load(dirs[v] / f"seed_{seed}" / "checkpoint.npz") for v in dirs)
            branch_a = [k for k in pl.files if k.startswith("b0_p")]
            assert len(branch_a) == 5  # two layers' weights and biases, and the prototypes
            assert branch_a == [k for k in dual.files if k.startswith("b0_p")]
            for key in branch_a:
                assert pl[key].tobytes() == dual[key].tobytes(), key
            pl_a = []
            for v in dirs:
                header, *rows = (dirs[v] / f"seed_{seed}" / "loss_trace.csv").read_text().split()
                col = header.split(",").index("pl_a")
                pl_a.append([row.split(",")[col] for row in rows])
            assert len(pl_a[0]) == 4 and pl_a[0] == pl_a[1]


class TestSoftmaxBaseline:
    def test_untrained_zero_head_gives_uniform_smax(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), output_dim=3, activation="relu")
        enc = init_encoder(spec, seed=0)
        head = [np.zeros((5, 3)), np.zeros(5)]
        branch = inconsistency.BranchState(encoder=enc, head=head)
        probs = branch_score_fn(branch)(np.ones((2, 4)))
        np.testing.assert_allclose(probs, 0.2)
        np.testing.assert_allclose(probs.max(axis=1), 1 / 5)

    def test_trains_and_scores(self):
        cfg = tiny_config(variant="softmax", epochs=10)
        recordings = load_dataset(cfg)
        result = run_seed(cfg, build_partition(cfg, recordings, 1), 1)
        assert result.report["acc"] > 0.5
        # softmax scores are probabilities
        assert ((0.0 <= result.scored.s_max) & (result.scored.s_max <= 1.0)).all()
        assert result.report["incon"] is None


class TestRunExperiment:
    def test_report_and_artifacts(self, tmp_path):
        cfg = tiny_config(seeds=(1, 2), output_dir=str(tmp_path / "out"))
        record = run_experiment(cfg)
        assert record["aggregate"]["n_seeds"] == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["seeds"] == [1, 2]
        # numeric fields survive the round trip exactly
        assert report["per_seed"][0]["auc"] == record["per_seed"][0]["auc"]
        for seed in (1, 2):
            seed_dir = tmp_path / "out" / f"seed_{seed}"
            for name in ("scores.csv", "loss_trace.csv", "checkpoint.npz",
                         "proximity_branch1.csv", "agreement_known.csv"):
                assert (seed_dir / name).exists(), name

    @pytest.mark.parametrize("variant", ["softmax", "pl_baseline", "predin", "sequential_k"])
    def test_returns_its_report_json(self, tmp_path, variant):
        cfg = tiny_config(variant=variant, seeds=(1, 2), epochs=2, output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report == json.loads((tmp_path / "report.json").read_text())

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = tiny_config(seeds=(1,), output_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        first = (tmp_path / "out" / "report.json").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_failed_seed_recorded_and_run_continues(self, tmp_path):
        # magnitudes grow by ~1e6 per step, so 40 epochs guarantees overflow
        cfg = tiny_config(seeds=(1, 2), lr=1e6, epochs=40, output_dir=str(tmp_path / "out"))
        with np.errstate(over="ignore", invalid="ignore"):
            record = run_experiment(cfg)
        assert record["aggregate"]["failed_seeds"] == [1, 2]
        assert all("error" in row for row in record["per_seed"])
        assert (tmp_path / "out" / "report.json").exists()

    def test_non_finite_gradient_fails_only_its_seed(self, tmp_path, monkeypatch):
        # the first triplet gradient of the run (seed 1) is NaN; the loss stays finite
        real = inconsistency.triplet_loss
        calls = []

        def poisoned(*args):
            loss, dz, dp = real(*args)
            calls.append(1)
            if len(calls) == 1:
                dp = np.full_like(dp, np.nan)
            return loss, dz, dp

        monkeypatch.setattr(inconsistency, "triplet_loss", poisoned)
        cfg = tiny_config(seeds=(1, 2), output_dir=str(tmp_path / "out"))
        record = run_experiment(cfg)
        assert record["aggregate"]["failed_seeds"] == [1]
        assert "epoch 0, batch 0" in record["per_seed"][0]["error"]
        assert record["per_seed"][1]["auc"] is not None

    @pytest.mark.filterwarnings("error")
    def test_overflowing_recording_fails_only_the_seeds_that_train_on_it(self, tmp_path):
        # a finite trial-1 recording scaled by 1e154 overflows its channels'
        # variance; each seed that trains on its class must fail naming
        # itself, not report chance-level metrics, and no numpy warning
        # escapes on the way
        cfg = tiny_config(seeds=(1, 2, 3, 4), epochs=1, output_dir=str(tmp_path))
        recordings = load_dataset(cfg)
        scaled = next(r for r in recordings if r.trial_id == 1)
        scaled.samples *= 1e154
        report = run_experiment(cfg, recordings=recordings)
        classes = {r.gesture_label for r in recordings}
        known = {s: split_known_unknown(classes, cfg.n_known, s).known_classes for s in cfg.seeds}
        failing = [s for s in cfg.seeds if scaled.gesture_label in known[s]]
        assert 0 < len(failing) < len(cfg.seeds)
        assert report["aggregate"]["failed_seeds"] == failing
        for row in report["per_seed"]:
            if row["seed"] in failing:
                assert row["error"] == (
                    f"seed {row['seed']}: cannot standardize: the training mean or std of "
                    "channels [0, 1] is not finite (their samples overflow float64)")
            else:
                assert all(np.isfinite(row[k]) for k in ("auc", "acc", "oscr"))

    def test_unwritable_output_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cfg = tiny_config(output_dir=str(target / "sub"))
        with pytest.raises(OSError):
            run_experiment(cfg)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip_bitwise(self, tmp_path, variant):
        # np.load gives back every trained array bitwise. softmax and
        # pl_baseline are K=1, the joint variants K=2, sequential_k K=3 here;
        # each branch stores two layers' weights and biases, then a one-array
        # prototype head or a two-array softmax head
        cfg = tiny_config(variant=variant, sequential_k=3, epochs=2)
        recordings = load_dataset(cfg)
        result = run_seed(cfg, build_partition(cfg, recordings, 1), 1)
        rel = _write_seed_artifacts(str(tmp_path), result)
        assert rel["checkpoint"] == "checkpoint.npz"
        n_branches = (
            1 if variant in ("softmax", "pl_baseline") else 3 if variant == "sequential_k" else 2
        )
        n_head = 2 if variant == "softmax" else 1
        path = tmp_path / "checkpoint.npz"
        with np.load(path, allow_pickle=False) as data:
            assert set(data.files) == {"format", "n_branches"} | {
                f"b{k}_{name}"
                for k in range(n_branches)
                for name in ("activation", "n_head", *(f"p{i}" for i in range(4 + n_head)))
            }
            for k in range(n_branches):
                assert int(data[f"b{k}_n_head"]) == n_head
        assert len(result.branches) == n_branches
        assert_checkpoint_holds(path, result.branches)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scores_rebuilt_from_the_checkpoint_alone(self, tmp_path, variant):
        # the checkpoint holds all that scoring reads: its branches, rebuilt
        # without the package's writer, score each seed's standardized test
        # windows (built from report.json's config echo) to scores.csv's bytes
        out = tmp_path / "run"
        run_experiment(tiny_config(variant=variant, sequential_k=3, seeds=(1, 2), epochs=2,
                                   output_dir=str(out)))
        report = json.loads((out / "report.json").read_text())
        cfg = config_from_dict(report["config"])
        recordings = load_dataset(cfg)
        for row in report["per_seed"]:
            seed_dir = out / f"seed_{row['seed']}"
            branches = branches_from_checkpoint(seed_dir / "checkpoint.npz")
            n_branches = {"softmax": 1, "pl_baseline": 1, "sequential_k": 3}.get(variant, 2)
            n_head = 2 if variant == "softmax" else 1
            assert [len(b.head) for b in branches] == [n_head] * n_branches
            part = build_partition(cfg, list(recordings), row["seed"])
            scored = score_windows([branch_score_fn(b) for b in branches], part.test_windows)
            write_score_dump(tmp_path / "scores.csv", scored, row["threshold"])
            assert (tmp_path / "scores.csv").read_bytes() == (seed_dir / "scores.csv").read_bytes()


class TestAblation:
    def test_table_covers_all_variants(self, tmp_path):
        cfg = tiny_config(seeds=(1,), epochs=3, output_dir=str(tmp_path / "abl"))
        records = run_ablation(cfg)
        assert set(records) == set(ABLATION_VARIANTS)
        table = (tmp_path / "abl" / "ablation_table.csv").read_text().strip().splitlines()
        assert table[0] == "variant,auc,oscr,acc,incon"
        assert len(table) == 1 + len(ABLATION_VARIANTS)
        for variant in ABLATION_VARIANTS:
            assert (tmp_path / "abl" / variant / "report.json").exists()

    def test_dataset_loaded_once_and_left_intact(self, monkeypatch, tmp_path):
        from predin import harness

        calls = []
        original = harness.generate_synthetic

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "generate_synthetic", counting)
        cfg = tiny_config(seeds=(1,), epochs=2, output_dir=str(tmp_path / "abl"))
        records = run_ablation(cfg)
        assert len(calls) == 1
        # the last variant ran on the shared recordings after five others
        alone = run_experiment(
            dataclasses.replace(cfg, variant="predin", output_dir=str(tmp_path / "alone"))
        )
        assert records["predin"]["per_seed"] == alone["per_seed"]


class TestBuildPartition:
    def test_peak_memory_is_the_routed_tables(self):
        cfg = tiny_config(dataset=dataclasses.replace(TINY_DATASET, channels=4, recording_ms=3000.0,
                                                      sampling_rate_hz=2000.0))
        recordings = load_dataset(cfg)
        tracemalloc.start()
        try:
            part = build_partition(cfg, recordings, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        train, test = part.train_windows, part.test_windows
        tables = sum(
            getattr(w, f).nbytes for w in (train, test)
            for f in ("signal", "starts", "labels")
        )
        channel_row = len(train) * train.window_len * train.signal.dtype.itemsize
        # copying every window out, or windowing every recording before
        # routing, would add the windows once more
        assert peak <= tables + channel_row + 256 * 1024


    def test_class_set_is_every_label_it_is_handed(self):
        # label 11 lies only in trial 4, which is neither train nor test; the
        # known classes are still drawn from all four labels, read before
        # split_trials empties the list, and the seed fails naming the known
        # class that no train trial carries
        rng = np.random.default_rng(0)
        recordings = [
            SignalRecording(rng.standard_normal((2, 180)), 400.0, label, trial, 1)
            for label, trial in [(c, t) for c in (2, 5, 9) for t in (1, 2, 3)] + [(11, 4)]
        ]
        assert split_known_unknown({2, 5, 9, 11}, 2, 2).known_classes == (9, 11)
        with pytest.raises(TrainingError, match=r"give no window for known classes \[11\];"):
            build_partition(tiny_config(n_known=2), recordings, 2)  # the routed labels give (2, 9)
        assert recordings == []


class TestRunSeed:
    def test_train_table_released_before_scoring(self, monkeypatch):
        # the caller's local keeps the partition alive through the call, so
        # run_seed has to let go of the train side itself
        from predin import harness

        alive_at_scoring = []
        score = harness.score_windows

        def checking_score(*args):
            alive_at_scoring.append(train_signal() is not None)
            return score(*args)

        monkeypatch.setattr(harness, "score_windows", checking_score)
        cfg = tiny_config(epochs=1)
        recordings = load_dataset(cfg)
        partition = build_partition(cfg, recordings, 1)
        train_signal = weakref.ref(partition.train_windows.signal)
        result = run_seed(cfg, partition, 1)
        assert alive_at_scoring == [False]
        assert result.report is not None


class TestRecordingsReleased:
    """run_experiment frees the recordings it loaded itself while the last
    seed's partition is built; earlier seeds, and a caller that passes the
    recordings in, keep them."""

    @staticmethod
    def _watch(monkeypatch):
        """Weak refs to every loaded recording's samples, and how many of
        them are alive at each call to standardize and to train."""
        from predin import harness

        refs, alive_at_standardize, alive_at_train = [], [], []
        load, standardize, train = harness.load_dataset, harness.standardize, harness.train

        def capturing_load(config):
            recordings = load(config)
            refs.extend(weakref.ref(r.samples) for r in recordings)
            return recordings

        def checking_standardize(*args):
            alive_at_standardize.append(sum(ref() is not None for ref in refs))
            return standardize(*args)

        def checking_train(*args):
            alive_at_train.append(sum(ref() is not None for ref in refs))
            return train(*args)

        monkeypatch.setattr(harness, "load_dataset", capturing_load)
        monkeypatch.setattr(harness, "standardize", checking_standardize)
        monkeypatch.setattr(harness, "train", checking_train)
        return refs, alive_at_standardize, alive_at_train

    def test_single_seed_trains_without_recordings(self, monkeypatch, tmp_path):
        refs, _, alive_at_train = self._watch(monkeypatch)
        run_experiment(tiny_config(seeds=(1,), epochs=1, output_dir=str(tmp_path)))
        assert len(refs) == 15
        assert alive_at_train == [0]

    def test_single_seed_frees_recordings_before_standardize(self, monkeypatch, tmp_path):
        refs, alive_at_standardize, _ = self._watch(monkeypatch)
        run_experiment(tiny_config(seeds=(1,), epochs=1, output_dir=str(tmp_path)))
        assert len(refs) == 15
        assert alive_at_standardize == [0]

    def test_only_the_last_seed_trains_without_recordings(self, monkeypatch, tmp_path):
        refs, alive_at_standardize, alive_at_train = self._watch(monkeypatch)
        run_experiment(tiny_config(seeds=(1, 2), epochs=1, output_dir=str(tmp_path)))
        assert alive_at_standardize == [len(refs), 0]
        assert alive_at_train == [len(refs), 0]

    def test_ablation_keeps_the_shared_recordings(self, monkeypatch, tmp_path):
        refs, alive_at_standardize, alive_at_train = self._watch(monkeypatch)
        run_ablation(tiny_config(seeds=(1,), epochs=1, output_dir=str(tmp_path)))
        assert alive_at_standardize == [len(refs)] * len(ABLATION_VARIANTS)
        assert alive_at_train == [len(refs)] * len(ABLATION_VARIANTS)

    def test_caller_dataset_left_intact(self, tmp_path):
        cfg = tiny_config(seeds=(1, 2), epochs=1, output_dir=str(tmp_path))
        recordings = load_dataset(cfg)
        before = [(id(r), r.samples.tobytes()) for r in recordings]
        run_experiment(cfg, recordings=recordings)
        assert [(id(r), r.samples.tobytes()) for r in recordings] == before


class TestSeedModelReleased:
    def test_no_branch_of_an_earlier_seed_alive_when_the_next_trains(self, monkeypatch, tmp_path):
        # run_experiment lets go of a seed's SeedResult (every branch's
        # weights and velocities) once its artifacts are written, so a
        # multi-seed run's peak holds one seed's model, not two
        from predin import harness

        refs, alive_at_train = [], []
        train = harness.train

        def checking_train(branches, *args):
            gc.collect()  # only a live reference may keep a branch
            alive_at_train.append(sum(ref() is not None for ref in refs))
            refs.extend(weakref.ref(b) for b in branches)
            return train(branches, *args)

        monkeypatch.setattr(harness, "train", checking_train)
        run_experiment(tiny_config(seeds=(1, 2, 3), epochs=1, output_dir=str(tmp_path)))
        assert len(refs) == 6
        assert alive_at_train == [0, 0, 0]


class TestSequentialVariant:
    def test_k_branches_scored(self):
        cfg = tiny_config(variant="sequential_k", sequential_k=3, epochs=3)
        recordings = load_dataset(cfg)
        result = run_seed(cfg, build_partition(cfg, recordings, 1), 1)
        assert result.scored.sims.shape[1] == 3
        assert len(result.branches) == 3

    @staticmethod
    def _first_two_scored(cfg, partition, result, seed):
        """The first two branches of a sequential run, scored and evaluated alone."""
        fns = [branch_score_fn(b) for b in result.branches[:2]]
        scored = score_windows(fns, partition.test_windows)
        return scored, evaluate_scored(scored, cfg.retention, seed)[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_two_branches_are_the_k2_run(self, seed):
        # each branch trains against its frozen predecessor only, so a K=5
        # run's first two branches, and their scores, are the K=2 run's
        five = tiny_config(variant="sequential_k", sequential_k=5, epochs=2, seeds=(seed,))
        two = dataclasses.replace(five, sequential_k=2)
        recordings = load_dataset(five)
        partition = build_partition(five, list(recordings), seed)
        result = run_seed(five, partition, seed)
        alone = run_seed(two, build_partition(two, recordings, seed), seed)
        for a, b in zip(result.branches[:2], alone.branches, strict=True):
            for x, y in zip(a.arrays(), b.arrays(), strict=True):
                assert x.tobytes() == y.tobytes()
        scored, report = self._first_two_scored(five, partition, result, seed)
        for name in ("sims", "s_max", "predicted", "true_labels"):
            assert getattr(scored, name).tobytes() == getattr(alone.scored, name).tobytes()
        assert report == alone.report

    def test_more_perspectives_help_on_average(self):
        # directional trend on the default dataset: K=5 vs K=2 mean AUC; the
        # K=2 AUC is that of the K=5 run's first two branches, which are the
        # K=2 run's (test_first_two_branches_are_the_k2_run)
        aucs = {2: [], 5: []}
        for seed in (1, 2, 3):
            cfg = ExperimentConfig(variant="sequential_k", sequential_k=5, output_dir="unused")
            recordings = load_dataset(cfg)
            partition = build_partition(cfg, recordings, seed)
            result = run_seed(cfg, partition, seed)
            aucs[5].append(result.report["auc"])
            aucs[2].append(self._first_two_scored(cfg, partition, result, seed)[1]["auc"])
        assert np.mean(aucs[5]) >= np.mean(aucs[2])


class TestSoftmaxOnDefaultDataset:
    def test_separable_data_reaches_high_acc(self):
        cfg = ExperimentConfig(variant="softmax", output_dir="unused")
        recordings = load_dataset(cfg)
        result = run_seed(cfg, build_partition(cfg, recordings, 1), 1)
        assert result.report["acc"] >= 0.95


class TestZeroSeparation:
    def test_downstream_accuracy_near_chance(self):
        ds = dataclasses.replace(TINY_DATASET, separation=0.0)
        cfg = tiny_config(dataset=ds, variant="pl_baseline", epochs=10)
        recordings = load_dataset(cfg)
        result = run_seed(cfg, build_partition(cfg, recordings, 1), 1)
        # 3 known classes: chance is 1/3
        assert result.report["acc"] < 0.55


class TestCli:
    def _write_config(self, tmp_path):
        cfg = tiny_config(seeds=(1,), output_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def test_run_command(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert cli_main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "seed 1:" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        path = self._write_config(tmp_path)
        out2 = tmp_path / "other"
        assert cli_main(["run", "--config", str(path), "--seeds", "2", "--out", str(out2)]) == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["config"]["seeds"] == [2]

    @pytest.mark.parametrize(
        "command, flag, value, match",
        [
            ("run", "--seeds", "", "--seeds"),
            ("run", "--seeds", "1.5", "--seeds"),
            ("run", "--seeds", "1,,2", "--seeds"),
            ("run", "--seeds", "1,1", "seeds must be distinct"),
            ("run", "--variant", "", "variant"),
            ("run", "--variant", "quadruple", "variant"),
            ("run", "--out", "", "output_dir"),
            ("ablation", "--seeds", "", "--seeds"),
            ("ablation", "--out", "", "output_dir"),
        ],
    )
    def test_bad_override_rejected(self, tmp_path, capsys, command, flag, value, match):
        path = self._write_config(tmp_path)
        assert cli_main([command, "--config", str(path), flag, value]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert match in err["message"]
        assert not (tmp_path / "out").exists()

    def test_check_gradients_command(self, capsys):
        assert cli_main(["check-gradients", "--seeds", "1", "--coords", "60"]) == 0
        assert "max_rel_error" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["--seeds", "0"], ["--seeds", "1", "--coords", "0"]])
    def test_check_gradients_fails_when_it_checks_nothing(self, capsys, args):
        assert cli_main(["check-gradients", *args]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()[:-1]  # one line per loss, then the worst error
        assert len(lines) == 8
        assert all("checked=0 " in line and line.endswith("[FAIL]") for line in lines)
        err = json.loads(captured.err.strip())
        assert err["error"] == "RuntimeError"
        assert err["message"].startswith("gradient check failed for ['dce', 'compactness',")
        assert "a loss with no checked coordinate fails" in err["message"]

    @pytest.mark.parametrize("flag", ["--seeds", "--coords"])
    def test_check_gradients_rejects_a_negative_flag(self, capsys, monkeypatch, flag):
        def never(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr("predin.cli.run_gradient_suite", never)
        assert cli_main(["check-gradients", flag, "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": f"{flag} must be an integer >= 0, got -1"}

    @pytest.mark.parametrize(
        "argv, names",
        [(["run"], "required: --config"),
         (["check-gradients", "--seeds", "x"], "--seeds: invalid int value: 'x'"),
         (["frobnicate"], "invalid choice: 'frobnicate'"),
         (["run", "--config", "docs/example_config.json", "--see", "1,2"],
          "unrecognized arguments: --see 1,2"),
         (["check-gradients", "--c", "3"], "unrecognized arguments: --c 3")],
        ids=["missing_config", "bad_seeds", "unknown_command", "abbreviated_run_flag",
             "abbreviated_check_gradients_flag"],
    )
    def test_usage_error_is_json(self, capsys, argv, names):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and names in err["message"]

    def test_help_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: predin run")

    def _diverging_config(self, tmp_path):
        # magnitudes grow by ~1e6 per step, so 40 epochs guarantees overflow
        cfg = tiny_config(seeds=(1,), lr=1e6, epochs=40, output_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def test_run_fails_when_every_seed_fails(self, tmp_path, capsys):
        path = self._diverging_config(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["run", "--config", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "seed 1: FAILED" in captured.out
        err = json.loads(captured.err.strip())
        assert err["error"] == "RuntimeError"
        assert "every seed failed" in err["message"]
        assert (tmp_path / "out" / "report.json").exists()

    def test_ablation_fails_when_a_variant_has_no_seed(self, tmp_path, capsys):
        path = self._diverging_config(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["ablation", "--config", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "(all seeds failed)" in captured.out
        err = json.loads(captured.err.strip())
        assert err["error"] == "RuntimeError"
        assert "every seed failed for variants" in err["message"]
        assert (tmp_path / "out" / "ablation_table.csv").exists()

    def test_failure_emits_error_json(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"
