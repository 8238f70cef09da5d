"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 5-7 share a single set of multi-seed training runs on the default
synthetic dataset (10 classes, 6 known, 4 channels, 2000 Hz, 3 trials,
200/50 ms windows) executed once per session.
"""

import json
import time

import numpy as np
import pytest

from predin.gradcheck import LOSS_NAMES, check_loss_gradients
from predin.harness import (
    ExperimentConfig,
    build_partition,
    config_from_dict,
    load_dataset,
    run_experiment,
    run_seed,
)
from predin.inconsistency import (
    ProximityDistribution,
    inconsistency_loss,
    proximity_backward,
    proximity_probs,
    triplet_loss,
)
from predin.metrics import auc, oscr
from predin.prototypes import dce_loss
from predin.signals import SignalRecording, segment_windows, window_geometry

from oracles import auc_pairwise, count_windows_enumeration, oscr_sweep


def verdict(ok: bool, criterion: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criteria 5-7 share these runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table4_runs():
    started = time.perf_counter()
    records = {}
    for variant in ("pl_baseline", "dual", "predin"):
        cfg = ExperimentConfig(variant=variant, output_dir="unused")
        records[variant] = run_experiment(cfg, write_artifacts=False)
    return records, time.perf_counter() - started


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    min_checked = 10**9
    for name in LOSS_NAMES:
        for t in range(5):
            rep = check_loss_gradients(name, instance_seed=1000 + t, n_coords=420, eps=1e-4)
            worst = max(worst, rep.max_rel_error)
            min_checked = min(min_checked, rep.n_checked)
            assert rep.max_rel_error < 1e-4, (name, t, rep.max_rel_error)
    elapsed = time.perf_counter() - started
    verdict(
        worst < 1e-4 and min_checked >= 200 and elapsed < 30.0,
        "criterion 1 (gradient suite)",
        f"{len(LOSS_NAMES)} losses x 5 seeds: worst rel err {worst:.2e}, "
        f">= {min_checked} coords per instance, {elapsed:.1f}s",
    )


def test_criterion_2_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_auc = worst_oscr = 0.0
    for _ in range(100):
        n_k = int(rng.integers(1, 1001))
        n_u = int(rng.integers(1, 1001))
        known = np.round(rng.standard_normal(n_k) * 3, 2)
        unknown = np.round(rng.standard_normal(n_u) * 3, 2)
        correct = rng.random(n_k) < 0.7
        worst_auc = max(worst_auc, abs(auc(known, unknown) - auc_pairwise(known, unknown)))
        worst_oscr = max(
            worst_oscr, abs(oscr(known, correct, unknown) - oscr_sweep(known, correct, unknown))
        )
    elapsed = time.perf_counter() - started
    verdict(
        worst_auc < 1e-9 and worst_oscr < 1e-9 and elapsed < 10.0,
        "criterion 2 (metric oracles)",
        f"100 instances: max |AUC diff| {worst_auc:.1e}, "
        f"max |OSCR diff| {worst_oscr:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_loss_identities():
    one_hot_a = ProximityDistribution(np.array([[1.0, 0.0, 0.0]]), np.array([1]))
    one_hot_b = ProximityDistribution(np.array([[0.0, 1.0, 0.0]]), np.array([1]))
    incon_extreme, _, _ = inconsistency_loss(one_hot_a, one_hot_b)

    uniform = ProximityDistribution(np.array([[0.5, 0.5]]), np.array([1]))
    incon_uniform, _, _ = inconsistency_loss(uniform, uniform)

    protos = np.zeros((5, 3))
    dce_equal, _, _ = dce_loss(np.zeros((2, 3)), [1, 4], protos)

    sep = np.array([[0.0, 0.0], [0.0, 5.0]])
    trip_easy, _, _ = triplet_loss(np.array([[0.1, 0.0]]), [1], sep, m2=1.0)

    ok = (
        abs(incon_extreme - (-np.log(2.0))) < 1e-9
        and abs(incon_uniform) < 1e-9
        and abs(dce_equal - np.log(5.0)) < 1e-9
        and trip_easy == 0.0
    )
    verdict(
        ok,
        "criterion 3 (loss identities)",
        f"incon(one-hots)={incon_extreme:.9f} vs -ln2, incon(uniform)={incon_uniform:.1e}, "
        f"dce(equal)={dce_equal:.9f} vs ln5, triplet(satisfied)={trip_easy}",
    )


def test_criterion_4_clamp_semantics():
    # every gap below the margin: branch A fully clamped
    protos_a = np.array([[1.0, 0.0], [0.9, 0.0], [0.8, 0.0], [0.7, 0.0]])
    z_a = np.array([[0.1, 0.0]])  # gaps 0.01..0.03 < m1 = 0.5
    protos_b = np.array([[5.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    z_b = np.array([[1.0, 0.0]])
    dist_a = proximity_probs(z_a, [1], protos_a, m1=0.5)
    dist_b = proximity_probs(z_b, [1], protos_b, m1=0.5)
    _, dprobs_a, _ = inconsistency_loss(dist_a, dist_b)
    d_embeddings_a, d_prototypes_a = proximity_backward(dist_a, dprobs_a)
    ok = (
        not dist_a.cache.active.any()
        and dprobs_a.any()  # the loss does pull on the distribution
        and not d_embeddings_a.any()  # but the clamp blocks every distance
        and not d_prototypes_a.any()
    )
    verdict(
        ok,
        "criterion 4 (clamp semantics)",
        "all gaps < m1: gradient through the clamped branch's distances is exactly 0",
    )


def test_criterion_5_directional_table4(table4_runs):
    records, elapsed = table4_runs
    means = {v: r["aggregate"]["auc_mean"] for v, r in records.items()}
    ok = (
        means["predin"] >= means["dual"] >= means["pl_baseline"]
        and means["predin"] - means["pl_baseline"] > 0.0
        and elapsed < 600.0
        and all(not r["aggregate"]["failed_seeds"] for r in records.values())
    )
    verdict(
        ok,
        "criterion 5 (directional ablation ordering)",
        f"mean AUC over 5 seeds: predin {means['predin']:.4f} >= dual {means['dual']:.4f} "
        f">= pl_baseline {means['pl_baseline']:.4f}, runs took {elapsed:.0f}s",
    )


def test_criterion_6_incon_trend(table4_runs):
    records, _ = table4_runs
    incon_predin = records["predin"]["aggregate"]["incon_mean"]
    incon_dual = records["dual"]["aggregate"]["incon_mean"]
    ok = (
        incon_predin is not None
        and incon_dual is not None
        and incon_predin > incon_dual
    )
    verdict(
        ok,
        "criterion 6 (prediction-inconsistency trend)",
        f"mean Incon: predin {incon_predin:.2f} > dual {incon_dual:.2f}",
    )


def test_criterion_7_closed_set_sanity(table4_runs):
    records, _ = table4_runs
    predin = records["predin"]
    acc = predin["aggregate"]["acc_mean"]
    retentions = [row["retention_achieved"] for row in predin["per_seed"]]
    ok = acc >= 0.95 and all(r >= 0.95 for r in retentions)
    verdict(
        ok,
        "criterion 7 (closed-set sanity)",
        f"predin mean ACC {acc:.3f} >= 0.95; per-seed known retention "
        f"{[round(r, 3) for r in retentions]} all >= 0.95",
    )


def test_criterion_8_determinism(tmp_path):
    out = tmp_path / "det"
    cfg = ExperimentConfig(seeds=(1,), epochs=8, output_dir=str(out))
    run_experiment(cfg)
    first = (out / "report.json").read_bytes()
    echo = json.loads(first)["config"]
    rerun_cfg = config_from_dict(echo)
    run_experiment(rerun_cfg)
    second = (out / "report.json").read_bytes()
    verdict(
        first == second,
        "criterion 8 (determinism)",
        f"re-run from echoed config reproduced report.json bit-for-bit ({len(first)} bytes)",
    )


def test_criterion_9_windowing_arithmetic():
    geometry = window_geometry(2000.0, 200.0, 50.0)
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(50):
        length = int(rng.integers(400, 6000))
        rec = SignalRecording(
            samples=rng.standard_normal((2, length)),
            sampling_rate=2000.0,
            gesture_label=1,
            trial_id=1,
            subject_id=1,
        )
        got = len(segment_windows(rec, 200.0, 50.0))
        expected = count_windows_enumeration(length, 400, 100)
        formula = (length - 400) // 100 + 1
        if got != expected or got != formula:
            mismatches += 1
    verdict(
        geometry == (400, 100) and mismatches == 0,
        "criterion 9 (windowing arithmetic)",
        f"2000 Hz 200/50 ms -> T=400 stride=100; count formula matched "
        f"enumeration on 50 random lengths",
    )


def test_known_smax_exceeds_unknown_on_acceptance_runs(table4_runs):
    # the fused-score geometry the rejection rule relies on
    records, _ = table4_runs
    cfg = ExperimentConfig(variant="predin", output_dir="unused")
    recordings, classes = load_dataset(cfg)
    gaps = []
    for seed in cfg.seeds:
        result = run_seed(cfg, build_partition(cfg, recordings, classes, seed), seed)
        scored = result.scored
        gaps.append(np.mean(scored.s_max[scored.known]) - np.mean(scored.s_max[~scored.known]))
    assert np.mean(gaps) > 0.0
    print(f"mean known-unknown s_max gap across seeds: {np.mean(gaps):.3f}")
