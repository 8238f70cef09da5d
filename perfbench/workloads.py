"""Workload definitions: configs derived from a benchmark seed, input sizes
and the work count behind ``windows_per_s``.

Every run workload starts from ``docs/example_config.json``. The benchmark
seed fixes the dataset seed, the run seeds and the gradient-check instance
seeds; the program only ever sees the generated config file.
"""

from __future__ import annotations

import copy
import math
import random

EXAMPLE_CONFIG = "docs/example_config.json"

# the ablation CLI runs these six, then the benchmark adds `run --variant sequential_k`
ABLATION_VARIANTS = ("softmax", "pl_baseline", "dual", "dual_trip", "predin_wo_trip", "predin")
SINGLE_BRANCH_VARIANTS = ("softmax", "pl_baseline")

LOSS_NAMES = ("dce", "compactness", "pl", "incon", "triplet", "div")
GRADCHECK_COORDS = 420

WORKLOADS = ("train_predin", "ablation_sweep", "eval_large", "gradcheck")
RUN_WORKLOADS = ("train_predin", "ablation_sweep", "eval_large")


def _distinct_seeds(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, 1_000_000), n)


def make_plan(workload: str, seed: int, out_dir: str, base_config: dict, tiny: bool = False) -> dict:
    """Everything a worker needs to run one repeat of a workload.

    ``tiny`` shrinks epochs and recordings so the benchmark's own tests can
    run every workload in seconds; the benchmark never sets it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "gradcheck":
        return {
            "workload": workload,
            "losses": list(LOSS_NAMES),
            "instance_seeds": _distinct_seeds(rng, 1 if tiny else 5),
            "n_coords": GRADCHECK_COORDS,
        }

    cfg = copy.deepcopy(base_config)
    cfg["dataset"]["data_seed"] = rng.randrange(1, 2**31)
    cfg["variant"] = "predin"
    cfg["output_dir"] = out_dir
    if workload == "train_predin":
        cfg["seeds"] = _distinct_seeds(rng, 2)
        if tiny:
            cfg["training"]["epochs"] = 2
    elif workload == "ablation_sweep":
        cfg["seeds"] = _distinct_seeds(rng, 1)
        cfg["training"]["epochs"] = 2 if tiny else 20
    elif workload == "eval_large":
        cfg["seeds"] = _distinct_seeds(rng, 1)
        cfg["dataset"]["recording_ms"] = 3000.0 if tiny else 30000.0
        cfg["train_trials"] = [1]
        cfg["test_trials"] = [2, 3]
        cfg["training"]["epochs"] = 1
    return {"workload": workload, "config": cfg}


def variant_runs(plan: dict) -> list[tuple[str, str]]:
    """(variant, output directory) of every experiment the workload runs."""
    cfg = plan["config"]
    out = cfg["output_dir"]
    if plan["workload"] == "ablation_sweep":
        runs = [(v, f"{out}/{v}") for v in ABLATION_VARIANTS]
        return runs + [("sequential_k", f"{out}/sequential_k")]
    return [(cfg["variant"], out)]


def branch_count(variant: str, config: dict) -> int:
    if variant in SINGLE_BRANCH_VARIANTS:
        return 1
    if variant == "sequential_k":
        return int(config.get("sequential_k", 2))
    return 2


def input_sizes(plan: dict) -> dict:
    """Window counts, epochs, branches and the work count of a run workload.

    Work = sum over variants and seeds of (trained branches x train windows
    x epochs + scored branches x test windows); ``windows_per_s`` divides
    it by ``run_s``.
    """
    cfg = plan["config"]
    ds = cfg["dataset"]
    rate = ds["sampling_rate_hz"]
    timesteps = int(round(ds["recording_ms"] * rate / 1000.0))
    window_len = int(round(cfg["window_ms"] * rate / 1000.0))
    stride = int(round(cfg["step_ms"] * rate / 1000.0))
    per_recording = max(0, math.floor((timesteps - window_len) / stride) + 1)
    n_classes = ds["n_classes"]
    n_known = cfg["n_known"]
    train = n_known * len(cfg["train_trials"]) * per_recording
    test_known = n_known * len(cfg["test_trials"]) * per_recording
    test_unknown = (n_classes - n_known) * len(cfg["test_trials"]) * per_recording
    epochs = cfg["training"]["epochs"]
    n_seeds = len(cfg["seeds"])
    work = 0
    branches = {}
    for variant, _ in variant_runs(plan):
        k = branch_count(variant, cfg)
        branches[variant] = k
        work += n_seeds * (k * train * epochs + k * (test_known + test_unknown))
    return {
        "windows_per_recording": per_recording,
        "train_windows": train,
        "test_windows": test_known + test_unknown,
        "test_known": test_known,
        "test_unknown": test_unknown,
        "epochs": epochs,
        "seeds": n_seeds,
        "branches": branches,
        "work_windows": work,
    }
