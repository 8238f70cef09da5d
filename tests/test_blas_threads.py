"""A run's artifacts do not depend on the BLAS thread count: a tiny
`predin run` with one OpenBLAS/OpenMP thread writes the same bytes as the
same run at the default count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import predin

# 4 channels x 400 samples per window: the 54-row batches of the
# 1600 -> 64 layer, and the scoring products, are large enough for
# OpenBLAS to split across threads
CONFIG = {
    "dataset": {
        "type": "synthetic",
        "n_classes": 5,
        "channels": 4,
        "trials": 3,
        "recording_ms": 600.0,
        "sampling_rate_hz": 2000.0,
        "data_seed": 7,
    },
    "window_ms": 200.0,
    "step_ms": 50.0,
    "n_known": 3,
    "seeds": [1],
    "variant": "predin",
    "train_trials": [1, 2],
    "test_trials": [3],
    "encoder": {"hidden_dims": [64], "feature_dim": 16, "activation": "tanh"},
    "training": {"epochs": 3, "batch_size": 64},
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_artifacts(tmp_path, name, threads):
    """Every file a `predin run` writes into tmp_path/name, timing.txt
    left out and the output directory echoed in report.json replaced."""
    config = tmp_path / f"{name}.json"
    out = tmp_path / name
    config.write_text(json.dumps({**CONFIG, "output_dir": str(out)}))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(dict.fromkeys(THREAD_VARS, threads) if threads else {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(predin.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    cmd = [sys.executable, "-m", "predin.cli", "run", "--config", str(config)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timing.txt":
            data = path.read_bytes()
            if path.name == "report.json":
                data = data.replace(str(out).encode(), b"OUT")
            files[str(path.relative_to(out))] = data
    return files


def test_one_blas_thread_writes_the_same_bytes(tmp_path):
    default = run_artifacts(tmp_path, "default", None)
    single = run_artifacts(tmp_path, "single", "1")
    assert {"report.json", "seed_1/scores.csv", "seed_1/checkpoint.npz"} <= set(default)
    assert list(single) == list(default)
    for name in default:
        assert single[name] == default[name], name
