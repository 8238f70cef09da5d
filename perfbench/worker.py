"""One repeat of a workload in a fresh process.

    python3 perfbench/worker.py PLAN.json RESULT.json {setup,run,trace}

``setup`` times set-up alone: importing ``predin``, building the config and
loading the dataset (the import alone for ``gradcheck``). ``run`` then
times the workload's user-facing call; ``trace`` does the same with every
layer wrapped in spans. The result, including the process's peak RSS, is
written as JSON to RESULT.json. Nothing from the program is imported
before the set-up clock starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import ABLATION_VARIANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def _run_cli(cli, plan: dict) -> dict:
    """Run the workload's CLI calls; returns {variant: exit code}."""
    cfg_path = plan["config_path"]
    out = plan["config"]["output_dir"]
    if plan["workload"] == "ablation_sweep":
        code = cli.main(["ablation", "--config", cfg_path])
        codes = dict.fromkeys(ABLATION_VARIANTS, code)
        codes["sequential_k"] = cli.main(
            ["run", "--config", cfg_path, "--variant", "sequential_k",
             "--out", f"{out}/sequential_k"]
        )
        return codes
    return {plan["config"]["variant"]: cli.main(["run", "--config", cfg_path])}


def _run_gradcheck(gradcheck, plan: dict) -> list[dict]:
    reports = []
    for loss in plan["losses"]:
        for seed in plan["instance_seeds"]:
            row = {"loss": loss, "instance_seed": seed}
            try:
                rep = gradcheck.check_loss_gradients(loss, seed, n_coords=plan["n_coords"])
            except Exception as e:  # a failed check is counted, not fatal
                row["error"] = f"{type(e).__name__}: {e}"
            else:
                row.update(
                    max_rel_error=rep.max_rel_error,
                    n_checked=rep.n_checked,
                    n_kink_skipped=rep.n_kink_skipped,
                    n_small_skipped=rep.n_small_skipped,
                )
            reports.append(row)
    return reports


def main(plan_path: str, result_path: str, mode: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    gradient_workload = plan["workload"] == "gradcheck"

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from predin import cli, gradcheck, harness

    if not gradient_workload:
        dataset = harness.load_dataset(harness.load_config(plan["config_path"]))
    setup_s = time.perf_counter() - t0
    if not gradient_workload:
        del dataset

    import numpy as np

    result = {"setup_s": setup_s, "numpy": np.__version__, "blas": _blas_info(np)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        if gradient_workload:
            result["gradcheck"] = _run_gradcheck(gradcheck, plan)
        else:
            result["exit_codes"] = _run_cli(cli, plan)
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["run_s"])
            tracer.write_spans(plan["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
