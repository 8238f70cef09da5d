"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size, untraced and traced, and must emit
every named metric with no failed operation. The output checks must catch
a tampered ``scores.csv``, a tampered ``report.json`` and failing gradient
checks.
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
from checks import RunChecker, check_gradients  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import RUN_WORKLOADS, WORKLOADS, variant_runs  # noqa: E402


def _tiny_bench(workload: str, seed: int = 7) -> run.Bench:
    bench = run.Bench(ROOT, workload, seed=seed, seconds=1, trace=True, tiny=True)
    bench.run()
    return bench


@pytest.fixture(scope="module")
def tiny_train():
    # its own seed, so no other test overwrites the outputs it checks
    return _tiny_bench("train_predin", seed=8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    bench = _tiny_bench(workload)
    assert bench.attempted > 0
    if workload in RUN_WORKLOADS:
        assert bench.problems == [] and bench.failed == 0
    e2e = bench.end_to_end()
    expected = {name for name, _, _ in run.END_TO_END} | {"failed_frac"}
    if workload in RUN_WORKLOADS:
        expected |= {"windows_per_s", "auc", "oscr"}
    assert set(e2e) == expected
    assert e2e["failed_frac"]["value"] == bench.failed / bench.attempted
    for name, _, _ in run.END_TO_END:
        assert e2e[name]["value"] > 0 and e2e[name]["n"] >= 1
    layers = bench.per_layer()
    assert set(layers) == {name for name, _ in PER_LAYER}
    assert all(m["n"] >= 1 for m in layers.values())
    assert layers["encoder.encoder_forward.calls"]["value"] > 0


def test_benchmark_json_lists_what_the_command_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} <= set(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_outside_the_repository(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "gradcheck", "--seed", "1", "--seconds", "1"]) == 2


def _copy_outputs(bench, dest):
    src = os.path.join(ROOT, bench.out_dir)
    shutil.copytree(src, dest)
    runs = [(v, os.path.join(dest, os.path.relpath(d, bench.out_dir)))
            for v, d in variant_runs(bench.plan)]
    checker = RunChecker(runs, bench.plan["config"]["retention"], bench.sizes["test_windows"])
    codes = {v: 0 for v, _ in runs}
    n_seeds = len(bench.plan["config"]["seeds"])
    return checker, codes, n_seeds, runs[0][1]


def test_untampered_outputs_pass(tiny_train, tmp_path):
    checker, codes, n_seeds, out = _copy_outputs(tiny_train, tmp_path / "out")
    outcome = checker.check_repeat(codes, n_seeds, out)
    assert outcome["failed"] == 0 and outcome["problems"] == []


def test_tampered_scores_are_caught(tiny_train, tmp_path):
    checker, codes, n_seeds, out = _copy_outputs(tiny_train, tmp_path / "out")
    seed = tiny_train.plan["config"]["seeds"][0]
    path = os.path.join(out, f"seed_{seed}", "scores.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    col = header.index("fused_smax")
    rows = [line.split(",") for line in lines[1:]]
    known = [r for r in rows if r[1] != "-1"]
    top = max(known, key=lambda r: float(r[col]))
    top[col] = repr(min(float(r[col]) for r in rows) - 1.0)
    with open(path, "w") as f:
        f.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    outcome = checker.check_repeat(codes, n_seeds, out)
    assert outcome["failed"] >= 1
    assert any("oracle" in p for p in outcome["problems"])


def test_tampered_report_is_caught(tiny_train, tmp_path):
    checker, codes, n_seeds, out = _copy_outputs(tiny_train, tmp_path / "out")
    path = os.path.join(out, "report.json")
    with open(path) as f:
        report = json.load(f)
    report["per_seed"][0]["oscr"] += 1e-6
    with open(path, "w") as f:
        json.dump(report, f)
    outcome = checker.check_repeat(codes, n_seeds, out)
    assert outcome["failed"] >= 1
    assert any("oscr" in p for p in outcome["problems"])


def test_report_changed_between_repeats_is_caught(tiny_train, tmp_path):
    checker, codes, n_seeds, out = _copy_outputs(tiny_train, tmp_path / "out")
    assert checker.check_repeat(codes, n_seeds, out)["failed"] == 0
    with open(os.path.join(out, "report.json"), "a") as f:
        f.write(" ")
    outcome = checker.check_repeat(codes, n_seeds, out)
    assert outcome["failed"] == n_seeds
    assert any("differs from the first repeat" in p for p in outcome["problems"])


def test_gradient_checks_need_small_error_and_enough_coordinates():
    ok = {"loss": "pl", "instance_seed": 1, "max_rel_error": 1e-7, "n_checked": 420}
    outcome = check_gradients([
        ok,
        dict(ok, max_rel_error=2e-4),
        dict(ok, n_checked=150),
        {"loss": "div", "instance_seed": 2, "error": "ValueError: boom"},
    ])
    assert outcome == {"attempted": 4, "failed": 3, "problems": outcome["problems"]}
    assert len(outcome["problems"]) == 3
