"""predin benchmark: one command for every workload, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the repository root. Workloads (see ``workloads.py``):

* ``train_predin``   - ``predin run``, variant predin, example config, 2 seeds.
                       Encoder forward/backward, ``sgd_step`` and the losses.
                       Not listed in BENCHMARK.json: ``ablation_sweep`` runs
                       the same training loop, and two workloads leave room
                       for longer, steadier runs.
* ``ablation_sweep`` - ``predin ablation`` then ``predin run --variant
                       sequential_k``, 20 epochs, 1 seed. Every training loop
                       plus the fixed per-variant cost.
* ``eval_large``     - ``predin run`` on 30 s recordings, 1 epoch, ~12k test
                       windows. Windowing, scoring, O(n^2) OSCR, score dump.
* ``gradcheck``      - ``check_loss_gradients`` for every loss, 5 instance
                       seeds, 420 coordinates. ~30k small-batch loss calls.
                       Not listed in BENCHMARK.json: on many benchmark seeds
                       some instance fails the checks below (an ``incon``
                       instance with under 200 non-zero gradient
                       coordinates, or a relative error above 1e-4).

Load is closed-loop with one client: each repeat runs in a fresh worker
process (``worker.py``), one at a time, and repeats continue while another
fits in ``--seconds``. The seed fixes the dataset seed, the run seeds and
the gradient-check instance seeds.

Every repeat is checked: AUC and OSCR of each seed are recomputed from its
``scores.csv`` by brute-force oracles and compared with ``report.json``,
retention must reach its target, reports must be byte-identical to the
first repeat's, and gradient checks must stay below 1e-4 relative error
with at least 200 coordinates each. Any failure makes the command exit 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics of
``spans.py``. The last line of standard output is one JSON object with
the metrics BENCHMARK.json lists; the full record (environment, input sizes, every sample) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = ".perfbench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a worker still running this long after the start is killed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, how repeats combine) of the end-to-end metrics compared
# across commits. Times take the median over repeats; peak RSS takes the
# largest, the peak the run reached.
END_TO_END = (
    ("setup_s", "s", statistics.median),
    ("run_s", "s", statistics.median),
    ("peak_rss_mb", "MB", max),
)

from checks import RunChecker, check_gradients  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    EXAMPLE_CONFIG,
    RUN_WORKLOADS,
    WORKLOADS,
    input_sizes,
    make_plan,
    variant_runs,
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Bench:
    """One benchmark invocation: plan, worker processes, checks, samples."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool,
                 tiny: bool = False):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.work_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self._abs(self.work_dir), ignore_errors=True)
        os.makedirs(self._abs(self.work_dir))
        self.out_dir = f"{self.work_dir}/out"

        base = None
        if workload in RUN_WORKLOADS:
            with open(os.path.join(root, EXAMPLE_CONFIG)) as f:
                base = json.load(f)
        self.plan = make_plan(workload, seed, self.out_dir, base, tiny=tiny)
        self.plan["spans_path"] = f"{self.work_dir}/spans.csv"
        self.sizes = None
        self.checker = None
        if workload in RUN_WORKLOADS:
            self.plan["config_path"] = f"{self.work_dir}/config.json"
            with open(self._abs(self.plan["config_path"]), "w") as f:
                json.dump(self.plan["config"], f, indent=2)
            self.sizes = input_sizes(self.plan)
            self.checker = RunChecker(
                [(v, self._abs(d)) for v, d in variant_runs(self.plan)],
                self.plan["config"]["retention"],
                self.sizes["test_windows"],
            )
        self.plan_path = f"{self.work_dir}/plan.json"
        with open(self._abs(self.plan_path), "w") as f:
            json.dump(self.plan, f, indent=2)

        nproc = _nproc()
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = str(nproc)
        self.record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": {
                "nproc": nproc,
                "cpu_model": _cpu_model(),
                "python": platform.python_version(),
                "thread_env": {var: self.env[var] for var in THREAD_VARS},
                "git_commit": _git_commit(root),
            },
            "input_sizes": self.sizes,
            "load": "closed loop, 1 client, 1 worker process at a time",
        }
        self.samples = {"setup_s": [], "run_s": [], "peak_rss_mb": [], "traced_run_s": []}
        self.layer_samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.auc: list[float] = []
        self.oscr: list[float] = []
        self._n = 0
        self._started = time.perf_counter()

    def _abs(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def _ops_per_repeat(self) -> int:
        if self.workload == "gradcheck":
            return len(self.plan["losses"]) * len(self.plan["instance_seeds"])
        return len(variant_runs(self.plan)) * len(self.plan["config"]["seeds"])

    def _spawn(self, mode: str) -> dict | None:
        self._n += 1
        result_path = self._abs(f"{self.work_dir}/worker{self._n}-{mode}.json")
        log_path = self._abs(f"{self.work_dir}/worker{self._n}-{mode}.log")
        cmd = [sys.executable, WORKER, self.plan_path, result_path, mode]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self._started))
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {self._n} ({mode}) timed out; log {log_path}")
            return None
        if proc.returncode != 0:
            self.problems.append(f"worker {self._n} ({mode}) exited {proc.returncode}; log {log_path}")
            return None
        with open(result_path) as f:
            return json.load(f)

    def setup_only(self) -> dict | None:
        return self._spawn("setup")

    def repeat(self, mode: str) -> None:
        """One timed repeat in a fresh worker, then its output checks."""
        shutil.rmtree(self._abs(self.out_dir), ignore_errors=True)
        res = self._spawn(mode)
        self.attempted += self._ops_per_repeat()
        if res is None:
            self.failed += self._ops_per_repeat()
            return
        self.record["environment"].update(numpy=res["numpy"], blas=res["blas"])
        if self.workload == "gradcheck":
            outcome = check_gradients(res["gradcheck"])
        else:
            outcome = self.checker.check_repeat(
                res["exit_codes"], len(self.plan["config"]["seeds"]), self._abs(self.out_dir)
            )
            if not self.auc:
                self.auc, self.oscr = outcome["auc"], outcome["oscr"]
        self.failed += outcome["failed"]
        self.problems.extend(outcome["problems"])
        self.samples["setup_s"].append(res["setup_s"])
        if mode == "trace":
            self.samples["traced_run_s"].append(res["run_s"])
            self.layer_samples.append(res["layers"])
        else:
            self.samples["run_s"].append(res["run_s"])
            self.samples["peak_rss_mb"].append(res["peak_rss_mb"])

    def run(self) -> None:
        self.setup_only()  # warm-up: byte-compile and page in, not counted
        modes = ("run", "trace") if self.trace else ("run",)
        started = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            for mode in modes:
                self.repeat(mode)
            durations.append(time.perf_counter() - t)
            if time.perf_counter() - started + statistics.median(durations) > self.seconds:
                break
        while len(self.samples["setup_s"]) < SETUP_SAMPLES:
            res = self.setup_only()
            if res is None:
                break
            self.samples["setup_s"].append(res["setup_s"])

    def end_to_end(self) -> dict:
        """setup_s, run_s and peak RSS, plus the metrics that are printed
        but not compared across commits."""
        out = {}
        for name, unit, combine in END_TO_END:
            values = self.samples[name]
            out[name] = {"value": combine(values) if values else float("nan"),
                         "unit": unit, "n": len(values)}
        n_run = len(self.samples["run_s"])
        if self.sizes is not None and n_run:
            out["windows_per_s"] = {
                "value": self.sizes["work_windows"] / out["run_s"]["value"],
                "unit": "windows/s", "n": n_run,
            }
        out["failed_frac"] = {
            "value": self.failed / self.attempted if self.attempted else 1.0,
            "unit": "ratio", "n": self.attempted,
        }
        if self.auc:
            out["auc"] = {"value": statistics.fmean(self.auc), "unit": "1", "n": len(self.auc)}
            out["oscr"] = {"value": statistics.fmean(self.oscr), "unit": "1", "n": len(self.oscr)}
        return out

    def per_layer(self) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                traced, plain = self.samples["traced_run_s"], self.samples["run_s"]
                value = (statistics.median(traced) / statistics.median(plain) - 1.0
                         if traced and plain else float("nan"))
                n = len(traced)
            else:
                values = [s[name] for s in self.layer_samples]
                value = statistics.median(values) if values else float("nan")
                n = len(values)
            out[name] = {"value": value, "unit": unit, "n": n}
        return out


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<9} n={m['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "predin", "__init__.py"), EXAMPLE_CONFIG, "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the predin repository root; missing {missing}",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = [m["name"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]]

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    e2e = bench.end_to_end()
    correct = bench.failed == 0 and not bench.problems
    env = bench.record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {bench.attempted} operations, "
          f"{bench.failed} failed; nproc {env['nproc']}, {env['cpu_model']}, "
          f"numpy {env.get('numpy')}, BLAS {env.get('blas')}")
    if bench.sizes is not None:
        print(f"input sizes: {json.dumps(bench.sizes)}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    _print_table("end-to-end (medians over repeats; n = samples):", e2e)
    layers = bench.per_layer() if args.trace else None
    if layers:
        _print_table("per-layer (traced repeats; n = samples):", layers)
    bench.record.update(
        correct=correct, attempted=bench.attempted, failed=bench.failed,
        problems=bench.problems, samples=bench.samples, end_to_end=e2e, per_layer=layers,
    )
    reported = layers or e2e
    with open(os.path.join(root, bench.work_dir, "result.json"), "w") as f:
        json.dump(bench.record, f, indent=2)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": reported[k]["value"], "unit": reported[k]["unit"]} for k in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
