"""Per-layer spans recorded around the program's public functions.

The tracer wraps each listed function in every ``predin`` namespace that
binds it by name (``harness``, ``inconsistency`` and ``scoring`` each import
``encoder_forward`` directly), so calls between modules are seen too. It
is installed only in the traced run; nothing under ``src/`` is edited.
Spans are kept in memory and written out once the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> public functions wrapped in the traced run
LAYERS = {
    "signals": ("generate_synthetic", "segment_windows", "split_trials", "standardize"),
    "encoder": ("encoder_forward", "encoder_backward", "sgd_step", "finite_diff_check"),
    "prototypes": ("pl_loss", "dce_loss", "compactness_loss"),
    "inconsistency": (
        "div_loss", "proximity_probs", "inconsistency_loss", "triplet_loss",
        "train", "train_sequential", "save_dual_checkpoint",
    ),
    "scoring": ("score_windows", "calibrate_threshold", "write_score_dump"),
    "metrics": ("auc", "oscr", "proximity_matrix"),
    "harness": (
        "load_dataset", "build_partition", "run_seed", "evaluate_scored",
        "baseline_softmax_train", "run_experiment", "emit_report",
    ),
    "cli": ("main",),
    "gradcheck": ("check_loss_gradients",),
}

# (metric name, unit); `s` is inclusive time, `self_s` excludes child spans.
# Counts marked "computed" come from array shapes, not from a profiler.
PER_LAYER = (
    ("signals.generate_synthetic.s", "s"),
    ("signals.segment_windows.s", "s"),
    ("signals.windows", "count"),
    ("signals.split_trials.s", "s"),
    ("signals.standardize.s", "s"),
    ("encoder.encoder_forward.s", "s"),
    ("encoder.encoder_forward.calls", "count"),
    ("encoder.encoder_forward.gflop", "GFLOP"),  # computed
    ("encoder.encoder_forward.gflop_per_s", "GFLOP/s"),  # computed
    ("encoder.encoder_backward.s", "s"),
    ("encoder.encoder_backward.calls", "count"),
    ("encoder.encoder_backward.gflop", "GFLOP"),  # computed
    ("encoder.encoder_backward.gflop_per_s", "GFLOP/s"),  # computed
    ("encoder.sgd_step.s", "s"),
    ("encoder.sgd_step.calls", "count"),
    ("encoder.sgd_step.mb", "MB"),  # computed
    ("encoder.finite_diff_check.s", "s"),
    ("prototypes.pl_loss.s", "s"),
    ("prototypes.pl_loss.calls", "count"),
    ("prototypes.dce_loss.s", "s"),
    ("prototypes.compactness_loss.s", "s"),
    ("inconsistency.div_loss.self_s", "s"),
    ("inconsistency.proximity_probs.s", "s"),
    ("inconsistency.proximity_probs.clamp_active_frac", "ratio"),
    ("inconsistency.inconsistency_loss.s", "s"),
    ("inconsistency.triplet_loss.s", "s"),
    ("inconsistency.triplet_loss.active_frac", "ratio"),
    ("inconsistency.train.self_s", "s"),
    ("inconsistency.train_sequential.s", "s"),
    ("inconsistency.save_dual_checkpoint.s", "s"),
    ("scoring.score_windows.s", "s"),
    ("scoring.score_windows.windows", "count"),
    ("scoring.calibrate_threshold.s", "s"),
    ("scoring.write_score_dump.s", "s"),
    ("metrics.auc.s", "s"),
    ("metrics.oscr.s", "s"),
    ("metrics.oscr.n", "count"),
    ("metrics.proximity_matrix.s", "s"),
    ("harness.load_dataset.s", "s"),
    ("harness.build_partition.self_s", "s"),
    ("harness.run_seed.self_s", "s"),
    ("harness.evaluate_scored.self_s", "s"),
    ("harness.baseline_softmax_train.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.emit_report.s", "s"),
    ("cli.main.self_s", "s"),
    ("gradcheck.check_loss_gradients.s", "s"),
    ("gradcheck.check_loss_gradients.calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


def _forward_flop(spec, rows: int) -> int:
    dims = spec.layer_dims
    return sum(2 * rows * fan_in * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


# Counters read the arguments and return values of one call; they add to
# named totals kept next to the spans.
def _count_forward(totals, args, kwargs, result):
    totals["encoder.encoder_forward.flop"] += _forward_flop(args[0].spec, result[0].shape[0])


def _count_backward(totals, args, kwargs, result):
    cache = args[0]
    rows = np.shape(args[1])[0]
    totals["encoder.encoder_backward.flop"] += 2 * _forward_flop(cache.params.spec, rows)


def _count_sgd(totals, args, kwargs, result):
    # minimum traffic of the update: read param, grad, velocity; write velocity, param
    totals["encoder.sgd_step.bytes"] += 5 * sum(a.nbytes for a in args[0])


def _count_triplet(totals, args, kwargs, result):
    dz = result[1]
    totals["inconsistency.triplet_loss.active"] += int(np.any(dz != 0.0, axis=1).sum())
    totals["inconsistency.triplet_loss.rows"] += dz.shape[0]


def _count_proximity(totals, args, kwargs, result):
    if result.cache is not None:  # keep_cache=False calls carry no clamp mask
        totals["inconsistency.proximity_probs.active"] += int(result.cache.active.sum())
        totals["inconsistency.proximity_probs.entries"] += result.cache.active.size


def _count_segment(totals, args, kwargs, result):
    totals["signals.windows"] += len(result)


def _count_score(totals, args, kwargs, result):
    totals["scoring.score_windows.windows"] += len(result)


def _count_oscr(totals, args, kwargs, result):
    totals["metrics.oscr.n"] += len(args[0]) + len(args[2])


COUNTERS = {
    "encoder.encoder_forward": _count_forward,
    "encoder.encoder_backward": _count_backward,
    "encoder.sgd_step": _count_sgd,
    "inconsistency.triplet_loss": _count_triplet,
    "inconsistency.proximity_probs": _count_proximity,
    "signals.segment_windows": _count_segment,
    "scoring.score_windows": _count_score,
    "metrics.oscr": _count_oscr,
}

TOTALS = (
    "encoder.encoder_forward.flop",
    "encoder.encoder_backward.flop",
    "encoder.sgd_step.bytes",
    "inconsistency.triplet_loss.active",
    "inconsistency.triplet_loss.rows",
    "inconsistency.proximity_probs.active",
    "inconsistency.proximity_probs.entries",
    "signals.windows",
    "scoring.score_windows.windows",
    "metrics.oscr.n",
)


class Tracer:
    """Span recorder for one process: name, start, end and parent of each
    call to a wrapped function, plus counters derived from its values."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.totals = dict.fromkeys(TOTALS, 0)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(totals, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function wherever a predin module binds it."""
        homes = {layer: importlib.import_module(f"predin.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "predin" or n.startswith("predin.")]
        for layer, functions in LAYERS.items():
            home = homes[layer]
            for fname in functions:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, traced)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,start,end,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                f.write("%s,%r,%r,%d\n" % row)

    def layer_metrics(self, run_s: float) -> dict:
        """Inclusive and self seconds, call counts and computed work per layer.

        ``trace.overhead_frac`` needs an untraced run and is filled in by
        the caller.
        """
        incl: dict[str, float] = {}
        child: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            dur = end - start
            incl[name] = incl.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += dur
            else:
                pname = self.names[parent]
                child[pname] = child.get(pname, 0.0) + dur
        out = {}
        for layer, functions in LAYERS.items():
            for fname in functions:
                key = f"{layer}.{fname}"
                out[f"{key}.s"] = incl.get(key, 0.0)
                out[f"{key}.self_s"] = incl.get(key, 0.0) - child.get(key, 0.0)
                out[f"{key}.calls"] = calls.get(key, 0)
        t = self.totals
        for fn in ("encoder_forward", "encoder_backward"):
            key = f"encoder.{fn}"
            gflop = t[f"{key}.flop"] / 1e9
            out[f"{key}.gflop"] = gflop
            out[f"{key}.gflop_per_s"] = gflop / out[f"{key}.s"] if out[f"{key}.s"] > 0 else 0.0
        out["encoder.sgd_step.mb"] = t["encoder.sgd_step.bytes"] / 1e6
        out["inconsistency.triplet_loss.active_frac"] = _ratio(
            t["inconsistency.triplet_loss.active"], t["inconsistency.triplet_loss.rows"]
        )
        out["inconsistency.proximity_probs.clamp_active_frac"] = _ratio(
            t["inconsistency.proximity_probs.active"], t["inconsistency.proximity_probs.entries"]
        )
        out["signals.windows"] = t["signals.windows"]
        out["scoring.score_windows.windows"] = t["scoring.score_windows.windows"]
        out["metrics.oscr.n"] = t["metrics.oscr.n"]
        out["trace.uncovered_frac"] = max(0.0, run_s - covered) / run_s if run_s > 0 else 0.0
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
