"""Command-line entry point.

  predin run --config cfg.json [--variant predin] [--seeds 1,2,3] [--out DIR]
  predin ablation --config cfg.json [--seeds ...] [--out DIR]
  predin check-gradients [--seeds 5] [--coords 420]

Failures, usage errors too, exit 1 and print a machine-readable error JSON
to stderr; so does a run or ablation in which every seed of a variant failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .gradcheck import run_gradient_suite
from .harness import load_config, run_ablation, run_experiment


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(
            f"--seeds must be a comma-separated list of integers, got {text!r}"
        ) from None


def _apply_overrides(config, args):
    """config with every given flag applied; the config re-checks each value."""
    updates = {}
    if getattr(args, "variant", None) is not None:
        updates["variant"] = args.variant
    if args.seeds is not None:
        updates["seeds"] = _parse_seeds(args.seeds)
    if args.out is not None:
        updates["output_dir"] = args.out
    return replace(config, **updates)


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run_experiment(config)
    agg = report["aggregate"]
    for row in report["per_seed"]:
        if "error" in row:
            print(f"seed {row['seed']}: FAILED ({row['error']})")
        else:
            print(
                f"seed {row['seed']}: auc={row['auc']:.4f} acc={row['acc']:.4f} "
                f"oscr={row['oscr']:.4f} incon={row['incon']}"
            )
    if agg.get("n_seeds"):
        print(
            f"mean over {agg['n_seeds']} seeds: auc={agg['auc_mean']:.4f} "
            f"acc={agg['acc_mean']:.4f} oscr={agg['oscr_mean']:.4f}"
        )
    print(f"report written to {config.output_dir}/report.json")
    if not agg.get("n_seeds"):
        raise RuntimeError(f"every seed failed: {agg['failed_seeds']}")
    return 0


def _cmd_ablation(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    reports = run_ablation(config)
    print("variant            auc     oscr    acc     incon")
    failed = []
    for variant, report in reports.items():
        agg = report["aggregate"]
        if not agg.get("n_seeds"):
            print(f"{variant:<18} (all seeds failed)")
            failed.append(variant)
            continue
        incon = f"{agg['incon_mean']:.3f}" if agg["incon_mean"] is not None else "-"
        print(
            f"{variant:<18} {agg['auc_mean']:.4f}  {agg['oscr_mean']:.4f}  "
            f"{agg['acc_mean']:.4f}  {incon}"
        )
    print(f"table written to {config.output_dir}/ablation_table.csv")
    if failed:
        raise RuntimeError(f"every seed failed for variants {failed}")
    return 0


def _cmd_check_gradients(args) -> int:
    for flag, value in (("--seeds", args.seeds), ("--coords", args.coords)):
        if value < 0:
            raise ValueError(f"{flag} must be an integer >= 0, got {value}")
    results = run_gradient_suite(n_seeds=args.seeds, n_coords=args.coords)
    worst = 0.0
    failed = []
    for name, report in results:
        # a loss with no checked coordinate has shown nothing, so it fails
        passed = report.max_rel_error < 1e-4 and report.n_checked > 0
        if not passed:
            failed.append(name)
        worst = max(worst, report.max_rel_error)
        print(
            f"{name:<16} max_rel_error={report.max_rel_error:.3e} "
            f"checked={report.n_checked} kink_skipped={report.n_kink_skipped} "
            f"[{'ok' if passed else 'FAIL'}]"
        )
    print(f"worst relative error: {worst:.3e}")
    if failed:
        raise RuntimeError(
            f"gradient check failed for {failed} (worst relative error {worst:.3e}; "
            "a loss with no checked coordinate fails)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predin")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment variant across seeds")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--variant", help="override the configured model variant")
    p_run.add_argument("--seeds", help="comma-separated seed list override")
    p_run.add_argument("--out", help="override the output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_abl = sub.add_parser("ablation", help="run all ablation variants and tabulate")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--seeds")
    p_abl.add_argument("--out")
    p_abl.set_defaults(fn=_cmd_ablation)

    p_grad = sub.add_parser("check-gradients", help="finite-difference gradient suite")
    p_grad.add_argument("--seeds", type=int, default=5, help="number of random instances")
    p_grad.add_argument("--coords", type=int, default=420, help="coordinates per check")
    p_grad.set_defaults(fn=_cmd_check_gradients)

    def usage_error(message):  # argparse would print the usage and exit 2
        raise ValueError(message)

    for p in (parser, p_run, p_abl, p_grad):
        p.error = usage_error
        p.allow_abbrev = False  # so that a prefix such as --see is not taken as --seeds
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except Exception as e:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
