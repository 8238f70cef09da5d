"""tools/identity.py pins the commands it compares across two trees; each
must parse as the CLI stands, and each config it derives must build."""

import importlib.util
import json
from pathlib import Path

import pytest

from predin import cli
from predin.harness import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


@pytest.mark.parametrize("argv", identity.COMMANDS, ids=" ".join)
def test_pinned_command_parses(argv):
    args = cli.build_parser().parse_args(list(argv))
    assert args.fn is {"ablation": cli._cmd_ablation, "run": cli._cmd_run,
                       "check-gradients": cli._cmd_check_gradients}[argv[0]]
    if args.command != "check-gradients":
        assert args.config in identity.CONFIGS


def test_pinned_configs_build_the_documented_runs():
    base = json.loads((ROOT / identity.EXAMPLE_CONFIG).read_text())
    ablation, eval_large = (
        config_from_dict(identity.derive_config(base, identity.CONFIGS[path]))
        for path in ("identity/ablation.json", "identity/eval_large.json")
    )
    assert ablation.training.epochs == 20
    assert ablation.dataset == config_from_dict(base).dataset
    assert (eval_large.dataset.recording_ms, eval_large.dataset.data_seed) == (30000.0, 12345)
    assert eval_large.seeds == (7,) and eval_large.training.epochs == 1
    assert (eval_large.train_trials, eval_large.test_trials) == ((1,), (2, 3))
    seeds = [cli.build_parser().parse_args(list(argv)).seeds for argv in identity.COMMANDS[:2]]
    assert seeds == ["1,2", "1,2"]
