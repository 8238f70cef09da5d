#!/usr/bin/env python3
"""Byte identity of the pinned runs' artifacts between a revision and the
working tree.

  python3 tools/identity.py [REV]      (REV defaults to HEAD)

Exports REV with `git archive`, and the working tree's files (tracked, and
untracked ones that .gitignore does not exclude), into two sibling
temporary directories; `.perfbench_out/` is never copied. Each copy is
byte-compiled, and the same pinned commands run in both, from the copy's
own `src/`, into the same relative paths:

  * `predin ablation`, then `predin run --variant sequential_k`, on the
    example config at 20 epochs, seeds 1 and 2;
  * an `eval_large`-shaped `predin run`: 30 s recordings, train trial 1,
    test trials 2-3, 1 epoch, seed 7, data_seed 12345;
  * `predin check-gradients`.

Each copy derives the two configs from its own docs/example_config.json.
Every file the commands write is hashed with sha256, except the wall-clock
sidecar timing.txt, and each command's exit code, stdout and stderr are
compared too. Prints the number of differences and every path or command
output that differs; exits 1 on any difference and 0 when there is none.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_CONFIG = "docs/example_config.json"
# the benchmark's work directories: they grow without bound
NEVER_COPIED = ".perfbench_out/"
UNHASHED = "timing.txt"

# config path in a copy -> what it changes in that copy's example config
CONFIGS = {
    "identity/ablation.json": {"training": {"epochs": 20}},
    "identity/eval_large.json": {
        "dataset": {"recording_ms": 30000.0, "data_seed": 12345},
        "seeds": [7],
        "train_trials": [1],
        "test_trials": [2, 3],
        "training": {"epochs": 1},
    },
}

# the argv of each `predin` command, run in order in each copy
COMMANDS = (
    ("ablation", "--config", "identity/ablation.json", "--seeds", "1,2", "--out", "out/ablation"),
    ("run", "--config", "identity/ablation.json", "--variant", "sequential_k",
     "--seeds", "1,2", "--out", "out/ablation/sequential_k"),
    ("run", "--config", "identity/eval_large.json", "--out", "out/eval_large"),
    ("check-gradients",),
)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def export_revision(rev: str, dest: str) -> None:
    """The files of rev, as `git archive` gives them, under dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: str) -> None:
    """The working tree's tracked files, and its untracked ones that
    .gitignore does not exclude, as they are on disk, under dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(listed.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if rel.startswith(NEVER_COPIED) or not os.path.isfile(src):  # deleted, not staged
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def derive_config(base: dict, changes: dict) -> dict:
    """base with changes applied; a section's changes go into that section."""
    out = copy.deepcopy(base)
    for key, value in changes.items():
        if isinstance(value, dict):
            out[key].update(value)
        else:
            out[key] = value
    return out


def run_copy(tree: str) -> dict[str, str]:
    """Byte-compile the copy at tree, run COMMANDS in it, and return
    {artifact path or command output: sha256 hex digest}."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    with open(os.path.join(tree, EXAMPLE_CONFIG)) as f:
        base = json.load(f)
    for path, changes in CONFIGS.items():
        os.makedirs(os.path.dirname(os.path.join(tree, path)), exist_ok=True)
        with open(os.path.join(tree, path), "w") as f:
            json.dump(derive_config(base, changes), f, indent=2)
    env = dict(os.environ, PYTHONPATH="src")
    digests = {}
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "predin.cli", *argv],
                              cwd=tree, env=env, capture_output=True)
        name = "predin " + " ".join(argv)
        digests[f"{name}: exit code"] = str(done.returncode)
        digests[f"{name}: stdout"] = hashlib.sha256(done.stdout).hexdigest()
        digests[f"{name}: stderr"] = hashlib.sha256(done.stderr).hexdigest()
    for top, _, files in os.walk(os.path.join(tree, "out")):
        for name in files:
            if name == UNHASHED:
                continue
            path = os.path.join(top, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, tree)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        rev_tree, work_tree = os.path.join(tmp, "rev"), os.path.join(tmp, "tree")
        export_revision(rev, rev_tree)
        export_worktree(work_tree)
        want, got = run_copy(rev_tree), run_copy(work_tree)
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    print(f"{rev} against the working tree: {len(want.keys() | got.keys())} artifacts and "
          f"command outputs compared, {len(differ)} differ")
    only = {(True, False): " (only in REV)", (False, True): " (only in the working tree)"}
    for key in differ:
        print(f"  {key}{only.get((key in want, key in got), '')}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
