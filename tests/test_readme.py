"""The README and docs/*.md against the code they name.

Every backticked dotted name whose first part is `predin`, a module of
src/predin/, a class defined there or a config section resolves to an
attribute, a dataclass field naming its type's attributes in turn; every
undotted backticked call names a builtin or a function, method or class
defined under src/predin/ or tools/; every `predin ...` line of a fenced
block names only options of its subcommand and parses, with and without
its [...] groups; the README's Layout table has one row per module. These
checks read text and import the package; they run no command. Last, the
checkpoint section's entry list is compared with the keys that
save_dual_checkpoint writes. A failure names the file, the line and the
name.
"""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import predin
from predin.cli import build_parser
from predin.encoder import EncoderSpec
from predin.harness import _SECTIONS, ExperimentConfig
from predin.inconsistency import init_branch, save_dual_checkpoint

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

MODULES = {
    info.name: importlib.import_module(f"predin.{info.name}")
    for info in pkgutil.iter_modules(predin.__path__)
}
CLASSES = {
    name: cls
    for module in MODULES.values()
    for name, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__ == module.__name__
}
DEFINED = {
    node.name
    for path in [*(ROOT / "src" / "predin").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
}
FILE_SUFFIXES = {"json", "csv", "npz", "txt", "py", "md"}
SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
CALL = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(")


def spans(path: Path):
    """(line, text) of every inline code span; fenced blocks are skipped."""
    text = FENCE.sub(lambda m: "\n" * m.group().count("\n"), path.read_text())
    for m in SPAN.finditer(text):
        yield text.count("\n", 0, m.start()) + 1, m.group(1)


def _after(obj, part: str) -> list:
    """What obj.part may be: for a dataclass field, its type (each member of
    a union), as a field may have no class attribute; else the attribute;
    [] when obj has neither (every module of the package is imported
    above, so predin has each)."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        if part in {f.name for f in dataclasses.fields(obj)}:
            hint = typing.get_type_hints(obj)[part]
            union = typing.get_origin(hint) in (typing.Union, types.UnionType)
            return list(typing.get_args(hint)) if union else [hint]
    return [getattr(obj, part)] if hasattr(obj, part) else []


def _resolves_from(obj, parts: list[str]) -> bool:
    objs = [obj]
    for part in parts:
        objs = [after for o in objs for after in _after(o, part)]
    return bool(objs)


def resolves(name: str) -> bool | None:
    """Whether a dotted name resolves; None when it is not the package's."""
    first, *rest = name.split(".")
    # a config key such as encoder.hidden_dims, before the encoder module
    if first in _SECTIONS:
        if _resolves_from(ExperimentConfig, [first, *rest]):
            return True
        if first not in MODULES:
            return False
    obj = predin if first == "predin" else MODULES.get(first) or CLASSES.get(first)
    if obj is None:
        return None
    return _resolves_from(obj, rest)


def unresolved_names(path: Path) -> list[str]:
    failures = []
    for line, span in spans(path):
        for name in DOTTED.findall(span):
            if name.rsplit(".", 1)[1] not in FILE_SUFFIXES and resolves(name) is False:
                failures.append(f"{path.name}:{line}: `{name}` does not resolve")
        for name in CALL.findall(span):
            if not hasattr(builtins, name) and name not in DEFINED:
                failures.append(f"{path.name}:{line}: `{name}(` is no builtin or defined function")
    return failures


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_every_name_resolves(path):
    failures = unresolved_names(path)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name, expected", [
    ("ExperimentConfig.hyperparams.m1", True),
    ("ExperimentConfig.encoder.hidden_dims", True),
    ("ExperimentConfig.dataset.data_seed", True),  # through either union member
    ("ExperimentConfig.hyperparams.epsilon_log", False),
    ("hyperparams.compactness_form", False),
    ("encoder.encoder_forward", True),  # the module, once no section field matches
])
def test_dotted_names_resolve_through_field_types(name, expected):
    assert resolves(name) is expected


def predin_commands(path: Path):
    """(line, text) of every `predin ...` line inside a fenced block."""
    text = path.read_text()
    for m in FENCE.finditer(text):
        first = text.count("\n", 0, m.start()) + 1
        for i, line in enumerate(m.group().splitlines()):
            if line.startswith("predin "):
                yield first + i, line


def command_failures(path: Path) -> list[str]:
    failures = []
    for line, command in predin_commands(path):
        words = shlex.split(command)[1:]
        sub = SUBCOMMANDS.get(words[0])
        if sub is None:
            failures.append(f"{path.name}:{line}: `{words[0]}` is no predin subcommand")
            continue
        options = {s for a in sub._actions for s in a.option_strings}
        for flag in (w.strip("[]") for w in words[1:]):
            if flag.startswith("-") and flag.split("=")[0] not in options:
                failures.append(f"{path.name}:{line}: `{flag}` is no option of `{words[0]}`")
        bare = re.sub(r"\s*\[[^\]]*\]", "", command)
        for variant in (bare, command.replace("[", "").replace("]", "")):
            try:
                build_parser().parse_args(shlex.split(variant)[1:])
            except ValueError as e:
                failures.append(f"{path.name}:{line}: `{variant}` does not parse: {e}")
    return failures


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_every_fenced_command_parses(path):
    failures = command_failures(path)
    assert not failures, "\n".join(failures)


def test_layout_has_one_row_per_module():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("## Layout")
    rows = {}  # module -> README lines of its rows
    for line_no, line in enumerate(lines[start + 1 :], start=start + 2):
        if line.startswith("## "):
            break
        m = re.match(r"\| `predin\.(\w+)` \|", line)
        if m:
            rows.setdefault(m.group(1), []).append(line_no)
    failures = [f"README.md:{n}: a second row for `predin.{m}`"
                for m, ns in rows.items() for n in ns[1:]]
    failures += [f"README.md:{start + 1}: no row for `predin.{m}`" for m in MODULES.keys() - rows]
    failures += [f"README.md:{ns[0]}: `predin.{m}` is no module" for m, ns in rows.items()
                 if m not in MODULES]
    assert not failures, "\n".join(failures)


def documented_checkpoint_entries() -> list[str]:
    """The backticked entry of every bullet in the README's checkpoint
    section, such as `b{k}_p{i}`."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Checkpoint format\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\s*- `([^`]+)`:", section, re.M)


def expand(entries: list[str], branches) -> set[str]:
    """The keys the entry list names for these branches: {k} runs over the
    branches, {i} over each branch's arrays."""
    keys = set()
    for entry in entries:
        for k, branch in enumerate(branches if "{k}" in entry else [None]):
            n_arrays = len(branch.arrays()) if "{i}" in entry else 1
            keys.update(entry.format(k=k, i=i) for i in range(n_arrays))
    return keys


@pytest.mark.parametrize("heads", [("prototypes", "prototypes"), ("softmax",)],
                         ids=["two_prototype_branches", "one_softmax_branch"])
def test_checkpoint_entries_match_the_writer(tmp_path, heads):
    spec = EncoderSpec(12, (8,), 4, "tanh")
    branches = [init_branch(spec, 3, 2 * k, 2 * k + 1, head) for k, head in enumerate(heads)]
    path = tmp_path / "checkpoint.npz"
    save_dual_checkpoint(path, branches)
    with np.load(path, allow_pickle=False) as data:
        written = set(data.files)
    listed = expand(documented_checkpoint_entries(), branches)
    assert listed == written, (
        f"README.md, Checkpoint format: listed but not written {sorted(listed - written)}, "
        f"written but not listed {sorted(written - listed)}"
    )
