"""Every module-level function and class in the package is named somewhere
else in the package, and every defaulted parameter of a package function is
passed by some call in the package: a definition or a parameter that
nothing in src/predin/ uses is dead, whatever tests still use it. And some
call in the package or the benchmark leaves each such parameter at its
default: a default that every such call overrides is dead too, however many
tests leave it. A call counts for the function its file binds the called
name to, by an import, a module attribute or a definition of its own; an
attribute call on any other object counts for every method of that name.
Last, every field of a package dataclass is read in the package or the
benchmark, by an attribute load of its name that is not a call's callee or
by a getattr(obj, "<field>"): a field that only tests read is dead too. A
read counts for every field of that name, whatever the object's type."""

import ast
from pathlib import Path

import predin

PACKAGE = Path(predin.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
ROOT = Path(__file__).resolve().parents[1]

# the console script calls main() with no argument; tests and the benchmark pass argv
ENTRY_POINT_PARAMETERS = {"cli.main(argv)"}

# parsed from the metadata `subject` column that docs/data_format.md documents
UNREAD_FIELDS = {"signals.SignalRecording.subject_id"}


def _modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.stem, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    ]


def _functions() -> list[tuple[str, ast.FunctionDef, bool]]:
    """(module, function, whether it is a method) of every package function."""
    functions = []
    for module, tree in _modules():
        methods = {
            id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
        }
        functions += [
            (module, node, id(node) in methods)
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        ]
    return functions


def _bindings(tree: ast.Module) -> dict[str, str]:
    """Each name the file's imports bind -> the dotted name it stands for;
    only the package imports relatively."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = f"predin.{base}" if base else "predin"
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def _target(expr, bound: dict[str, str], own: str) -> tuple[str | None, str] | None:
    """(module, name) of the function expr names, through the names its
    file binds (a name the file does not import is its own module's);
    (None, name) for a method, an attribute of anything but a module."""
    attrs = []
    while isinstance(expr, ast.Attribute):
        attrs.insert(0, expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return (None, attrs[-1]) if attrs else None
    module, _, name = ".".join([bound.get(expr.id, f"{own}.{expr.id}"), *attrs]).rpartition(".")
    in_package = module.startswith("predin.")
    if in_package and module.removeprefix("predin.") in MODULES:
        return module.removeprefix("predin."), name
    if attrs and (in_package or expr.id not in bound):
        return None, name
    return module, name


def _package_and_benchmark() -> list[Path]:
    """Every Python file under src/predin/ and perfbench/."""
    return [path for tree in (PACKAGE, ROOT / "perfbench") for path in sorted(tree.rglob("*.py"))]


def _calls(paths) -> list[tuple[tuple[str | None, str] | None, ast.Call, list[ast.expr]]]:
    """(callee, call, its positional arguments) of every call in the files
    at paths; functools.partial(f, ...) counts as a call of f."""
    calls = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _bindings(tree)
        own = f"predin.{path.stem}" if path.parent == PACKAGE else f"{path.parent.name}/{path.stem}"
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            callee, args = _target(call.func, bound, own), call.args
            if callee == ("functools", "partial") and args:
                callee, args = _target(args[0], bound, own), args[1:]
            calls.append((callee, call, args))
    return calls


def _names(node) -> set[str]:
    """Every name node mentions, as a Name, an Attribute or an import alias."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(n for n in (sub.name, sub.asname) if n)
    return found


def test_every_definition_is_named_elsewhere_in_the_package():
    definitions = []  # (module, name, the definition's own statement)
    statements = []
    for module, tree in _modules():
        for stmt in tree.body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, stmt.name, stmt))
    assert len(definitions) > 100
    named = {id(stmt): _names(stmt) for stmt in statements}
    unnamed = [
        f"{module}.{name}"
        for module, name, own in definitions
        if not any(name in named[id(stmt)] for stmt in statements if stmt is not own)
    ]
    assert unnamed == []


def _defaulted(fn: ast.FunctionDef, method: bool) -> tuple[list[str], list[str]]:
    """(the parameters a call fills by position, the defaulted ones); a
    method's self or cls is filled by the attribute access, not the call."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _key(module: str, fn: ast.FunctionDef, method: bool) -> tuple[str | None, str]:
    """What _target gives for a call of fn."""
    return (None, fn.name) if method else (module, fn.name)


def _passed(call: ast.Call, args: list[ast.expr], positional: list[str]) -> set[str] | None:
    """The parameters call passes, with args its positional arguments, or
    all of them (None) when it unpacks *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in call.keywords):
        return None
    return set(positional[: len(args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_passed_somewhere_in_the_package():
    calls = _calls(sorted(PACKAGE.glob("*.py")))
    unpassed = []
    n_defaulted = 0
    for module, fn, method in _functions():
        positional, defaulted = _defaulted(fn, method)
        n_defaulted += len(defaulted)
        key = _key(module, fn, method)
        passed = [_passed(call, args, positional) for callee, call, args in calls if callee == key]
        if None in passed:
            continue
        unpassed += [
            f"{module}.{fn.name}({p})" for p in defaulted if not any(p in s for s in passed)
        ]
    assert n_defaulted > 10
    assert sorted(unpassed) == sorted(ENTRY_POINT_PARAMETERS)


def test_every_default_is_left_at_its_default_by_some_call():
    paths = _package_and_benchmark()
    assert len(paths) > 15
    calls = _calls(paths)
    overridden = []
    for module, fn, method in _functions():
        positional, defaulted = _defaulted(fn, method)
        key = _key(module, fn, method)
        passed = [_passed(call, args, positional) for callee, call, args in calls if callee == key]
        if not passed or None in passed:  # no call to judge, or one that may pass anything
            continue
        overridden += [
            f"{module}.{fn.name}({p})" for p in defaulted if all(p in s for s in passed)
        ]
    # cli.py's own __main__ block leaves argv at its default today
    assert sorted(set(overridden) - ENTRY_POINT_PARAMETERS) == []


def _dataclass_fields() -> list[str]:
    """module.Class.field of every field of every package dataclass."""
    fields = []
    for module, tree in _modules():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in _names(d) for d in cls.decorator_list
            ):
                fields += [
                    f"{module}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return fields


def _reads(paths) -> set[str]:
    """Every attribute the files at paths load other than as a call's
    callee, and every name a getattr(obj, "<name>") reads."""
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in calls}
        reads.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees
        )
        reads.update(
            call.args[1].value for call in calls
            if isinstance(call.func, ast.Name) and call.func.id == "getattr"
            and len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
        )
    return reads


def test_every_dataclass_field_is_read_by_the_package_or_the_benchmark():
    fields = _dataclass_fields()
    assert len(fields) > 50
    reads = _reads(_package_and_benchmark())
    unread = [f for f in fields if f.rpartition(".")[2] not in reads]
    assert sorted(unread) == sorted(UNREAD_FIELDS)
