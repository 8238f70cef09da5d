"""Every module-level function and class in the package is named somewhere
else in the package, and every defaulted parameter of a package function is
passed by some call in the package: a definition or a parameter that
nothing in src/predin/ uses is dead, whatever tests still use it. And some
call in the package, the tests or the benchmark leaves each such parameter
at its default: a default that every call overrides is dead too."""

import ast
from pathlib import Path

import predin

PACKAGE = Path(predin.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# the console script calls main() with no argument; tests pass argv
ENTRY_POINT_PARAMETERS = {"cli.main(argv)"}


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


def _calls(trees) -> list[ast.Call]:
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]


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


def _callee(call: ast.Call) -> tuple[str | None, list[ast.expr]]:
    """(the name of the function call calls, its positional arguments);
    functools.partial(f, ...) counts as a call of f."""
    func, args = call.func, call.args
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if called == "partial" and args and isinstance(args[0], ast.Name):
        return args[0].id, args[1:]
    return called, args


def _passed(call: ast.Call, name: str, positional: list[str]) -> set[str] | None:
    """The parameters of the function ``name`` that call passes, all of
    them (None) when it unpacks *args or **kwargs, or the empty set when
    it calls another function."""
    called, args = _callee(call)
    if called != name:
        return set()
    if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in call.keywords):
        return None
    return set(positional[: len(args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_passed_somewhere_in_the_package():
    calls = _calls(tree for _, tree in _modules())
    unpassed = []
    n_defaulted = 0
    for module, fn, method in _functions():
        positional, defaulted = _defaulted(fn, method)
        n_defaulted += len(defaulted)
        passed = [_passed(call, fn.name, positional) for call in calls]
        if None in passed:
            continue
        unpassed += [
            f"{module}.{fn.name}({p})" for p in defaulted if not any(p in s for s in passed)
        ]
    assert n_defaulted > 10
    assert sorted(unpassed) == sorted(ENTRY_POINT_PARAMETERS)


def test_every_default_is_left_at_its_default_by_some_call():
    trees = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
    paths = [path for tree in trees for path in sorted(tree.rglob("*.py"))]
    assert len(paths) > 20
    calls = _calls(ast.parse(path.read_text(), filename=str(path)) for path in paths)
    overridden = []
    for module, fn, method in _functions():
        positional, defaulted = _defaulted(fn, method)
        passed = [
            _passed(call, fn.name, positional) for call in calls if _callee(call)[0] == fn.name
        ]
        if not passed or None in passed:  # no call to judge, or one that may pass anything
            continue
        overridden += [
            f"{module}.{fn.name}({p})" for p in defaulted if all(p in s for s in passed)
        ]
    assert overridden == []
