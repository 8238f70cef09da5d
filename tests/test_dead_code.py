"""Every module-level function and class in the package is named somewhere
else in the package: a definition that nothing in src/predin/ names is dead,
whatever tests still call it."""

import ast
from pathlib import Path

import predin

PACKAGE = Path(predin.__file__).parent


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
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    assert len(definitions) > 100
    named = {id(stmt): _names(stmt) for stmt in statements}
    unnamed = [
        f"{module}.{name}"
        for module, name, own in definitions
        if not any(name in named[id(stmt)] for stmt in statements if stmt is not own)
    ]
    assert unnamed == []
