"""The traced benchmark wraps functions by name; a rename must fail here first.

perfbench/spans.py lists, per predin module, the public functions its
tracer wraps, and the tracer raises AttributeError on a name that no
longer exists. Its own tests are not collected with this suite, so this
test loads the list by path and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, fns in _layers().items() for f in fns]
)
def test_traced_function_exists(module, name):
    home = importlib.import_module(f"predin.{module}")
    assert callable(getattr(home, name, None)), f"predin.{module}.{name} is not a function"
