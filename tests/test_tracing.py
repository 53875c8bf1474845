"""The benchmark's span table (bench/tracing.py) must name real targets.

The tracer wraps each class target found in its owner's own __dict__ and
each function target found as a module attribute, so a refactor that moves
one of them (say, into a base class) breaks `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name, module, cls, attr", _spans())
def test_span_target_resolves(name, module, cls, attr):
    mod = importlib.import_module(f"curveform.{module}")
    if cls:
        assert attr in vars(getattr(mod, cls)), f"{name}: {cls}.{attr} not in its own __dict__"
    else:
        assert callable(getattr(mod, attr, None)), f"{name}: {module}.{attr} missing"
