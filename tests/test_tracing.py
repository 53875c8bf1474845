"""The benchmark's span table (bench/tracing.py) must name real targets.

The tracer wraps each class target found in its owner's own __dict__ and
each function target found as a module attribute, and its counting pass
wraps the Scalar methods in SCALAR_OPS and SCALAR_TIMED found in Scalar's
own __dict__, so a refactor that moves or deletes one of them (say, into a
base class) breaks `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from curveform.scalar import Scalar

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _tracing()


@pytest.mark.parametrize("name, module, cls, attr", _TABLES.SPANS)
def test_span_target_resolves(name, module, cls, attr):
    mod = importlib.import_module(f"curveform.{module}")
    if cls:
        assert attr in vars(getattr(mod, cls)), f"{name}: {cls}.{attr} not in its own __dict__"
    else:
        assert callable(getattr(mod, attr, None)), f"{name}: {module}.{attr} missing"


@pytest.mark.parametrize("attr", sorted({attr for _, attr in _TABLES.SCALAR_OPS}
                                        | set(_TABLES.SCALAR_TIMED)))
def test_scalar_target_resolves(attr):
    assert attr in vars(Scalar), f"Scalar.{attr} not in its own __dict__"
