import ast
import importlib.util
from pathlib import Path

import curveform

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def unused_imports(source: str) -> list:
    """The names an import in source binds and no other line reads, as
    "name:line".  A name counts as read wherever it appears, annotations
    included; `import a.b` binds a, and `from __future__` binds nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.partition(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in bound if name not in read]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path, sys as system\n"
              "from math import gcd, lcm\n"
              "def f(n: int) -> 'x':\n"
              "    from re import compile\n"
              "    return lcm(n, os.path.sep)\n")
    assert unused_imports(source) == ["system:2", "gcd:3", "compile:5"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them, through __all__
    package = Path(curveform.__file__).parent
    unused = [f"{path.name}:{entry}" for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def unread_private(sources: dict) -> list:
    """The module-level private functions and classes of sources, {module
    name: source}, that no module reads, as "module.name".  A name counts
    as read wherever any module has it as a name, an attribute or an
    imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [entry for entry in defined if entry.partition(".")[2] not in read]


def test_the_checker_finds_an_unused_private_helper():
    sources = {"a": ("def _called(): pass\n"
                     "def _imported(): pass\n"
                     "def _read_as_attribute(): pass\n"
                     "class _Gone: pass\n"
                     "class Kept:\n"
                     "    def _method(self): pass\n"
                     "def public(): return _called()\n"),
               "b": "import a\nfrom a import _imported\nf = a._read_as_attribute\n"}
    assert unread_private(sources) == ["a._Gone"]
    del sources["b"]
    assert unread_private(sources) == ["a._imported", "a._read_as_attribute", "a._Gone"]


def test_no_private_helper_is_left_unread():
    # the benchmark's tracer wraps its span targets by name, so a private
    # one may be read by the benchmark and the tests alone
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"{module}.{attr}" for _, module, cls, attr in tracing.SPANS if cls is None}
    package = Path(curveform.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert [entry for entry in unread_private(sources) if entry not in traced] == []
