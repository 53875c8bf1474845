import ast
from pathlib import Path

import curveform


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
