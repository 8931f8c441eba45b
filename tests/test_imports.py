"""No module in src/, scripts/ or tests/ imports a name it does not read.

A name counts as read when the module loads it anywhere (code, annotations,
decorators, default values) or lists it in ``__all__``; the package's
``__init__.py`` imports to re-export, so every name it imports counts.
``import a.b`` binds ``a``, and counts as read when ``a`` is.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "hsforge" / "__init__.py"


def unused_imports(source: str, name: str) -> list[str]:
    """``name:line: imported name`` for every import the source never reads."""
    tree = ast.parse(source, name)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{name}:{node.lineno}: {b}" for b in bound if b not in read]
    return unused


def test_no_module_imports_a_name_it_does_not_read():
    files = [path for folder in ("src", "scripts", "tests")
             for path in sorted((ROOT / folder).rglob("*.py")) if path != PACKAGE_INIT]
    assert len(files) > 20
    assert [line for path in files for line in unused_imports(
        path.read_text(), str(path.relative_to(ROOT)))] == []


def test_the_check_names_each_unused_import():
    source = ("import os.path\nimport sys, json\nimport hsforge.perm\n"
              "from math import gcd, lcm as least\n__all__ = ['gcd']\n"
              "def f(x: sys.Path) -> None:\n    print(os.path.sep)\n")
    assert unused_imports(source, "m.py") == [
        "m.py:2: json", "m.py:3: hsforge", "m.py:4: least"]
