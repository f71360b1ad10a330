"""No module of `mig` imports a name it never uses.

No linter ships with the project, so this walks the syntax tree of each
source file: every name bound by an import must be read somewhere in the
file, in code, in a string annotation, or in `__all__`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mig"


def _string_names(node: ast.AST) -> set:
    """Names read inside the string constants under `node`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            inner = ast.parse(sub.value, mode="eval")
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def _read_names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _string_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            names |= _string_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _string_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            }
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = _read_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append(f"line {node.lineno}: {bound}")
    return out


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import List, Dict\nx: List = []\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Dict"]
    assert unused_imports('from .game import LBCS\ndef f() -> "LBCS": ...\n') == []
    # a string that is not an annotation does not count as a use
    assert unused_imports('from .game import LBCS\nkey = "LBCS"\n') == ["line 1: LBCS"]


def test_no_unused_imports_in_src():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 14
    found = {
        path.name: bad
        for path in files
        if (bad := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
