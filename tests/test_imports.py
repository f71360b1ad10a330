"""No module of `mig` imports a name it never uses or keeps dead code.

No linter ships with the project, so this walks the syntax tree of each
source file: every name bound by an import must be read somewhere in the
file, in code, in a string annotation, or in `__all__`; and every function,
method or class must be referenced somewhere in `src/mig` outside its own
body, since code with no caller outside tests is deleted.  A method counts
as referenced only through an attribute (`x.name`): a local variable or a
module function of the same name does not keep it alive.  A private
(`_`-prefixed, not dunder) one has no exception; a public one may be kept
without a caller only under `PUBLIC_WITHOUT_SRC_CALLER`, with its reason.
Likewise every attribute that a method sets on `self` must be read as an
attribute somewhere in `src/mig`, or be listed under
`ATTRIBUTES_WITHOUT_SRC_READER` with its reason.
A last test runs the paper pair and a search in a fresh interpreter and
checks that they load neither numpy.ma nor a test-only package.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


def _referenced(tree: ast.AST) -> Counter:
    """How often each name is read: ("attr", name) counts attributes, and
    ("any", name) names, attributes and imports together."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs["any", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["any", node.attr] += 1
            refs["attr", node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(("any", alias.name) for alias in node.names)
    return refs


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced_defs(sources: dict, wanted) -> list:
    """Defs of `sources` (name -> text) named `wanted` that nothing else refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs: Counter = Counter()
    for tree in trees.values():
        refs += _referenced(tree)
    out = []
    for name, tree in trees.items():
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, DEFS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or not wanted(node.name):
                continue
            key = ("attr" if id(node) in methods else "any", node.name)
            if refs[key] == _referenced(node)[key]:
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def unreferenced_private_defs(sources: dict) -> list:
    """Private defs of `sources` (name -> text) that nothing else refers to."""
    return _unreferenced_defs(
        sources, lambda name: name.startswith("_") and not name.endswith("__")
    )


def unreferenced_public_defs(sources: dict) -> list:
    """Public defs of `sources` (name -> text) that nothing else refers to."""
    return _unreferenced_defs(sources, lambda name: not name.startswith("_"))


def test_checker_flags_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used(): ...\ndef _dead(): ...\n"
        "class _C:\n    def __init__(self): ...\n",
        "b.py": "from .a import _used\ndef _rec(n):\n    return _rec(n - 1)\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a.py:2: _dead",
        "a.py:3: _C",
        "b.py:2: _rec",
    ]
    method = "class K:\n    def _m(self): ...\n    def f(self):\n        self._m()\n"
    assert unreferenced_private_defs({"c.py": method}) == []


def test_no_unreferenced_private_defs_in_src():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


# Public definitions with no caller in `src/mig`, each with why it stays.
PUBLIC_WITHOUT_SRC_CALLER = {
    "parse_bundle": "library API the README documents: reads back the"
    " export-relations text",
    "group_counts": "library API: the number of relations in each group of a"
    " bundle, which the bundle tests compare with direct counts",
    "closure": "library API the README documents: exact rank and closure",
    "direct_sum": "library API the README documents: direct sums",
    "lbcs_predicate": "library API the README documents: scoring of the"
    " constraint-system game",
}


def test_checker_flags_an_unreferenced_public_def():
    sources = {
        "a.py": "def used(): ...\ndef dead(): ...\nclass C:\n    def m(self): ...\n",
        "b.py": "from .a import used\nx = C()\n",
    }
    assert unreferenced_public_defs(sources) == ["a.py:2: dead", "a.py:4: m"]
    # a method is alive only through an attribute, not a same-named local
    shadowed = (
        "class K:\n    def side(self): ...\n    def size(self): ...\n"
        "def _f(side):\n    return side + K().size()\n"
    )
    assert unreferenced_public_defs({"c.py": shadowed}) == ["c.py:2: side"]


def test_public_defs_without_a_caller_in_src_are_allowlisted():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    found = [entry.rsplit(": ", 1)[1] for entry in unreferenced_public_defs(sources)]
    assert sorted(found) == sorted(PUBLIC_WITHOUT_SRC_CALLER)
    assert all(PUBLIC_WITHOUT_SRC_CALLER.values())


def unread_attributes(sources: dict) -> list:
    """`self.x` attributes set in `sources` (name -> text) that no attribute
    read `.x` in them reads, each at its first assignment."""
    assigned, read = {}, set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                assigned.setdefault(node.attr, f"{name}:{node.lineno}")
    return sorted(f"{at}: {attr}" for attr, at in assigned.items() if attr not in read)


def test_checker_flags_an_unread_attribute():
    source = (
        "class K:\n    def __init__(self):\n        self.a, self.b = 1, 2\n"
        "        self.c = self.d = 3\n        self.e += 1\n"
        "    def f(self, other):\n        return self.a + other.c\n"
    )
    assert unread_attributes({"k.py": source}) == [
        "k.py:3: b",
        "k.py:4: d",
        "k.py:5: e",
    ]


# Attributes set on `self` with no reader in `src/mig`, each with why it stays.
ATTRIBUTES_WITHOUT_SRC_READER = {
    "axiom": "library API: `AxiomViolation.axiom` names the failing axiom of a"
    " flat-lattice presentation for callers that catch it",
}


def test_attributes_without_a_reader_in_src_are_allowlisted():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    found = [entry.rsplit(": ", 1)[1] for entry in unread_attributes(sources)]
    assert sorted(found) == sorted(ATTRIBUTES_WITHOUT_SRC_READER)
    assert all(ATTRIBUTES_WITHOUT_SRC_READER.values())


# Never imported by `mig` at run time: numpy.ma costs about 1.4 MB of peak
# RSS, and the rest are test-only dependencies.
TEST_ONLY_MODULES = ("numpy.ma", "scipy", "sympy", "networkx", "hypothesis")

RUNTIME_SCRIPT = """
import contextlib, io, json, sys
from mig.cli import main
from mig.lbcs_construct import build_paper_pair
from mig.relgraph import find_matroid_isomorphism
from mig.structures import IsoStructure

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["paper-pair", "--verify-all"])
p, _ = build_paper_pair()
hit = find_matroid_isomorphism(p, p.relabel(range(p.n)[::-1]), IsoStructure.HYPERPLANES)
print(json.dumps([code, hit is not None, sorted(set(sys.argv[1:]) & set(sys.modules))]))
"""


def test_paper_pair_and_search_load_no_test_only_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT, *TEST_ONLY_MODULES],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, True, []]
