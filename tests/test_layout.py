"""The layout of the test suite: every exact reference lives in ``reference.py`` and
every shared strategy or pinned case in ``strategies.py``, so no test module imports
another and none keeps a reference of its own.  A function named ``reference_*`` or
``fraction_*`` is a reference by name.  And the layout of the package: every name a
module of ``spectralpairs`` imports is used there (``__init__.py`` re-exports, exempt),
and lattice arithmetic stays in ``domains``, the one module that decides where a point
lies modulo a lattice.  And README's ``Tolerances`` table lists exactly the record's fields.
"""

import ast
import dataclasses
import itertools
from pathlib import Path

from spectralpairs import Tolerances

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spectralpairs"


def offences(path: Path) -> list[str]:
    """The test modules ``path`` imports and the references it defines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # ``from . import test_x`` names no module
            modules = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            modules = []
        found += ["imports %s" % m for m in modules if m.split(".")[0].startswith("test_")]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith(
                ("reference_", "fraction_")):
            found.append("defines %s" % node.name)
    return found


def test_no_test_module_imports_another_or_keeps_a_reference():
    found = {path.name: offences(path) for path in sorted(TESTS.glob("test_*.py"))}
    assert {name: what for name, what in found.items() if what} == {}


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads; ``from __future__`` imports are exempt."""
    tree, imported = ast.parse(path.read_text()), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_name_a_package_module_imports_is_used():
    found = {path.name: unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_only_domains_imports_lattice_arithmetic():
    lattice = {"_reduce", "_lattice", "adjugate"}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "domains.py":
            names = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
            found[path.name] = sorted(names & lattice)
    assert {name: names for name, names in found.items() if names} == {}


def test_readme_tolerances_table_lists_exactly_the_fields():
    readme = (TESTS.parent / "README.md").read_text()
    after = readme[readme.index("of the `Tolerances` record"):].splitlines()
    start = next(i for i, line in enumerate(after) if line.startswith("|"))
    table = list(itertools.takewhile(lambda line: line.startswith("|"), after[start:]))
    rows = [line.split("|")[1].strip().strip("`") for line in table[2:]]  # past the header
    assert rows == [field.name for field in dataclasses.fields(Tolerances)]
