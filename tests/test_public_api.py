"""Every public class or function is named by the package, a demo or the benchmark.

A class or function in ``spectralpairs.__all__`` that no code in
``src/``, ``demos/`` or ``benchmark/`` names outside its own definition is
API that nothing needs.  ``KEEP`` lists the exceptions, each with the
reason it stays.
"""

import ast
import inspect
from pathlib import Path

import spectralpairs

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "exp_inner_product": "the only public handle on the scalar inner product <e_lam, e_mu> "
                         "over a domain",
    "reconstruct_function": "the truncated dual-expansion reconstruction of the README; "
                            "the only reader of DualBasis.base_domain",
}


def _named(path: Path) -> set[str]:
    """The names a file reads (as a name or an attribute), except those read inside
    the definition of the same name; an import alone does not name anything."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_public_class_and_function_is_named():
    named = set().union(*(_named(p) for top in ("src", "demos", "benchmark")
                          for p in sorted((ROOT / top).rglob("*.py"))))
    public = {name for name in spectralpairs.__all__
              if inspect.isclass(obj := getattr(spectralpairs, name)) or inspect.isfunction(obj)}
    assert KEEP.keys() <= public
    assert sorted(public - named - KEEP.keys()) == []
