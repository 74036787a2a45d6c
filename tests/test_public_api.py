"""Every public class, function and method is named by the package, a demo or the benchmark.

A class or function in ``spectralpairs.__all__``, or a public method,
property or classmethod of such a class, that no code in ``src/``, ``demos/``
or ``benchmark/`` names outside its own definition is API that nothing
needs.  ``KEEP`` lists the exceptions, each with the reason it stays;
members are keyed ``Class.name``.
"""

import ast
import functools
import inspect
from pathlib import Path

import spectralpairs

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "exp_inner_product": "the only public handle on the scalar inner product <e_lam, e_mu> "
                         "over a domain",
    "reconstruct_function": "the truncated dual-expansion reconstruction of the README; "
                            "the only reader of DualBasis.base_domain",
    "BandlimitedSignal.sample": "the only public handle on the scalar value f(lam), as "
                                "exp_inner_product is for the inner product",
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


@functools.cache
def _named_by_code() -> frozenset[str]:
    return frozenset().union(*(_named(p) for top in ("src", "demos", "benchmark")
                               for p in sorted((ROOT / top).rglob("*.py"))))


def test_every_public_class_and_function_is_named():
    named = _named_by_code()
    public = {name for name in spectralpairs.__all__
              if inspect.isclass(obj := getattr(spectralpairs, name)) or inspect.isfunction(obj)}
    assert {k for k in KEEP if "." not in k} <= public
    assert sorted(public - named - KEEP.keys()) == []


def test_every_public_method_is_named():
    kinds = (property, classmethod, staticmethod)
    members = {}  # "Class.name" -> name, for what each public class itself defines
    for name in spectralpairs.__all__:
        if inspect.isclass(cls := getattr(spectralpairs, name)):
            members.update(("%s.%s" % (name, attr), attr) for attr, member in vars(cls).items()
                           if not attr.startswith("_")
                           and (inspect.isfunction(member) or isinstance(member, kinds)))
    assert {k for k in KEEP if "." in k} <= members.keys()
    named = _named_by_code()
    assert sorted(k for k, attr in members.items() if attr not in named and k not in KEEP) == []
