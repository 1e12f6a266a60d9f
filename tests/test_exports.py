"""Every function and class of polyring and modulus serves the package: another
src/minplus module uses it, directly or through the module's own code that
such a use reaches, or it is named as an oracle (``*_bruteforce``) or is
reached from one. Code kept only as a cross-check cannot then sit in src/
under an ordinary name."""
import ast
import functools
from pathlib import Path

import pytest

from minplus import modulus, polyring

MODULES = (polyring, modulus)
PACKAGE = Path(polyring.__file__).resolve().parent


def mentioned(tree: ast.AST) -> set:
    """Every identifier a syntax tree mentions: names, attributes, imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def definitions(module) -> dict:
    tree = ast.parse(Path(module.__file__).read_text())
    kinds = (ast.FunctionDef, ast.ClassDef)
    return {node.name: node for node in tree.body if isinstance(node, kinds)}


@functools.cache
def served(module) -> set:
    """The module's definitions reached from a use in another module of the
    package or from an oracle."""
    path = Path(module.__file__).resolve()
    used = set()
    for other in PACKAGE.glob("*.py"):
        if other.resolve() != path:
            used |= mentioned(ast.parse(other.read_text()))
    defs = definitions(module)
    todo = [name for name in defs if name in used or name.endswith("_bruteforce")]
    seen = set(todo)
    while todo:
        for name in (mentioned(defs[todo.pop()]) & defs.keys()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


CASES = [(m, name) for m in MODULES for name in definitions(m)]


@pytest.mark.parametrize("module, name", CASES, ids=[f"{m.__name__}.{n}" for m, n in CASES])
def test_every_definition_serves_the_package(module, name):
    assert name in served(module), f"{module.__name__}.{name} is used by nothing in src/minplus"


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_export_is_defined(module):
    assert set(module.__all__) <= definitions(module).keys()
