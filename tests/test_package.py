"""Rules that hold for every module of the package."""

import ast
from pathlib import Path

import targetset

PACKAGE = Path(targetset.__file__).parent


def test_no_module_uses_assert_statements():
    # python -O strips assert statements, so an invariant check written as
    # one would vanish; the package raises AssertionError explicitly.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
