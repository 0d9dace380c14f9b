"""Rules that hold for every module of the package."""

import ast
import inspect
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


def test_every_public_function_and_class_keeps_a_docstring():
    # Read from the source: a dataclass without one gets a generated __doc__.
    missing = []
    for name in targetset.__all__:
        obj = getattr(targetset, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            node = ast.parse(inspect.getsource(obj)).body[0]
            if not (ast.get_docstring(node) or "").strip():
                missing.append(name)
    assert not missing, f"public names without a docstring: {missing}"
