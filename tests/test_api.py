"""The package's public API is the union of its modules' ``__all__`` lists."""

import ast
import inspect
from pathlib import Path

import shellwave
from shellwave import cli, energies, gronwall, lattice, lp, modelsys

MODULES = (lattice, lp, modelsys, energies, gronwall, cli)
PACKAGE_DIR = Path(shellwave.__file__).resolve().parent


def test_package_exports_every_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert shellwave.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(shellwave, name), name


def test_public_functions_and_classes_live_in_their_module():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_cross_module_imports_use_public_names():
    # every public name one module takes from another is in that one's __all__
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = getattr(shellwave, node.module).__all__
            for alias in node.names:
                if alias.name != "*" and not alias.name.startswith("_"):
                    assert alias.name in exported, (path.name, node.module, alias.name)
