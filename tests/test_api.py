"""Public API surface: exported names resolve in the modules that export them."""

import ast
import importlib
import pathlib
import pkgutil
from collections import defaultdict

import pytest

import blindcrb

_MODULES = [importlib.import_module(f"blindcrb.{info.name}")
            for info in pkgutil.iter_modules(blindcrb.__path__)]
_EXPORTING = [mod for mod in _MODULES if hasattr(mod, "__all__")]


def _package_imports():
    """``{module: [names]}`` of the relative imports in ``blindcrb/__init__.py``."""
    tree = ast.parse(pathlib.Path(blindcrb.__file__).read_text(encoding="utf-8"))
    out = defaultdict(list)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out[node.module].extend(alias.name for alias in node.names)
    return dict(out)


def test_modules_found():
    assert {mod.__name__ for mod in _EXPORTING} >= {
        "blindcrb.channel", "blindcrb.crb", "blindcrb.fim",
        "blindcrb.identifiability", "blindcrb.linalg", "blindcrb.simulate",
    }


@pytest.mark.parametrize("mod", _EXPORTING, ids=lambda mod: mod.__name__)
def test_all_names_exist(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("module, names", sorted(_package_imports().items()))
def test_package_imports_are_public(module, names):
    exported = importlib.import_module(f"blindcrb.{module}").__all__
    private = [name for name in names if name not in exported]
    assert not private, f"blindcrb imports {private} from {module}, outside its __all__"
