"""Package layering: every import is at module level and goes down a layer."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import spectral_homotopy
from spectral_homotopy import errors

# bottom up; a module may import only from the modules before it
ORDER = ("errors", "statespace", "matrixeq", "factorization", "moment",
         "continuation", "cli")
PACKAGE = Path(spectral_homotopy.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _nested_imports(tree):
    """Line numbers of the imports inside a function or method."""
    return sorted({sub.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Import, ast.ImportFrom))})


def _package_imports(tree):
    """(line, module) of every relative import: ``from .x import ...`` names
    x, and ``from . import x, y`` names x and y."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append((node.lineno, node.module.split(".")[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(ORDER) | {"__init__"}


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    assert _nested_imports(_tree(name)) == []


@pytest.mark.parametrize("name", ORDER)
def test_imports_go_down_a_layer(name):
    rank = ORDER.index(name)
    upward = [(line, module) for line, module in _package_imports(_tree(name))
              if module not in ORDER[:rank]]
    assert upward == []


def test_package_exports_what_its_layers_export():
    # each layer's __all__ lists its public names; the package exports
    # exactly those of the layers below cli, and __version__
    exported = ["__version__"]
    for name in ORDER[:-1]:
        exported += importlib.import_module(
            f"spectral_homotopy.{name}").__all__
    assert sorted(spectral_homotopy.__all__) == sorted(set(exported))


@pytest.mark.parametrize("name", ORDER[:-1])
def test_package_names_bind_their_layers_objects(name):
    layer = importlib.import_module(f"spectral_homotopy.{name}")
    for public in layer.__all__:
        assert getattr(spectral_homotopy, public) is getattr(layer, public)


def test_errors_lists_every_exception_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert set(errors.__all__) == classes


# a required size in an exception's message outside the template:
# "must be 4x4", "must be {n}x{n}", "must be square" or "must be a 2-d
# array"
SIZE_MESSAGE = re.compile(r"must be (square|a 2-d array|(\d+|\{[^}]*\})x)")


def _size_raises(tree):
    """Line numbers of the raises whose message states a required size."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  and isinstance(node.exc, ast.Call)
                  and any(SIZE_MESSAGE.search(ast.unparse(arg))
                          for arg in node.exc.args))


@pytest.mark.parametrize("name", ORDER)
def test_only_statespace_decides_a_size(name):
    # a size is checked by statespace's gate (_as_matrix, _as_stack,
    # _as_hermitian), which names the input and reports a wrong shape in
    # one template, "<name> must be <size>, got <shape>"; no module, the
    # gate's own included, states a size in any other words
    assert _size_raises(_tree(name)) == []
