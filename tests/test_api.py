"""The package's public names: an explicit list of the paper's quantities."""

import ast
import io
import sys
import types
from pathlib import Path

import dampedchain

INIT = Path(dampedchain.__file__)


def test_all_is_a_literal_list_of_names():
    tree = ast.parse(INIT.read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert isinstance(value, ast.List)
    assert all(isinstance(item, ast.Constant) and isinstance(item.value, str) for item in value.elts)
    assert len(set(dampedchain.__all__)) == len(dampedchain.__all__)


def test_every_public_name_resolves_to_no_module():
    for name in dampedchain.__all__:
        value = getattr(dampedchain, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_leaves_the_callers_names_alone():
    namespace = {}
    exec("import io\nfrom dampedchain import *", namespace)
    assert namespace["io"] is io is sys.modules["io"]
    assert sorted(k for k in namespace if k not in ("__builtins__", "io")) == sorted(dampedchain.__all__)


def test_helpers_are_reached_through_their_modules():
    for name in ("matrix_power", "estimate_decay", "triangular_bound", "spectral_coefficients"):
        assert not hasattr(dampedchain, name)
