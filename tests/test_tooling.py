"""The benchmark traces package functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, name) for module, names in child.TRACED.items() for name in names]


@pytest.mark.parametrize(
    "module_name, name", traced_names(), ids=lambda value: value
)
def test_traced_function_exists(module_name, name):
    module = importlib.import_module(f"dampedchain.{module_name}")
    assert callable(getattr(module, name, None)), f"dampedchain.{module_name}.{name} is gone"


def test_traced_pair_cdf_exists():
    # perfbench/child.py wraps CouplingKernel.pair_cdf whenever it traces.
    from dampedchain.coupling import CouplingKernel

    assert callable(getattr(CouplingKernel, "pair_cdf", None)), "CouplingKernel.pair_cdf is gone"
