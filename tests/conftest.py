import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import chains
from dampedchain import DampedChain, StochasticMatrix
# tests/test_acceptance.py imports this oracle from here.
from oracle import naive_min_overlap  # noqa: F401


# Function-scoped: a matrix keeps its structure (``decompose``), with its class
# matrices, laws and walks, so each test gets matrices no other test has read.
@pytest.fixture
def five_node():
    return chains.five_node()


@pytest.fixture
def four_node():
    return chains.four_node()


@pytest.fixture
def eight_node():
    return chains.eight_node()


@pytest.fixture
def three_node_defective():
    return chains.three_node_defective()


def rank_one(d) -> StochasticMatrix:
    """The damping matrix D, every row equal to the weights of ``d``."""
    return StochasticMatrix(np.tile(d.weights, (d.dim, 1)))


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to the package function ``name``.

    Every module binding of the function is replaced, so calls are counted
    whichever module makes them, including the package's own internal calls.
    """
    calls = []
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "dampedchain"]
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def spy(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def count_products(monkeypatch) -> dict:
    """Count the row-vector products by ``StochasticMatrix.vecmat`` and ``DampedChain.vecmat`` from now on.

    The counts are keyed by the class name. A product by P(eps) also counts
    as one by P0, which its rank-one form calls.
    """
    counts = {"StochasticMatrix": 0, "DampedChain": 0}
    for cls in (StochasticMatrix, DampedChain):

        def spy(self, x, _name=cls.__name__, _original=cls.vecmat):
            counts[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(cls, "vecmat", spy)
    return counts


def benchmark_workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class _LoggedEntries(np.ndarray):
    """Entries of a matrix that log every matrix-matrix product whose right factor they are."""

    def __matmul__(self, other):
        return _logged_product(self, other)

    def __rmatmul__(self, other):
        return _logged_product(other, self)


def _logged_product(left, right):
    out = np.asarray(left) @ np.asarray(right)
    products = getattr(right, "products", None)
    if products is not None and np.ndim(left) == 2:
        products.append(out)
    return out


def log_products(matrix) -> list:
    """Record every ``A @ matrix.entries`` with a 2-D A from now on, in order.

    The matrix's entries are swapped for a read-only view that logs; views and
    arrays derived from them (a transpose, a difference) do not log.
    """
    view = np.asarray(matrix.entries).view(_LoggedEntries)
    view.products = []
    object.__setattr__(matrix, "entries", view)
    return view.products


# Floats whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal, a tiny normal, and values whose shortest repr has 16-17 digits.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3, 1.0]


@st.composite
def square_matrices(draw, elements):
    """Square float64 arrays of side 1..6, some of whose rows hold a single 1.0."""
    m = draw(st.integers(1, 6))
    values = draw(st.lists(elements, min_size=m * m, max_size=m * m))
    entries = np.array(values, dtype=np.float64).reshape(m, m)
    for i in draw(st.sets(st.integers(0, m - 1))):
        entries[i] = 0.0
        entries[i, draw(st.integers(0, m - 1))] = 1.0
    return entries
