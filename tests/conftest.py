import sys

import numpy as np
import pytest

import chains


@pytest.fixture(scope="session")
def five_node():
    return chains.five_node()


@pytest.fixture(scope="session")
def four_node():
    return chains.four_node()


@pytest.fixture(scope="session")
def eight_node():
    return chains.eight_node()


@pytest.fixture(scope="session")
def three_node_defective():
    return chains.three_node_defective()


def naive_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, the independent oracle for matrix powers."""
    m, k = A.shape
    k2, n = B.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += A[i, l] * B[l, j]
            out[i, j] = s
    return out


def naive_min_overlap(entries: np.ndarray) -> float:
    """Scalar-loop minimal pairwise row overlap."""
    m = entries.shape[0]
    q = 1.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            s = 0.0
            for k in range(m):
                s += min(entries[i, k], entries[j, k])
            q = min(q, s)
    return q


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
