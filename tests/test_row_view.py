"""The row-compressed view of P0 against the dense array it stands for.

Every view holds every entry with nonzero bits, ``-0.0`` included. Class
blocks, the transient block, the stationary systems and the damped law are
built from the nonzeros of the matrix's rows when it is sparse. Each must be
bit for bit what gathering the same block from the dense array gives, on the
test data chains, on seeded sparse chains with transient states and
interleaved classes, on a dense CSV input above the sparse cutoff, and on
sparse matrix JSON holding ``-0.0`` entries: small classes, and classes
sparse enough for their blocks to carry views of their own. The weights with
which the classes are entered from the transient states are one product by
P0, which on a chain with a view sums in another order than the dense gather
of P0's transient rows: on every chain with a view and transient states, the
law is held to that gather within a relative 1e-14.
"""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import benchmark_workloads, count_calls
from dampedchain import (
    DampedChain,
    DampingVector,
    StochasticMatrix,
    ValidationError,
    decompose,
    ingest,
    restrict,
    stationary_direct,
    stationary_series,
)
from dampedchain.core import SPARSE_MAX_DENSITY
from dampedchain.stationary import _damped_system

DATA = Path(__file__).parent / "data"
EPSILONS = (0.05, 0.5, 1.0)


def gathered_system(entries, states, weights, eps):
    """The stationary system of the block of ``entries`` on ``states``, from the dense gather."""
    A = (1.0 - eps) * entries[np.ix_(states, states)].T
    A += eps * weights[:, np.newaxis]
    m = len(states)
    A[np.arange(m), np.arange(m)] -= 1.0
    A[m - 1, :] = 1.0
    return A


def gathered_law(entries, d, eps):
    """pi(eps) by stochastic complementation with every block gathered from the dense array."""
    structure = decompose(StochasticMatrix(entries))
    pi = np.zeros(len(d))
    entry = d
    T = list(structure.transient_states)
    if T:
        Q = entries[np.ix_(T, T)]
        u = np.linalg.solve(np.eye(len(T)) - (1.0 - eps) * Q.T, d[T])
        pi[T] = eps * u
        entry = d + (1.0 - eps) * (u @ entries[T, :])
    for cls in structure.classes:
        idx = list(cls.states)
        e = entry[idx]
        mass = e.sum()
        pi[idx] = mass * np.linalg.solve(gathered_system(entries, idx, e / mass, eps), np.eye(len(idx))[-1])
    return pi


def sparse_edges(seed: int) -> str:
    """Two closed 80-state classes and 80 transient states, labels shuffled: about 2% nonzeros."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(240) + 1
    lines = []
    for start in (0, 80):
        for i in range(start, start + 80):
            # A ring and a self-loop make each class one aperiodic class.
            targets = {i, start + (i - start + 1) % 80, *(start + rng.integers(0, 80, 3))}
            lines += [f"{label[i]} {label[t]}" for t in sorted(targets)]
    for i in range(160, 240):
        targets = {int(rng.integers(0, 160)), *rng.integers(0, 240, 3)}
        lines += [f"{label[i]} {label[t]}" for t in sorted(targets)]
    return "\n".join(lines) + "\n"


def dense_csv(seed: int) -> str:
    """Strictly positive blocks of 25 and 35 states and 10 transient rows: every entry of those rows nonzero."""
    rng = np.random.default_rng(seed)
    entries = np.zeros((70, 70))
    entries[:25, :25] = rng.random((25, 25)) + 1e-3
    entries[25:60, 25:60] = rng.random((35, 35)) + 1e-3
    entries[60:] = rng.random((10, 70)) + 1e-3
    entries /= entries.sum(axis=1, keepdims=True)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in entries) + "\n"


def negative_zero_json() -> str:
    """Two closed 50-state rings with self-loops, 2% nonzeros, and a ``-0.0`` inside each class."""
    entries = np.zeros((100, 100))
    for start in (0, 50):
        for i in range(start, start + 50):
            entries[i, i] = entries[i, start + (i - start + 1) % 50] = 0.5
    entries[3, 10] = entries[60, 77] = -0.0
    return json.dumps({"matrix": entries.tolist()})


def sparse_classes_json(seed: int) -> str:
    """Two closed 200-state classes and 40 transient states, labels shuffled, with ``-0.0`` entries.

    Each class row has a ring edge, a self-loop and up to 3 random links, so
    a class block is about 2% nonzeros and carries a view of its own. One
    ``-0.0`` lies inside the first class and one in a transient row.
    """
    rng = np.random.default_rng(seed)
    entries = np.zeros((440, 440))
    for start in (0, 200):
        for i in range(start, start + 200):
            targets = [i, start + (i - start + 1) % 200, *(start + rng.integers(0, 200, 3))]
            entries[i, targets] = rng.random(len(targets)) + 0.1
    for i in range(400, 440):
        entries[i, [rng.integers(0, 400), *rng.integers(0, 440, 3)]] = rng.random(4) + 0.1
    entries /= entries.sum(axis=1, keepdims=True)
    for i, j in ((5, 150), (420, 300)):
        assert entries[i, j] == 0.0
        entries[i, j] = -0.0
    label = rng.permutation(440)
    return json.dumps({"matrix": entries[np.ix_(label, label)].tolist()})


def web_sink_edges() -> str:
    """The benchmark's web 300 with state 1 linked to a self-looped sink: 300 transient states."""
    lines = benchmark_workloads().web_edges(random.Random(5), 300)
    return "\n".join(lines + ["1 301", "301 301"]) + "\n"


def dangling_web_edges(m: int = 400, dangling: int = 40) -> str:
    """A web graph in which ``dangling`` states have no out-links and every other state 6 and a self-loop.

    Read with the self-loop policy, each dangling state is a one-state
    closed class and every other state is transient.
    """
    rng = random.Random(7)
    sinks = set(rng.sample(range(m), dangling))
    lines = []
    for i in range(m):
        if i not in sinks:
            targets = sorted([i, *rng.sample([k for k in range(m) if k != i], 6)])
            lines += [f"{i + 1} {t + 1}" for t in targets]
    return "\n".join(lines) + "\n"


def scattered(view) -> np.ndarray:
    """The dense array of a row-compressed view: its nonzeros scattered onto zeros."""
    m = len(view.counts)
    entries = np.zeros((m, m))
    entries[np.repeat(np.arange(m), view.counts), view.cols] = view.values
    return entries


def _chain(tmp_path, name):
    if name == "negative-zero-json":
        path = tmp_path / "matrix.json"
        path.write_text(negative_zero_json())
    elif name == "sparse-classes-json":
        path = tmp_path / "classes.json"
        path.write_text(sparse_classes_json(4))
    elif name.startswith("sparse"):
        path = tmp_path / "sparse.txt"
        path.write_text(sparse_edges(int(name[-1])))
    elif name == "dense-csv":
        path = tmp_path / "dense.csv"
        path.write_text(dense_csv(5))
    elif name == "web300-sink":
        path = tmp_path / "web300sink.txt"
        path.write_text(web_sink_edges())
    elif name == "dangling-web":
        path = tmp_path / "dangling.txt"
        path.write_text(dangling_web_edges())
    else:
        path = DATA / f"{name}_edges.txt"
    P, _ = ingest(path, dangling="self-loop" if name == "dangling-web" else "reject")
    w = np.random.default_rng(P.dim).random(P.dim) + 0.1
    return P, DampingVector(w / w.sum())


CHAINS = [path.name.removesuffix("_edges.txt") for path in sorted(DATA.glob("*_edges.txt"))]
CHAINS += ["sparse-1", "sparse-2", "dense-csv", "negative-zero-json", "sparse-classes-json"]


def test_the_chains_cover_both_sides_of_the_cutoff(tmp_path):
    for name in ("sparse-1", "sparse-2", "sparse-classes-json"):
        P, _ = _chain(tmp_path, name)
        assert scattered(P._nonzeros).tobytes() == P.entries.tobytes()
        assert decompose(P).transient_states and decompose(P).class_count == 2
    P, _ = _chain(tmp_path, "dense-csv")
    assert P._nonzeros is None and np.count_nonzero(P.entries) > SPARSE_MAX_DENSITY * P.dim**2
    P, _ = _chain(tmp_path, "negative-zero-json")
    assert np.signbit(P.entries).sum() == 2 and scattered(P._nonzeros).tobytes() == P.entries.tobytes()
    # Each class block of 200 states has a view of its own, and one holds a -0.0.
    P, _ = _chain(tmp_path, "sparse-classes-json")
    blocks = [restrict(P, cls) for cls in decompose(P).classes]
    assert [M.dim for M in blocks] == [200, 200] and all(M._nonzeros is not None for M in blocks)
    assert np.signbit(P.entries).sum() == 2 and sum(np.signbit(M.entries).sum() for M in blocks) == 1


@pytest.mark.parametrize("name", CHAINS)
def test_restrict_is_the_dense_gather_with_its_own_view(tmp_path, name):
    P, _ = _chain(tmp_path, name)
    for cls in decompose(P).classes:
        idx = list(cls.states)
        block = restrict(P, cls)
        gathered = StochasticMatrix(P.entries[np.ix_(idx, idx)])
        assert block.entries.tobytes() == gathered.entries.tobytes()
        assert stationary_direct(block).pi.probs.tobytes() == stationary_direct(gathered).pi.probs.tobytes()
        scanned = gathered._nonzeros
        if scanned is None:
            assert block._nonzeros is None
        else:
            # The block's view holds every entry with nonzero bits, as the view scanned from the gather does.
            assert scattered(block._nonzeros).tobytes() == block.entries.tobytes()
            for got, want in zip(block._nonzeros, scanned):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["eight_node", "sparse-1", "dense-csv"])
def test_restrict_refuses_a_class_whose_rows_leak(tmp_path, name):
    from dampedchain.structure import ClosedClass

    P, _ = _chain(tmp_path, name)
    # A closed class less one of its states: the rows that link to it leak.
    states = decompose(P).classes[0].states[:-1]
    with pytest.raises(ValidationError) as info:
        restrict(P, ClosedClass(states, 1))
    assert str(info.value) == f"class {states} is not closed: transition mass leaks out"


@pytest.mark.parametrize("name", [*CHAINS, "web300-sink", "dangling-web"])
def test_every_system_and_law_is_the_dense_gathers(tmp_path, name):
    P, d = _chain(tmp_path, name)
    structure = decompose(P)
    T = list(structure.transient_states)
    # The transient weights are one product by P0 (see the module docstring):
    # with a view it sums in another order than the gather's u @ P0[T].
    reordered = bool(T) and P._nonzeros is not None
    for eps in EPSILONS:
        for cls, M in zip(structure.classes, structure.matrices):
            idx = list(cls.states)
            w = d.weights[idx] / d.weights[idx].sum()
            A = _damped_system(M, w, eps)
            assert A.tobytes() == gathered_system(P.entries, idx, w, eps).tobytes()
        whole = _damped_system(P, d.weights, eps)
        assert whole.tobytes() == gathered_system(P.entries, list(range(P.dim)), d.weights, eps).tobytes()
        pi = stationary_direct(DampedChain(P, d, eps)).pi.probs
        expected = np.clip(gathered_law(P.entries, d.weights, eps), 0.0, 1.0)
        if structure.class_count == 1 and not T:
            expected = np.clip(np.linalg.solve(whole, np.eye(P.dim)[-1]), 0.0, 1.0)
        if reordered:
            np.testing.assert_allclose(pi, expected, rtol=1e-14, atol=0)
        else:
            assert pi.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["web300-sink", "dangling-web", "transient", "two_cycles_transient"])
def test_transient_weights_are_one_product_by_p0(tmp_path, name):
    # The classes are entered with d + (1 - eps) P0.vecmat(u), u scattered onto the
    # transient states. Against the gather of P0's transient rows, u @ P0[T]: on a
    # chain with a view the sparse product sums in another order, and on a dense
    # chain it is the same product.
    P, d = _chain(tmp_path, name)
    structure = decompose(P)
    assert structure.transient_states
    assert (P._nonzeros is not None) == (name in ("web300-sink", "dangling-web"))
    if name == "dangling-web":
        assert structure.class_count == 40 and len(structure.transient_states) == 360
    for eps in (0.05, 0.15, 0.5):
        pi = stationary_direct(DampedChain(P, d, eps)).pi.probs
        gathered = np.clip(gathered_law(P.entries, d.weights, eps), 0.0, 1.0)
        if P._nonzeros is None:
            assert pi.tobytes() == gathered.tobytes()
        else:
            np.testing.assert_allclose(pi, gathered, rtol=1e-14, atol=0)
        np.testing.assert_allclose(pi, stationary_series(P, d, eps).pi.probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["eight_node", "two_cycles_transient", "sparse-1", "dense-csv"])
def test_a_grid_of_solves_gathers_each_class_block_once(tmp_path, monkeypatch, name):
    P, d = _chain(tmp_path, name)
    structure = decompose(P)
    restricted = count_calls(monkeypatch, "restrict")
    for eps in (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.5, 1.0):
        stationary_direct(DampedChain(P, d, eps))
    # Each class block is gathered once, for the structure's class matrices.
    assert [args[1] for args in restricted] == list(structure.classes)


def test_a_dense_transient_block_is_gathered_without_a_scan():
    # 500 transient states that link everywhere beside a closed class of 500: no view.
    entries = np.random.default_rng(3).random((1000, 1000))
    entries[500:, :500] = 0.0
    entries /= entries.sum(axis=1, keepdims=True)
    P = StochasticMatrix(entries)
    assert P._nonzeros is None
    structure = decompose(P)
    assert len(structure.transient_states) == 500 and structure.class_count == 1
    tracemalloc.start()
    try:
        stationary_direct(DampedChain(P, DampingVector.uniform(1000), 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The class and transient blocks are 2 MB each; a scan of the transient rows held some 25 MB.
    assert peak < 8 * 2**20


def test_a_scanned_view_is_the_view_built_at_ingest(tmp_path):
    # The same chain as an edge list and as the matrix JSON of its echo.
    P, _ = _chain(tmp_path, "sparse-1")
    scanned = StochasticMatrix(P.entries)._nonzeros
    assert scattered(scanned).tobytes() == P.entries.tobytes()
    for got, want in zip(P._nonzeros, scanned):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
