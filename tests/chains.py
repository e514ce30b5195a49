"""The worked-example chains shared across the test modules.

``five_node`` is a regular five-state chain with a complete link graph,
``four_node`` a regular four-state chain whose second-order behaviour
matters, and ``eight_node`` the two-network chain that splits into the
closed classes {1..4} and {5..8} (the first block equals ``four_node``).
``three_node_defective`` is a regular chain that is not diagonalizable.
"""

import numpy as np

from dampedchain import DampingVector, Distribution, StochasticMatrix


def five_node_entries() -> np.ndarray:
    return np.array(
        [
            [1 / 5, 1 / 5, 1 / 5, 1 / 5, 1 / 5],
            [1 / 4, 0, 1 / 4, 1 / 4, 1 / 4],
            [0, 1 / 3, 0, 1 / 3, 1 / 3],
            [0, 1 / 3, 1 / 3, 0, 1 / 3],
            [0, 1 / 3, 1 / 3, 1 / 3, 0],
        ]
    )


def four_node_entries() -> np.ndarray:
    return np.array(
        [
            [0, 1, 0, 0],
            [1 / 3, 0, 1 / 3, 1 / 3],
            [0, 1 / 2, 0, 1 / 2],
            [0, 1 / 2, 1 / 2, 0],
        ]
    )


def eight_node_entries() -> np.ndarray:
    P = np.zeros((8, 8))
    P[0, 1] = 1
    P[1, [0, 2, 3]] = 1 / 3
    P[2, [1, 3]] = 1 / 2
    P[3, [1, 2]] = 1 / 2
    P[4, 5] = 1
    P[5, [6, 7]] = 1 / 2
    P[6, [4, 5, 7]] = 1 / 3
    P[7, [4, 5, 6]] = 1 / 3
    return P


def three_node_defective_entries() -> np.ndarray:
    # Edge list 1 3 / 2 1 / 2 3 / 3 1 / 3 2: the eigenvalue -1/2 has a 2x2 Jordan block.
    return np.array(
        [
            [0, 0, 1],
            [1 / 2, 0, 1 / 2],
            [1 / 2, 1 / 2, 0],
        ]
    )


def five_node():
    return StochasticMatrix(five_node_entries()), DampingVector.uniform(5)


def four_node():
    return StochasticMatrix(four_node_entries()), DampingVector.uniform(4)


def eight_node():
    return StochasticMatrix(eight_node_entries()), DampingVector.uniform(8)


def three_node_defective():
    return StochasticMatrix(three_node_defective_entries()), DampingVector(np.array([0.6, 0.3, 0.1]))


def linear_damping(m: int) -> DampingVector:
    """Damping weights proportional to (1, ..., m)."""
    weights = np.arange(1.0, m + 1)
    return DampingVector(weights / weights.sum())


FIVE_NODE_PI = np.array([5 / 66, 8 / 33, 5 / 22, 5 / 22, 5 / 22])
FOUR_NODE_PI = np.array([1 / 8, 3 / 8, 1 / 4, 1 / 4])

# Known second-order coefficient tables of the damped stationary laws.
FOUR_NODE_COEFFS = np.array(
    [
        [7 / 64, -3 / 64, -1 / 32, -1 / 32],
        [-1 / 512, -27 / 512, 7 / 256, 7 / 256],
    ]
)
EIGHT_NODE_BASE = np.array([1 / 16, 3 / 16, 1 / 8, 1 / 8, 1 / 12, 1 / 6, 1 / 8, 1 / 8])
EIGHT_NODE_COEFFS = np.array(
    [
        [7 / 128, -3 / 128, -1 / 64, -1 / 64, 5 / 144, -1 / 72, -1 / 96, -1 / 96],
        [-1 / 1024, -27 / 1024, 7 / 512, 7 / 512, 1 / 108, -7 / 432, 1 / 288, 1 / 288],
    ]
)

FIVE_NODE_EIGENVALUES = [
    1.0,
    -1 / 3,
    -1 / 3,
    -1 / 15 - np.sqrt(34) / 30,
    -1 / 15 + np.sqrt(34) / 30,
]
FOUR_NODE_EIGENVALUES = [
    1.0,
    -1 / 4 - np.sqrt(33) / 12,
    -1 / 2,
    -1 / 4 + np.sqrt(33) / 12,
]


def uniform_dist(m: int) -> Distribution:
    return Distribution.uniform(m)


def random_regular_chain(rng, m: int):
    """Strictly positive random matrix: one aperiodic class, all overlaps positive."""
    entries = rng.random((m, m)) ** 2 + 1e-3
    entries /= entries.sum(axis=1, keepdims=True)
    weights = rng.random(m) + 0.1
    return StochasticMatrix(entries), DampingVector(weights / weights.sum())


def random_singular_chain(rng, sizes):
    """Block-diagonal chain with strictly positive blocks: one class per block."""
    m = sum(sizes)
    entries = np.zeros((m, m))
    offset = 0
    for size in sizes:
        block = rng.random((size, size)) + 1e-3
        block /= block.sum(axis=1, keepdims=True)
        entries[offset : offset + size, offset : offset + size] = block
        offset += size
    weights = rng.random(m) + 0.1
    return StochasticMatrix(entries), DampingVector(weights / weights.sum())


def random_web_chain(rng, m: int):
    """Web graph: 5 distinct random out-links plus a ring edge and a self-loop per state.

    Out-links get uniform weight and the damping is uniform. Such chains have
    hundreds of nearly clustered eigenvalues, which no eigenvalue fit handles.
    """
    entries = np.zeros((m, m))
    for i in range(m):
        succ = (i + 1) % m
        others = [k for k in range(m) if k != i and k != succ]
        entries[i, rng.choice(others, 5, replace=False)] = 1.0
        entries[i, [i, succ]] = 1.0
    entries /= entries.sum(axis=1, keepdims=True)
    return StochasticMatrix(entries), DampingVector.uniform(m)
