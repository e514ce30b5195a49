"""Exact-rational oracles for the tests.

Every input float is read as the exact rational it stores
(``fractions.Fraction``), and each row of the matrix and the damping weights
are renormalized exactly before any use: a row sum off by 1e-16 moves the
stationary law of a chain with several closed classes by about 1e-16 / eps.
Gaussian elimination in Fractions is meant for chains of up to about a dozen
states.
"""

from fractions import Fraction

import numpy as np


def exact_probabilities(values) -> list:
    """The float entries of ``values`` as Fractions, scaled exactly to sum to 1."""
    exact = [Fraction(x) for x in np.asarray(values, dtype=float).tolist()]
    total = sum(exact)
    return [x / total for x in exact]


def exact_solve(A: list, b: list) -> list:
    """The solution of ``A x = b`` by Gauss-Jordan elimination in Fractions."""
    m = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * p for a, p in zip(rows[r], rows[c])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


def exact_damped_law(entries, weights, epsilon) -> list:
    """pi(eps) of ``(1 - eps) P0 + eps 1 d``, P0 = ``entries``, d = ``weights``, as Fractions.

    ``epsilon`` is a float, read exactly, or a Fraction, so any rational
    eps in (0, 1] can be asked for.
    """
    P0 = [exact_probabilities(row) for row in np.asarray(entries, dtype=float)]
    d = exact_probabilities(weights)
    e = Fraction(epsilon)
    m = len(d)
    # Rows of (P(eps)^T - I) with the normalization row in place of the last.
    A = [[(1 - e) * P0[j][i] + e * d[i] - (i == j) for j in range(m)] for i in range(m - 1)]
    A.append([Fraction(1)] * m)
    return exact_solve(A, [Fraction(0)] * (m - 1) + [Fraction(1)])


def l1_error(values, exact: list) -> float:
    """``sum |values_k - exact_k|``, summed exactly and rounded once."""
    return float(sum(abs(Fraction(x) - y) for x, y in zip(np.asarray(values, dtype=float).tolist(), exact)))
