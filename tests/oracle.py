"""Independent oracles for the tests: exact rationals and naive loops.

Every input float is read as the exact rational it stores
(``fractions.Fraction``), and each row of the matrix and the damping weights
are renormalized exactly before any use: a row sum off by 1e-16 moves the
stationary law of a chain with several closed classes by about 1e-16 / eps.
Gaussian elimination in Fractions is meant for chains of up to about a dozen
states.

The closed classes are read from the matrix's link graph, independently of
``dampedchain.structure``. ``exact_limit_law`` is d Pi, the eps -> 0 limit of
pi(eps), transient states included; ``exact_coefficients`` the series
coefficients a_k; ``exact_min_overlap`` the minimal row overlap Q(P0^N);
``exact_tail_sums`` the partial sums behind the constant of bound families 1
and 2; ``exact_round_up`` the upward rounding of their printed values.

The naive loops (``naive_matmul``, ``naive_vecmat``, ``propagate``,
``naive_min_overlap``) compute in floats, one scalar or one row at a time,
and ``slice_min_overlap`` is the every-pair scan that ``min_row_overlap`` must
match bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from dampedchain import Distribution, StochasticMatrix


def exact_probabilities(values) -> list:
    """The float entries of ``values`` as Fractions, scaled exactly to sum to 1."""
    exact = [Fraction(x) for x in np.asarray(values, dtype=float).tolist()]
    total = sum(exact)
    return [x / total for x in exact]


def exact_matrix(entries) -> list:
    """The rows of ``entries`` as Fractions, each scaled exactly to sum to 1."""
    return [exact_probabilities(row) for row in np.asarray(entries, dtype=float)]


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


def _left_system(P: list) -> list:
    """The rows of ``(I - P)^T``, so that ``x (I - P) = r`` reads ``A x = r``."""
    n = len(P)
    return [[(i == j) - P[j][i] for j in range(n)] for i in range(n)]


def _solve_left(P: list, rhs: list, total) -> list:
    """The x with ``x (I - P) = rhs`` and ``sum(x) = total``, for P irreducible.

    The last equation gives way to the sum, which holds the same information
    whenever ``sum(rhs) = 0``, as for every system here.
    """
    A = _left_system(P)[:-1] + [[Fraction(1)] * len(P)]
    return exact_solve(A, list(rhs[:-1]) + [Fraction(total)])


def exact_law(P: list) -> list:
    """The stationary law of the irreducible Fraction matrix ``P``."""
    return _solve_left(P, [Fraction(0)] * len(P), 1)


def exact_damped_law(entries, weights, epsilon) -> list:
    """pi(eps) of ``(1 - eps) P0 + eps 1 d``, P0 = ``entries``, d = ``weights``, as Fractions.

    ``epsilon`` is a float, read exactly, or a Fraction, so any rational
    eps in (0, 1] can be asked for.
    """
    d = exact_probabilities(weights)
    e = Fraction(epsilon)
    return exact_law([[(1 - e) * p + e * w for p, w in zip(row, d)] for row in exact_matrix(entries)])


def closed_classes(entries) -> tuple:
    """``(classes, transient)``: the closed classes of the link graph, each a sorted
    list of states, in order of their first state, and the sorted transient states."""
    links = np.asarray(entries) != 0.0
    m = links.shape[0]
    reach = []
    for i in range(m):
        seen, stack = {i}, [i]
        while stack:
            for j in np.flatnonzero(links[stack.pop()]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    # A state is recurrent when every state it reaches reaches it back.
    recurrent = [i for i in range(m) if all(i in reach[j] for j in reach[i])]
    classes = sorted({tuple(sorted(reach[i])) for i in recurrent})
    return [list(c) for c in classes], [i for i in range(m) if i not in recurrent]


def _class_masses(P: list, d: list, classes: list, transient: list) -> list:
    """The mass d Pi puts on each closed class: ``d_j + d_T (I - Q_TT)^-1 R_Tj``."""
    Q = [[P[s][t] for t in transient] for s in transient]
    inflow = exact_solve(_left_system(Q), [d[s] for s in transient])
    return [
        sum(d[i] for i in cls) + sum(u * P[s][i] for u, s in zip(inflow, transient) for i in cls)
        for cls in classes
    ]


def exact_limit_law(entries, weights) -> list:
    """d Pi, the eps -> 0 limit of pi(eps), as Fractions: each closed class's
    law times the mass d puts on the class, directly and through the
    transient states; 0 on transient states."""
    P, d = exact_matrix(entries), exact_probabilities(weights)
    classes, transient = closed_classes(entries)
    out = [Fraction(0)] * len(d)
    for cls, mass in zip(classes, _class_masses(P, d, classes, transient)):
        for i, x in zip(cls, exact_law([[P[i][j] for j in cls] for i in cls])):
            out[i] = mass * x
    return out


def exact_coefficients(entries, weights, n_max: int) -> list:
    """The series coefficients a_1..a_n_max of pi(eps), as rows of Fractions.

    For a chain whose every state lies in a closed class: on class j with law
    pi_j and weights w = d_j / |d_j|, ``a_1 (I - P_j) = w - pi_j`` and
    ``a_k (I - P_j) = -a_(k-1) P_j``, each with ``sum(a_k) = 0``, and the rows
    are scaled by the class mass |d_j|.
    """
    P, d = exact_matrix(entries), exact_probabilities(weights)
    classes, transient = closed_classes(entries)
    assert not transient, "the coefficient oracle needs every state in a closed class"
    out = [[Fraction(0)] * len(d) for _ in range(n_max)]
    for cls in classes:
        Pj = [[P[i][j] for j in cls] for i in cls]
        mass = sum(d[i] for i in cls)
        rhs = [d[i] / mass - x for i, x in zip(cls, exact_law(Pj))]
        for k in range(n_max):
            a = _solve_left(Pj, rhs, 0)
            for i, x in zip(cls, a):
                out[k][i] = mass * x
            rhs = [-sum(a[s] * Pj[s][t] for s in range(len(cls))) for t in range(len(cls))]
    return out


def exact_min_overlap(entries, N: int) -> Fraction:
    """Q(P0^N): the least ``sum_k min(a_k, b_k)`` over pairs of distinct rows a, b of P0^N."""
    P = exact_matrix(entries)
    m = len(P)
    power = P
    for _ in range(N - 1):
        power = [[sum(row[k] * P[k][j] for k in range(m)) for j in range(m)] for row in power]
    return min(
        sum(min(a, b) for a, b in zip(power[i], power[j])) for i in range(m) for j in range(i + 1, m)
    )


def exact_tail_sums(entries, K: int) -> tuple:
    """``(columns, tv)`` for the irreducible matrix ``entries`` with exact law pi, as Fractions.

    ``columns[j] = sum_(n<=K) max_i |P^n(i, j) - pi_j|`` and ``tv[n - 1] =
    max_i TV(P^n(i, .), pi)`` for n = 1..K.
    """
    P = exact_matrix(entries)
    pi = exact_law(P)
    m = len(P)
    columns, tv = [Fraction(0)] * m, []
    power = P
    for n in range(1, K + 1):
        if n > 1:
            power = [[sum(row[k] * P[k][j] for k in range(m)) for j in range(m)] for row in power]
        gaps = [[abs(x - p) for x, p in zip(row, pi)] for row in power]
        columns = [c + max(gaps[i][j] for i in range(m)) for j, c in enumerate(columns)]
        tv.append(max(sum(row) for row in gaps) / 2)
    return columns, tv


def l1_error(values, exact: list) -> float:
    """``sum |values_k - exact_k|``, summed exactly and rounded once."""
    return float(sum(abs(Fraction(x) - y) for x, y in zip(np.asarray(values, dtype=float).tolist(), exact)))


def exact_round_up(x: float, digits: int) -> float:
    """The least decimal with ``digits`` significant digits that is >= x > 0, as the nearest float.

    The decimal exponent comes from exact comparisons with powers of ten. A
    decimal beyond the largest float gives ``inf``.
    """
    value = Fraction(x)
    # The digit counts put 10^exponent within a factor of 10 of x.
    exponent = len(str(value.numerator)) - len(str(value.denominator))
    while Fraction(10) ** exponent > value:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= value:
        exponent += 1
    unit = Fraction(10) ** (exponent - digits + 1)
    try:
        return float(math.ceil(value / unit) * unit)
    except OverflowError:
        return math.inf


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


def naive_vecmat(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Double-loop row vector times matrix, the oracle for ``vecmat``."""
    m = entries.shape[0]
    out = np.zeros(m)
    for j in range(m):
        s = 0.0
        for i in range(m):
            s += x[i] * entries[i, j]
        out[j] = s
    return out


def propagate(p: Distribution, P: StochasticMatrix, n: int) -> Distribution:
    """The n-step law ``p P^n`` by n dense vector-matrix products, the oracle for trajectories."""
    v = p.probs
    for _ in range(n):
        v = v @ P.entries
    return Distribution(v, max(1, n) * P.row_tol)


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


def slice_min_overlap(entries: np.ndarray) -> float:
    """Every-pair minimal row overlap, one row against all later rows at a time.

    The bit-for-bit oracle of ``min_row_overlap``: each overlap is the float
    ``np.minimum(row, rows).sum(axis=1)`` over contiguous rows, and the scan
    stops at the first overlap of 0.
    """
    m = entries.shape[0]
    q = 1.0
    for i in range(m):
        mins = np.minimum(entries[i], entries[i + 1 :])
        if mins.size:
            q = min(q, float(mins.sum(axis=1).min()))
        if q == 0.0:
            break
    return q
