"""Communication structure of the undamped matrix.

The analysis splits by how the base matrix P0 partitions the state space:

* regular   -- one closed aperiodic class covering every state;
* singular  -- two or more closed aperiodic classes covering every state;
* unsupported -- anything else (periodic classes or transient states).

Transient states are detected and reported but not analysed further.
"""

import enum
from collections import deque
from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import DampingVector, Distribution, StochasticMatrix
from .errors import RegimeError, ValidationError


class Regime(enum.Enum):
    REGULAR = "regular"
    SINGULAR = "singular"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ClosedClass:
    """A closed communicating class: no transition mass leaves it."""

    states: tuple
    period: int

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ChainStructure:
    """Closed classes, transient states and the resulting regime."""

    classes: tuple
    transient_states: tuple
    regime: Regime

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _strongly_connected_components(adj, m):
    # Iterative Tarjan; recursion would overflow near the m ~ 5000 target.
    index = [-1] * m
    low = [-1] * m
    on_stack = [False] * m
    stack = []
    components = []
    counter = 0

    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            while ptr < len(neighbors):
                w = neighbors[ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def _class_period(adj, states):
    """gcd of cycle lengths inside one strongly connected component.

    BFS levels from an arbitrary root; every internal edge (u, v) contributes
    level[u] + 1 - level[v] to the gcd.
    """
    members = set(states)
    root = states[0]
    level = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in members and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in states:
        for v in adj[u]:
            if v in members:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


def decompose(P0: StochasticMatrix, edge_tol: float = 0.0) -> ChainStructure:
    """Split the state space into closed classes and classify the regime.

    An edge i -> j exists when ``P0[i, j] > edge_tol`` (default: any strictly
    positive entry). A strongly connected component is a closed class when no
    edge leaves it; everything else is transient. The regime is regular for a
    single aperiodic class covering all states, singular for several aperiodic
    classes covering all states, and unsupported otherwise.
    """
    m = P0.dim
    entries = P0.entries
    adj = [np.nonzero(entries[i] > edge_tol)[0].tolist() for i in range(m)]

    components = _strongly_connected_components(adj, m)

    closed = []
    transient = []
    for comp in components:
        members = set(comp)
        leaks = any(w not in members for u in comp for w in adj[u])
        if leaks:
            transient.extend(comp)
        else:
            closed.append(ClosedClass(tuple(comp), _class_period(adj, comp)))
    closed.sort(key=lambda c: c.states[0])
    transient.sort()

    all_aperiodic = all(c.aperiodic for c in closed)
    if not transient and all_aperiodic and len(closed) == 1:
        regime = Regime.REGULAR
    elif not transient and all_aperiodic and len(closed) >= 2:
        regime = Regime.SINGULAR
    else:
        regime = Regime.UNSUPPORTED
    return ChainStructure(tuple(closed), tuple(transient), regime)


def class_mass(p: Distribution, structure: ChainStructure) -> np.ndarray:
    """Probability mass the distribution places on each closed class.

    The masses sum to 1 whenever there are no transient states. Mass on
    transient states of an unsupported decomposition has no per-class
    interpretation, so that case is rejected.
    """
    transient_mass = float(p.probs[list(structure.transient_states)].sum()) if structure.transient_states else 0.0
    if structure.regime is Regime.UNSUPPORTED and transient_mass > 0.0:
        raise RegimeError(
            "initial distribution puts mass on transient states of an unsupported decomposition"
        )
    return np.array([p.probs[list(cls.states)].sum() for cls in structure.classes])


def _check_closed(P0, states):
    members = list(states)
    outside = np.setdiff1d(np.arange(P0.dim), members)
    if outside.size:
        leak = P0.entries[np.ix_(members, outside)].sum(axis=1)
        if np.any(leak > P0.row_tol):
            raise ValidationError(
                f"class {tuple(states)} is not closed: transition mass leaks out"
            )


def restrict(P0: StochasticMatrix, cls: ClosedClass) -> StochasticMatrix:
    """Submatrix of P0 on one closed class, a valid stochastic matrix."""
    _check_closed(P0, cls.states)
    idx = list(cls.states)
    return StochasticMatrix(P0.entries[np.ix_(idx, idx)], P0.row_tol)


def class_matrices(P0: StochasticMatrix, structure: ChainStructure) -> tuple:
    """The matrix of each closed class, in ``structure.classes`` order.

    A regular chain's one class covers every state in natural order, so its
    matrix is P0 itself; any other chain's are one :func:`restrict` per class.
    """
    if structure.regime is Regime.REGULAR:
        return (P0,)
    return tuple(restrict(P0, cls) for cls in structure.classes)


def restrict_damping(d: DampingVector, cls: ClosedClass) -> DampingVector:
    """Damping weights renormalized to one closed class: d_k / f, f = class mass."""
    idx = list(cls.states)
    weights = d.weights[idx]
    return DampingVector(weights / weights.sum(), d.row_tol)


def restrict_distribution(p: Distribution, cls: ClosedClass) -> Distribution:
    """Initial distribution conditioned on one closed class.

    Requires positive mass on the class; callers handle the zero-mass branch
    themselves (the renormalized distribution is undefined there).
    """
    idx = list(cls.states)
    mass = p.probs[idx].sum()
    if mass <= 0.0:
        raise ValidationError("distribution has no mass on the requested class")
    return Distribution(p.probs[idx] / mass, p.row_tol)
