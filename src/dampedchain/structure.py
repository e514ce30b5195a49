"""Communication structure of the undamped matrix.

The analysis splits by how the base matrix P0 partitions the state space:

* regular   -- one closed aperiodic class covering every state;
* singular  -- two or more closed aperiodic classes covering every state;
* unsupported -- anything else (periodic classes or transient states).

Transient states are detected and reported; only the direct stationary
solve of P(eps), eps > 0, works on them. Every analysis runs class by class,
a regular chain being the one-class case, on the per-class view that
:class:`ChainStructure` builds once: each closed class's matrix, law and power walk.
"""

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from .core import Distribution, StochasticMatrix, block_matrix, require_dim, row_nonzeros
from .errors import RegimeError, SingularSystemError, ValidationError


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
    """Closed classes, transient states and the resulting regime of ``P0``.

    ``matrices``, ``laws`` and ``walks`` are the per-class view, each built on
    first use, so everything that shares one structure restricts, solves and
    walks each closed class once. ``P0`` takes no part in comparison, hashing or repr.
    """

    classes: tuple
    transient_states: tuple
    regime: Regime
    P0: StochasticMatrix = field(compare=False, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def require_classes(self) -> None:
        """Refuse an unsupported chain; ``matrices``, and so every per-class quantity, calls this first."""
        if self.regime is Regime.UNSUPPORTED:
            raise RegimeError(
                "per-class analysis needs a regular or singular chain (every state in an aperiodic closed "
                "class); stationary, coupling-sim and bound families 5 and 6 still run on this chain"
            )

    def require_unique_law(self, epsilon: float) -> None:
        """Refuse epsilon = 0 on a chain with several closed classes: P(0) = P0 has no unique law."""
        if epsilon == 0.0 and self.class_count > 1:
            raise RegimeError(
                f"P(0) = P0 has {self.class_count} closed classes and no unique stationary law; "
                "use epsilon > 0 (on a singular chain, the stationary section's 'limit' entry is "
                "the eps -> 0 limit)"
            )

    @cached_property
    def matrices(self) -> tuple:
        """The matrix of each closed class, in ``classes`` order.

        A regular chain's one class covers every state in natural order, so its
        matrix is P0 itself; any other chain's are one :func:`restrict` per class.
        """
        self.require_classes()
        if self.regime is Regime.REGULAR:
            return (self.P0,)
        return tuple(restrict(self.P0, cls) for cls in self.classes)

    @cached_property
    def laws(self) -> tuple:
        """Stationary law of each closed class, one direct solve of its matrix.

        A class whose stationary system is singular holds several closed
        classes, which is refused with RegimeError naming the class.
        """
        # stationary imports this module, so its solver is imported on first use.
        from .stationary import stationary_direct

        laws = []
        for cls, M in zip(self.classes, self.matrices):
            try:
                laws.append(stationary_direct(M).pi)
            except SingularSystemError as exc:
                raise RegimeError(
                    f"closed class {cls.states} splits further; the chain must be treated as singular"
                ) from exc
        return tuple(laws)

    @cached_property
    def walks(self) -> tuple:
        """Each class matrix's :class:`~dampedchain.bounds.PowerWalk`, given the class law.

        A walk depends only on its class, so every bound context built on the
        structure shares its Delta_N scans and certified tail.
        """
        # bounds imports this module, so the walk is imported on first use.
        from .bounds import PowerWalk

        return tuple(PowerWalk(M, lambda j=j: self.laws[j]) for j, M in enumerate(self.matrices))


def _strongly_connected_components(adj, m):
    """Kosaraju's two searches, on explicit stacks: recursion would overflow near m ~ 5000.

    Each component comes out sorted; the components come in no particular order.
    """
    seen = [False] * m
    finished = []
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            v, successors = stack[-1]
            for w in successors:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    reverse = [[] for _ in range(m)]
    for v in range(m):
        for w in adj[v]:
            reverse[w].append(v)
    # In the reversed graph, the states reached from the latest finisher not yet
    # in a component are its component.
    assigned = [False] * m
    components = []
    for root in reversed(finished):
        if assigned[root]:
            continue
        assigned[root] = True
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in reverse[v]:
                if not assigned[w]:
                    assigned[w] = True
                    stack.append(w)
        components.append(sorted(comp))
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


def _successors(P0: StochasticMatrix) -> list:
    """Each state's successors: the columns of its row's nonzero values, in order; a ``-0.0`` is no edge."""
    nonzeros = row_nonzeros(P0)
    edge = nonzeros.values != 0.0
    counts = np.bincount(np.repeat(np.arange(P0.dim), nonzeros.counts)[edge], minlength=P0.dim)
    return [row.tolist() for row in np.split(nonzeros.cols[edge], np.cumsum(counts)[:-1])]


def _partition(P0: StochasticMatrix):
    """Closed classes (with periods) and transient states of the transition graph of P0."""
    m = P0.dim
    adj = _successors(P0)

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
    return tuple(closed), tuple(transient)


def decompose(P0: StochasticMatrix) -> ChainStructure:
    """Split the state space into closed classes and classify the regime.

    An edge i -> j exists when ``P0[i, j] > 0``. A strongly connected component
    is a closed class when no edge leaves it; everything else is transient. The
    regime is regular for a single aperiodic class covering all states,
    singular for several aperiodic classes covering all states, and
    unsupported otherwise.

    The graph search runs once per matrix: its result is kept on ``P0``, which
    is immutable, so a command's structure and every direct solve of a P(eps)
    built on ``P0`` share one search. Each call returns a new structure, whose
    per-class view is built on first use.
    """
    cache = vars(P0)
    if "_partition" not in cache:
        cache["_partition"] = _partition(P0)
    closed, transient = cache["_partition"]

    all_aperiodic = all(c.aperiodic for c in closed)
    if not transient and all_aperiodic and len(closed) == 1:
        regime = Regime.REGULAR
    elif not transient and all_aperiodic and len(closed) >= 2:
        regime = Regime.SINGULAR
    else:
        regime = Regime.UNSUPPORTED
    return ChainStructure(closed, transient, regime, P0)


def class_mass(p: Distribution, structure: ChainStructure) -> np.ndarray:
    """Probability mass the distribution places on each closed class.

    The masses sum to 1 whenever there are no transient states. Mass on
    transient states of an unsupported decomposition has no per-class
    interpretation, so that case is rejected.
    """
    require_dim("distribution", p.dim, structure.P0.dim)
    transient_mass = float(p.probs[list(structure.transient_states)].sum()) if structure.transient_states else 0.0
    if structure.regime is Regime.UNSUPPORTED and transient_mass > 0.0:
        raise RegimeError(
            "initial distribution puts mass on transient states of an unsupported decomposition"
        )
    return np.array([p.probs[list(cls.states)].sum() for cls in structure.classes])


def restrict(P0: StochasticMatrix, cls: ClosedClass) -> StochasticMatrix:
    """Submatrix of P0 on one closed class, a valid stochastic matrix.

    The block and the check that no more than ``row_tol`` of a row's mass
    leaves the class read only the class rows' nonzeros
    (:func:`~dampedchain.core.block_matrix`), and the block comes with its
    own row-compressed view.
    """
    entries, nonzeros, leak = block_matrix(P0, list(cls.states))
    if np.any(leak > P0.row_tol):
        raise ValidationError(f"class {tuple(cls.states)} is not closed: transition mass leaks out")
    return StochasticMatrix._of_nonzeros(entries, nonzeros, P0.row_tol)
