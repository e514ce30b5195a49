"""Communication structure of the undamped matrix.

The analysis splits by how the base matrix P0 partitions the state space:

* regular   -- one closed aperiodic class covering every state;
* singular  -- two or more closed aperiodic classes covering every state;
* unsupported -- anything else (periodic classes or transient states).

One depth-first search of P0's transition graph finds the closed classes,
their periods and the transient states (:func:`decompose`). On a chain with
transient states or a periodic class, the direct, power and series solves of
P(eps), the meeting-time simulator and bound families 5 and 6 run; every
per-class law, walk and constant is refused (``require_classes``). Every
analysis runs class by class, a regular chain being the one-class case, on
the per-matrix objects that :class:`ChainStructure` holds once: each closed
class's matrix, law and power walk, and P0's own walk.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from .core import Distribution, StochasticMatrix, require_dim, row_nonzeros
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

    The structure is the one holder of every per-matrix object, each built on
    first use: the per-class view ``matrices``, ``laws`` and ``walks``, and
    P0's walk ``walk``. So everything that shares one structure restricts,
    solves and walks each closed class, and walks P0, once, and
    :func:`decompose` keeps one structure per matrix. ``matrices`` holds any
    chain's closed classes and ``walk`` is built on any chain; ``laws`` and
    ``walks`` carry the gate, ``require_classes``. ``P0`` takes no part in
    comparison, hashing or repr.
    """

    classes: tuple
    transient_states: tuple
    regime: Regime
    P0: StochasticMatrix = field(compare=False, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def require_classes(self) -> None:
        """Refuse an unsupported chain; ``laws`` and ``walks``, and so every per-class constant, call it first."""
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

    def require_n_step_limit(self, epsilon: float) -> None:
        """Refuse epsilon = 0 on a chain with a periodic closed class, where P0's n-step law has no limit."""
        for j, cls in enumerate(self.classes):
            if epsilon == 0.0 and not cls.aperiodic:
                raise RegimeError(
                    f"closed class {j + 1} of P0 ({cls.size} states from state {cls.states[0] + 1}) has "
                    f"period {cls.period}, so the n-step law of P(0) = P0 has no limit and the power route "
                    "cannot converge; use epsilon > 0"
                )

    @cached_property
    def matrices(self) -> tuple:
        """The matrix of each closed class, in ``classes`` order, on any chain.

        A class that covers every state in natural order has P0 itself as its
        matrix; every other class's is one :func:`restrict`.
        """
        if self.class_count == 1 and not self.transient_states:
            return (self.P0,)
        return tuple(restrict(self.P0, cls) for cls in self.classes)

    @cached_property
    def laws(self) -> tuple:
        """Stationary law of each closed class, one direct solve of its matrix, behind ``require_classes``.

        A class whose stationary system is singular holds several closed
        classes, which is refused with RegimeError naming the class.
        """
        # stationary imports this module, so its solver is imported on first use.
        from .stationary import stationary_direct

        self.require_classes()
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
        """Each class matrix's :class:`~dampedchain.bounds.PowerWalk`, given the class law, behind the gate.

        A walk depends only on its class, so every bound context built on the
        structure shares its Delta_N scans and certified tail.
        """
        # bounds imports this module, so the walk is imported on first use.
        from .bounds import PowerWalk

        self.require_classes()
        return tuple(PowerWalk(M, lambda j=j: self.laws[j]) for j, M in enumerate(self.matrices))

    @cached_property
    def walk(self):
        """P0's one :class:`~dampedchain.bounds.PowerWalk`, on any chain.

        On a regular chain it is the one class walk, ``walks[0]``, with its
        law; on any other chain it is a walk without a law, built on first
        use. Every bound context built on the structure shares its Delta_N
        scans. A singular chain's contexts never read it: rows in different
        closed classes share no support, so Q(P0^N) = 0 by structure.
        """
        from .bounds import PowerWalk

        return self.walks[0] if self.regime is Regime.REGULAR else PowerWalk(self.P0)


def _successors(P0: StochasticMatrix) -> list:
    """Each state's successors: the columns of its row's nonzero values, in order; a ``-0.0`` is no edge."""
    nonzeros = row_nonzeros(P0)
    edge = nonzeros.values != 0.0
    counts = np.bincount(np.repeat(np.arange(P0.dim), nonzeros.counts)[edge], minlength=P0.dim)
    return [row.tolist() for row in np.split(nonzeros.cols[edge], np.cumsum(counts)[:-1])]


def _partition(P0: StochasticMatrix):
    """Closed classes (with periods) and transient states of the transition graph of P0.

    One depth-first search (Tarjan, 1972) on explicit stacks, since recursion
    would overflow near m ~ 1000. A state's index is its place on the stack of
    unfinished states, which holds them in the order they were reached. Its
    low link is the least index that it, or a state below it in the search
    tree, reaches by one edge to a state on that stack, so a state whose low
    link is its own index roots a component: the states from it up. An edge
    to a state on the stack stays inside the component; an edge to a finished
    state leaves it. So a component is closed when none of its edges reaches
    a component that finished before it.

    A closed class's period is the gcd of ``depth(u) + 1 - depth(v)`` over its
    edges (u, v), with depths in the search tree, which spans the class from
    its root. Around a cycle the depths telescope, so each cycle's length is a
    sum of terms and the gcd divides the period. Each term is a multiple of the
    period: with L the length of a path from v to the root, the closed walks
    root -> u -> v -> root and root -> v -> root have lengths
    ``depth(u) + 1 + L`` and ``depth(v) + L`` (depths from the root).
    """
    m = P0.dim
    adj = _successors(P0)
    index = [-1] * m  # -1 until reached, m once its component is finished
    low = [0] * m
    depth = [0] * m
    leaks = [False] * m
    unfinished, closed, transient = [], [], []
    for root in range(m):
        if index[root] >= 0:
            continue
        index[root] = low[root] = len(unfinished)
        unfinished.append(root)
        path = [(root, iter(adj[root]))]
        while path:
            v, successors = path[-1]
            for w in successors:
                seen = index[w]
                if seen < 0:
                    index[w] = low[w] = len(unfinished)
                    unfinished.append(w)
                    depth[w] = depth[v] + 1
                    path.append((w, iter(adj[w])))
                    break
                if seen == m:
                    leaks[v] = True
                elif seen < low[v]:
                    low[v] = seen
            else:
                path.pop()
                if low[v] == index[v]:
                    comp = unfinished[index[v]:]
                    del unfinished[index[v]:]
                    for u in comp:
                        index[u] = m
                    if any(leaks[u] for u in comp):
                        transient.extend(comp)
                    else:
                        closed.append(ClosedClass(tuple(sorted(comp)), _period(adj, depth, comp)))
                if path:
                    u = path[-1][0]
                    if index[v] == m:
                        leaks[u] = True
                    elif low[v] < low[u]:
                        low[u] = low[v]
    closed.sort(key=lambda c: c.states[0])
    transient.sort()
    return tuple(closed), tuple(transient)


def _period(adj, depth, states) -> int:
    """The gcd of :func:`_partition`'s terms over a closed class's edges, all inside it; it stops at 1."""
    g = 0
    for u in states:
        for v in adj[u]:
            g = gcd(g, depth[u] + 1 - depth[v])
        if g == 1:
            break
    return g


def decompose(P0: StochasticMatrix) -> ChainStructure:
    """Split the state space into closed classes and classify the regime.

    An edge i -> j exists when ``P0[i, j] > 0``. A strongly connected component
    is a closed class when no edge leaves it; everything else is transient. The
    regime is regular for a single aperiodic class covering all states,
    singular for several aperiodic classes covering all states, and
    unsupported otherwise.

    The structure is kept on ``P0``, which is immutable, and every call on
    the matrix returns it: a command's sections and every direct solve of a
    P(eps) built on ``P0`` share one graph search and one per-class view.
    """
    cache = vars(P0)
    if "_structure" not in cache:
        closed, transient = _partition(P0)
        regime = Regime.REGULAR if len(closed) == 1 else Regime.SINGULAR
        if transient or not all(c.aperiodic for c in closed):
            regime = Regime.UNSUPPORTED
        cache["_structure"] = ChainStructure(closed, transient, regime, P0)
    return cache["_structure"]


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

    The class must be a non-empty set of distinct states of P0. The block is
    gathered from P0's array once and becomes the class matrix's array, not
    copied. The matrix's own row check is the leak check: a class is refused
    as not closed when a block row misses summing to 1 by more than
    ``row_tol``. The block's view, if it is sparse enough for one, is scanned
    on first use.
    """
    idx = list(cls.states)
    if not idx or len(set(idx)) < len(idx) or not all(0 <= i < P0.dim for i in idx):
        raise ValidationError(f"class {tuple(idx)} must be one or more distinct states in 0..{P0.dim - 1}")
    try:
        return StochasticMatrix._of_nonzeros(P0.entries[np.ix_(idx, idx)], row_tol=P0.row_tol)
    except ValidationError as exc:
        raise ValidationError(f"class {tuple(idx)} is not closed: transition mass leaks out") from exc
