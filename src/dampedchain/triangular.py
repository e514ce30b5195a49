"""Joint limits where the damping vanishes while time grows: eps -> 0, n -> infinity.

When n is coupled to eps so that ``eps * n -> t``, the n-step law of the
damped chain converges to an exponential mixture of the two one-sided limits:

    pi(t)_k = start_limit_k * exp(-t) + damped_limit_k * (1 - exp(-t)),

where ``start_limit`` is the eps-then-n limit (depends on the initial
distribution in the singular regime) and ``damped_limit`` is the n-then-eps
limit (the limit of the damped stationary laws). In the regular regime the
two coincide and the mixture is constant in t.

``triangular_bound`` gives a fully explicit finite-(eps, n) bound on the
distance between the n-step law and the mixture at t, and
``triangular_sweep`` produces trajectory-versus-mixture tables along a grid
of n for the epsilon, start and block of a :class:`BoundContext`, which a
command shares with its other sections.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DampingVector, Distribution, require_dim, trajectory
from .bounds import BoundContext
from .errors import ValidationError
from .stationary import limit_stationary
from .structure import ChainStructure


@dataclass(frozen=True)
class TriangularLimit:
    """Mixture limit at a given t in [0, infinity].

    ``t = math.inf`` is the genuine limit case: the weight ``exp(-t)`` is then
    exactly 0 and the mixture equals the damped-side limit.
    """

    t: float
    values: np.ndarray
    start_limit: np.ndarray
    damped_limit: np.ndarray
    weight: float


def triangular_limit(
    structure: ChainStructure, d: DampingVector, p: Distribution, t: float
) -> TriangularLimit:
    """Mixture of the two one-sided limits with weight ``exp(-t)``.

    ``t = 0`` returns the initial-distribution limit, ``t = math.inf`` the
    damping-side limit; a regular chain returns its unique stationary
    distribution for every t.
    """
    if t < 0.0 or math.isnan(t):
        raise ValidationError(f"t must lie in [0, infinity], got {t}")
    require_dim("damping", d.dim, structure.P0.dim)
    start_side = limit_stationary(structure, p).probs
    damped_side = limit_stationary(structure, d.as_distribution()).probs
    return _mixture(start_side, damped_side, t)


def _mixture(start_side: np.ndarray, damped_side: np.ndarray, t: float) -> TriangularLimit:
    weight = math.exp(-t)
    values = start_side * weight + damped_side * (1.0 - weight)
    return TriangularLimit(t, values, start_side, damped_side, weight)


def triangular_bound(
    structure: ChainStructure,
    d: DampingVector,
    p: Distribution,
    epsilon: float,
    n: int,
    block: int,
    t: float,
) -> float:
    """Explicit bound on ``max_k |p_eps(n)_k - pi(t)_k|`` at finite (eps, n).

    The formula is :meth:`BoundContext.joint_limit`'s. Requires the block-N
    ergodicity coefficient of every class to be below 1.
    """
    context = BoundContext(structure, d, p, epsilon, block)
    sweep_grid(context, [n])
    return context.joint_limit(n, t)


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry: n, eps*n, the n-step law, the mixture, relative errors.

    ``rel_error[k] = |mixture_k - damped_limit_k| / damped_limit_k`` measures
    how far the mixture still sits from its n-then-eps limit. It is computed
    as ``exp(-t) |start_limit_k - damped_limit_k| / damped_limit_k``, the same
    value without the cancellation, so it is exactly 0 where the two limits
    agree, as they do on a regular chain.
    """

    n: int
    eps_n: float
    trajectory: np.ndarray
    mixture: np.ndarray
    rel_error: np.ndarray
    bound: float


@dataclass(frozen=True)
class TriangularSweep:
    epsilon: float
    block: int
    rows: tuple


def sweep_grid(context: BoundContext, n_grid) -> list:
    """The sorted step grid, once the joint-limit bound applies on ``context`` at every step.

    Refuses epsilon outside (0, 1] (``require_coupling_epsilon``), an empty
    grid or a negative step, and through ``require_contraction`` an
    unsupported chain and a closed class that does not contract.
    """
    context.require_coupling_epsilon()
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 0:
        raise ValidationError("n grid must be non-empty with non-negative entries")
    context.require_contraction()
    return grid


def triangular_sweep(context: BoundContext, n_grid) -> TriangularSweep:
    """Trajectory-versus-mixture comparison along a grid of step counts.

    For each n the sweep pairs the n-step law of the damped chain with the
    mixture at ``t = eps * n`` and evaluates the explicit bound from the
    context's constants. The n-step laws are read off the start's
    :func:`~dampedchain.core.trajectory` by P(eps) at the grid's steps, so a
    grid up to n costs n products, by the rank-one form (``DampedChain.vecmat``).
    """
    grid = sweep_grid(context, n_grid)
    structure, epsilon = context.structure, context.epsilon
    start_side = limit_stationary(structure, context.p).probs
    damped_side = limit_stationary(structure, context.d.as_distribution()).probs
    gap = np.abs(start_side - damped_side) / damped_side

    rows = []
    wanted = set(grid)
    laws = (v for n, v in enumerate(trajectory(context.chain, context.p.probs)) if n in wanted)
    for n, v in zip(grid, laws):
        t = epsilon * n
        limit = _mixture(start_side, damped_side, t)
        rows.append(SweepRow(n, t, v, limit.values, limit.weight * gap, context.joint_limit(n, t)))
    return TriangularSweep(epsilon, context.block, tuple(rows))
