"""Perturbation analysis of finite Markov chains with a damping component.

The library studies chains of the form ``P(eps) = (1 - eps) P0 + eps D``,
where D is a rank-one teleport matrix, across four angles: stationary
distributions (three independent solvers plus the eps -> 0 limits),
power-series expansions of the stationary law in eps, explicit
coupling-based convergence-rate bounds with a Monte Carlo meeting time
simulator, and joint limits where eps -> 0 while the step count grows.

``__all__`` names the public API: the paper's quantities, their result
types, the errors, and the input layer the command line reads with.
Everything else is reached through its submodule.
"""

__version__ = "0.1.0"

from .core import (
    DampedChain,
    DampingVector,
    Distribution,
    StochasticMatrix,
    build_damped_matrix,
    tv_distance,
)
from .errors import (
    ChainError,
    ContractionError,
    ConvergenceError,
    DimensionMismatchError,
    IngestError,
    RegimeError,
    SingularSystemError,
    SpectralStructureError,
    ValidationError,
)
from .structure import (
    ChainStructure,
    ClosedClass,
    Regime,
    class_mass,
    decompose,
    restrict,
)
from .stationary import (
    Method,
    StationarySolution,
    limit_stationary,
    stationary_direct,
    stationary_power,
    stationary_series,
)
from .expansion import ExpansionSeries, Spectrum, expansion, spectrum
from .coupling import (
    CouplingJoint,
    CouplingKernel,
    CouplingTailEstimate,
    maximal_coupling,
    overlap,
    simulate_coupling_time,
)
from .bounds import (
    BoundContext,
    ErgodicityReport,
    GeometricDecay,
    coupling_bound,
    coupling_bound_multistep,
    ergodicity_coefficient,
    min_row_overlap,
    split_bound_context,
    stationary_gap_bound,
)
from .triangular import (
    SweepRow,
    TriangularLimit,
    TriangularSweep,
    triangular_limit,
    triangular_sweep,
)
from .io import DanglingPolicy, GraphFormat, ingest, load_damping

__all__ = [
    # The chain and its structure.
    "StochasticMatrix", "DampingVector", "Distribution", "DampedChain", "build_damped_matrix",
    "tv_distance", "Regime", "ClosedClass", "ChainStructure", "decompose", "class_mass",
    "restrict",
    # Stationary laws of P(eps) and their eps -> 0 limit.
    "Method", "StationarySolution", "stationary_direct", "stationary_power", "stationary_series",
    "limit_stationary",
    # The expansion in eps and the spectrum.
    "ExpansionSeries", "expansion", "Spectrum", "spectrum",
    # Couplings and the meeting-time simulator.
    "overlap", "CouplingJoint", "maximal_coupling", "CouplingKernel",
    "CouplingTailEstimate", "simulate_coupling_time",
    # The bound families.
    "BoundContext", "ErgodicityReport", "min_row_overlap",
    "ergodicity_coefficient", "GeometricDecay", "stationary_gap_bound", "coupling_bound",
    "coupling_bound_multistep", "split_bound_context",
    # Joint limits.
    "TriangularLimit", "triangular_limit", "SweepRow", "TriangularSweep", "triangular_sweep",
    # Errors.
    "ChainError", "ValidationError", "DimensionMismatchError", "RegimeError", "ConvergenceError",
    "SingularSystemError", "SpectralStructureError", "ContractionError", "IngestError",
    # Input.
    "GraphFormat", "DanglingPolicy", "ingest", "load_damping",
]
