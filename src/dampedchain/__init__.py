"""Perturbation analysis of finite Markov chains with a damping component.

The library studies chains of the form ``P(eps) = (1 - eps) P0 + eps D``,
where D is a rank-one teleport matrix, across four angles: stationary
distributions (three independent solvers plus the eps -> 0 limits),
power-series expansions of the stationary law in eps, explicit
coupling-based convergence-rate bounds with a Monte Carlo meeting time
simulator, and joint limits where eps -> 0 while the step count grows.
"""

__version__ = "0.1.0"

from .core import (
    DampedChain,
    DampingVector,
    Distribution,
    StochasticMatrix,
    build_damped_matrix,
    matrix_power,
    propagate,
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
    restrict_damping,
    restrict_distribution,
)
from .stationary import (
    Method,
    StationarySolution,
    limit_stationary,
    stationary_direct,
    stationary_power,
    stationary_series,
)
from .expansion import (
    ExpansionSeries,
    SpectralCoefficients,
    Spectrum,
    evaluate_expansion,
    expansion,
    spectrum,
)
from .coupling import (
    CouplingJoint,
    CouplingKernel,
    CouplingTailEstimate,
    build_coupling_kernel,
    maximal_coupling,
    overlap,
    simulate_coupling_time,
)
from .bounds import (
    BoundContext,
    BoundReport,
    ErgodicityReport,
    GeometricDecay,
    bound_context,
    coupling_bound,
    coupling_bound_multistep,
    ergodicity_coefficient,
    estimate_decay,
    min_row_overlap,
    split_bound_context,
    stationary_gap_bound,
)
from .triangular import (
    SweepRow,
    TriangularLimit,
    TriangularSweep,
    steps_for,
    triangular_bound,
    triangular_limit,
    triangular_sweep,
)
from .io import (
    DanglingPolicy,
    GraphFormat,
    GraphInput,
    emit_matrix_json,
    ingest,
    load_damping,
    read_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
