"""statlen: statistical lengths, fidelities, and minimal-dissipation transport.

A small numpy library for computing fidelities, the local Fisher-Bures
metric element of probability vectors and density matrices, geodesic lengths, the
entropy production of sequential equilibration transport (with its
l^2/(2N) minimum), and exact finite-size simulations of the
swap-and-twirl reservoir protocol, plus a numerical geodesic search.
"""

import logging as _logging

__version__ = "0.1.0"
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .exceptions import (
    BadRank,
    DimensionCapExceeded,
    DimensionMismatch,
    InfiniteYield,
    NegativeWeight,
    NotHermitian,
    NotNormalized,
    NotPositive,
    NotUnitTrace,
    RankCollapse,
    RankDeficient,
    StatlenError,
    SupportViolation,
    ValidationError,
)
from .states import (
    DensityMatrix,
    ProbabilityDistribution,
    SpectralDecomposition,
    TangentPerturbation,
    add_ridge,
    dimension_cap,
    mat_sqrt,
    random_distribution,
    random_state,
    shannon_entropy,
    spectral,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
    von_neumann_entropy,
)
from .geometry import (
    PathLengthReport,
    StatePath,
    TransportSchedule,
    discrete_path_length,
    even_schedule,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    hellinger_element,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    state_fidelity,
)
from .transport import (
    ExpansionProbe,
    TransportReport,
    expansion_probe,
    geodesic_bound,
    min_entropy_production,
    relative_entropy,
    run_transport,
)
from .reservoir import (
    ReservoirScanResult,
    convergence_scan,
    step_entropy_production,
)
from .pathopt import PathOptimizationResult, minimize_path

__all__ = [name for name in dir() if not name.startswith("_")]
