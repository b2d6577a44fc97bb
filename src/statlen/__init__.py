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
    NotHermitian,
    NotNormalized,
    NotPositive,
    RankCollapse,
    RankDeficient,
    StatlenError,
    SupportViolation,
    ValidationError,
)
from .states import (
    SpectralDecomposition,
    State,
    TangentPerturbation,
    add_ridge,
    entropy,
    random_distribution,
    random_state,
    spectral,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from .geometry import (
    StatePath,
    TransportSchedule,
    even_schedule,
    geodesic_bound,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    state_fidelity,
)
from .transport import (
    ExpansionProbe,
    expansion_probe,
    relative_entropy,
    run_transport,
)
from .reservoir import (
    ReservoirScanResult,
    convergence_scan,
    step_entropy_production,
)
from .pathopt import PathOptimizationResult, minimize_path

__all__ = [
    "BadRank", "DimensionCapExceeded", "DimensionMismatch", "InfiniteYield", "NotHermitian",
    "NotNormalized", "NotPositive", "RankCollapse", "RankDeficient", "StatlenError",
    "SupportViolation", "ValidationError",
    "SpectralDecomposition", "State", "TangentPerturbation", "add_ridge", "entropy",
    "random_distribution", "random_state", "spectral", "tangent_classical", "tangent_quantum",
    "validate_density", "validate_distribution",
    "StatePath", "TransportSchedule", "even_schedule", "geodesic_bound", "geodesic_length_bures",
    "geodesic_length_fisher", "geodesic_path", "kubo_mori_element", "linear_mixture_path",
    "metric_element", "state_fidelity",
    "ExpansionProbe", "expansion_probe", "relative_entropy", "run_transport",
    "ReservoirScanResult", "convergence_scan", "step_entropy_production",
    "PathOptimizationResult", "minimize_path",
]
