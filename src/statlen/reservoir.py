"""Exact finite-size simulation of swap-and-twirl reservoir transport.

One transport step puts the system state rho in contact with a reservoir
of n independent copies of sigma.  A reversible swap moves rho into the
first reservoir slot, then the reservoir relaxes by a twirl: the uniform
mixture over the n possible placements of rho among the sigma copies.
The twirl is the only irreversible part, and the entropy it generates
approaches S(rho||sigma) as n grows.  Everything here is computed
exactly: densely for general states, or on probability vectors for the
commuting (diagonal) case, which reaches much larger n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionCapExceeded, DimensionMismatch
from .states import (
    DensityMatrix,
    ProbabilityDistribution,
    dimension_cap,
    shannon_entropy,
    von_neumann_entropy,
    _freeze,
)
from .transport import relative_entropy

CLASSICAL_DIM_CAP = 2 ** 20


def _check_cap(dim: int, n: int, extra: int, limit: int, what: str) -> None:
    """Raise unless dim**(n + extra) <= limit, naming the largest feasible n."""
    if dim ** (n + extra) > limit:
        feasible = 0
        while dim ** (feasible + 1 + extra) <= limit:
            feasible += 1
        raise DimensionCapExceeded(
            f"{what} {dim}**{n + extra} exceeds cap {limit}; "
            f"largest feasible n is {feasible}",
            max_feasible=feasible,
        )


def _twirl(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_k b^(x k) (x) a (x) b^(x n-k-1) for weight vectors or matrices."""
    powers = [np.ones((1,) * b.ndim, b.dtype)]
    for _ in range(n - 1):
        powers.append(np.kron(powers[-1], b))
    acc = np.zeros((a.shape[0] ** n,) * a.ndim, b.dtype)
    for k in range(n):
        acc += np.kron(powers[k], np.kron(a, powers[n - k - 1]))
    acc /= n
    return _freeze(acc)


def twirl_state(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> DensityMatrix:
    """Twirled reservoir: (1/n) sum_k sigma^(x k) (x) rho (x) sigma^(x n-k-1)."""
    _require_pair(rho, sigma, n)
    _check_cap(rho.dim, n, 1, dimension_cap(), "composite dimension")
    return DensityMatrix(_twirl(rho.matrix, sigma.matrix, n))


def step_entropy_production(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> float:
    """Entropy generated by the twirl: S(twirl) - S(rho) - (n-1) S(sigma).

    Equals S(twirl) - S(rho (x) sigma^(x n-1)) by additivity of the
    entropy over tensor factors.
    """
    twirled = twirl_state(rho, sigma, n)
    return (
        von_neumann_entropy(twirled)
        - von_neumann_entropy(rho)
        - (n - 1) * von_neumann_entropy(sigma)
    )


def classical_step_entropy_production(
    p: ProbabilityDistribution, q: ProbabilityDistribution, n: int
) -> float:
    """Same quantity on probability vectors, reaching much larger n.

    The twirled reservoir of diagonal states is diagonal, so it is mixed
    directly as a vector of index-placement products.
    """
    _require_pair(p, q, n)
    _check_cap(p.dim, n, 0, CLASSICAL_DIM_CAP, "vector dimension")
    mixed = ProbabilityDistribution(_twirl(p.weights, q.weights, n))
    return (
        shannon_entropy(mixed)
        - shannon_entropy(p)
        - (n - 1) * shannon_entropy(q)
    )


def _require_pair(a, b, n: int) -> None:
    if type(a) is not type(b):
        raise DimensionMismatch("system and reservoir states must be of the same kind")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    if n < 1:
        raise ValueError(f"reservoir size must be positive, got {n}")


@dataclass(frozen=True, eq=False)
class ReservoirScanResult:
    """Entropy production per reservoir size, with the relative-entropy limit."""

    n_values: np.ndarray
    delta_S: np.ndarray
    reference: float
    mode: str
    gaps: np.ndarray


def convergence_scan(rho, sigma, n_max: int) -> ReservoirScanResult:
    """Entropy production for n = 1..n_max against the S(rho||sigma) limit.

    Probability-vector inputs run in "classical-fast" mode, density
    matrices in "dense" mode.  The gap sequence |delta_S_n - S(rho||sigma)|
    is recorded as data; no convergence rate is fitted or asserted.
    """
    _require_pair(rho, sigma, n_max)
    if isinstance(rho, ProbabilityDistribution):
        mode = "classical-fast"
        step = classical_step_entropy_production
    else:
        mode = "dense"
        step = step_entropy_production
    n_values = np.arange(1, n_max + 1)
    values = np.array([step(rho, sigma, int(n)) for n in n_values])
    reference = relative_entropy(rho, sigma)
    if math.isinf(reference):
        gaps = np.full(values.shape, math.inf)
    else:
        gaps = np.abs(values - reference)
    return ReservoirScanResult(
        _freeze(n_values), _freeze(values), reference, mode, _freeze(gaps)
    )
