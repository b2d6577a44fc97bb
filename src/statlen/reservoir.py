"""Exact finite-size simulation of swap-and-twirl reservoir transport.

One transport step puts the system state rho in contact with a reservoir
of n independent copies of sigma.  A reversible swap moves rho into the
first reservoir slot, then the reservoir relaxes by a twirl: the uniform
mixture over the n possible placements of rho among the sigma copies,
T_n = (1/n) d/dt (sigma + t rho)^(x n) at t = 0.  The twirl is the only
irreversible part, and the entropy it generates approaches S(rho||sigma)
as n grows.

Everything here is computed exactly, and the entropy of T_n is taken
from its spectrum with the symmetry of the twirl reducing the work:

- probability vectors: the weight of a string depends only on its type
  (its count vector), so the entropy is a sum over the C(n+d-1, d-1)
  types with multinomial multiplicities (method of types);
- qubits, commuting or not: Schur-Weyl duality splits T_n into spin
  blocks of size at most n + 1, one per irreducible representation
  det^m Sym^(n-2m) of GL(2), repeated C(n, m) - C(n, m-1) times;
- density matrices of dimension 3 and up: T_n is built densely (a d^n
  by d^n matrix) and diagonalized.

The caps and their messages are those of the dense construction for
density matrices and of a d^n weight vector for probability vectors.
A scan's ``mode`` names the kind of input: "classical-fast" for
probability vectors, "dense" for density matrices, qubits included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionCapExceeded
from .states import (
    DensityMatrix,
    ProbabilityDistribution,
    dimension_cap,
    shannon_entropy,
    von_neumann_entropy,
    _entropy_of_weights,
    _freeze,
    _pair_kind,
)
from .transport import relative_entropy

CLASSICAL_DIM_CAP = 2 ** 20


def _check_cap(dim: int, n: int, extra: int, limit: int, what: str) -> None:
    """Raise unless dim**(n + extra) <= limit, naming the largest feasible n.

    The power is never formed for n itself, so a huge n is refused at once.
    A one-dimensional pair is held to the bound of a two-dimensional one,
    because 1**n never reaches the cap but a scan still does work per n.
    """
    base = max(dim, 2)
    feasible = 0
    while base ** (feasible + 1 + extra) <= limit:
        feasible += 1
    if n > feasible:
        raise DimensionCapExceeded(
            f"{what} {base}**{n + extra} exceeds cap {limit}; "
            f"largest feasible n is {feasible}",
            max_feasible=feasible,
        )


def _check_step(a, b, n: int) -> None:
    """Check a state pair and reservoir size n against each other and the cap."""
    kind = _pair_kind(a, b)
    if n < 1:
        raise ValueError(f"reservoir size must be positive, got {n}")
    if kind == "classical":
        _check_cap(a.dim, n, 0, CLASSICAL_DIM_CAP, "vector dimension")
    else:
        _check_cap(a.dim, n, 1, dimension_cap(), "composite dimension")


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


def _type_weights(p: np.ndarray, q: np.ndarray, n: int):
    """Twirled weight of every type of n symbols from p.size, and its multiplicity.

    Each type is visited once, as its sorted string i_1 <= ... <= i_n.  All
    n!/prod_i c_i! strings of that type share the weight
    (1/n) d/dt prod_s (q + t p)[i_s] at t = 0, which is built one symbol at
    a time from the product of q and its derivative, so nothing is divided
    by a weight of q.  The multiplicity is updated in exact integers.
    """
    d = p.size
    last = np.arange(d)
    run = np.ones(d, np.int64)        # copies of the last symbol so far
    count = np.ones(d, np.int64)      # strings of this type so far
    prod, deriv = q.copy(), p.copy()
    for length in range(2, n + 1):
        reps = d - last
        parent = np.repeat(np.arange(last.size), reps)
        first = np.cumsum(reps) - reps
        sym = last[parent] + np.arange(parent.size) - first[parent]
        run = np.where(sym == last[parent], run[parent] + 1, 1)
        count = count[parent] * length // run
        deriv = deriv[parent] * q[sym] + prod[parent] * p[sym]
        prod = prod[parent] * q[sym]
        last = sym
    return deriv / n, count


def _spin_block_spectrum(rho: np.ndarray, sigma: np.ndarray, n: int):
    """Eigenvalues of the qubit twirl, one spin block at a time, and their multiplicities.

    In sigma's eigenbasis, sigma = diag(s1, s2) and r = U* rho U.  The block
    of det^m Sym^k, k = n - 2m, is (1/n) d/dt det(s + t r)^m Sym^k(s + t r)
    at t = 0: tridiagonal in the symmetric states |a> with a copies of the
    first basis vector, a = 0..k.  Its eigenvalues depend on the
    off-diagonal only through |r_12|, so the block is taken real.
    """
    s, u = np.linalg.eigh(sigma)
    r = u.conj().T @ rho @ u
    s1, s2 = s
    r11, r22, r12 = r[0, 0].real, r[1, 1].real, abs(r[0, 1])
    det = s1 * s2
    ddet = s2 * r11 + s1 * r22
    values, counts = [], []
    for m in range(n // 2 + 1):
        k = n - 2 * m
        a = np.arange(k + 1)
        b = k - a
        sym = s1 ** a * s2 ** b
        dsym = (
            r11 * a * s1 ** np.maximum(a - 1, 0) * s2 ** b
            + r22 * b * s1 ** a * s2 ** np.maximum(b - 1, 0)
        )
        diag = det ** m * dsym + m * det ** max(m - 1, 0) * ddet * sym
        off = det ** m * r12 * s1 ** a[:-1] * s2 ** (b[:-1] - 1) * np.sqrt((a[:-1] + 1) * b[:-1])
        block = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        values.append(np.linalg.eigvalsh(block) / n)
        counts.append(np.full(k + 1, math.comb(n, m) - (math.comb(n, m - 1) if m else 0)))
    return np.concatenate(values), np.concatenate(counts)


def step_entropy_production(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> float:
    """Entropy generated by the twirl: S(twirl) - S(rho) - (n-1) S(sigma).

    Equals S(twirl) - S(rho (x) sigma^(x n-1)) by additivity of the
    entropy over tensor factors.  Qubits go through the spin blocks,
    larger dimensions through the dense twirl.  A single slot holds rho
    itself, which the dense twirl returns bit for bit, so n = 1 gives 0.
    """
    _check_step(rho, sigma, n)
    if rho.dim == 2 and n > 1:
        twirled = _entropy_of_weights(*_spin_block_spectrum(rho.matrix, sigma.matrix, n))
    else:
        twirled = von_neumann_entropy(_twirl(rho.matrix, sigma.matrix, n))
    return twirled - von_neumann_entropy(rho) - (n - 1) * von_neumann_entropy(sigma)


def classical_step_entropy_production(
    p: ProbabilityDistribution, q: ProbabilityDistribution, n: int
) -> float:
    """Same quantity on probability vectors, reaching much larger n.

    The twirled reservoir of diagonal states is diagonal, and its weight at
    a string depends only on the string's type, so its entropy is a sum
    over types.
    """
    _check_step(p, q, n)
    mixed = _entropy_of_weights(*_type_weights(p.weights, q.weights, n))
    return mixed - shannon_entropy(p) - (n - 1) * shannon_entropy(q)


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
    matrices in "dense" mode.  n_max is checked against the step's cap
    before any work.  The gap sequence |delta_S_n - S(rho||sigma)| is
    recorded as data; no convergence rate is fitted or asserted.
    """
    _check_step(rho, sigma, n_max)
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
