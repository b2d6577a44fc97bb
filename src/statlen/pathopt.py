"""Numerical geodesic search by discrete path-energy minimization.

The optimizer pins the endpoints and carries each of the N - 1 interior
states as an unconstrained d x d matrix A with rho = A A*/||A||_F^2.  A
probability vector is the real diagonal case, A = diag(x) with
p = x^2/|x|^2, so both kinds share one code path and differ only in which
entries of A are free.  It descends the chord energy

    E = 4 sum_i c_i^2,    c_i = ||B_i U_i - B_{i+1}||_F = sqrt(2 (1 - F_i)),

Every state enters through a factor B with B B* = rho: sqrt(rho) at the
endpoints, A/||A||_F inside.  With a ridge r every state is
(rho + r I/d)/(1 + r); an interior factor is then the wider
[A, sqrt(r t/d) I]/sqrt(t (1 + r)) with t = ||A||_F^2, and the endpoint
roots are zero-padded to that width.  By Uhlmann's theorem
F(B B*, C C*) = ||B* C||_1, so one stacked SVD of the N matrices
M_i = B_i* B_{i+1} = W S V* (``geometry._uhlmann``) gives the polar factors
U_i = W V* and the chords c_i: E is 8 sum_i (1 - F_i) without the
cancellation in 1 - F.  U_i gives its exact gradient: B_i U_i with respect
to B_{i+1} and B_{i+1} U_i* with respect to B_i, then the chain rule
through the normalization.

The step is L-BFGS (Nocedal 1980; Liu & Nocedal 1989): the two-loop
recursion over the last ``MEMORY`` pairs of coordinate and gradient
differences, with Re<X, Y> = Re tr(X* Y) as the inner product, then a
backtracking (halving) Armijo line search from a step of 1.  Every
direction is a combination of gradients, so classical iterates stay
diagonal.  A pair enters the memory only with positive curvature s.y, and
a direction that does not descend is replaced by -grad with the memory
cleared.  The chain energy is ill-conditioned roughly as N^2, which the
curvature pairs absorb and a steepest-descent step does not.

Minimizing E at fixed endpoints equalizes the steps and shortens the path
at the same time.  The Bures angle obeys the triangle inequality, so
E >= 8 N (1 - cos(theta/N)) with theta = arccos F of the endpoints, with
equality for N equal angles along a geodesic: the converged configuration
is an even-step sampling of the shortest path, and the spread of the step
lengths doubles as a convergence diagnostic.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, RankCollapse, RankDeficient, _refuse_above
from .geometry import (
    RANK_TOL,
    StatePath,
    linear_mixture_path,
    _angles,
    _uhlmann,
)
from .states import (
    add_ridge,
    spectral,
    _freeze,
    _pair_kind,
    _sqrt_rows,
    _state_array,
    _state_of,
    _validate_rows,
)

MAX_SEARCH_STEPS = 96
MAX_ITER = 100_000     # the history keeps one row per iteration
DEFAULT_MAX_ITER = 5000
MIN_STEPS = 4
MAX_DIM_CLASSICAL = 8
MAX_DIM_QUANTUM = 4
AUTO_RIDGE = 1e-6
ARMIJO = 1e-4         # sufficient-decrease factor of the line search
MEMORY = 10           # L-BFGS correction pairs kept
ENERGY_TOL = 1e-10    # relative energy decrease that counts as a stall
STALL_WINDOW = 10     # accepted iterations the stall test looks back over
_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PathOptimizationResult:
    """Optimized discrete path with its descent history.

    ``lengths``, ``energies`` and ``step_cvs`` hold one entry per accepted
    iterate, starting from the seed; a length sums the Bures angles
    2 arccos F of the steps, and ``step_cvs`` is the coefficient of
    variation of those angles (zero means perfectly even steps).
    ``stop_reason`` is "stall" (the energy stopped falling), "line_search"
    (no step length decreased it enough), "zero_grad" (the gradient
    vanished) or "max_iter"; only "max_iter" leaves ``converged`` False.
    """

    kind: str
    states: tuple
    final_length: float
    final_energy: float
    iterations: int
    converged: bool
    stop_reason: str
    lengths: np.ndarray
    energies: np.ndarray
    step_cvs: np.ndarray
    ridge: float


class _Chain(NamedTuple):
    """A path evaluated chord by chord."""

    factors: np.ndarray   # (N + 1, d, w): B_i with B_i B_i* = rho_i
    norms: np.ndarray     # (N - 1,): ||A_i||_F of the interior coordinates
    chords: np.ndarray    # (N,): ||B_i U_i - B_{i+1}||_F
    polar: np.ndarray     # (N, w, w): polar factor W V* of B_i* B_{i+1}
    energy: float


def _roots(rows: np.ndarray, eig=None) -> np.ndarray:
    """(K, d, d) square roots of a stack of states, diagonal for weights; ``eig`` as in ``_sqrt_rows``."""
    roots = _sqrt_rows(rows, eig)
    return roots if roots.ndim == 3 else roots[:, None, :] * np.eye(rows.shape[1])


def _end_factors(endpoints, ridge: float) -> np.ndarray:
    """sqrt(rho) of both endpoints, zero-padded to the width of an interior factor."""
    ends = _roots(np.stack([_state_array(s) for s in endpoints]))
    if ridge > 0.0:
        ends = np.concatenate([ends, np.zeros_like(ends)], axis=2)
    return ends


def _chain(coords: np.ndarray, ends: np.ndarray, ridge: float, check_rank: bool) -> _Chain:
    """Factors of the interior coordinates between the endpoint factors, and every chord."""
    norms = np.sqrt(np.sum(np.abs(coords) ** 2, axis=(1, 2)))
    if not np.all(norms > 0.0):
        raise RankCollapse("iterate collapsed to the zero matrix")
    unit = coords / norms[:, None, None]
    if check_rank:
        smallest = float(np.min(np.linalg.svd(unit, compute_uv=False)[:, -1])) ** 2
        if smallest <= RANK_TOL:
            raise RankCollapse(
                f"iterate eigenvalue {smallest:.3e} at or below {RANK_TOL} with the ridge disabled"
            )
    if ridge > 0.0:
        dim = coords.shape[-1]
        pad = np.sqrt(ridge / (dim * (1.0 + ridge))) * np.eye(dim)
        unit = np.concatenate(
            [unit / np.sqrt(1.0 + ridge), np.broadcast_to(pad, unit.shape)], axis=2
        )
    factors = np.concatenate([ends[:1], unit, ends[1:]])
    _, polar, chords = _uhlmann(factors[:-1], factors[1:])
    return _Chain(factors, norms, chords, polar, float(4.0 * np.sum(chords ** 2)))


def _gradient(coords: np.ndarray, chain: _Chain, ridge: float, classical: bool) -> np.ndarray:
    """dE/dA for every interior coordinate, restricted to the free entries."""
    polar, factors = chain.polar, chain.factors
    grad = -8.0 * (
        factors[:-2] @ polar[:-1] + factors[2:] @ polar[1:].conj().swapaxes(1, 2)
    )
    dim = coords.shape[-1]
    grad = grad[:, :, :dim] / np.sqrt(1.0 + ridge)
    unit = coords / chain.norms[:, None, None]
    radial = np.sum(np.real(unit.conj() * grad), axis=(1, 2))
    grad = (grad - radial[:, None, None] * unit) / chain.norms[:, None, None]
    return grad * np.eye(dim) if classical else grad


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the L-BFGS two-loop recursion over (s, y, s.y) pairs, oldest first."""
    q = grad.copy()
    scales = []
    for s, y, sy in reversed(pairs):
        scales.append(_inner(s, q) / sy)
        q -= scales[-1] * y
    if pairs:
        s, y, sy = pairs[-1]
        q *= sy / _inner(y, y)
    for (s, y, sy), scale in zip(pairs, reversed(scales)):
        q += (scale - _inner(y, q) / sy) * s
    return -q


def _search_kind(start, end, ridge):
    """The kind of a search and its ridge, after the dimension and rank checks."""
    if _pair_kind(start, end) == "classical":
        _refuse_above(MAX_DIM_CLASSICAL, "classical search dim", start.dim, "dim")
        return "classical", 0.0 if ridge is None else ridge
    _refuse_above(MAX_DIM_QUANTUM, "quantum search dim", start.dim, "dim")
    smallest = min(
        float(spectral(start).eigenvalues[-1]), float(spectral(end).eigenvalues[-1])
    )
    if ridge is None:
        ridge = AUTO_RIDGE if smallest <= RANK_TOL else 0.0
    if ridge == 0.0 and smallest <= RANK_TOL:
        raise RankDeficient(
            f"endpoint eigenvalue {smallest:.3e} at or below {RANK_TOL}; "
            "enable a ridge to search from rank-deficient endpoints"
        )
    return "quantum", ridge


def minimize_path(
    start,
    end,
    n_steps: int,
    seed_path: StatePath | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    ridge: float | None = None,
) -> PathOptimizationResult:
    """Minimize the discrete chord energy of an N-step path between two states.

    ``seed_path`` defaults to the straight mixture, and one of another kind
    or dimension than the endpoints raises :class:`DimensionMismatch`.
    Iteration stops when the relative energy decrease over ``STALL_WINDOW``
    accepted iterations falls below ``ENERGY_TOL``, when the line search
    stalls, when the gradient vanishes, or at ``max_iter`` (in which case
    ``converged`` is False and the best iterate is returned).  ``ridge=None`` enables a 1e-6 ridge
    automatically for rank-deficient quantum endpoints and is off otherwise;
    ``ridge=0.0`` with such endpoints raises :class:`RankDeficient`.
    ``n_steps`` above ``MAX_SEARCH_STEPS``, ``max_iter`` above ``MAX_ITER`` and
    dimensions above ``MAX_DIM_CLASSICAL`` or ``MAX_DIM_QUANTUM`` raise
    :class:`DimensionCapExceeded`.
    """
    if n_steps < MIN_STEPS:
        raise ValueError(f"n_steps must be at least {MIN_STEPS}, got {n_steps}")
    _refuse_above(MAX_SEARCH_STEPS, "n_steps", n_steps, "N")
    _refuse_above(MAX_ITER, "max_iter", max_iter, "max_iter")
    kind, ridge = _search_kind(start, end, ridge)
    classical = kind == "classical"
    check_rank = not classical and ridge == 0.0
    if seed_path is None:
        seed_path = linear_mixture_path(start, end)
    elif (seed_path.kind, seed_path.start.dim) != (kind, start.dim):
        raise DimensionMismatch(f"seed path of {seed_path.kind} dim {seed_path.start.dim} "
                                f"between {kind} endpoints of dim {start.dim}")

    endpoints = (add_ridge(start, ridge), add_ridge(end, ridge))
    ends = _end_factors(endpoints, ridge)
    rows, spectra = seed_path._rows(np.arange(1, n_steps) / n_steps)
    coords = _roots(rows, spectra)

    lengths: list[float] = []
    energies: list[float] = []
    step_cvs: list[float] = []

    def record(chain):
        steps = _angles(chain.chords)
        mean = float(steps.mean())
        lengths.append(float(steps.sum()))
        energies.append(chain.energy)
        step_cvs.append(float(steps.std() / mean) if mean > 0.0 else 0.0)

    chain = _chain(coords, ends, ridge, check_rank)
    evaluations = 1
    record(chain)
    grad = _gradient(coords, chain, ridge, classical)
    pairs = deque(maxlen=MEMORY)
    stop_reason = "max_iter"
    iterations = 0
    for _ in range(max_iter):
        grad_norm_sq = _inner(grad, grad)
        if grad_norm_sq == 0.0:
            stop_reason = "zero_grad"
            break
        direction = _direction(grad, pairs)
        slope = _inner(grad, direction)
        if not slope < 0.0:
            pairs.clear()
            direction, slope = -grad, -grad_norm_sq

        alpha = 1.0
        for _ in range(60):
            trial = coords + alpha * direction
            trial_chain = _chain(trial, ends, ridge, check_rank)
            evaluations += 1
            if trial_chain.energy <= chain.energy + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            # gradient is at the numerical noise floor; nothing left to gain
            stop_reason = "line_search"
            break

        trial_grad = _gradient(trial, trial_chain, ridge, classical)
        step, change = trial - coords, trial_grad - grad
        curvature = _inner(step, change)
        if curvature > 0.0:
            pairs.append((step, change, curvature))
        coords, chain, grad = trial, trial_chain, trial_grad
        iterations += 1
        record(chain)
        if len(energies) > STALL_WINDOW:
            drop = energies[-1 - STALL_WINDOW] - chain.energy
            if drop < ENERGY_TOL * max(chain.energy, 1e-300):
                stop_reason = "stall"
                break

    _log.debug("minimize_path N=%d: %d iterations, %d chain evaluations, stop: %s",
               n_steps, iterations, evaluations, stop_reason)
    interior = chain.factors[1:-1]
    rhos = interior @ interior.conj().swapaxes(1, 2)
    rows = _validate_rows(np.diagonal(rhos, axis1=1, axis2=2) if classical else rhos)[0]
    return PathOptimizationResult(
        kind=kind,
        states=(endpoints[0], *map(_state_of, rows), endpoints[1]),
        final_length=lengths[-1],
        final_energy=chain.energy,
        iterations=iterations,
        converged=stop_reason != "max_iter",
        stop_reason=stop_reason,
        lengths=_freeze(np.asarray(lengths)),
        energies=_freeze(np.asarray(energies)),
        step_cvs=_freeze(np.asarray(step_cvs)),
        ridge=ridge,
    )
