"""Numerical geodesic search by discrete path-energy minimization.

The optimizer pins the endpoints and carries each of the N - 1 interior
states as an unconstrained coordinate: a real d-vector x for a probability
vector, a complex d x d matrix A for a density matrix.  Every state enters
through an amplitude: sqrt(p) or sqrt(rho) at the endpoints, and inside
a = |x|/||x|| (p = a^2) or B = A/||A||_F (rho = B B*).  It descends the
chord energy

    E = 4 sum_i c_i^2,    c_i = ||B_i U_i - B_{i+1}||_F = sqrt(2 (1 - F_i)),

By Uhlmann's theorem F(B B*, C C*) = ||B* C||_1, so one stacked SVD of the
N matrices M_i = B_i* B_{i+1} = W S V* (``geometry._uhlmann``) gives the
polar factors U_i = W V* and the chords c_i: E is 8 sum_i (1 - F_i)
without the cancellation in 1 - F.  U_i gives its exact gradient: B_i U_i
with respect to B_{i+1} and B_{i+1} U_i* with respect to B_i, then the
chain rule through the normalization.  Probability vectors commute, so
there the chord is ||a_i - a_{i+1}|| with no SVD, and at unit ||a_i|| the
gradient with respect to a_i is -8 (a_{i-1} + a_{i+1}), carried to x
through d|x|/dx = sign(x).  An iterate may cross zero; |x| keeps its state valid.

With a ridge r every state is (rho + r I/d)/(1 + r).  A vector amplitude
is then sqrt((x^2/t + r/d)/(1 + r)) with t = ||x||^2.  An interior matrix
factor is the wider [A, sqrt(r t/d) I]/sqrt(t (1 + r)) with t = ||A||_F^2,
and the endpoint roots are zero-padded to that width.

The step is L-BFGS (Nocedal 1980; Liu & Nocedal 1989): the two-loop
recursion over the last ``MEMORY`` pairs of coordinate and gradient
differences, with Re<X, Y> = Re tr(X* Y) as the inner product, then a
backtracking (halving) Armijo line search from a step of 1.  A pair
enters the memory only with positive curvature s.y, and a direction that
does not descend is replaced by -grad with the memory cleared.  The chain
energy is ill-conditioned roughly as N^2, which the curvature pairs absorb
and a steepest-descent step does not.

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
    State,
    add_ridge,
    spectral,
    _freeze,
    _pair_kind,
    _sqrt_rows,
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
    2 arccos F of the steps, and ``step_cvs`` is the population standard
    deviation (ddof 0) of those angles over their mean, or 0 when the mean
    is 0 (a cv of zero means perfectly even steps).
    ``stop_reason`` is "stall" (the energy stopped falling), "line_search"
    (no step length decreased it enough), "zero_grad" (the gradient
    vanished) or "max_iter"; only "max_iter" leaves ``converged`` False.
    The kind, the final length and energy, and the iteration count are
    read from the states and the history.
    """

    states: tuple
    stop_reason: str
    lengths: np.ndarray
    energies: np.ndarray
    step_cvs: np.ndarray
    ridge: float

    def __post_init__(self):
        sizes = (len(self.lengths), len(self.energies), len(self.step_cvs))
        if len(set(sizes)) > 1:
            raise ValueError(f"lengths, energies and step_cvs need one size, got sizes {sizes}")

    @property
    def kind(self) -> str:
        return self.states[0].kind

    @property
    def final_length(self) -> float:
        return float(self.lengths[-1])

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])

    @property
    def iterations(self) -> int:
        return len(self.lengths) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iter"


class _Chain(NamedTuple):
    """A path evaluated chord by chord."""

    factors: np.ndarray   # (N + 1, d) amplitudes, or (N + 1, d, w) B_i with B_i B_i* = rho_i
    norms: np.ndarray     # (N - 1, 1[, 1]): the norms of the interior coordinates
    chords: np.ndarray    # (N,): ||a_i - a_{i+1}||, or ||B_i U_i - B_{i+1}||_F
    polar: np.ndarray     # (N, w, w): polar factor W V* of B_i* B_{i+1}; None for vectors
    energy: float


def _end_factors(endpoints, ridge: float) -> np.ndarray:
    """sqrt(p) or sqrt(rho) of both endpoints; a root is zero-padded to an interior factor's width."""
    ends = _sqrt_rows(np.stack([s.array for s in endpoints]))
    if ends.ndim == 3 and ridge > 0.0:
        ends = np.concatenate([ends, np.zeros_like(ends)], axis=2)
    return ends


def _chain(coords: np.ndarray, ends: np.ndarray, ridge: float, check_rank: bool) -> _Chain:
    """Factors of the interior coordinates between the endpoint factors, and every chord.

    ``check_rank`` refuses a quantum interior state with an eigenvalue at
    or below ``RANK_TOL``.  Every factor has spectral norm at most 1, so
    s_min(B_i* B_{i+1}) <= s_min(B_i): when the chord SVD of every interior
    B_i reads s_min^2 above 4 RANK_TOL (a margin for rounding), each least
    eigenvalue s_min(B_i)^2 clears RANK_TOL, and only otherwise are the
    interior factors decomposed on their own.
    """
    dim = coords.shape[1]
    norms = np.sqrt((np.abs(coords) ** 2).sum(axis=tuple(range(1, coords.ndim)), keepdims=True))
    if not (norms > 0.0).all():
        raise RankCollapse("iterate collapsed to zero")
    unit = coords / norms
    if coords.ndim == 2:
        inner = np.abs(unit) if ridge == 0.0 else np.sqrt((unit ** 2 + ridge / dim) / (1.0 + ridge))
    elif ridge > 0.0:
        pad = np.sqrt(ridge / (dim * (1.0 + ridge))) * np.eye(dim)
        inner = np.concatenate(
            [unit / np.sqrt(1.0 + ridge), np.broadcast_to(pad, unit.shape)], axis=2
        )
    else:
        inner = unit
    factors = np.concatenate([ends[:1], inner, ends[1:]])
    polar, chords, singular = _uhlmann(factors[:-1], factors[1:])
    if check_rank and not (singular[1:, -1] ** 2 > 4.0 * RANK_TOL).all():
        smallest = float(np.min(np.linalg.svd(unit, compute_uv=False)[:, -1])) ** 2
        if smallest <= RANK_TOL:
            raise RankCollapse(
                f"iterate eigenvalue {smallest:.3e} at or below {RANK_TOL} with the ridge disabled"
            )
    return _Chain(factors, norms, chords, polar, float(4.0 * (chords ** 2).sum()))


def _gradient(coords: np.ndarray, chain: _Chain, ridge: float) -> np.ndarray:
    """dE/dx for every interior coordinate x, a vector or a matrix as ``coords`` holds."""
    factors = chain.factors
    unit = coords / chain.norms
    if coords.ndim == 2:
        # d amp/d unit is unit/((1 + r) amp): sign(unit) without a ridge, zero where amp is
        amp = factors[1:-1]
        slope = np.divide(unit, (1.0 + ridge) * amp, out=np.zeros_like(unit), where=amp > 0.0)
        grad = -8.0 * (factors[:-2] + factors[2:]) * slope
    else:
        polar = chain.polar
        grad = -8.0 * (
            factors[:-2] @ polar[:-1] + factors[2:] @ polar[1:].conj().swapaxes(1, 2)
        )
        grad = grad[:, :, :coords.shape[1]] / np.sqrt(1.0 + ridge)
    radial = (unit.conj() * grad).real.sum(axis=tuple(range(1, coords.ndim)), keepdims=True)
    return (grad - radial * unit) / chain.norms


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _length_and_cv(steps: np.ndarray) -> tuple:
    """``steps.sum()`` and ``steps.std() / steps.mean()`` (0 at mean 0), by the same reductions."""
    total = steps.sum()
    mean = total / steps.size
    spread = np.sqrt(((steps - mean) ** 2).sum() / steps.size)
    return float(total), float(spread / mean) if mean > 0.0 else 0.0


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
    smallest = float(spectral(np.stack((start.array, end.array))).eigenvalues[:, -1].min())
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
    check_rank = kind == "quantum" and ridge == 0.0
    if seed_path is None:
        seed_path = linear_mixture_path(start, end)
    elif (seed_path.kind, seed_path.start.dim) != (kind, start.dim):
        raise DimensionMismatch(f"seed path of {seed_path.kind} dim {seed_path.start.dim} "
                                f"between {kind} endpoints of dim {start.dim}")

    endpoints = (add_ridge(start, ridge), add_ridge(end, ridge))
    ends = _end_factors(endpoints, ridge)
    coords = _sqrt_rows(*seed_path.sample(np.arange(1, n_steps) / n_steps))

    history = []   # (length, step cv, energy) of each accepted iterate

    def record(chain):
        history.append((*_length_and_cv(_angles(chain.chords)), chain.energy))

    chain = _chain(coords, ends, ridge, check_rank)
    evaluations = 1
    record(chain)
    grad = _gradient(coords, chain, ridge)
    pairs = deque(maxlen=MEMORY)
    stop_reason = "max_iter"
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

        trial_grad = _gradient(trial, trial_chain, ridge)
        step, change = trial - coords, trial_grad - grad
        curvature = _inner(step, change)
        if curvature > 0.0:
            pairs.append((step, change, curvature))
        coords, chain, grad = trial, trial_chain, trial_grad
        record(chain)
        if len(history) > STALL_WINDOW:
            drop = history[-1 - STALL_WINDOW][2] - chain.energy
            if drop < ENERGY_TOL * max(chain.energy, 1e-300):
                stop_reason = "stall"
                break

    _log.debug("minimize_path N=%d: %d iterations, %d chain evaluations, stop: %s",
               n_steps, len(history) - 1, evaluations, stop_reason)
    inner = chain.factors[1:-1]
    rows = _validate_rows(inner * inner if inner.ndim == 2 else inner @ inner.conj().swapaxes(1, 2))[0]
    lengths, step_cvs, energies = (_freeze(np.array(column)) for column in zip(*history))
    return PathOptimizationResult(
        states=(endpoints[0], *map(State, rows), endpoints[1]),
        stop_reason=stop_reason,
        lengths=lengths, energies=energies, step_cvs=step_cvs,
        ridge=float(ridge),
    )
