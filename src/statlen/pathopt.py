"""Numerical geodesic search by discrete path-energy minimization.

The optimizer pins the endpoints and parametrizes the N - 1 interior
states without constraints: x^2/|x|^2 on the simplex, A A*/tr(A A*) for
density matrices.  It descends the chord energy

    E = sum_i dl_i^2,    dl_i^2 = 8 (1 - F(s_i, s_{i+1})),

with central-difference gradients and a backtracking (halving) Armijo
line search.  Minimizing E at fixed endpoints equalizes the steps and
shortens the path at the same time, so the converged configuration is an
even-step approximation of the shortest path; the spread of the step
lengths doubles as a convergence diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, RankCollapse
from .geometry import (
    RANK_TOL,
    StatePath,
    default_step_rule,
    linear_mixture_path,
    _step_lengths_from_fidelities,
)
from .states import (
    DensityMatrix,
    ProbabilityDistribution,
    add_ridge,
    mat_sqrt,
    spectral,
    validate_density,
    validate_distribution,
    _freeze,
)

MAX_STEPS = 64
MIN_STEPS = 4
MAX_DIM_CLASSICAL = 8
MAX_DIM_QUANTUM = 4
AUTO_RIDGE = 1e-6
GRAD_STEP = 1e-6      # central-difference step in the unconstrained coordinates
ARMIJO = 1e-4         # sufficient-decrease factor of the line search
ENERGY_TOL = 1e-10    # relative energy decrease that counts as a stall
STALL_WINDOW = 10     # accepted iterations the stall test looks back over


@dataclass(frozen=True, eq=False)
class PathOptimizationResult:
    """Optimized discrete path with its descent history.

    ``lengths``, ``energies`` and ``step_cvs`` hold one entry per accepted
    iterate, starting from the seed; ``step_cvs`` is the coefficient of
    variation of the step lengths (zero means perfectly even steps).
    """

    kind: str
    states: tuple
    final_length: float
    final_energy: float
    iterations: int
    converged: bool
    lengths: np.ndarray
    energies: np.ndarray
    step_cvs: np.ndarray
    ridge: float


def _chord_sq_classical(p: np.ndarray, q: np.ndarray) -> float:
    f = min(1.0, float(np.sum(np.sqrt(p * q))))
    return 8.0 * (1.0 - f)


def _chord_sq_quantum(node_a, node_b) -> float:
    root = node_a[1]
    lam = np.linalg.eigvalsh(root @ node_b[0] @ root)
    f = min(1.0, float(np.sum(np.sqrt(np.clip(lam, 0.0, None)))))
    return 8.0 * (1.0 - f)


class _ClassicalLane:
    """Interior coordinates are real vectors x with p = x^2 / |x|^2."""

    def __init__(self, dim: int, ridge: float):
        self.dim = dim
        self.ridge = ridge

    def endpoint_node(self, state):
        return np.asarray(state.weights, dtype=np.float64)

    def seed_coords(self, state):
        return np.sqrt(state.weights)

    def node(self, coords: np.ndarray) -> np.ndarray:
        p = coords * coords
        p = p / p.sum()
        if self.ridge > 0.0:
            p = (p + self.ridge / self.dim) / (1.0 + self.ridge)
        return p

    chord_sq = staticmethod(_chord_sq_classical)

    def wrap(self, node) -> ProbabilityDistribution:
        return validate_distribution(node)


class _QuantumLane:
    """Interior coordinates are (re, im) stacks of A with rho = A A*/tr."""

    def __init__(self, dim: int, ridge: float):
        self.dim = dim
        self.ridge = ridge

    def endpoint_node(self, state):
        # caller hands over the already-ridged endpoint; do not ridge again
        lam, vec = np.linalg.eigh(state.matrix)
        return self._assemble(np.clip(lam, 0.0, None), vec)

    def seed_coords(self, state):
        root = mat_sqrt(state)
        return np.stack([root.real, root.imag])

    def node(self, coords: np.ndarray):
        a = coords[0] + 1j * coords[1]
        m = a @ a.conj().T
        trace = float(np.real(np.trace(m)))
        if trace <= 0.0:
            raise RankCollapse("iterate collapsed to the zero matrix")
        lam, vec = np.linalg.eigh(m)
        lam = np.clip(lam, 0.0, None) / trace
        if self.ridge > 0.0:
            lam = (lam + self.ridge / self.dim) / (1.0 + self.ridge)
        elif float(lam.min()) < RANK_TOL:
            raise RankCollapse(
                f"iterate eigenvalue {float(lam.min()):.3e} below {RANK_TOL} "
                "with the ridge disabled"
            )
        return self._assemble(lam, vec)

    @staticmethod
    def _assemble(lam, vec):
        rho = (vec * lam) @ vec.conj().T
        root = (vec * np.sqrt(lam)) @ vec.conj().T
        return 0.5 * (rho + rho.conj().T), 0.5 * (root + root.conj().T)

    chord_sq = staticmethod(_chord_sq_quantum)

    def wrap(self, node) -> DensityMatrix:
        return validate_density(node[0])


def _make_lane(start, end, ridge):
    if isinstance(start, ProbabilityDistribution) and isinstance(end, ProbabilityDistribution):
        if start.dim > MAX_DIM_CLASSICAL:
            raise ValueError(f"classical search supports dim <= {MAX_DIM_CLASSICAL}")
        if ridge is None:
            ridge = 0.0
        return _ClassicalLane(start.dim, ridge), "classical", ridge
    if isinstance(start, DensityMatrix) and isinstance(end, DensityMatrix):
        if start.dim > MAX_DIM_QUANTUM:
            raise ValueError(f"quantum search supports dim <= {MAX_DIM_QUANTUM}")
        smallest = min(
            float(spectral(start).eigenvalues[-1]), float(spectral(end).eigenvalues[-1])
        )
        if ridge is None:
            ridge = AUTO_RIDGE if smallest < RANK_TOL else 0.0
        if ridge == 0.0 and smallest < RANK_TOL:
            raise RankCollapse(
                f"endpoint eigenvalue {smallest:.3e} below {RANK_TOL}; "
                "enable a ridge to search from rank-deficient endpoints"
            )
        return _QuantumLane(start.dim, ridge), "quantum", ridge
    raise DimensionMismatch("endpoints must be two states of the same kind")


def minimize_path(
    start,
    end,
    n_steps: int,
    seed_path: StatePath | None = None,
    *,
    max_iter: int = 5000,
    ridge: float | None = None,
) -> PathOptimizationResult:
    """Minimize the discrete chord energy of an N-step path between two states.

    ``seed_path`` defaults to the straight mixture; iteration stops when the
    relative energy decrease over ``STALL_WINDOW`` accepted iterations falls
    below ``ENERGY_TOL``, when the line search stalls, or at ``max_iter``
    (in which case ``converged`` is False and the best iterate is returned).
    ``ridge=None`` enables a 1e-6 ridge automatically for rank-deficient
    quantum endpoints and is off otherwise.
    """
    if not MIN_STEPS <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must lie in {MIN_STEPS}..{MAX_STEPS}, got {n_steps}")
    if start.dim != end.dim:
        raise DimensionMismatch(f"dimensions differ: {start.dim} vs {end.dim}")
    lane, kind, ridge = _make_lane(start, end, ridge)
    rule = default_step_rule(kind)
    if seed_path is None:
        seed_path = linear_mixture_path(start, end)

    first = lane.endpoint_node(add_ridge(start, ridge) if ridge > 0.0 else start)
    last = lane.endpoint_node(add_ridge(end, ridge) if ridge > 0.0 else end)
    coords = [
        lane.seed_coords(seed_path.sample(i / n_steps)) for i in range(1, n_steps)
    ]

    def build_nodes(cs):
        return [first] + [lane.node(c) for c in cs] + [last]

    def total_energy(nodes):
        return sum(
            lane.chord_sq(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)
        )

    def record(nodes, energy):
        dl2 = np.array(
            [lane.chord_sq(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
        )
        fids = 1.0 - dl2 / 8.0
        steps = _step_lengths_from_fidelities(fids, rule)
        mean = float(steps.mean())
        cv = float(steps.std() / mean) if mean > 0.0 else 0.0
        lengths.append(float(steps.sum()))
        energies.append(energy)
        step_cvs.append(cv)

    nodes = build_nodes(coords)
    energy = total_energy(nodes)
    lengths: list[float] = []
    energies: list[float] = []
    step_cvs: list[float] = []
    record(nodes, energy)

    converged = False
    iterations = 0
    alpha = 1.0
    for _ in range(max_iter):
        grads = [np.zeros_like(c) for c in coords]
        for j, block in enumerate(coords):
            left, right = nodes[j], nodes[j + 2]
            flat = block.reshape(-1)
            grad_flat = grads[j].reshape(-1)
            for c in range(flat.size):
                keep = flat[c]
                flat[c] = keep + GRAD_STEP
                plus = lane.node(block)
                flat[c] = keep - GRAD_STEP
                minus = lane.node(block)
                flat[c] = keep
                e_plus = lane.chord_sq(left, plus) + lane.chord_sq(plus, right)
                e_minus = lane.chord_sq(left, minus) + lane.chord_sq(minus, right)
                grad_flat[c] = (e_plus - e_minus) / (2.0 * GRAD_STEP)
        grad_norm_sq = sum(float(np.sum(g * g)) for g in grads)
        if grad_norm_sq == 0.0:
            converged = True
            break

        alpha = min(alpha * 2.0, 16.0)
        accepted = False
        for _ in range(60):
            trial = [c - alpha * g for c, g in zip(coords, grads)]
            trial_nodes = build_nodes(trial)
            trial_energy = total_energy(trial_nodes)
            if trial_energy <= energy - ARMIJO * alpha * grad_norm_sq:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # gradient is at the numerical noise floor; nothing left to gain
            converged = True
            break

        coords, nodes, energy = trial, trial_nodes, trial_energy
        iterations += 1
        record(nodes, energy)
        if len(energies) > STALL_WINDOW:
            drop = energies[-1 - STALL_WINDOW] - energy
            if drop < ENERGY_TOL * max(energy, 1e-300):
                converged = True
                break

    if ridge > 0.0:
        endpoints = (add_ridge(start, ridge), add_ridge(end, ridge))
    else:
        endpoints = (start, end)
    states = (
        endpoints[0],
        *[lane.wrap(lane.node(c)) for c in coords],
        endpoints[1],
    )
    return PathOptimizationResult(
        kind=kind,
        states=states,
        final_length=lengths[-1],
        final_energy=energy,
        iterations=iterations,
        converged=converged,
        lengths=_freeze(np.asarray(lengths)),
        energies=_freeze(np.asarray(energies)),
        step_cvs=_freeze(np.asarray(step_cvs)),
        ridge=ridge,
    )
