"""Relative entropies and the entropy accounting of sequential transport.

A single equilibration step from rho to sigma produces S(rho||sigma) of
entropy; a schedule of N steps produces the sum of its per-step yields.
For evenly spaced steps along a path of length l the total approaches
l^2/(2N), which is the bound this module exposes alongside the measured
sums.  Infinite relative entropy (a support violation) is a first-class
value here, not an exception, so callers can see which step broke.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfiniteYield, RankDeficient, ValidationError, _refuse_above
from .geometry import (
    MAX_SCHEDULE_ENTRIES,
    RANK_TOL,
    TransportSchedule,
    state_fidelity,
    _elements,
    _step_entropies,
    _tangent_kind,
)
from .states import (
    State,
    TangentPerturbation,
    _freeze,
    _pair_kind,
    _validate_rows,
)

PROBE_DIGITS = 6                             # digits an accepted probe ratio keeps; see expansion_probe
PROBE_ROUNDING = 2.0 * np.finfo(float).eps   # error of S(rho || rho + eps drho) per eps R, 4 unit roundoffs


def relative_entropy(a, b) -> float:
    """S(a||b) in nats; +inf when a has weight outside the support of b.

    The two-row case of the step-yield kernel: Klein's form of
    tr(rho ln rho - rho ln sigma), which for classical inputs is the
    Kullback-Leibler sum.  The two states are validated, and decomposed,
    once as a stack.
    """
    _pair_kind(a, b)
    return float(_step_entropies(*_validate_rows(np.stack((a.array, b.array))))[0])


def geodesic_bound(fidelity: float, n_steps: int, kind: str) -> float:
    """The l^2/(2N) that N-step transport between states of fidelity F is compared with.

    (2/N)(arccos F)^2 for classical states takes the geodesic length
    2 arccos F; (2/N)(1 - F^2) for quantum states takes the chordal
    distance 2 sqrt(1 - F^2), which is shorter.  Neither is a bound at
    every N.  The classical value is the large-N entropy of the geodesic
    schedule, which reads down to 0.898 of it at N = 4, 0.945 at N = 8,
    0.971 at N = 16 and 0.993 at N = 64 (smallest ratio over 40 seeded
    pairs of 4-outcome distributions).
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    f = float(np.clip(fidelity, 0.0, 1.0))
    if kind == "quantum":
        return 2.0 * (1.0 - f * f) / n_steps
    if kind == "classical":
        angle = float(np.arccos(f))
        return 2.0 * angle * angle / n_steps
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True, eq=False)
class TransportReport:
    """Entropy accounting for one executed transport schedule.

    The fields are what was measured; the totals and bounds are read from
    them.  ``nu`` is the number of steps per unit path length;
    ``bound_path_length`` is l^2/(2N) for the measured length,
    ``bound_fidelity`` the endpoint-fidelity value of :func:`geodesic_bound`,
    which the entropy of a classical geodesic schedule approaches as N grows
    (and may undercut at small N).
    """

    kind: str
    step_lengths: np.ndarray
    step_yields: np.ndarray
    endpoint_fidelity: float

    def __post_init__(self):
        n, m = len(self.step_lengths), len(self.step_yields)
        if n != m:
            raise ValueError(f"need one yield per step length, got {n} lengths and {m} yields")

    @property
    def n_steps(self) -> int:
        return len(self.step_lengths)

    @property
    def total_entropy(self) -> float:
        return float(self.step_yields.sum())

    @property
    def total_length(self) -> float:
        return float(self.step_lengths.sum())

    @property
    def nu(self) -> float:
        total_length = self.total_length
        return math.inf if total_length == 0.0 else self.n_steps / total_length

    @property
    def bound_path_length(self) -> float:
        total_length = self.total_length
        return total_length * total_length / (2.0 * self.n_steps)

    @property
    def bound_fidelity(self) -> float:
        return geodesic_bound(self.endpoint_fidelity, self.n_steps, self.kind)


def run_transport(schedule: TransportSchedule) -> TransportReport:
    """Report a schedule's step lengths and yields with the fidelity of its endpoints.

    The yields are those the schedule carries; a step whose yield is
    infinite, a support violation, raises :class:`InfiniteYield` with the
    first such step's index.  The endpoint fidelity is
    ``state_fidelity(schedule.start, schedule.end)``.
    """
    broken = np.flatnonzero(np.isinf(schedule.step_yields))
    if broken.size:
        step = int(broken[0])
        raise InfiniteYield(f"support violation at step {step}", step=step)
    fid = state_fidelity(schedule.start, schedule.end)
    return TransportReport(schedule.kind, schedule.step_lengths, schedule.step_yields, fid)


@dataclass(frozen=True, eq=False)
class ExpansionProbe:
    """Ratio table for the quadratic expansion of relative entropy.

    ``ratio_metric`` divides S(rho || rho + eps drho) by half the
    Fisher-Bures element; ``ratio_kubo_mori`` divides by half the Kubo-Mori
    element, which is the exact second-order form and equals the Fisher
    element on probability vectors.  The table asserts nothing; in
    particular the Bures column need not approach one for non-commuting
    steps.
    """

    eps: np.ndarray
    relative_entropies: np.ndarray
    metric_name: str
    ratio_metric: np.ndarray
    ratio_kubo_mori: np.ndarray


def expansion_probe(state, perturbation: TangentPerturbation, eps_list) -> ExpansionProbe:
    """Tabulate S(rho||rho + eps drho) / (dl^2/2) over a descending eps grid.

    The perturbed states form one stack, held to a schedule pass's MAX_SCHEDULE_ENTRIES
    entries: a longer grid raises DimensionCapExceeded, and a rank-deficient state
    RankDeficient (a density matrix's as its elements are taken), before any stack.
    A zero perturbation, and an eps below the probe's floor, raise ValidationError
    before any stack.

    The floor: the yield kernel keeps each term of S to about u/|r - 1|
    relative, u the unit roundoff, so S is off by about u eps R, with
    R = sum_ij |drho_ij| s_ij / min(lam_i, lam_j) in the eigenbasis of rho:
    s_ij = p_i for exact weights (R = sum |dp|), and the largest eigenvalue
    for a density matrix, whose eigenvalues are computed to u times it.  One
    decomposition of rho gives R and both elements of every eps.  The
    estimate PROBE_ROUNDING eps R / (KM / 2), KM the Kubo-Mori element, falls
    as 1/eps; an eps where it exceeds 10^-PROBE_DIGITS is refused, as is one
    whose element underflows to 0, where it is infinite.  The Bures element
    is at least a twelfth of KM at eigenvalues above RANK_TOL, so no accepted
    eps has a Bures element of 0 either.  Against 50-digit mpmath references
    at 555 points (37 states with tangents, classical and quantum, d = 2..6,
    eps = 1e-2 .. 1e-16) the error was at most 1.95 u eps R / (KM / 2) where
    that is below 1e-6, so PROBE_ROUNDING is 4u; every ratio the floor
    accepts held PROBE_DIGITS = 6 digits (largest error 9.5e-8).
    """
    eps = np.asarray(eps_list, dtype=np.float64)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("eps_list must be a nonempty vector")
    if not (np.all(np.isfinite(eps)) and np.all(eps > 0.0) and np.all(np.diff(eps) < 0.0)):
        raise ValueError("eps_list must be finite, positive and strictly descending")
    classical = _tangent_kind(state, perturbation) == "classical"
    _refuse_above(MAX_SCHEDULE_ENTRIES // state.array.size, "eps_grid length", eps.size, "eps_grid length")
    if classical and state.array.min() <= RANK_TOL:
        raise RankDeficient(f"expansion probe needs a full-rank state, got a least weight {state.array.min():.3e}")
    if not np.any(perturbation.delta):
        raise ValidationError("perturbation is 0, which gives every eps a metric element of 0")
    metric, kubo_mori, scale = _elements(state, perturbation, eps)
    coarse = 0.5 * kubo_mori * 10.0 ** -PROBE_DIGITS < PROBE_ROUNDING * eps * scale
    if coarse.any():
        raise ValidationError(f"eps {float(eps[coarse][0])!r} is below the probe's floor for this state and "
                              f"perturbation, where a ratio keeps fewer than {PROBE_DIGITS} digits")
    base = state.array
    perturbed = _validate_rows(base + eps.reshape((-1,) + (1,) * base.ndim) * perturbation.delta)[0]
    entropies = np.array([relative_entropy(state, State(row)) for row in perturbed])
    return ExpansionProbe(
        _freeze(eps.copy()),
        _freeze(entropies),
        "fisher" if classical else "bures",
        _freeze(entropies / (0.5 * metric)),
        _freeze(entropies / (0.5 * kubo_mori)),
    )
