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

from .exceptions import InfiniteYield, RankDeficient
from .geometry import (
    RANK_TOL,
    TransportSchedule,
    kubo_mori_element,
    metric_element,
    state_fidelity,
    _tangent_kind,
)
from .states import (
    SUPPORT_FLOOR,
    TangentPerturbation,
    spectral,
    _freeze,
    _hermitian_test,
    _pair_kind,
    _state_array,
    _state_of,
    _state_test,
    _validate_rows,
)

LEAK_TOL = 1e-12   # tolerated weight outside the support of the second state


def relative_entropy(a, b) -> float:
    """S(a||b) in nats; +inf when a has weight outside the support of b.

    The two-row case of the step-yield kernel: Klein's form of
    tr(rho ln rho - rho ln sigma), which for classical inputs is the
    Kullback-Leibler sum.
    """
    _pair_kind(a, b)
    return float(_step_entropies(np.stack((_state_array(a), _state_array(b))))[0])


def _step_entropies(rows: np.ndarray) -> np.ndarray:
    """S(rows[i] || rows[i+1]) of a validated (K, d) or (K, d, d) stack; +inf past ``LEAK_TOL``.

    Klein's form sum_ij P_ij a_i (r - 1 - ln r), r = b_j / a_i, over the
    spectra of a and b with overlaps P_ij = |<i|j>|^2 (P = I for classical
    rows; a quantum stack takes one :func:`spectral` call).  Every term is
    nonnegative, so the ~ theta^2/(2 N^2) yield of a short step is not a
    difference of O(1) traces.  r - 1 is exact for 1/2 <= r <= 2, where
    log1p(r - 1) would return the same ln r; below, ln r keeps the low
    bits of r that r - 1 drops.  The form equals S + tr b - tr a, so each
    spectrum is divided by its sum rather than corrected afterwards, which
    would bring back an O(1) cancellation.  Weights at or below
    ``SUPPORT_FLOOR`` are zeros: a_i = 0 gives b_j, and b_j = 0 gives
    nothing but puts P_ij a_i into the leak.

    A row that is not a state raises as validation does, naming the row:
    the tests of ``states`` run on the spectra the yields take, so no stack
    is decomposed twice, and NaN fails them.
    """
    if rows.ndim == 2:
        lam, overlap = rows, 1.0
    else:
        _hermitian_test(rows)
        dec = spectral(rows)
        vec = dec.eigenvectors
        lam, overlap = dec.eigenvalues, np.abs(vec[:-1].conj().swapaxes(1, 2) @ vec[1:]) ** 2
    total = lam.sum(axis=1, keepdims=True)
    _state_test(lam.min(axis=1), total[:, 0])
    lam = lam / total
    a, b = (lam[:-1], lam[1:]) if rows.ndim == 2 else (lam[:-1, :, None], lam[1:, None, :])
    live_a, live_b = a > SUPPORT_FLOOR, b > SUPPORT_FLOOR
    r = np.where(live_a & live_b, b / np.where(live_a, a, 1.0), 1.0)
    terms = overlap * np.where(live_a, a * (r - 1.0 - np.log(r)), np.where(live_b, b, 0.0))
    axes = tuple(range(1, rows.ndim))
    leak = np.sum(overlap * np.where(live_b, 0.0, a), axis=axes)
    return np.where(leak > LEAK_TOL, np.inf, terms.sum(axis=axes))


def min_entropy_production(length: float, n_steps: int) -> float:
    """Minimum total entropy production along a path of the given length: l^2/(2N)."""
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    return length * length / (2.0 * n_steps)


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

    ``nu`` is the number of steps per unit path length; ``bound_path_length``
    is l^2/(2N) for the measured length, ``bound_fidelity`` the
    endpoint-fidelity value of :func:`geodesic_bound`, which the entropy of
    a classical geodesic schedule approaches as N grows (and may undercut
    at small N).
    """

    kind: str
    n_steps: int
    total_entropy: float
    total_length: float
    step_lengths: np.ndarray
    step_yields: np.ndarray
    nu: float
    bound_path_length: float
    bound_fidelity: float
    endpoint_fidelity: float


def run_transport(schedule: TransportSchedule) -> TransportReport:
    """Sum the step yields of ``schedule.rows``, from one stacked call, and attach bounds.

    A row that is not a state raises as validation does (:class:`NotHermitian`,
    :class:`NotPositive` or :class:`NotNormalized`, naming the row), and a
    consecutive pair that violates support raises :class:`InfiniteYield`
    with the step index.  The fidelity is that of the validated end rows.
    """
    yields = _step_entropies(schedule.rows)
    broken = np.flatnonzero(np.isinf(yields))
    if broken.size:
        step = int(broken[0])
        raise InfiniteYield(f"support violation at step {step}", step=step)
    total_length = float(schedule.step_lengths.sum())
    nu = math.inf if total_length == 0.0 else schedule.n_steps / total_length
    ends = _validate_rows(schedule.rows[[0, -1]])[0]
    fid = state_fidelity(_state_of(ends[0]), _state_of(ends[1]))
    return TransportReport(
        kind=schedule.kind,
        n_steps=schedule.n_steps,
        total_entropy=float(yields.sum()),
        total_length=total_length,
        step_lengths=schedule.step_lengths,
        step_yields=_freeze(yields),
        nu=nu,
        bound_path_length=min_entropy_production(total_length, schedule.n_steps),
        bound_fidelity=geodesic_bound(fid, schedule.n_steps, schedule.kind),
        endpoint_fidelity=fid,
    )


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
    """Tabulate S(rho||rho + eps drho) / (dl^2/2) over a descending eps grid."""
    eps = np.asarray(eps_list, dtype=np.float64)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("eps_list must be a nonempty vector")
    if np.any(eps <= 0.0) or (eps.size > 1 and np.any(np.diff(eps) >= 0.0)):
        raise ValueError("eps_list must be positive and strictly descending")
    base = _state_array(state)
    if _tangent_kind(state, perturbation) == "classical":
        metric_name, lowest = "fisher", float(base.min())
    else:
        metric_name, lowest = "bures", float(spectral(state).eigenvalues[-1])
    if lowest <= RANK_TOL:
        raise RankDeficient(f"expansion probe needs a full-rank state, got a least weight {lowest:.3e}")
    perturbed = _validate_rows(base + eps.reshape((-1,) + (1,) * base.ndim) * perturbation.delta)[0]
    entropies = np.empty(eps.size)
    ratio_metric = np.empty(eps.size)
    ratio_km = np.empty(eps.size)
    for k, e in enumerate(eps):
        entropies[k] = relative_entropy(state, _state_of(perturbed[k]))
        ratio_metric[k] = entropies[k] / (0.5 * metric_element(state, perturbation, e))
        ratio_km[k] = entropies[k] / (0.5 * kubo_mori_element(state, perturbation, e))
    return ExpansionProbe(
        _freeze(eps.copy()),
        _freeze(entropies),
        metric_name,
        _freeze(ratio_metric),
        _freeze(ratio_km),
    )
