"""Relative entropies, the refusal point of sequential transport, and the expansion probe.

A single equilibration step from rho to sigma produces S(rho||sigma) of
entropy; a schedule of N steps produces the sum of its per-step yields,
which the :class:`~statlen.geometry.TransportSchedule` carries with its
totals and bounds.  For evenly spaced steps along a path of length l the
total approaches l^2/(2N).  Infinite relative entropy (a support
violation) is a first-class value of :func:`relative_entropy`, not an
exception; :func:`run_transport` refuses a schedule with one, naming the
step that broke.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InfiniteYield, RankDeficient, ValidationError, _refuse_above
from .geometry import (
    MAX_SCHEDULE_ENTRIES,
    RANK_TOL,
    TransportSchedule,
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


def run_transport(schedule: TransportSchedule) -> TransportSchedule:
    """The schedule itself, once no step's yield is infinite.

    A schedule is its own report: it carries its step lengths and yields,
    and reads its totals and bounds from them.  A step whose yield is
    infinite, a support violation, raises :class:`InfiniteYield` with the
    first such step's index.
    """
    broken = np.flatnonzero(np.isinf(schedule.step_yields))
    if broken.size:
        step = int(broken[0])
        raise InfiniteYield(f"support violation at step {step}", step=step)
    return schedule


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
