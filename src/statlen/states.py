"""Validated state types and their spectral calculus.

Classical states are probability vectors, quantum states are density
matrices.  Construction goes through :func:`validate_distribution` and
:func:`validate_density`, which reject genuinely bad inputs and clean up
roundoff-level violations (clip, then renormalize), so everything
downstream can assume well-formed states.  Re-validating an already
validated state returns it unchanged.

A probability vector is the commuting case of a density matrix: its
weights are the eigenvalues, and sqrt(p) is the diagonal of sqrt(rho).
So one validator checks a stack of either kind, read from its rank, by
one Hermiticity test of matrices and one state test of each row's least
weight or eigenvalue and its sum or trace; NaN fails both.  The public
validators are its one-row cases.  :func:`entropy` and the amplitudes of
a stack also take either kind.  The matrix functions are built on one
Hermitian eigendecomposition, taken with eigenvalues in descending
order, and entropies are in nats throughout.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BadRank,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPositive,
    ValidationError,
)

VALIDATION_TOL = 1e-12    # type-invariant tolerance
INPUT_SUM_TOL = 1e-9      # accepted sum/trace deviation of raw input
SUPPORT_FLOOR = 1e-14     # eigenvalues at or below this count as exact zeros
DEFAULT_DIM_CAP = 4096    # cap on composite-space dimensions
DIM_CAP_ENV = "STATLEN_DIM_CAP"

# Cleanup is skipped below these thresholds, which sit above the noise of
# the cleanup itself; this is what makes validation idempotent bit for bit.
_RENORM_SKIP = 1e-13
_PSD_SKIP = 1e-14


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Finite probability vector: nonnegative weights summing to one."""

    weights: np.ndarray
    kind = "classical"

    @property
    def dim(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix."""

    matrix: np.ndarray
    kind = "quantum"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class TangentPerturbation:
    """Direction on state space: zero-sum vector or traceless Hermitian matrix, by its shape."""

    delta: np.ndarray


def _pair_kind(a, b) -> str:
    """The kind of two states, which must share their kind and dimension."""
    if type(a) is not type(b) or not isinstance(a, (ProbabilityDistribution, DensityMatrix)):
        raise DimensionMismatch(f"cannot pair {type(a).__name__} with {type(b).__name__}")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return a.kind


def _state_array(state) -> np.ndarray:
    return state.weights if isinstance(state, ProbabilityDistribution) else state.matrix


def _real_copy(raw, what: str) -> np.ndarray:
    """A float64 copy of ``raw``; complex entries are refused, not cast."""
    arr = np.asarray(raw)
    if np.iscomplexobj(arr):
        raise ValidationError(f"{what} must be real, got {arr.dtype} entries")
    return np.array(arr, dtype=np.float64, copy=True)


def _refuse(ok: np.ndarray, error, what) -> None:
    """Raise ``error`` naming the first row that is not ``ok``; ``what(i)`` says what row i is not."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise error(f"row {i} is not a {what(i)}")


def _hermitian_test(mats: np.ndarray):
    """``(adjoint, deviation)`` of a (K, d, d) stack; a row off by over VALIDATION_TOL is refused."""
    adjoint = mats.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf: any non-finite entry gives a failing NaN or inf
        deviation = np.abs(mats - adjoint).max(axis=(-2, -1))
    _refuse(deviation <= VALIDATION_TOL, NotHermitian,
            lambda i: f"Hermitian matrix: deviation {deviation[i]:.3e} exceeds {VALIDATION_TOL}")
    return adjoint, deviation


def _state_test(least: np.ndarray, total: np.ndarray) -> None:
    """Refuse a row whose least weight or eigenvalue, or whose sum or trace, is not a state's."""
    _refuse(least >= -VALIDATION_TOL, NotPositive,
            lambda i: f"state: least weight or eigenvalue {least[i]:.3e} below -{VALIDATION_TOL}")
    _refuse(np.abs(total - 1.0) <= INPUT_SUM_TOL, NotNormalized,
            lambda i: f"state: sum or trace {float(total[i])!r}, expected 1 within {INPUT_SUM_TOL}")


def _validate_rows(raw):
    """Validate every row of a (K, d) weight or (K, d, d) matrix stack, the kind read from the rank.

    Each row gets the checks and the repair it would get alone, bit for bit.
    Returns ``(rows, eig)``: a new read-only array, and None for weights or
    else the ``np.linalg.eigh`` of every returned matrix: the one the state
    test took, or for a repaired matrix one taken after its repair.
    """
    arr = np.asarray(raw)
    rows = _real_copy(arr, "distribution") if arr.ndim == 2 else np.array(arr, np.complex128)
    if rows.ndim not in (2, 3) or rows.shape[1] < 1 or rows.shape[-1] != rows.shape[1]:
        raise ValidationError(f"states must be a (K, d) or (K, d, d) stack, got shape {rows.shape}")
    _refuse(np.isfinite(rows).all(axis=tuple(range(1, rows.ndim))), ValidationError,
            lambda i: "state: non-finite entries")
    if rows.ndim == 2:
        least, total = rows.min(axis=1), rows.sum(axis=1)
    else:
        adjoint, deviation = _hermitian_test(rows)
        sym = deviation > 0.0
        if sym.any():
            rows[sym] = 0.5 * (rows[sym] + adjoint[sym])
        lam, vec = np.linalg.eigh(rows)
        least, total = lam[:, 0], np.real(np.trace(rows, axis1=1, axis2=2))
    _state_test(least, total)
    if rows.ndim == 2:
        clip = least < 0.0
        if clip.any():
            rows[clip] = np.clip(rows[clip], 0.0, None)
            total[clip] = rows[clip].sum(axis=1)
        renorm = np.abs(total - 1.0) > _RENORM_SKIP
        if renorm.any():
            rows[renorm] = rows[renorm] / total[renorm, None]
        return _freeze(rows), None
    repair = (least < -_PSD_SKIP) | (np.abs(total - 1.0) > _RENORM_SKIP)
    if repair.any():
        kept = np.clip(lam[repair], 0.0, None)
        kept = kept / kept.sum(axis=1, keepdims=True)
        basis = vec[repair]
        fixed = (basis * kept[:, None, :]) @ basis.conj().swapaxes(1, 2)
        rows[repair] = 0.5 * (fixed + fixed.conj().swapaxes(1, 2))
        lam[repair], vec[repair] = np.linalg.eigh(rows[repair])
    return _freeze(rows), (lam, vec)


def _state_of(row: np.ndarray):
    """The state a validated, read-only row is: a probability vector, or a density matrix."""
    return ProbabilityDistribution(row) if row.ndim == 1 else DensityMatrix(row)


def validate_distribution(raw) -> ProbabilityDistribution:
    """Check, clip, and renormalize a raw weight vector.

    Entries in [-1e-12, 0) are clipped to zero; more negative entries raise
    :class:`NotPositive`.  The sum must be within 1e-9 of one, and is
    renormalized only when it deviates by more than roundoff, so validated
    output passes through unchanged.
    """
    weights = np.asarray(raw)
    if weights.ndim != 1:
        raise ValidationError(f"distribution must be a vector, got shape {weights.shape}")
    return ProbabilityDistribution(_validate_rows(weights[None])[0][0])


def validate_density(raw) -> DensityMatrix:
    """Check, symmetrize, eigenvalue-clip, and trace-normalize a raw matrix.

    Hermiticity and positivity violations beyond 1e-12 and trace deviations
    beyond 1e-9 are errors; smaller ones are repaired.  As with
    distributions, already-clean matrices are returned unchanged.
    """
    mat = np.asarray(raw, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
    return DensityMatrix(_validate_rows(mat[None])[0][0])


def tangent_classical(raw) -> TangentPerturbation:
    """Zero-sum real direction on the simplex."""
    delta = _real_copy(raw, "tangent vector")
    if delta.ndim != 1 or delta.size < 1:
        raise ValidationError(f"tangent vector must be 1-d, got shape {delta.shape}")
    if not np.all(np.isfinite(delta)):
        raise ValidationError("tangent vector contains non-finite entries")
    total = float(delta.sum())
    if abs(total) > VALIDATION_TOL:
        raise ValidationError(f"tangent vector sums to {total!r}, expected 0")
    if total != 0.0:
        delta = delta - total / delta.size
    return TangentPerturbation(_freeze(delta))


def tangent_quantum(raw) -> TangentPerturbation:
    """Traceless Hermitian direction on density matrices."""
    delta = np.array(raw, dtype=np.complex128, copy=True)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1] or delta.size < 1:
        raise ValidationError(f"tangent matrix must be square, got shape {delta.shape}")
    adjoint, deviation = _hermitian_test(delta[None])
    if deviation[0] > 0.0:
        delta = 0.5 * (delta + adjoint[0])
    trace = float(np.real(np.trace(delta)))
    if abs(trace) > VALIDATION_TOL:
        raise ValidationError(f"tangent trace {trace!r}, expected 0")
    if trace != 0.0:
        delta = delta - (trace / delta.shape[0]) * np.eye(delta.shape[0])
    return TangentPerturbation(_freeze(delta))


def spectral(rho) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix or (K, d, d) stack, eigenvalues descending."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    lam, vec = np.linalg.eigh(mat)
    return SpectralDecomposition(
        _freeze(lam[..., ::-1].copy()), _freeze(vec[..., ::-1].copy())
    )


def _sqrt_rows(rows: np.ndarray, eig=None) -> np.ndarray:
    """Amplitudes of a stack of states: sqrt(p) of (K, d) weights, sqrt(rho) of (K, d, d) matrices.

    A weight is exact, and its root is taken as it is.  An eigenvalue at or
    below ``SUPPORT_FLOOR`` counts as an exact zero, as in the entropies and
    the relative entropy, so its roundoff does not turn into an amplitude.
    ``eig`` is the ``np.linalg.eigh`` of a matrix stack when the caller
    has it.  The eigenpairs are taken in :func:`spectral`'s descending
    order, which fixes the summation order of the reconstruction.
    """
    if rows.ndim == 2:
        return np.sqrt(rows)
    lam, vec = np.linalg.eigh(rows) if eig is None else eig
    vec = np.ascontiguousarray(vec[..., ::-1])
    lam = lam[..., ::-1]
    root = np.sqrt(np.where(lam > SUPPORT_FLOOR, lam, 0.0))
    out = (vec * root[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def mat_sqrt(rho) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues at or below ``SUPPORT_FLOOR`` count as zero."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return _sqrt_rows(mat[None])[0]


def _entropy_of_weights(weights: np.ndarray, multiplicity=None) -> float:
    """-sum w ln w over the weights above ``SUPPORT_FLOOR``.

    ``multiplicity`` gives how often each weight occurs in the spectrum,
    once each when omitted.
    """
    keep = weights > SUPPORT_FLOOR
    kept = weights[keep]
    terms = kept * np.log(kept)
    if multiplicity is not None:
        terms = multiplicity[keep] * terms
    return max(0.0, float(-np.sum(terms)))


def entropy(state) -> float:
    """Entropy in nats: Shannon's of a probability vector, von Neumann's of a density or raw matrix."""
    if isinstance(state, ProbabilityDistribution):
        return _entropy_of_weights(state.weights)
    return _entropy_of_weights(spectral(state).eigenvalues)


def dimension_cap() -> int:
    """Composite-space dimension cap, overridable via STATLEN_DIM_CAP."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValidationError(f"{DIM_CAP_ENV} must be positive, got {cap}")
    return cap


def random_state(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random density matrix G G* / tr(G G*) of the requested rank.

    G is a ``dim x rank`` matrix of complex normal deviates from
    ``numpy.random.default_rng(seed)``, so results are reproducible.
    """
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must lie in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return validate_density(mat)


def random_distribution(dim: int, seed: int) -> ProbabilityDistribution:
    """Seeded random full-support distribution |g|^2 / sum |g|^2."""
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w = np.abs(g) ** 2
    return validate_distribution(w / w.sum())


def add_ridge(state, delta: float):
    """Mix a state with the maximally mixed one: (state + delta*I/d)/(1 + delta)."""
    if delta < 0.0:
        raise ValidationError(f"ridge must be nonnegative, got {delta}")
    if delta == 0.0:
        return state
    if not isinstance(state, (ProbabilityDistribution, DensityMatrix)):
        raise ValidationError(f"cannot ridge object of type {type(state).__name__}")
    arr = _state_array(state)
    identity = np.eye(state.dim) if arr.ndim == 2 else 1.0
    ridged = (arr + (delta / state.dim) * identity) / (1.0 + delta)
    return _state_of(_validate_rows(ridged[None])[0][0])
