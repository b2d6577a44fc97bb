"""Validated state types and their spectral calculus.

Classical states are probability vectors, quantum states are density
matrices.  Construction goes through :func:`validate_distribution` and
:func:`validate_density`, which reject genuinely bad inputs and clean up
roundoff-level violations (clip, then renormalize), so everything
downstream can assume well-formed states.  Re-validating an already
validated state returns it unchanged.  Both are the one-row case of a
validator that checks a whole stack of states row by row.

A probability vector is the commuting case of a density matrix: its
weights are the eigenvalues, and sqrt(p) is the diagonal of sqrt(rho).
So :func:`entropy` and the amplitudes of a stack take either kind, read
from the type or from the stack's rank.  The matrix functions are built
on one Hermitian eigendecomposition, taken with eigenvalues in
descending order, and entropies are in nats throughout.
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


def _real_copy(raw, what: str) -> np.ndarray:
    """A float64 copy of ``raw``; complex entries are refused, not cast."""
    arr = np.asarray(raw)
    if np.iscomplexobj(arr):
        raise ValidationError(f"{what} must be real, got {arr.dtype} entries")
    return np.array(arr, dtype=np.float64, copy=True)


def _validate_distribution_rows(raw) -> np.ndarray:
    """Validate every row of a (K, d) weight array; see :func:`validate_distribution`.

    Each row gets the checks and repairs of a single distribution, so a
    row comes out bit for bit as it would alone.  Returns a new array.
    """
    weights = _real_copy(raw, "distribution")
    if weights.ndim != 2 or weights.shape[1] < 1:
        raise ValidationError(
            f"distributions must be a (K, d) array with d >= 1, got shape {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise ValidationError("distribution contains non-finite entries")
    wmin = weights.min(axis=1)
    bad = wmin < -VALIDATION_TOL
    if bad.any():
        raise NotPositive(f"weight {wmin[bad][0]:.3e} below -{VALIDATION_TOL}")
    total = weights.sum(axis=1)
    bad = np.abs(total - 1.0) > INPUT_SUM_TOL
    if bad.any():
        raise NotNormalized(
            f"weights sum to {float(total[bad][0])!r}, expected 1 within {INPUT_SUM_TOL}"
        )
    clip = wmin < 0.0
    if clip.any():
        weights[clip] = np.clip(weights[clip], 0.0, None)
        total[clip] = weights[clip].sum(axis=1)
    renorm = np.abs(total - 1.0) > _RENORM_SKIP
    if renorm.any():
        weights[renorm] = weights[renorm] / total[renorm, None]
    return weights


def validate_distribution(raw) -> ProbabilityDistribution:
    """Check, clip, and renormalize a raw weight vector.

    Entries in [-1e-12, 0) are clipped to zero; more negative entries raise
    :class:`NotPositive`.  The sum must be within 1e-9 of one, and is
    renormalized only when it deviates by more than roundoff, so validated
    output passes through unchanged.
    """
    weights = np.asarray(raw)
    if weights.ndim != 1 or weights.size < 1:
        raise ValidationError(
            f"distribution must be a nonempty vector, got shape {weights.shape}"
        )
    return ProbabilityDistribution(_freeze(_validate_distribution_rows(weights[None])[0]))


def _validate_density_rows(raw):
    """Validate every matrix of a (K, d, d) stack; see :func:`validate_density`.

    Returns ``(matrices, eigenvalues, eigenvectors)``: the validated stack
    and the ``np.linalg.eigh`` of every returned matrix.  That is the
    decomposition the positivity check takes; a repaired matrix is
    decomposed again after its repair.
    """
    mat = np.array(raw, dtype=np.complex128, copy=True)
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2] or mat.shape[1] < 1:
        raise ValidationError(f"density matrices must be a (K, d, d) stack, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("density matrix contains non-finite entries")
    adjoint = mat.conj().swapaxes(1, 2)
    herm_dev = np.abs(mat - adjoint).max(axis=(1, 2))
    bad = herm_dev > VALIDATION_TOL
    if bad.any():
        raise NotHermitian(
            f"Hermiticity deviation {herm_dev[bad][0]:.3e} exceeds {VALIDATION_TOL}"
        )
    sym = herm_dev > 0.0
    if sym.any():
        mat[sym] = 0.5 * (mat[sym] + adjoint[sym])
    lam, vec = np.linalg.eigh(mat)
    lam_min = lam[:, 0]
    bad = lam_min < -VALIDATION_TOL
    if bad.any():
        raise NotPositive(f"eigenvalue {lam_min[bad][0]:.3e} below -{VALIDATION_TOL}")
    trace = np.real(np.trace(mat, axis1=1, axis2=2))
    bad = np.abs(trace - 1.0) > INPUT_SUM_TOL
    if bad.any():
        raise NotNormalized(
            f"trace {float(trace[bad][0])!r}, expected 1 within {INPUT_SUM_TOL}"
        )
    repair = (lam_min < -_PSD_SKIP) | (np.abs(trace - 1.0) > _RENORM_SKIP)
    if repair.any():
        kept = np.clip(lam[repair], 0.0, None)
        kept = kept / kept.sum(axis=1, keepdims=True)
        basis = vec[repair]
        fixed = (basis * kept[:, None, :]) @ basis.conj().swapaxes(1, 2)
        mat[repair] = 0.5 * (fixed + fixed.conj().swapaxes(1, 2))
        lam[repair], vec[repair] = np.linalg.eigh(mat[repair])
    return mat, lam, vec


def validate_density(raw) -> DensityMatrix:
    """Check, symmetrize, eigenvalue-clip, and trace-normalize a raw matrix.

    Hermiticity and positivity violations beyond 1e-12 and trace deviations
    beyond 1e-9 are errors; smaller ones are repaired.  As with
    distributions, already-clean matrices are returned unchanged.
    """
    mat = np.asarray(raw, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
    return DensityMatrix(_freeze(_validate_density_rows(mat[None])[0][0]))


def tangent_classical(raw) -> TangentPerturbation:
    """Zero-sum real direction on the simplex."""
    delta = _real_copy(raw, "tangent vector")
    if delta.ndim != 1 or delta.size < 1:
        raise ValidationError(f"tangent vector must be 1-d, got shape {delta.shape}")
    total = float(delta.sum())
    if abs(total) > VALIDATION_TOL:
        raise ValidationError(f"tangent vector sums to {total!r}, expected 0")
    if total != 0.0:
        delta = delta - total / delta.size
    return TangentPerturbation(_freeze(delta))


def tangent_quantum(raw) -> TangentPerturbation:
    """Traceless Hermitian direction on density matrices."""
    delta = np.array(raw, dtype=np.complex128, copy=True)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValidationError(f"tangent matrix must be square, got shape {delta.shape}")
    herm_dev = float(np.max(np.abs(delta - delta.conj().T)))
    if herm_dev > VALIDATION_TOL:
        raise ValidationError(f"tangent Hermiticity deviation {herm_dev:.3e}")
    if herm_dev > 0.0:
        delta = 0.5 * (delta + delta.conj().T)
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
    if isinstance(state, DensityMatrix):
        mat = (state.matrix + (delta / state.dim) * np.eye(state.dim)) / (1.0 + delta)
        return validate_density(mat)
    if isinstance(state, ProbabilityDistribution):
        return validate_distribution((state.weights + delta / state.dim) / (1.0 + delta))
    raise ValidationError(f"cannot ridge object of type {type(state).__name__}")
