"""The validated state type and its spectral calculus.

A :class:`State` holds one array and reads its kind and dimension from
it: a (d,) probability vector is classical, a (d, d) density matrix is
quantum.  Construction goes through :func:`validate_distribution` and
:func:`validate_density`, which reject genuinely bad inputs and clean up
roundoff-level violations (clip, then renormalize), so everything
downstream can assume well-formed states.  Re-validating an already
validated state returns it unchanged.

A probability vector is the commuting case of a density matrix: its
weights are the eigenvalues, and sqrt(p) is the diagonal of sqrt(rho).
So one validator checks a stack of either kind, read from its rank, by
one finiteness test, one Hermiticity test of matrices and one state test
of each row's least weight or eigenvalue and its sum or trace.  The
public validators are its one-row cases.  :func:`entropy` and the
amplitudes of a stack also take either kind.  The matrix functions are
built on one Hermitian eigendecomposition, :func:`spectral`, with
eigenvalues in descending order: validation takes it and hands it on,
and no other form leaves this module.  Entropies are in nats throughout.
"""
from __future__ import annotations

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

# Cleanup is skipped for a sum or trace within this of one, and for a least
# eigenvalue down to -SUPPORT_FLOOR: both sit above the noise of the cleanup
# itself, which is what makes validation idempotent bit for bit.
_RENORM_SKIP = 1e-13


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class State:
    """A probability vector of shape (d,) or a density matrix of shape (d, d).

    The kind and the dimension are read from the array; its values are the
    validators' to check, its shape is checked here.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = self.array
        if not isinstance(arr, np.ndarray):
            raise ValidationError(f"a state is a (d,) or (d, d) array, got a {type(arr).__name__}")
        if arr.ndim not in (1, 2) or arr.shape[0] < 1 or arr.shape[-1] != arr.shape[0]:
            raise ValidationError(f"a state is a (d,) or (d, d) array, got shape {arr.shape}")

    def __array__(self, dtype=None, copy=None):
        """The array, so that numpy functions take a state as they take a raw array."""
        return np.array(self.array, dtype=dtype, copy=copy)

    @property
    def kind(self) -> str:
        return "classical" if self.array.ndim == 1 else "quantum"

    @property
    def dim(self) -> int:
        return self.array.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class TangentPerturbation:
    """Direction on state space: zero-sum vector or traceless Hermitian matrix, by its shape."""

    delta: np.ndarray


def _described(x) -> str:
    """A state's kind and dimension, or another object's type, for error messages."""
    return f"a {x.kind} state of dim {x.dim}" if isinstance(x, State) else f"a {type(x).__name__}"


def _pair_kind(a, b) -> str:
    """The kind of two states, which must share their kind and dimension."""
    if not (isinstance(a, State) and isinstance(b, State)) or a.kind != b.kind:
        raise DimensionMismatch(f"cannot pair {_described(a)} with {_described(b)}")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return a.kind


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


def _finite_test(rows: np.ndarray, noun: str) -> None:
    """Refuse a row of a (K, d) or (K, d, d) stack that has a non-finite entry; ``noun`` names a row."""
    _refuse(np.isfinite(rows).all(axis=tuple(range(1, rows.ndim))), ValidationError,
            lambda i: f"{noun}: non-finite entries")


def _validate_rows(raw):
    """Validate every row of a (K, d) weight or (K, d, d) matrix stack, the kind read from the rank.

    Each row gets the checks and the repair it would get alone, bit for bit.
    Returns ``(rows, dec)``: a new read-only array, and None for weights or
    else the :func:`spectral` decomposition of every returned matrix: the one
    the state test took, or for a repaired matrix one taken after its repair,
    which is rebuilt from the eigenpairs in ``eigh``'s ascending order.
    """
    arr = np.asarray(raw)
    rows = _real_copy(arr, "distribution") if arr.ndim == 2 else np.array(arr, np.complex128)
    if rows.ndim not in (2, 3) or rows.shape[1] < 1 or rows.shape[-1] != rows.shape[1]:
        raise ValidationError(f"states must be a (K, d) or (K, d, d) stack, got shape {rows.shape}")
    _finite_test(rows, "state")
    if rows.ndim == 2:
        least, total = rows.min(axis=1), rows.sum(axis=1)
    else:
        adjoint, deviation = _hermitian_test(rows)
        sym = deviation > 0.0
        if sym.any():
            rows[sym] = 0.5 * (rows[sym] + adjoint[sym])
        dec = spectral(rows)
        least, total = dec.eigenvalues[:, -1], rows.trace(axis1=1, axis2=2).real
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
    repair = (least < -SUPPORT_FLOOR) | (np.abs(total - 1.0) > _RENORM_SKIP)
    if not repair.any():
        return _freeze(rows), dec
    kept = np.clip(dec.eigenvalues[repair, ::-1], 0.0, None)
    kept = kept / kept.sum(axis=1, keepdims=True)
    basis = dec.eigenvectors[repair, :, ::-1].copy()
    fixed = (basis * kept[:, None, :]) @ basis.conj().swapaxes(1, 2)
    rows[repair] = 0.5 * (fixed + fixed.conj().swapaxes(1, 2))
    lam, vec = dec.eigenvalues.copy(), dec.eigenvectors.copy()
    redone = spectral(rows[repair])
    lam[repair], vec[repair] = redone.eigenvalues, redone.eigenvectors
    return _freeze(rows), SpectralDecomposition(_freeze(lam), _freeze(vec))


def validate_distribution(raw) -> State:
    """Check, clip, and renormalize a raw weight vector.

    Entries in [-1e-12, 0) are clipped to zero; more negative entries raise
    :class:`NotPositive`.  The sum must be within 1e-9 of one, and is
    renormalized only when it deviates by more than roundoff, so validated
    output passes through unchanged.
    """
    weights = np.asarray(raw)
    if weights.ndim != 1:
        raise ValidationError(f"distribution must be a vector, got shape {weights.shape}")
    return State(_validate_rows(weights[None])[0][0])


def validate_density(raw) -> State:
    """Check, symmetrize, eigenvalue-clip, and trace-normalize a raw matrix.

    Hermiticity and positivity violations beyond 1e-12 and trace deviations
    beyond 1e-9 are errors; smaller ones are repaired.  As with
    distributions, already-clean matrices are returned unchanged.
    """
    mat = np.asarray(raw, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
    return State(_validate_rows(mat[None])[0][0])


def tangent_classical(raw) -> TangentPerturbation:
    """Zero-sum real direction on the simplex."""
    delta = _real_copy(raw, "tangent vector")
    if delta.ndim != 1 or delta.size < 1:
        raise ValidationError(f"tangent vector must be 1-d, got shape {delta.shape}")
    _finite_test(delta[None], "tangent")
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
    _finite_test(delta[None], "tangent")
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
    lam, vec = np.linalg.eigh(np.asarray(rho))
    return SpectralDecomposition(
        _freeze(lam[..., ::-1].copy()), _freeze(vec[..., ::-1].copy())
    )


def _sqrt_rows(rows: np.ndarray, dec=None) -> np.ndarray:
    """Amplitudes of a stack of states: sqrt(p) of (K, d) weights, sqrt(rho) of (K, d, d) matrices.

    A weight is exact, and its root is taken as it is.  An eigenvalue at or
    below ``SUPPORT_FLOOR`` counts as an exact zero, as in the entropies and
    the relative entropy, so its roundoff does not turn into an amplitude.
    ``dec`` is the :func:`spectral` decomposition of a matrix stack when the
    caller has it, as validation hands it on; its descending order fixes the
    summation order of the reconstruction.
    """
    if rows.ndim == 2:
        return np.sqrt(rows)
    dec = spectral(rows) if dec is None else dec
    lam, vec = dec.eigenvalues, dec.eigenvectors
    root = np.sqrt(np.where(lam > SUPPORT_FLOOR, lam, 0.0))
    out = (vec * root[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def _entropy_of_weights(weights: np.ndarray, multiplicity=None, floor: float = 0.0) -> float:
    """-sum w ln w over the weights above ``floor``.

    Exact weights, such as a probability vector or the type weights of a
    reservoir step, keep every positive one: however small, each is real
    mass.  Computed eigenvalues pass ``SUPPORT_FLOOR``, at or below which
    their roundoff counts as an exact zero.  ``multiplicity`` gives how
    often each weight occurs in the spectrum, once each when omitted.
    """
    keep = weights > floor
    kept = weights[keep]
    terms = kept * np.log(kept)
    if multiplicity is not None:
        terms = multiplicity[keep] * terms
    return max(0.0, float(-terms.sum()))


def entropy(state) -> float:
    """Entropy in nats: Shannon's of a probability vector, von Neumann's of a density or raw matrix."""
    arr = np.asarray(state)
    if arr.ndim == 1:
        return _entropy_of_weights(arr)
    return _entropy_of_weights(spectral(arr).eigenvalues, floor=SUPPORT_FLOOR)


def random_state(dim: int, rank: int, seed: int) -> State:
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


def random_distribution(dim: int, seed: int) -> State:
    """Seeded random full-support distribution |g|^2 / sum |g|^2."""
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w = np.abs(g) ** 2
    return validate_distribution(w / w.sum())


def add_ridge(state: State, delta: float) -> State:
    """Mix a state with the maximally mixed one: (state + delta*I/d)/(1 + delta)."""
    if delta < 0.0:
        raise ValidationError(f"ridge must be nonnegative, got {delta}")
    if delta == 0.0:
        return state
    if not isinstance(state, State):
        raise ValidationError(f"cannot ridge object of type {type(state).__name__}")
    identity = np.eye(state.dim) if state.kind == "quantum" else 1.0
    ridged = (state.array + (delta / state.dim) * identity) / (1.0 + delta)
    return State(_validate_rows(ridged[None])[0][0])
