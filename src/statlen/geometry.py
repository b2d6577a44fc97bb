"""Fidelities, local metric elements, geodesic lengths, and discrete paths.

Conventions
-----------
The squared line element is ``sum_a dp_a^2 / p_a`` on the probability
simplex and its superoperator generalization
``tr(drho [2/(rho_L + rho_R)] drho)`` on density matrices.  With this
normalization the geodesic length between two states is the Bures angle
``2 arccos F``, for distributions and density matrices alike, and a small
step of fidelity F has squared length ``8 (1 - F)`` to leading order.
Every discrete step of a sampled path is measured by that angle: it obeys
the triangle inequality, so discrete lengths only grow under refinement,
and it is exact at every N on :func:`geodesic_path`.  It is taken as
``4 arcsin(c/2)`` of the chord ``c = sqrt(2 (1 - F))``, exact near F = 1.

On probability vectors, the commuting case, the amplitude is sqrt(p) and
Uhlmann's fidelity is Bhattacharyya's, so one amplitude and one chord
kernel serve both kinds.  Kernels, tangents and schedules read the kind
from the shape of their arrays.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    DimensionMismatch,
    RankDeficient,
    SupportViolation,
    ValidationError,
    _refuse_above,
)
from .states import (
    SUPPORT_FLOOR,
    VALIDATION_TOL,
    DensityMatrix,
    ProbabilityDistribution,
    TangentPerturbation,
    mat_sqrt,
    spectral,
    validate_density,
    _freeze,
    _pair_kind,
    _sqrt_rows,
    _state_array,
    _validate_rows,
)

RANK_TOL = 1e-10          # a smallest eigenvalue at or below this is rank-deficient
DEGENERATE_LENGTH = 1e-12
SAMPLE_BLOCK_BYTES = 1 << 18   # size of one state stack in a dense path evaluation
MAX_STEPS = 65536              # cap on the steps of an even schedule
MAX_SCHEDULE_ENTRIES = 2 ** 24  # cap on the entries of a schedule's rows stack
SPREAD_TOL = 1e-8              # even-schedule target for (max - min)/mean of the steps
STEP_NOISE = 256 * np.finfo(float).eps  # least spread the sampled states resolve, times mean step^2
MAX_PASSES = 64                # cap on the equidistribution passes of an even schedule
_log = logging.getLogger(__name__)


def _tangent_kind(state, tangent: TangentPerturbation) -> str:
    """The kind of a state, whose array shape the tangent must have."""
    shape, known = tangent.delta.shape, isinstance(state, (ProbabilityDistribution, DensityMatrix))
    if not known or shape != _state_array(state).shape:
        raise DimensionMismatch(f"cannot pair a tangent of shape {shape} with {type(state).__name__}")
    return state.kind


# ---------- fidelities ----------

def _uhlmann(a: np.ndarray, b: np.ndarray):
    """Row-wise ``(F, U, chord)`` of two stacks of amplitudes.

    Of (K, d, d) factors, a a* = rho and b b* = sigma, by the SVD a* b = W S V*:
    F = tr S clamped to 1 (Uhlmann 1976), the polar factor U = W V*, and
    ||a U - b||_F = sqrt(2 (1 - F)) with no 1 - F.  Of (K, d) amplitudes
    sqrt(p), the commuting case: F = sum a b, U = None and the chord ||a - b||.
    """
    if a.ndim == 2:
        return np.minimum(1.0, np.sum(a * b, axis=-1)), None, np.sqrt(np.sum((a - b) ** 2, axis=-1))
    w, singular, vh = np.linalg.svd(a.conj().swapaxes(-1, -2) @ b)
    polar = w @ vh
    chords = np.sqrt(np.sum(np.abs(a @ polar - b) ** 2, axis=(-2, -1)))
    return np.minimum(1.0, np.sum(singular, axis=-1)), polar, chords


def _angles(chords: np.ndarray) -> np.ndarray:
    """Bures angle 4 arcsin(c/2) = 2 arccos F of each chord c."""
    return 4.0 * np.arcsin(0.5 * chords)


def state_fidelity(a, b) -> float:
    """Fidelity of two states of one kind and dimension, clamped to [0, 1].

    Bhattacharyya's sum_a sqrt(p_a q_a) on probability vectors; Uhlmann's
    tr sqrt(sqrt(sigma) rho sqrt(sigma)), the same sum when the two
    commute, on density matrices.  The latter is the trace norm of
    sqrt(rho) sqrt(sigma): squaring the conditioning of near-zero modes
    would break its symmetry at the 1e-9 level for rank-deficient states.
    """
    if _pair_kind(a, b) == "classical":
        return float(np.clip(np.sum(np.sqrt(a.weights * b.weights)), 0.0, 1.0))
    roots = _sqrt_rows(np.stack((a.matrix, b.matrix)))
    return float(_uhlmann(roots[:1], roots[1:])[0][0])


# ---------- local metric elements ----------

def _fisher_sum(p: ProbabilityDistribution, dp: TangentPerturbation, eps: float) -> float:
    """eps^2 sum dp_a^2 / p_a over the support of p, outside which dp must vanish."""
    dead = p.weights <= SUPPORT_FLOOR
    if np.any(dead) and float(np.max(np.abs(dp.delta[dead]))) > VALIDATION_TOL:
        raise SupportViolation("tangent is nonzero where the distribution vanishes")
    return float(eps * eps * np.sum(dp.delta[~dead] ** 2 / p.weights[~dead]))


def _full_rank_step(rho: DensityMatrix, drho: TangentPerturbation, eps: float):
    """The eigenvalues of rho and eps*drho in its eigenbasis; rank-deficient rho raises."""
    dec = spectral(rho)
    smallest = float(dec.eigenvalues[-1])
    if smallest <= RANK_TOL:
        raise RankDeficient(
            f"smallest eigenvalue {smallest:.3e} is at or below {RANK_TOL}; "
            "regularize explicitly with add_ridge(rho, delta)"
        )
    return dec.eigenvalues, dec.eigenvectors.conj().T @ (eps * drho.delta) @ dec.eigenvectors


def metric_element(state, tangent: TangentPerturbation, eps: float) -> float:
    """Squared Fisher-Bures length of the step eps*tangent at a state.

    On a probability vector p it is Fisher's eps^2 sum dp_a^2 / p_a, and
    the tangent must vanish outside the support of p.  On a density matrix
    rho it is the Bures form, worked in the eigenbasis of rho, where the
    superoperator 2/(rho_L + rho_R) acts entrywise as 2/(lam_i + lam_j):
    2 sum_ij |<i|eps drho|j>|^2 / (lam_i + lam_j) >= 0.  Rank-deficient
    density matrices raise instead of being regularized silently;
    ``add_ridge`` mixes in delta*I/d explicitly.
    """
    if _tangent_kind(state, tangent) == "classical":
        return _fisher_sum(state, tangent, eps)
    lam, step = _full_rank_step(state, tangent, eps)
    return float(2.0 * np.sum(np.abs(step) ** 2 / (lam[:, None] + lam[None, :])))


def hellinger_element(rho: DensityMatrix, drho: TangentPerturbation, eps: float) -> float:
    """Square-root-differencing form of the metric element, as a diagnostic.

    Computes X = sqrt(rho + eps drho) - sqrt(rho) with matrix square roots
    and returns 4 tr(X^2).  The prefactor is fixed by the commuting case,
    where the element must reduce to the Fisher element of the eigenvalues
    (2 tr(X^2) would come out a factor two short).  For non-commuting steps
    this exceeds :func:`metric_element` by up to a factor two; the ratio is
    something to report, not an identity to assert.  Density matrices only.
    """
    if _tangent_kind(rho, drho) != "quantum":
        raise DimensionMismatch("the Hellinger element takes a density matrix")
    _full_rank_step(rho, drho, eps)
    perturbed = validate_density(rho.matrix + eps * drho.delta)
    diff = mat_sqrt(perturbed) - mat_sqrt(rho)
    return float(4.0 * np.real(np.trace(diff @ diff)))


def kubo_mori_element(state, tangent: TangentPerturbation, eps: float) -> float:
    """Metric element from the second-order expansion of relative entropy.

    In the eigenbasis of rho the coefficient of |<i|drho|j>|^2 is
    (ln lam_i - ln lam_j)/(lam_i - lam_j), read as 1/lam on the diagonal.
    On a probability vector only the diagonal remains, so this is the
    Fisher sum of :func:`metric_element`, bit for bit.
    """
    if _tangent_kind(state, tangent) == "classical":
        return _fisher_sum(state, tangent, eps)
    lam, step = _full_rank_step(state, tangent, eps)
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    near = np.abs(diff) <= 1e-8 * (li + lj)
    safe = np.where(near, 1.0, diff)
    coeff = np.where(near, 2.0 / (li + lj), (np.log(li) - np.log(lj)) / safe)
    return float(np.sum(np.abs(step) ** 2 * coeff))


# ---------- geodesic lengths from fidelity ----------

def geodesic_length_fisher(fidelity: float) -> float:
    """Geodesic length 2 arccos F on the simplex, in [0, pi]."""
    return float(2.0 * np.arccos(np.clip(fidelity, 0.0, 1.0)))


def geodesic_length_bures(fidelity: float) -> float:
    """Chordal Bures distance 2 sqrt(1 - F^2), in [0, 2].

    This is the straight-line distance 2 sin(theta) between the unit
    amplitudes of the two states, theta = arccos F, not a path length:
    the geodesic of :func:`geodesic_path` has length 2 arccos F for
    density matrices as for probability vectors.
    """
    f = float(np.clip(fidelity, 0.0, 1.0))
    return float(2.0 * np.sqrt(max(0.0, 1.0 - f * f)))


# ---------- paths ----------

@dataclass(frozen=True, eq=False)
class StatePath:
    """Parametrized curve t in [0, 1] -> state between pinned endpoints.

    ``start`` and ``end`` share a kind and dimension, and ``kind`` is theirs.
    ``sampler`` maps K parameters strictly inside (0, 1) to the raw states
    there as one array of shape ``(K,) + start.shape``, which the path
    checks and validates; t = 0 and t = 1 give the endpoints' own bits.
    """

    start: object
    end: object
    sampler: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _pair_kind(self.start, self.end)

    @property
    def kind(self) -> str:
        return self.start.kind

    def sample(self, ts) -> np.ndarray:
        """Read-only (K, d) or (K, d, d) stack of the validated states at the K ``ts``."""
        return self._rows(ts)[0]

    def _rows(self, ts):
        """Validated rows at ``ts``, with the endpoints' rows copied in, not sampled.

        Returns ``(rows, spectra)`` as ``states._validate_rows`` gives them:
        ``spectra`` is None on classical paths and otherwise the
        ``np.linalg.eigh`` ``(eigenvalues, eigenvectors)`` of every row.
        Validation leaves the bits of a validated endpoint as they are.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"path parameters must be a vector, got shape {ts.shape}")
        outside = ~((ts >= 0.0) & (ts <= 1.0))
        if outside.any():
            raise ValueError(f"path parameter must lie in [0, 1], got {ts[outside][0]}")
        start = _state_array(self.start)
        inner = (ts > 0.0) & (ts < 1.0)
        shape = (int(inner.sum()),) + start.shape
        sampled = np.asarray(self.sampler(ts[inner])) if inner.any() else np.empty(shape, start.dtype)
        if sampled.shape != shape:
            raise ValidationError(f"sampler returned shape {sampled.shape}, expected {shape}")
        raw = np.empty((ts.size,) + start.shape, dtype=np.result_type(start, sampled))
        raw[inner] = sampled
        raw[ts == 0.0] = start
        raw[ts == 1.0] = _state_array(self.end)
        return _validate_rows(raw)


def geodesic_path(a, b) -> StatePath:
    """The Fisher/Bures geodesic between two states of the same kind, in closed form.

    Each endpoint is lifted to an amplitude of unit norm, and the path is
    the great circle between the two amplitudes: with theta = arccos F(a, b),

        A(t) = (sin((1-t) theta) A + sin(t theta) B) / sin(theta),

    and the state at t is A(t)^2 entrywise for probability vectors and
    A(t) A(t)* for density matrices.  Along it F(state(s), state(t)) =
    cos(|t - s| theta), so the speed is constant and the length is
    2 arccos F.

    Probability vectors use A = sqrt(p) and B = sqrt(q).  Density matrices
    use A = sqrt(rho) and B = sqrt(sigma) U*, with the polar factor U = W V*
    of :func:`_uhlmann` from the SVD sqrt(rho) sqrt(sigma) = W S V*: then
    A* B = W S W* >= 0 and F = tr S (Uhlmann 1976; Hubner, Phys. Lett. A
    163, 239 (1992)).  theta is half the angle of the chord ||A - B||.  On
    full-rank diagonal matrices U = I, and this is the probability-vector
    path of the diagonals.  For rank-deficient endpoints the SVD completes W and V
    arbitrarily on the zero singular values; any completion is valid,
    because A* B = W S W* >= 0 whatever columns the SVD adds.  Coinciding
    endpoints (sin theta == 0) give the constant path.
    """
    _pair_kind(a, b)
    start = _state_array(a)
    roots = _sqrt_rows(np.stack((start, _state_array(b))))
    _, polar, chord = _uhlmann(roots[:1], roots[1:])
    root_a, root_b = roots[0], roots[1] if polar is None else roots[1] @ polar[0].conj().T
    theta = float(_angles(chord[0])) / 2.0
    sin_theta = float(np.sin(theta))
    if sin_theta == 0.0:
        return StatePath(a, b, lambda ts: np.broadcast_to(start, ts.shape + start.shape))
    column = (-1,) + (1,) * start.ndim

    def _points(ts: np.ndarray) -> np.ndarray:
        amp = (
            np.sin((1.0 - ts) * theta).reshape(column) * root_a
            + np.sin(ts * theta).reshape(column) * root_b
        ) / sin_theta
        return amp * amp if amp.ndim == 2 else amp @ amp.conj().swapaxes(-1, -2)

    return StatePath(a, b, _points)


def linear_mixture_path(a, b) -> StatePath:
    """Straight-line mixture (1 - t) a + t b; a non-geodesic reference path."""
    def _points(ts: np.ndarray) -> np.ndarray:
        start, end = _state_array(a), _state_array(b)
        t = ts.reshape((-1,) + (1,) * start.ndim)
        return (1.0 - t) * start + t * end

    return StatePath(a, b, _points)


# ---------- discrete lengths and schedules ----------

def _sampled_step_lengths(path: StatePath, ts: np.ndarray) -> np.ndarray:
    """Step lengths between the path's states at consecutive ``ts``.

    The states are sampled, validated and compared in stacked blocks that
    overlap by one parameter, which bounds the memory whatever len(ts) is.
    """
    block = max(1, SAMPLE_BLOCK_BYTES // _state_array(path.start).nbytes)
    chords = []
    for i in range(0, max(ts.size - 1, 1), block):
        rows, spectra = path._rows(ts[i:i + block + 1])
        roots = _sqrt_rows(rows, spectra)
        chords.append(_uhlmann(roots[:-1], roots[1:])[2])
    return _angles(np.concatenate(chords))


@dataclass(frozen=True, eq=False)
class PathLengthReport:
    """Per-step discrete lengths of a sampled path; their total and count are read from them."""

    step_lengths: np.ndarray

    @property
    def total_length(self) -> float:
        return float(self.step_lengths.sum())

    @property
    def n_steps(self) -> int:
        return len(self.step_lengths)


@dataclass(frozen=True, eq=False)
class TransportSchedule:
    """N steps: the N + 1 validated states as one (N + 1, d[, d]) stack, their ts, the step lengths."""

    rows: np.ndarray
    ts: np.ndarray
    step_lengths: np.ndarray

    def __post_init__(self):
        if self.rows.ndim not in (2, 3):
            raise DimensionMismatch(f"schedule rows cannot have shape {self.rows.shape}")
        if len(self.rows) < 2:
            raise ValueError(f"need at least one step, got {len(self.rows)} rows")
        n, sizes = self.n_steps, (len(self.ts), len(self.step_lengths))
        if sizes != (n + 1, n):
            raise ValueError(f"{n} steps need {n + 1} ts and {n} step lengths, got {sizes}")

    @property
    def kind(self) -> str:
        return "classical" if self.rows.ndim == 2 else "quantum"

    @property
    def n_steps(self) -> int:
        return len(self.rows) - 1


def _check_steps(n_steps: int, state=None) -> None:
    """Refuse N < 1, N > MAX_STEPS, and N + 1 rows like ``state`` above MAX_SCHEDULE_ENTRIES entries."""
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    _refuse_above(MAX_STEPS, "N", n_steps, "N")
    if state is not None:
        size = _state_array(state).size
        _refuse_above(MAX_SCHEDULE_ENTRIES // size - 1, f"N (of states of {size} entries)", n_steps, "N")


def discrete_path_length(path: StatePath, n_steps: int) -> PathLengthReport:
    """Sample the path at t = i/N and sum the Bures angles 2 arccos F of the steps.

    The sum never decreases under refinement and tends to the continuum
    length as N grows; on :func:`geodesic_path` it is 2 arccos F of the
    endpoints at every N.  N > MAX_STEPS raises DimensionCapExceeded.
    """
    _check_steps(n_steps)
    steps = _sampled_step_lengths(path, np.linspace(0.0, 1.0, n_steps + 1))
    return PathLengthReport(_freeze(steps))


def even_schedule(path: StatePath, n_steps: int) -> TransportSchedule:
    """Reparametrize a path by arc length into N equal steps.

    Equidistribution (de Boor, *A Practical Guide to Splines*, ch. XIV):
    from t = i/N, each pass measures the step angles 2 arccos F and moves
    the interior t to where linear interpolation of that pass's cumulative
    length puts the targets k L/N; the pass of least spread (max - min)/mean
    is kept.  The loop stops at a spread of SPREAD_TOL = 1e-8, or of
    STEP_NOISE / mean^2 where the sampled states resolve no less; when a
    pass does not lower the spread; or after MAX_PASSES passes.  Paths of
    constant speed or shorter than DEGENERATE_LENGTH keep t = i/N exactly.
    N > MAX_STEPS, or N + 1 rows of more than MAX_SCHEDULE_ENTRIES entries
    in all, raises DimensionCapExceeded before any sampling.  One
    DEBUG record gives the passes, the stop reason and the spread, and one
    ``path.sample`` of the kept t gives the rows.
    """
    _check_steps(n_steps, path.start)
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    best, reason = (np.inf,), "pass cap"
    for passes in range(1, MAX_PASSES + 1):
        steps = _sampled_step_lengths(path, ts)
        total = float(steps.sum())
        if total < DEGENERATE_LENGTH:
            best, reason = (0.0, ts, steps), "degenerate"
            break
        spread = float(np.ptp(steps)) * n_steps / total
        if spread >= best[0]:
            reason = "stall"
            break
        best = (spread, ts, steps)
        if spread <= max(SPREAD_TOL, STEP_NOISE * (n_steps / total) ** 2):
            reason = "tolerance"
            break
        ts = np.interp(total * np.arange(n_steps + 1) / n_steps, np.cumsum(np.r_[0.0, steps]), ts)
        ts[0], ts[-1] = 0.0, 1.0
    spread, ts, steps = best
    _log.debug("even_schedule N=%d: %d passes, stop: %s, spread %.3e", n_steps, passes, reason, spread)
    return TransportSchedule(path.sample(ts), _freeze(ts), _freeze(steps))
