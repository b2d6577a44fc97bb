"""Fidelities, local metric elements, geodesic lengths and bounds, discrete paths, and transport schedules.

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
    State,
    TangentPerturbation,
    spectral,
    _described,
    _freeze,
    _pair_kind,
    _sqrt_rows,
    _validate_rows,
)

RANK_TOL = 1e-10          # a smallest eigenvalue at or below this is rank-deficient
DEGENERATE_LENGTH = 1e-12
SAMPLE_BLOCK_BYTES = 1 << 18   # size of one state stack in a dense path evaluation
MAX_STEPS = 65536              # cap on the steps of an even schedule
MAX_SCHEDULE_ENTRIES = 2 ** 24  # cap on the state entries one schedule pass samples: N + 1 per distinct N
SPREAD_TOL = 1e-8              # even-schedule target for (max - min)/mean of the steps
STEP_NOISE = 256 * np.finfo(float).eps  # least spread the sampled states resolve, times mean step^2
MAX_PASSES = 64                # cap on the equidistribution passes of an even schedule
LEAK_TOL = 1e-12               # tolerated weight outside the support of the second state of a step
_log = logging.getLogger(__name__)


def _tangent_kind(state, tangent: TangentPerturbation) -> str:
    """The kind of a state, whose array shape the tangent must have."""
    shape = tangent.delta.shape
    if not isinstance(state, State) or shape != state.array.shape:
        raise DimensionMismatch(f"cannot pair a tangent of shape {shape} with {_described(state)}")
    return state.kind


# ---------- fidelities ----------

def _uhlmann(a: np.ndarray, b: np.ndarray):
    """Row-wise ``(U, chord, S)`` of two stacks of amplitudes.

    Of (K, d, w) factors, a a* = rho and b b* = sigma, by the SVD a* b = W S V*:
    the polar factor U = W V*, the chord ||a U - b||_F = sqrt(2 (1 - F)) with
    no 1 - F, and the singular values S in descending order, whose sum is
    Uhlmann's F (Uhlmann 1976); only :func:`state_fidelity` reads it.  Of
    (K, d) amplitudes sqrt(p), the commuting case, no SVD is taken: the
    chord is ||a - b||, and U and S are None.
    """
    if a.ndim == 2:
        return None, np.sqrt(((a - b) ** 2).sum(axis=-1)), None
    w, singular, vh = np.linalg.svd(a.conj().swapaxes(-1, -2) @ b)
    polar = w @ vh
    return polar, np.sqrt((np.abs(a @ polar - b) ** 2).sum(axis=(-2, -1))), singular


def _angles(chords: np.ndarray) -> np.ndarray:
    """Bures angle 4 arcsin(c/2) = 2 arccos F of each chord c."""
    return 4.0 * np.arcsin(0.5 * chords)


def state_fidelity(a, b) -> float:
    """Fidelity of two states of one kind and dimension, clamped to [0, 1].

    Bhattacharyya's sum_a sqrt(p_a q_a) on probability vectors; Uhlmann's
    tr sqrt(sqrt(sigma) rho sqrt(sigma)), the same sum when the two
    commute, on density matrices.  The latter is read as the trace norm
    tr S of sqrt(rho) sqrt(sigma) from the chord kernel's SVD: squaring the
    conditioning of near-zero modes would break its symmetry at the 1e-9
    level for rank-deficient states.
    """
    if _pair_kind(a, b) == "classical":
        return float(np.clip(np.sum(np.sqrt(a.array * b.array)), 0.0, 1.0))
    roots = _sqrt_rows(np.stack((a.array, b.array)))
    return min(1.0, float(_uhlmann(roots[:1], roots[1:])[2][0].sum()))


# ---------- local metric elements ----------

def _elements(state, tangent: TangentPerturbation, eps):
    """``(metric, kubo_mori, scale)``: the Fisher-Bures and Kubo-Mori elements of e*tangent at a state per e of ``eps``.

    The state's spectrum is read once.  A probability vector's weights p are
    exact: the tangent must vanish where p = 0, and both elements are Fisher's
    sum (e dp_a)^2 / p_a over p_a > 0, e applied first so that a subnormal p_a
    does not overflow a quotient whose product with e^2 is finite.  A density
    matrix is decomposed once, descending; a least eigenvalue at or below
    RANK_TOL raises RankDeficient.  Each e*drho is rotated into that eigenbasis
    whole, not e times one rotated drho, so every e gets the bits of a grid of
    that e alone; |<i|e drho|j>|^2 is weighted by 2/(lam_i + lam_j) for Bures
    and by the Kubo-Mori coefficient (ln lam_i - ln lam_j)/(lam_i - lam_j),
    1/lam on the diagonal.  Where 1/2 <= lam_i/lam_j <= 2, lam_i - lam_j is
    exact and the log ratio is log1p((lam_i - lam_j)/lam_j); further apart,
    where log1p would lose digits near -1, the logarithms are subtracted.
    ``scale`` is the R of the expansion probe's floor: sum |dp| for weights,
    lam_max sum_ij |<i|drho|j>| / min(lam_i, lam_j) for a density matrix.
    """
    eps, delta = np.asarray(eps, dtype=np.float64), tangent.delta
    if _tangent_kind(state, tangent) == "classical":
        p = state.array
        dead = p == 0.0
        if np.any(dead) and float(np.max(np.abs(delta[dead]))) > VALIDATION_TOL:
            raise SupportViolation("tangent is nonzero where the distribution vanishes")
        fisher = ((eps[:, None] * delta[~dead]) ** 2 / p[~dead]).sum(axis=1)
        return fisher, fisher, np.abs(delta).sum()
    dec = spectral(state)
    lam, vec = dec.eigenvalues, dec.eigenvectors
    if lam[-1] <= RANK_TOL:
        raise RankDeficient(f"smallest eigenvalue {float(lam[-1]):.3e} is at or below {RANK_TOL}; "
                            "regularize explicitly with add_ridge(rho, delta)")
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    near = np.abs(diff) <= 1e-8 * (li + lj)
    close = (li <= 2.0 * lj) & (lj <= 2.0 * li)
    log_ratio = np.where(close, np.log1p(diff / lj), np.log(li) - np.log(lj))
    coeff = np.where(near, 2.0 / (li + lj), log_ratio / np.where(near, 1.0, diff))
    squared = np.abs(vec.conj().T @ (eps[:, None, None] * delta) @ vec) ** 2
    scale = lam[0] * (np.abs(vec.conj().T @ delta @ vec) / np.minimum(li, lj)).sum()
    return 2.0 * (squared / (li + lj)).sum(axis=(1, 2)), (squared * coeff).sum(axis=(1, 2)), scale


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
    return float(_elements(state, tangent, [eps])[0][0])


def kubo_mori_element(state, tangent: TangentPerturbation, eps: float) -> float:
    """Metric element from the second-order expansion of relative entropy.

    In the eigenbasis of rho the coefficient of |<i|drho|j>|^2 is
    (ln lam_i - ln lam_j)/(lam_i - lam_j), read as 1/lam on the diagonal.
    On a probability vector only the diagonal remains, so this is the Fisher
    sum of :func:`metric_element`, bit for bit.
    """
    return float(_elements(state, tangent, [eps])[1][0])


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


# ---------- paths ----------

@dataclass(frozen=True, eq=False)
class StatePath:
    """Parametrized curve t in [0, 1] -> state between pinned endpoints.

    ``start`` and ``end`` share a kind and dimension, and ``kind`` is theirs.
    ``sampler`` maps K parameters strictly inside (0, 1) to the raw states
    there as one array of shape ``(K,) + start.shape``, which the path
    checks and validates; t = 0 and t = 1 give the endpoints' own bits.
    """

    start: State
    end: State
    sampler: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _pair_kind(self.start, self.end)

    @property
    def kind(self) -> str:
        return self.start.kind

    def sample(self, ts):
        """The validated states at the K ``ts`` as ``(rows, dec)``, from ``states._validate_rows``.

        ``rows`` is the read-only (K, d) or (K, d, d) stack, with the
        endpoints' rows copied in, not sampled; validation leaves their bits
        as they are.  ``dec`` is None on classical paths and otherwise the
        :func:`spectral` decomposition of every row, eigenvalues descending.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"path parameters must be a vector, got shape {ts.shape}")
        outside = ~((ts >= 0.0) & (ts <= 1.0))
        if outside.any():
            raise ValueError(f"path parameter must lie in [0, 1], got {ts[outside][0]}")
        start = self.start.array
        inner = (ts > 0.0) & (ts < 1.0)
        shape = (int(inner.sum()),) + start.shape
        sampled = np.asarray(self.sampler(ts[inner])) if inner.any() else np.empty(shape, start.dtype)
        if sampled.shape != shape:
            raise ValidationError(f"sampler returned shape {sampled.shape}, expected {shape}")
        raw = np.empty((ts.size,) + start.shape, dtype=np.result_type(start, sampled))
        raw[inner] = sampled
        raw[ts == 0.0] = start
        raw[ts == 1.0] = self.end.array
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
    start = a.array
    roots = _sqrt_rows(np.stack((start, b.array)))
    polar, chord, _ = _uhlmann(roots[:1], roots[1:])
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
        start, end = a.array, b.array
        t = ts.reshape((-1,) + (1,) * start.ndim)
        return (1.0 - t) * start + t * end

    return StatePath(a, b, _points)


# ---------- step yields ----------

def _step_entropies(rows: np.ndarray, dec) -> np.ndarray:
    """S(rows[i] || rows[i+1]) of a stack and its decomposition from ``states._validate_rows``.

    +inf past ``LEAK_TOL``.  Klein's form sum_ij P_ij a_i (r - 1 - ln r),
    r = b_j / a_i, over the spectra of a and b with overlaps
    P_ij = |<i|j>|^2: the weights themselves and P = I for classical rows
    (``dec`` None), the eigenpairs of ``dec`` for matrices.  Every term is
    nonnegative, so the ~ theta^2/(2 N^2) yield of a short step is not a
    difference of O(1) traces.  r - 1 is exact for 1/2 <= r <= 2, where
    log1p(r - 1) would return the same ln r; below, ln r keeps the low
    bits of r that r - 1 drops.  The form equals S + tr b - tr a, so each
    spectrum is divided by its sum rather than corrected afterwards, which
    would bring back an O(1) cancellation.  A zero weight gives no ratio:
    a_i = 0 gives b_j, and b_j = 0 gives nothing but puts P_ij a_i into
    the leak.  Computed eigenvalues at or below ``SUPPORT_FLOOR`` count as
    zeros; exact classical weights are zeros only when they are 0, and an
    a_i below the least normal double, where b_j / a_i could overflow,
    takes its a_i -> 0 limit b_j, off by less than 2e-305.  Each yield
    depends on its own two rows only, so a stack taken in blocks gives the
    yields of the whole stack, bit for bit.
    """
    if dec is None:
        lam = rows / rows.sum(axis=1, keepdims=True)
        a, b, overlap, floor = lam[:-1], lam[1:], 1.0, 0.0
    else:
        vec, lam = dec.eigenvectors, dec.eigenvalues / dec.eigenvalues.sum(axis=1, keepdims=True)
        overlap = np.abs(vec[:-1].conj().swapaxes(1, 2) @ vec[1:]) ** 2
        a, b, floor = lam[:-1, :, None], lam[1:, None, :], SUPPORT_FLOOR
    live_a, live_b = a > max(floor, np.finfo(float).tiny), b > floor
    r = np.where(live_a & live_b, b / np.where(live_a, a, 1.0), 1.0)
    terms = overlap * np.where(live_a, a * (r - 1.0 - np.log(r)), np.where(live_b, b, 0.0))
    axes = tuple(range(1, rows.ndim))
    leak = (overlap * np.where(live_b, 0.0, a)).sum(axis=axes)
    return np.where(leak > LEAK_TOL, np.inf, terms.sum(axis=axes))


# ---------- discrete lengths and schedules ----------

def _measure(rows: np.ndarray, dec):
    """The chord angles and ``_step_entropies`` of a validated stack and its decomposition, row pair by row pair."""
    roots = _sqrt_rows(rows, dec)
    return _angles(_uhlmann(roots[:-1], roots[1:])[1]), _step_entropies(rows, dec)


def _sampled_step_lengths(path: StatePath, ts: np.ndarray):
    """The step lengths and the step yields between the path's consecutive validated states at ``ts``.

    The states are sampled, validated and measured in stacked blocks that
    overlap by one parameter, and only the two arrays of len(ts) - 1 values
    are kept, which bounds the memory whatever len(ts) is.  They are
    :func:`_measure` of ``path.sample(ts)``, bit for bit.
    """
    block = max(1, SAMPLE_BLOCK_BYTES // path.start.array.nbytes)
    steps, yields = np.empty(ts.size - 1), np.empty(ts.size - 1)
    for i in range(0, ts.size - 1, block):
        steps[i:i + block], yields[i:i + block] = _measure(*path.sample(ts[i:i + block + 1]))
    return steps, yields


@dataclass(frozen=True, eq=False)
class TransportSchedule:
    """N steps from ``start`` to ``end``: their N + 1 parameters, step lengths and step yields.

    A schedule is its own transport report.  Step i has the Bures angle and the
    yield S(rho_i || rho_{i+1}), +inf past LEAK_TOL, of the validated states at
    ``ts[i]`` and ``ts[i + 1]``, from :func:`_measure`: :func:`even_schedule`
    keeps its kept pass's, and :meth:`from_rows` measures a stack made by hand.
    ``nu`` is steps per unit length, ``bound_path_length`` l^2/(2N) of the
    measured length, and ``bound_fidelity`` the :func:`geodesic_bound` of
    ``endpoint_fidelity``, which takes ``state_fidelity(start, end)`` per read.
    """

    start: State
    end: State
    ts: np.ndarray
    step_lengths: np.ndarray
    step_yields: np.ndarray

    def __post_init__(self):
        _pair_kind(self.start, self.end)
        n, sizes = len(self.step_yields), (len(self.ts), len(self.step_lengths))
        if n < 1:
            raise ValueError(f"need at least one step, got {n}")
        if sizes != (n + 1, n):
            raise ValueError(f"{n} steps need {n + 1} ts and {n} step lengths, got {sizes}")

    @classmethod
    def from_rows(cls, rows, ts) -> TransportSchedule:
        """The schedule of N + 1 states given as one (N + 1, d) or (N + 1, d, d) stack.

        The stack is validated, and decomposed, once: rows of any other rank
        raise DimensionMismatch, fewer than two rows ValueError, and a row
        that is not a state what validation raises for it
        (:class:`ValidationError` for a non-finite entry, then
        :class:`NotHermitian`, :class:`NotPositive` or :class:`NotNormalized`,
        naming the row).  The endpoints are the validated rows, and the step
        lengths and yields are measured from them as an even schedule's are.
        """
        rows = np.asarray(rows)
        if rows.ndim not in (2, 3):
            raise DimensionMismatch(f"schedule rows cannot have shape {rows.shape}")
        if len(rows) < 2:
            raise ValueError(f"need at least one step, got {len(rows)} rows")
        rows, dec = _validate_rows(rows)
        return cls(State(rows[0]), State(rows[-1]), ts, *map(_freeze, _measure(rows, dec)))

    @property
    def kind(self) -> str:
        return self.start.kind

    @property
    def n_steps(self) -> int:
        return len(self.step_yields)

    @property
    def total_entropy(self) -> float:
        return float(self.step_yields.sum())

    @property
    def total_length(self) -> float:
        return float(self.step_lengths.sum())

    @property
    def nu(self) -> float:
        total_length = self.total_length
        return np.inf if total_length == 0.0 else self.n_steps / total_length

    @property
    def bound_path_length(self) -> float:
        total_length = self.total_length
        return total_length * total_length / (2.0 * self.n_steps)

    @property
    def endpoint_fidelity(self) -> float:
        return state_fidelity(self.start, self.end)

    @property
    def bound_fidelity(self) -> float:
        return geodesic_bound(self.endpoint_fidelity, self.n_steps, self.kind)


def _check_steps(n_steps: int, state: State) -> None:
    """Refuse N < 1, N > MAX_STEPS, and N + 1 states like ``state`` above MAX_SCHEDULE_ENTRIES entries."""
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    _refuse_above(MAX_STEPS, "N", n_steps, "N")
    size = state.array.size
    _refuse_above(MAX_SCHEDULE_ENTRIES // size - 1, f"N (of states of {size} entries)", n_steps, "N")


def even_schedule(path: StatePath, n_steps) -> TransportSchedule | list[TransportSchedule]:
    """Reparametrize a path by arc length into N equal steps, or each N of a sequence.

    Equidistribution (de Boor, *A Practical Guide to Splines*, ch. XIV):
    from t = i/N, each pass measures the step angles 2 arccos F and moves
    the interior t to where linear interpolation of that pass's cumulative
    length puts the targets k L/N; the pass of least spread (max - min)/mean
    is kept.  The loop stops at a spread of SPREAD_TOL = 1e-8, or of
    STEP_NOISE / mean^2 where the sampled states resolve no less; when a
    pass does not lower the spread; or after MAX_PASSES passes.  Paths of
    constant speed or shorter than DEGENERATE_LENGTH keep t = i/N exactly.
    Each pass also takes the step yields of the states it measures, so the
    schedule carries the kept pass's ts, step lengths and yields, and no
    states: the memory is one block's work and O(N) values, whatever N is.

    An int N gives one schedule; a sequence of N gives one per entry, in
    order, each bit for bit the schedule of its N alone.  The distinct N of
    a sequence run their passes in lockstep: every N still moving is
    sampled, validated and measured once per round, in one stream of
    blocks.  An N below 1 or above MAX_STEPS, N + 1 states of more than
    MAX_SCHEDULE_ENTRIES entries, or distinct N whose states together hold
    more, raises before any sampling.  One DEBUG record per entry, in
    order, gives N, the passes, the stop reason and the spread.
    """
    single = np.ndim(n_steps) == 0
    grid = [n_steps] if single else list(n_steps)
    if not grid:
        raise ValueError("need at least one N")
    for n in grid:
        _check_steps(n, path.start)
    distinct, size = list(dict.fromkeys(grid)), path.start.array.size
    _refuse_above(MAX_SCHEDULE_ENTRIES // size, f"N + 1 summed over the grid's distinct N (states of {size} "
                  "entries)", sum(n + 1 for n in distinct), "sum")
    ts = {n: np.linspace(0.0, 1.0, n + 1) for n in distinct}
    best = dict.fromkeys(distinct, (np.inf,))   # the spread, ts, steps and yields of each N's kept pass
    stops, moving = {}, distinct
    for round_ in range(1, MAX_PASSES + 1):
        steps, yields = _sampled_step_lengths(path, np.concatenate([ts[n] for n in moving]))
        still, at = [], 0
        for n in moving:
            own = steps[at:at + n]
            total = float(own.sum())
            spread = 0.0 if total < DEGENERATE_LENGTH else float(own.max() - own.min()) * n / total
            if total < DEGENERATE_LENGTH:
                reason = "degenerate"
            elif spread >= best[n][0]:
                reason = "stall"
            elif spread <= max(SPREAD_TOL, STEP_NOISE * (n / total) ** 2):
                reason = "tolerance"
            else:
                reason = None
            if reason != "stall":
                best[n] = (spread, ts[n], own.copy(), yields[at:at + n].copy())
            if reason is None and round_ < MAX_PASSES:
                ts[n] = np.interp(total * np.arange(n + 1) / n, np.concatenate(([0.0], own)).cumsum(), ts[n])
                ts[n][0], ts[n][-1] = 0.0, 1.0
                still.append(n)
            else:
                stops[n] = (round_, reason or "pass cap")
            at += n + 1
        moving = still
        if not moving:
            break
    schedules = {n: TransportSchedule(path.start, path.end, *map(_freeze, best[n][1:])) for n in distinct}
    for n in grid:
        _log.debug("even_schedule N=%d: %d passes, stop: %s, spread %.3e", n, *stops[n], best[n][0])
    return schedules[n_steps] if single else [schedules[n] for n in grid]
