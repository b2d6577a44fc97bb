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
from dataclasses import dataclass, field
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
    VALIDATION_TOL,
    SpectralDecomposition,
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
MAX_SCHEDULE_ENTRIES = 2 ** 24  # cap on the entries of a schedule's rows stack
SPREAD_TOL = 1e-8              # even-schedule target for (max - min)/mean of the steps
STEP_NOISE = 256 * np.finfo(float).eps  # least spread the sampled states resolve, times mean step^2
MAX_PASSES = 64                # cap on the equidistribution passes of an even schedule
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

def _fisher_sum(p: State, dp: TangentPerturbation, eps: float) -> float:
    """sum (eps dp_a)^2 / p_a over the exact support p_a > 0, outside which dp must vanish.

    Scaling dp by eps first keeps a subnormal p_a from overflowing a
    quotient whose product with eps^2 is finite.
    """
    dead = p.array == 0.0
    if np.any(dead) and float(np.max(np.abs(dp.delta[dead]))) > VALIDATION_TOL:
        raise SupportViolation("tangent is nonzero where the distribution vanishes")
    return float(np.sum((eps * dp.delta[~dead]) ** 2 / p.array[~dead]))


def _full_rank_step(rho: State, drho: TangentPerturbation, eps: float):
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


def kubo_mori_element(state, tangent: TangentPerturbation, eps: float) -> float:
    """Metric element from the second-order expansion of relative entropy.

    In the eigenbasis of rho the coefficient of |<i|drho|j>|^2 is
    (ln lam_i - ln lam_j)/(lam_i - lam_j), read as 1/lam on the diagonal.
    Where 1/2 <= lam_i/lam_j <= 2, lam_i - lam_j is exact and the log
    ratio is log1p((lam_i - lam_j)/lam_j); further apart, where log1p
    would lose digits near -1, the logarithms are subtracted.  On a
    probability vector only the diagonal remains, so this is the Fisher
    sum of :func:`metric_element`, bit for bit.
    """
    if _tangent_kind(state, tangent) == "classical":
        return _fisher_sum(state, tangent, eps)
    lam, step = _full_rank_step(state, tangent, eps)
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    near = np.abs(diff) <= 1e-8 * (li + lj)
    close = (li <= 2.0 * lj) & (lj <= 2.0 * li)
    log_ratio = np.where(close, np.log1p(diff / lj), np.log(li) - np.log(lj))
    coeff = np.where(near, 2.0 / (li + lj), log_ratio / np.where(near, 1.0, diff))
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


# ---------- discrete lengths and schedules ----------

def _sampled_step_lengths(path: StatePath, ts: np.ndarray):
    """The path's validated states at ``ts``, the step lengths between consecutive ones, their spectra.

    The states are sampled, validated and compared in stacked blocks that
    overlap by one parameter, which bounds the memory whatever len(ts) is.
    Written block by block into writable stacks, the rows and their spectra
    (None on classical paths) are bit for bit ``path.sample(ts)``.
    """
    start = path.start.array
    block = max(1, SAMPLE_BLOCK_BYTES // start.nbytes)
    shape, quantum = (ts.size,) + start.shape, start.ndim == 2
    rows, chords = np.empty(shape, complex if quantum else float), []
    spectra = SpectralDecomposition(np.empty(shape[:2]), np.empty(shape, complex)) if quantum else None
    for i in range(0, max(ts.size - 1, 1), block):
        sampled, dec = path.sample(ts[i:i + block + 1])
        roots = _sqrt_rows(sampled, dec)
        chords.append(_uhlmann(roots[:-1], roots[1:])[1])
        rows[i:i + len(sampled)] = sampled
        if quantum:
            spectra.eigenvalues[i:i + len(sampled)] = dec.eigenvalues
            spectra.eigenvectors[i:i + len(sampled)] = dec.eigenvectors
    return rows, _angles(np.concatenate(chords)), spectra


@dataclass(frozen=True, eq=False)
class TransportSchedule:
    """N steps: the N + 1 validated states as one (N + 1, d[, d]) stack, their ts, the step lengths.

    A schedule from :func:`even_schedule` also carries ``(rows, spectra)``
    as its kept pass validated them, which :func:`run_transport` reuses; one
    made by hand carries None, and its rows are validated there.
    """

    rows: np.ndarray
    ts: np.ndarray
    step_lengths: np.ndarray
    _validated: tuple = field(default=None, init=False, repr=False)

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


def _check_steps(n_steps: int, state: State) -> None:
    """Refuse N < 1, N > MAX_STEPS, and N + 1 rows like ``state`` above MAX_SCHEDULE_ENTRIES entries."""
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    _refuse_above(MAX_STEPS, "N", n_steps, "N")
    size = state.array.size
    _refuse_above(MAX_SCHEDULE_ENTRIES // size - 1, f"N (of states of {size} entries)", n_steps, "N")


def _stacked(grid) -> list:
    """The slice of each N's N + 1 rows in one stack of the grid's rows, in order."""
    ends = np.cumsum([n + 1 for n in grid])
    return [slice(int(end) - n - 1, int(end)) for n, end in zip(grid, ends)]


def _schedule_groups(grid, state: State) -> list:
    """The grid cut into runs of consecutive N whose N + 1 rows like ``state`` together fit
    MAX_SCHEDULE_ENTRIES entries: the largest grids one :func:`even_schedule` call takes."""
    groups, size, held = [], state.array.size, MAX_SCHEDULE_ENTRIES
    for n in grid:
        if held + (n + 1) * size > MAX_SCHEDULE_ENTRIES:
            groups.append([])
            held = 0
        groups[-1].append(n)
        held += (n + 1) * size
    return groups


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

    An int N gives one schedule; a sequence of N gives one per entry, in
    order, each bit for bit the schedule of its N alone.  The N of a
    sequence run their passes in lockstep: every N still moving is sampled,
    validated and measured in one stack per round.  An N below 1 or above
    MAX_STEPS, N + 1 rows of more than MAX_SCHEDULE_ENTRIES entries, or a
    sequence whose rows together hold more, raises before any sampling.
    One DEBUG record per schedule, in order, gives N, the passes, the stop
    reason and the spread.  The rows are the states the kept pass sampled
    and validated, and the schedule carries their spectra.
    """
    single = np.ndim(n_steps) == 0
    grid = [n_steps] if single else list(n_steps)
    if not grid:
        raise ValueError("need at least one N")
    for n in grid:
        _check_steps(n, path.start)
    size = path.start.array.size
    _refuse_above(MAX_SCHEDULE_ENTRIES // size, f"N + 1 summed over the grid (states of {size} entries)",
                  sum(n + 1 for n in grid), "sum")
    places, ts = _stacked(grid), [np.linspace(0.0, 1.0, n + 1) for n in grid]
    best = [(np.inf, None, None)] * len(grid)   # the spread, ts and steps of each N's kept pass
    stops, moving, kept = [None] * len(grid), range(len(grid)), None
    for round_ in range(1, MAX_PASSES + 1):
        rows, steps, spectra = _sampled_step_lengths(path, np.concatenate([ts[i] for i in moving]))
        stacks = (rows,) if spectra is None else (rows, spectra.eigenvalues, spectra.eigenvectors)
        if kept is None:
            kept = stacks   # round one stacks every N at its place; a later kept pass is copied there
        still = []
        for i, here in zip(moving, _stacked([grid[i] for i in moving])):
            n, own = grid[i], steps[here.start:here.stop - 1]
            total = float(own.sum())
            spread = 0.0 if total < DEGENERATE_LENGTH else float(np.ptp(own)) * n / total
            if total < DEGENERATE_LENGTH:
                reason = "degenerate"
            elif spread >= best[i][0]:
                reason = "stall"
            elif spread <= max(SPREAD_TOL, STEP_NOISE * (n / total) ** 2):
                reason = "tolerance"
            else:
                reason = None
            if reason != "stall":
                best[i] = (spread, ts[i], own.copy())
                if round_ > 1:
                    for k in range(len(kept)):
                        kept[k][places[i]] = stacks[k][here]
            if reason is None and round_ < MAX_PASSES:
                ts[i] = np.interp(total * np.arange(n + 1) / n, np.cumsum(np.r_[0.0, own]), ts[i])
                ts[i][0], ts[i][-1] = 0.0, 1.0
                still.append(i)
            else:
                stops[i] = (round_, reason or "pass cap")
        del rows, steps, spectra, stacks   # freed before the next round's stacks are filled
        moving = still
        if not moving:
            break
    for stack in kept:
        _freeze(stack)
    schedules = []
    for n, own, (spread, kept_ts, steps), (passes, reason) in zip(grid, places, best, stops):
        _log.debug("even_schedule N=%d: %d passes, stop: %s, spread %.3e", n, passes, reason, spread)
        schedule = TransportSchedule(kept[0][own], _freeze(kept_ts), _freeze(steps))
        dec = SpectralDecomposition(kept[1][own], kept[2][own]) if len(kept) == 3 else None
        object.__setattr__(schedule, "_validated", (schedule.rows, dec))
        schedules.append(schedule)
    return schedules[0] if single else schedules
