"""Invariants of the fidelity, the relative entropy and the geodesic over random states."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statlen import (
    InfiniteYield,
    State,
    TransportSchedule,
    add_ridge,
    even_schedule,
    geodesic_path,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    random_distribution,
    random_state,
    relative_entropy,
    run_transport,
    spectral,
    state_fidelity,
    step_entropy_production,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen.geometry import LEAK_TOL, _angles, _sampled_step_lengths, _uhlmann
from statlen.states import (
    SUPPORT_FLOOR,
    _sqrt_rows,
    _validate_rows,
)

EPS = np.finfo(float).eps


def _state(kind, dim, rank, seed):
    """A random state of the given kind; ``rank`` is the size of its support."""
    if kind == "quantum":
        return random_state(dim, rank, seed)
    weights = random_distribution(dim, seed).array.copy()
    weights[np.random.default_rng(seed).permutation(dim)[rank:]] = 0.0
    return validate_distribution(weights / weights.sum())


PAIRS = dict(
    kind=st.sampled_from(["classical", "quantum"]),
    dim=st.integers(2, 4),
    ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 10**6),
)


def _pair(kind, dim, ranks, seed):
    return (
        _state(kind, dim, min(ranks[0], dim), seed),
        _state(kind, dim, min(ranks[1], dim), seed + 1),
    )


class TestFidelity:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_symmetric_and_in_range(self, kind, dim, ranks, seed):
        a, b = _pair(kind, dim, ranks, seed)
        forward, backward = state_fidelity(a, b), state_fidelity(b, a)
        assert abs(forward - backward) <= 1e-12
        assert 0.0 <= forward <= 1.0
        assert 0.0 <= backward <= 1.0


class TestChord:
    """The chord of a step against the fidelity it replaces."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(
        kind=st.sampled_from(["classical", "quantum"]),
        dim=st.integers(1, 5),
        ranks=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 10**6),
        same=st.booleans(),
    )
    def test_chord_is_sqrt_two_one_minus_f(self, kind, dim, ranks, seed, same):
        a, b = _pair(kind, dim, ranks, seed)
        b = a if same else b
        roots = _sqrt_rows(np.stack((a.array, b.array)))
        _, chords, singular = _uhlmann(roots[:1], roots[1:])
        kernel_fid = (roots[0] * roots[1]).sum() if singular is None else singular.sum()
        fid, chord = state_fidelity(a, b), chords[0]
        # on weights the sum sqrt(p) sqrt(q) is state_fidelity's sum sqrt(p q), rounded apart;
        # on matrices state_fidelity is tr S clamped to 1
        assert abs(kernel_fid - fid) <= 16 * EPS
        # F is a sum of up to five rounded singular values (or products),
        # so 2 (1 - F) carries a few tens of eps of its own
        assert abs(chord ** 2 - 2.0 * (1.0 - fid)) <= 64 * EPS
        if fid <= 0.99:
            # arccos has slope at most 1/sqrt(1 - 0.99^2) < 7.1 there
            assert abs(_angles(chord) - 2.0 * np.arccos(fid)) <= 2.0 * 7.1 * 64 * EPS


class TestValidatedRows:
    """The row validator: a no-op on its own output, and the decomposition it
    hands on is the :func:`spectral` of the matrices it returns."""

    @settings(deadline=None, derandomize=True, max_examples=120)
    @given(
        kind=st.sampled_from(["classical", "quantum"]),
        dim=st.integers(1, 5),
        ranks=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        seed=st.integers(0, 10**6),
        source=st.sampled_from(["state", "repaired", "ridged"]),
    )
    def test_revalidation_is_a_no_op_and_spectra_are_eigh(self, kind, dim, ranks, seed, source):
        states = [_state(kind, dim, min(r, dim), seed + k) for k, r in enumerate(ranks)]
        if source == "ridged":
            states = [add_ridge(s, 1e-6) for s in states]
        raw = np.stack([s.array if kind == "classical" else s.array for s in states])
        if source == "repaired":
            # zero weights and eigenvalues go below zero and the sum or trace
            # leaves one, both by more than validation lets pass unrepaired
            raw = raw - 1e-13 * (1.0 if kind == "classical" else np.eye(dim))
        once, dec = _validate_rows(raw)
        twice, dec_again = _validate_rows(once)
        assert np.array_equal(twice, once)
        if kind == "classical":
            assert dec is None and dec_again is None
            return
        for k, mat in enumerate(once):
            alone = spectral(mat)
            for handed in (dec, dec_again):
                assert np.array_equal(handed.eigenvalues[k], alone.eigenvalues)
                assert np.array_equal(handed.eigenvectors[k], alone.eigenvectors)


class TestRelativeEntropy:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_nonnegative(self, kind, dim, ranks, seed):
        a, b = _pair(kind, dim, ranks, seed)
        value = relative_entropy(a, b)
        assert value >= 0.0  # every term of Klein's form is; NaN fails too

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_zero_on_itself(self, kind, dim, ranks, seed):
        a, _ = _pair(kind, dim, ranks, seed)
        assert abs(relative_entropy(a, a)) <= 1e-12

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(
        kind=st.sampled_from(["classical", "quantum"]),
        levels=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=5).filter(any),
        seed=st.integers(0, 10**6),
    )
    def test_maximally_mixed_endpoint(self, kind, levels, seed):
        """S(rho||I/d) = ln d - S(rho) and S(I/d||sigma) = -ln d - mean ln sigma_j,
        on spectra whose levels repeat, rotated by a random unitary."""
        weights = np.array(levels) / sum(levels)
        dim = weights.size
        if kind == "classical":
            state, mixed = validate_distribution(weights), validate_distribution(np.full(dim, 1.0 / dim))
        else:
            rng = np.random.default_rng(seed)
            u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            state = validate_density((u * weights) @ u.conj().T)
            mixed = validate_density(np.eye(dim) / dim)
        kept = weights[weights > 0.0]
        assert abs(relative_entropy(state, mixed) - (np.log(dim) + np.sum(kept * np.log(kept)))) <= 1e-14
        if kept.size < dim:
            assert relative_entropy(mixed, state) == np.inf
        else:
            expected = -np.log(dim) - np.mean(np.log(weights))
            assert abs(relative_entropy(mixed, state) - expected) <= 1e-14 * max(1.0, expected)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(**{**PAIRS, "kind": st.just("classical")})
    def test_classical_equals_diagonal_quantum(self, kind, dim, ranks, seed):
        """Equal to roundoff: the diagonals are summed in descending order."""
        p, q = _pair(kind, dim, ranks, seed)
        classical = relative_entropy(p, q)
        quantum = relative_entropy(validate_density(np.diag(p.array)), validate_density(np.diag(q.array)))
        if np.isinf(classical):
            assert quantum == np.inf
        else:
            assert abs(quantum - classical) <= 1e-14 * max(1.0, classical)


# full-support weight vectors, normalized in the test
WEIGHTS = st.integers(2, 6).flatmap(
    lambda dim: st.tuples(
        *(st.lists(st.floats(1e-3, 1.0), min_size=dim, max_size=dim) for _ in range(2))
    )
)


def _diagonal(p):
    return validate_density(np.diag(p.array))


class TestClassicalEqualsDiagonalQuantum:
    """Each operation on a probability vector agrees with the same operation
    on its diagonal density matrix, so the one entry point keeps one value
    whichever kind it is given.  The relative entropy is checked in
    TestRelativeEntropy."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(**{**PAIRS, "kind": st.just("classical")})
    def test_fidelity(self, kind, dim, ranks, seed):
        """Within 1e-15, about 4 eps: both sum sqrt(p_a q_a), the quantum one as singular values."""
        p, q = _pair(kind, dim, ranks, seed)
        assert abs(state_fidelity(p, q) - state_fidelity(_diagonal(p), _diagonal(q))) <= 1e-15

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(weights=WEIGHTS, eps=st.sampled_from([1e-1, 1e-3, 1e-6]))
    @pytest.mark.parametrize("element", [metric_element, kubo_mori_element])
    def test_metric_elements(self, element, weights, eps):
        """Within 1e-14 relative: the Bures and Kubo-Mori forms of a diagonal
        step keep only their diagonal terms, eps^2 dp_a^2 / p_a."""
        p, q = (validate_distribution(np.array(w) / sum(w)) for w in weights)
        delta = q.array - p.array
        classical = element(p, tangent_classical(delta), eps)
        quantum = element(_diagonal(p), tangent_quantum(np.diag(delta)), eps)
        assert abs(quantum - classical) <= 1e-14 * classical

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(**{**PAIRS, "kind": st.just("classical")}, n=st.integers(1, 4))
    def test_step_entropy_production(self, kind, dim, ranks, seed, n):
        """Within 1e-13: the method of types and the GL(d) blocks each give
        a difference of entropies of size up to (n + 1) ln d < 7."""
        p, q = _pair(kind, dim, ranks, seed)
        classical = step_entropy_production(p, q, n)
        assert abs(step_entropy_production(_diagonal(p), _diagonal(q), n) - classical) <= 1e-13


class TestDiagonalGeodesic:
    """A pair of probability vectors and the pair of diagonal density matrices
    that carry them run along the same geodesic."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        weights=WEIGHTS,
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        n_steps=st.integers(1, 32),
    )
    def test_classical_path_is_the_diagonal_of_the_quantum_path(self, weights, ts, n_steps):
        p, q = (validate_distribution(np.array(w) / sum(w)) for w in weights)
        classical = geodesic_path(p, q)
        quantum = geodesic_path(
            validate_density(np.diag(p.array)), validate_density(np.diag(q.array))
        )
        ts = np.array(ts)
        diagonals = np.diagonal(quantum.sample(ts)[0], axis1=1, axis2=2)
        assert np.max(np.abs(classical.sample(ts)[0] - diagonals)) <= 1e-12
        grid = np.linspace(0, 1, n_steps + 1)
        steps = [_sampled_step_lengths(path, grid)[0] for path in (classical, quantum)]
        assert np.max(np.abs(steps[0] - steps[1])) <= 1e-12


class TestDiagonalSchedule:
    """A mixture of probability vectors and the mixture of the diagonal
    density matrices that carry them get the same even schedule."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        dim=st.integers(2, 5),
        ranks=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 10**6),
        n_steps=st.integers(1, 64),
    )
    def test_classical_schedule_is_the_diagonal_schedule(self, dim, ranks, seed, n_steps):
        p, q = _pair("classical", dim, ranks, seed)
        classical = even_schedule(linear_mixture_path(p, q), n_steps)
        diagonal = even_schedule(
            linear_mixture_path(validate_density(np.diag(p.array)), validate_density(np.diag(q.array))),
            n_steps,
        )
        assert np.max(np.abs(classical.ts - diagonal.ts)) <= 1e-7


class TestStackedSpectral:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        dim=st.integers(1, 6),
        count=st.integers(1, 5),
        seed=st.integers(0, 10**6),
        degenerate=st.booleans(),
    )
    def test_stack_is_decomposed_matrix_by_matrix(self, dim, count, seed, degenerate):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        mats = g + g.conj().swapaxes(1, 2)
        if degenerate:
            # repeated eigenvalues in a random basis
            q = np.linalg.qr(g)[0]
            lam = np.repeat(rng.standard_normal((count, 1)), dim, axis=1)
            lam[:, :dim // 2] = 0.0
            mats = (q * lam[:, None, :]) @ q.conj().swapaxes(1, 2)
        stacked = spectral(mats)
        for k, mat in enumerate(mats):
            alone = spectral(mat)
            assert np.array_equal(stacked.eigenvalues[k], alone.eigenvalues)
            assert np.array_equal(stacked.eigenvectors[k], alone.eigenvectors)


def _oracle_yield(a: np.ndarray, b: np.ndarray) -> float:
    """S(a||b) of one pair, written out with its own per-pair numpy calls."""
    if a.ndim == 1:
        # exact weights: only a weight of 0 is outside the support
        if a[b == 0.0].sum() > LEAK_TOL:
            return np.inf
        live = (a > 0.0) & (b > 0.0)
        return float(np.sum(a[live] * np.log(a[live] / b[live])))
    lam_b, vec_b = np.linalg.eigh(b)
    vec_b = vec_b[:, lam_b > SUPPORT_FLOOR]
    lam_b = lam_b[lam_b > SUPPORT_FLOOR]
    inside = vec_b.conj().T @ a @ vec_b
    if 1.0 - np.real(np.trace(inside)) > LEAK_TOL:
        return np.inf
    lam_a = np.linalg.eigvalsh(a)
    lam_a = lam_a[lam_a > SUPPORT_FLOOR]
    return float(np.sum(lam_a * np.log(lam_a)) - np.sum(np.log(lam_b) * np.real(np.diagonal(inside))))


# the oracle's step yields of ~ theta^2/(2 N^2) are differences of traces of
# size up to |ln SUPPORT_FLOOR| ~ 32; each side rounds to a few tens of eps of that
YIELD_TOL = 1e-12


class TestHandmadeSchedule:
    """A schedule made by hand from an even schedule's states is that schedule."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS, wide=st.booleans(), geodesic=st.booleans(), n_steps=st.integers(1, 600))
    def test_from_rows_of_an_even_schedule_is_that_schedule(self, kind, dim, ranks, seed, wide, geodesic, n_steps):
        """A d = 8 density matrix takes 256 rows per block, so up to 3 blocks of the even pass."""
        dim = 8 if wide else dim
        a, b = _pair(kind, dim, ranks, seed)
        path = (geodesic_path if geodesic else linear_mixture_path)(a, b)
        even = even_schedule(path, n_steps)
        made = TransportSchedule.from_rows(path.sample(even.ts)[0], even.ts)
        assert np.array_equal(made.step_lengths, even.step_lengths)
        assert np.array_equal(made.step_yields, even.step_yields)
        for name in ("n_steps", "total_entropy", "total_length", "nu", "bound_path_length",
                     "endpoint_fidelity", "bound_fidelity"):
            assert getattr(made, name) == getattr(even, name), name


class TestScheduleYields:
    """run_transport's step yields against a per-pair loop, and the step an
    infinite yield is reported at."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        kind=st.sampled_from(["classical", "quantum-full", "quantum-deficient"]),
        dim=st.integers(2, 4),
        ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 10**6),
        geodesic=st.booleans(),
        n_steps=st.integers(1, 24),
    )
    def test_yields_match_a_per_pair_loop(self, kind, dim, ranks, seed, geodesic, n_steps):
        if kind == "quantum-full":
            ranks = (dim, dim)
        a, b = _pair(kind.split("-")[0], dim, ranks, seed)
        path = (geodesic_path if geodesic else linear_mixture_path)(a, b)
        schedule = even_schedule(path, n_steps)
        rows = path.sample(schedule.ts)[0]
        expected = np.array([_oracle_yield(rows[i], rows[i + 1]) for i in range(n_steps)])
        broken = np.flatnonzero(np.isinf(expected))
        if broken.size:
            with pytest.raises(InfiniteYield) as err:
                run_transport(schedule)
            assert err.value.step == broken[0]
            return
        report = run_transport(schedule)
        assert np.max(np.abs(report.step_yields - expected)) <= YIELD_TOL
        for i in range(n_steps):
            assert report.step_yields[i] == relative_entropy(State(rows[i]), State(rows[i + 1]))

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        kind=st.sampled_from(["classical", "quantum"]),
        dim=st.integers(2, 4),
        data=st.data(),
        seed=st.integers(0, 10**6),
    )
    def test_leak_at_any_step_is_reported_there(self, kind, dim, data, seed):
        n_steps = data.draw(st.integers(2, 12), label="n_steps")
        step = data.draw(st.integers(0, n_steps - 1), label="step")
        states = [_state(kind, dim, dim, seed + k) for k in range(n_steps + 1)]
        # state step + 1 loses a direction that state step carries
        states[step + 1] = _state(kind, dim, dim - 1, seed + n_steps + 1)
        states[step] = _state(kind, dim, dim, seed)
        ts = np.linspace(0.0, 1.0, n_steps + 1)
        rows = np.stack([s.array if kind == "classical" else s.array for s in states])
        schedule = TransportSchedule.from_rows(rows, ts)
        with pytest.raises(InfiniteYield) as err:
            run_transport(schedule)
        assert err.value.step == step
