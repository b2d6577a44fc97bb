"""Invariants of the fidelity, the relative entropy and the geodesic over random states."""
import numpy as np
from hypothesis import given, settings, strategies as st

from statlen import (
    add_ridge,
    discrete_path_length,
    even_schedule,
    geodesic_path,
    linear_mixture_path,
    random_distribution,
    random_state,
    relative_entropy,
    state_fidelity,
    validate_density,
    validate_distribution,
)
from statlen.geometry import _angles, _classical_chords, _uhlmann
from statlen.states import _sqrt_rows, _validate_density_rows, _validate_distribution_rows

EPS = np.finfo(float).eps


def _state(kind, dim, rank, seed):
    """A random state of the given kind; ``rank`` is the size of its support."""
    if kind == "quantum":
        return random_state(dim, rank, seed)
    weights = random_distribution(dim, seed).weights.copy()
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
        if kind == "quantum":
            roots = _sqrt_rows(np.stack((a.matrix, b.matrix)))
            fid, _, chord = _uhlmann(roots[0], roots[1])
        else:
            fid, chord = state_fidelity(a, b), _classical_chords(a.weights, b.weights)
        # F is a sum of up to five rounded singular values (or products),
        # so 2 (1 - F) carries a few tens of eps of its own
        assert abs(chord ** 2 - 2.0 * (1.0 - fid)) <= 64 * EPS
        if fid <= 0.99:
            # arccos has slope at most 1/sqrt(1 - 0.99^2) < 7.1 there
            assert abs(_angles(chord) - 2.0 * np.arccos(fid)) <= 2.0 * 7.1 * 64 * EPS


class TestValidatedRows:
    """The row validators: a no-op on their own output, and the spectra they
    hand on are the ``eigh`` of the matrices they return."""

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
        raw = np.stack([s.weights if kind == "classical" else s.matrix for s in states])
        if source == "repaired":
            # zero weights and eigenvalues go below zero and the sum or trace
            # leaves one, both by more than validation lets pass unrepaired
            raw = raw - 1e-13 * (1.0 if kind == "classical" else np.eye(dim))
        if kind == "classical":
            once = _validate_distribution_rows(raw)
            assert np.array_equal(_validate_distribution_rows(once), once)
            return
        once, lam, vec = _validate_density_rows(raw)
        twice, lam_again, vec_again = _validate_density_rows(once)
        assert np.array_equal(twice, once)
        for k, mat in enumerate(once):
            eig = np.linalg.eigh(mat)
            for values, vectors in ((lam, vec), (lam_again, vec_again)):
                assert np.array_equal(values[k], eig[0])
                assert np.array_equal(vectors[k], eig[1])


class TestRelativeEntropy:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_nonnegative(self, kind, dim, ranks, seed):
        a, b = _pair(kind, dim, ranks, seed)
        value = relative_entropy(a, b)
        assert value >= -1e-12  # NaN fails too

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_zero_on_itself(self, kind, dim, ranks, seed):
        a, _ = _pair(kind, dim, ranks, seed)
        assert abs(relative_entropy(a, a)) <= 1e-12


# full-support weight vectors, normalized in the test
WEIGHTS = st.integers(2, 6).flatmap(
    lambda dim: st.tuples(
        *(st.lists(st.floats(1e-3, 1.0), min_size=dim, max_size=dim) for _ in range(2))
    )
)


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
            validate_density(np.diag(p.weights)), validate_density(np.diag(q.weights))
        )
        ts = np.array(ts)
        diagonals = np.diagonal(quantum.sample_many(ts), axis1=1, axis2=2)
        assert np.max(np.abs(classical.sample_many(ts) - diagonals)) <= 1e-12
        steps = [discrete_path_length(path, n_steps).step_lengths for path in (classical, quantum)]
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
            linear_mixture_path(validate_density(np.diag(p.weights)), validate_density(np.diag(q.weights))),
            n_steps,
        )
        assert np.max(np.abs(classical.ts - diagonal.ts)) <= 1e-7
