import logging
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statlen import (
    DimensionCapExceeded,
    DimensionMismatch,
    RankDeficient,
    State,
    StatePath,
    SupportViolation,
    TangentPerturbation,
    ValidationError,
    add_ridge,
    even_schedule,
    expansion_probe,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    random_distribution,
    random_state,
    relative_entropy,
    run_transport,
    state_fidelity,
    step_entropy_production,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen.geometry import (
    DEGENERATE_LENGTH,
    MAX_PASSES,
    MAX_SCHEDULE_ENTRIES,
    MAX_STEPS,
    SPREAD_TOL,
    STEP_NOISE,
    _sampled_step_lengths,
    _step_entropies,
)

P_HALF = validate_distribution([0.5, 0.5])
P_SKEW = validate_distribution([0.9, 0.1])
# sqrt(0.45) + sqrt(0.05), evaluated independently
F_DOC = 0.8944271909999159
RHO_FLAT = validate_density(np.diag([0.2] * 5))
RHO_FULL = random_state(3, 3, 4)


def _random_pair(dim, seed):
    return random_distribution(dim, seed), random_distribution(dim, seed + 1000)


def _steps(path, n_steps):
    """The Bures angles of the N steps between the path's states at t = i/N."""
    return _sampled_step_lengths(path, np.linspace(0.0, 1.0, n_steps + 1))[0]


def _haar_basis(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestFidelities:
    def test_classical_identical(self):
        assert state_fidelity(P_HALF, P_HALF) == 1.0

    def test_classical_disjoint(self):
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        assert state_fidelity(a, b) == 0.0

    def test_classical_documented_pair(self):
        assert state_fidelity(P_HALF, P_SKEW) == pytest.approx(F_DOC, abs=1e-14)

    def test_classical_symmetric_exactly(self):
        for seed in range(5):
            p, q = _random_pair(6, seed)
            assert state_fidelity(p, q) == state_fidelity(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            state_fidelity(P_HALF, validate_distribution([1.0, 0.0, 0.0]))

    def test_quantum_identical(self):
        rho = random_state(4, 4, 0)
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pure_against_full_rank_is_exact(self, dim):
        # F(|psi><psi|, sigma) = sqrt(<psi|sigma|psi>); the roundoff on the
        # pure state's zero eigenvalues must not become amplitudes
        for seed in range(10):
            psi, sigma = random_state(dim, 1, seed), random_state(dim, dim, seed + 100)
            exact = np.sqrt(np.real(np.trace(psi.array @ sigma.array)))
            assert abs(state_fidelity(psi, sigma) - exact) < 1e-13
            assert abs(state_fidelity(sigma, psi) - exact) < 1e-13

    def test_quantum_orthogonal_pure(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_quantum_matches_classical_on_diagonals(self):
        rho = validate_density(np.diag(P_HALF.array))
        sigma = validate_density(np.diag(P_SKEW.array))
        assert state_fidelity(rho, sigma) == pytest.approx(F_DOC, abs=1e-10)

    def test_quantum_symmetric(self):
        for seed in range(5):
            rho = random_state(8, 8, seed)
            sigma = random_state(8, 4, seed + 100)
            assert state_fidelity(rho, sigma) == pytest.approx(
                state_fidelity(sigma, rho), abs=1e-10
            )

    def test_range_and_separation(self):
        for seed in range(8):
            rho = random_state(4, 4, seed)
            sigma = random_state(4, 4, seed + 50)
            f = state_fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0
            if np.max(np.abs(rho.array - sigma.array)) > 1e-4:
                assert f < 1.0 - 1e-9

    def test_unit_fidelity_means_equal(self):
        rho = random_state(3, 3, 7)
        bumped = validate_density(rho.array + np.diag([1e-10, -1e-10, 0.0]))
        assert state_fidelity(rho, bumped) > 1.0 - 1e-8
        assert np.max(np.abs(rho.array - bumped.array)) < 1e-8


class TestMetricElements:
    def test_fisher_zero_direction(self):
        dp = tangent_classical([0.0, 0.0])
        assert metric_element(P_HALF, dp, 0.01) == 0.0

    def test_fisher_symmetric_point(self):
        dp = tangent_classical([1.0, -1.0])
        assert metric_element(P_HALF, dp, 0.01) == pytest.approx(4e-4, rel=1e-12)

    def test_fisher_skewed_point(self):
        dp = tangent_classical([1.0, -1.0])
        assert metric_element(P_SKEW, dp, 0.01) == pytest.approx(
            1.1111111111111112e-3, rel=1e-12
        )

    def test_fisher_support_violation(self):
        p = validate_distribution([1.0, 0.0])
        for element in (metric_element, kubo_mori_element):
            with pytest.raises(SupportViolation):
                element(p, tangent_classical([1.0, -1.0]), 0.01)

    def test_fisher_counts_an_exact_tiny_weight_as_support(self):
        # only a weight of 0 is outside the support; 1e-15 is exact mass
        p = validate_distribution([1.0 - 1e-15, 1e-15])
        dp = tangent_classical([1.0, -1.0])
        with mpmath.workdps(50):
            exact = mpmath.mpf(1e-17) ** 2 * mpmath.fsum(1 / mpmath.mpf(float(w)) for w in p.array)
        for element in (metric_element, kubo_mori_element):
            assert abs((element(p, dp, 1e-17) - exact) / exact) <= 1e-15
        # the probe keeps its full-rank rule, and says so instead of a support violation
        with pytest.raises(RankDeficient, match="least weight"):
            expansion_probe(p, dp, [1e-17])

    def test_bures_zero_direction(self):
        rho = validate_density(np.eye(2) / 2)
        zero = tangent_quantum(np.zeros((2, 2)))
        assert metric_element(rho, zero, 0.01) == 0.0

    def test_bures_maximally_mixed_pauli(self):
        # at I/2 the anticommutator superoperator is the identity
        rho = validate_density(np.eye(2) / 2)
        sx_half = tangent_quantum(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        for eps in (0.1, 0.01):
            assert metric_element(rho, sx_half, eps) == pytest.approx(eps * eps, rel=1e-12)

    def test_bures_commuting_equals_fisher(self):
        rho = validate_density(np.diag([0.9, 0.1]))
        drho = tangent_quantum(np.diag([1.0, -1.0]))
        dp = tangent_classical([1.0, -1.0])
        assert metric_element(rho, drho, 0.01) == pytest.approx(
            metric_element(P_SKEW, dp, 0.01), rel=1e-12
        )

    def test_bures_rank_deficient_raises(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        drho = tangent_quantum(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(RankDeficient, match="add_ridge"):
            metric_element(rho, drho, 0.001)
        # an explicit ridge opts into a regularized value instead
        assert metric_element(add_ridge(rho, 1e-6), drho, 0.001) > 0.0

    def test_chord_law(self):
        # 8 (1 - F(rho, rho + eps drho)) approaches the Bures element
        for seed in (3, 4, 5):
            dim = 2 + seed % 3
            rho = validate_density(
                0.5 * random_state(dim, dim, seed).array + 0.5 * np.eye(dim) / dim
            )
            rng = np.random.default_rng(seed + 10)
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            raw = raw + raw.conj().T
            raw -= np.trace(raw).real * np.eye(dim) / dim
            drho = tangent_quantum(raw / np.linalg.norm(raw, 2))
            devs = []
            for eps in (1e-3, 1e-4):
                pert = validate_density(rho.array + eps * drho.delta)
                chord = 8.0 * (1.0 - state_fidelity(rho, pert))
                devs.append(abs(chord / metric_element(rho, drho, eps) - 1.0))
            assert devs[1] <= devs[0] / 5.0

    def test_kubo_mori_zero_direction(self):
        rho = validate_density(np.diag([0.6, 0.4]))
        assert kubo_mori_element(rho, tangent_quantum(np.zeros((2, 2))), 0.01) == 0.0

    def test_kubo_mori_commuting_equals_fisher(self):
        rho = validate_density(np.diag([0.9, 0.1]))
        drho = tangent_quantum(np.diag([1.0, -1.0]).astype(complex))
        dp = tangent_classical([1.0, -1.0])
        assert kubo_mori_element(rho, drho, 0.01) == pytest.approx(
            metric_element(P_SKEW, dp, 0.01), rel=1e-10
        )

    def test_kubo_mori_matches_relative_entropy_expansion(self):
        from statlen import relative_entropy

        rho = validate_density(np.diag([0.7, 0.3]))
        drho = tangent_quantum(
            np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]], dtype=complex)
        )
        eps = 1e-4
        pert = validate_density(rho.array + eps * drho.delta)
        ratio = 2.0 * relative_entropy(rho, pert) / kubo_mori_element(rho, drho, eps)
        assert abs(ratio - 1.0) < 1e-3

    def test_rank_deficient_guards_all_elements(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        drho = tangent_quantum(np.diag([1.0, -1.0]).astype(complex))
        for element in (metric_element, kubo_mori_element):
            with pytest.raises(RankDeficient):
                element(rho, drho, 0.001)

    @pytest.mark.parametrize("element", [metric_element, kubo_mori_element])
    def test_tangent_of_another_kind_or_dimension_rejected(self, element):
        """Refused as a mismatch before any arithmetic, not with numpy's LinAlgError."""
        rho = validate_density(np.eye(2) / 2)
        for state, tangent in (
            (P_HALF, tangent_quantum(np.diag([1.0, -1.0]))),
            (rho, tangent_classical([1.0, -1.0])),
            (P_HALF, tangent_classical([1.0, 0.0, -1.0])),
            (rho, tangent_quantum(np.diag([1.0, 0.0, -1.0]))),
            (P_HALF.array, tangent_classical([1.0, -1.0])),
            # a tangent whose shape is another kind's, built by hand
            (P_HALF, TangentPerturbation(np.array([[1.0, -1.0], [0.5, -0.5]]))),
            (rho, TangentPerturbation(np.array([1.0, -1.0]))),
        ):
            with pytest.raises(DimensionMismatch):
                element(state, tangent, 0.01)


class TestGeodesicLengths:
    def test_fisher_length_trivials(self):
        assert geodesic_length_fisher(1.0) == 0.0
        assert geodesic_length_fisher(0.0) == pytest.approx(np.pi, abs=1e-15)

    def test_bures_length_trivials(self):
        assert geodesic_length_bures(1.0) == 0.0
        assert geodesic_length_bures(0.0) == 2.0

    def test_documented_values(self):
        assert geodesic_length_fisher(F_DOC) == pytest.approx(0.9272952180016123, abs=1e-12)
        assert geodesic_length_bures(F_DOC) == pytest.approx(0.8944271909999157, abs=1e-12)

    def test_sine_relation_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        for f in grid:
            lhs = geodesic_length_bures(f)
            rhs = 2.0 * np.sin(0.5 * geodesic_length_fisher(f))
            assert abs(lhs - rhs) <= 1e-12


class TestPaths:
    def test_classical_geodesic_endpoints(self):
        path = geodesic_path(P_HALF, P_SKEW)
        start, mid, end = path.sample([0.0, 0.5, 1.0])[0]
        assert np.array_equal(start, P_HALF.array)
        assert np.array_equal(end, P_SKEW.array)
        assert abs(mid.sum() - 1.0) < 1e-12

    def test_classical_geodesic_constant_for_equal_endpoints(self):
        path = geodesic_path(P_HALF, P_HALF)
        assert np.allclose(path.sample([0.37])[0][0], P_HALF.array)

    def test_classical_geodesic_length_is_analytic(self):
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        length = _steps(geodesic_path(a, b), 10_000).sum()
        assert length == pytest.approx(np.pi, abs=1e-6)

    def test_classical_geodesic_length_d3(self):
        p, q = _random_pair(3, 17)
        expected = geodesic_length_fisher(state_fidelity(p, q))
        length = _steps(geodesic_path(p, q), 2048).sum()
        assert length == pytest.approx(expected, abs=1e-9)

    def test_commuting_geodesic_matches_classical_in_rotated_basis(self):
        basis = _haar_basis(3, 5)
        p, q = _random_pair(3, 23)
        rho = validate_density((basis * p.array) @ basis.conj().T)
        sigma = validate_density((basis * q.array) @ basis.conj().T)
        path = geodesic_path(rho, sigma)
        assert np.array_equal(path.sample([0.0])[0][0], rho.array)
        expected = geodesic_length_fisher(state_fidelity(p, q))
        length = _steps(path, 256).sum()
        assert length == pytest.approx(expected, abs=1e-8)
        # the states are the classical path's states, rotated into the common basis
        ts = np.linspace(0.0, 1.0, 9)
        lifted = (basis * geodesic_path(p, q).sample(ts)[0][:, None, :]) @ basis.conj().T
        assert np.allclose(path.sample(ts)[0], lifted, rtol=0.0, atol=1e-12)

    def test_geodesic_joins_noncommuting_states(self):
        rho = validate_density(np.diag([0.8, 0.2]))
        plus = validate_density(np.full((2, 2), 0.5))
        path = geodesic_path(rho, plus)
        assert path.kind == "quantum"
        expected = geodesic_length_fisher(state_fidelity(rho, plus))
        length = _steps(path, 256).sum()
        assert length == pytest.approx(expected, abs=1e-8)

    def test_geodesic_rejects_mixed_kinds(self):
        # every caller of the one state-pair check: paths, fidelity,
        # relative entropy and the reservoir step
        rho_half = validate_density(np.diag(P_HALF.array))
        for call in (
            geodesic_path,
            state_fidelity,
            relative_entropy,
            lambda a, b: step_entropy_production(a, b, 2),
        ):
            with pytest.raises(DimensionMismatch, match="cannot pair"):
                call(P_HALF, rho_half)
            with pytest.raises(DimensionMismatch, match="cannot pair"):
                call(rho_half, P_HALF)
            with pytest.raises(DimensionMismatch, match="cannot pair"):
                call(P_HALF, P_HALF.array)
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                call(P_HALF, validate_distribution([0.2, 0.3, 0.5]))
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                call(rho_half, validate_density(np.eye(3) / 3))

    def test_mixture_endpoints_and_midpoint(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        path = linear_mixture_path(a, b)
        start, mid = path.sample([0.0, 0.5])[0]
        assert np.array_equal(start, a.array)
        assert np.allclose(mid, np.eye(2) / 2)

    def test_mixture_is_longer_than_geodesic_d3(self):
        # strict once the simplex has more than one dimension
        p, q = _random_pair(3, 31)
        geo = _steps(geodesic_path(p, q), 512).sum()
        mix = _steps(linear_mixture_path(p, q), 512).sum()
        assert mix > geo + 1e-6

    def test_mixture_degenerate_d2_matches_geodesic(self):
        # the 1-simplex has a single image between its endpoints, so the
        # mixture path cannot be longer; only its parametrization differs
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        mix = _steps(linear_mixture_path(a, b), 4096).sum()
        assert mix == pytest.approx(np.pi, abs=1e-9)

    def test_sample_outside_range_rejected(self):
        path = linear_mixture_path(P_HALF, P_SKEW)
        with pytest.raises(ValueError):
            path.sample([1.5])


def _pure(vector):
    """The density matrix of the normalized state vector."""
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return validate_density(np.outer(v, v.conj()))


class TestGeodesicPath:
    """The closed-form geodesic on full-rank, rank-deficient and pure pairs."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_fidelity_along_path_is_cos_full_rank(self, seed, dim, s, t):
        rho, sigma = random_state(dim, dim, seed), random_state(dim, dim, seed + 1)
        theta = np.arccos(state_fidelity(rho, sigma))
        path = geodesic_path(rho, sigma)
        f = state_fidelity(*map(State, path.sample([s, t])[0]))
        assert abs(f - np.cos(abs(t - s) * theta)) <= 1e-10

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_fidelity_along_path_is_cos_pure(self, seed, dim, s, t):
        # pure samples: F is the overlap of the leading eigenvectors, which a
        # float64 matrix fixes to roundoff (its matrix square root does not)
        def vector(mat):
            return np.linalg.eigh(mat)[1][:, -1]

        rho, sigma = random_state(dim, 1, seed), random_state(dim, 1, seed + 1)
        theta = np.arccos(abs(np.vdot(vector(rho.array), vector(sigma.array))))
        rows = geodesic_path(rho, sigma).sample([s, t])[0]
        assert np.allclose(np.linalg.eigvalsh(rows)[:, -1], 1.0, rtol=0.0, atol=1e-12)
        f = abs(np.vdot(vector(rows[0]), vector(rows[1])))
        assert abs(f - np.cos(abs(t - s) * theta)) <= 1e-10

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        ranks=st.tuples(st.integers(1, 3), st.integers(1, 4)),
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_fidelity_along_path_is_cos_rank_deficient(self, seed, dim, ranks, s, t):
        # At least one endpoint is rank-deficient.  A zero eigenvalue carries
        # roundoff of about 1e-17, whose square root (3e-9) enters F, so F of
        # such a matrix is fixed only to about sqrt(eps): 4e-9 off the exact
        # value for random_state(2, 1, 0) and random_state(2, 2, 1) already.
        rho = random_state(dim, min(ranks[0], dim - 1), seed)
        sigma = random_state(dim, min(ranks[1], dim), seed + 1)
        theta = np.arccos(state_fidelity(rho, sigma))
        path = geodesic_path(rho, sigma)
        f = state_fidelity(*map(State, path.sample([s, t])[0]))
        assert abs(f - np.cos(abs(t - s) * theta)) <= 1e-7

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 5))
    def test_diagonal_pair_samples_the_probability_pair(self, seed, dim):
        p, q = _random_pair(dim, seed)
        ts = np.linspace(0.0, 1.0, 11)
        classical = geodesic_path(p, q).sample(ts)[0]
        quantum = geodesic_path(
            validate_density(np.diag(p.array)), validate_density(np.diag(q.array))
        ).sample(ts)[0]
        diagonal = classical[:, None, :] * np.eye(dim)
        assert np.allclose(quantum, diagonal, rtol=0.0, atol=1e-12)

    def test_diagonal_rank_deficient_pair_samples_the_probability_pair(self):
        # Rank-deficient pairs can have several geodesics.  The SVD of the
        # diagonal sqrt(rho) sqrt(sigma) completes both sides with the same
        # unit vectors, so U = I and the classical one is returned.
        p = validate_distribution([0.6, 0.4, 0.0])
        q = validate_distribution([0.0, 0.3, 0.7])
        ts = np.linspace(0.0, 1.0, 11)
        classical = geodesic_path(p, q).sample(ts)[0]
        quantum = geodesic_path(
            validate_density(np.diag(p.array)), validate_density(np.diag(q.array))
        ).sample(ts)[0]
        assert np.allclose(quantum, classical[:, None, :] * np.eye(3), rtol=0.0, atol=1e-12)

    def test_unit_fidelity_gives_the_constant_path(self):
        ts = np.linspace(0.0, 1.0, 7)
        # F computes to exactly 1 here, so sin(theta) == 0
        for state in (P_SKEW, validate_density(np.diag([1.0, 0.0]))):
            raw = state.array
            samples = geodesic_path(state, state).sample(ts)[0]
            assert np.array_equal(samples, np.broadcast_to(raw, (7,) + raw.shape))
        # here F is 1 to roundoff, and the path stays on the state to roundoff
        for state in (_pure([1.0, 1j]), random_state(3, 3, 4)):
            samples = geodesic_path(state, state).sample(ts)[0]
            assert np.allclose(samples, state.array, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("pair", [([1.0, 0.0], [0.0, 1.0]), ([1.0, 1j], [1.0, -1j])])
    def test_orthogonal_pure_qubits_have_length_pi(self, pair):
        path = geodesic_path(_pure(pair[0]), _pure(pair[1]))
        for n in (1, 16, 64):
            assert _steps(path, n).sum() == pytest.approx(np.pi, abs=1e-10)


def _never(ts):
    raise AssertionError("sampled before the cap was checked")


class TestDiscreteLength:
    def test_constant_path_zero(self):
        # Each step is measured by its chord, which keeps its digits at F = 1:
        # equal diagonal endpoints read 0, a full-rank state with itself a few
        # eps per step (2 arccos F read about 3e-8 per step there).
        for state, per_step in ((P_HALF, 0), (RHO_FLAT, 0), (RHO_FULL, 1)):
            for build in (linear_mixture_path, geodesic_path):
                for n in (1, 7, 32):
                    length = _steps(build(state, state), n).sum()
                    assert 0.0 <= length <= 1e-14 * n ** per_step

    def test_n_cap(self):
        # the discrete length is read at N = MAX_STEPS and refused one step above, unsampled
        expected = geodesic_length_fisher(state_fidelity(P_HALF, P_SKEW))
        steps = even_schedule(geodesic_path(P_HALF, P_SKEW), MAX_STEPS).step_lengths
        assert steps.shape == (MAX_STEPS,)
        assert steps.sum() == pytest.approx(expected, abs=1e-9)
        with pytest.raises(DimensionCapExceeded) as err:
            even_schedule(StatePath(P_HALF, P_SKEW, _never), MAX_STEPS + 1)
        assert err.value.max_feasible == MAX_STEPS
        assert f"largest feasible N is {MAX_STEPS}" in str(err.value)
        with pytest.raises(ValueError, match="need at least one step, got 0"):
            even_schedule(StatePath(P_HALF, P_SKEW, _never), 0)

    @pytest.mark.parametrize("n_steps", [16, 256, 4096])
    def test_geodesic_length_is_twice_theta_to_roundoff(self, n_steps):
        pairs = [
            _random_pair(3, 5),
            (random_state(3, 3, 5), random_state(3, 3, 6)),
            (random_state(3, 1, 7), random_state(3, 2, 8)),
        ]
        for a, b in pairs:
            expected = geodesic_length_fisher(state_fidelity(a, b))
            length = _steps(geodesic_path(a, b), n_steps).sum()
            assert abs(length - expected) <= 1e-13

    def test_report_consistency(self):
        steps = _steps(geodesic_path(P_HALF, P_SKEW), 16)
        assert steps.shape == (16,)
        assert np.all(steps >= 0)

    def test_monotone_refinement_arc(self):
        p, q = _random_pair(4, 3)
        path = linear_mixture_path(p, q)
        for n in (4, 8, 16, 32):
            coarse = _steps(path, n).sum()
            fine = _steps(path, 2 * n).sum()
            assert fine >= coarse - 1e-9

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        classical=st.booleans(),
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        n_steps=st.integers(1, 64),
    )
    def test_geodesic_length_is_the_bures_angle(self, classical, seed, dim, ranks, n_steps):
        # every step is 2 arccos F, so the sum is exact at every N, for both kinds
        if classical:
            a, b = _random_pair(dim, seed)
        else:
            a, b = (random_state(dim, 1 + (r - 1) % dim, seed + k) for k, r in enumerate(ranks))
        path = geodesic_path(a, b)
        expected = geodesic_length_fisher(state_fidelity(a, b))
        assert _steps(path, n_steps).sum() == pytest.approx(expected, abs=1e-9)
        assert even_schedule(path, n_steps).step_lengths.sum() == pytest.approx(expected, abs=1e-9)


def _spread(steps) -> float:
    return float(np.ptp(steps) / np.mean(steps))


class TestEvenSchedule:
    def test_n_cap(self):
        path = StatePath(P_HALF, P_SKEW, _never)
        with pytest.raises(DimensionCapExceeded) as err:
            even_schedule(path, MAX_STEPS + 1)
        assert err.value.max_feasible == MAX_STEPS == 65536
        assert f"largest feasible N is {MAX_STEPS}" in str(err.value)

    def test_rows_stack_cap(self):
        # a pass samples (N + 1) d^2 entries: d = 64 allows N up to 2**24 // 4096 - 1, refused unsampled
        rho, sigma = random_state(64, 1, 1), random_state(64, 1, 2)
        with pytest.raises(DimensionCapExceeded) as err:
            even_schedule(StatePath(rho, sigma, _never), 4096)
        assert err.value.max_feasible == MAX_SCHEDULE_ENTRIES // 4096 - 1 == 4095
        assert "largest feasible N is 4095" in str(err.value)

    def test_geodesic_already_even(self):
        schedule = even_schedule(geodesic_path(P_HALF, P_SKEW), 16)
        steps = schedule.step_lengths
        assert np.max(np.abs(steps / steps.mean() - 1.0)) < 1e-7

    def test_skewed_parametrization_is_evened_out(self):
        geo = geodesic_path(P_HALF, P_SKEW)
        skewed = StatePath(P_HALF, P_SKEW, lambda ts: geo.sample(ts * ts * ts)[0])
        schedule = even_schedule(skewed, 16)
        steps = schedule.step_lengths
        assert np.max(np.abs(steps / steps.mean() - 1.0)) < 1e-7
        # oracle: each step carries 1/N of the length on a fine uniform grid
        total = _steps(geo, 4096).sum()
        assert np.allclose(steps, total / 16, rtol=2e-3)

    def test_single_step(self):
        schedule = even_schedule(geodesic_path(P_HALF, P_SKEW), 1)
        assert schedule.n_steps == 1
        assert schedule.start is P_HALF and schedule.end is P_SKEW
        assert np.array_equal(schedule.ts, [0.0, 1.0])
        assert schedule.step_yields[0] == relative_entropy(P_HALF, P_SKEW)

    def test_degenerate_path_gives_trivial_schedule(self):
        schedule = even_schedule(linear_mixture_path(P_HALF, P_HALF), 8)
        assert np.allclose(schedule.ts, np.linspace(0, 1, 9))
        assert schedule.step_lengths.sum() == pytest.approx(0.0, abs=1e-14)

    def test_quantum_schedule_even(self):
        rho = random_state(2, 2, 61)
        sigma = random_state(2, 2, 62)
        schedule = even_schedule(linear_mixture_path(rho, sigma), 12)
        steps = schedule.step_lengths
        assert np.max(np.abs(steps / steps.mean() - 1.0)) < 1e-7

    @pytest.mark.parametrize("n_steps", [16, 64, 256, 1024])
    @pytest.mark.parametrize(
        "start, end",
        [
            (random_state(2, 1, 3), random_state(2, 2, 4)),
            (random_state(3, 1, 5), random_state(3, 3, 6)),
            (validate_distribution([0.5, 0.5, 0.0, 0.0]), random_distribution(4, 9)),
        ],
        ids=["rank-1-qubit", "rank-1-qutrit", "zero-weights"],
    )
    def test_rank_deficient_mixture_is_even(self, start, end, n_steps):
        # the speed diverges like 1/sqrt(t) at a rank-deficient endpoint
        schedule = even_schedule(linear_mixture_path(start, end), n_steps)
        assert _spread(schedule.step_lengths) <= 1e-7

    @pytest.mark.parametrize("n_steps", [1, 7, 64, 1024, 4096])
    @pytest.mark.parametrize("kind", ["classical-geodesic", "commuting-geodesic", "quantum-geodesic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_geodesic_keeps_uniform_parameters(self, seed, kind, n_steps):
        # constant speed: the first pass is already even, to the roundoff of the samples
        schedule = even_schedule(_path_of_kind(kind, seed, 2 + seed), n_steps)
        assert np.array_equal(schedule.ts, np.linspace(0.0, 1.0, n_steps + 1))

    @pytest.mark.parametrize(
        "path, n_steps, stop, one_pass",
        [
            (geodesic_path(P_HALF, P_SKEW), 16, "tolerance", True),
            (linear_mixture_path(P_HALF, P_HALF), 8, "degenerate", True),
            (linear_mixture_path(random_state(2, 1, 3), random_state(2, 2, 4)), 64, "tolerance", False),
            (geodesic_path(RHO_FLAT, RHO_FLAT), 16, "degenerate", True),
            (linear_mixture_path(RHO_FLAT, RHO_FLAT), 16, "degenerate", True),
            (geodesic_path(RHO_FULL, RHO_FULL), 16, "degenerate", True),
            (linear_mixture_path(RHO_FULL, RHO_FULL), 16, "degenerate", True),
        ],
    )
    def test_logs_passes_stop_and_spread(self, caplog, path, n_steps, stop, one_pass):
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            schedule = even_schedule(path, n_steps)
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("statlen.geometry", logging.DEBUG)
        n, passes, reason, spread = record.args
        assert (n, reason) == (n_steps, stop)
        assert (passes == 1) == one_pass
        if stop != "degenerate":
            assert spread == _spread(schedule.step_lengths)

    def test_pass_cap_stops_the_loop(self, caplog, monkeypatch):
        monkeypatch.setattr("statlen.geometry.MAX_PASSES", 3)
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            schedule = even_schedule(linear_mixture_path(random_state(2, 1, 3), random_state(2, 2, 4)), 64)
        assert caplog.records[0].args[1:3] == (3, "pass cap")
        assert caplog.records[0].args[3] == _spread(schedule.step_lengths) > 1e-7

    @pytest.mark.parametrize(
        "start, end",
        [(P_HALF, P_SKEW), (random_state(2, 1, 3), random_state(2, 2, 4))],
        ids=["classical", "quantum"],
    )
    def test_sampler_runs_once_per_pass(self, caplog, start, end):
        # N + 1 states fit one block, so each pass samples them in one call,
        # and the yields are those of the states the kept pass sampled
        mixture = linear_mixture_path(start, end)
        calls = []

        def counting(ts):
            calls.append(ts.size)
            return mixture.sampler(ts)

        with caplog.at_level(logging.DEBUG, logger="statlen"):
            schedule = even_schedule(StatePath(start, end, counting), 64)
        passes = caplog.records[0].args[1]
        assert passes > 1
        assert calls == [63] * passes
        assert np.array_equal(schedule.step_yields, _step_entropies(*mixture.sample(schedule.ts)))

    @pytest.mark.parametrize("n_steps", [8, 16, 64])
    def test_stall_keeps_the_rows_of_the_best_pass(self, caplog, n_steps):
        # a piecewise-constant sampler has zero steps inside each piece, so
        # the spread stops falling and the kept pass is not the last one
        geo = geodesic_path(P_HALF, P_SKEW)
        calls = []

        def piecewise(ts):
            calls.append(ts.size)
            return geo.sample(np.floor(ts * 5) / 5)[0]

        path = StatePath(P_HALF, P_SKEW, piecewise)
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            schedule = even_schedule(path, n_steps)
        passes, reason = caplog.records[0].args[1:3]
        assert reason == "stall"
        assert calls == [n_steps - 1] * passes
        assert np.array_equal(schedule.step_yields, _step_entropies(*path.sample(schedule.ts)))

    @pytest.mark.parametrize("build", [geodesic_path, linear_mixture_path], ids=["geodesic", "mixture"])
    def test_a_pass_streams_its_blocks(self, build):
        # d = 8: a block is 256 rows, so N = 1024 takes 4 blocks and N = 16384 takes 64.
        # A schedule keeps its ts, step lengths and yields, 3 * 8 * (N + 1) bytes, and no
        # states; beyond a few such arrays a pass holds one block's work, whatever N is
        path = build(random_state(8, 8, 1), random_state(8, 8, 2))
        run_transport(even_schedule(path, 4))   # warm caches outside the trace
        peaks, kept = {}, {}
        for n_steps in (1024, 8192, 16384):
            tracemalloc.start()
            try:
                schedule = even_schedule(path, n_steps)
                report = run_transport(schedule)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.n_steps == n_steps
            if n_steps < 16384:
                kept[n_steps] = schedule, report
        excess = {n: peak - 3 * 8 * (n + 1) for n, peak in peaks.items()}
        assert excess[8192] < 1.25 * excess[1024]
        assert peaks[16384] < 5 << 20
        # yields taken block by block, across every block boundary, are the whole stack's
        for schedule, report in kept.values():
            assert np.array_equal(schedule.step_yields, _step_entropies(*path.sample(schedule.ts)))
            assert np.array_equal(schedule.step_lengths, report.step_lengths)


# ---------- batched sampling and schedules against the per-sample reference ----------

PATH_KINDS = (
    "classical-geodesic",
    "classical-mixture",
    "commuting-geodesic",
    "quantum-geodesic",
    "quantum-mixture",
)
# the kinds whose reference is the Uhlmann-amplitude formula for density matrices
UHLMANN_KINDS = ("commuting-geodesic", "quantum-geodesic")


def _path_of_kind(kind, seed, dim):
    p, q = _random_pair(dim, seed)
    if kind == "classical-geodesic":
        return geodesic_path(p, q)
    if kind == "classical-mixture":
        return linear_mixture_path(p, q)
    if kind == "commuting-geodesic":
        # commuting endpoints: the two distributions in one rotated eigenbasis
        basis = _haar_basis(dim, seed)
        rho = validate_density((basis * p.array) @ basis.conj().T)
        sigma = validate_density((basis * q.array) @ basis.conj().T)
        return geodesic_path(rho, sigma)
    rank = 1 + seed % dim
    build = geodesic_path if kind == "quantum-geodesic" else linear_mixture_path
    return build(random_state(dim, rank, seed), random_state(dim, dim, seed + 1))


def _reference_point(kind, a, b):
    """The state at one parameter t, computed from the endpoints as a scalar
    formula per path kind: the reference for the batched samplers."""
    if kind == "classical-mixture":
        return lambda t: validate_distribution((1.0 - t) * a.array + t * b.array)
    if kind == "quantum-mixture":
        return lambda t: validate_density((1.0 - t) * a.array + t * b.array)
    if kind in UHLMANN_KINDS:
        # Uhlmann amplitudes sqrt(a) and sqrt(b) V W*, from sqrt(a) sqrt(b) = W S V*
        root_a, root_b = _reference_root(a.array), _reference_root(b.array)
        _, polar, chord = _reference_uhlmann(root_a, root_b)
        root_b = root_b @ polar.conj().T
    else:
        root_a, root_b = np.sqrt(a.array), np.sqrt(b.array)
        chord = _reference_chord(a, b)
    theta = 2.0 * float(np.arcsin(0.5 * chord))
    sin_theta = float(np.sin(theta))
    if sin_theta == 0.0:
        return lambda t: a

    def point(t):
        amp = (np.sin((1.0 - t) * theta) * root_a + np.sin(t * theta) * root_b) / sin_theta
        if kind in UHLMANN_KINDS:
            return validate_density(amp @ amp.conj().T)
        return validate_distribution(amp * amp)

    return point


def _reference_samples(kind, path, ts):
    point = _reference_point(kind, path.start, path.end)
    return [path.start if t == 0.0 else path.end if t == 1.0 else point(float(t)) for t in ts]


def _reference_root(mat) -> np.ndarray:
    """Square root of one density matrix, eigenvalues in descending order."""
    lam, vec = np.linalg.eigh(mat)
    lam, vec = lam[::-1].copy(), vec[:, ::-1].copy()
    # eigenvalues at or below the support floor 1e-14 count as exact zeros
    out = (vec * np.sqrt(np.where(lam > 1e-14, lam, 0.0))) @ vec.conj().T
    return 0.5 * (out + out.conj().T)


def _reference_uhlmann(root_a, root_b):
    """Fidelity, polar factor and chord ||root_a U - root_b||_F of one pair of roots."""
    w, singular, vh = np.linalg.svd(root_a.conj().T @ root_b)
    polar = w @ vh
    return min(1.0, float(np.sum(singular))), polar, float(np.sqrt(np.sum(np.abs(root_a @ polar - root_b) ** 2)))


def _reference_fidelity(a, b) -> float:
    """Fidelity of one pair, computed state by state as the reference."""
    if a.kind == "classical":
        return float(np.clip(np.sum(np.sqrt(a.array * b.array)), 0.0, 1.0))
    return _reference_uhlmann(_reference_root(a.array), _reference_root(b.array))[0]


def _reference_chord(a, b) -> float:
    """Chord sqrt(2 (1 - F)) of one pair, computed state by state as the reference."""
    if a.kind == "classical":
        return float(np.sqrt(np.sum((np.sqrt(a.array) - np.sqrt(b.array)) ** 2)))
    return _reference_uhlmann(_reference_root(a.array), _reference_root(b.array))[2]


def _reference_steps(states) -> np.ndarray:
    chords = np.array([_reference_chord(states[i], states[i + 1]) for i in range(len(states) - 1)])
    return 4.0 * np.arcsin(0.5 * chords)


def _reference_even_schedule(kind, seed, dim, n_steps):
    """The equidistribution loop of ``even_schedule``, one sample and one fidelity at a time."""
    path = _path_of_kind(kind, seed, dim)
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    best = (np.inf,)
    for _ in range(MAX_PASSES):
        steps = _reference_steps(_reference_samples(kind, path, ts))
        total = float(steps.sum())
        if total < DEGENERATE_LENGTH:
            return ts, steps
        spread = float(np.ptp(steps)) * n_steps / total
        if spread >= best[0]:
            break
        best = (spread, ts, steps)
        if spread <= max(SPREAD_TOL, STEP_NOISE * (n_steps / total) ** 2):
            break
        ts = np.interp(total * np.arange(n_steps + 1) / n_steps, np.cumsum(np.r_[0.0, steps]), ts)
        ts[0], ts[-1] = 0.0, 1.0
    return best[1:]


class TestBatchedPaths:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        kind=st.sampled_from(PATH_KINDS),
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_sample_many_rows_equal_single_samples(self, kind, seed, dim, ts):
        path = _path_of_kind(kind, seed, dim)
        ts = np.array(ts + [0.0, 1.0])
        rows = path.sample(ts)[0]
        assert rows.shape[0] == ts.size
        for k, (t, expected) in enumerate(zip(ts, _reference_samples(kind, path, ts))):
            assert np.array_equal(rows[k], path.sample([t])[0][0])
            assert np.array_equal(rows[k], expected.array)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 6))
    def test_pair_fidelities_match_reference(self, seed, dim):
        rho = random_state(dim, 1 + seed % dim, seed)
        sigma = random_state(dim, dim, seed + 1)
        assert state_fidelity(rho, sigma) == _reference_fidelity(rho, sigma)
        p, q = _random_pair(dim, seed)
        assert state_fidelity(p, q) == _reference_fidelity(p, q)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_sample_many_pins_endpoints(self, kind):
        path = _path_of_kind(kind, 5, 3)
        rows = path.sample([1.0, 0.0, 0.5, 0.0])[0]
        assert np.array_equal(rows[0], path.end.array)
        assert np.array_equal(rows[1], path.start.array)
        assert np.array_equal(rows[3], path.start.array)
        with pytest.raises(ValueError):
            rows[2][0] = 0.0

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [-0.1], [np.nan], [[0.5]]])
    def test_sample_many_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            geodesic_path(P_HALF, P_SKEW).sample(bad)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_kind_and_sample_types_come_from_the_endpoints(self, kind):
        path = _path_of_kind(kind, 5, 3)
        assert path.kind == ("classical" if kind.startswith("classical") else "quantum")
        row = path.sample([0.5])[0]
        assert (row.shape, row.dtype) == ((1,) + path.start.array.shape, path.start.array.dtype)
        with pytest.raises(AttributeError):
            path.kind = "classical"

    @pytest.mark.parametrize(
        "start, end",
        [
            (P_HALF, validate_density(np.eye(2) / 2)),
            (validate_density(np.eye(2) / 2), P_HALF),
            (P_HALF, validate_distribution([0.2, 0.3, 0.5])),
            (RHO_FULL, validate_density(np.eye(2) / 2)),
        ],
    )
    def test_endpoints_of_another_kind_or_dimension_rejected(self, start, end):
        with pytest.raises(DimensionMismatch):
            StatePath(start, end, _never)

    @pytest.mark.parametrize(
        "start, rows",
        [
            (P_HALF, lambda k: np.tile(P_HALF.array, (k + 1, 1))),
            (P_HALF, lambda k: P_HALF.array[None]),
            (P_HALF, lambda k: np.tile([0.2, 0.3, 0.5], (k, 1))),
            (RHO_FLAT, lambda k: np.tile(RHO_FLAT.array.diagonal().real, (k, 1))),
            (P_HALF, lambda k: np.tile(P_HALF.array.astype(complex), (k, 1))),
        ],
        ids=["extra-row", "one-row-for-many", "other-dim", "vector-rows-on-quantum", "complex-weights"],
    )
    def test_sampler_output_of_the_wrong_shape_or_type_rejected(self, start, rows):
        path = StatePath(start, start, lambda ts: rows(ts.size))
        with pytest.raises(ValidationError):
            path.sample([0.25, 0.5, 0.75])

    def test_sampler_output_is_validated(self):
        # a user sampler whose rows carry roundoff gets them repaired
        raw = np.array([0.5 + 1e-12, 0.5])
        path = StatePath(P_HALF, P_SKEW, lambda ts: np.tile(raw, (ts.size, 1)))
        assert np.array_equal(path.sample([0.5])[0][0], validate_distribution(raw).array)

    @settings(deadline=None, derandomize=True, max_examples=12)
    @given(
        kind=st.sampled_from(PATH_KINDS),
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 4),
        n_steps=st.integers(1, 12),
    )
    def test_even_schedule_matches_per_sample_reference(self, kind, seed, dim, n_steps):
        path = _path_of_kind(kind, seed, dim)
        schedule = even_schedule(path, n_steps)
        ts, steps = _reference_even_schedule(kind, seed, dim, n_steps)
        assert np.array_equal(schedule.ts, ts)
        assert np.array_equal(schedule.step_lengths, steps)

    @pytest.mark.parametrize("n_steps", [1, 16])
    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_schedule_states_match_reference(self, kind, n_steps):
        path = _path_of_kind(kind, 11, 4)
        schedule = even_schedule(path, n_steps)
        ts, steps = _reference_even_schedule(kind, 11, 4, n_steps)
        assert np.array_equal(schedule.ts, ts)
        assert np.array_equal(schedule.step_lengths, steps)
        rows, dec = path.sample(schedule.ts)
        assert rows.shape[0] == n_steps + 1
        for row, expected in zip(rows, _reference_samples(kind, path, ts)):
            assert np.array_equal(row, expected.array)
        assert np.array_equal(schedule.step_yields, _step_entropies(rows, dec))

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_discrete_length_matches_reference(self, kind):
        path = _path_of_kind(kind, 13, 3)
        states = _reference_samples(kind, path, np.linspace(0.0, 1.0, 41))
        assert np.array_equal(_steps(path, 40), _reference_steps(states))


# ---------- a grid of schedules in lockstep against one schedule per N ----------

def _schedule_bytes(schedule) -> list:
    """The bytes of a schedule's ts, step lengths and step yields."""
    return [a.tobytes() for a in (schedule.ts, schedule.step_lengths, schedule.step_yields)]


def _logged(caplog, run):
    """``run()`` and the args of the DEBUG records it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="statlen"):
        out = run()
    return out, [r.args for r in caplog.records if r.name == "statlen.geometry"]


def _assert_grid_is_single_calls(caplog, path, grid):
    schedules, args = _logged(caplog, lambda: even_schedule(path, grid))
    assert len(schedules) == len(args) == len(grid)
    for n, schedule, logged in zip(grid, schedules, args):
        alone, (alone_logged,) = _logged(caplog, lambda: even_schedule(path, n))
        assert logged == alone_logged and logged[0] == n
        assert _schedule_bytes(schedule) == _schedule_bytes(alone)
        assert not any(a.flags.writeable for a in (schedule.ts, schedule.step_lengths, schedule.step_yields))
        assert schedule.start is path.start and schedule.end is path.end
        # the carried yields are those of the states at the kept ts, sampled again as one stack
        assert np.array_equal(schedule.step_yields, _step_entropies(*path.sample(schedule.ts)))
    return args


GRID = [64, 1, 16, 64, 7]   # unsorted, with a duplicate and N = 1


class TestScheduleGrid:
    """A sequence of N runs its passes in lockstep, each N bit for bit as when alone."""

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_grid_is_single_calls(self, caplog, kind):
        _assert_grid_is_single_calls(caplog, _path_of_kind(kind, 5, 3), GRID)

    @pytest.mark.parametrize(
        "start, end",
        [
            (random_state(2, 1, 3), random_state(2, 2, 4)),
            (random_state(3, 1, 5), random_state(3, 3, 6)),
            (validate_distribution([0.5, 0.5, 0.0, 0.0]), random_distribution(4, 9)),
        ],
        ids=["rank-1-qubit", "rank-1-qutrit", "zero-weights"],
    )
    def test_rank_deficient_mixture(self, caplog, start, end):
        args = _assert_grid_is_single_calls(caplog, linear_mixture_path(start, end), GRID + [256])
        assert max(a[1] for a in args) > 1   # the N leave the lockstep at different rounds

    def test_stalling_sampler(self, caplog):
        geo = geodesic_path(P_HALF, P_SKEW)
        path = StatePath(P_HALF, P_SKEW, lambda ts: geo.sample(np.floor(ts * 5) / 5)[0])
        args = _assert_grid_is_single_calls(caplog, path, [16, 8, 64, 8])
        assert {a[2] for a in args} == {"stall"}

    def test_pass_cap(self, caplog, monkeypatch):
        monkeypatch.setattr("statlen.geometry.MAX_PASSES", 3)
        path = linear_mixture_path(random_state(2, 1, 3), random_state(2, 2, 4))
        args = _assert_grid_is_single_calls(caplog, path, [64, 1, 256])
        assert [a[1:3] for a in args] == [(3, "pass cap"), (1, "tolerance"), (3, "pass cap")]

    def test_degenerate_path(self, caplog):
        args = _assert_grid_is_single_calls(caplog, linear_mixture_path(RHO_FULL, RHO_FULL), [16, 1])
        assert [a[1:] for a in args] == [(1, "degenerate", 0.0)] * 2

    def test_an_int_is_the_one_element_grid(self):
        path = linear_mixture_path(random_state(2, 1, 3), random_state(2, 2, 4))
        (listed,) = even_schedule(path, [64])
        assert _schedule_bytes(listed) == _schedule_bytes(even_schedule(path, 64))

    def test_grid_refusals(self, monkeypatch):
        path = StatePath(P_HALF, P_SKEW, _never)
        with pytest.raises(ValueError, match="at least one N"):
            even_schedule(path, [])
        with pytest.raises(ValueError, match="at least one step"):
            even_schedule(path, [16, 0])
        with pytest.raises(DimensionCapExceeded, match="largest feasible N is 65536"):
            even_schedule(path, [16, MAX_STEPS + 1])
        # rows of 2 entries: a cap of 200 entries holds 100 rows, one N of 99 but not N 49 and 50
        monkeypatch.setattr("statlen.geometry.MAX_SCHEDULE_ENTRIES", 200)
        even_schedule(geodesic_path(P_HALF, P_SKEW), [99])
        with pytest.raises(DimensionCapExceeded) as err:
            even_schedule(path, [49, 50])
        assert err.value.max_feasible == 100
        assert "N + 1 summed over the grid's distinct N (states of 2 entries) 101 exceeds cap 100" in str(err.value)
        # a duplicate N is sampled once per round, so it counts once
        assert len(even_schedule(geodesic_path(P_HALF, P_SKEW), [99, 99])) == 2

    def test_a_duplicate_n_is_sampled_once_per_round(self, caplog):
        mixture = linear_mixture_path(random_state(2, 1, 3), random_state(2, 2, 4))
        calls = []

        def counting(ts):
            calls.append(ts.size)
            return mixture.sampler(ts)

        path = StatePath(mixture.start, mixture.end, counting)
        distinct, _ = _logged(caplog, lambda: even_schedule(path, [16, 64]))
        sampled, calls[:] = calls[:], []
        repeated, args = _logged(caplog, lambda: even_schedule(path, [64, 16, 64]))
        assert calls == sampled and len(calls) > 1
        assert [a[0] for a in args] == [64, 16, 64] and args[0] == args[2]
        assert [_schedule_bytes(s) for s in repeated] == [_schedule_bytes(s) for s in distinct[::-1] + distinct[1:]]
