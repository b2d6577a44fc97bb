import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statlen import (
    DensityMatrix,
    DimensionCapExceeded,
    DimensionMismatch,
    PathLengthReport,
    ProbabilityDistribution,
    RankDeficient,
    StatePath,
    SupportViolation,
    TangentPerturbation,
    ValidationError,
    add_ridge,
    discrete_path_length,
    even_schedule,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    hellinger_element,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    random_distribution,
    random_state,
    relative_entropy,
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
)

P_HALF = validate_distribution([0.5, 0.5])
P_SKEW = validate_distribution([0.9, 0.1])
# sqrt(0.45) + sqrt(0.05), evaluated independently
F_DOC = 0.8944271909999159
RHO_FLAT = validate_density(np.diag([0.2] * 5))
RHO_FULL = random_state(3, 3, 4)


def _random_pair(dim, seed):
    return random_distribution(dim, seed), random_distribution(dim, seed + 1000)


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
            exact = np.sqrt(np.real(np.trace(psi.matrix @ sigma.matrix)))
            assert abs(state_fidelity(psi, sigma) - exact) < 1e-13
            assert abs(state_fidelity(sigma, psi) - exact) < 1e-13

    def test_quantum_orthogonal_pure(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_quantum_matches_classical_on_diagonals(self):
        rho = validate_density(np.diag(P_HALF.weights))
        sigma = validate_density(np.diag(P_SKEW.weights))
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
            if np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-4:
                assert f < 1.0 - 1e-9

    def test_unit_fidelity_means_equal(self):
        rho = random_state(3, 3, 7)
        bumped = validate_density(rho.matrix + np.diag([1e-10, -1e-10, 0.0]))
        assert state_fidelity(rho, bumped) > 1.0 - 1e-8
        assert np.max(np.abs(rho.matrix - bumped.matrix)) < 1e-8


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
        with pytest.raises(SupportViolation):
            metric_element(p, tangent_classical([1.0, -1.0]), 0.01)

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
                0.5 * random_state(dim, dim, seed).matrix + 0.5 * np.eye(dim) / dim
            )
            rng = np.random.default_rng(seed + 10)
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            raw = raw + raw.conj().T
            raw -= np.trace(raw).real * np.eye(dim) / dim
            drho = tangent_quantum(raw / np.linalg.norm(raw, 2))
            devs = []
            for eps in (1e-3, 1e-4):
                pert = validate_density(rho.matrix + eps * drho.delta)
                chord = 8.0 * (1.0 - state_fidelity(rho, pert))
                devs.append(abs(chord / metric_element(rho, drho, eps) - 1.0))
            assert devs[1] <= devs[0] / 5.0

    def test_hellinger_zero_direction(self):
        rho = validate_density(np.diag([0.6, 0.4]))
        zero = tangent_quantum(np.zeros((2, 2)))
        assert hellinger_element(rho, zero, 0.01) == pytest.approx(0.0, abs=1e-14)

    def test_hellinger_commuting_matches_scalar_oracle(self):
        # diagonal case reduces to 4 sum (sqrt(p + eps d) - sqrt(p))^2
        p = np.array([0.9, 0.1])
        d = np.array([1.0, -1.0])
        rho = validate_density(np.diag(p))
        drho = tangent_quantum(np.diag(d).astype(complex))
        for eps in (1e-2, 1e-3):
            oracle = 4.0 * np.sum((np.sqrt(p + eps * d) - np.sqrt(p)) ** 2)
            assert hellinger_element(rho, drho, eps) == pytest.approx(oracle, rel=1e-10)

    def test_hellinger_commuting_approaches_bures(self):
        rho = validate_density(np.diag([0.9, 0.1]))
        drho = tangent_quantum(np.diag([1.0, -1.0]).astype(complex))
        diffs = []
        for eps in (1e-2, 1e-3):
            diffs.append(abs(hellinger_element(rho, drho, eps) - metric_element(rho, drho, eps)))
        # absolute mismatch is third order in eps
        assert diffs[0] < 1e-4
        assert diffs[1] < diffs[0] / 100.0

    def test_hellinger_noncommuting_ratio_logged_not_unity(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        drho = tangent_quantum(
            np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]], dtype=complex)
        )
        ratio = hellinger_element(rho, drho, 1e-4) / metric_element(rho, drho, 1e-4)
        assert 1.0 - 1e-9 <= ratio <= 2.0

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
        pert = validate_density(rho.matrix + eps * drho.delta)
        ratio = 2.0 * relative_entropy(rho, pert) / kubo_mori_element(rho, drho, eps)
        assert abs(ratio - 1.0) < 1e-3

    def test_rank_deficient_guards_all_elements(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        drho = tangent_quantum(np.diag([1.0, -1.0]).astype(complex))
        for element in (hellinger_element, kubo_mori_element):
            with pytest.raises(RankDeficient):
                element(rho, drho, 0.001)

    @pytest.mark.parametrize("element", [metric_element, hellinger_element, kubo_mori_element])
    def test_tangent_of_another_kind_or_dimension_rejected(self, element):
        """Refused as a mismatch before any arithmetic, not with numpy's LinAlgError."""
        rho = validate_density(np.eye(2) / 2)
        for state, tangent in (
            (P_HALF, tangent_quantum(np.diag([1.0, -1.0]))),
            (rho, tangent_classical([1.0, -1.0])),
            (P_HALF, tangent_classical([1.0, 0.0, -1.0])),
            (rho, tangent_quantum(np.diag([1.0, 0.0, -1.0]))),
            (P_HALF.weights, tangent_classical([1.0, -1.0])),
            # a tangent whose shape is another kind's, built by hand
            (P_HALF, TangentPerturbation(np.array([[1.0, -1.0], [0.5, -0.5]]))),
            (rho, TangentPerturbation(np.array([1.0, -1.0]))),
        ):
            with pytest.raises(DimensionMismatch):
                element(state, tangent, 0.01)

    def test_hellinger_refuses_a_probability_vector(self):
        with pytest.raises(DimensionMismatch, match="density matrix"):
            hellinger_element(P_HALF, tangent_classical([1.0, -1.0]), 0.01)


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
        start, mid, end = path.sample([0.0, 0.5, 1.0])
        assert np.array_equal(start, P_HALF.weights)
        assert np.array_equal(end, P_SKEW.weights)
        assert abs(mid.sum() - 1.0) < 1e-12

    def test_classical_geodesic_constant_for_equal_endpoints(self):
        path = geodesic_path(P_HALF, P_HALF)
        assert np.allclose(path.sample([0.37])[0], P_HALF.weights)

    def test_classical_geodesic_length_is_analytic(self):
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        report = discrete_path_length(geodesic_path(a, b), 10_000)
        assert report.total_length == pytest.approx(np.pi, abs=1e-6)

    def test_classical_geodesic_length_d3(self):
        p, q = _random_pair(3, 17)
        expected = geodesic_length_fisher(state_fidelity(p, q))
        report = discrete_path_length(geodesic_path(p, q), 2048)
        assert report.total_length == pytest.approx(expected, abs=1e-9)

    def test_commuting_geodesic_matches_classical_in_rotated_basis(self):
        basis = _haar_basis(3, 5)
        p, q = _random_pair(3, 23)
        rho = validate_density((basis * p.weights) @ basis.conj().T)
        sigma = validate_density((basis * q.weights) @ basis.conj().T)
        path = geodesic_path(rho, sigma)
        assert np.array_equal(path.sample([0.0])[0], rho.matrix)
        expected = geodesic_length_fisher(state_fidelity(p, q))
        report = discrete_path_length(path, 256)
        assert report.total_length == pytest.approx(expected, abs=1e-8)
        # the states are the classical path's states, rotated into the common basis
        ts = np.linspace(0.0, 1.0, 9)
        lifted = (basis * geodesic_path(p, q).sample(ts)[:, None, :]) @ basis.conj().T
        assert np.allclose(path.sample(ts), lifted, rtol=0.0, atol=1e-12)

    def test_geodesic_joins_noncommuting_states(self):
        rho = validate_density(np.diag([0.8, 0.2]))
        plus = validate_density(np.full((2, 2), 0.5))
        path = geodesic_path(rho, plus)
        assert path.kind == "quantum"
        expected = geodesic_length_fisher(state_fidelity(rho, plus))
        report = discrete_path_length(path, 256)
        assert report.total_length == pytest.approx(expected, abs=1e-8)

    def test_geodesic_rejects_mixed_kinds(self):
        # every caller of the one state-pair check: paths, fidelity,
        # relative entropy and the reservoir step
        rho_half = validate_density(np.diag(P_HALF.weights))
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
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                call(P_HALF, validate_distribution([0.2, 0.3, 0.5]))
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                call(rho_half, validate_density(np.eye(3) / 3))

    def test_mixture_endpoints_and_midpoint(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        path = linear_mixture_path(a, b)
        start, mid = path.sample([0.0, 0.5])
        assert np.array_equal(start, a.matrix)
        assert np.allclose(mid, np.eye(2) / 2)

    def test_mixture_is_longer_than_geodesic_d3(self):
        # strict once the simplex has more than one dimension
        p, q = _random_pair(3, 31)
        geo = discrete_path_length(geodesic_path(p, q), 512)
        mix = discrete_path_length(linear_mixture_path(p, q), 512)
        assert mix.total_length > geo.total_length + 1e-6

    def test_mixture_degenerate_d2_matches_geodesic(self):
        # the 1-simplex has a single image between its endpoints, so the
        # mixture path cannot be longer; only its parametrization differs
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        mix = discrete_path_length(linear_mixture_path(a, b), 4096)
        assert mix.total_length == pytest.approx(np.pi, abs=1e-9)

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
        f = state_fidelity(*map(DensityMatrix, path.sample([s, t])))
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
        theta = np.arccos(abs(np.vdot(vector(rho.matrix), vector(sigma.matrix))))
        rows = geodesic_path(rho, sigma).sample([s, t])
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
        f = state_fidelity(*map(DensityMatrix, path.sample([s, t])))
        assert abs(f - np.cos(abs(t - s) * theta)) <= 1e-7

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 5))
    def test_diagonal_pair_samples_the_probability_pair(self, seed, dim):
        p, q = _random_pair(dim, seed)
        ts = np.linspace(0.0, 1.0, 11)
        classical = geodesic_path(p, q).sample(ts)
        quantum = geodesic_path(
            validate_density(np.diag(p.weights)), validate_density(np.diag(q.weights))
        ).sample(ts)
        diagonal = classical[:, None, :] * np.eye(dim)
        assert np.allclose(quantum, diagonal, rtol=0.0, atol=1e-12)

    def test_diagonal_rank_deficient_pair_samples_the_probability_pair(self):
        # Rank-deficient pairs can have several geodesics.  The SVD of the
        # diagonal sqrt(rho) sqrt(sigma) completes both sides with the same
        # unit vectors, so U = I and the classical one is returned.
        p = validate_distribution([0.6, 0.4, 0.0])
        q = validate_distribution([0.0, 0.3, 0.7])
        ts = np.linspace(0.0, 1.0, 11)
        classical = geodesic_path(p, q).sample(ts)
        quantum = geodesic_path(
            validate_density(np.diag(p.weights)), validate_density(np.diag(q.weights))
        ).sample(ts)
        assert np.allclose(quantum, classical[:, None, :] * np.eye(3), rtol=0.0, atol=1e-12)

    def test_unit_fidelity_gives_the_constant_path(self):
        ts = np.linspace(0.0, 1.0, 7)
        # F computes to exactly 1 here, so sin(theta) == 0
        for state in (P_SKEW, validate_density(np.diag([1.0, 0.0]))):
            raw = _raw(state)
            samples = geodesic_path(state, state).sample(ts)
            assert np.array_equal(samples, np.broadcast_to(raw, (7,) + raw.shape))
        # here F is 1 to roundoff, and the path stays on the state to roundoff
        for state in (_pure([1.0, 1j]), random_state(3, 3, 4)):
            samples = geodesic_path(state, state).sample(ts)
            assert np.allclose(samples, state.matrix, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("pair", [([1.0, 0.0], [0.0, 1.0]), ([1.0, 1j], [1.0, -1j])])
    def test_orthogonal_pure_qubits_have_length_pi(self, pair):
        path = geodesic_path(_pure(pair[0]), _pure(pair[1]))
        for n in (1, 16, 64):
            assert discrete_path_length(path, n).total_length == pytest.approx(
                np.pi, abs=1e-10
            )


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
                    length = discrete_path_length(build(state, state), n).total_length
                    assert 0.0 <= length <= 1e-14 * n ** per_step

    def test_n_cap(self):
        path = StatePath(P_HALF, P_SKEW, _never)
        with pytest.raises(DimensionCapExceeded) as err:
            discrete_path_length(path, MAX_STEPS + 1)
        assert err.value.max_feasible == MAX_STEPS
        assert f"largest feasible N is {MAX_STEPS}" in str(err.value)

    @pytest.mark.parametrize("n_steps", [16, 256, 4096])
    def test_geodesic_length_is_twice_theta_to_roundoff(self, n_steps):
        pairs = [
            _random_pair(3, 5),
            (random_state(3, 3, 5), random_state(3, 3, 6)),
            (random_state(3, 1, 7), random_state(3, 2, 8)),
        ]
        for a, b in pairs:
            expected = geodesic_length_fisher(state_fidelity(a, b))
            length = discrete_path_length(geodesic_path(a, b), n_steps).total_length
            assert abs(length - expected) <= 1e-13

    def test_report_consistency(self):
        path = geodesic_path(P_HALF, P_SKEW)
        report = discrete_path_length(path, 16)
        assert report.n_steps == 16
        assert np.all(report.step_lengths >= 0)
        assert report.total_length == pytest.approx(report.step_lengths.sum(), abs=1e-12)

    def test_report_reads_total_and_count_from_its_steps(self):
        """A report once took both as fields and accepted any that disagreed."""
        report = PathLengthReport(np.zeros(3))
        assert (report.n_steps, report.total_length) == (3, 0.0)
        with pytest.raises(TypeError):
            PathLengthReport(1.0, np.zeros(3), 7)

    def test_monotone_refinement_arc(self):
        p, q = _random_pair(4, 3)
        path = linear_mixture_path(p, q)
        for n in (4, 8, 16, 32):
            coarse = discrete_path_length(path, n).total_length
            fine = discrete_path_length(path, 2 * n).total_length
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
        assert discrete_path_length(path, n_steps).total_length == pytest.approx(expected, abs=1e-9)
        assert even_schedule(path, n_steps).step_lengths.sum() == pytest.approx(expected, abs=1e-9)


def _spread(steps) -> float:
    return float(np.ptp(steps) / np.mean(steps))


class TestEvenSchedule:
    def test_n_cap(self):
        path = StatePath(P_HALF, P_SKEW, _never)
        with pytest.raises(DimensionCapExceeded) as err:
            even_schedule(path, 65537)
        assert err.value.max_feasible == 65536
        assert "largest feasible N is 65536" in str(err.value)

    def test_rows_stack_cap(self):
        # (N + 1) d^2 entries: d = 64 allows N up to 2**24 // 4096 - 1, refused unsampled
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
        skewed = StatePath(P_HALF, P_SKEW, lambda ts: geo.sample(ts * ts * ts))
        schedule = even_schedule(skewed, 16)
        steps = schedule.step_lengths
        assert np.max(np.abs(steps / steps.mean() - 1.0)) < 1e-7
        # oracle: each step carries 1/N of the length on a fine uniform grid
        total = discrete_path_length(geo, 4096).total_length
        assert np.allclose(steps, total / 16, rtol=2e-3)

    def test_single_step(self):
        schedule = even_schedule(geodesic_path(P_HALF, P_SKEW), 1)
        assert schedule.n_steps == 1
        assert np.array_equal(schedule.rows, np.stack((P_HALF.weights, P_SKEW.weights)))

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
    def test_sampler_runs_once_per_pass_and_once_for_the_rows(self, caplog, start, end):
        # N + 1 states fit one block, so each pass samples them in one call,
        # and the kept parameters are sampled once more for the rows
        mixture = linear_mixture_path(start, end)
        calls = []

        def counting(ts):
            calls.append(ts.size)
            return mixture.sampler(ts)

        with caplog.at_level(logging.DEBUG, logger="statlen"):
            schedule = even_schedule(StatePath(start, end, counting), 64)
        passes = caplog.records[0].args[1]
        assert passes > 1
        assert calls == [63] * (passes + 1)
        assert np.array_equal(schedule.rows, mixture.sample(schedule.ts))


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


def _raw(state) -> np.ndarray:
    return state.weights if isinstance(state, ProbabilityDistribution) else state.matrix


def _path_of_kind(kind, seed, dim):
    p, q = _random_pair(dim, seed)
    if kind == "classical-geodesic":
        return geodesic_path(p, q)
    if kind == "classical-mixture":
        return linear_mixture_path(p, q)
    if kind == "commuting-geodesic":
        # commuting endpoints: the two distributions in one rotated eigenbasis
        basis = _haar_basis(dim, seed)
        rho = validate_density((basis * p.weights) @ basis.conj().T)
        sigma = validate_density((basis * q.weights) @ basis.conj().T)
        return geodesic_path(rho, sigma)
    rank = 1 + seed % dim
    build = geodesic_path if kind == "quantum-geodesic" else linear_mixture_path
    return build(random_state(dim, rank, seed), random_state(dim, dim, seed + 1))


def _reference_point(kind, a, b):
    """The state at one parameter t, computed from the endpoints as a scalar
    formula per path kind: the reference for the batched samplers."""
    if kind == "classical-mixture":
        return lambda t: validate_distribution((1.0 - t) * a.weights + t * b.weights)
    if kind == "quantum-mixture":
        return lambda t: validate_density((1.0 - t) * a.matrix + t * b.matrix)
    if kind in UHLMANN_KINDS:
        # Uhlmann amplitudes sqrt(a) and sqrt(b) V W*, from sqrt(a) sqrt(b) = W S V*
        root_a, root_b = _reference_root(a.matrix), _reference_root(b.matrix)
        _, polar, chord = _reference_uhlmann(root_a, root_b)
        root_b = root_b @ polar.conj().T
    else:
        root_a, root_b = np.sqrt(a.weights), np.sqrt(b.weights)
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
    if isinstance(a, ProbabilityDistribution):
        return float(np.clip(np.sum(np.sqrt(a.weights * b.weights)), 0.0, 1.0))
    return _reference_uhlmann(_reference_root(a.matrix), _reference_root(b.matrix))[0]


def _reference_chord(a, b) -> float:
    """Chord sqrt(2 (1 - F)) of one pair, computed state by state as the reference."""
    if isinstance(a, ProbabilityDistribution):
        return float(np.sqrt(np.sum((np.sqrt(a.weights) - np.sqrt(b.weights)) ** 2)))
    return _reference_uhlmann(_reference_root(a.matrix), _reference_root(b.matrix))[2]


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
        rows = path.sample(ts)
        assert rows.shape[0] == ts.size
        for k, (t, expected) in enumerate(zip(ts, _reference_samples(kind, path, ts))):
            assert np.array_equal(rows[k], path.sample([t])[0])
            assert np.array_equal(rows[k], _raw(expected))

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
        rows = path.sample([1.0, 0.0, 0.5, 0.0])
        assert np.array_equal(rows[0], _raw(path.end))
        assert np.array_equal(rows[1], _raw(path.start))
        assert np.array_equal(rows[3], _raw(path.start))
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
        row = path.sample([0.5])
        assert (row.shape, row.dtype) == ((1,) + _raw(path.start).shape, _raw(path.start).dtype)
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
            (P_HALF, lambda k: np.tile(P_HALF.weights, (k + 1, 1))),
            (P_HALF, lambda k: P_HALF.weights[None]),
            (P_HALF, lambda k: np.tile([0.2, 0.3, 0.5], (k, 1))),
            (RHO_FLAT, lambda k: np.tile(RHO_FLAT.matrix.diagonal().real, (k, 1))),
            (P_HALF, lambda k: np.tile(P_HALF.weights.astype(complex), (k, 1))),
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
        assert np.array_equal(path.sample([0.5])[0], validate_distribution(raw).weights)

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
        assert schedule.rows.shape[0] == n_steps + 1
        for row, expected in zip(schedule.rows, _reference_samples(kind, path, ts)):
            assert np.array_equal(row, _raw(expected))

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_discrete_length_matches_reference(self, kind):
        path = _path_of_kind(kind, 13, 3)
        report = discrete_path_length(path, 40)
        states = _reference_samples(kind, path, np.linspace(0.0, 1.0, 41))
        assert np.array_equal(report.step_lengths, _reference_steps(states))
