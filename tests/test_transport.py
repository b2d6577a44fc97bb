import math

import numpy as np
import pytest

from statlen import (
    DimensionMismatch,
    InfiniteYield,
    ProbabilityDistribution,
    RankDeficient,
    ValidationError,
    even_schedule,
    expansion_probe,
    geodesic_bound,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    linear_mixture_path,
    min_entropy_production,
    random_distribution,
    random_state,
    relative_entropy,
    run_transport,
    state_fidelity,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen.geometry import TransportSchedule

P_HALF = validate_distribution([0.5, 0.5])
P_SKEW = validate_distribution([0.9, 0.1])
KL_DOC = 0.5108256237659905  # 0.5 ln(25/9), evaluated independently


class TestRelativeEntropy:
    def test_self_is_zero(self):
        assert relative_entropy(P_HALF, P_HALF) == 0.0
        rho = random_state(4, 4, 9)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_support_violation_is_infinite(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert math.isinf(relative_entropy(a, b))
        pa = validate_distribution([1.0, 0.0])
        pb = validate_distribution([0.0, 1.0])
        assert math.isinf(relative_entropy(pa, pb))

    def test_documented_kl_value(self):
        assert relative_entropy(P_HALF, P_SKEW) == pytest.approx(KL_DOC, abs=1e-12)

    def test_quantum_matches_classical_on_diagonals(self):
        rho = validate_density(np.diag(P_HALF.weights))
        sigma = validate_density(np.diag(P_SKEW.weights))
        assert relative_entropy(rho, sigma) == pytest.approx(KL_DOC, abs=1e-10)

    def test_nonnegative_and_separating(self):
        for seed in range(6):
            rho = random_state(3, 3, seed)
            sigma = random_state(3, 3, seed + 60)
            value = relative_entropy(rho, sigma)
            assert value >= 0.0
            if np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-4:
                assert value > 1e-9

    @pytest.mark.parametrize("t", [1e-13, 1e-10, 1e-6])
    def test_nearly_singular_second_argument(self, t):
        # r = b/a far below one: ln r, not log1p(r - 1), keeps the digits of t
        expected = -math.log(2.0) - 0.5 * math.log1p(-t) - 0.5 * math.log(t)
        q = np.array([1.0 - t, t])
        classical = relative_entropy(P_HALF, validate_distribution(q))
        quantum = relative_entropy(validate_density(np.eye(2) / 2), validate_density(np.diag(q)))
        assert classical == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert quantum == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_asymmetric_in_general(self):
        assert relative_entropy(P_HALF, P_SKEW) != pytest.approx(
            relative_entropy(P_SKEW, P_HALF), abs=1e-3
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(P_HALF, validate_distribution([1, 0, 0]))
        with pytest.raises(DimensionMismatch):
            relative_entropy(P_HALF, random_state(2, 2, 0))


class TestClosedForms:
    def test_min_entropy_production_trivials(self):
        assert min_entropy_production(0.0, 10) == 0.0
        assert min_entropy_production(np.pi, 100) == pytest.approx(
            0.049348022005446790, rel=1e-12
        )

    def test_min_entropy_production_halves_with_n(self):
        value = min_entropy_production(0.7, 64)
        assert min_entropy_production(0.7, 128) == value / 2.0

    def test_geodesic_bound_trivials(self):
        assert geodesic_bound(1.0, 4, "quantum") == 0.0
        assert geodesic_bound(1.0, 4, "classical") == 0.0
        assert geodesic_bound(0.0, 2, "quantum") == pytest.approx(1.0, rel=1e-12)
        # (2/N)(arccos 0)^2 at N = 2 is pi^2/4, the quarter-circle energy
        assert geodesic_bound(0.0, 2, "classical") == pytest.approx(
            np.pi * np.pi / 4.0, rel=1e-12
        )

    def test_geodesic_bound_is_min_production_at_geodesic_length(self):
        for f in np.linspace(0.0, 1.0, 11):
            for n in (1, 8, 64):
                assert geodesic_bound(f, n, "classical") == pytest.approx(
                    min_entropy_production(geodesic_length_fisher(f), n), abs=1e-12
                )
                assert geodesic_bound(f, n, "quantum") == pytest.approx(
                    min_entropy_production(geodesic_length_bures(f), n), abs=1e-12
                )


class TestRunTransport:
    def test_single_step_documented_pair(self):
        schedule = even_schedule(geodesic_path(P_HALF, P_SKEW), 1)
        report = run_transport(schedule)
        assert report.total_entropy == pytest.approx(KL_DOC, abs=1e-12)
        assert report.n_steps == 1

    def test_constant_path_produces_nothing(self):
        schedule = even_schedule(linear_mixture_path(P_HALF, P_HALF), 8)
        report = run_transport(schedule)
        assert report.total_entropy == pytest.approx(0.0, abs=1e-12)

    def test_report_totals_and_bounds(self):
        path = geodesic_path(P_HALF, P_SKEW)
        report = run_transport(even_schedule(path, 64))
        assert report.total_entropy == pytest.approx(report.step_yields.sum(), abs=1e-12)
        assert np.all(report.step_yields >= 0.0)
        assert report.nu == pytest.approx(64 / report.total_length, rel=1e-12)
        assert report.bound_path_length == pytest.approx(
            report.total_length**2 / 128.0, rel=1e-12
        )
        # neither bound exceeds the measured production (5% asymptotic slack)
        assert report.total_entropy >= report.bound_fidelity * (1.0 - 0.05)
        assert report.total_entropy >= report.bound_path_length * (1.0 - 0.05)

    def test_scaling_toward_minimum(self):
        path = geodesic_path(P_HALF, P_SKEW)
        ell = geodesic_length_fisher(state_fidelity(P_HALF, P_SKEW))
        half_sq = ell * ell / 2.0
        devs = {}
        for n in (64, 128):
            report = run_transport(even_schedule(path, n))
            devs[n] = abs(n * report.total_entropy - half_sq) / half_sq
        assert devs[64] < 0.02
        assert devs[128] <= 0.6 * devs[64]

    def test_rate_ratio_near_one(self):
        path = geodesic_path(P_HALF, P_SKEW)
        report = run_transport(even_schedule(path, 128))
        rate = report.total_entropy / report.total_length
        # the dissipation rate per unit length at step density nu is 1/(2 nu)
        assert rate == pytest.approx(1.0 / (2.0 * report.nu), rel=0.02)

    def test_infinite_yield_reports_step(self):
        a = validate_distribution([1.0, 0.0])
        b = validate_distribution([0.0, 1.0])
        schedule = even_schedule(linear_mixture_path(a, b), 4)
        with pytest.raises(InfiniteYield) as err:
            run_transport(schedule)
        assert err.value.step == 3

    def test_even_beats_random_monotone_reallocations(self):
        path = geodesic_path(P_HALF, P_SKEW)
        even = run_transport(even_schedule(path, 32)).total_entropy
        rng = np.random.default_rng(123)
        for _ in range(20):
            interior = np.sort(rng.uniform(0.0, 1.0, 31))
            ts = np.concatenate(([0.0], interior, [1.0]))
            states = [ProbabilityDistribution(row) for row in path.sample(ts)]
            total = sum(
                relative_entropy(states[i], states[i + 1]) for i in range(32)
            )
            assert even <= total * (1.0 + 1e-3)

    def test_diagonal_quantum_transport_matches_classical(self):
        # both kinds measure steps by the Bures angle, so the schedules agree step by step
        pairs = [(P_HALF, P_SKEW)] + [
            (random_distribution(d, 10 * d), random_distribution(d, 10 * d + 1)) for d in (3, 4)
        ]
        for (p, q), n in zip(pairs, (32, 16, 64)):
            rho, sigma = (validate_density(np.diag(s.weights)) for s in (p, q))
            q_schedule = even_schedule(geodesic_path(rho, sigma), n)
            c_schedule = even_schedule(geodesic_path(p, q), n)
            assert np.allclose(q_schedule.ts, c_schedule.ts, rtol=0.0, atol=1e-6)
            assert np.allclose(q_schedule.step_lengths, c_schedule.step_lengths, rtol=0.0, atol=1e-8)
            quantum, classical = run_transport(q_schedule), run_transport(c_schedule)
            assert quantum.total_entropy == pytest.approx(classical.total_entropy, abs=1e-9)


class TestExpansionProbe:
    def test_classical_symmetric_point(self):
        probe = expansion_probe(P_HALF, tangent_classical([1.0, -1.0]), [1e-3])
        assert abs(probe.ratio_metric[0] - 1.0) < 5e-3
        assert probe.metric_name == "fisher"
        assert np.array_equal(probe.ratio_metric, probe.ratio_kubo_mori)

    def test_classical_deviation_shrinks_linearly(self):
        p = validate_distribution([0.5, 0.3, 0.2])
        dp = tangent_classical([1.0, -0.4, -0.6])
        probe = expansion_probe(p, dp, [1e-3, 1e-4])
        devs = np.abs(probe.ratio_metric - 1.0)
        assert devs[1] <= devs[0] / 5.0

    def test_commuting_quantum_matches_classical(self):
        p = validate_distribution([0.5, 0.3, 0.2])
        dp = tangent_classical([1.0, -0.4, -0.6])
        rho = validate_density(np.diag(p.weights))
        drho = tangent_quantum(np.diag(dp.delta).astype(complex))
        eps = [1e-2, 1e-3]
        classical = expansion_probe(p, dp, eps)
        quantum = expansion_probe(rho, drho, eps)
        assert np.allclose(classical.ratio_metric, quantum.ratio_metric, atol=1e-10)

    def test_noncommuting_table_reports_both_columns(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        drho = tangent_quantum(
            np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]], dtype=complex)
        )
        probe = expansion_probe(rho, drho, [1e-3, 1e-4])
        assert probe.metric_name == "bures"
        # the Kubo-Mori column is the exact second-order form
        assert abs(probe.ratio_kubo_mori[-1] - 1.0) < 1e-3
        # the Bures column converges to something else; report, don't assert unity
        assert np.all(np.isfinite(probe.ratio_metric))
        assert np.all(probe.ratio_metric > 0.0)

    def test_eps_grid_validation(self):
        dp = tangent_classical([1.0, -1.0])
        with pytest.raises(ValueError):
            expansion_probe(P_HALF, dp, [1e-4, 1e-3])  # ascending
        with pytest.raises(ValueError):
            expansion_probe(P_HALF, dp, [0.0])

    def test_rank_deficient_state_rejected(self):
        p = validate_distribution([1.0, 0.0])
        with pytest.raises(RankDeficient):
            expansion_probe(p, tangent_classical([0.5, -0.5]), [1e-3])
        rho = validate_density(np.diag([1.0, 0.0]))
        drho = tangent_quantum(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(RankDeficient):
            expansion_probe(rho, drho, [1e-3])


class TestShortStepAccuracy:
    """Yields of short steps, second order in the step, against closed forms
    that have no O(1) cancellation.  A difference of traces,
    sum a ln a - sum a ln b, is off from them by up to 4e-6 here."""

    @pytest.mark.parametrize("k", range(14, 25))
    def test_two_outcome_step_from_the_uniform_point(self, k):
        h = 2.0**-k
        q = np.array([0.5 + h, 0.5 - h])  # exact, sums to one
        expected = -0.5 * (np.log1p(2.0 * q[0] - 1.0) + np.log1p(2.0 * q[1] - 1.0))
        classical = relative_entropy(P_HALF, validate_distribution(q))
        quantum = relative_entropy(
            validate_density(np.eye(2) / 2), validate_density(np.diag(q))
        )
        assert classical == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert quantum == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_classical_probe_against_log1p_oracle(self, seed):
        p = random_distribution(4, seed)
        dp = tangent_classical(random_distribution(4, seed + 100).weights - p.weights)
        eps = np.array([1e-2, 1e-3, 1e-4])
        probe = expansion_probe(p, dp, eps)
        for e, value in zip(eps, probe.relative_entropies):
            x = e * dp.delta / p.weights
            expected = float(np.sum(p.weights * (x - np.log1p(x))))
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestScheduleInvariants:
    def test_schedule_endpoints_pinned(self):
        path = geodesic_path(P_HALF, P_SKEW)
        schedule = even_schedule(path, 16)
        assert np.array_equal(schedule.rows[0], P_HALF.weights)
        assert np.array_equal(schedule.rows[-1], P_SKEW.weights)

    def test_handmade_schedule_runs(self):
        states = tuple(
            validate_distribution(w) for w in ([0.5, 0.5], [0.7, 0.3], [0.9, 0.1])
        )
        lengths = np.array(
            [
                geodesic_length_fisher(state_fidelity(states[0], states[1])),
                geodesic_length_fisher(state_fidelity(states[1], states[2])),
            ]
        )
        schedule = TransportSchedule(np.stack([s.weights for s in states]), np.array([0.0, 0.5, 1.0]), lengths)
        report = run_transport(schedule)
        assert report.total_entropy > 0.0
        assert report.endpoint_fidelity == state_fidelity(states[0], states[-1])
        assert report.total_length == pytest.approx(lengths.sum(), abs=1e-12)

    @pytest.mark.parametrize(
        "n_rows, n_ts, n_lengths, n_steps",
        [(6, 3, 2, 5), (3, 6, 2, 2), (3, 3, 5, 2)],
        ids=["n-steps", "ts", "step-lengths"],
    )
    def test_sizes_that_disagree_rejected(self, n_rows, n_ts, n_lengths, n_steps):
        """N is read from the rows; the "n-steps" rows make 5 steps of 2-step ts and lengths."""
        rows = np.tile(P_HALF.weights, (n_rows, 1))
        with pytest.raises(ValueError, match=f"{n_steps} steps need"):
            TransportSchedule(rows, np.linspace(0.0, 1.0, n_ts), np.zeros(n_lengths))

    @pytest.mark.parametrize(
        "rows, n_ts, n_lengths",
        [(np.array([[0.5, 0.5]]), 1, 0), (np.zeros((0, 2)), 0, 0)],
        ids=["one-row", "no-rows"],
    )
    def test_fewer_than_two_rows_rejected(self, rows, n_ts, n_lengths):
        """A one-row schedule once constructed, and run_transport took its yields first."""
        with pytest.raises(ValueError, match="need at least one step"):
            TransportSchedule(rows, np.zeros(n_ts), np.zeros(n_lengths))

    @pytest.mark.parametrize("rows", [np.ones((3, 2, 2, 1))], ids=["rank-3-rows"])
    def test_kind_that_disagrees_with_the_rows_rejected(self, rows):
        with pytest.raises(DimensionMismatch):
            TransportSchedule(rows, np.linspace(0.0, 1.0, 3), np.zeros(2))

    @pytest.mark.parametrize("rows", [np.tile(P_HALF.weights, (3, 1)), np.tile(np.eye(2) / 2, (3, 1, 1))])
    def test_kind_and_steps_are_read_from_the_rows(self, rows):
        schedule = TransportSchedule(rows, np.linspace(0.0, 1.0, 3), np.zeros(2))
        assert (schedule.kind, schedule.n_steps) == ("classical" if rows.ndim == 2 else "quantum", 2)

    @pytest.mark.parametrize(
        "kind, rows",
        [
            ("classical", [[1.5, -0.5], [0.5, 0.5], [2.0, 2.0]]),
            ("classical", [[0.5, 0.5], [2.0, 2.0], [0.5, 0.5]]),
            ("classical", [[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]]),
            ("classical", [[0.5, 0.5], [np.inf, 0.5], [0.5, 0.5]]),
            ("quantum", [np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]], np.eye(2) / 2]),
            ("quantum", [np.eye(2) / 2, [[0.5, 0.6], [0.6, 0.5]], np.eye(2) / 2]),
            ("quantum", [np.eye(2) / 2, np.eye(2), np.eye(2) / 2]),
            ("quantum", [np.eye(2) / 2, [[np.nan, 0.0], [0.0, 0.5]], np.eye(2) / 2]),
        ],
        ids=[
            "negative-weight", "sum-off-one", "nan-weight", "inf-weight",
            "not-hermitian", "negative-eigenvalue", "trace-off-one", "nan-entry",
        ],
    )
    def test_rows_that_are_not_states_rejected(self, kind, rows):
        """Before any yield is reported: the first case once gave total_entropy 1.148
        with a nan fidelity."""
        rows = np.array(rows, dtype=float if kind == "classical" else complex)
        schedule = TransportSchedule(rows, np.linspace(0.0, 1.0, 3), np.full(2, 0.3))
        with pytest.raises(ValidationError, match="row [01] is not a"):
            run_transport(schedule)
