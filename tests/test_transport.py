import math
import tracemalloc

import numpy as np
import pytest

from statlen import (
    DimensionCapExceeded,
    DimensionMismatch,
    InfiniteYield,
    RankDeficient,
    State,
    ValidationError,
    even_schedule,
    expansion_probe,
    geodesic_bound,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    linear_mixture_path,
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
from statlen import transport
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
        rho = validate_density(np.diag(P_HALF.array))
        sigma = validate_density(np.diag(P_SKEW.array))
        assert relative_entropy(rho, sigma) == pytest.approx(KL_DOC, abs=1e-10)

    def test_nonnegative_and_separating(self):
        for seed in range(6):
            rho = random_state(3, 3, seed)
            sigma = random_state(3, 3, seed + 60)
            value = relative_entropy(rho, sigma)
            assert value >= 0.0
            if np.max(np.abs(rho.array - sigma.array)) > 1e-4:
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


def _schedule_of_steps(step_lengths) -> TransportSchedule:
    """A classical schedule of the given step lengths, with zero yields and unit fidelity."""
    steps = np.asarray(step_lengths, dtype=float)
    return TransportSchedule(P_HALF, P_HALF, np.linspace(0.0, 1.0, steps.size + 1), steps, np.zeros(steps.size))


class TestClosedForms:
    def test_min_entropy_production_trivials(self):
        # bound_path_length is l^2/(2N) of the measured length
        assert _schedule_of_steps(np.zeros(10)).bound_path_length == 0.0
        assert _schedule_of_steps(np.full(100, np.pi / 100)).bound_path_length == pytest.approx(
            0.049348022005446790, rel=1e-12
        )

    def test_min_entropy_production_halves_with_n(self):
        # one step carries the whole length 0.7, so both totals read 0.7 exactly
        value = _schedule_of_steps(np.r_[0.7, np.zeros(63)]).bound_path_length
        assert _schedule_of_steps(np.r_[0.7, np.zeros(127)]).bound_path_length == value / 2.0

    def test_geodesic_bound_trivials(self):
        assert geodesic_bound(1.0, 4, "quantum") == 0.0
        assert geodesic_bound(1.0, 4, "classical") == 0.0
        assert geodesic_bound(0.0, 2, "quantum") == pytest.approx(1.0, rel=1e-12)
        # (2/N)(arccos 0)^2 at N = 2 is pi^2/4, the quarter-circle energy
        assert geodesic_bound(0.0, 2, "classical") == pytest.approx(
            np.pi * np.pi / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "n_steps, kind, message",
        [(0, "classical", "need at least one step, got 0"), (4, "mixed", "unknown kind 'mixed'")],
        ids=["no-steps", "unknown-kind"],
    )
    def test_geodesic_bound_refusals(self, n_steps, kind, message):
        with pytest.raises(ValueError, match=message):
            geodesic_bound(0.5, n_steps, kind)

    def test_geodesic_bound_is_min_production_at_geodesic_length(self):
        for f in np.linspace(0.0, 1.0, 11):
            for n in (1, 8, 64):
                for kind, length in (
                    ("classical", geodesic_length_fisher(f)),
                    ("quantum", geodesic_length_bures(f)),
                ):
                    assert geodesic_bound(f, n, kind) == pytest.approx(
                        length * length / (2 * n), abs=1e-12
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

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_report_reads_totals_and_bounds_from_its_fields(self, kind):
        if kind == "classical":
            a, b = P_HALF, P_SKEW
        else:
            a, b = random_state(3, 3, 5), random_state(3, 3, 6)
        schedule = even_schedule(linear_mixture_path(a, b), 24)
        report = run_transport(schedule)
        n, ell = report.n_steps, report.total_length
        assert report is schedule and report.kind == kind
        assert n == len(report.step_lengths) == len(report.step_yields) == schedule.n_steps == 24
        assert report.total_entropy == float(report.step_yields.sum())
        assert ell == float(report.step_lengths.sum())
        assert report.nu == n / ell
        assert report.bound_path_length == ell * ell / (2 * n)
        assert report.endpoint_fidelity == state_fidelity(a, b)
        assert report.bound_fidelity == geodesic_bound(report.endpoint_fidelity, n, kind)

    @pytest.mark.parametrize(
        "field",
        ["n_steps", "total_entropy", "total_length", "nu", "bound_path_length", "bound_fidelity", "endpoint_fidelity"],
    )
    def test_report_takes_no_derived_field(self, field):
        """A report once took each of these as a field and accepted any that disagreed;
        the schedule, which is the report now, reads them all from its own fields."""
        with pytest.raises(TypeError):
            TransportSchedule(P_HALF, P_SKEW, np.linspace(0.0, 1.0, 3), np.ones(2), np.zeros(2), **{field: 0.0})

    def test_report_refuses_lengths_and_yields_of_different_sizes(self):
        with pytest.raises(ValueError, match=r"3 steps need 4 ts and 3 step lengths, got \(4, 2\)"):
            TransportSchedule(P_HALF, P_SKEW, np.linspace(0.0, 1.0, 4), np.ones(2), np.zeros(3))

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
            states = [State(row) for row in path.sample(ts)[0]]
            total = sum(
                relative_entropy(states[i], states[i + 1]) for i in range(32)
            )
            assert even <= total * (1.0 + 1e-3)

    def test_each_row_is_decomposed_once(self, monkeypatch):
        """An even schedule carries the lengths and yields its kept pass took, so
        run_transport passes no row through eigh, and reading the endpoint fidelity passes
        the 2 end rows.  The same 17 rows made into a schedule by hand are validated, and
        decomposed, once for both its lengths and its yields."""
        eigh, rows_seen = np.linalg.eigh, []

        def counted(mats, *args, **kwargs):
            rows_seen.append(1 if np.ndim(mats) == 2 else len(mats))
            return eigh(mats, *args, **kwargs)

        rho, sigma = random_state(3, 3, 5), random_state(3, 3, 6)
        path = geodesic_path(rho, sigma)
        schedule = even_schedule(path, 16)
        rows = path.sample(schedule.ts)[0]
        monkeypatch.setattr(np.linalg, "eigh", counted)
        carried = run_transport(schedule)
        assert sum(rows_seen) == 0
        fidelity = carried.endpoint_fidelity
        assert sum(rows_seen) == 2
        rows_seen.clear()
        validated = run_transport(TransportSchedule.from_rows(rows, schedule.ts))
        assert sum(rows_seen) == 17
        assert np.array_equal(validated.step_lengths, carried.step_lengths)
        assert np.array_equal(validated.step_yields, carried.step_yields)
        assert validated.endpoint_fidelity == fidelity
        rows_seen.clear()
        relative_entropy(rho, sigma)
        assert sum(rows_seen) == 2

    def test_diagonal_quantum_transport_matches_classical(self):
        # both kinds measure steps by the Bures angle, so the schedules agree step by step
        pairs = [(P_HALF, P_SKEW)] + [
            (random_distribution(d, 10 * d), random_distribution(d, 10 * d + 1)) for d in (3, 4)
        ]
        for (p, q), n in zip(pairs, (32, 16, 64)):
            rho, sigma = (validate_density(np.diag(s.array)) for s in (p, q))
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
        rho = validate_density(np.diag(p.array))
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
        """A non-finite grid is the probe's own error, not a state's."""
        dp = tangent_classical([1.0, -1.0])
        # ascending, zero, nan, inf, empty, 2-d
        for eps_list in ([1e-4, 1e-3], [0.0], [np.nan], [np.inf, 1e-2], [], [[1e-2], [1e-3]]):
            with pytest.raises(ValueError, match="eps_list") as info:
                expansion_probe(P_HALF, dp, eps_list)
            assert not isinstance(info.value, ValidationError)

    def test_rank_deficient_state_rejected(self):
        p = validate_distribution([1.0, 0.0])
        with pytest.raises(RankDeficient):
            expansion_probe(p, tangent_classical([0.5, -0.5]), [1e-3])
        rho = validate_density(np.diag([1.0, 0.0]))
        drho = tangent_quantum(np.array([[0, 1], [1, 0]], dtype=complex))
        # a density matrix is refused by its metric element, the probe's first use of it
        with pytest.raises(RankDeficient, match="add_ridge"):
            expansion_probe(rho, drho, [1e-3])

    def test_one_decomposition_serves_both_elements_and_the_floor(self, monkeypatch):
        """A d = 3 density matrix with 4 eps passes 13 rows through eigh: its own row once,
        for both element columns and the floor, the 4 perturbed rows once, and 2 rows per
        relative_entropy, which the S column calls once per eps.  Taking the base again
        for each element, eps and the floor made 21.  A probability vector passes none."""
        eigh, rows_seen, entropy_calls = np.linalg.eigh, [], []

        def counted(mats, *args, **kwargs):
            rows_seen.append(1 if np.ndim(mats) == 2 else len(mats))
            return eigh(mats, *args, **kwargs)

        def relative(a, b):
            entropy_calls.append(1)
            return relative_entropy(a, b)

        rho = random_state(3, 3, 7)
        drho = tangent_quantum([[0.1, 0.2 + 0.15j, -0.05 + 0.05j], [0.2 - 0.15j, -0.3, 0.1 - 0.1j],
                                [-0.05 - 0.05j, 0.1 + 0.1j, 0.2]])
        p, dp = validate_distribution([0.4, 0.3, 0.2, 0.1]), tangent_classical([1.0, -1.0, 0.5, -0.5])
        eps = [1e-2, 1e-3, 1e-4, 1e-5]
        expected = [expansion_probe(rho, drho, eps), expansion_probe(p, dp, eps)]
        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(transport, "relative_entropy", relative)
        for (state, tangent, rows), before in zip(((rho, drho, 13), (p, dp, 0)), expected):
            del rows_seen[:], entropy_calls[:]
            probe = expansion_probe(state, tangent, eps)
            assert (sum(rows_seen), len(entropy_calls)) == (rows, 4)
            for column in ("relative_entropies", "ratio_metric", "ratio_kubo_mori"):
                assert np.array_equal(getattr(probe, column), getattr(before, column))


    def test_grid_past_the_entries_budget_is_refused_before_the_stack(self, monkeypatch):
        """The perturbed stack holds len(eps) states: at d = 64 (4096 entries each) the
        schedule budget of 2**24 entries allows 4096 eps, and one more is refused
        before any of its 268 MB is allocated."""
        rho = random_state(64, 64, 3)
        drho = tangent_quantum(np.zeros((64, 64), complex))
        eps = np.geomspace(1e-1, 1e-12, 4097)

        def formed(raw):
            raise AssertionError(f"the probe formed a stack of shape {np.shape(raw)}")

        monkeypatch.setattr(transport, "_validate_rows", formed)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapExceeded, match="largest feasible eps_grid length is 4096") as info:
                expansion_probe(rho, drho, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.max_feasible == 4096
        assert peak < 1 << 20

    def test_grid_budget_is_the_schedule_entries_over_the_state_size(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_SCHEDULE_ENTRIES", 64)
        drho = tangent_quantum(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]))
        rho = validate_density(np.diag([0.7, 0.3]))
        eps = np.geomspace(1e-2, 1e-5, 17)
        assert expansion_probe(rho, drho, eps[:16]).eps.size == 16
        refusal = "eps_grid length 17 exceeds cap 16; largest feasible eps_grid length is 16"
        with pytest.raises(DimensionCapExceeded, match=refusal):
            expansion_probe(rho, drho, eps)
        p, dp = validate_distribution([0.5, 0.3, 0.2]), tangent_classical([1.0, -0.4, -0.6])
        assert expansion_probe(p, dp, eps[:16]).eps.size == 16   # 64 // 3 = 21 allows 17
        assert expansion_probe(p, dp, eps).eps.size == 17


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
        dp = tangent_classical(random_distribution(4, seed + 100).array - p.array)
        eps = np.array([1e-2, 1e-3, 1e-4])
        probe = expansion_probe(p, dp, eps)
        for e, value in zip(eps, probe.relative_entropies):
            x = e * dp.delta / p.array
            expected = float(np.sum(p.array * (x - np.log1p(x))))
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestScheduleInvariants:
    def test_schedule_endpoints_pinned(self):
        path = geodesic_path(P_HALF, P_SKEW)
        schedule = even_schedule(path, 16)
        assert schedule.start is P_HALF and schedule.end is P_SKEW
        assert (schedule.ts[0], schedule.ts[-1]) == (0.0, 1.0)
        rows = path.sample(schedule.ts)[0]
        assert np.array_equal(rows[0], P_HALF.array)
        assert np.array_equal(rows[-1], P_SKEW.array)

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
        schedule = TransportSchedule.from_rows(np.stack([s.array for s in states]), np.array([0.0, 0.5, 1.0]))
        report = run_transport(schedule)
        assert report.total_entropy > 0.0
        assert report.endpoint_fidelity == state_fidelity(states[0], states[-1])
        assert report.total_length == pytest.approx(lengths.sum(), abs=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[1 + 1e-13, -1e-13], [0.5, 0.5]]),
            np.array([np.diag([1 + 1e-13, -1e-13]), np.eye(2) / 2], dtype=complex),
        ],
        ids=["classical", "quantum"],
    )
    def test_end_rows_in_the_tolerated_band_are_validated(self, rows):
        """The classical end row once reached the fidelity unrepaired: a RuntimeWarning and a nan."""
        validate = validate_distribution if rows.ndim == 2 else validate_density
        report = run_transport(TransportSchedule.from_rows(rows, np.array([0.0, 1.0])))
        a, b = validate(rows[0]), validate(rows[1])
        assert math.isfinite(report.endpoint_fidelity)
        assert report.endpoint_fidelity == state_fidelity(a, b)
        # the yields are taken from the same validated rows
        assert report.step_yields[0] == relative_entropy(a, b)

    @pytest.mark.parametrize(
        "n_yields, n_ts, n_lengths",
        [(5, 3, 2), (2, 6, 2), (2, 3, 5)],
        ids=["n-steps", "ts", "step-lengths"],
    )
    def test_sizes_that_disagree_rejected(self, n_yields, n_ts, n_lengths):
        """N is read from the yields; the "n-steps" yields make 5 steps of 2-step ts and lengths."""
        with pytest.raises(ValueError, match=f"{n_yields} steps need"):
            TransportSchedule(P_HALF, P_SKEW, np.linspace(0.0, 1.0, n_ts), np.zeros(n_lengths), np.zeros(n_yields))

    @pytest.mark.parametrize("n_rows, n_ts", [(6, 3), (3, 6)], ids=["rows", "ts"])
    def test_ts_that_disagree_with_the_rows_rejected(self, n_rows, n_ts):
        """N is read from the rows, which give the step lengths and yields."""
        rows = np.tile(P_HALF.array, (n_rows, 1))
        with pytest.raises(ValueError, match=f"{n_rows - 1} steps need {n_rows} ts"):
            TransportSchedule.from_rows(rows, np.linspace(0.0, 1.0, n_ts))

    @pytest.mark.parametrize(
        "rows, n_ts",
        [(np.array([[0.5, 0.5]]), 1), (np.zeros((0, 2)), 0)],
        ids=["one-row", "no-rows"],
    )
    def test_fewer_than_two_rows_rejected(self, rows, n_ts):
        """A one-row schedule once constructed, and run_transport took its yields first."""
        with pytest.raises(ValueError, match="need at least one step"):
            TransportSchedule.from_rows(rows, np.zeros(n_ts))

    def test_no_steps_rejected_by_the_constructor(self):
        with pytest.raises(ValueError, match="need at least one step, got 0"):
            TransportSchedule(P_HALF, P_SKEW, np.zeros(1), np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("rows", [np.ones((3, 2, 2, 1))], ids=["rank-3-rows"])
    def test_kind_that_disagrees_with_the_rows_rejected(self, rows):
        with pytest.raises(DimensionMismatch):
            TransportSchedule.from_rows(rows, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("rows", [np.tile(P_HALF.array, (3, 1)), np.tile(np.eye(2) / 2, (3, 1, 1))])
    def test_kind_and_steps_are_read_from_the_rows(self, rows):
        schedule = TransportSchedule.from_rows(rows, np.linspace(0.0, 1.0, 3))
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
        """Before any schedule is made: the first case once gave total_entropy 1.148
        with a nan fidelity."""
        rows = np.array(rows, dtype=float if kind == "classical" else complex)
        with pytest.raises(ValidationError, match="row [01] is not a"):
            TransportSchedule.from_rows(rows, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize(
        "row",
        [np.array([np.inf, -np.inf]), np.diag([np.inf, -np.inf]).astype(complex), np.array([np.nan, 0.5])],
        ids=["inf-weights", "inf-diagonal", "nan-weight"],
    )
    def test_non_finite_rows_raise_as_validation_does(self, row):
        """These once raised a RuntimeWarning, NotHermitian and NotPositive, where
        validation refuses all three as non-finite."""
        validate = validate_distribution if row.ndim == 1 else validate_density
        with pytest.raises(ValidationError) as expected:
            validate(row)
        clean = np.full(2, 0.5) if row.ndim == 1 else np.eye(2, dtype=complex) / 2
        with pytest.raises(ValidationError) as raised:
            TransportSchedule.from_rows(np.stack([clean, row, clean]), np.linspace(0.0, 1.0, 3))
        assert type(raised.value) is type(expected.value) is ValidationError
        assert str(raised.value) == str(expected.value).replace("row 0", "row 1")
