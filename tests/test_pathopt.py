import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statlen import (
    DimensionCapExceeded,
    DimensionMismatch,
    PathOptimizationResult,
    RankCollapse,
    RankDeficient,
    expansion_probe,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    kubo_mori_element,
    linear_mixture_path,
    metric_element,
    minimize_path,
    random_distribution,
    random_state,
    spectral,
    state_fidelity,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen import pathopt
from statlen.geometry import RANK_TOL, StatePath
from statlen.pathopt import AUTO_RIDGE, DEFAULT_MAX_ITER, MAX_ITER
from statlen.states import add_ridge

# a state kind and the dimensions its search allows
PROBLEMS = st.one_of(
    st.tuples(st.just("classical"), st.integers(2, 8)),
    st.tuples(st.just("quantum"), st.integers(2, 4)),
)


class TestClassicalSearch:
    def test_identical_endpoints_length_zero(self):
        p = validate_distribution([0.4, 0.6])
        result = minimize_path(p, p, 8)
        assert result.final_length == pytest.approx(0.0, abs=1e-5)
        assert result.converged

    def test_recovers_geodesic_length_d3(self):
        p = random_distribution(3, 1)
        q = random_distribution(3, 2)
        result = minimize_path(p, q, 16)
        geo = geodesic_length_fisher(state_fidelity(p, q))
        assert result.converged
        assert result.final_length <= geo * 1.01
        assert result.final_length >= geo * 0.98

    def test_random_pairs_stay_within_one_percent(self):
        for seed in (3, 4):
            dim = 3 + seed % 2
            p = random_distribution(dim, seed)
            q = random_distribution(dim, seed + 20)
            result = minimize_path(p, q, 16)
            geo = geodesic_length_fisher(state_fidelity(p, q))
            assert result.final_length <= geo * 1.01

    def test_energy_monotone_and_endpoints_pinned(self):
        p = random_distribution(4, 9)
        q = random_distribution(4, 10)
        result = minimize_path(p, q, 16, max_iter=300)
        assert np.all(np.diff(result.energies) <= 0.0)
        assert result.states[0] is p
        assert result.states[-1] is q
        assert result.final_length <= result.lengths[0] + 1e-9

    def test_steps_even_at_convergence(self):
        p = random_distribution(3, 13)
        q = random_distribution(3, 14)
        result = minimize_path(p, q, 16)
        assert result.converged
        assert result.stop_reason == "stall"
        assert result.step_cvs[-1] <= 0.02

    def test_geodesic_seed_converges_fast(self):
        p = random_distribution(3, 5)
        q = random_distribution(3, 6)
        seeded = minimize_path(p, q, 16, seed_path=geodesic_path(p, q))
        geo = geodesic_length_fisher(state_fidelity(p, q))
        assert seeded.final_length == pytest.approx(geo, rel=1e-3)

    def test_not_converged_flag(self):
        p = random_distribution(4, 31)
        q = random_distribution(4, 32)
        result = minimize_path(p, q, 16, max_iter=3)
        assert not result.converged
        assert result.stop_reason == "max_iter"
        assert result.iterations <= 3

    def test_precondition_checks(self):
        p = random_distribution(3, 1)
        q = random_distribution(3, 2)
        with pytest.raises(ValueError):
            minimize_path(p, q, 3)  # too few steps
        with pytest.raises(DimensionCapExceeded) as info:
            minimize_path(p, q, 97)
        assert info.value.max_feasible == 96
        with pytest.raises(DimensionCapExceeded) as info:
            minimize_path(p, q, 8, max_iter=10**12)  # refused before any iteration
        assert info.value.max_feasible == MAX_ITER == 100_000
        assert "largest feasible max_iter is 100000" in str(info.value)
        with pytest.raises(DimensionCapExceeded) as info:
            minimize_path(random_distribution(9, 1), random_distribution(9, 2), 8)
        assert info.value.max_feasible == 8
        with pytest.raises(DimensionMismatch):
            minimize_path(p, random_distribution(4, 2), 8)

    @pytest.mark.parametrize("ridge", [None, 0.3])
    def test_search_takes_no_svd(self, monkeypatch, ridge):
        def refuse(*args, **kwargs):
            raise AssertionError("a classical search took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        p, q = random_distribution(4, 7), random_distribution(4, 8)
        result = minimize_path(p, q, 16, ridge=ridge)
        assert result.converged
        # the ridged search reaches the exact minimum between the ridged endpoints
        fid = state_fidelity(*result.states[::len(result.states) - 1])
        assert result.final_energy == pytest.approx(_exact_discrete_minimum(fid, 16), rel=1e-8)

    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_sign_flips_leave_energy_and_chords(self, ridge):
        rng = np.random.default_rng(3)
        endpoints = (random_distribution(4, 1), random_distribution(4, 2))
        ends = pathopt._end_factors([add_ridge(s, ridge) for s in endpoints], ridge)
        coords = rng.uniform(0.2, 1.0, (7, 4))
        signs = rng.choice([-1.0, 1.0], coords.shape)
        chain = pathopt._chain(coords, ends, ridge, False)
        flipped = pathopt._chain(signs * coords, ends, ridge, False)
        assert np.array_equal(flipped.chords, chain.chords)
        assert flipped.energy == chain.energy
        assert np.array_equal(
            pathopt._gradient(signs * coords, flipped, ridge),
            signs * pathopt._gradient(coords, chain, ridge),
        )

    def test_seed_path_of_another_kind_is_refused(self):
        # a classical seed between qubit states
        seed = linear_mixture_path(random_distribution(2, 1), random_distribution(2, 2))
        with pytest.raises(DimensionMismatch, match="seed path"):
            minimize_path(random_state(2, 2, 1), random_state(2, 2, 2), 4, seed)

    def test_seed_path_of_another_dimension_is_refused(self):
        seed = linear_mixture_path(random_state(2, 2, 1), random_state(2, 2, 2))
        with pytest.raises(DimensionMismatch, match="seed path"):
            minimize_path(random_state(3, 3, 1), random_state(3, 3, 2), 4, seed)


class TestHistoryRow:
    """The history's length and cv of an iterate are the ndarray methods' values, bit for bit."""

    def test_length_and_cv_are_sum_and_std_over_mean(self):
        rng = np.random.default_rng(2024)
        for _ in range(5000):
            scale = 10.0 ** rng.uniform(-8.0, 0.0)
            steps = scale * rng.random(int(rng.integers(4, 97)))
            length, cv = pathopt._length_and_cv(steps)
            assert np.float64(length).tobytes() == steps.sum().tobytes()
            assert np.float64(cv).tobytes() == (steps.std() / steps.mean()).tobytes()

    @pytest.mark.parametrize("size", [4, 17, 96])
    def test_zero_chords_have_a_cv_of_exactly_zero(self, size):
        assert pathopt._length_and_cv(np.zeros(size)) == (0.0, 0.0)


def _exact_discrete_minimum(fid, n_steps):
    """min sum 8 (1 - F_i) over N-step paths: N equal Bures angles arccos(F)/N."""
    return 8.0 * n_steps * (1.0 - np.cos(np.arccos(fid) / n_steps))


class TestExactDiscreteMinimum:
    """The Bures angle obeys the triangle inequality and a geodesic splits it
    into equal parts, so the chord energy of every pair has a closed-form
    minimum; the search must reach it, not just land near 2 arccos F."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(PROBLEMS, st.sampled_from([4, 8, 16, 32]), st.integers(0, 10**6))
    def test_final_energy_is_the_exact_minimum(self, problem, n_steps, seed):
        kind, dim = problem
        if kind == "classical":
            a, b = random_distribution(dim, seed), random_distribution(dim, seed + 1)
            fid = state_fidelity(a, b)
        else:
            a, b = random_state(dim, dim, seed), random_state(dim, dim, seed + 1)
            fid = state_fidelity(a, b)
        result = minimize_path(a, b, n_steps)
        assert result.converged
        assert result.ridge == 0.0
        exact = _exact_discrete_minimum(fid, n_steps)
        assert result.final_energy == pytest.approx(exact, rel=1e-8, abs=0.0)


class TestQuantumSearch:
    def test_full_rank_qubits_converge(self):
        rho = random_state(2, 2, 11)
        sigma = random_state(2, 2, 12)
        result = minimize_path(rho, sigma, 8, max_iter=2000)
        assert result.converged
        assert result.stop_reason == "stall"
        assert result.ridge == 0.0
        assert result.final_length <= result.lengths[0] + 1e-9
        assert result.step_cvs[-1] <= 0.02
        # the numerical search cannot beat the chordal candidate...
        assert result.final_length >= geodesic_length_bures(
            state_fidelity(rho, sigma)
        ) - 1e-6
        # ...and should not lose to the commuting-arc candidate by much
        assert result.final_length <= geodesic_length_fisher(
            state_fidelity(rho, sigma)
        ) * 1.01

    def test_orthogonal_pure_endpoints_with_auto_ridge(self):
        zero = validate_density(np.diag([1.0, 0.0]))
        one = validate_density(np.diag([0.0, 1.0]))
        result = minimize_path(zero, one, 8, max_iter=2000)
        # rank-deficient endpoints switch the default ridge on
        assert result.ridge == pytest.approx(1e-6)
        assert result.converged
        # report the three numbers; the chordal value 2 is a candidate,
        # not an asserted optimum
        assert np.isfinite(result.final_length)
        assert 1.5 <= result.final_length <= np.pi + 0.05

    def test_logs_iterations_evaluations_and_stop(self, caplog, monkeypatch):
        calls = []
        chain = pathopt._chain
        monkeypatch.setattr(pathopt, "_chain", lambda *args: calls.append(1) or chain(*args))
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            result = minimize_path(random_state(2, 2, 11), random_state(2, 2, 12), 8)
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("statlen.pathopt", logging.DEBUG)
        assert record.args == (8, result.iterations, len(calls), result.stop_reason)

    def test_non_descent_direction_restarts_from_steepest_descent(self, monkeypatch):
        # an ascent direction from the two-loop recursion is replaced by -grad,
        # and the curvature pairs behind it are dropped
        seen = []

        def ascent(grad, pairs):
            seen.append(len(pairs))
            return grad.copy()

        monkeypatch.setattr(pathopt, "_direction", ascent)
        result = minimize_path(random_state(2, 2, 11), random_state(2, 2, 12), 8, max_iter=40)
        assert result.iterations >= 2 and len(seen) >= result.iterations
        # each call sees at most the one pair of the step before it: the reset cleared the rest
        assert 1 in seen and max(seen) == 1
        assert np.all(np.diff(result.energies) <= 0.0)
        assert result.energies[-1] < result.energies[0]

    def test_near_floor_pair_takes_few_chain_evaluations(self, caplog):
        # near the noise floor the line search used to halve its step many
        # times per iteration (188 chain evaluations for 25 iterations here);
        # the chord energy keeps its digits there
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            result = minimize_path(random_state(2, 2, 1), random_state(2, 2, 2), 8)
        _, iterations, evaluations, reason = caplog.records[0].args
        assert (iterations, reason) == (result.iterations, "stall")
        assert evaluations <= 40

    def test_explicit_zero_ridge_rejects_rank_deficiency(self):
        zero = validate_density(np.diag([1.0, 0.0]))
        one = validate_density(np.diag([0.0, 1.0]))
        with pytest.raises(RankDeficient):
            minimize_path(zero, one, 8, ridge=0.0)

    def test_smallest_eigenvalue_at_rank_tol_counts_as_rank_deficient(self):
        # one full-rank rule for the search, the metric elements and the probe
        boundary = validate_density(np.diag([1.0 - RANK_TOL, RANK_TOL]))
        assert spectral(boundary).eigenvalues[-1] == RANK_TOL
        drho = tangent_quantum(np.diag([1.0, -1.0]))
        for element in (metric_element, kubo_mori_element):
            with pytest.raises(RankDeficient):
                element(boundary, drho, 1e-3)
        with pytest.raises(RankDeficient):
            expansion_probe(boundary, drho, [1e-3])
        assert minimize_path(boundary, random_state(2, 2, 3), 4, max_iter=1).ridge == AUTO_RIDGE
        with pytest.raises(RankDeficient):
            minimize_path(boundary, random_state(2, 2, 3), 4, ridge=0.0)

    def test_dimension_limit(self):
        big = random_state(5, 5, 1)
        with pytest.raises(DimensionCapExceeded) as info:
            minimize_path(big, random_state(5, 5, 2), 8)
        assert info.value.max_feasible == 4

    @pytest.mark.parametrize("max_iter", [2, DEFAULT_MAX_ITER])
    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_result_reads_its_summary_from_states_and_history(self, kind, max_iter):
        if kind == "classical":
            a, b = random_distribution(3, 41), random_distribution(3, 42)
        else:
            a, b = random_state(2, 2, 41), random_state(2, 2, 42)
        result = minimize_path(a, b, 6, max_iter=max_iter)
        assert result.kind == result.states[0].kind == kind
        assert result.final_length == result.lengths[-1]
        assert result.final_energy == result.energies[-1]
        assert result.iterations == len(result.lengths) - 1
        assert result.converged == (result.stop_reason != "max_iter")
        assert result.converged == (max_iter == DEFAULT_MAX_ITER)

    @pytest.mark.parametrize("field", ["kind", "final_length", "final_energy", "iterations", "converged"])
    def test_result_takes_no_derived_field(self, field):
        """A result once took each of these as a field and accepted any that disagreed."""
        p = validate_distribution([0.4, 0.6])
        history = np.zeros(1)
        with pytest.raises(TypeError):
            PathOptimizationResult((p, p), "stall", history, history, history, 0.0, **{field: 0})

    def test_result_refuses_history_columns_of_different_sizes(self):
        p = validate_distribution([0.4, 0.6])
        with pytest.raises(ValueError, match=r"sizes \(3, 1, 2\)"):
            PathOptimizationResult((p, p), "stall", np.ones(3), np.ones(1), np.ones(2), 0.0)

    def test_history_columns_align(self):
        rho = random_state(2, 2, 21)
        sigma = random_state(2, 2, 22)
        result = minimize_path(rho, sigma, 8, max_iter=50)
        assert result.lengths.size == result.energies.size == result.step_cvs.size
        assert result.lengths.size == result.iterations + 1

    def test_rank_deficient_interior_iterate_rejected(self):
        # full-rank endpoints, a rank-1 seed inside: the first evaluated
        # iterate already falls below RANK_TOL with the ridge disabled
        rho = random_state(2, 2, 11)
        sigma = random_state(2, 2, 12)
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        seed = StatePath(rho, sigma, lambda ts: np.broadcast_to(pure, (ts.size, 2, 2)))
        with pytest.raises(RankCollapse):
            minimize_path(rho, sigma, 8, seed, ridge=0.0)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_full_rank_search_takes_one_svd_per_evaluation(self, caplog, monkeypatch, dim):
        # the rank check reads the chords' singular values instead of its own SVD
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            result = minimize_path(random_state(dim, dim, 11), random_state(dim, dim, 12), 8, ridge=0.0)
        _, iterations, evaluations, _ = caplog.records[0].args
        assert result.converged and iterations == result.iterations
        assert len(calls) == evaluations

    @pytest.mark.parametrize("node", [0, 2])
    def test_rank_check_covers_the_first_and_last_interior_node(self, node):
        ends = pathopt._end_factors((random_state(2, 2, 1), random_state(2, 2, 2)), 0.0)
        coords = np.stack([np.eye(2)] * 3).astype(complex)
        coords[node] = np.diag([1.0, 1e-6])
        with pytest.raises(RankCollapse, match="iterate eigenvalue 1.000e-12 at or below"):
            pathopt._chain(coords, ends, 0.0, check_rank=True)
        # inside the margin of the chord test the exact check decides, and passes
        coords[node] = np.diag([1.0, np.sqrt(2.0 * RANK_TOL)])
        pathopt._chain(coords, ends, 0.0, check_rank=True)

    def test_rank_check_covers_every_evaluated_iterate(self):
        # line-search trials go through the same evaluation as accepted iterates
        ends = pathopt._end_factors((random_state(2, 2, 1), random_state(2, 2, 2)), 0.0)
        coords = np.stack([np.eye(2), np.diag([1.0, 1e-6]), np.eye(2)]).astype(complex)
        with pytest.raises(RankCollapse):
            pathopt._chain(coords, ends, 0.0, check_rank=True)
        pathopt._chain(coords, ends, 0.0, check_rank=False)
        # an all-zero interior coordinate has no state to normalize, with or without the check
        coords[1] = 0.0
        for check_rank in (True, False):
            with pytest.raises(RankCollapse, match="iterate collapsed to zero"):
                pathopt._chain(coords, ends, 0.0, check_rank)


# ---------- the central-difference lanes of the earlier optimizer, as oracles ----------

GRAD_STEP = 1e-6


def _old_node_classical(x, ridge):
    p = x * x
    p = p / p.sum()
    if ridge > 0.0:
        p = (p + ridge / x.size) / (1.0 + ridge)
    return p


def _old_chord_classical(p, q):
    return 8.0 * (1.0 - min(1.0, float(np.sum(np.sqrt(p * q)))))


def _assemble(lam, vec):
    rho = (vec * lam) @ vec.conj().T
    root = (vec * np.sqrt(lam)) @ vec.conj().T
    return 0.5 * (rho + rho.conj().T), 0.5 * (root + root.conj().T)


def _old_node_quantum(coords, ridge):
    a = coords[0] + 1j * coords[1]
    m = a @ a.conj().T
    lam, vec = np.linalg.eigh(m)
    lam = np.clip(lam, 0.0, None) / float(np.real(np.trace(m)))
    if ridge > 0.0:
        lam = (lam + ridge / a.shape[0]) / (1.0 + ridge)
    return _assemble(lam, vec)


def _old_end_quantum(state):
    lam, vec = np.linalg.eigh(state.array)
    return _assemble(np.clip(lam, 0.0, None), vec)


def _old_chord_quantum(node_a, node_b):
    root = node_a[1]
    lam = np.linalg.eigvalsh(root @ node_b[0] @ root)
    return 8.0 * (1.0 - min(1.0, float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))))


def _problem(kind, dim, n_steps, ridge, seed):
    """Ridged endpoints, old-layout interior coordinates and the old energy."""
    rng = np.random.default_rng(seed)
    if kind == "classical":
        a, b = random_distribution(dim, seed), random_distribution(dim, seed + 1)
        old = rng.uniform(0.2, 1.0, (n_steps - 1, dim))
        ends = [add_ridge(s, ridge).array for s in (a, b)]
        node, chord = _old_node_classical, _old_chord_classical
    else:
        a, b = random_state(dim, dim, seed), random_state(dim, dim, seed + 1)
        old = rng.standard_normal((n_steps - 1, 2, dim, dim))
        old[:, 0] += 2.0 * np.eye(dim)
        ends = [_old_end_quantum(add_ridge(s, ridge)) for s in (a, b)]
        node, chord = _old_node_quantum, _old_chord_quantum

    def chords(coords):
        nodes = [ends[0]] + [node(c, ridge) for c in coords] + [ends[1]]
        return np.array([chord(nodes[i], nodes[i + 1]) for i in range(n_steps)])

    return (add_ridge(a, ridge), add_ridge(b, ridge)), old, chords


def _new_layout(kind, old):
    if kind == "classical":
        return old.copy()
    return old[:, 0] + 1j * old[:, 1]


def _old_layout(kind, grad):
    if kind == "classical":
        return grad
    return np.stack([grad.real, grad.imag], axis=1)


class TestAnalyticGradient:
    """The batched Uhlmann chords and gradient against the earlier optimizer's
    per-node formulas: eigvalsh chords and central differences."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(PROBLEMS, st.integers(4, 7), st.sampled_from([0.0, 1e-6, 0.3]), st.integers(0, 10**6))
    def test_chords_match_eigvalsh_chords(self, problem, n_steps, ridge, seed):
        kind, dim = problem
        endpoints, old, chords = _problem(kind, dim, n_steps, ridge, seed)
        ends = pathopt._end_factors(endpoints, ridge)
        chain = pathopt._chain(_new_layout(kind, old), ends, ridge, False)
        expected = chords(old)
        # 4 c^2 = 8 (1 - F): the chord energy against the old one, term by term
        assert np.max(np.abs(4.0 * chain.chords ** 2 - expected)) <= 1e-12
        assert chain.energy == pytest.approx(float(expected.sum()), abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(PROBLEMS, st.integers(4, 7), st.sampled_from([0.0, 1e-6, 0.3]), st.integers(0, 10**6))
    def test_gradient_matches_central_differences(self, problem, n_steps, ridge, seed):
        kind, dim = problem
        endpoints, old, chords = _problem(kind, dim, n_steps, ridge, seed)
        ends = pathopt._end_factors(endpoints, ridge)
        coords = _new_layout(kind, old)
        chain = pathopt._chain(coords, ends, ridge, False)
        grad = _old_layout(kind, pathopt._gradient(coords, chain, ridge))
        oracle = np.zeros_like(old)
        flat, out = old.reshape(-1), oracle.reshape(-1)
        for c in range(flat.size):
            keep = flat[c]
            flat[c] = keep + GRAD_STEP
            plus = chords(old).sum()
            flat[c] = keep - GRAD_STEP
            minus = chords(old).sum()
            flat[c] = keep
            out[c] = (plus - minus) / (2.0 * GRAD_STEP)
        assert np.linalg.norm(grad - oracle) <= 1e-5 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_diagonal_density_pair_matches_classical_pair(self, seed):
        p, q = random_distribution(3, seed), random_distribution(3, seed + 1)
        classical = minimize_path(p, q, 8)
        quantum = minimize_path(
            validate_density(np.diag(p.array)), validate_density(np.diag(q.array)), 8
        )
        assert classical.stop_reason == quantum.stop_reason == "stall"
        # the classical length takes the arc rule; recompute the quantum path's
        arcs = [
            geodesic_length_fisher(state_fidelity(a, b))
            for a, b in zip(quantum.states[:-1], quantum.states[1:])
        ]
        assert sum(arcs) == pytest.approx(classical.final_length, abs=1e-9)
        assert quantum.final_energy == pytest.approx(classical.final_energy, abs=1e-9)
