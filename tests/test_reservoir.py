import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statlen.reservoir as reservoir
from statlen import (
    DimensionCapExceeded,
    DimensionMismatch,
    ProbabilityDistribution,
    convergence_scan,
    random_distribution,
    random_state,
    relative_entropy,
    shannon_entropy,
    step_entropy_production,
    validate_density,
    validate_distribution,
)
from statlen.states import DEFAULT_DIM_CAP

P = validate_distribution([0.5, 0.5])
Q = validate_distribution([0.9, 0.1])
RHO = validate_density(np.diag(P.weights))
SIGMA = validate_density(np.diag(Q.weights))


def _mixture_entropy_oracle(p, q, n):
    """Independent vector-space construction of the twirled reservoir entropy."""
    total = np.zeros(p.size**n)
    for k in range(n):
        v = np.array([1.0])
        for slot in range(n):
            v = np.kron(v, p if slot == k else q)
        total += v
    total /= n
    kept = total[total > 1e-14]
    return float(-np.sum(kept * np.log(kept)))


def _kron_loop_twirl(rho, sigma, n):
    """Reference dense twirl: a kron loop over the matrix powers of sigma."""
    powers = [np.array([[1.0 + 0.0j]])]
    for _ in range(n - 1):
        powers.append(np.kron(powers[-1], sigma))
    acc = np.zeros((rho.shape[0] ** n, rho.shape[0] ** n), dtype=np.complex128)
    for k in range(n):
        acc += np.kron(powers[k], np.kron(rho, powers[n - k - 1]))
    acc /= n
    return acc


def _kron_loop_classical_step(p, q, n):
    """Reference classical step: a kron loop over the weight powers of q, then entropies."""
    powers = [np.array([1.0])]
    for _ in range(n - 1):
        powers.append(np.kron(powers[-1], q.weights))
    acc = np.zeros(p.dim ** n)
    for k in range(n):
        acc += np.kron(powers[k], np.kron(p.weights, powers[n - k - 1]))
    acc /= n
    return (
        shannon_entropy(ProbabilityDistribution(acc))
        - shannon_entropy(p)
        - (n - 1) * shannon_entropy(q)
    )


def _eigvalsh_entropy(mat):
    """Reference von Neumann entropy: eigvalsh, eigenvalues at or below 1e-14 dropped."""
    lam = np.linalg.eigvalsh(mat)
    kept = lam[lam > 1e-14]
    return float(-np.sum(kept * np.log(kept)))


def _kron_loop_dense_step(rho, sigma, n):
    """Reference dense step: the kron loop twirl and eigvalsh entropies."""
    return (
        _eigvalsh_entropy(_kron_loop_twirl(rho.matrix, sigma.matrix, n))
        - _eigvalsh_entropy(rho.matrix)
        - (n - 1) * _eigvalsh_entropy(sigma.matrix)
    )


def _pair(kind, dim, seed):
    """A density-matrix pair of one kind; "diagonal" and "commuting" share an eigenbasis."""
    if kind in ("diagonal", "commuting"):
        basis = np.eye(dim)
        if kind == "commuting":
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            basis, _ = np.linalg.qr(g)
        return tuple(
            validate_density((basis * random_distribution(dim, seed + i).weights) @ basis.conj().T)
            for i in (0, 1)
        )
    rank_rho, rank_sigma = {"full": (dim, dim), "pure-sigma": (dim, 1), "pure-rho": (1, dim)}[kind]
    return random_state(dim, rank_rho, seed), random_state(dim, rank_sigma, seed + 1)


PAIR_KINDS = ["full", "pure-sigma", "pure-rho", "commuting"]


def _cap_n(dim):
    """Largest n the default composite-dimension cap allows a density-matrix step."""
    n = 0
    while dim ** (n + 2) <= DEFAULT_DIM_CAP:
        n += 1
    return n


def _with_zero(p, index):
    w = p.weights.copy()
    w[index % w.size] = 0.0
    return validate_distribution(w / w.sum())


class TestSharedTwirlKernel:
    """The classical step, a sum over types, agrees with the kron loop to rounding."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(dim=st.integers(2, 3), n=st.integers(1, 6), seed=st.integers(0, 10**6))
    def test_classical_step_matches_kron_loop(self, dim, n, seed):
        p = random_distribution(dim, seed)
        q = random_distribution(dim, seed + 1)
        assert step_entropy_production(p, q, n) == pytest.approx(
            _kron_loop_classical_step(p, q, n), abs=1e-12
        )


class TestReducedStepsMatchKronOracle:
    """Spin blocks (qubits) and types (probability vectors) against the kron loops."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        kind=st.sampled_from(["full", "pure-sigma", "pure-rho", "diagonal"]),
        n=st.integers(1, 10),
        seed=st.integers(0, 10**6),
    )
    def test_qubit_step(self, kind, n, seed):
        rho, sigma = _pair(kind, 2, seed)
        assert step_entropy_production(rho, sigma, n) == pytest.approx(
            _kron_loop_dense_step(rho, sigma, n), abs=1e-12
        )

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        dim=st.integers(2, 4),
        n=st.integers(1, 8),
        zero=st.sampled_from([None, "p", "q", "both"]),
        index=st.integers(0, 3),
        seed=st.integers(0, 10**6),
    )
    def test_classical_step(self, dim, n, zero, index, seed):
        p = random_distribution(dim, seed)
        q = random_distribution(dim, seed + 1)
        if zero in ("p", "both"):
            p = _with_zero(p, index)
        if zero in ("q", "both"):
            q = _with_zero(q, index + 1)
        assert step_entropy_production(p, q, n) == pytest.approx(
            _kron_loop_classical_step(p, q, n), abs=1e-12
        )


class TestBlocksMatchKronOracle:
    """The GL(d) blocks of every dimension against the kron-loop twirl."""

    @settings(deadline=None, derandomize=True, max_examples=20)
    @given(
        kind=st.sampled_from(PAIR_KINDS),
        dim_n=st.sampled_from([(3, n) for n in range(1, 7)] + [(4, n) for n in range(1, 6)]),
        seed=st.integers(0, 10**6),
    )
    def test_qutrits_and_ququarts(self, kind, dim_n, seed):
        rho, sigma = _pair(kind, dim_n[0], seed)
        assert step_entropy_production(rho, sigma, dim_n[1]) == pytest.approx(
            _kron_loop_dense_step(rho, sigma, dim_n[1]), abs=1e-12
        )

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        kind=st.sampled_from(PAIR_KINDS),
        dim=st.integers(5, 8),
        n=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_wide_dimensions(self, kind, dim, n, seed):
        rho, sigma = _pair(kind, dim, seed)
        assert step_entropy_production(rho, sigma, n) == pytest.approx(
            _kron_loop_dense_step(rho, sigma, n), abs=1e-12
        )

    @pytest.mark.parametrize("dim, n", [(2, 5), (3, 4), (4, 3)])
    def test_exact_zero_eigenvalues(self, dim, n):
        # sigma and rho with exact zeros: s^0 = 1 carries the polynomial
        q = np.zeros(dim)
        q[: dim - 1] = random_distribution(dim - 1, dim).weights
        p = np.zeros(dim)
        p[1:] = random_distribution(dim - 1, n).weights
        rho, sigma = validate_density(np.diag(p)), validate_density(np.diag(q))
        mixed = random_state(dim, dim, 3)
        for a, b in ((rho, sigma), (mixed, sigma), (rho, mixed)):
            assert step_entropy_production(a, b, n) == pytest.approx(
                _kron_loop_dense_step(a, b, n), abs=1e-12
            )

    def test_one_dimensional_states(self):
        one = validate_density(np.eye(1))
        assert step_entropy_production(one, one, 11) == 0.0

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_dimension_16(self, kind):
        # the coefficient products of d = 16 overflow int64
        rho, sigma = _pair(kind, 16, 5)
        assert step_entropy_production(rho, sigma, 2) == pytest.approx(
            _kron_loop_dense_step(rho, sigma, 2), abs=1e-12
        )

    @pytest.mark.parametrize("kind, dim, n", [("pure-rho", 3, 6), ("pure-sigma", 4, 5)])
    def test_at_the_cap(self, kind, dim, n):
        assert n == _cap_n(dim)
        rho, sigma = _pair(kind, dim, 11)
        assert step_entropy_production(rho, sigma, n) == pytest.approx(
            _kron_loop_dense_step(rho, sigma, n), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_commuting_qubits_at_the_cap(self, seed):
        # the 2^11 kron oracle takes seconds; a shared eigenbasis has the
        # kron-checked sum over types as its oracle instead
        rho, sigma = _pair("commuting", 2, seed)
        p, q = (random_distribution(2, seed + i) for i in (0, 1))
        assert _cap_n(2) == 11
        assert step_entropy_production(rho, sigma, 11) == pytest.approx(
            step_entropy_production(p, q, 11), abs=1e-12
        )

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_blocks_fill_the_tensor_power(self, dim):
        # sum over shapes of f_lambda dim V_lambda = d^n, in exact integers
        for n in range(1, _cap_n(dim) + 1):
            shapes = list(reservoir._partitions(n, dim))
            _, origin = reservoir._gt_patterns(shapes)
            sizes = np.bincount(origin, minlength=len(shapes))
            total = sum(
                reservoir._standard_tableaux(shape) * int(size)
                for shape, size in zip(shapes, sizes)
            )
            assert total == dim**n, (dim, n)


class TestNoDenseFallback:
    @pytest.mark.parametrize("dim, n", [(3, 6), (4, 5)])
    def test_steps_never_allocate_the_dense_twirl(self, dim, n):
        # one d^n x d^n complex matrix takes 8.5 MB at d = 3, n = 6
        rho, sigma = random_state(dim, dim, 1), random_state(dim, dim, 2)
        tracemalloc.start()
        try:
            step_entropy_production(rho, sigma, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _twirl(rho, sigma, n):
    return _kron_loop_twirl(rho.matrix, sigma.matrix, n)


class TestTwirl:
    def test_single_slot_is_identity(self):
        assert np.allclose(_twirl(RHO, SIGMA, 1), RHO.matrix, atol=1e-15)

    def test_equal_states_give_product(self):
        out = _twirl(SIGMA, SIGMA, 3)
        expected = np.kron(np.kron(SIGMA.matrix, SIGMA.matrix), SIGMA.matrix)
        assert np.allclose(out, expected, atol=1e-14)

    def test_two_slots_explicit_mixture(self):
        out = _twirl(RHO, SIGMA, 2)
        expected = 0.5 * (
            np.kron(RHO.matrix, SIGMA.matrix) + np.kron(SIGMA.matrix, RHO.matrix)
        )
        assert np.allclose(out, expected, atol=1e-15)

    def test_twirl_cap(self):
        with pytest.raises(DimensionCapExceeded) as err:
            step_entropy_production(RHO, SIGMA, 12)  # 2^13 > 4096
        assert err.value.max_feasible == 11
        assert "11" in str(err.value)

    def test_trace_and_hermiticity(self):
        rho = random_state(2, 2, 1)
        sigma = random_state(2, 2, 2)
        out = _twirl(rho, sigma, 3)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-14

    def test_cyclic_slot_relabeling_invariance(self):
        rho = random_state(2, 2, 3)
        sigma = random_state(2, 2, 4)
        n = 3
        out = _twirl(rho, sigma, n)
        shaped = out.reshape((2,) * (2 * n))
        rolled = shaped.transpose(1, 2, 0, 4, 5, 3).reshape(2**n, 2**n)
        assert np.max(np.abs(out - rolled)) < 1e-10

    def test_twirl_never_decreases_entropy(self):
        for seed in range(4):
            rho = random_state(2, 2, seed)
            sigma = random_state(2, 2, seed + 40)
            for n in (2, 3):
                gain = step_entropy_production(rho, sigma, n)
                assert gain >= -1e-9


class TestStepEntropyProduction:
    def test_single_slot_produces_nothing(self):
        assert step_entropy_production(RHO, SIGMA, 1) == 0.0
        for dim in (2, 3, 4):
            for kind in PAIR_KINDS:
                assert step_entropy_production(*_pair(kind, dim, 3), 1) == 0.0

    def test_equal_states_produce_nothing(self):
        for n in (1, 2, 4):
            assert step_entropy_production(SIGMA, SIGMA, n) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_two_slots_against_oracle(self):
        dense = step_entropy_production(RHO, SIGMA, 2)
        fast = step_entropy_production(P, Q, 2)
        oracle = _mixture_entropy_oracle(P.weights, Q.weights, 2) - (
            shannon_entropy(P) + shannon_entropy(Q)
        )
        assert dense == pytest.approx(oracle, abs=1e-10)
        assert fast == pytest.approx(oracle, abs=1e-12)

    def test_classical_trivials(self):
        assert step_entropy_production(P, Q, 1) == pytest.approx(0.0, abs=1e-12)
        assert step_entropy_production(Q, Q, 5) == pytest.approx(0.0, abs=1e-12)

    def test_modes_agree_on_diagonal_inputs(self):
        for n in range(1, 7):
            dense = step_entropy_production(RHO, SIGMA, n)
            fast = step_entropy_production(P, Q, n)
            assert dense == pytest.approx(fast, abs=1e-9)

    def test_classical_cap(self):
        with pytest.raises(DimensionCapExceeded) as err:
            step_entropy_production(P, Q, 21)  # 2^21 > 2^20
        assert err.value.max_feasible == 20

    def test_kind_mismatch(self):
        with pytest.raises(DimensionMismatch):
            step_entropy_production(RHO, SIGMA.matrix, 2)
        with pytest.raises(DimensionMismatch):
            step_entropy_production(P, RHO, 2)


class TestConvergenceScan:
    def test_equal_states_all_zero(self):
        scan = convergence_scan(Q, Q, 6)
        assert scan.reference == 0.0
        assert np.allclose(scan.delta_S, 0.0, atol=1e-9)
        assert scan.mode == "classical-fast"

    def test_documented_pair_converges(self):
        scan = convergence_scan(P, Q, 8)
        assert scan.reference == pytest.approx(relative_entropy(P, Q), abs=1e-12)
        assert np.all(np.diff(scan.gaps) < 0.0)
        assert scan.gaps[-1] < scan.gaps[1]

    def test_dense_mode_on_random_qubits(self):
        rho = random_state(2, 2, 7)
        sigma = random_state(2, 2, 8)
        scan = convergence_scan(rho, sigma, 6)
        assert scan.mode == "dense"
        assert np.all(scan.delta_S >= -1e-9)
        assert np.all(np.diff(scan.gaps[3:]) < 0.0)
        assert scan.gaps[-1] < scan.gaps[1]

    def test_lengths_match(self):
        scan = convergence_scan(P, Q, 5)
        assert scan.n_values.size == scan.delta_S.size == scan.gaps.size == 5