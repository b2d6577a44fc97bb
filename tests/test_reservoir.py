import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statlen.reservoir as reservoir
from statlen import (
    DimensionCapExceeded,
    DimensionMismatch,
    ReservoirScanResult,
    State,
    convergence_scan,
    entropy,
    random_distribution,
    random_state,
    relative_entropy,
    step_entropy_production,
    validate_density,
    validate_distribution,
)
from statlen.reservoir import CLASSICAL_DIM_CAP, QUANTUM_DIM_CAP

P = validate_distribution([0.5, 0.5])
Q = validate_distribution([0.9, 0.1])
RHO = validate_density(np.diag(P.array))
SIGMA = validate_density(np.diag(Q.array))


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
        powers.append(np.kron(powers[-1], q.array))
    acc = np.zeros(p.dim ** n)
    for k in range(n):
        acc += np.kron(powers[k], np.kron(p.array, powers[n - k - 1]))
    acc /= n
    return (
        entropy(State(acc))
        - entropy(p)
        - (n - 1) * entropy(q)
    )


def _eigvalsh_entropy(mat):
    """Reference von Neumann entropy: eigvalsh, eigenvalues at or below 1e-14 dropped."""
    lam = np.linalg.eigvalsh(mat)
    kept = lam[lam > 1e-14]
    return float(-np.sum(kept * np.log(kept)))


def _kron_loop_dense_step(rho, sigma, n):
    """Reference dense step: the kron loop twirl and eigvalsh entropies."""
    return (
        _eigvalsh_entropy(_kron_loop_twirl(rho.array, sigma.array, n))
        - _eigvalsh_entropy(rho.array)
        - (n - 1) * _eigvalsh_entropy(sigma.array)
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
            validate_density((basis * random_distribution(dim, seed + i).array) @ basis.conj().T)
            for i in (0, 1)
        )
    rank_rho, rank_sigma = {"full": (dim, dim), "pure-sigma": (dim, 1), "pure-rho": (1, dim)}[kind]
    return random_state(dim, rank_rho, seed), random_state(dim, rank_sigma, seed + 1)


PAIR_KINDS = ["full", "pure-sigma", "pure-rho", "commuting"]


def _cap_n(dim):
    """Largest n the composite-dimension cap allows a density-matrix step."""
    n = 0
    while dim ** (n + 2) <= QUANTUM_DIM_CAP:
        n += 1
    return n


def _with_zero(p, index):
    w = p.array.copy()
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
        q[: dim - 1] = random_distribution(dim - 1, dim).array
        p = np.zeros(dim)
        p[1:] = random_distribution(dim - 1, n).array
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


def _feasible_keys():
    """Every (d, n >= 2) a density-matrix step can build a structure for under the cap."""
    return [(d, n) for d in range(2, 17) for n in range(2, _cap_n(d) + 1)]


def _weyl_dimension(shape) -> int:
    """dim V_lambda = prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i), in exact integers."""
    pairs = [(i, j) for j in range(len(shape)) for i in range(j)]
    return math.prod(shape[i] - shape[j] + j - i for i, j in pairs) // math.prod(j - i for i, j in pairs)


class TestStructureCache:
    """The (d, n) structure of the GL(d) blocks is built once, kept read-only, and bounded."""

    def test_every_feasible_key_fits_its_budget(self):
        # Per key the cache keeps 8-byte entries: origin and local (one per pattern),
        # the weight (d) and the lowered exponents (d^2) of each pattern, five entries
        # (i, j, row, col, value) per upper-triangle element, and the padded multiplicities.
        # A pair of patterns in one block differs in weight by e_i - e_j for at most one
        # i < j, so the upper triangles hold at most sum_lambda C(dim V_lambda, 2) elements.
        # With 2 KiB per key for the array headers and the cache entry, the 36 keys
        # come to a budget of about 7.7 MB; building them all kept 3.9 MB.
        keys = _feasible_keys()
        budget = 0
        for d, n in keys:
            dims = [_weyl_dimension(shape) for shape in reservoir._partitions(n, d)]
            entries = sum(dims) * (2 + d + d * d) + 5 * sum(k * (k - 1) // 2 for k in dims)
            budget += 8 * (entries + len(dims) * max(dims)) + 2048
        reservoir._gl_structure.cache_clear()
        tracemalloc.start()
        try:
            for d, n in keys:
                reservoir._gl_structure(d, n)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(keys) == reservoir._gl_structure.cache_info().currsize == 36
        assert 7.6e6 < budget < 7.8e6
        assert retained < budget

    @pytest.mark.parametrize("dim, n", [(2, 11), (3, 6), (4, 5), (16, 2)])
    def test_cached_arrays_are_read_only(self, dim, n):
        structure = reservoir._gl_structure(dim, n)
        arrays = [part for part in structure if isinstance(part, np.ndarray)]
        assert len(arrays) == len(structure) - 1
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_patterns_are_built_once_per_key(self, monkeypatch):
        # the per-step build once made one call per step with n >= 2: fourteen here, not seven
        patterns, built = reservoir._gt_patterns, []

        def counting(shapes):
            built.append((len(shapes[0]), sum(shapes[0])))
            return patterns(shapes)

        monkeypatch.setattr(reservoir, "_gt_patterns", counting)
        reservoir._gl_structure.cache_clear()
        qubits, qutrits = _pair("full", 2, 1), _pair("pure-sigma", 3, 2)
        for pair, n_max in ((qubits, 5), (qutrits, 4)):
            first = convergence_scan(*pair, n_max).delta_S
            assert convergence_scan(*pair, n_max).delta_S.tobytes() == first.tobytes()
        assert sorted(built) == [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]


def _twirl(rho, sigma, n):
    return _kron_loop_twirl(rho.array, sigma.array, n)


class TestTwirl:
    def test_single_slot_is_identity(self):
        assert np.allclose(_twirl(RHO, SIGMA, 1), RHO.array, atol=1e-15)

    def test_equal_states_give_product(self):
        out = _twirl(SIGMA, SIGMA, 3)
        expected = np.kron(np.kron(SIGMA.array, SIGMA.array), SIGMA.array)
        assert np.allclose(out, expected, atol=1e-14)

    def test_two_slots_explicit_mixture(self):
        out = _twirl(RHO, SIGMA, 2)
        expected = 0.5 * (
            np.kron(RHO.array, SIGMA.array) + np.kron(SIGMA.array, RHO.array)
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
        oracle = _mixture_entropy_oracle(P.array, Q.array, 2) - (
            entropy(P) + entropy(Q)
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
        with pytest.raises(ValueError, match="reservoir size must be positive, got 0"):
            step_entropy_production(P, Q, 0)

    def test_kind_mismatch(self):
        with pytest.raises(DimensionMismatch):
            step_entropy_production(RHO, SIGMA.array, 2)
        with pytest.raises(DimensionMismatch):
            step_entropy_production(P, RHO, 2)


class TestFiniteReservoirLaw:
    """rho = sigma (1 + h x) with E[x] = 0.  Delta S_n = S(rho||sigma) - chi_n with
    chi_n = D(T_n||sigma^n) and T_n = sigma^n (1 + (h/n) sum_k x_k); expanding
    (1 + u) ln(1 + u) = u + u^2/2 - u^3/6 + u^4/12 - ... with the moments m_j of x,
    and E[(sum_k x_k)^4] = n m_4 + 3 n (n - 1) m_2^2, gives
    Delta S_n = (1 - 1/n) h^2 m_2/2 - (1 - 1/n^2) h^3 m_3/6 + h^4 q_4 + O(h^5),
    q_4 = (m_4 (1 - 1/n^3) - 3 (n - 1) m_2^2 / n^3) / 12."""

    SIGMA = np.array([0.4, 0.3, 0.2, 0.1])
    DIRECTION = np.array([1.0, -1.0, 0.5, -0.5])   # h x sigma: sums to 0, so E[x] = 0

    def test_a_twirled_slot_has_the_mixed_marginal(self):
        p, q, n = P.array, self.SIGMA[:2] / 0.7, 3
        twirl = np.diag(_kron_loop_twirl(np.diag(p), np.diag(q), n)).real.reshape((2,) * n)
        assert twirl.sum(axis=(1, 2)) == pytest.approx(p / n + (1 - 1 / n) * q, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("h", [1e-2, 3e-3])
    def test_step_follows_the_cubic_law(self, n, h):
        m2, m3, m4 = (float(np.sum(self.DIRECTION ** j / self.SIGMA ** (j - 1))) for j in (2, 3, 4))
        cubic = (1 - 1 / n) * h**2 * m2 / 2 - (1 - 1 / n**2) * h**3 * m3 / 6
        quartic = h**4 * (m4 * (1 - 1 / n**3) - 3 * (n - 1) * m2**2 / n**3) / 12
        rho = validate_distribution(self.SIGMA + h * self.DIRECTION)
        delta_s = step_entropy_production(rho, validate_distribution(self.SIGMA), n)
        # what the cubic law leaves out is the quartic term, up to an O(h^5) part of
        # order h^5 abs(m_5)/20 (m_5 = -377), a few percent of it at h = 1e-2
        assert delta_s - cubic == pytest.approx(quartic, rel=0.5)

    @pytest.mark.parametrize("dim, n", [(2, 2), (2, 4), (2, 8), (2, 11), (3, 2), (3, 3)])
    def test_quantum_step_follows_the_second_order_law(self, dim, n):
        """Between slots the Kubo-Mori product of two perturbations is tr X tr Y = 0,
        so the second-order law holds on a non-commuting pair: the excess
        e(h) = Delta S_n / ((1 - 1/n) S(rho||sigma)) - 1 is c h + O(h^2).  A decade
        in h then scales e by 1/10 up to a relative O(h) part; an O(h^2) excess
        would scale it by 1/100 and a failed law by about 1."""
        sigma, other = random_state(dim, dim, 4), random_state(dim, dim, 3)

        def excess(h):
            rho = validate_density(sigma.array + h * (other.array - sigma.array))
            return step_entropy_production(rho, sigma, n) / ((1 - 1 / n) * relative_entropy(rho, sigma)) - 1

        assert 1 / 20 <= excess(1e-4) / excess(1e-3) <= 1 / 5


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

    @pytest.mark.parametrize("pair", [(P, Q), (RHO, SIGMA)], ids=["classical", "dense"])
    def test_scan_reads_n_and_gaps_from_its_values(self, pair):
        scan = convergence_scan(*pair, 5)
        assert np.array_equal(scan.n_values, np.arange(1, 6))
        assert np.array_equal(scan.gaps, np.abs(scan.delta_S - scan.reference))
        for n, value in zip(scan.n_values, scan.delta_S):
            assert value == step_entropy_production(*pair, int(n))

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        dim=st.integers(2, 6),
        data=st.data(),
        zero=st.sampled_from([None, "p", "q"]),
        index=st.integers(0, 5),
        seed=st.integers(0, 10**6),
    )
    def test_classical_scan_is_every_step_bit_for_bit(self, dim, data, zero, index, seed):
        cap = max(n for n in range(1, 21) if dim ** n <= CLASSICAL_DIM_CAP)
        n_max = data.draw(st.integers(1, min(12, cap)), label="n_max")
        p = random_distribution(dim, seed)
        q = random_distribution(dim, seed + 1)
        if zero == "p":
            p = _with_zero(p, index)
        if zero == "q":
            q = _with_zero(q, index)
        scan = convergence_scan(p, q, n_max)
        for n in range(1, n_max + 1):
            assert scan.delta_S[n - 1] == step_entropy_production(p, q, n)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        kind=st.sampled_from(PAIR_KINDS),
        dim=st.integers(2, 4),
        data=st.data(),
        seed=st.integers(0, 10**6),
    )
    def test_dense_scan_is_every_step_bit_for_bit(self, kind, dim, data, seed):
        # the same bits from a cold structure cache, a warm one, and steps taken in a
        # shuffled order of n with a step of another dimension built before each
        n_max = data.draw(st.integers(1, _cap_n(dim)), label="n_max")
        order = data.draw(st.permutations(range(1, n_max + 1)), label="order")
        rho, sigma = _pair(kind, dim, seed)
        other = _pair("full", dim + 1, seed + 2)
        reservoir._gl_structure.cache_clear()
        cold = convergence_scan(rho, sigma, n_max).delta_S
        warm = convergence_scan(rho, sigma, n_max).delta_S
        assert cold.tobytes() == warm.tobytes()
        reservoir._gl_structure.cache_clear()
        steps = {}
        for n in order:
            step_entropy_production(*other, min(n, _cap_n(other[0].dim)))
            steps[n] = step_entropy_production(rho, sigma, n)
        for n in range(1, n_max + 1):
            assert cold[n - 1] == steps[n]
            assert np.float64(steps[n]).tobytes() == cold[n - 1].tobytes()

    @pytest.mark.parametrize("dim, n_max", [(2, 1), (2, 20), (4, 10), (6, 7)])
    def test_classical_scan_extends_the_types_once_per_length(self, monkeypatch, dim, n_max):
        # per-n steps would rerun the recursion from length 1: n_max (n_max - 1) / 2 extensions
        runs, calls = reservoir._runs, []

        def counting(counts):
            calls.append(counts.size)
            return runs(counts)

        monkeypatch.setattr(reservoir, "_runs", counting)
        convergence_scan(random_distribution(dim, 1), random_distribution(dim, 2), n_max)
        assert len(calls) == n_max - 1

    @pytest.mark.parametrize("field", ["n_values", "gaps"])
    def test_scan_takes_no_derived_field(self, field):
        """A scan once took both as fields and accepted any that disagreed."""
        with pytest.raises(TypeError):
            ReservoirScanResult(np.zeros(2), 0.0, "classical-fast", **{field: np.zeros(2)})
