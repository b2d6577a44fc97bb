import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statlen import (
    BadRank,
    NotHermitian,
    NotNormalized,
    NotPositive,
    State,
    TransportSchedule,
    ValidationError,
    add_ridge,
    entropy,
    random_distribution,
    random_state,
    spectral,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen.states import (
    INPUT_SUM_TOL,
    SUPPORT_FLOOR,
    VALIDATION_TOL,
    _RENORM_SKIP,
    _sqrt_rows,
    _validate_rows,
)


class TestState:
    @pytest.mark.parametrize("array, kind", [(np.zeros(3), "classical"), (np.zeros((3, 3)), "quantum")])
    def test_kind_and_dim_are_read_from_the_shape(self, array, kind):
        """Only the shape: the values are the validators' to check."""
        state = State(array)
        assert (state.kind, state.dim) == (kind, 3)
        assert np.asarray(state) is array

    @pytest.mark.parametrize(
        "array",
        [np.zeros((2, 3)), np.zeros(0), np.zeros((0, 0)), np.zeros((2, 2, 2)), np.float64(1.0), [0.5, 0.5]],
        ids=["rectangular", "empty-vector", "empty-matrix", "rank-3", "scalar", "list"],
    )
    def test_shape_without_a_kind_rejected(self, array):
        """A (2, 3) array once made a state of dim 2."""
        with pytest.raises(ValidationError, match=r"a state is a \(d,\) or \(d, d\) array"):
            State(array)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_distribution(np.eye(2) / 2), r"distribution must be a vector, got shape \(2, 2\)"),
        (lambda: tangent_classical(np.zeros((2, 2))), r"tangent vector must be 1-d, got shape \(2, 2\)"),
        (lambda: tangent_quantum(np.zeros(2)), r"tangent matrix must be square, got shape \(2,\)"),
        (lambda: random_distribution(0, 1), "dim must be positive, got 0"),
        (lambda: add_ridge(validate_distribution([0.5, 0.5]), -1e-6), "ridge must be nonnegative"),
        (lambda: add_ridge(np.eye(2) / 2, 1e-6), "cannot ridge object of type ndarray"),
    ],
    ids=["distribution-of-a-matrix", "classical-tangent-of-a-matrix", "quantum-tangent-of-a-vector",
         "random-distribution-of-dim-0", "negative-ridge", "ridge-of-a-raw-array"],
)
def test_input_of_the_wrong_form_is_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestValidateDistribution:
    def test_already_normalized_passes_unchanged(self):
        p = validate_distribution([0.5, 0.5])
        assert np.array_equal(p.array, np.array([0.5, 0.5]))

    def test_roundoff_negative_clipped_to_zero(self):
        p = validate_distribution([0.5, 0.5, -1e-13])
        assert np.array_equal(p.array, np.array([0.5, 0.5, 0.0]))

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            validate_distribution([0.3, 0.3])

    def test_genuinely_negative_rejected(self):
        with pytest.raises(NotPositive):
            validate_distribution([1.001, -0.001])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            validate_distribution([])

    def test_complex_weights_rejected(self):
        # a cast to float would drop the imaginary part with only a warning
        for raw in (np.array([0.5 + 1j, 0.5]), [0.5 + 0j, 0.5]):
            with pytest.raises(ValidationError, match="must be real"):
                validate_distribution(raw)
        with pytest.raises(ValidationError, match="must be real"):
            _validate_rows(np.array([[0.5, 0.5], [0.5 + 1j, 0.5]]))

    def test_small_sum_deviation_renormalized(self):
        p = validate_distribution([0.5 + 1e-10, 0.5])
        assert abs(p.array.sum() - 1.0) < 1e-12

    def test_revalidation_is_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.dirichlet(np.ones(6))
            raw[rng.integers(6)] -= 5e-13  # force a clip on some draws
            once = validate_distribution(raw)
            twice = validate_distribution(once.array)
            assert np.array_equal(once.array, twice.array)

    def test_output_is_read_only(self):
        p = validate_distribution([1.0])
        with pytest.raises(ValueError):
            p.array[0] = 0.5


class TestValidateDensity:
    def test_maximally_mixed_passes_unchanged(self):
        rho = validate_density(np.eye(2) / 2)
        assert np.array_equal(rho.array, np.eye(2, dtype=complex) / 2)

    def test_roundoff_negative_eigenvalue_clipped(self):
        rho = validate_density(np.diag([1.0, -1e-13]))
        assert np.allclose(rho.array, np.diag([1.0, 0.0]), atol=1e-15)

    def test_wrong_trace_rejected(self):
        with pytest.raises(NotNormalized):
            validate_density(np.diag([0.7, 0.7]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            validate_density(np.diag([1.5, -0.5]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_density(np.ones((2, 3)))

    def test_revalidation_is_bit_identical(self):
        for seed, dim, rank in [(0, 2, 2), (1, 4, 4), (2, 4, 2), (3, 9, 9), (4, 16, 5)]:
            rho = random_state(dim, rank, seed)
            again = validate_density(rho.array)
            assert np.array_equal(rho.array, again.array)

    def test_revalidation_after_forced_clip(self):
        dirty = np.diag([0.6, 0.4 + 1e-13, -1e-13])
        once = validate_density(dirty)
        twice = validate_density(once.array)
        assert np.array_equal(once.array, twice.array)


class TestSpectralCalculus:
    def test_spectral_descending_and_reconstructs(self):
        for dim, seed in ((8, 21), (64, 22)):
            rho = random_state(dim, dim, seed)
            dec = spectral(rho)
            assert np.all(np.diff(dec.eigenvalues) <= 0)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - rho.array)) < 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10

    def test_sqrt_of_projector_is_projector(self):
        root = _sqrt_rows(validate_density(np.diag([1.0, 0.0])).array[None])[0]
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sqrt_of_maximally_mixed(self):
        root = _sqrt_rows(validate_density(np.eye(2) / 2).array[None])[0]
        assert np.allclose(root, np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_sqrt_diagonal_values(self):
        # elementwise square root of the spectrum
        root = _sqrt_rows(validate_density(np.diag([0.9, 0.1])).array[None])[0]
        assert np.allclose(np.diag(root).real, [0.9486832980505138, 0.31622776601683794])

    def test_sqrt_squares_back(self):
        for seed, dim in [(5, 2), (6, 5), (7, 16)]:
            rho = random_state(dim, dim, seed)
            root = _sqrt_rows(rho.array[None])[0]
            assert np.max(np.abs(root @ root - rho.array)) < 1e-10


class TestEntropies:
    def test_pure_state_zero(self):
        assert entropy(random_state(4, 1, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_ln_d(self):
        for d in (2, 3, 7):
            rho = validate_density(np.eye(d) / d)
            assert entropy(rho) == pytest.approx(np.log(d), abs=1e-12)

    def test_binary_entropy_value(self):
        # -0.9 ln 0.9 - 0.1 ln 0.1
        expected = 0.3250829733914482
        assert entropy(validate_density(np.diag([0.9, 0.1]))) == pytest.approx(
            expected, abs=1e-12
        )
        assert entropy(validate_distribution([0.9, 0.1])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_shannon_trivials(self):
        assert entropy(validate_distribution([1.0, 0.0])) == 0.0
        p = validate_distribution(np.ones(5) / 5)
        assert entropy(p) == pytest.approx(np.log(5), abs=1e-12)

    def test_von_neumann_equals_shannon_of_spectrum(self):
        for seed in range(5):
            rho = random_state(6, 6, seed)
            lam = spectral(rho).eigenvalues
            assert entropy(rho) == pytest.approx(
                entropy(validate_distribution(lam)), abs=1e-12
            )

    def test_additivity_over_tensor_factors(self):
        rho = random_state(3, 3, 41)
        sigma = random_state(4, 2, 42)
        combined = entropy(np.kron(rho.array, sigma.array))
        assert combined == pytest.approx(
            entropy(rho) + entropy(sigma), abs=1e-9
        )


class TestRandomStates:
    def test_rank_one_is_pure(self):
        rho = random_state(2, 1, 99)
        assert entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_has_positive_spectrum(self):
        rho = random_state(3, 3, 99)
        assert spectral(rho).eigenvalues[-1] > 0

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_state(4, 2, 5).array, random_state(4, 2, 5).array)
        assert not np.array_equal(random_state(4, 2, 5).array, random_state(4, 2, 6).array)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_state(2, 3, 0)
        with pytest.raises(BadRank):
            random_state(2, 0, 0)

    def test_random_distribution_deterministic(self):
        p = random_distribution(5, 1)
        assert np.array_equal(p.array, random_distribution(5, 1).array)
        assert p.array.min() > 0


class TestTangentsAndRidge:
    def test_tangent_classical_zero_sum(self):
        t = tangent_classical([1.0, -1.0])
        assert t.delta.sum() == 0.0
        with pytest.raises(ValidationError):
            tangent_classical([1.0, 1.0])
        with pytest.raises(ValidationError, match="must be real"):
            tangent_classical([1 + 2j, -1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_tangents_with_non_finite_entries_rejected(self, bad):
        """A NaN once gave an all-NaN tangent, whose metric element read nan; a quantum
        inf failed only where RuntimeWarning is an error."""
        with pytest.raises(ValidationError):
            tangent_classical([bad, 0.0])
        for entry in ((0, 0), (0, 1)):
            delta = np.zeros((2, 2), dtype=complex)
            delta[entry] = bad
            with pytest.raises(ValidationError):
                tangent_quantum(delta)

    @pytest.mark.parametrize(
        "parse, raw",
        [(tangent_classical, [np.inf, -np.inf]),
         (tangent_quantum, [[np.inf, 0.0], [0.0, -np.inf]]),
         (tangent_quantum, [[np.nan, 0.0], [0.0, 0.0]])],
        ids=["classical-inf", "quantum-inf", "quantum-nan"],
    )
    def test_tangent_parsers_refuse_non_finite_first(self, parse, raw):
        """Both parsers run the finiteness test before any other; a non-finite
        matrix once surfaced as a NaN Hermiticity deviation."""
        with pytest.raises(ValidationError, match="non-finite") as info:
            parse(raw)
        assert type(info.value) is ValidationError

    def test_tangent_quantum_traceless_hermitian(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        t = tangent_quantum(sx)
        assert abs(np.trace(t.delta)) == 0.0
        with pytest.raises(ValidationError):
            tangent_quantum(np.eye(2))  # trace 2
        with pytest.raises(ValidationError):
            tangent_quantum(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_ridge_keeps_trace_and_lifts_rank(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        lifted = add_ridge(rho, 1e-6)
        assert np.trace(lifted.array).real == pytest.approx(1.0, abs=1e-12)
        assert spectral(lifted).eigenvalues[-1] > 1e-7

    def test_ridge_zero_is_identity(self):
        p = validate_distribution([0.4, 0.6])
        assert add_ridge(p, 0.0) is p


# ---------- batched validation against the single-state reference ----------

def _reference_distribution(raw) -> np.ndarray:
    """Validation of one weight vector, written out here as the reference."""
    weights = np.array(raw, dtype=np.float64, copy=True)
    wmin = float(weights.min())
    if wmin < -VALIDATION_TOL:
        raise NotPositive(wmin)
    total = float(weights.sum())
    if abs(total - 1.0) > INPUT_SUM_TOL:
        raise NotNormalized(total)
    if wmin < 0.0:
        weights = np.clip(weights, 0.0, None)
        total = float(weights.sum())
    if abs(total - 1.0) > _RENORM_SKIP:
        weights = weights / total
    return weights


def _reference_density(raw) -> np.ndarray:
    """Validation of one matrix, written out here as the reference."""
    mat = np.array(raw, dtype=np.complex128, copy=True)
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > VALIDATION_TOL:
        raise NotHermitian(herm_dev)
    if herm_dev > 0.0:
        mat = 0.5 * (mat + mat.conj().T)
    lam, vec = np.linalg.eigh(mat)
    lam_min = float(lam[0])
    if lam_min < -VALIDATION_TOL:
        raise NotPositive(lam_min)
    trace = float(np.real(np.trace(mat)))
    if abs(trace - 1.0) > INPUT_SUM_TOL:
        raise NotNormalized(trace)
    if lam_min < -SUPPORT_FLOOR or abs(trace - 1.0) > _RENORM_SKIP:
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        mat = (vec * lam) @ vec.conj().T
        mat = 0.5 * (mat + mat.conj().T)
    return mat


# Row defects: clean rows pass through, roundoff ones are repaired, bad ones raise.
CLASSICAL_DEFECTS = ("clean", "negative_entry", "sum_off")
QUANTUM_DEFECTS = ("clean", "negative_eigenvalue", "trace_off", "hermiticity")


def _raw_distribution(rng, dim, defect, scale=1.0):
    """A weight row with the defect, of ``scale`` times the roundoff size validation repairs."""
    w = rng.random(dim) ** 2 + 1e-3
    w = w / w.sum()
    if defect == "negative_entry" and dim > 1:
        i = int(rng.integers(dim))
        w[(i + 1) % dim] += w[i] + 1e-13 * scale
        w[i] = -1e-13 * scale
    elif defect == "sum_off":
        w = w * (1.0 + 1e-12 * scale)
    return w


def _raw_density(rng, dim, defect, scale=1.0):
    """A matrix row with the defect, of ``scale`` times the roundoff size validation repairs."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    lam = rng.random(dim) + 1e-3
    if defect == "negative_eigenvalue" and dim > 1:
        lam[-1] = 0.0
    lam = lam / lam.sum()
    if defect == "negative_eigenvalue" and dim > 1:
        lam[-1] = -1e-13 * scale
    mat = (q * lam) @ q.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    if defect == "trace_off":
        mat = mat * (1.0 + 1e-12 * scale)
    elif defect == "hermiticity" and dim > 1:
        mat[0, 1] += 1e-13 * scale
    return mat


class TestBatchedValidation:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 150),
        defects=st.lists(st.sampled_from(CLASSICAL_DEFECTS), min_size=1, max_size=6),
    )
    def test_distribution_rows_match_reference(self, seed, dim, defects):
        rng = np.random.default_rng(seed)
        raw = np.stack([_raw_distribution(rng, dim, d) for d in defects])
        rows, eig = _validate_rows(raw)
        assert eig is None
        for k in range(len(defects)):
            expected = _reference_distribution(raw[k])
            assert np.array_equal(rows[k], expected)
            assert np.array_equal(validate_distribution(raw[k]).array, expected)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 12),
        defects=st.lists(st.sampled_from(QUANTUM_DEFECTS), min_size=1, max_size=6),
    )
    def test_density_rows_match_reference(self, seed, dim, defects):
        rng = np.random.default_rng(seed)
        raw = np.stack([_raw_density(rng, dim, d) for d in defects])
        mats = _validate_rows(raw)[0]
        for k in range(len(defects)):
            expected = _reference_density(raw[k])
            assert np.array_equal(mats[k], expected)
            assert np.array_equal(validate_density(raw[k]).array, expected)

    @pytest.mark.parametrize(
        "raw_row, kinds",
        [(_raw_distribution, CLASSICAL_DEFECTS), (_raw_density, QUANTUM_DEFECTS)],
        ids=["classical", "quantum"],
    )
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), data=st.data())
    def test_transport_refuses_a_row_as_validation_does(self, raw_row, kinds, seed, dim, data):
        """A row validation refuses makes a schedule's rows constructor raise the same exception class."""
        defects = data.draw(st.lists(
            st.tuples(st.sampled_from(kinds), st.sampled_from([1.0, 1e2, 1e4, 1e6])),
            min_size=1, max_size=4,
        ))
        rng = np.random.default_rng(seed)
        clean = _validate_rows(raw_row(rng, dim, "clean")[None])[0][0]
        for defect, scale in defects:
            row = raw_row(rng, dim, defect, scale)
            try:
                _validate_rows(row[None])
            except ValidationError as exc:
                expected = type(exc)
            else:
                continue
            with pytest.raises(expected, match="row 1 is not a") as info:
                TransportSchedule.from_rows(np.stack([clean, row]), np.array([0.0, 1.0]))
            assert type(info.value) is expected

    def test_defects_are_repaired_not_passed(self):
        rng = np.random.default_rng(3)
        raw = np.stack([_raw_density(rng, 3, d) for d in QUANTUM_DEFECTS])
        mats = _validate_rows(raw)[0]
        assert np.array_equal(mats[0], raw[0])
        assert not np.array_equal(mats[3], raw[3])
        assert np.array_equal(mats[3], mats[3].conj().T)
        clipped = _validate_rows(
            np.stack([_raw_distribution(rng, 4, d) for d in CLASSICAL_DEFECTS])
        )[0]
        assert clipped[1].min() == 0.0

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([1.001, -0.001], NotPositive),
            ([0.6, 0.6], NotNormalized),
        ],
    )
    def test_distribution_errors_match_single(self, bad, error):
        with pytest.raises(error):
            validate_distribution(bad)
        stack = np.array([[0.5, 0.5], bad, [0.2, 0.8]])
        with pytest.raises(error, match="row 1 is not a"):
            _validate_rows(stack)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[0.5, 1e-6], [0.0, 0.5]], NotHermitian),
            ([[1.001, 0.0], [0.0, -0.001]], NotPositive),
            ([[0.55, 0.0], [0.0, 0.55]], NotNormalized),
        ],
    )
    def test_density_errors_match_single(self, bad, error):
        with pytest.raises(error):
            validate_density(bad)
        stack = np.array([np.eye(2) / 2, bad, np.diag([0.3, 0.7])], dtype=complex)
        with pytest.raises(error, match="row 1 is not a"):
            _validate_rows(stack)

    def test_batched_shapes_checked(self):
        """The rank is the kind: (K, d) weights or (K, d, d) matrices, nothing else."""
        for bad in (np.ones(3) / 3, np.ones((2, 2, 3)) / 2, np.ones((1, 1, 2, 2)) / 2, np.ones((2, 0))):
            with pytest.raises(ValidationError, match="stack"):
                _validate_rows(bad)
        with pytest.raises(ValidationError):
            _validate_rows([[0.5, np.nan]])

    def test_input_is_not_modified(self):
        for raw in (np.array([[0.5, 0.5, -1e-13]]), np.array([np.diag([0.5, 0.5 + 1e-12])])):
            before = raw.copy()
            _validate_rows(raw)
            assert np.array_equal(raw, before)
