"""Accuracy ledger: kernels that can cancel, against 50-digit references.

Each entry names its input family, the worst relative error measured on
it, and the bound it asserts.  A bound comes from the rounding analysis
of the kernel, in units of the unit roundoff U = 2**-53, never from the
output of the code it checks.

| kernel | input family | worst measured | bound |
| --- | --- | --- | --- |
| reservoir step, probability vectors | skewed q, p = q exp(0.01 v) renormalized; d = 4, n = 10 and d = 2, n = 20 | 2.8e-12 | 100 U (S(T_n) + S(a) + (n-1) S(b)) / dS, about 1.3e-8 |
| reservoir step and scan, probability vectors | q = (0.4, 0.3, 0.2, 0.1), p = q + h (1, -1, 1/2, -1/2), h = 1e-3, 1e-4, 1e-5; d = 4, n = 10 | 6.2e-10, 6.4e-8, 2.9e-6 | the same difference-form bound, 6.6e-8, 6.6e-6, 6.6e-4 |
| reservoir step, classical and quantum, and dense scan | q = (0.7, 0.3), p = q + h (1, -1), h = 1e-3, 1e-4, 1e-5, as vectors and as diagonal density matrices; d = 2, n = 11 | 4.8e-11, 4.1e-8, 2.5e-6 | the same difference-form bound, 6.9e-8, 6.9e-6, 6.9e-4 |
| reservoir step, non-commuting density matrices | qubit random_state(2, 2, 3) -> random_state(2, 2, 4), n = 2..5; qutrit random_state(3, 3, 5) -> random_state(3, 3, 6), n = 2, 3; against a dense twirl | 5.3e-16, 7.9e-16 | the difference-form bound plus d**n eta(2 s U) / dS, s the largest block size: 2.2e-13 to 4.7e-12 |
| finite-reservoir law, probability vectors (the law, not a kernel) | q = (0.4, 0.3, 0.2, 0.1) and p = q + h (1, -1, 1/2, -1/2) in 50 digits, h = 1e-3, 1e-4; n = 2, 5, 10 | what the cubic and quartic terms leave: 2.2e-3, 2.2e-4 of the quartic term | half the quartic term |
| Kubo-Mori element | eigenvalue pairs near 0.3 and 1e-3, relative gaps 5e-8 to 0.99 | 1.1e-16 | 10 U |
| relative entropy, probability vectors | [1/2, 1/2] against [1 - 1e-15, 1e-15], S = 16.576; a weight of 1e-320 | 1.8e-16 | 10 U |
| relative entropy of a short step, probability vectors and diagonal density matrices | p -> p + h v, p = (0.1, 0.2, 0.3, 0.4), v = (1, -1, 1/2, -1/2) and p = (0.7, 0.3), v = (1, -1); h = 1e-3 to 1e-6 | 3.6e-11 | 6 U sum a abs(ln r) / S + (terms + d + 1) U, at most 5.6e-10 |
| Fisher element, probability vectors (metric and Kubo-Mori) | [1/2, 1/2, 1e-320] with dp = (0, 1, -1); [1 - 1e-15, 1e-15] with dp = (1, -1); eps = 1e-17 | 1.0e-16 | 10 U |
| expansion probe ratio S / (KM / 2) where the floor accepts eps | p = (1/2, 1/2), dp = (1, -1); random_distribution(4, 3), dp = (1, -1, 1/2, -1/2)/10; random_state(2, 2, 5) and random_state(3, 3, 7) with fixed traceless tangents; eps = 1e-2 to 1e-14 | 4.6e-8 | 10**-PROBE_DIGITS = 1e-6 (the floor's target, derived in expansion_probe) |
| even-schedule step, probability vectors | geodesics p -> p + h v, p = (0.1, 0.2, 0.3, 0.4), v = (1, -1, 1/2, -1/2), h = 1e-3 to 1e-7, N = 1, 8, 64 | 7.4e-9 | 2 U / c + (d + 4) U for a chord c, at most 7.1e-8 |
| lengths and bounds near F = 1, probability vectors: `geodesic_length_fisher(F)`, the classical `bound_fidelity` at N = 1, the chord step length | q = (0.4, 0.3, 0.2, 0.1), p = q + h (1, -1, 1/2, -1/2), h = 1e-4 to 1e-7 (1 - F = 1.2e-8 to 1.2e-14) | 3.0e-3, 6.0e-3, 9.4e-11 | (d + 1) U / theta**2 + 2 U for theta = arccos F (2.3e-2 at h = 1e-7), twice that plus U, and 2 U / c + (d + 4) U (1.4e-9) |

The reservoir step sums exact type weights and subtracts entropies of
size n ln d to get a result of size h**2, so its rounding is of order U
times the sum of the magnitudes it cancels, relative to the result.
Dropping a type weight under a floor would cost its whole mass, which no
rounding bound covers.  On the close pairs p = q + h v the result shrinks
like h**2 while the entropies it cancels do not, so the difference-form
bound grows like 1/h**2, and the errors with it: a bound of a few hundred
U fails on these pairs.  That cancellation is still open; the Holevo form
dS_n = S(a||b) - S(T_n||b^(x n)), whose terms are both of size h**2,
would remove it.  The quantum step of a diagonal pair takes the same
entropies from the eigenvalues of its GL(2) blocks, each within about
(block size) U of the block's largest eigenvalue, at most 12 U at n = 11,
which the difference-form bound covers.  Off the diagonal the blocks
are full, and the reference is the dense 2**n or 3**n twirl, built by a
kron loop and diagonalized by mpmath.eigh.  Each of the d**n eigenvalues
of T_n, with multiplicity, comes from a block of at most s rows, to
within the block's rounding level s eps = 2 s U times its largest
eigenvalue, at most 1; below that level it counts as zero.  With
eta(x) = -x ln x, |eta(x) - eta(y)| <= eta(|x - y|) whenever
|x - y| <= 1/2, so the level moves S(T_n) by at most d**n eta(2 s U),
which is added to the difference-form bound; the entries, S(a), S(b)
and the subtraction are the difference form's.  The finite-reservoir
law dS_n = (1 - 1/n) h**2 m2/2 - (1 - 1/n**2) h**3 m3/6 + h**4 q4 + O(h**5),
m_j = E[x**j] on p = q (1 + h x), is checked against the 50-digit type
sum at h where a double-precision step resolves no quartic term: the
remainder is of order h**5 |m5|/20, m5 = -377, well inside half of
h**4 q4.  The Kubo-Mori coefficient of a
close pair takes an exact difference and one log1p, a few roundings in
all.  The relative
entropy of two weights sums two Klein terms a (r - 1 - ln r) of size at
most |ln 1e-15| ~ 35, each a few roundings, to a result of 16.6; a weight
of 1e-15 is exact mass, and counting it as a zero would make it infinite.
A subnormal weight a takes its a -> 0 limit, since b/a could overflow.
On a short step p -> p + h v the yield S ~ h**2 is a sum of Klein terms
a (r - 1 - ln r) with r = b/a near one.  Each weight is divided by its
row's sum and b by a, three roundings that move r by 3 U r; the sums'
own rounding is a factor common to a row, which moves S only at second
order, since sum a (r - 1) = 0.  A term moves by a |r - 1| per unit of
relative change in r, and |r - 1| <= 1.01 |ln r| here, where
|r - 1| <= 1/100; the log takes at most 2 U |ln r|.  r - 1 is exact for
1/2 <= r <= 2, so there is no cancellation to add: under
6 U sum a |ln r| in all, about 6 U h sum |v| against S ~ h**2, the eps/h
loss of this form.  Relative to S, the rounding of a's row sum, a
common factor, takes (d - 1) U, the division by it, the difference and
the product by a one U each, and the sum of the nonnegative terms
(terms - 1) U: (terms + d + 1) U.  A diagonal density matrix takes the
same terms: eigh splits it into 1 x 1 blocks, so its eigenvalues are the
diagonal and its overlaps 0 or 1, both exactly (asserted), and d**2
terms are summed.
The Fisher element scales dp by eps before it divides by p, so no
quotient overflows on the way to a finite sum of about 1e286: each term
takes a product, a square and a quotient, three roundings and four U at
most, and the sum of three nonnegative terms two more: six U in all.
A step of an even schedule is 4 arcsin(c/2) of the chord
c = ||sqrt(a) - sqrt(b)|| of two consecutive rows.  Each root is within
U of its own size, and the difference of two roots within a factor of
two is exact (Sterbenz), so the differences are off by at most
U (sqrt(a_i) + sqrt(b_i)), a vector of 2-norm at most 2 U: 2 U / c
relative to the chord, the cancellation.  The squares and their sum
take d U, half of which reaches c through the root, the root and arcsin
two U more, a difference outside Sterbenz's range one U; arcsin passes
a small argument's relative error on unchanged, and 1/2 and 4 are exact.
Near F = 1 the lengths and bounds read from F lose what the chord keeps.
F = sum sqrt(p q) takes two roundings per term, 3/2 U relative, and the
sum of d terms d - 1 more, so F is off by under (d + 1/2) U.  arccos moves
that to theta by 1/sin(theta), about 1/theta, so theta is off by
(d + 1/2) U / theta**2 relative, plus one U of arccos: 2.3e-2 at
1 - F = 1.2e-14, where 3.0e-3 was measured.  The bound squares theta, which
doubles that and adds a U.  The chord of the same pair is good to 9.4e-11.
The two 50-digit references differ on these rows themselves: c**2 is
2 (1 - F) plus the two rows' deviations of their sums from one, 2.8e-17 each
here, which moves the angle by 1.2e-3 at h = 1e-7; so each value is checked
against its own formula.
"""
import itertools

import mpmath
import numpy as np
import pytest

from statlen import (
    ValidationError,
    convergence_scan,
    even_schedule,
    expansion_probe,
    geodesic_length_fisher,
    geodesic_path,
    kubo_mori_element,
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
from statlen.reservoir import _gl_structure
from statlen.transport import PROBE_DIGITS

U = 2.0 ** -53
mpmath.mp.dps = 50


def _types(n: int, d: int):
    """Every count vector of n symbols from d, by stars and bars."""
    for cut in itertools.combinations(range(n + d - 1), d - 1):
        bounds = (-1, *cut, n + d - 1)
        yield [bounds[i + 1] - bounds[i] - 1 for i in range(d)]


def _entropy(weights) -> mpmath.mpf:
    return -mpmath.fsum(w * mpmath.log(w) for w in weights if w > 0)


def _reference_step(p, q, n: int):
    """50-digit dS_n = S(T_n) - S(p) - (n-1) S(q), with the sum of the magnitudes it cancels.

    Each type c has multinomial multiplicity and twirled string weight
    (1/n) sum_i c_i p_i q^(c - e_i).  Weights are doubles, taken exactly, or mpf.
    """
    p, q = ([mpmath.mpf(x) for x in weights] for weights in (p, q))
    d = len(p)
    twirled = mpmath.mpf(0)
    for c in _types(n, d):
        weight = mpmath.fsum(
            c[i] * p[i] * mpmath.fprod(q[j] ** (c[j] - (i == j)) for j in range(d))
            for i in range(d) if c[i]
        ) / n
        if weight > 0:
            count = mpmath.factorial(n) / mpmath.fprod(mpmath.factorial(k) for k in c)
            twirled -= count * weight * mpmath.log(weight)
    rest = _entropy(p) + (n - 1) * _entropy(q)
    return twirled - rest, twirled + rest


@pytest.mark.parametrize(
    "q, v, n",
    [((0.97, 0.01, 0.01, 0.01), (1.0, -1.0, 0.5, -0.5), 10), ((0.99, 0.01), (1.0, -1.0), 20)],
    ids=["d4-n10", "d2-n20"],
)
def test_reservoir_step_keeps_every_type_weight(q, v, n):
    q = np.array(q)
    p = q * np.exp(0.01 * np.array(v))
    a, b = validate_distribution(p / p.sum()), validate_distribution(q)
    exact, cancelled = _reference_step(a.array, b.array, n)
    bound = float(100 * U * cancelled / exact)
    error = abs((step_entropy_production(a, b, n) - exact) / exact)
    assert bound < 2e-8
    assert error <= bound


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5])
def test_reservoir_step_and_scan_of_a_close_pair(h):
    # asserts the difference-form bound 100 U (S(T_n) + S(a) + (n-1) S(b)) / dS,
    # which these pairs need: the cancellation of O(n ln d) entropies is not mended
    q = np.array([0.4, 0.3, 0.2, 0.1])
    a, b = validate_distribution(q + h * np.array([1.0, -1.0, 0.5, -0.5])), validate_distribution(q)
    exact, cancelled = _reference_step(a.array, b.array, 10)
    bound = float(100 * U * cancelled / exact)
    for value in (step_entropy_production(a, b, 10), convergence_scan(a, b, 10).delta_S[-1]):
        assert abs((value - exact) / exact) <= bound


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5])
def test_reservoir_steps_of_a_close_diagonal_qubit_pair(h):
    # the classical step, the GL(2) blocks of the same pair as diagonal density
    # matrices, and the dense scan's last value, under the difference-form bound
    q = np.array([0.7, 0.3])
    a, b = validate_distribution(q + h * np.array([1.0, -1.0])), validate_distribution(q)
    rho, sigma = validate_density(np.diag(a.array)), validate_density(np.diag(b.array))
    exact, cancelled = _reference_step(a.array, b.array, 11)
    bound = float(100 * U * cancelled / exact)
    values = (
        step_entropy_production(a, b, 11),
        step_entropy_production(rho, sigma, 11),
        convergence_scan(rho, sigma, 11).delta_S[-1],
    )
    for value in values:
        assert abs((value - exact) / exact) <= bound


def _mp_matrix(mat) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in mat])


def _mp_kron(a: mpmath.matrix, b: mpmath.matrix) -> mpmath.matrix:
    out = mpmath.matrix(a.rows * b.rows, a.cols * b.cols)
    for i, j, k, l in itertools.product(range(a.rows), range(a.cols), range(b.rows), range(b.cols)):
        out[i * b.rows + k, j * b.cols + l] = a[i, j] * b[k, l]
    return out


def _mp_entropy(mat: mpmath.matrix) -> mpmath.mpf:
    return _entropy(mpmath.eigh(mat, eigvals_only=True))


def _reference_dense_step(rho, sigma, n: int):
    """50-digit dS_n of density matrices from the dense twirl (1/n) sum_k sigma..rho_k..sigma,
    with the sum of the magnitudes it cancels."""
    r, s = _mp_matrix(rho), _mp_matrix(sigma)
    twirl = mpmath.matrix(len(rho) ** n)
    for k in range(n):
        term = r if k == 0 else s
        for slot in range(1, n):
            term = _mp_kron(term, r if slot == k else s)
        twirl += term
    mixed, own, other = _mp_entropy(twirl / n), _mp_entropy(r), _mp_entropy(s)
    return mixed - own - (n - 1) * other, mixed + own + (n - 1) * other


@pytest.mark.parametrize(
    "d, seeds, n",
    [(2, (3, 4), n) for n in (2, 3, 4, 5)] + [(3, (5, 6), n) for n in (2, 3)],
    ids=[f"qubit-n{n}" for n in (2, 3, 4, 5)] + [f"qutrit-n{n}" for n in (2, 3)],
)
def test_reservoir_step_of_a_noncommuting_pair(d, seeds, n):
    # the difference-form bound plus d**n eta(2 s U), what the rounding level of blocks
    # of at most s rows can move S(T_n) by (derived in the module docstring)
    rho, sigma = (random_state(d, d, seed) for seed in seeds)
    exact, cancelled = _reference_dense_step(rho.array, sigma.array, n)
    level = 2 * _gl_structure(d, n)[-1] * U
    bound = float((100 * U * cancelled + d ** n * -level * mpmath.log(level)) / exact)
    assert bound < 1e-11
    assert abs((step_entropy_production(rho, sigma, n) - exact) / exact) <= bound


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize("h", ["1e-3", "1e-4"])
def test_finite_reservoir_law_against_the_type_sum(h, n):
    # the law of step_entropy_production's docstring, on sigma (1 + h x) with E[x] = 0:
    # at these h the double-precision step cannot resolve the quartic term, so the
    # 50-digit type sum stands in for it; what the cubic law leaves out is the quartic
    # term h^4 (m4 (1 - 1/n^3) - 3 (n - 1) m2^2 / n^3) / 12, up to an O(h^5) part of
    # order h^5 abs(m5)/20, under 2.2e-3 of it at h = 1e-3
    sigma = [mpmath.mpf(x) for x in ("0.4", "0.3", "0.2", "0.1")]
    direction = [mpmath.mpf(x) for x in (1, -1, 0.5, -0.5)]
    h = mpmath.mpf(h)
    rho = [s + h * v for s, v in zip(sigma, direction)]
    m2, m3, m4 = (mpmath.fsum(v ** j / s ** (j - 1) for s, v in zip(sigma, direction)) for j in (2, 3, 4))
    cubic = (1 - mpmath.mpf(1) / n) * h**2 * m2 / 2 - (1 - mpmath.mpf(1) / n**2) * h**3 * m3 / 6
    quartic = h**4 * (m4 * (1 - mpmath.mpf(1) / n**3) - 3 * (n - 1) * m2**2 / n**3) / 12
    exact, _ = _reference_step(rho, sigma, n)
    assert abs(exact - cubic - quartic) <= abs(quartic) / 2


@pytest.mark.parametrize("gap", [5e-8, 1e-7, 1e-6, 1e-3, 0.5, 0.99])
@pytest.mark.parametrize("low", [0.3, 1e-3])
def test_kubo_mori_coefficient_of_close_eigenvalues(low, gap):
    # diag(lam_1, lam_2, rest) with a unit off-diagonal tangent between the first two:
    # the element is 2 (ln lam_1 - ln lam_2)/(lam_1 - lam_2)
    high = low * (1.0 + gap)
    rho = validate_density(np.diag([high, low, 1.0 - high - low]))
    tangent = tangent_quantum([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    l1, l2 = (mpmath.mpf(float(x)) for x in np.diag(rho.array).real[:2])
    exact = 2 * (mpmath.log(l1) - mpmath.log(l2)) / (l1 - l2)
    error = abs((kubo_mori_element(rho, tangent, 1.0) - exact) / exact)
    assert error <= 10 * U


@pytest.mark.parametrize(
    "a, b, value",
    [([0.5, 0.5], [1.0 - 1e-15, 1e-15], 16.576), ([0.5, 0.5, 1e-320], [0.2, 0.3, 0.5], 0.714)],
    ids=["tiny-in-b", "subnormal-in-a"],
)
def test_relative_entropy_keeps_an_exact_tiny_weight(a, b, value):
    a, b = validate_distribution(a), validate_distribution(b)
    p, q = ([mpmath.mpf(float(x)) for x in s.array] for s in (a, b))
    exact = mpmath.fsum(x * mpmath.log(x / y) for x, y in zip(p, q))
    assert abs(exact - value) < 1e-3
    assert abs((relative_entropy(a, b) - exact) / exact) <= 10 * U


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize(
    "p, v", [((0.1, 0.2, 0.3, 0.4), (1.0, -1.0, 0.5, -0.5)), ((0.7, 0.3), (1.0, -1.0))], ids=["d4", "d2"]
)
def test_relative_entropy_of_a_short_step(p, v, h):
    p, v = np.array(p), np.array(v)
    a, b = validate_distribution(p), validate_distribution(p + h * v)
    x, y = ([mpmath.mpf(float(w)) for w in s.array] for s in (a, b))
    x, y = ([w / mpmath.fsum(row) for w in row] for row in (x, y))
    exact = mpmath.fsum(s * mpmath.log(s / t) for s, t in zip(x, y))
    spread = mpmath.fsum(s * abs(mpmath.log(t / s)) for s, t in zip(x, y))
    rho, sigma = validate_density(np.diag(a.array)), validate_density(np.diag(b.array))
    for state in (rho, sigma):
        dec = spectral(state)
        assert np.array_equal(dec.eigenvalues, np.sort(np.diag(state.array).real)[::-1])
        assert set(np.abs(dec.eigenvectors).ravel()) <= {0.0, 1.0}
    for value, terms in ((relative_entropy(a, b), p.size), (relative_entropy(rho, sigma), p.size ** 2)):
        bound = float((6 * U * spread + (terms + p.size + 1) * U * exact) / exact)
        assert abs((value - exact) / exact) <= bound


@pytest.mark.parametrize(
    "weights, tangent",
    [([0.5, 0.5, 1e-320], [0.0, 1.0, -1.0]), ([1.0 - 1e-15, 1e-15], [1.0, -1.0])],
    ids=["subnormal-weight", "tiny-weight"],
)
@pytest.mark.parametrize("element", [metric_element, kubo_mori_element])
def test_fisher_element_of_a_tiny_weight_stays_finite(element, weights, tangent):
    p, dp, eps = validate_distribution(weights), tangent_classical(tangent), 1e-17
    e = mpmath.mpf(eps)
    exact = mpmath.fsum((e * mpmath.mpf(float(d))) ** 2 / mpmath.mpf(float(w))
                        for d, w in zip(dp.delta, p.array))
    assert abs((element(p, dp, eps) - exact) / exact) <= 10 * U


@pytest.mark.parametrize("n_steps", [1, 8, 64])
@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_even_schedule_steps_of_a_short_geodesic(h, n_steps):
    p, v = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, -1.0, 0.5, -0.5])
    path = geodesic_path(validate_distribution(p), validate_distribution(p + h * v))
    schedule = even_schedule(path, n_steps)
    rows = path.sample(schedule.ts)[0]
    for a, b, step in zip(rows[:-1], rows[1:], schedule.step_lengths):
        chord = mpmath.sqrt(mpmath.fsum(
            (mpmath.sqrt(mpmath.mpf(float(x))) - mpmath.sqrt(mpmath.mpf(float(y)))) ** 2 for x, y in zip(a, b)
        ))
        exact = 4 * mpmath.asin(chord / 2)
        assert abs((step - exact) / exact) <= 2 * U / float(chord) + (p.size + 4) * U


@pytest.mark.parametrize("h", [1e-4, 1e-5, 1e-6, 1e-7])
def test_lengths_and_bounds_near_unit_fidelity(h):
    # each value against its own formula in 50 digits on the same validated rows: 2 arccos F and
    # 2 arccos(F)**2 of the exact F = sum sqrt(x y), and 4 arcsin(c/2) of the exact chord
    q, v = np.array([0.4, 0.3, 0.2, 0.1]), np.array([1.0, -1.0, 0.5, -0.5])
    a, b = validate_distribution(q), validate_distribution(q + h * v)
    x, y = ([mpmath.mpf(float(w)) for w in s.array] for s in (a, b))
    theta = mpmath.acos(mpmath.fsum(mpmath.sqrt(s * t) for s, t in zip(x, y)))
    chord = mpmath.sqrt(mpmath.fsum((mpmath.sqrt(s) - mpmath.sqrt(t)) ** 2 for s, t in zip(x, y)))
    report = run_transport(even_schedule(geodesic_path(a, b), 1))
    angle_bound = (q.size + 1) * U / theta ** 2 + 2 * U
    for value, exact, bound in (
        (geodesic_length_fisher(state_fidelity(a, b)), 2 * theta, angle_bound),
        (report.bound_fidelity, 2 * theta ** 2, 2 * angle_bound + U),
        (report.total_length, 4 * mpmath.asin(chord / 2), 2 * U / chord + (q.size + 4) * U),
    ):
        assert abs((value - exact) / exact) <= bound


PROBE_CASES = {
    "half": ([0.5, 0.5], [1.0, -1.0]),
    "classical-d4": (random_distribution(4, 3).array, [0.1, -0.1, 0.05, -0.05]),
    "qubit": (random_state(2, 2, 5).array, [[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]),
    "qutrit": (random_state(3, 3, 7).array, [[0.1, 0.2 + 0.15j, -0.05 + 0.05j],
                                             [0.2 - 0.15j, -0.3, 0.1 - 0.1j],
                                             [-0.05 - 0.05j, 0.1 + 0.1j, 0.2]]),
}


def _reference_probe_entropy(state, delta, eps) -> mpmath.mpf:
    """50-digit S(rho || rho + eps drho) of the double inputs, sum_ij |<i|j>|^2 lam_i (ln lam_i - ln mu_j)."""
    e = mpmath.mpf(eps)
    if state.ndim == 1:
        weights = [(mpmath.mpf(float(a)), mpmath.mpf(float(d))) for a, d in zip(state, delta)]
        return mpmath.fsum(a * mpmath.log(a / (a + e * d)) for a, d in weights)
    rho = _mp_matrix(state)
    (lam, u), (mu, v) = mpmath.eigh(rho), mpmath.eigh(rho + e * _mp_matrix(delta))
    overlap = u.H * v
    return mpmath.fsum(lam[i] * (mpmath.log(lam[i]) - mpmath.fsum(abs(overlap[i, j]) ** 2 * mpmath.log(mu[j])
                                                                for j in range(len(mu)))) for i in range(len(lam)))


@pytest.mark.parametrize("case", PROBE_CASES)
def test_probe_ratios_the_floor_accepts_keep_its_digits(case):
    # S's error against the 50-digit S of the same double inputs, over the probe's own
    # Kubo-Mori element, which is good to 10 U (above); the floor is derived in expansion_probe
    array, tangent = PROBE_CASES[case]
    if np.ndim(array) == 1:
        state, dp = validate_distribution(array), tangent_classical(tangent)
    else:
        state, dp = validate_density(array), tangent_quantum(np.array(tangent))
    accepted = []
    for eps in 10.0 ** -np.arange(2, 15):
        try:
            probe = expansion_probe(state, dp, [eps])
        except ValidationError as exc:
            assert "below the probe's floor" in str(exc)
            continue
        exact = _reference_probe_entropy(state.array, dp.delta, eps) / (0.5 * kubo_mori_element(state, dp, eps))
        assert abs((probe.ratio_kubo_mori[0] - exact) / exact) <= 10.0 ** -PROBE_DIGITS
        accepted.append(eps)
    # the floor refuses only the small eps: the accepted ones are a run from 1e-2 down, of six or more
    assert accepted == list(10.0 ** -np.arange(2, 2 + len(accepted))) and len(accepted) >= 6
