"""Exact finite-size simulation of swap-and-twirl reservoir transport.

One transport step puts the system state rho in contact with a reservoir
of n independent copies of sigma.  A reversible swap moves rho into the
first reservoir slot, then the reservoir relaxes by a twirl: the uniform
mixture over the n possible placements of rho among the sigma copies,
T_n = (1/n) d/dt (sigma + t rho)^(x n) at t = 0.  The twirl is the only
irreversible part, and the entropy it generates approaches S(rho||sigma)
as n grows.

Everything here is computed exactly, and the entropy of T_n is taken
from its spectrum with the symmetry of the twirl reducing the work:

- probability vectors: the weight of a string depends only on its type
  (its count vector), so the entropy is a sum over the C(n+d-1, d-1)
  types with multinomial multiplicities (method of types);
- density matrices of every dimension, commuting or not: Schur-Weyl
  duality splits T_n into one block per irreducible representation
  V_lambda of GL(d), lambda a partition of n into at most d rows, repeated
  f_lambda times (its number of standard tableaux).  Each block is built
  in the Gelfand-Tsetlin basis over sigma's eigenbasis, so no d^n by d^n
  matrix is ever formed.

The caps and their messages are those of a dense d^n by d^n twirl for
density matrices and of a d^n weight vector for probability vectors.  A
scan's ``mode`` names the kind of input: "classical-fast" for probability
vectors, "dense" for density matrices of any dimension.  "dense" names
the matrix input, not how the step is computed.  S is
:func:`statlen.states.entropy` throughout: Shannon's on probability
vectors, von Neumann's on density matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import _refuse_above
from .states import (
    dimension_cap,
    entropy,
    _entropy_of_weights,
    _freeze,
    _pair_kind,
)
from .transport import relative_entropy

CLASSICAL_DIM_CAP = 2 ** 20


def _check_step(a, b, n: int) -> None:
    """Check a state pair and reservoir size n against each other and the cap.

    The cap is on d**n for probability vectors and on the composite d**(n + 1)
    for density matrices; a refusal names the largest feasible n, and the
    power is never formed for n itself.  A one-dimensional pair is held to
    the bound of a two-dimensional one: 1**n never reaches the cap, but a
    scan still does work per n.
    """
    classical = _pair_kind(a, b) == "classical"
    if n < 1:
        raise ValueError(f"reservoir size must be positive, got {n}")
    extra, limit = (0, CLASSICAL_DIM_CAP) if classical else (1, dimension_cap())
    base, feasible = max(a.dim, 2), 0
    while base ** (feasible + 1 + extra) <= limit:
        feasible += 1
    _refuse_above(feasible, f"n (for the dimension {base}**{n + extra} over cap {limit})", n, "n")


def _runs(counts: np.ndarray):
    """For groups of the given sizes, the group of each item and its place in it."""
    group = np.repeat(np.arange(counts.size), counts)
    return group, np.arange(group.size) - (np.cumsum(counts) - counts)[group]


def _type_weights(p: np.ndarray, q: np.ndarray, n: int):
    """Twirled weight of every type of n symbols from p.size, and its multiplicity.

    Each type is visited once, as its sorted string i_1 <= ... <= i_n.  All
    n!/prod_i c_i! strings of that type share the weight
    (1/n) d/dt prod_s (q + t p)[i_s] at t = 0, which is built one symbol at
    a time from the product of q and its derivative, so nothing is divided
    by a weight of q.  The multiplicity is updated in exact integers.
    """
    d = p.size
    last = np.arange(d)
    run = np.ones(d, np.int64)        # copies of the last symbol so far
    count = np.ones(d, np.int64)      # strings of this type so far
    prod, deriv = q.copy(), p.copy()
    for length in range(2, n + 1):
        parent, step = _runs(d - last)
        sym = last[parent] + step
        run = np.where(sym == last[parent], run[parent] + 1, 1)
        count = count[parent] * length // run
        deriv = deriv[parent] * q[sym] + prod[parent] * p[sym]
        prod = prod[parent] * q[sym]
        last = sym
    return deriv / n, count


def _partitions(n: int, rows: int, largest: int | None = None):
    """Partitions of n into at most ``rows`` parts, zero-padded, largest first."""
    largest = n if largest is None else largest
    if rows == 1:
        if n <= largest:
            yield (n,)
        return
    for first in range(min(n, largest), -(-n // rows) - 1, -1):
        for rest in _partitions(n - first, rows - 1, first):
            yield (first, *rest)


def _standard_tableaux(shape) -> int:
    """Number of standard Young tableaux of a shape of n boxes in r rows.

    The hook length formula, in Frobenius' form
    n! prod_{i<j} (l_i - l_j) / prod_i l_i! with l_i = lambda_i + r - i.
    """
    ell = [part + len(shape) - i for i, part in enumerate(shape, 1)]
    spread = math.prod(a - b for i, a in enumerate(ell) for b in ell[i + 1:])
    return math.factorial(sum(shape)) * spread // math.prod(map(math.factorial, ell))


def _row(d: int, k: int) -> int:
    """First column of row k (1-based, k entries) in a pattern stored top row first."""
    return (d * (d + 1) - k * (k + 1)) // 2


def _gt_patterns(shapes):
    """Every Gelfand-Tsetlin pattern under each top row, and the top row it is under.

    Given row k+1, entry i of row k runs independently over
    m_{k+1,i+1} .. m_{k+1,i}, so the rows are filled downward one entry at
    a time, each pattern repeated once per value of the new entry.
    """
    d = len(shapes[0])
    pats = np.zeros((len(shapes), d * (d + 1) // 2), np.int64)
    pats[:, :d] = shapes
    origin = np.arange(len(shapes))
    for k in range(d - 1, 0, -1):
        above, here = _row(d, k + 1), _row(d, k)
        for i in range(k):
            lo = pats[:, above + i + 1]
            idx, step = _runs(pats[:, above + i] - lo + 1)
            pats = pats[idx]
            pats[:, here + i] = lo[idx] + step
            origin = origin[idx]
    return pats, origin


def _raising(pats: np.ndarray, d: int):
    """Nonzero entries of the raising generators E_{k,k+1} on the given patterns.

    E_{k,k+1} takes pattern M to M + delta_{k,i} (entry i of row k raised
    by one).  With l_{k,i} = m_{k,i} - i, rows and entries counted from 1,
    the squared coefficient is
    -prod_j (l_{k+1,j} - l_{k,i}) prod_j (l_{k-1,j} - l_{k,i} - 1)
    / prod_{j != i} (l_{k,j} - l_{k,i}) (l_{k,j} - l_{k,i} - 1).
    The factors are small integers; their products are taken in float64,
    whose range the int64 products would exceed at d = 16.  A zero
    denominator meets only a zero numerator.  Returns, sorted by k, the
    generator index k - 1, the source and target pattern indices and the
    coefficient.
    """
    gen, src, dst, coef = [], [], [], []
    # l = m - i, entries i counted from 1 within each row
    ell = (pats - np.concatenate([np.arange(1, k + 1) for k in range(d, 0, -1)])).astype(float)
    for k in range(1, d):
        here, above, below = _row(d, k), _row(d, k + 1), _row(d, k - 1)
        x = ell[:, here:here + k, None]
        outer = np.concatenate([ell[:, above:above + k + 1], ell[:, below:below + k - 1] - 1], axis=1)
        num = -np.multiply.reduce(outer[:, None, :] - x, axis=2)
        gap = ell[:, None, here:here + k] - x
        gap *= gap - 1
        gap[:, np.arange(k), np.arange(k)] = 1.0
        rows, entry = np.nonzero(num > 0)
        raised = pats[rows]
        raised[np.arange(rows.size), here + entry] += 1
        gen.append(np.full(rows.size, k - 1))
        src.append(rows)
        dst.append(raised)
        coef.append(np.sqrt(num[rows, entry] / np.multiply.reduce(gap[rows, entry], axis=1)))
    # each pattern as one byte string; big-endian bytes sort as the numbers do
    keys = np.concatenate([pats, *dst]).astype(">i8").view(np.dtype((np.void, 8 * pats.shape[1])))
    keys, targets = keys[:len(pats), 0], keys[len(pats):, 0]
    order = np.argsort(keys)
    found = order[np.searchsorted(keys, targets, sorter=order)]
    return np.concatenate(gen), np.concatenate(src), found, np.concatenate(coef)


def _join(left: np.ndarray, right: np.ndarray):
    """Index pairs (a, b) with left[a] == right[b], every such pair once."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, "left")
    a, step = _runs(np.searchsorted(keys, left, "right") - lo)
    return a, order[lo[a] + step]


def _next_height(level, simple, size: int):
    """E_{i,i+h+1} = [E_{i,i+1}, E_{i+1,i+h+1}] for every i, from the E_{i,i+h} in ``level``.

    Both are sparse lists (i, row, col, value) over pattern indices, and
    the products are joins on the shared pattern.
    """
    i, row, col, val = level
    g, t, v, c = simple
    a, b = _join((g + 1) * size + v, i * size + row)          # E_{g,g+1} E_{g+1,.}
    e, f = _join((g + 1) * size + t, i * size + col)          # E_{g+1,.} E_{g,g+1}
    gen = np.concatenate([g[a], g[e]])
    key = (gen * size + np.concatenate([t[a], row[f]])) * size + np.concatenate([col[b], v[e]])
    key, inverse = np.unique(key, return_inverse=True)
    total = np.bincount(inverse, np.concatenate([c[a] * val[b], -val[f] * c[e]]))
    return key // (size * size), key // size % size, key % size, total


def _block_spectrum(r: np.ndarray, s: np.ndarray, n: int):
    """Eigenvalues of the twirl T_n, one GL(d) irreducible block at a time, with multiplicities.

    The input is in sigma's eigenbasis: sigma = diag(s), and r is rho in
    that basis.  For each shape lambda of n with at most d rows, the block
    on V_lambda in the Gelfand-Tsetlin basis is
    <M|T|M'> = (1/n) sum_ij r_ij s^(w(M) - e_i) <M|E_ij|M'>,
    w(M) the weight of M; its eigenvalues occur f_lambda times, the number
    of standard tableaux.  The exponent of s_i is never negative where
    E_ij is nonzero, so nothing is divided by an eigenvalue of sigma, and
    a zero one enters through 0**0 = 1.  E_ij for j > i + 1 is the
    commutator [E_{i,i+1}, E_{i+1,j}], built one height j - i at a time
    as sparse products.  E_ji is the transpose of E_ij, so the lower
    triangle of a block is the conjugate transpose of the upper one.  The
    blocks are zero-padded to one size and diagonalized as a stack; the
    padding adds zero eigenvalues, which carry no entropy.
    """
    d = s.size
    shapes = list(_partitions(n, d))
    pats, origin = _gt_patterns(shapes)
    gen, src, dst, coef = _raising(pats, d)
    sums = np.add.reduceat(pats, [_row(d, k) for k in range(d, 0, -1)], axis=1)
    weight = np.diff(sums[:, ::-1], axis=1, prepend=0)
    lowered = np.where(np.eye(d, dtype=bool), np.maximum(weight - 1, 0)[:, None], weight[:, None])
    scale = np.multiply.reduce(s ** lowered, axis=2)     # [M, i] = s^(w(M) - e_i)
    simple = (gen, dst, src, coef)
    level, rows, cols, entries = simple, [], [], []
    for h in range(1, d):
        if h > 1:
            level = _next_height(level, simple, origin.size)
        i, row, col, val = level
        rows.append(row)
        cols.append(col)
        entries.append(r[i, i + h] * scale[row, i] * val)
    # block origin[M], row and column local[M] of the stack
    local = np.arange(origin.size) - np.searchsorted(origin, origin)
    size = local.max() + 1
    row, col = np.concatenate(rows), np.concatenate(cols)
    upper = np.concatenate(entries)
    twirl = np.zeros((len(shapes), size, size), complex)
    twirl[origin[row], local[row], local[col]] = upper
    twirl[origin[row], local[col], local[row]] = upper.conj()
    twirl[origin, local, local] = (weight * scale) @ np.diagonal(r).real
    values = np.linalg.eigvalsh(twirl) / n
    multiplicity = np.array([_standard_tableaux(shape) for shape in shapes], float)
    return values.ravel(), np.repeat(multiplicity, size)


def step_entropy_production(a, b, n: int) -> float:
    """Entropy the twirl generates: S(twirl) - S(a) - (n-1) S(b) = S(twirl) - S(a (x) b^(x n-1)).

    On probability vectors the twirl is diagonal with a weight per string
    type, so its entropy is a sum over types.  On density matrices its
    spectrum comes from its GL(d) blocks; a single slot holds a itself,
    and a one-dimensional state has no entropy, so either gives exactly 0.
    """
    _check_step(a, b, n)
    if a.kind == "classical":
        mixed = _entropy_of_weights(*_type_weights(a.weights, b.weights, n))
        return mixed - entropy(a) - (n - 1) * entropy(b)
    if n == 1 or a.dim == 1:
        return 0.0
    s, u = np.linalg.eigh(b.matrix)
    twirled = _entropy_of_weights(*_block_spectrum(u.conj().T @ a.matrix @ u, s, n))
    return twirled - entropy(a) - (n - 1) * _entropy_of_weights(s)


@dataclass(frozen=True, eq=False)
class ReservoirScanResult:
    """Entropy production per reservoir size, with the relative-entropy limit."""

    n_values: np.ndarray
    delta_S: np.ndarray
    reference: float
    mode: str
    gaps: np.ndarray


def convergence_scan(rho, sigma, n_max: int) -> ReservoirScanResult:
    """Entropy production for n = 1..n_max against the S(rho||sigma) limit.

    Probability-vector inputs run in "classical-fast" mode, density
    matrices in "dense" mode.  n_max is checked against the step's cap
    before any work.  The gap sequence |delta_S_n - S(rho||sigma)| is
    recorded as data; no convergence rate is fitted or asserted.
    """
    _check_step(rho, sigma, n_max)
    mode = "classical-fast" if rho.kind == "classical" else "dense"
    n_values = np.arange(1, n_max + 1)
    values = np.array([step_entropy_production(rho, sigma, int(n)) for n in n_values])
    reference = relative_entropy(rho, sigma)
    gaps = np.abs(values - reference)   # all inf when the reference is
    return ReservoirScanResult(
        _freeze(n_values), _freeze(values), reference, mode, _freeze(gaps)
    )
