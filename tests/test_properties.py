"""Invariants of the fidelity and the relative entropy over random states of both kinds."""
import numpy as np
from hypothesis import given, settings, strategies as st

from statlen import (
    random_distribution,
    random_state,
    relative_entropy,
    state_fidelity,
    validate_distribution,
)


def _state(kind, dim, rank, seed):
    """A random state of the given kind; ``rank`` is the size of its support."""
    if kind == "quantum":
        return random_state(dim, rank, seed)
    weights = random_distribution(dim, seed).weights.copy()
    weights[np.random.default_rng(seed).permutation(dim)[rank:]] = 0.0
    return validate_distribution(weights / weights.sum())


PAIRS = dict(
    kind=st.sampled_from(["classical", "quantum"]),
    dim=st.integers(2, 4),
    ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 10**6),
)


def _pair(kind, dim, ranks, seed):
    return (
        _state(kind, dim, min(ranks[0], dim), seed),
        _state(kind, dim, min(ranks[1], dim), seed + 1),
    )


class TestFidelity:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_symmetric_and_in_range(self, kind, dim, ranks, seed):
        a, b = _pair(kind, dim, ranks, seed)
        forward, backward = state_fidelity(a, b), state_fidelity(b, a)
        assert abs(forward - backward) <= 1e-12
        assert 0.0 <= forward <= 1.0
        assert 0.0 <= backward <= 1.0


class TestRelativeEntropy:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_nonnegative(self, kind, dim, ranks, seed):
        a, b = _pair(kind, dim, ranks, seed)
        value = relative_entropy(a, b)
        assert value >= -1e-12  # NaN fails too

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(**PAIRS)
    def test_zero_on_itself(self, kind, dim, ranks, seed):
        a, _ = _pair(kind, dim, ranks, seed)
        assert abs(relative_entropy(a, a)) <= 1e-12
