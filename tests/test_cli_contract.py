"""The CLI contract under generated configs, one small config grammar per subcommand.

Whatever a config holds, ``cli.main`` exits 0, 2, 3 or 4 and warns of
nothing.  On 2 or 3 it prints one stderr line and leaves no file; on 0 or 4
every record it wrote is strict JSON, or CSV whose cells are finite numbers,
the documented ``inf`` or a boolean.  Three configs whose records hold that
``inf`` run as examples in both formats under every subcommand, and the one
each is written for must write its infinite fields as ``inf``.
"""
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from statlen.cli import EXIT_CAP, EXIT_INVALID, EXIT_NOT_CONVERGED, EXIT_OK, main

# Values a config may hold in place of a valid one; NaN and Infinity are JSON literals Python's parser reads.
JUNK = st.sampled_from([0, -1, 0.5, 1e-300, 1e300, 2**64, True, "1", None, [], {}, math.nan, math.inf])


def _mostly(valid, other=JUNK):
    """``valid`` three times in four, else ``other``: a value of the wrong type or range by default."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 3 else valid)


# Inline states by (kind, dim): edges of the simplex, pure and orthogonal states, a subnormal weight.
INLINE = {
    ("classical", 1): [[1.0]],
    ("classical", 2): [[0.5, 0.5], [0.9, 0.1], [1.0, 0.0], [0.0, 1.0], [1e-300, 1.0]],
    ("classical", 3): [[0.2, 0.3, 0.5], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]],   # full rank first
    ("quantum", 1): [[[[1.0, 0.0]]]],
    ("quantum", 2): [
        [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.5, 0.0]]],
        [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    ],
    ("quantum", 3): [[[[1 / 3 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]],
}
BROKEN = st.sampled_from([
    {"kind": "mystery"}, {"kind": "classical"}, {"file": "no-such-state.json"}, 1,
    {"kind": "classical", "weights": [0.5, math.nan]}, {"kind": "classical", "weights": [0.7, 0.7]},
    {"kind": "quantum", "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    {"kind": "random-quantum", "dim": 2, "rank": 3}, {"kind": "random-classical", "dim": 0},
])


def _state(kind, dim, full_rank=False):
    """States of one kind and dimension, inline or drawn, or a broken one; ``full_rank`` keeps off the edges."""
    field = "weights" if kind == "classical" else "matrix"
    arrays = INLINE[kind, dim][:1 if full_rank else None]
    inline = st.sampled_from(arrays).map(lambda array: {"kind": kind, field: array})
    if kind == "classical":
        drawn = st.just({"kind": "random-classical", "dim": dim})
    else:
        ranks = st.just(dim) if full_rank else st.integers(1, dim)
        drawn = st.builds(lambda rank: {"kind": "random-quantum", "dim": dim, "rank": rank}, ranks)
    return _mostly(st.one_of(inline, drawn), BROKEN)


KIND_DIM = st.tuples(st.sampled_from(["classical", "quantum"]), st.integers(1, 3))


@st.composite
def _pair(draw):
    kind, dim = draw(KIND_DIM, label="kind, dim")
    return {"state_a": draw(_state(kind, dim)), "state_b": draw(_state(kind, dim))}


def _with(fields, optional=None):
    """Configs of a state pair of one kind and dimension, plus ``fields`` and maybe ``optional``."""
    return st.builds(lambda pair, extra: {**pair, **extra}, _pair(), st.fixed_dictionaries(fields, optional=optional))


@st.composite
def _probe(draw):
    kind, dim = draw(st.tuples(st.sampled_from(["classical", "quantum"]), st.integers(2, 3)), label="kind, dim")
    values = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=2 * dim * dim, max_size=2 * dim * dim)))
    values[0] += 0.2   # never all zero
    if kind == "classical":
        delta = (values[:dim] - values[:dim].mean()).tolist()
    else:   # a traceless Hermitian matrix from the values, as [re, im] pairs
        m = (values[:dim * dim] + 1j * values[dim * dim:]).reshape(dim, dim)
        h = 0.5 * (m + m.conj().T) - np.trace(m).real / dim * np.eye(dim)
        delta = np.stack([h.real, h.imag], axis=-1).tolist()
    eps = st.one_of(st.sampled_from([1e-2, 0.5, 1e-4, 1e-8, 1e-12, 1e-16, 1e-160, 1e-300]), st.floats(1e-20, 1.0))
    grid = st.lists(eps, min_size=1, max_size=3, unique=True).map(lambda g: sorted(g, reverse=True))
    return {"state": draw(_state(kind, dim, full_rank=True)), "perturbation": draw(_mostly(st.just(delta))),
            "eps_grid": draw(_mostly(grid, st.one_of(st.lists(eps, max_size=3), JUNK)))}


GRAMMAR = {
    "fidelity": _with({}),
    "transport": st.fixed_dictionaries({
        "path": st.builds(lambda kind, pair: {"type": kind, **pair},
                          _mostly(st.sampled_from(["geodesic", "mixture"]), st.just("spline")), _pair()),
        "N_grid": _mostly(st.lists(_mostly(st.integers(1, 12)), min_size=1, max_size=3)),
    }),
    "reservoir": _with({"n_max": _mostly(st.integers(1, 4))}),
    "geodesic": _with({"N": _mostly(st.integers(4, 6))},
                      optional={"max_iter": _mostly(st.integers(1, 4)),
                                "seed_path": st.sampled_from(["mixture", "geodesic", "spline"]),
                                "ridge": st.sampled_from([None, 0, 0.1, -1, "0"])}),
    "probe": _probe(),
}


HALF, CERTAIN = ({"kind": "classical", "weights": w} for w in ([0.5, 0.5], [1.0, 0.0]))
# Configs whose record holds the documented inf, with the CSV and the JSON fields that read it.
INFINITE = {
    "transport": ({"path": {"type": "geodesic", "state_a": HALF, "state_b": HALF}, "N_grid": [2]},
                  {"nu"}, {"nu"}),
    "reservoir": ({"state_a": HALF, "state_b": CERTAIN, "n_max": 2}, {"reference", "gap_n"}, {"reference", "gap"}),
    "probe": ({"state": HALF, "perturbation": [1.0, -1.0], "eps_grid": [0.5, 1e-2]},
              {"ratio_metric", "ratio_kubo_mori"}, {"ratio_metric", "ratio_kubo_mori"}),
}


class _Given:
    """Stands in for ``st.data()`` in an @example: each draw returns the value given for its label."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


def _infinite_fields(text: str, fmt: str) -> set:
    """The fields of a record that read inf: a CSV cell or ``# key=`` line, or a JSON results value."""
    if fmt == "csv":
        lines = text.splitlines()
        meta = {line[2:].split("=", 1)[0] for line in lines if line.startswith("# ") and line.endswith("=inf")}
        table = [line.split(",") for line in lines if not line.startswith("# ")]
        return meta | {name for name, *cells in zip(*table) if "inf" in cells}
    found, results = set(), json.loads(text)["results"]
    for row in results.get("grid", [results]):
        found |= {key for key, value in row.items() if value == "inf" or isinstance(value, list) and "inf" in value}
    return found


def _refuses_constants(name):
    raise AssertionError(f"record holds the non-strict JSON constant {name}")


def _check_csv(text: str) -> None:
    body = [line for line in text.splitlines() if not line.startswith("# ")]
    assert body, "CSV record has no header"
    for line in body[1:]:
        for cell in line.split(","):
            assert cell in ("true", "false", "inf") or math.isfinite(float(cell)), f"CSV cell {cell!r}"


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(deadline=None, derandomize=True, max_examples=40)
@given(data=st.data())
@example(data=_Given(config=INFINITE["transport"][0], format="csv", seed=0))
@example(data=_Given(config=INFINITE["transport"][0], format="json", seed=0))
@example(data=_Given(config=INFINITE["reservoir"][0], format="csv", seed=0))
@example(data=_Given(config=INFINITE["reservoir"][0], format="json", seed=0))
@example(data=_Given(config=INFINITE["probe"][0], format="csv", seed=0))
@example(data=_Given(config=INFINITE["probe"][0], format="json", seed=0))
def test_any_config_keeps_the_contract(command, data):
    config = data.draw(GRAMMAR[command], label="config")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    seed = data.draw(_mostly(st.sampled_from([0, 1, 7]), st.just(-1)), label="seed")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp / "record.out"
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(tmp / "config.json"), "--out", str(out),
                         "--seed", str(seed), "--format", fmt])
        written = sorted(p.name for p in tmp.iterdir() if p.name != "config.json")
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_CAP, EXIT_NOT_CONVERGED)
        if code in (EXIT_INVALID, EXIT_CAP):
            lines = stderr.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("statlen: ") and lines[0].endswith("\n"), lines
            assert written == []
            return
        assert stderr.getvalue() == ""
        assert "record.out" in written
        for name in written:
            text = (tmp / name).read_text(encoding="utf-8")
            if fmt == "json" and name == "record.out":
                json.loads(text, parse_constant=_refuses_constants)
            else:
                _check_csv(text)
        if command in INFINITE and config == INFINITE[command][0]:
            text = (tmp / "record.out").read_text(encoding="utf-8")
            assert _infinite_fields(text, fmt) == INFINITE[command][1 if fmt == "csv" else 2]
