"""Seeded study generation and independent output checks.

A study is a short, fixed sequence of ``statlen`` CLI experiments on state
pairs drawn from one generator, which is seeded by (workload, seed, study
index) only.  The program under test sees nothing but the generated
configs.  Every record it writes is checked here against plain numpy
oracles that share no code with ``statlen``.

Generated states are kept well conditioned by construction (half of every
state is the maximally mixed one), so each experiment is expected to
succeed on every seed; a seed that fails is reported, never replaced.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("transport-study", "reservoir-scan", "geodesic-search")

# Fixed batch sizes: a batch of this many studies is the unit of work whose
# time is reported as wall_s.  Never retune these to flatter a change.
STUDIES_PER_BATCH = {
    "transport-study": 7,
    "reservoir-scan": 8,
    "geodesic-search": 11,
}

# The calibration kernel that does the kind of work each workload's time
# goes to: interpreter overhead around tiny arrays, or large dense LAPACK
# calls.  run.py scales the workload's times by it ("Machine speed" in
# README.md).
CALIBRATION_KERNEL = {
    "transport-study": "interpreter",
    "reservoir-scan": "lapack",
    "geodesic-search": "interpreter",
}

TRANSPORT_GRID = [16, 64, 256]
QUANTUM_GRID = [16, 64]
PROBE_EPS = [1e-2, 1e-3, 1e-4]


@dataclass
class Call:
    """One CLI experiment: its config, output name and record check."""

    name: str
    command: str
    config: dict
    check: Callable[..., list]
    split: str | None = None
    history: bool = False

    def argv(self, config_path: str) -> list:
        return [self.command, "--config", config_path, "--out", self.out]

    @property
    def out(self) -> str:
        return f"{self.name}.csv"


@dataclass
class Record:
    """A parsed CSV record: metadata comment lines, column names and rows."""

    meta: dict
    columns: list
    rows: list = field(default_factory=list)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_csv(text: str) -> Record:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("record does not end with a newline")
    lines.pop()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    if not lines:
        raise ValueError("record has no header line")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
        rows.append({c: _cell(v) for c, v in zip(columns, cells)})
    return Record(meta, columns, rows)


# ---------- generators ----------

def _rng(workload: str, seed: int, study: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, study])


def _distribution(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal(dim) ** 2 + rng.standard_normal(dim) ** 2
    return 0.5 * g / g.sum() + 0.5 / dim


def _hermitian(m: np.ndarray) -> np.ndarray:
    # entries (i, j) and (j, i) come out exact conjugates of each other
    return 0.5 * (m + m.conj().T)


def _unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return _hermitian(0.5 * m / np.trace(m).real + 0.5 * np.eye(dim) / dim)


def _classical_spec(w: np.ndarray) -> dict:
    return {"kind": "classical", "weights": [float(x) for x in w]}


def _quantum_spec(m: np.ndarray) -> dict:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return {"kind": "quantum", "matrix": rows}


# ---------- oracles (plain numpy, independent of statlen) ----------

def _psd_function(m: np.ndarray, fn) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    return (vec * fn(np.clip(lam, 0.0, None))) @ vec.conj().T


def oracle_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    if a.ndim == 1:
        return float(np.sum(np.sqrt(a * b)))
    root = _psd_function(b, np.sqrt)
    lam = np.linalg.eigvalsh(_hermitian(root @ a @ root))
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))


def oracle_expansion_ratio(p: np.ndarray, delta: np.ndarray, eps: float) -> tuple:
    """S(p || p + eps delta) / (eps^2 sum(delta^2 / p) / 2), and the relative
    rounding error a direct double-precision evaluation of S may carry.

    Here S is summed as p (x - log1p(x)) - p x with x = eps delta / p, which
    keeps about ten digits at eps = 1e-4, where the direct sum of
    p (log p - log q) cancels down to about seven."""
    q = p + eps * delta
    x = eps * delta / p
    s = float(np.sum(p * (x - np.log1p(x)))) - eps * float(np.sum(delta))
    ratio = s / (0.5 * eps * eps * float(np.sum(delta * delta / p)))
    magnitude = float(np.sum(p * (np.abs(np.log(p)) + np.abs(np.log(q)) + 1.0)))
    return ratio, 16.0 * np.finfo(np.float64).eps * magnitude / s


def oracle_relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    if a.ndim == 1:
        return float(np.sum(a * np.log(a / b)))
    log_a = _psd_function(a, np.log)
    log_b = _psd_function(b, np.log)
    return float(np.real(np.trace(a @ (log_a - log_b))))


# ---------- checks ----------

def _close(x: float, y: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(x) and abs(x - y) <= max(abs_, rel * abs(y))


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_fidelity(a, b):
    def check(rec: Record) -> list:
        fid = oracle_fidelity(a, b)
        problems = []
        _expect(problems, len(rec.rows) == 1, f"{len(rec.rows)} rows, expected 1")
        if rec.rows:
            row = rec.rows[0]
            _expect(problems, _close(row["fidelity"], fid, 0.0, 1e-10),
                    f"fidelity {row['fidelity']} vs oracle {fid}")
            arc = 2.0 * math.acos(min(1.0, row["fidelity"]))
            _expect(problems, _close(row["length_fisher"], arc, 0.0, 1e-9),
                    f"length_fisher {row['length_fisher']} != 2 arccos F = {arc}")
        return problems

    return check


def _check_transport(a, b, grid, kind, geodesic):
    def check(rec: Record) -> list:
        fid = oracle_fidelity(a, b)
        ell = 2.0 * math.acos(min(1.0, fid))
        if kind == "classical":
            bound = lambda n: 0.5 * ell * ell / n
        else:
            bound = lambda n: 2.0 * (1.0 - fid * fid) / n
        problems = []
        ns = rec.column("N") if "N" in rec.columns else []
        _expect(problems, ns == sorted(grid), f"N column {ns}, expected {sorted(grid)}")
        for row in rec.rows if ns == sorted(grid) else []:
            n, ds = row["N"], row["Delta_S"]
            _expect(problems, math.isfinite(ds) and ds > 0.0, f"N={n}: Delta_S {ds}")
            _expect(problems, _close(row["N_Delta_S"], n * ds, 1e-9),
                    f"N={n}: N_Delta_S {row['N_Delta_S']} != N * Delta_S")
            _expect(problems, _close(row["bound_fidelity"], bound(n), 1e-8),
                    f"N={n}: bound_fidelity {row['bound_fidelity']} vs oracle {bound(n)}")
            rec_ell = math.sqrt(2.0 * row["half_ell_sq"])
            _expect(problems, _close(row["rate_ratio"], ds * 2.0 * row["nu"] / rec_ell, 1e-8),
                    f"N={n}: rate_ratio {row['rate_ratio']} inconsistent with Delta_S, nu, ell")
            if geodesic and kind == "classical" and n == 256:
                # acceptance criteria 7 and 8
                _expect(problems, 0.98 <= row["rate_ratio"] <= 1.02,
                        f"N=256: rate_ratio {row['rate_ratio']} outside [0.98, 1.02]")
                half_sq = 0.5 * ell * ell
                _expect(problems, abs(n * ds - half_sq) <= 0.02 * half_sq,
                        f"N=256: N*Delta_S {n * ds} not within 2% of l^2/2 = {half_sq}")
        return problems

    return check


def _check_probe(p, delta, eps_grid):
    def check(rec: Record) -> list:
        problems = []
        eps = rec.column("eps") if "eps" in rec.columns else []
        _expect(problems, eps == eps_grid, f"eps column {eps}, expected {eps_grid}")
        if eps != eps_grid:
            return problems
        ratios = rec.column("ratio_metric")
        _expect(problems, rec.column("ratio_kubo_mori") == ratios,
                "classical Kubo-Mori column differs from the Fisher column")
        for e, ratio in zip(eps, ratios):
            # Not the acceptance suite's "5x per decade" (criterion 4): for a
            # tangent whose O(eps) term nearly vanishes, rounding in S at
            # eps = 1e-4 is as large as the deviation and breaks the 5x.
            expected, rel = oracle_expansion_ratio(p, delta, e)
            _expect(problems, _close(ratio, expected, rel),
                    f"eps={e}: ratio_metric {ratio} vs oracle {expected} (rel. tol {rel:.1e})")
        return problems

    return check


def _check_reservoir(a, b, n_max, mode):
    def check(rec: Record) -> list:
        reference = oracle_relative_entropy(a, b)
        problems = []
        _expect(problems, rec.meta.get("mode") == mode,
                f"mode {rec.meta.get('mode')!r}, expected {mode!r}")
        ref = float(rec.meta.get("reference", "nan"))
        _expect(problems, _close(ref, reference, 1e-9, 1e-12),
                f"reference {ref} vs oracle S(a||b) = {reference}")
        ns = rec.column("n") if "n" in rec.columns else []
        _expect(problems, ns == list(range(1, n_max + 1)), f"n column {ns}")
        if ns != list(range(1, n_max + 1)):
            return problems
        gaps = rec.column("gap_n")
        # acceptance criterion 5: the gap to S(a||b) strictly decreases
        _expect(problems, all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:])),
                f"gaps not strictly decreasing: {gaps}")
        for row in rec.rows:
            _expect(problems, _close(row["gap_n"], abs(row["delta_S_n"] - ref), 1e-9, 1e-11),
                    f"n={row['n']}: gap_n inconsistent with delta_S_n and reference")
        return problems

    return check


def _check_geodesic(a, b, classical):
    def check(rec: Record, history: Record) -> list:
        fid = oracle_fidelity(a, b)
        arc = 2.0 * math.acos(min(1.0, fid))
        chord = 2.0 * math.sqrt(max(0.0, 1.0 - fid * fid))
        problems = []
        _expect(problems, len(rec.rows) == 1, f"{len(rec.rows)} rows, expected 1")
        if not rec.rows:
            return problems
        row = rec.rows[0]
        _expect(problems, row["converged"] is True, "optimizer did not converge")
        _expect(problems, _close(row["candidate_arc"], arc, 0.0, 1e-9),
                f"candidate_arc {row['candidate_arc']} vs oracle {arc}")
        _expect(problems, _close(row["candidate_chordal"], chord, 0.0, 1e-9),
                f"candidate_chordal {row['candidate_chordal']} vs oracle {chord}")
        if classical:
            # acceptance criterion 9
            _expect(problems, abs(row["final_length"] - arc) <= 0.01 * arc,
                    f"final_length {row['final_length']} not within 1% of {arc}")
        _expect(problems, len(history.rows) == row["iterations"] + 1,
                f"history has {len(history.rows)} rows for {row['iterations']} iterations")
        if history.rows:
            _expect(problems, history.rows[-1]["length"] == row["final_length"],
                    "last history length differs from final_length")
        return problems

    return check


# ---------- studies ----------

def _transport_study(rng, prefix: str) -> list:
    p, q = _distribution(rng, 4), _distribution(rng, 4)
    u = _unitary(rng, 4)
    rho_c = _hermitian((u * p) @ u.conj().T)
    sigma_c = _hermitian((u * q) @ u.conj().T)
    rho, sigma = _density(rng, 3), _density(rng, 3)
    direction = rng.standard_normal(4)
    direction -= direction.mean()
    # scaled so that p + 1e-2 * delta keeps full support
    tangent = direction * (float(p.min()) / float(np.abs(direction).max()))
    pa, pb = _classical_spec(p), _classical_spec(q)
    qa, qb = _quantum_spec(rho_c), _quantum_spec(sigma_c)
    ra, rb = _quantum_spec(rho), _quantum_spec(sigma)

    def transport(name, ptype, sa, sb, grid, a, b, kind):
        config = {"path": {"type": ptype, "state_a": sa, "state_b": sb}, "N_grid": grid}
        check = _check_transport(a, b, grid, kind, ptype == "geodesic")
        return Call(f"{prefix}-{name}", "transport", config, check, split=ptype)

    return [
        Call(f"{prefix}-fidelity", "fidelity", {"state_a": pa, "state_b": pb},
             _check_fidelity(p, q)),
        transport("geodesic-c4", "geodesic", pa, pb, TRANSPORT_GRID, p, q, "classical"),
        transport("mixture-c4", "mixture", pa, pb, TRANSPORT_GRID, p, q, "classical"),
        transport("geodesic-q4", "geodesic", qa, qb, QUANTUM_GRID, rho_c, sigma_c, "quantum"),
        transport("mixture-q3", "mixture", ra, rb, QUANTUM_GRID, rho, sigma, "quantum"),
        Call(f"{prefix}-probe", "probe",
             {"state": pa, "perturbation": [float(x) for x in tangent], "eps_grid": PROBE_EPS},
             _check_probe(p, tangent, PROBE_EPS)),
    ]


def _reservoir_study(rng, prefix: str) -> list:
    calls = []
    for name, dim, n_max in (("classical-d2", 2, 20), ("classical-d4", 4, 10)):
        p, q = _distribution(rng, dim), _distribution(rng, dim)
        config = {"state_a": _classical_spec(p), "state_b": _classical_spec(q), "n_max": n_max}
        calls.append(Call(f"{prefix}-{name}", "reservoir", config,
                          _check_reservoir(p, q, n_max, "classical-fast")))
    for name, dim, n_max in (("dense-d2", 2, 10), ("dense-d3", 3, 6)):
        rho, sigma = _density(rng, dim), _density(rng, dim)
        config = {"state_a": _quantum_spec(rho), "state_b": _quantum_spec(sigma), "n_max": n_max}
        calls.append(Call(f"{prefix}-{name}", "reservoir", config,
                          _check_reservoir(rho, sigma, n_max, "dense")))
    return calls


def _geodesic_study(rng, prefix: str) -> list:
    p, q = _distribution(rng, 3), _distribution(rng, 3)
    rho, sigma = _density(rng, 2), _density(rng, 2)
    return [
        Call(f"{prefix}-classical-d3", "geodesic",
             {"state_a": _classical_spec(p), "state_b": _classical_spec(q), "N": 16},
             _check_geodesic(p, q, classical=True), history=True),
        Call(f"{prefix}-quantum-d2", "geodesic",
             {"state_a": _quantum_spec(rho), "state_b": _quantum_spec(sigma), "N": 8},
             _check_geodesic(rho, sigma, classical=False), history=True),
    ]


_STUDY = {
    "transport-study": _transport_study,
    "reservoir-scan": _reservoir_study,
    "geodesic-search": _geodesic_study,
}


def make_batch(workload: str, seed: int) -> list:
    """The workload's batch for this seed: one list of calls per study."""
    return [
        _STUDY[workload](_rng(workload, seed, i), f"s{i:02d}")
        for i in range(STUDIES_PER_BATCH[workload])
    ]


def config_digest(batch: list) -> str:
    """SHA-256 over every generated config of the batch, in order."""
    configs = [[call.command, call.config] for study in batch for call in study]
    text = json.dumps(configs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
