"""Deterministic command-line experiment runner.

Each subcommand reads a JSON config that describes one experiment, runs
it, and writes a CSV or JSON record.  The run settings ``--seed``,
``--out`` and ``--format`` are flags only.  Every output embeds the tool
version, a SHA-256 hash of the fully resolved config, and the seed, and
contains no timestamps, so a repeated run produces byte-identical files:
on one numpy build, one SIMD dispatch target and one OpenBLAS kernel.
Another dispatch target or kernel rounds differently, and 7 to 8 of the
record digests the tests pin move.

``serialize`` builds each record whole before it opens a file, and
replaces no target until every file of the run is written.  JSON
records are strict: an infinite value is the string ``"inf"``, and a NaN
in either format is refused (status 2) before any file is written, as is
a target that is a directory.
``probe`` refuses an eps below its floor, where a ratio keeps fewer than
6 digits (:func:`statlen.transport.expansion_probe`).

Exit status: 0 success, 2 invalid input, 3 resource cap exceeded,
4 optimizer did not converge.  ``main`` refuses input in one place and
reports it as one stderr line: ``statlen: <ErrorType>: <message>`` for
status 2, ``statlen: <message>`` for status 3.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys

import numpy as np

from . import __version__, serialize
from .exceptions import DimensionCapExceeded, StatlenError, _refuse_above
from .geometry import (even_schedule, geodesic_length_bures, geodesic_length_fisher, geodesic_path,
                       linear_mixture_path, state_fidelity)
from .pathopt import DEFAULT_MAX_ITER, minimize_path
from .reservoir import CLASSICAL_DIM_CAP, QUANTUM_DIM_CAP, convergence_scan
from .states import random_distribution, random_state, tangent_classical, tangent_quantum
from .transport import expansion_probe, run_transport

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_NOT_CONVERGED = 4


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


def _check_keys(obj: dict, required: set, where: str, optional: set = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


def _count(value, key: str) -> int:
    """A config count: a JSON integer of at least one, never a bool or float."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _dim(value, key: str, cap: int) -> int:
    """A random state's dimension: a count no larger than ``cap``, checked before drawing."""
    dim = _count(value, key)
    _refuse_above(cap, key, dim, "dim")
    return dim


def _path(value, key: str) -> str:
    """``--out`` or a state's ``file``: a string, never a number that ``open`` reads as a descriptor.

    A line break would split the record's one-line metadata, so none is allowed.
    """
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{key} must not contain a line break, got {value!r}")
    return value


def _resolve_state(spec, seed_pool, where: str):
    """Resolve a state spec: inline arrays, a file reference, or a random draw."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping")
    if "file" in spec:
        _check_keys(spec, {"file"}, where)
        return serialize.load_state(_path(spec["file"], f"{where}.file"))
    kind = spec.get("kind")
    if kind == "random-quantum":
        _check_keys(spec, {"kind", "dim", "rank"}, where)
        dim = _dim(spec["dim"], f"{where}.dim", QUANTUM_DIM_CAP)
        return random_state(dim, _count(spec["rank"], f"{where}.rank"), seed_pool())
    if kind == "random-classical":
        _check_keys(spec, {"kind", "dim"}, where)
        return random_distribution(_dim(spec["dim"], f"{where}.dim", CLASSICAL_DIM_CAP), seed_pool())
    return serialize.state_from_jsonable(spec)


def _resolve_pair(spec: dict, seed_pool, resolved: dict, where: str = "") -> tuple:
    """Resolve ``state_a`` and ``state_b`` of a spec and record their resolved forms."""
    a = _resolve_state(spec["state_a"], seed_pool, where + "state_a")
    b = _resolve_state(spec["state_b"], seed_pool, where + "state_b")
    resolved["state_a"] = serialize.state_to_jsonable(a)
    resolved["state_b"] = serialize.state_to_jsonable(b)
    return a, b


SEED_POOL_SIZE = 64   # random-state draws one run may make


def _seed_pool(seed: int):
    """The run's random-state seeds, drawn from ``SeedSequence(seed)`` on the first draw."""

    def seeds():
        yield from np.random.SeedSequence(seed).generate_state(SEED_POOL_SIZE)
        raise ConfigError(f"a run may draw at most {SEED_POOL_SIZE} random states")

    pool = seeds()
    return lambda: int(next(pool))


def _write_record(resolved: dict, columns, rows, metadata: dict, results: dict, history=()) -> None:
    """Write the run's record, and its CSV ``history`` ``(path, columns, rows)`` if given.

    Every file carries the tool, version, config hash and seed; a CSV record adds the
    canonical config and ``metadata``, a JSON record the resolved config and ``results``.
    """
    canonical = serialize._canonical(resolved)
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    meta = {"tool": "statlen", "version": __version__, "config_hash": config_hash, "seed": resolved["seed"]}
    fmt = resolved["format"]
    record = {**meta, "config": canonical, **metadata} if fmt == "csv" else {**meta, "config": resolved}
    tables = [(history[0], "csv", meta, *history[1:], None)] if history else []
    serialize.write_records((resolved["out"], fmt, record, columns, rows, results), *tables)


# ---------- experiments ----------

def _path_from_config(spec: dict, seed_pool) -> tuple:
    _check_keys(spec, {"type", "state_a", "state_b"}, "path")
    ptype = spec["type"]
    resolved_spec = {"type": ptype}
    a, b = _resolve_pair(spec, seed_pool, resolved_spec, "path.")
    if ptype == "mixture":
        path = linear_mixture_path(a, b)
    elif ptype == "geodesic":
        path = geodesic_path(a, b)
    else:
        raise ConfigError(f"unknown path type {ptype!r}; choose 'geodesic' or 'mixture'")
    return path, resolved_spec


def cmd_fidelity(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state_a", "state_b"}, "config")
    a, b = _resolve_pair(config, seed_pool, resolved)
    fid = state_fidelity(a, b)
    results = {
        "fidelity": fid,
        "length_fisher": geodesic_length_fisher(fid),
        "length_bures": geodesic_length_bures(fid),
    }
    _write_record(resolved, tuple(results), [tuple(results.values())], {}, results)
    return EXIT_OK


def cmd_transport(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"path", "N_grid"}, "config")
    if not (isinstance(config["N_grid"], list) and config["N_grid"]):
        raise ConfigError(f"N_grid must be a list of one or more N, got {config['N_grid']!r}")
    grid = sorted(_count(n, "N_grid") for n in config["N_grid"])
    path, resolved_spec = _path_from_config(config["path"], seed_pool)
    resolved["path"] = resolved_spec
    columns = ("N", "Delta_S", "N_Delta_S", "half_ell_sq", "bound_fidelity", "nu", "rate_ratio")
    rows, results = [], []
    for n, schedule in zip(grid, map(run_transport, even_schedule(path, grid))):
        ds = schedule.total_entropy
        ell = schedule.total_length
        entry = {
            "N": n,
            "ell": ell,
            "Delta_S": ds,
            "bound_path_length": schedule.bound_path_length,
            "bound_fidelity": schedule.bound_fidelity,
            "nu": serialize._json_float(schedule.nu),
            "rate_ratio": ds * 2.0 * schedule.nu / ell if ell > 0.0 else 0.0,
        }
        results.append(entry)
        rows.append((n, ds, n * ds, 0.5 * ell * ell, entry["bound_fidelity"], entry["nu"], entry["rate_ratio"]))
    _write_record(resolved, columns, rows, {}, {"grid": results})
    return EXIT_OK


def cmd_reservoir(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state_a", "state_b", "n_max"}, "config")
    a, b = _resolve_pair(config, seed_pool, resolved)
    scan = convergence_scan(a, b, _count(config["n_max"], "n_max"))
    results = {
        "mode": scan.mode,
        "reference": serialize._json_float(scan.reference),
        "n": [int(n) for n in scan.n_values],
        "delta_S": [float(x) for x in scan.delta_S],
        "gap": [serialize._json_float(x) for x in scan.gaps],
    }
    rows = zip(results["n"], results["delta_S"], results["gap"])
    metadata = {"reference": serialize.format_float(scan.reference), "mode": scan.mode}
    _write_record(resolved, ("n", "delta_S_n", "gap_n"), rows, metadata, results)
    return EXIT_OK


def cmd_geodesic(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state_a", "state_b", "N"}, "config", {"seed_path", "ridge", "max_iter"})
    a, b = _resolve_pair(config, seed_pool, resolved)
    seed_kind = config.get("seed_path", "mixture")
    if seed_kind == "mixture":
        seed_path = None
    elif seed_kind == "geodesic":
        seed_path = geodesic_path(a, b)
    else:
        raise ConfigError(f"unknown seed_path {seed_kind!r}")
    ridge = config.get("ridge")
    if ridge is not None and serialize._finite_number(ridge, "ridge") < 0:
        raise ConfigError(f"ridge must be null or a number >= 0, got {ridge!r}")
    n_steps = _count(config["N"], "N")
    max_iter = _count(config.get("max_iter", DEFAULT_MAX_ITER), "max_iter")
    result = minimize_path(a, b, n_steps, seed_path, max_iter=max_iter, ridge=ridge)
    fid = state_fidelity(a, b)
    results = {
        "kind": result.kind,
        "final_length": result.final_length,
        "final_energy": result.final_energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "ridge": result.ridge,
        "candidate_arc": geodesic_length_fisher(fid),
        "candidate_chordal": geodesic_length_bures(fid),
    }
    columns = ("final_length", "candidate_arc", "candidate_chordal", "final_energy", "iterations", "converged")
    history_out = resolved["history_out"] = resolved["out"] + ".history.csv"
    history = (
        history_out,
        ("iter", "length", "energy", "step_cv"),
        zip(range(result.lengths.size), result.lengths, result.energies, result.step_cvs),
    )
    metadata = {"history": history_out, "stop_reason": result.stop_reason}
    _write_record(resolved, columns, [tuple(results[c] for c in columns)], metadata, results, history)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_probe(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state", "perturbation", "eps_grid"}, "config")
    state = _resolve_state(config["state"], seed_pool, "state")
    resolved["state"] = serialize.state_to_jsonable(state)
    raw = config["perturbation"]
    if state.kind == "classical":
        tangent = tangent_classical(serialize._finite_numbers(raw, "perturbation"))
    else:
        tangent = tangent_quantum(serialize.matrix_from_jsonable(raw, "perturbation"))
    eps_grid = serialize._finite_numbers(config["eps_grid"], "eps_grid")
    probe = expansion_probe(state, tangent, eps_grid)
    results = {
        "metric": probe.metric_name,
        "eps": [float(e) for e in probe.eps],
        "ratio_metric": [serialize._json_float(r) for r in probe.ratio_metric],
        "ratio_kubo_mori": [serialize._json_float(r) for r in probe.ratio_kubo_mori],
    }
    columns = ("eps", "ratio_metric", "ratio_kubo_mori")
    rows = zip(*(results[c] for c in columns))
    _write_record(resolved, columns, rows, {"metric": probe.metric_name}, results)
    return EXIT_OK


_COMMANDS = {   # subcommand: (handler, help)
    "fidelity": (cmd_fidelity, "fidelity and geodesic lengths of a state pair"),
    "transport": (cmd_transport, "even-schedule transport entropy over an N grid"),
    "reservoir": (cmd_reservoir, "finite-reservoir entropy production scan"),
    "geodesic": (cmd_geodesic, "numerical geodesic search between two states"),
    "probe": (cmd_probe, "quadratic expansion probe of relative entropy"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(prog="statlen", description="Run one experiment from a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = serialize._read_json(args.config, "config")
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {args.seed!r}")
        resolved = {**config, "seed": args.seed, "out": _path(args.out, "--out"),
                    "format": args.format, "experiment": args.command}
        return _COMMANDS[args.command][0](config, resolved, _seed_pool(args.seed))
    except DimensionCapExceeded as exc:
        print(f"statlen: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (StatlenError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"statlen: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
