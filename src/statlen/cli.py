"""Deterministic command-line experiment runner.

Each subcommand reads a JSON config, runs one experiment, and writes a
CSV or JSON record.  Every output embeds the tool version, a SHA-256
hash of the fully resolved config, and the seed, and contains no
timestamps, so a repeated run produces byte-identical files.

Exit status: 0 success, 2 invalid input, 3 resource cap exceeded,
4 optimizer did not converge.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import serialize
from .exceptions import DimensionCapExceeded, StatlenError, _refuse_above
from .geometry import (
    MAX_STEPS,
    even_schedule,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    linear_mixture_path,
    state_fidelity,
)
from .pathopt import minimize_path
from .reservoir import CLASSICAL_DIM_CAP, convergence_scan
from .states import (
    dimension_cap,
    random_distribution,
    random_state,
    tangent_classical,
    tangent_quantum,
)
from .transport import expansion_probe, run_transport

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_NOT_CONVERGED = 4


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


_COMMON_OPTIONAL = {"seed", "out", "format"}


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
    """A config file path: a JSON string, never a number that ``open`` reads as a descriptor.

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
        _check_keys(spec, {"file"}, set(), where)
        return serialize.load_state(_path(spec["file"], f"{where}.file"))
    kind = spec.get("kind")
    if kind == "random-quantum":
        _check_keys(spec, {"kind", "dim", "rank"}, set(), where)
        dim = _dim(spec["dim"], f"{where}.dim", dimension_cap())
        return random_state(dim, _count(spec["rank"], f"{where}.rank"), seed_pool())
    if kind == "random-classical":
        _check_keys(spec, {"kind", "dim"}, set(), where)
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
    seeds = iter(np.random.SeedSequence(seed).generate_state(SEED_POOL_SIZE))

    def next_seed() -> int:
        drawn = next(seeds, None)
        if drawn is None:
            raise ConfigError(f"a run may draw at most {SEED_POOL_SIZE} random states")
        return int(drawn)

    return next_seed


def _config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _record_meta(resolved: dict) -> dict:
    """Metadata every output file carries: tool, version, config hash and seed."""
    return {
        "tool": "statlen",
        "version": __version__,
        "config_hash": _config_hash(resolved),
        "seed": resolved["seed"],
    }


def _write_record(resolved: dict, columns, rows, metadata: dict, results: dict) -> None:
    record = _record_meta(resolved)
    if resolved["format"] == "csv":
        record["config"] = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        record.update(metadata)
        serialize.write_csv(resolved["out"], columns, rows, record)
    else:
        record["config"] = resolved
        record["results"] = results
        with open(resolved["out"], "w", newline="\n", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------- experiments ----------

def _path_from_config(spec: dict, seed_pool) -> tuple:
    _check_keys(spec, {"type", "state_a", "state_b"}, set(), "path")
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
    _check_keys(config, {"state_a", "state_b"}, _COMMON_OPTIONAL, "config")
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
    _check_keys(config, {"path"}, _COMMON_OPTIONAL | {"N", "N_grid"}, "config")
    if ("N" in config) == ("N_grid" in config):
        raise ConfigError("config needs exactly one of 'N' or 'N_grid'")
    if "N" in config:
        grid = [_count(config["N"], "N")]
    elif isinstance(config["N_grid"], list) and config["N_grid"]:
        grid = [_count(n, "N_grid") for n in config["N_grid"]]
    else:
        raise ConfigError(f"N_grid must be a list of one or more N, got {config['N_grid']!r}")
    for n in grid:
        _refuse_above(MAX_STEPS, "N", n, "N")
    path, resolved_spec = _path_from_config(config["path"], seed_pool)
    resolved["path"] = resolved_spec
    columns = (
        "N",
        "Delta_S",
        "N_Delta_S",
        "half_ell_sq",
        "bound_fidelity",
        "nu",
        "rate_ratio",
    )
    rows = []
    results = []
    for n in sorted(grid):
        report = run_transport(even_schedule(path, n))
        ds = report.total_entropy
        ell = report.total_length
        entry = {
            "N": n,
            "ell": ell,
            "Delta_S": ds,
            "bound_path_length": report.bound_path_length,
            "bound_fidelity": report.bound_fidelity,
            "nu": serialize._json_float(report.nu),
            "rate_ratio": ds * 2.0 * report.nu / ell if ell > 0.0 else 0.0,
        }
        results.append(entry)
        rows.append(
            (n, ds, n * ds, 0.5 * ell * ell, entry["bound_fidelity"], entry["nu"], entry["rate_ratio"])
        )
    _write_record(resolved, columns, rows, {}, {"grid": results})
    return EXIT_OK


def cmd_reservoir(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state_a", "state_b", "n_max"}, _COMMON_OPTIONAL, "config")
    a, b = _resolve_pair(config, seed_pool, resolved)
    scan = convergence_scan(a, b, _count(config["n_max"], "n_max"))
    results = {
        "mode": scan.mode,
        "reference": serialize._json_float(scan.reference),
        "n": [int(n) for n in scan.n_values],
        "delta_S": [float(x) for x in scan.delta_S],
        "gap": [serialize._json_float(x) for x in scan.gaps],
    }
    _write_record(
        resolved,
        ("n", "delta_S_n", "gap_n"),
        zip(results["n"], results["delta_S"], results["gap"]),
        {"reference": serialize.format_float(scan.reference), "mode": scan.mode},
        results,
    )
    return EXIT_OK


def cmd_geodesic(config: dict, resolved: dict, seed_pool) -> int:
    optional = _COMMON_OPTIONAL | {"seed_path", "ridge", "max_iter", "history_out"}
    _check_keys(config, {"state_a", "state_b", "N"}, optional, "config")
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
    history_out = _path(config.get("history_out", resolved["out"] + ".history.csv"), "history_out")
    if os.path.realpath(history_out) == os.path.realpath(resolved["out"]):
        raise ConfigError(f"history_out {history_out!r} would overwrite the record")
    result = minimize_path(
        a,
        b,
        _count(config["N"], "N"),
        seed_path,
        max_iter=_count(config.get("max_iter", 5000), "max_iter"),
        ridge=ridge,
    )
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
    columns = (
        "final_length",
        "candidate_arc",
        "candidate_chordal",
        "final_energy",
        "iterations",
        "converged",
    )
    resolved["history_out"] = history_out
    serialize.write_csv(
        history_out,
        ("iter", "length", "energy", "step_cv"),
        zip(range(result.lengths.size), result.lengths, result.energies, result.step_cvs),
        _record_meta(resolved),
    )
    metadata = {"history": history_out, "stop_reason": result.stop_reason}
    _write_record(resolved, columns, [tuple(results[c] for c in columns)], metadata, results)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_probe(config: dict, resolved: dict, seed_pool) -> int:
    _check_keys(config, {"state", "perturbation", "eps_grid"}, _COMMON_OPTIONAL, "config")
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
        "ratio_metric": [float(r) for r in probe.ratio_metric],
        "ratio_kubo_mori": [float(r) for r in probe.ratio_kubo_mori],
    }
    columns = ("eps", "ratio_metric", "ratio_kubo_mori")
    rows = zip(*(results[c] for c in columns))
    _write_record(resolved, columns, rows, {"metric": probe.metric_name}, results)
    return EXIT_OK


_HANDLERS = {
    "fidelity": cmd_fidelity,
    "transport": cmd_transport,
    "reservoir": cmd_reservoir,
    "geodesic": cmd_geodesic,
    "probe": cmd_probe,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="statlen",
        description="Run fidelity, transport, reservoir, geodesic, and probe experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fidelity", "fidelity and geodesic lengths of a state pair"),
        ("transport", "even-schedule transport entropy over an N grid"),
        ("reservoir", "finite-reservoir entropy production scan"),
        ("geodesic", "numerical geodesic search between two states"),
        ("probe", "quadratic expansion probe of relative entropy"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed (default 0)")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"statlen: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not isinstance(config, dict):
        print("statlen: config must be a JSON object", file=sys.stderr)
        return EXIT_INVALID

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        print(f"statlen: seed must be an integer >= 0, got {seed!r}", file=sys.stderr)
        return EXIT_INVALID
    out = args.out if args.out is not None else config.get("out")
    fmt = args.format if args.format is not None else config.get("format", "csv")
    try:
        _path(out, "out (--out or config 'out')")
    except ConfigError as exc:
        print(f"statlen: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if fmt not in ("csv", "json"):
        print(f"statlen: unknown format {fmt!r}", file=sys.stderr)
        return EXIT_INVALID

    resolved = dict(config)
    resolved["seed"] = seed
    resolved["out"] = out
    resolved["format"] = fmt
    resolved["experiment"] = args.command

    try:
        return _HANDLERS[args.command](config, resolved, _seed_pool(seed))
    except DimensionCapExceeded as exc:
        print(f"statlen: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ConfigError, StatlenError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"statlen: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
