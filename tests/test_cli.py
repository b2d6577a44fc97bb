import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statlen import (
    even_schedule,
    geodesic_path,
    random_distribution,
    random_state,
    run_transport,
    state_fidelity,
    validate_distribution,
)
from statlen.reservoir import CLASSICAL_DIM_CAP, QUANTUM_DIM_CAP
from statlen.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    SEED_POOL_SIZE,
    ConfigError,
    _build_parser,
    _seed_pool,
    main,
)
from statlen.serialize import format_float, state_to_jsonable

CLASSICAL_A = {"kind": "classical", "weights": [0.5, 0.5]}
CLASSICAL_B = {"kind": "classical", "weights": [0.9, 0.1]}
QUBIT_A = {"kind": "quantum", "matrix": [[[0.5, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.5, 0.0]]]}
QUBIT_B = {"kind": "quantum", "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]}


def _run(tmp_path, command, config, name="run", extra_args=()):
    config_path = tmp_path / f"{name}.json"
    out_path = tmp_path / f"{name}.out"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(
        [command, "--config", str(config_path), "--out", str(out_path), *extra_args]
    )
    return code, out_path


class TestFidelityCommand:
    def test_csv_record(self, tmp_path):
        code, out = _run(
            tmp_path, "fidelity", {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "# tool=statlen" in text
        assert "# config_hash=" in text
        assert "# seed=0" in text
        assert "fidelity,length_fisher,length_bures" in text
        assert "0.894427191" in text

    def test_json_record_embeds_config(self, tmp_path):
        code, out = _run(
            tmp_path,
            "fidelity",
            {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B},
            extra_args=("--format", "json"),
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["tool"] == "statlen"
        assert record["seed"] == 0
        assert record["config"]["state_a"]["kind"] == "classical"
        assert record["results"]["fidelity"] == pytest.approx(0.8944271909999159)

    def test_identical_states(self, tmp_path):
        code, out = _run(
            tmp_path,
            "fidelity",
            {"state_a": CLASSICAL_A, "state_b": CLASSICAL_A},
            extra_args=("--format", "json"),
        )
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["fidelity"] == 1.0
        assert results["length_fisher"] == 0.0
        assert results["length_bures"] == 0.0

    def test_malformed_state_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "classical", "weights": [0.3, 0.3]}))
        code, _ = _run(
            tmp_path,
            "fidelity",
            {"state_a": {"file": str(bad)}, "state_b": CLASSICAL_B},
        )
        assert code == EXIT_INVALID
        # the message names the violated invariant
        assert "NotNormalized" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        code, _ = _run(
            tmp_path,
            "fidelity",
            {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "typo": 1},
        )
        assert code == EXIT_INVALID

    def test_missing_out_exits_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}))
        assert main(["fidelity", "--config", str(config_path)]) == EXIT_INVALID


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        config = {
            "path": {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_B},
            "N_grid": [8, 16],
        }
        _, out = _run(tmp_path, "transport", config)
        first = out.read_bytes()
        _, out = _run(tmp_path, "transport", config)
        assert out.read_bytes() == first

    def test_random_states_reproducible_per_seed(self, tmp_path):
        config = {
            "state_a": {"kind": "random-quantum", "dim": 3, "rank": 2},
            "state_b": {"kind": "random-quantum", "dim": 3, "rank": 3},
        }
        _, out = _run(tmp_path, "fidelity", config, extra_args=("--seed", "7", "--format", "json"))
        first = out.read_bytes()
        _, out = _run(tmp_path, "fidelity", config, extra_args=("--seed", "7", "--format", "json"))
        assert out.read_bytes() == first
        _, out = _run(tmp_path, "fidelity", config, extra_args=("--seed", "8", "--format", "json"))
        assert out.read_bytes() != first

    def test_one_parser_serves_successive_calls(self, tmp_path):
        # the parser is built once per process; no flag of one call may reach the next
        assert _build_parser() is _build_parser()
        transport = {
            "path": {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_B},
            "N_grid": [8],
        }
        code, out = _run(
            tmp_path, "transport", transport, "first", ("--format", "json", "--seed", "3")
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert (record["config"]["experiment"], record["seed"]) == ("transport", 3)
        assert [row["N"] for row in record["results"]["grid"]] == [8]
        fidelity = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}
        code, out = _run(tmp_path, "fidelity", fidelity, "second")
        assert code == EXIT_OK
        text = out.read_text()
        assert "# seed=0" in text
        assert "fidelity,length_fisher,length_bures" in text
        code, out = _run(tmp_path, "fidelity", fidelity, "third", ("--format", "json"))
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["seed"] == 0
        assert (record["config"]["experiment"], record["config"]["format"]) == ("fidelity", "json")

    def test_seed_pool_limit_is_a_config_error(self):
        next_seed = _seed_pool(3)
        drawn = [next_seed() for _ in range(SEED_POOL_SIZE)]
        assert len(set(drawn)) == SEED_POOL_SIZE == 64
        with pytest.raises(ConfigError, match="at most 64 random states"):
            next_seed()

    def test_inline_states_draw_no_seed_pool(self, tmp_path, monkeypatch):
        def no_seed_sequence(*args, **kwargs):
            raise AssertionError("SeedSequence built for a run that draws no random state")

        monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
        code, _ = _run(tmp_path, "fidelity", {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B})
        assert code == EXIT_OK


class TestTransportCommand:
    def test_grid_rows_and_columns(self, tmp_path):
        config = {
            "path": {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_B},
            "N_grid": [16, 32],
        }
        code, out = _run(tmp_path, "transport", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        grid = json.loads(out.read_text())["results"]["grid"]
        assert [row["N"] for row in grid] == [16, 32]
        path = geodesic_path(
            validate_distribution(CLASSICAL_A["weights"]),
            validate_distribution(CLASSICAL_B["weights"]),
        )
        for row in grid:
            report = run_transport(even_schedule(path, row["N"]))
            assert row["N"] == report.n_steps
            assert row["Delta_S"] == report.total_entropy
            assert row["Delta_S"] > 0.0
            assert row["Delta_S"] >= row["bound_fidelity"] * 0.95
        # more steps produce less entropy
        assert grid[1]["Delta_S"] < grid[0]["Delta_S"]

    def test_constant_path_zero_column(self, tmp_path):
        config = {
            "path": {"type": "mixture", "state_a": CLASSICAL_A, "state_b": CLASSICAL_A},
            "N_grid": [8],
        }
        code, out = _run(tmp_path, "transport", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        row = json.loads(out.read_text())["results"]["grid"][0]
        assert row["Delta_S"] == pytest.approx(0.0, abs=1e-12)

    def test_mixture_loses_to_geodesic_d3(self, tmp_path):
        a = {"kind": "classical", "weights": [0.6, 0.3, 0.1]}
        b = {"kind": "classical", "weights": [0.2, 0.3, 0.5]}
        results = {}
        for name, ptype in (("geo", "geodesic"), ("mix", "mixture")):
            config = {
                "path": {"type": ptype, "state_a": a, "state_b": b},
                "N_grid": [32],
            }
            code, out = _run(tmp_path, "transport", config, name=name, extra_args=("--format", "json"))
            assert code == EXIT_OK
            results[name] = json.loads(out.read_text())["results"]["grid"][0]["Delta_S"]
        assert results["geo"] < results["mix"]

    @pytest.mark.parametrize("n", [65537, 10**12])
    def test_presample_cap_exits_3_with_max_n(self, tmp_path, capsys, n):
        config = {"path": GEODESIC_CLASSICAL, "N_grid": [16, n]}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert "largest feasible N is 65536" in capsys.readouterr().err

    def test_grid_over_the_cap_is_refused_before_any_schedule(self, tmp_path, capsys, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("path sampled for a grid over the cap")

        monkeypatch.setattr("statlen.geometry.StatePath.sample", no_sample)
        config = {"path": GEODESIC_CLASSICAL, "N_grid": [16, 65537]}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert "largest feasible N is 65536" in capsys.readouterr().err

    def test_rows_stack_cap_exits_3_before_any_schedule(self, tmp_path, capsys, monkeypatch):
        # N 65536 passes MAX_STEPS, but one pass over its states at d = 64 would sample 4.3 GB
        def no_sample(*args, **kwargs):
            raise AssertionError("path sampled for a grid over the cap")

        monkeypatch.setattr("statlen.geometry.StatePath.sample", no_sample)
        spec = {"kind": "random-quantum", "dim": 64, "rank": 64}
        config = {"path": {"type": "geodesic", "state_a": spec, "state_b": spec}, "N_grid": [16, 65536]}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert "largest feasible N is 4095" in capsys.readouterr().err

    def test_record_is_the_same_with_debug_logging(self, tmp_path, caplog):
        config = {"path": {"type": "mixture", "state_a": QUBIT_B, "state_b": QUBIT_A}, "N_grid": [4, 16]}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_OK
        quiet = out.read_bytes()
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_OK
        assert [r.args[0] for r in caplog.records if r.name == "statlen.geometry"] == [4, 16]
        assert out.read_bytes() == quiet

    def test_traced_routing(self, tmp_path, monkeypatch):
        """The public names the benchmark's tracer wraps still carry the work: one
        even_schedule call takes the whole sorted grid, the endpoint fidelity comes
        from state_fidelity once per N, run_transport on an even schedule passes no row
        through eigh, and reading its bound_fidelity passes the 2 end rows."""
        grids, fidelities, eigh_rows = [], [], []
        schedule, fidelity, run, eigh = even_schedule, state_fidelity, run_transport, np.linalg.eigh

        def scheduled(path, n_steps):
            grids.append(n_steps)
            return schedule(path, n_steps)

        def measured(a, b):
            fidelities.append(1)
            return fidelity(a, b)

        def transported(plan):
            eigh_rows.append(0)
            done = run(plan)
            eigh_rows.append(0)   # the rows decomposed after run_transport, until the next N
            return done

        def counted(mats, *args, **kwargs):
            if eigh_rows:
                eigh_rows[-1] += 1 if np.ndim(mats) == 2 else len(mats)
            return eigh(mats, *args, **kwargs)

        monkeypatch.setattr("statlen.cli.even_schedule", scheduled)
        for module in ("cli", "geometry"):   # every module that holds the name
            monkeypatch.setattr(f"statlen.{module}.state_fidelity", measured)
        monkeypatch.setattr("statlen.cli.run_transport", transported)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        config = {"path": {"type": "mixture", "state_a": _random_quantum(3), "state_b": _random_quantum(3)},
                  "N_grid": [64, 16, 32]}
        code, _ = _run(tmp_path, "transport", config)
        assert code == EXIT_OK
        assert grids == [[16, 32, 64]]
        assert len(fidelities) == 3
        assert eigh_rows == [0, 2] * 3

    def test_grid_past_the_pass_cap_exits_3_before_any_schedule(self, tmp_path, capsys, monkeypatch):
        # d = 4 states of 4 entries: a cap of 1200 entries takes each N alone, but one pass
        # over 16, 64 and 256 samples 339 states, and the grid is one call
        def no_sample(*args, **kwargs):
            raise AssertionError("path sampled for a grid over the cap")

        monkeypatch.setattr("statlen.geometry.MAX_SCHEDULE_ENTRIES", 4 * 300)
        monkeypatch.setattr("statlen.geometry.StatePath.sample", no_sample)
        config = {"path": {"type": "mixture", "state_a": _random_classical(4), "state_b": _random_classical(4)},
                  "N_grid": [256, 16, 64]}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert capsys.readouterr().err == (
            "statlen: N + 1 summed over the grid's distinct N (states of 4 entries) 339 exceeds cap 300; "
            "largest feasible sum is 300\n"
        )

    def test_geodesic_on_noncommuting_qutrits(self, tmp_path):
        config = {
            "path": {
                "type": "geodesic",
                "state_a": {"kind": "random-quantum", "dim": 3, "rank": 3},
                "state_b": {"kind": "random-quantum", "dim": 3, "rank": 3},
            },
            "N_grid": [16, 64],
        }
        code, out = _run(tmp_path, "transport", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        rho, sigma = (_matrix(record["config"]["path"][k]) for k in ("state_a", "state_b"))
        assert np.max(np.abs(rho @ sigma - sigma @ rho)) > 1e-3
        theta = np.arccos(_fidelity(rho, sigma))
        grid = record["results"]["grid"]
        assert grid[1]["Delta_S"] < grid[0]["Delta_S"]
        for row in grid:
            # each step is the Bures angle 2 arccos F, so ell is 2 theta at every N
            assert row["ell"] == pytest.approx(2.0 * theta, abs=1e-9)

    def test_requires_exactly_one_grid(self, tmp_path):
        config = {
            "path": {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_B},
        }
        code, _ = _run(tmp_path, "transport", config)
        assert code == EXIT_INVALID


class TestReservoirCommand:
    def test_scan_csv(self, tmp_path):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "n_max": 6}
        code, out = _run(tmp_path, "reservoir", config)
        assert code == EXIT_OK
        text = out.read_text()
        assert "# reference=0.510825623766" in text
        assert "# mode=classical-fast" in text
        assert "n,delta_S_n,gap_n" in text

    def test_equal_states_zero_column(self, tmp_path):
        config = {
            "state_a": CLASSICAL_B,
            "state_b": CLASSICAL_B,
            "n_max": 4,
        }
        code, out = _run(tmp_path, "reservoir", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert np.allclose(results["delta_S"], 0.0, atol=1e-9)

    def test_cap_exceeded_exits_3_with_max_n(self, tmp_path, capsys):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "n_max": 25}
        code, _ = _run(tmp_path, "reservoir", config)
        assert code == EXIT_CAP
        assert "20" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair, feasible",
        [((CLASSICAL_A, CLASSICAL_B), 20), ((QUBIT_A, QUBIT_B), 11)],
        ids=["classical", "qubit"],
    )
    def test_huge_n_max_exits_3_before_allocating(self, tmp_path, capsys, pair, feasible):
        config = {"state_a": pair[0], "state_b": pair[1], "n_max": 10**12}
        code, out = _run(tmp_path, "reservoir", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert f"largest feasible n is {feasible}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state, feasible",
        [({"kind": "classical", "weights": [1.0]}, 20),
         ({"kind": "quantum", "matrix": [[[1.0, 0.0]]]}, 11)],
        ids=["classical", "quantum"],
    )
    def test_one_dimensional_pair_is_capped(self, tmp_path, capsys, state, feasible):
        # 1**n never reaches the cap; the pair is held to the dim-2 bound
        config = {"state_a": state, "state_b": state, "n_max": 10**12}
        code, out = _run(tmp_path, "reservoir", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert f"largest feasible n is {feasible}" in capsys.readouterr().err

    def test_dense_cap_ignores_the_environment(self, tmp_path, capsys, monkeypatch):
        # the cap is a constant: the variable that once moved it has no effect
        config = {"state_a": QUBIT_A, "state_b": QUBIT_B, "n_max": 12}
        for value in (None, "16", str(2**41)):
            if value is None:
                monkeypatch.delenv("STATLEN_DIM_CAP", raising=False)
            else:
                monkeypatch.setenv("STATLEN_DIM_CAP", value)
            code, out = _run(tmp_path, "reservoir", config)
            assert code == EXIT_CAP
            assert not out.exists()
            assert "largest feasible n is 11" in capsys.readouterr().err


class TestGeodesicCommand:
    def test_classical_antipodal(self, tmp_path):
        config = {
            "state_a": {"kind": "classical", "weights": [1.0, 0.0]},
            "state_b": {"kind": "classical", "weights": [0.0, 1.0]},
            "N": 16,
        }
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["final_length"] == pytest.approx(np.pi, rel=0.01)
        assert results["candidate_arc"] == pytest.approx(np.pi, abs=1e-12)
        assert results["candidate_chordal"] == pytest.approx(2.0, abs=1e-12)
        history = out.with_name(out.name + ".history.csv")
        header, *rows = _csv_table(history)
        assert header == ["iter", "length", "energy", "step_cv"]
        assert len(rows) == results["iterations"] + 1
        assert [row[0] for row in rows] == [str(i) for i in range(len(rows))]

    def test_equal_endpoints(self, tmp_path):
        config = {
            "state_a": CLASSICAL_A,
            "state_b": CLASSICAL_A,
            "N": 8,
        }
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        assert json.loads(out.read_text())["results"]["final_length"] == pytest.approx(
            0.0, abs=1e-5
        )

    def test_unconverged_exits_4_but_writes(self, tmp_path):
        config = {
            "state_a": {"kind": "classical", "weights": [1.0, 0.0]},
            "state_b": {"kind": "classical", "weights": [0.0, 1.0]},
            "N": 16,
            "max_iter": 2,
        }
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--format", "json"))
        assert code == EXIT_NOT_CONVERGED
        assert out.exists()
        assert json.loads(out.read_text())["results"]["converged"] is False


    def test_record_and_history_are_the_same_with_debug_logging(self, tmp_path, caplog):
        config = {"state_a": QUBIT_A, "state_b": QUBIT_B, "N": 8}
        code, out = _run(tmp_path, "geodesic", config)
        assert code == EXIT_OK
        history = out.with_name(out.name + ".history.csv")
        quiet = out.read_bytes(), history.read_bytes()
        with caplog.at_level(logging.DEBUG, logger="statlen"):
            code, out = _run(tmp_path, "geodesic", config)
        assert code == EXIT_OK
        assert [r.args[0] for r in caplog.records if r.name == "statlen.pathopt"] == [8]
        assert (out.read_bytes(), history.read_bytes()) == quiet

    def test_stop_reason_in_json_and_csv(self, tmp_path):
        antipodal = {
            "state_a": {"kind": "classical", "weights": [1.0, 0.0]},
            "state_b": {"kind": "classical", "weights": [0.0, 1.0]},
            "N": 16,
        }
        code, out = _run(tmp_path, "geodesic", antipodal, name="j", extra_args=("--format", "json"))
        assert code == EXIT_OK
        assert json.loads(out.read_text())["results"]["stop_reason"] == "stall"
        code, out = _run(tmp_path, "geodesic", {**antipodal, "max_iter": 2}, name="c")
        assert code == EXIT_NOT_CONVERGED
        text = out.read_text()
        assert "# stop_reason=max_iter\n" in text
        assert "iterations,converged\n" in text

    def test_geodesic_seed_on_noncommuting_qubits_is_the_discrete_minimum(self, tmp_path):
        n_steps = 8
        config = {
            "state_a": QUBIT_A,
            "state_b": QUBIT_B,
            "N": n_steps,
            "seed_path": "geodesic",
        }
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        rho, sigma = _matrix(QUBIT_A), _matrix(QUBIT_B)
        assert np.max(np.abs(rho @ sigma - sigma @ rho)) > 1e-3
        theta = np.arccos(_fidelity(rho, sigma))
        # equal Bures angles theta/N attain the minimum of sum 8 (1 - F_i)
        exact = 8.0 * n_steps * (1.0 - np.cos(theta / n_steps))
        assert results["final_energy"] == pytest.approx(exact, rel=0.0, abs=1e-10)
        assert results["stop_reason"] == "stall"

    @pytest.mark.parametrize(
        "pair",
        [
            (random_distribution(4, 1), random_distribution(4, 2)),
            (random_distribution(4, 3), random_distribution(4, 4)),
            (random_state(2, 2, 1), random_state(2, 2, 2)),
        ],
        ids=["classical-seed1", "classical-seed3", "quantum-full-rank"],
    )
    def test_n64_search_converges(self, tmp_path, pair):
        # ill-conditioned enough (about N^2) to exhaust max_iter without curvature pairs
        a, b = (state_to_jsonable(state) for state in pair)
        config = {"state_a": a, "state_b": b, "N": 64}
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["converged"] is True
        assert results["stop_reason"] == "stall"

    @pytest.mark.parametrize(
        "state, n_steps, feasible",
        [
            ({"kind": "classical", "weights": [0.5, 0.5]}, 97, "N is 96"),
            ({"kind": "classical", "weights": [1.0 / 9] * 9}, 8, "dim is 8"),
            (
                {"kind": "quantum",
                 "matrix": [[[0.2 if i == j else 0.0, 0.0] for j in range(5)] for i in range(5)]},
                8,
                "dim is 4",
            ),
        ],
        ids=["N", "classical-dim", "quantum-dim"],
    )
    def test_optimizer_caps_exit_3(self, tmp_path, capsys, state, n_steps, feasible):
        config = {"state_a": state, "state_b": state, "N": n_steps}
        code, out = _run(tmp_path, "geodesic", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert f"largest feasible {feasible}" in capsys.readouterr().err

    def test_max_iter_cap_exits_3(self, tmp_path, capsys):
        state = {"kind": "classical", "weights": [0.5, 0.5]}
        other = {"kind": "classical", "weights": [0.9, 0.1]}
        config = {"state_a": state, "state_b": other, "N": 64, "max_iter": 10**12}
        code, out = _run(tmp_path, "geodesic", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert not (tmp_path / "run.out.history.csv").exists()
        assert "max_iter 1000000000000 exceeds cap 100000; largest feasible max_iter is 100000" in (
            capsys.readouterr().err
        )

    def test_integer_ridge_is_reported_as_a_float(self, tmp_path):
        records = []
        for name, ridge in (("int", 0), ("float", 0.0)):
            config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8, "ridge": ridge}
            code, out = _run(tmp_path, "geodesic", config, name=name, extra_args=("--format", "json"))
            assert code == EXIT_OK
            records.append(json.loads(out.read_text())["results"])
        assert records[0] == records[1]
        assert json.dumps(records[0], sort_keys=True) == json.dumps(records[1], sort_keys=True)
        assert '"ridge": 0.0' in json.dumps(records[0])

    # SHA-256 of the CSV record and of its history, taken with numpy 2.4.6 before the
    # search loop's reductions were unwrapped: every change to the optimizer must keep
    # its floating-point operations, and so these bytes.  Another numpy or BLAS build
    # may round differently; retake them there from a commit known to be good.
    PINNED_SEARCHES = {
        "classical-d3-N16": (
            {"state_a": {"kind": "classical", "weights": [0.6, 0.3, 0.1]},
             "state_b": {"kind": "classical", "weights": [0.1, 0.2, 0.7]}, "N": 16},
            "f2da87363868eb3cb70a14165a1208ae7ff7a0d34afd67888ca611ebd674e098",
            "7f3ea4eff78e371111f19d9adefeba25324e90ce655df261180a2da374c8c902",
        ),
        "qubit-N8": (
            {"state_a": QUBIT_A, "state_b": QUBIT_B, "N": 8},
            "ab7b0d2ec585a3fbf75a3ae9df1dbfac064dc7913a5e003afcf366d60238cabe",
            "aeae47ca4796a9f20f1b65ed3c0d36a79cd115cdde69cd8a453c0cba97a94f7f",
        ),
    }

    @pytest.mark.parametrize("case", PINNED_SEARCHES)
    def test_search_record_and_history_bytes_are_pinned(self, tmp_path, monkeypatch, case):
        config, record_sha, history_sha = self.PINNED_SEARCHES[case]
        monkeypatch.chdir(tmp_path)   # relative paths keep the config hash free of tmp_path
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["geodesic", "--config", "run.json", "--out", "run.csv"]) == EXIT_OK
        digests = [hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("run.csv", "run.csv.history.csv")]
        assert digests == [record_sha, history_sha]


def _random_quantum(dim: int) -> dict:
    return {"kind": "random-quantum", "dim": dim, "rank": dim}


def _random_classical(dim: int) -> dict:
    return {"kind": "random-classical", "dim": dim}


# SHA-256 of the CSV and the JSON record of each run whose numbers come through the
# chord kernel, the reservoir step's decomposition or the probe table, taken with
# numpy 2.4.6 before those kernels stopped forming what their callers do not read:
# the CSV pins the record as written, the JSON its full float digits.  Another numpy
# or BLAS build may round differently; retake them there from a commit known to be good.
PINNED_RECORDS = {
    "reservoir-qubit-n10": (
        "reservoir", {"state_a": _random_quantum(2), "state_b": _random_quantum(2), "n_max": 10},
        "11f2eebd300ecd685c9c190bc61ccb6d50879e2619295d7cd42a4707d8df0319",
        "96bd1e8d13efcada4c309f9435eb3b6ef051afe2fe4a456f100e45dc0ae23c3e",
    ),
    "reservoir-qutrit-n6": (
        "reservoir", {"state_a": _random_quantum(3), "state_b": _random_quantum(3), "n_max": 6},
        "100980239cbaf43e04606405fb4decabf54ef58faa7a507f79ba657618b466ca",
        "8ab6d9fa4dedafb4b82e94d19418a90ed9bb64b935f8f0957d39587b151384c5",
    ),
    "transport-geodesic": (
        "transport", {"path": {"type": "geodesic", "state_a": _random_quantum(3),
                               "state_b": _random_quantum(3)}, "N_grid": [16, 64]},
        "b2439ab858920b7da314f3566eaa91d5c846116828b77565ee1e05cf61a79c2b",
        "6dc0f08b8d62aed26b9ab9cf1d1f680aa825be46fe362cbba91c7d14773c49c2",
    ),
    "transport-mixture": (
        "transport", {"path": {"type": "mixture", "state_a": _random_quantum(3),
                               "state_b": _random_quantum(3)}, "N_grid": [16, 64]},
        "aa55131a6202cdfa92dedac7623c72a51deb6d210f12da9138862f273b2e44e6",
        "0cb50bd38c7b15b796b147409c987dbddcba55a57510b6ec19fb0a26ff1fb48e",
    ),
    # classical transport, taken before the N of a grid ran their passes in lockstep
    "transport-classical-geodesic": (
        "transport", {"path": {"type": "geodesic", "state_a": _random_classical(4),
                               "state_b": _random_classical(4)}, "N_grid": [16, 64, 256]},
        "6c9342eb3931185a606e3c925d80ec3d15b5776a883936fc81fc2d7ebb81d045",
        "7821b57ad9e9903ba53ce677b2315680aa2fd906d29917f51bee4baba9708758",
    ),
    "transport-classical-mixture": (
        "transport", {"path": {"type": "mixture", "state_a": _random_classical(4),
                               "state_b": _random_classical(4)}, "N_grid": [16, 64, 256]},
        "f73ce46f30769dcdd2f7d54102289dd16296b1ede65621885f60fd315ed8c33c",
        "961bd8ae3d367be358de28318945f6a0e47b55e2f95b9c31ecf02ef2b1c650e1",
    ),
    "transport-classical-unsorted-duplicate": (
        "transport", {"path": {"type": "mixture", "state_a": _random_classical(4),
                               "state_b": _random_classical(4)}, "N_grid": [64, 16, 64]},
        "66daed5a87db217ba78695f15504fee37ae770d238ff01e8ac4d4b2f551b84b9",
        "685627c4e6ced71cf96de4f6e60a923c5adcf87998ccba500a32308717d8272b",
    ),
    "fidelity": (
        "fidelity", {"state_a": _random_quantum(3), "state_b": _random_quantum(3)},
        "8ad382b256711fdcd3b4ba716e50c5f7d313fb6f38356d90be0be2ec29c9ca8e",
        "87de5e4a6c7ddd8907278b98705c02335cad9fea6a391a2548a7f540f30088cb",
    ),
    "probe": (
        "probe", {"state": _random_quantum(3),
                  "perturbation": [[[0.1, 0.0], [0.2, 0.15], [-0.05, 0.05]],
                                   [[0.2, -0.15], [-0.3, 0.0], [0.1, -0.1]],
                                   [[-0.05, -0.05], [0.1, 0.1], [0.2, 0.0]]],
                  "eps_grid": [1e-2, 1e-3, 1e-4]},
        "890268445f9835b58b4bd9d90aa1c9db3d450f419b9ab8e06de5f37d1b1c8b2a",
        "de0e17d77a7d777c646e36551fdc5c14293167298f22e495c33fd0a21def38dd",
    ),
}


@pytest.mark.parametrize("case", PINNED_RECORDS)
def test_quantum_record_bytes_are_pinned(tmp_path, monkeypatch, case):
    command, config, csv_sha, json_sha = PINNED_RECORDS[case]
    monkeypatch.chdir(tmp_path)   # relative paths keep the config hash free of tmp_path
    Path("run.json").write_text(json.dumps(config), encoding="utf-8")
    digests = []
    for out, extra in (("run.csv", ()), ("record.json", ("--format", "json"))):
        assert main([command, "--config", "run.json", "--out", out, *extra]) == EXIT_OK
        digests.append(hashlib.sha256(Path(out).read_bytes()).hexdigest())
    assert digests == [csv_sha, json_sha]


def _csv_table(path) -> list:
    """Header and data rows of a CSV record, metadata lines dropped."""
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


# One config per subcommand, with an infinite transport nu (a constant path)
# and an infinite reservoir reference (state_a outside the support of state_b).
RECORD_CASES = {
    "fidelity": ("fidelity", {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}),
    "transport": ("transport", {
        "path": {"type": "mixture", "state_a": QUBIT_A, "state_b": QUBIT_B}, "N_grid": [4, 8],
    }),
    "transport-constant": ("transport", {
        "path": {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_A}, "N_grid": [4],
    }),
    "reservoir": ("reservoir", {"state_a": QUBIT_A, "state_b": QUBIT_B, "n_max": 4}),
    "reservoir-unsupported": ("reservoir", {
        "state_a": CLASSICAL_A, "state_b": {"kind": "classical", "weights": [1.0, 0.0]}, "n_max": 3,
    }),
    "geodesic": ("geodesic", {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8}),
    "probe": ("probe", {"state": CLASSICAL_B, "perturbation": [1.0, -1.0], "eps_grid": [1e-2, 1e-3]}),
}


def _result_rows(command, results) -> list:
    """The JSON results of a record as CSV rows, one mapping from column to value each."""
    if command in ("fidelity", "geodesic"):
        return [results]
    if command == "transport":
        return [
            {**e, "N_Delta_S": e["N"] * e["Delta_S"], "half_ell_sq": 0.5 * e["ell"] ** 2}
            for e in results["grid"]
        ]
    if command == "reservoir":
        columns = {"n": "n", "delta_S_n": "delta_S", "gap_n": "gap"}
    else:
        columns = {c: c for c in ("eps", "ratio_metric", "ratio_kubo_mori")}
    size = len(results[columns[next(iter(columns))]])
    return [{c: results[k][i] for c, k in columns.items()} for i in range(size)]


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_csv_cells_are_the_json_results(tmp_path, case):
    command, config = RECORD_CASES[case]
    codes = []
    for fmt in ("csv", "json"):
        code, out = _run(tmp_path, command, config, name=fmt, extra_args=("--format", fmt))
        codes.append(code)
    assert codes == [EXIT_OK, EXIT_OK]
    header, *cells = _csv_table(tmp_path / "csv.out")
    expected = _result_rows(command, json.loads((tmp_path / "json.out").read_text())["results"])
    assert len(cells) == len(expected)
    for row, values in zip(cells, expected):
        for column, cell in zip(header, row):
            value = values[column]
            assert cell == (json.dumps(value) if isinstance(value, bool) else format_float(value))
    if case.endswith(("constant", "unsupported")):
        assert "inf" in (tmp_path / "csv.out").read_text()


# Keys that are not config keys: the run settings are flags only, the history
# file always follows --out, and transport takes its steps as N_grid.
REMOVED_KEYS = [
    *((command, key) for command in sorted(RECORD_CASES) if "-" not in command
      for key in ("seed", "out", "format")),
    ("geodesic", "history_out"),
    ("transport", "N"),
]


@pytest.mark.parametrize("command, key", REMOVED_KEYS)
def test_removed_key_is_unknown(tmp_path, capsys, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    value = {"seed": 3, "out": "other.csv", "format": "json", "history_out": "h.csv", "N": 8}[key]
    code, _ = _run(tmp_path, command, {**RECORD_CASES[command][1], key: value})
    assert code == EXIT_INVALID
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    assert f"config has unknown keys: ['{key}']" in capsys.readouterr().err


def test_readme_config_examples_run(tmp_path):
    # every ```json config example of the README's "Command line" section
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert len(configs) >= 2
    for i, config in enumerate(configs):
        # a path runs as transport, a state pair as fidelity
        command = "transport" if "path" in config else "fidelity"
        code, _ = _run(tmp_path, command, config, name=f"readme{i}")
        assert code == EXIT_OK, (i, config)


def _matrix(spec) -> np.ndarray:
    return np.array([[re + 1j * im for re, im in row] for row in spec["matrix"]])


def _fidelity(rho, sigma) -> float:
    """tr sqrt(sqrt(sigma) rho sqrt(sigma)), from eigendecompositions."""
    lam, vec = np.linalg.eigh(sigma)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(root @ rho @ root), 0.0, None))))


GEODESIC_CLASSICAL = {"type": "geodesic", "state_a": CLASSICAL_A, "state_b": CLASSICAL_B}
BAD_COUNTS = [2.7, True, "16", 0, -3]


class TestStrictCounts:
    """Counts that scale the work must be JSON integers >= 1: no silent int()."""

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_transport_N_grid_entry(self, tmp_path, capsys, value):
        config = {"path": GEODESIC_CLASSICAL, "N_grid": [8, value]}
        code, _ = _run(tmp_path, "transport", config)
        assert code == EXIT_INVALID
        assert "N_grid must be an integer >= 1" in capsys.readouterr().err

    def test_transport_N_grid_must_be_a_list(self, tmp_path, capsys):
        config = {"path": GEODESIC_CLASSICAL, "N_grid": "16"}
        code, _ = _run(tmp_path, "transport", config)
        assert code == EXIT_INVALID
        assert "N_grid must be a list" in capsys.readouterr().err

    def test_transport_N_grid_must_not_be_empty(self, tmp_path, capsys):
        config = {"path": GEODESIC_CLASSICAL, "N_grid": []}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "N_grid must be a list of one or more N" in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_reservoir_n_max(self, tmp_path, capsys, value):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "n_max": value}
        code, _ = _run(tmp_path, "reservoir", config)
        assert code == EXIT_INVALID
        assert "n_max must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["N", "max_iter"])
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_geodesic_counts(self, tmp_path, capsys, key, value):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8, key: value}
        code, _ = _run(tmp_path, "geodesic", config)
        assert code == EXIT_INVALID
        assert f"{key} must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_random_state_dim(self, tmp_path, capsys, value):
        config = {
            "state_a": {"kind": "random-classical", "dim": value},
            "state_b": {"kind": "random-classical", "dim": 3},
        }
        code, _ = _run(tmp_path, "fidelity", config)
        assert code == EXIT_INVALID
        assert "state_a.dim must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, cap",
        [("random-quantum", QUANTUM_DIM_CAP), ("random-classical", CLASSICAL_DIM_CAP)],
        ids=["quantum", "classical"],
    )
    def test_random_state_dim_is_capped(self, tmp_path, capsys, kind, cap):
        # the quantum cap is the composite-dimension cap of a density-matrix step
        state = {"kind": kind, "dim": cap + 1}
        if kind == "random-quantum":
            state["rank"] = 1
        code, out = _run(tmp_path, "fidelity", {"state_a": state, "state_b": state})
        assert code == EXIT_CAP
        assert not out.exists()
        assert f"state_a.dim {cap + 1} exceeds cap {cap}; largest feasible dim is {cap}" in (
            capsys.readouterr().err
        )

    def test_integer_counts_still_run(self, tmp_path):
        config = {"path": GEODESIC_CLASSICAL, "N_grid": [1, 2]}
        code, _ = _run(tmp_path, "transport", config)
        assert code == EXIT_OK


BAD_NUMBERS = [True, "1e-6", float("nan"), [1e-6]]


class TestStrictFields:
    """Numeric config fields are JSON numbers: no bool, string or silent int()."""

    @pytest.mark.parametrize("value", [-1])
    def test_seed(self, tmp_path, capsys, value):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}
        code, out = _run(tmp_path, "fidelity", config, extra_args=("--seed", str(value)))
        assert code == EXIT_INVALID
        assert not out.exists()
        assert capsys.readouterr().err == "statlen: ConfigError: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_ridge_type(self, tmp_path, capsys, value):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8, "ridge": value}
        code, out = _run(tmp_path, "geodesic", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "ridge must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1, True, None, ["a.json"]])
    def test_state_file_must_be_a_string(self, tmp_path, capsys, value):
        config = {"state_a": {"file": value}, "state_b": CLASSICAL_B}
        code, out = _run(tmp_path, "fidelity", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "state_a.file must be a string" in capsys.readouterr().err
        os.fstat(1)  # raises if descriptor 1 was opened as the file and closed

    def test_negative_ridge(self, tmp_path, capsys):
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8, "ridge": -1e-6}
        code, _ = _run(tmp_path, "geodesic", config)
        assert code == EXIT_INVALID
        assert "ridge must be null or a number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_eps_grid_entry(self, tmp_path, capsys, value):
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": [1e-2, value]}
        code, out = _run(tmp_path, "probe", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "eps_grid must be a finite number" in capsys.readouterr().err

    def test_eps_grid_must_be_a_list(self, tmp_path, capsys):
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": 1e-2}
        code, _ = _run(tmp_path, "probe", config)
        assert code == EXIT_INVALID
        assert "eps_grid must be a list" in capsys.readouterr().err

    def test_quantum_perturbation_uses_the_state_parser(self, tmp_path, capsys):
        config = {
            "state": {
                "kind": "quantum",
                "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            },
            "perturbation": [[0.1, 0.0], [0.0, -0.1]],
            "eps_grid": [1e-2],
        }
        code, _ = _run(tmp_path, "probe", config)
        assert code == EXIT_INVALID
        assert "perturbation entries must be [re, im] pairs" in capsys.readouterr().err

    def test_classical_weights_must_be_numbers(self, tmp_path, capsys):
        config = {
            "state_a": {"kind": "classical", "weights": ["0.5", "0.5"]},
            "state_b": {"kind": "classical", "weights": [True, False]},
        }
        code, out = _run(tmp_path, "fidelity", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "weights must be a finite number, got '0.5'" in capsys.readouterr().err

    def test_quantum_entries_must_be_numbers(self, tmp_path, capsys):
        config = {
            "state_a": {"kind": "quantum", "matrix": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            "state_b": QUBIT_B,
        }
        code, _ = _run(tmp_path, "fidelity", config)
        assert code == EXIT_INVALID
        assert "quantum state entry must be a finite number, got True" in capsys.readouterr().err

    def test_classical_perturbation_must_be_numbers(self, tmp_path, capsys):
        config = {"state": CLASSICAL_A, "perturbation": ["1", -1], "eps_grid": [1e-2]}
        code, out = _run(tmp_path, "probe", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "perturbation must be a finite number, got '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", False, 0, "spline", ["arc"], None, "arc"])
    def test_step_rule(self, tmp_path, capsys, value):
        # every step is the Bures angle; the former rule key is an unknown key
        config = {"path": GEODESIC_CLASSICAL, "N_grid": [8], "step_rule": value}
        code, out = _run(tmp_path, "transport", config)
        assert code == EXIT_INVALID
        assert not out.exists()
        assert "config has unknown keys: ['step_rule']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["r\nx.csv", "r\rx.csv"])
    def test_out_must_not_break_lines(self, tmp_path, capsys, monkeypatch, value):
        # a line break in --out would also reach the history path, <out>.history.csv
        monkeypatch.chdir(tmp_path)
        config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8}
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["geodesic", "--config", "c.json", "--out", value]) == EXIT_INVALID
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert capsys.readouterr().err.startswith("statlen: ConfigError: --out must not contain a line break")

    def test_valid_fields_still_run(self, tmp_path):
        config = {
            "state_a": CLASSICAL_A,
            "state_b": CLASSICAL_B,
            "N": 8,
            "ridge": 0,
        }
        code, out = _run(tmp_path, "geodesic", config, extra_args=("--seed", "5", "--format", "json"))
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["seed"] == 5
        assert record["results"]["ridge"] == 0


def _json(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000   # past the JSON parser's recursion limit
STATE_FILE_PAIR = _json({"state_a": {"file": "state.json"}, "state_b": CLASSICAL_B})

# case: (command, config file bytes or None for no file, state.json bytes or None,
# the one stderr line after "statlen: ")
REFUSED_FILES = {
    "config-missing": ("fidelity", None, None, "FileNotFoundError: [Errno 2]"),
    "config-not-utf8": ("fidelity", b"\xff\xfe{}", None,
                        "ValidationError: config is not a readable JSON file: 'utf-8' codec"),
    "config-not-json": ("fidelity", b'{"state_a": ', None,
                        "ValidationError: config is not a readable JSON file: Expecting value"),
    "config-nested-too-deep": ("fidelity", DEEP_JSON, None,
                               "ValidationError: config is not a readable JSON file: maximum recursion"),
    "config-array": ("fidelity", b"[]", None, "ConfigError: config must be a JSON object"),
    "state-file-not-utf8": ("fidelity", STATE_FILE_PAIR, b"\xff",
                            "ValidationError: state file is not a readable JSON file: 'utf-8' codec"),
    "state-file-nested-too-deep": ("fidelity", STATE_FILE_PAIR, DEEP_JSON,
                                   "ValidationError: state file is not a readable JSON file: maximum recursion"),
    "state-not-a-mapping": ("fidelity", _json({"state_a": [0.5, 0.5], "state_b": CLASSICAL_B}), None,
                            "ConfigError: state_a must be a mapping"),
    "path-not-a-mapping": ("transport", _json({"path": ["geodesic"], "N_grid": [8]}), None,
                           "ConfigError: path must be a mapping"),
    "unknown-path-type": ("transport", _json({"path": {**GEODESIC_CLASSICAL, "type": "spline"}, "N_grid": [8]}),
                          None, "ConfigError: unknown path type 'spline'"),
    "unknown-seed-path": ("geodesic", _json({"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 8,
                                             "seed_path": "spline"}),
                          None, "ConfigError: unknown seed_path 'spline'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FILES))
def test_refused_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    """Every refusal leaves main through its one except: no traceback, no record."""
    command, config, state, line = REFUSED_FILES[case]
    monkeypatch.chdir(tmp_path)
    inputs = {name: data for name, data in (("c.json", config), ("state.json", state)) if data is not None}
    for name, data in inputs.items():
        Path(name).write_bytes(data)
    assert main([command, "--config", "c.json", "--out", "r.csv"]) == EXIT_INVALID
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
    err = capsys.readouterr().err
    assert err.startswith(f"statlen: {line}")
    assert err.count("\n") == 1 and err.endswith("\n")


JSON_PADDED = _json(CLASSICAL_B) + b" " * 300   # a state, past a 256-byte cap only by its padding


@pytest.mark.parametrize("config, state", [
    ("/dev/zero", None),
    ("c.json", None),
    ("c.json", "/dev/zero"),
    ("c.json", "state.json"),
], ids=["config-device", "config-file", "state-file-device", "state-file-file"])
def test_json_past_the_byte_cap_exits_2(tmp_path, capsys, monkeypatch, config, state):
    """A JSON file is read to at most one byte past the cap, and a regular file is
    refused by its size, before it is read."""
    monkeypatch.setattr("statlen.serialize.JSON_BYTES_CAP", 256)
    monkeypatch.chdir(tmp_path)
    if state is None:
        Path("c.json").write_bytes(_json({"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}) + b" " * 300)
        what = "config"
    else:
        Path("c.json").write_bytes(_json({"state_a": {"file": state}, "state_b": CLASSICAL_B}))
        Path("state.json").write_bytes(JSON_PADDED)
        what = "state file"
    assert main(["fidelity", "--config", config, "--out", "r.csv"]) == EXIT_INVALID
    assert not Path("r.csv").exists()
    err = capsys.readouterr().err
    assert err == f"statlen: ValidationError: {what} holds more than the 256 bytes a JSON file may\n"


@pytest.mark.parametrize("source", ["device", "regular"])
def test_input_past_the_memory_left_exits_2(tmp_path, source):
    """Under a 400 MB address-space limit, /dev/zero runs the read out of memory before the
    byte cap, and a 32 MB regular file of 11M empty lists runs the parse out of it: each
    MemoryError is refused as input, where it once left main with exit 1."""
    config = "/dev/zero"
    if source == "regular":
        config = "lists.json"
        (tmp_path / config).write_text("[" + "[]," * (11 << 20) + "[]]")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from statlen.cli import main\n"
        f"sys.exit(main(['fidelity', '--config', {config!r}, '--out', 'r.csv']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INVALID, done.stderr
    assert done.stderr == "statlen: ValidationError: config holds more bytes than the memory left to read it\n"
    assert not (tmp_path / "r.csv").exists()


class TestProbeCommand:
    def test_classical_table(self, tmp_path):
        config = {
            "state": CLASSICAL_A,
            "perturbation": [1.0, -1.0],
            "eps_grid": [1e-2, 1e-3],
        }
        code, out = _run(tmp_path, "probe", config)
        assert code == EXIT_OK
        text = out.read_text()
        assert "# metric=fisher" in text
        assert "eps,ratio_metric,ratio_kubo_mori" in text

    def test_noncommuting_quantum_table(self, tmp_path):
        config = {
            "state": {
                "kind": "quantum",
                "matrix": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
            },
            "perturbation": [[[0.3, 0.0], [0.2, -0.1]], [[0.2, 0.1], [-0.3, 0.0]]],
            "eps_grid": [1e-3, 1e-4],
        }
        code, out = _run(tmp_path, "probe", config, extra_args=("--format", "json"))
        assert code == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["metric"] == "bures"
        assert abs(results["ratio_kubo_mori"][-1] - 1.0) < 1e-3

    def test_grid_past_the_entries_budget_exits_3_without_a_record(self, tmp_path, capsys):
        config = {
            "state": {"kind": "random-quantum", "dim": 64, "rank": 64},
            "perturbation": [[[0.0, 0.0]] * 64] * 64,
            "eps_grid": [float(e) for e in np.geomspace(1e-1, 1e-12, 4097)],
        }
        code, out = _run(tmp_path, "probe", config)
        assert code == EXIT_CAP
        assert not out.exists()
        assert "4097 exceeds cap 4096; largest feasible eps_grid length is 4096" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_eps_whose_elements_underflow_exits_2(self, tmp_path, capsys, fmt):
        # (1e-300)^2 underflows to 0 in both elements: the ratios were NaN, a bare NaN in JSON;
        # an element of 0 is below the probe's floor at any eps
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": [1e-2, 1e-300]}
        code, out = _run(tmp_path, "probe", config, extra_args=("--format", fmt))
        assert code == EXIT_INVALID
        assert not out.exists()
        assert capsys.readouterr().err == (
            "statlen: ValidationError: eps 1e-300 is below the probe's floor for this state "
            "and perturbation, where a ratio keeps fewer than 6 digits\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_zero_perturbation_exits_2(self, tmp_path, capsys, fmt):
        # every element is 0 here whatever eps is, so the perturbation is named, not an eps
        config = {"state": CLASSICAL_A, "perturbation": [0.0, 0.0], "eps_grid": [1e-2, 1e-3]}
        code, out = _run(tmp_path, "probe", config, extra_args=("--format", fmt))
        assert code == EXIT_INVALID
        assert not out.exists()
        assert capsys.readouterr().err == (
            "statlen: ValidationError: perturbation is 0, which gives every eps a metric element of 0\n"
        )


class TestProbeFloor:
    """The probe refuses an eps whose ratios its yield kernel cannot resolve to PROBE_DIGITS."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("eps", [1e-16, 1e-100, 1e-150, 1e-160])
    def test_an_eps_below_the_floor_exits_2(self, tmp_path, capsys, eps, fmt):
        # these read 0.616 (1e-16) and 0 (the others) in both columns before the floor
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": [1e-2, eps]}
        code, out = _run(tmp_path, "probe", config, extra_args=("--format", fmt))
        assert code == EXIT_INVALID
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"statlen: ValidationError: eps {eps!r} is below the probe's floor for this state "
            "and perturbation, where a ratio keeps fewer than 6 digits\n"
        )

    def test_an_eps_above_the_floor_is_tabulated(self, tmp_path):
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": [1e-2, 1e-8]}
        code, out = _run(tmp_path, "probe", config)
        assert code == EXIT_OK
        assert out.read_text().endswith("1e-08,1.00000000859,1.00000000859\n")

    def test_an_infinite_ratio_is_the_string_inf(self, tmp_path):
        # p + eps dp = (1, 0) leaves the support of p: S is infinite, which JSON writes as "inf"
        config = {"state": CLASSICAL_A, "perturbation": [1.0, -1.0], "eps_grid": [0.5, 1e-2]}
        assert _run(tmp_path, "probe", config, name="csv")[0] == EXIT_OK
        assert _run(tmp_path, "probe", config, name="json", extra_args=("--format", "json"))[0] == EXIT_OK
        assert "\n0.5,inf,inf\n" in (tmp_path / "csv.out").read_text()
        results = json.loads((tmp_path / "json.out").read_text(), parse_constant=pytest.fail)["results"]
        assert results["ratio_metric"][0] == results["ratio_kubo_mori"][0] == "inf"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nan_result_exits_2_and_leaves_every_file_as_it_was(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.setattr("statlen.cli.state_fidelity", lambda a, b: math.nan)
    earlier = tmp_path / "run.out"
    earlier.write_text("an earlier record\n")
    config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B}
    assert _run(tmp_path, "fidelity", config, extra_args=("--format", fmt))[0] == EXIT_INVALID
    assert earlier.read_text() == "an earlier record\n"
    # the search's history holds no NaN, and is not written when its record is refused
    config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 4}
    code, out = _run(tmp_path, "geodesic", config, name="search", extra_args=("--format", fmt))
    assert code == EXIT_INVALID
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "run.out", "search.json"]
    lines = capsys.readouterr().err.splitlines()
    message = "a record value is NaN" if fmt == "csv" else "a record value is not strict JSON"
    assert len(lines) == 2 and all(line.startswith(f"statlen: ValidationError: {message}") for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("directory", ["history", "out"])
def test_a_directory_target_exits_2_and_leaves_every_file_as_it_was(tmp_path, capsys, directory, fmt):
    # a geodesic run writes its record and then its history; either target may be a directory,
    # and the other file, whether it is new or there from an earlier run, is left as it was
    config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 4}
    out, history = tmp_path / "run.out", tmp_path / "run.out.history.csv"
    target, other = (history, out) if directory == "history" else (out, history)
    target.mkdir()
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    for earlier in (False, True):
        if earlier:
            other.write_text("an earlier file\n")
        before = sorted((p.name, p.is_dir() or p.read_bytes()) for p in tmp_path.iterdir())
        assert _run(tmp_path, "geodesic", config, extra_args=("--format", fmt))[0] == EXIT_INVALID
        after = sorted((p.name, p.is_dir() or p.read_bytes()) for p in tmp_path.iterdir())
        assert after == before and list(target.iterdir()) == []
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"statlen: IsADirectoryError: {str(target)!r} is a directory, not a record file"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_history_write_exits_2_and_leaves_every_file_as_it_was(tmp_path, capsys, monkeypatch, fmt):
    # the record's text is written, and the history's file made, before the history's write
    # fails: no target is replaced until every text is written, and no temporary stays behind
    real_open = open

    def full_disk(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if ".history.csv" in os.fspath(path):
            fh.close()
            raise OSError(28, "No space left on device")
        return fh

    monkeypatch.setattr("statlen.serialize.open", full_disk, raising=False)
    config = {"state_a": CLASSICAL_A, "state_b": CLASSICAL_B, "N": 4}
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "run.out").write_text("an earlier record\n")
    (tmp_path / "run.out.history.csv").write_text("an earlier history\n")
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    assert _run(tmp_path, "geodesic", config, extra_args=("--format", fmt))[0] == EXIT_INVALID
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    assert capsys.readouterr().err == "statlen: OSError: [Errno 28] No space left on device\n"
    monkeypatch.undo()
    assert _run(tmp_path, "geodesic", config, extra_args=("--format", fmt))[0] == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "run.out", "run.out.history.csv"]
