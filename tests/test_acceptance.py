"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""
import json

import numpy as np

from statlen import (
    ProbabilityDistribution,
    convergence_scan,
    even_schedule,
    expansion_probe,
    geodesic_length_bures,
    geodesic_length_fisher,
    geodesic_path,
    metric_element,
    minimize_path,
    random_distribution,
    relative_entropy,
    run_transport,
    state_fidelity,
    step_entropy_production,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)
from statlen.cli import EXIT_OK, main

P_DOC = validate_distribution([0.5, 0.5])
Q_DOC = validate_distribution([0.9, 0.1])


def _report(number, ok, detail):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def _haar_basis(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_criterion_01_commuting_fidelity_reduction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 9))
        p = random_distribution(dim, 7000 + trial)
        q = random_distribution(dim, 8000 + trial)
        f_classical = state_fidelity(p, q)
        f_quantum = state_fidelity(
            validate_density(np.diag(p.weights)), validate_density(np.diag(q.weights))
        )
        worst = max(worst, abs(f_quantum - f_classical))
    _report(1, worst <= 1e-10, f"diagonal fidelity agreement, worst |dF| = {worst:.3e}")


def test_criterion_02_commuting_metric_reduction():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 9))
        basis = _haar_basis(dim, rng)
        lam = random_distribution(dim, 9000 + trial)
        delta = rng.standard_normal(dim)
        delta -= delta.mean()
        rho = validate_density((basis * lam.weights) @ basis.conj().T)
        drho = tangent_quantum((basis * delta) @ basis.conj().T)
        bures = metric_element(rho, drho, 1e-3)
        fisher = metric_element(lam, tangent_classical(delta), 1e-3)
        worst = max(worst, abs(bures - fisher) / fisher)
    _report(2, worst <= 1e-8, f"Bures vs Fisher on commuting pairs, worst rel = {worst:.3e}")


def test_criterion_03_length_formula_identity():
    grid = np.linspace(0.0, 1.0, 1000)
    worst = max(
        abs(geodesic_length_bures(f) - 2.0 * np.sin(0.5 * geodesic_length_fisher(f)))
        for f in grid
    )
    _report(3, worst <= 1e-12, f"2 sqrt(1-F^2) = 2 sin(arccos F) on grid, worst = {worst:.3e}")


def test_criterion_04_quadratic_expansion_classical():
    rng = np.random.default_rng(404)
    ok = True
    worst_pair = (0.0, 0.0)
    for trial in range(20):
        dim = int(rng.integers(2, 6))
        raw = random_distribution(dim, 5000 + trial)
        p = validate_distribution(0.5 * raw.weights + 0.5 / dim)
        direction = rng.standard_normal(dim)
        direction -= direction.mean()
        dp = tangent_classical(direction / np.max(np.abs(direction)))
        probe = expansion_probe(p, dp, [1e-3, 1e-4])
        devs = np.abs(probe.ratio_metric - 1.0)
        if devs[1] > devs[0] / 5.0:
            ok = False
            worst_pair = (devs[0], devs[1])
    _report(
        4,
        ok,
        "relative-entropy expansion deviation shrinks 5x from eps 1e-3 to 1e-4"
        + ("" if ok else f", counterexample devs {worst_pair}"),
    )


def test_criterion_05_reservoir_limit():
    scan = convergence_scan(P_DOC, Q_DOC, 12)
    monotone = bool(np.all(np.diff(scan.gaps) < 0.0))
    g2, g12 = float(scan.gaps[1]), float(scan.gaps[11])
    trend_ok = monotone and g12 < 0.5 * g2
    rho = validate_density(np.diag(P_DOC.weights))
    sigma = validate_density(np.diag(Q_DOC.weights))
    worst = 0.0
    for n in range(1, 11):
        dense = step_entropy_production(rho, sigma, n)
        fast = step_entropy_production(P_DOC, Q_DOC, n)
        worst = max(worst, abs(dense - fast))
    _report(
        5,
        trend_ok and worst <= 1e-9,
        f"reservoir scan monotone with g12 = {g12:.5f} < g2/2 = {0.5 * g2:.5f}, "
        f"dense vs classical-fast worst |diff| = {worst:.3e} (n <= 10), "
        f"reference S = {scan.reference:.5f}",
    )


def test_criterion_06_even_spacing_optimality():
    path = geodesic_path(P_DOC, Q_DOC)
    even = run_transport(even_schedule(path, 32)).total_entropy
    rng = np.random.default_rng(606)
    worst_margin = 0.0
    ok = True
    for _ in range(100):
        interior = np.sort(rng.uniform(0.0, 1.0, 31))
        ts = np.concatenate(([0.0], interior, [1.0]))
        states = [ProbabilityDistribution(row) for row in path.sample(ts)]
        total = sum(relative_entropy(states[i], states[i + 1]) for i in range(32))
        margin = (even - total) / even
        worst_margin = max(worst_margin, margin)
        if total < even * (1.0 - 1e-3):
            ok = False
    _report(
        6,
        ok,
        f"even schedule unbeaten by 100 monotone reallocations "
        f"(worst relative margin {worst_margin:.3e})",
    )


def test_criterion_07_minimum_dissipation_scaling():
    path = geodesic_path(P_DOC, Q_DOC)
    ell = geodesic_length_fisher(state_fidelity(P_DOC, Q_DOC))
    half_sq = 0.5 * ell * ell
    devs = {}
    for n in (256, 512):
        report = run_transport(even_schedule(path, n))
        devs[n] = abs(n * report.total_entropy - half_sq)
    ok = devs[256] <= 0.02 * half_sq and devs[512] <= 0.5 * devs[256]
    _report(
        7,
        ok,
        f"N*dS at 256 within {devs[256] / half_sq:.3%} of l^2/2 = {half_sq:.5f}, "
        f"halving ratio {devs[512] / devs[256]:.4f}",
    )


def test_criterion_08_linear_dissipation_rate():
    path = geodesic_path(P_DOC, Q_DOC)
    report = run_transport(even_schedule(path, 256))
    ratio = report.total_entropy * 2.0 * report.nu / report.total_length
    _report(8, 0.98 <= ratio <= 1.02, f"dS * 2 nu / l = {ratio:.5f} at N = 256")


def test_criterion_09_numerical_geodesic():
    a = validate_distribution([1.0, 0.0])
    b = validate_distribution([0.0, 1.0])
    result = minimize_path(a, b, 32)
    rel = abs(result.final_length - np.pi) / np.pi
    _report(
        9,
        rel <= 0.01,
        f"optimizer length {result.final_length:.6f} vs pi, rel error {rel:.3e}, "
        f"{result.iterations} iterations",
    )


def test_criterion_10_cli_determinism(tmp_path):
    classical_a = {"kind": "classical", "weights": [0.5, 0.5]}
    classical_b = {"kind": "classical", "weights": [0.9, 0.1]}
    experiments = {
        "fidelity": {"state_a": classical_a, "state_b": classical_b},
        "transport": {
            "path": {"type": "geodesic", "state_a": classical_a, "state_b": classical_b},
            "N_grid": [8, 16],
        },
        "reservoir": {"state_a": classical_a, "state_b": classical_b, "n_max": 6},
        "geodesic": {
            "state_a": {"kind": "classical", "weights": [1.0, 0.0]},
            "state_b": {"kind": "classical", "weights": [0.0, 1.0]},
            "N": 16,
        },
        "probe": {
            "state": classical_a,
            "perturbation": [1.0, -1.0],
            "eps_grid": [1e-2, 1e-3],
        },
    }
    all_ok = True
    for fmt in ("csv", "json"):
        for command, config in experiments.items():
            config_path = tmp_path / f"{command}_{fmt}.json"
            out_path = tmp_path / f"{command}_{fmt}.out"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            args = [
                command,
                "--config",
                str(config_path),
                "--out",
                str(out_path),
                "--seed",
                "3",
                "--format",
                fmt,
            ]
            code = main(args)
            assert code == EXIT_OK, f"{command} exited {code}"
            first = out_path.read_bytes()
            assert main(args) == EXIT_OK
            if out_path.read_bytes() != first:
                all_ok = False
    _report(10, all_ok, "all five experiments byte-identical on repeat, csv and json")
