#!/usr/bin/env python3
"""Entropy production of sequential transport and its l^2/(2N) minimum.

Transports p = (1/2, 1/2) into q = (9/10, 1/10) through N evenly spaced
equilibration steps along the geodesic.  The table shows N * Delta_S
converging to l^2/2 from above, and the dissipation rate settling at
1/(2 nu) per unit length.  A straight-mixture path on a 3-outcome pair
is run for comparison: same endpoints, more entropy.
"""
from statlen import (
    even_schedule,
    geodesic_length_fisher,
    geodesic_path,
    linear_mixture_path,
    run_transport,
    state_fidelity,
    validate_distribution,
)

p = validate_distribution([0.5, 0.5])
q = validate_distribution([0.9, 0.1])
path = geodesic_path(p, q)
ell = geodesic_length_fisher(state_fidelity(p, q))
print(f"geodesic length l = {ell:.6f},  l^2/2 = {0.5 * ell * ell:.6f}")
print()
print(f"{'N':>4}  {'Delta_S':>12}  {'N*Delta_S':>12}  {'bound l^2/2N':>13}  {'dS*2nu/l':>9}")
for n in (16, 32, 64, 128, 256, 512):
    report = run_transport(even_schedule(path, n))
    rate_ratio = report.total_entropy * 2.0 * report.nu / report.total_length
    print(
        f"{n:>4}  {report.total_entropy:>12.3e}  {n * report.total_entropy:>12.8f}"
        f"  {report.bound_path_length:>13.3e}  {rate_ratio:>9.5f}"
    )

print("\n=== geodesic vs straight mixture on a 3-outcome pair, N = 64 ===")
a = validate_distribution([0.6, 0.3, 0.1])
b = validate_distribution([0.2, 0.3, 0.5])
for label, build in (("geodesic", geodesic_path), ("mixture ", linear_mixture_path)):
    report = run_transport(even_schedule(build(a, b), 64))
    print(
        f"{label}: length = {report.total_length:.6f}, Delta_S = {report.total_entropy:.6e},"
        f" fidelity bound = {report.bound_fidelity:.6e}"
    )
print("\nthe geodesic saturates the fidelity bound as N grows; the mixture cannot")
