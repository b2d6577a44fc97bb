#!/usr/bin/env python3
"""Finite-reservoir equilibration: entropy production approaching S(rho||sigma).

One equilibration step swaps the system state into a reservoir of n
copies of the target and twirls the reservoir over placements.  The
entropy generated by the twirl climbs toward the relative entropy as the
reservoir grows; the gap column records the remaining distance (a trend,
with no rate law attached).
"""
import numpy as np

from statlen import (
    convergence_scan,
    random_state,
    validate_density,
    validate_distribution,
)

print("=== classical-fast mode: p = (1/2, 1/2) -> q = (9/10, 1/10), n up to 14 ===")
p = validate_distribution([0.5, 0.5])
q = validate_distribution([0.9, 0.1])
scan = convergence_scan(p, q, 14)
print(f"reference S(p||q) = {scan.reference:.6f} nats")
print(f"{'n':>3}  {'Delta_S_n':>10}  {'gap':>10}")
for n, ds, gap in zip(scan.n_values, scan.delta_S, scan.gaps):
    print(f"{n:>3}  {ds:>10.6f}  {gap:>10.6f}")

print("\n=== dense mode: the same pair as diagonal density matrices, n up to 8 ===")
rho = validate_density(np.diag(p.array))
sigma = validate_density(np.diag(q.array))
dense = convergence_scan(rho, sigma, 8)
agree = np.max(np.abs(dense.delta_S - scan.delta_S[:8]))
print(f"max |dense - classical-fast| over n <= 8: {agree:.2e}")

print("\n=== dense mode: non-commuting random qubits, n up to 8 ===")
a = random_state(2, 2, 7)
b = random_state(2, 2, 8)
noncomm = convergence_scan(a, b, 8)
print(f"reference S(rho||sigma) = {noncomm.reference:.6f} nats")
print(f"{'n':>3}  {'Delta_S_n':>10}  {'gap':>10}")
for n, ds, gap in zip(noncomm.n_values, noncomm.delta_S, noncomm.gaps):
    print(f"{n:>3}  {ds:>10.6f}  {gap:>10.6f}")
print("\nthe gap shrinks monotonically; the limit itself is out of desk reach")
