#!/usr/bin/env python3
"""Numerical geodesic search against the two closed-form candidates.

The optimizer minimizes the discrete chord energy 4 sum c_i^2 between
fixed endpoints, with c_i = sqrt(2 (1 - F_i)) the Uhlmann chord of a step,
and reports the length of its path as the sum of the steps' Bures angles
4 arcsin(c_i/2) = 2 arccos F_i, the same measure for both kinds.
By the triangle inequality that sum is never below 2 arccos F of the
path's own endpoints (the ridged ones, when a ridge is on).  For
classical antipodal states the shortest path length is pi and the search
recovers it.  For quantum states the run reports its result next to both
candidates, 2 arccos F and 2 sqrt(1 - F^2): the full-rank pair reaches
the first, and the chordal value is the straight-line distance between
amplitudes, not a path length.
"""
import numpy as np

from statlen import (
    geodesic_length_bures,
    geodesic_length_fisher,
    minimize_path,
    random_state,
    state_fidelity,
    validate_density,
    validate_distribution,
)

print("=== classical antipodal pair (1,0) -> (0,1), N = 32, mixture seed ===")
a = validate_distribution([1.0, 0.0])
b = validate_distribution([0.0, 1.0])
result = minimize_path(a, b, 32)
print(f"final length   = {result.final_length:.8f}   (pi = {np.pi:.8f})")
exact = 8 * 32 * (1 - np.cos(np.pi / 2 / 32))  # 32 equal Bures angles arccos(0)/32
print(f"final energy   = {result.final_energy:.8f}   (minimum 256 (1 - cos(pi/64)) = {exact:.8f})")
print(f"step spread cv = {result.step_cvs[-1]:.2e} after {result.iterations} iterations")

print("\n=== full-rank random qubit pair, N = 16 ===")
rho = random_state(2, 2, 11)
sigma = random_state(2, 2, 12)
result = minimize_path(rho, sigma, 16, max_iter=3000)
f = state_fidelity(rho, sigma)
print(f"optimized length          = {result.final_length:.6f}")
print(f"candidate 2 arccos F      = {geodesic_length_fisher(f):.6f}")
print(f"candidate 2 sqrt(1 - F^2) = {geodesic_length_bures(f):.6f}")
print(f"converged = {result.converged}, iterations = {result.iterations}")

print("\n=== orthogonal pure qubit states, N = 16, automatic 1e-6 ridge ===")
zero = validate_density(np.diag([1.0, 0.0]))
one = validate_density(np.diag([0.0, 1.0]))
result = minimize_path(zero, one, 16, max_iter=3000)
f = state_fidelity(zero, one)
print(f"optimized length          = {result.final_length:.6f}  (ridge {result.ridge:g})")
print(f"candidate 2 arccos F      = {geodesic_length_fisher(f):.6f}")
print(f"candidate 2 sqrt(1 - F^2) = {geodesic_length_bures(f):.6f}")
print("\nthe search stays near the upper candidate; the chordal value is reported only")
