#!/usr/bin/env python3
"""Fidelities and the geodesic lengths they induce.

Computes the fidelity of a documented pair of probability vectors, of the
matching diagonal density matrices and of random states, with the one
``state_fidelity`` that takes its kind from the states.  Shows two
closed-form values: the geodesic length
2 arccos F, for probability vectors and density matrices alike, and the
chordal distance 2 sqrt(1 - F^2) between the unit amplitudes, which is
not a path length.  They are related by d_chordal = 2 sin(l_arc / 2).
"""
import numpy as np

from statlen import (
    geodesic_length_bures,
    geodesic_length_fisher,
    random_state,
    state_fidelity,
    validate_density,
    validate_distribution,
)

print("=== documented pair: p = (1/2, 1/2), q = (9/10, 1/10) ===")
p = validate_distribution([0.5, 0.5])
q = validate_distribution([0.9, 0.1])
f = state_fidelity(p, q)
print(f"classical fidelity      F       = {f:.6f}")
print(f"geodesic length         2acosF  = {geodesic_length_fisher(f):.6f}")
print(f"chordal distance        2r(1-F2)= {geodesic_length_bures(f):.6f}")

rho = validate_density(np.diag(p.weights))
sigma = validate_density(np.diag(q.weights))
print(f"quantum F on diagonals          = {state_fidelity(rho, sigma):.6f}  (coincides)")

print("\n=== random qubit pairs: fidelity is symmetric and bounded ===")
print(f"{'seed':>4}  {'F(rho,sigma)':>13}  {'F(sigma,rho)':>13}  {'l_arc':>8}  {'l_chord':>8}")
for seed in range(5):
    a = random_state(2, 2, seed)
    b = random_state(2, 2, seed + 100)
    fab = state_fidelity(a, b)
    fba = state_fidelity(b, a)
    print(
        f"{seed:>4}  {fab:>13.9f}  {fba:>13.9f}"
        f"  {geodesic_length_fisher(fab):>8.5f}  {geodesic_length_bures(fab):>8.5f}"
    )

print("\n=== the sine relation between the two lengths ===")
print(f"{'F':>6}  {'2sqrt(1-F^2)':>13}  {'2sin(arccos F)':>15}")
for f in (0.0, 0.25, 0.5, 0.75, 0.894427, 1.0):
    chordal = geodesic_length_bures(f)
    via_sine = 2.0 * np.sin(0.5 * geodesic_length_fisher(f))
    print(f"{f:>6.3f}  {chordal:>13.9f}  {via_sine:>15.9f}")
print("\nthe chordal distance is the shorter one whenever 0 < F < 1")
