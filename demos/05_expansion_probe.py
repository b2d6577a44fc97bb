#!/usr/bin/env python3
"""Second-order expansion of relative entropy against the metric elements.

For a small step eps * d the relative entropy behaves as half a squared
length.  The probe tabulates S / (element/2) for two elements: the
Fisher-Bures form of ``metric_element`` (Fisher's sum on probability
vectors, the Bures form on density matrices), and the Kubo-Mori form that
is the exact second derivative of relative entropy.  Classically (and for commuting steps)
the columns coincide and go to one; for non-commuting steps only the
Kubo-Mori column does, and the Bures column settles elsewhere.  The
tables are evidence, not an adjudication of which form is "the" metric.
"""
import numpy as np

from statlen import (
    expansion_probe,
    hellinger_element,
    metric_element,
    tangent_classical,
    tangent_quantum,
    validate_density,
    validate_distribution,
)

print("=== classical probe: p = (0.5, 0.3, 0.2) ===")
p = validate_distribution([0.5, 0.3, 0.2])
dp = tangent_classical([1.0, -0.4, -0.6])
probe = expansion_probe(p, dp, [1e-2, 1e-3, 1e-4])
print(f"{'eps':>8}  {'S/(fisher/2)':>13}")
for eps, r in zip(probe.eps, probe.ratio_metric):
    print(f"{eps:>8.0e}  {r:>13.9f}")

print("\n=== non-commuting qubit probe: rho = diag(0.7, 0.3) ===")
rho = validate_density(np.diag([0.7, 0.3]))
drho = tangent_quantum(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]))
probe = expansion_probe(rho, drho, [1e-2, 1e-3, 1e-4])
print(f"{'eps':>8}  {'S/(bures/2)':>13}  {'S/(kubo-mori/2)':>16}")
for eps, rb, rk in zip(probe.eps, probe.ratio_metric, probe.ratio_kubo_mori):
    print(f"{eps:>8.0e}  {rb:>13.9f}  {rk:>16.9f}")

print("\n=== the two square-length forms for the same non-commuting step ===")
print(f"{'eps':>8}  {'bures':>12}  {'sqrt-chord':>12}  {'ratio':>8}")
for eps in (1e-2, 1e-3, 1e-4):
    b = metric_element(rho, drho, eps)
    h = hellinger_element(rho, drho, eps)
    print(f"{eps:>8.0e}  {b:>12.6e}  {h:>12.6e}  {h / b:>8.5f}")
print("\nthe square-root-chord form exceeds the Bures form off the commuting case;")
print("their ratio is logged as a diagnostic and never asserted to be one")
