"""The integration oracle: density-level ground truth without any trees.

Every graph-based estimate in this package can be checked against direct
numerical integration of the densities. This script shows the integrals,
the identities connecting them, and the bound ordering they obey.
"""

import numpy as np

from dpdiv import GaussianModel, gaussian_pair, integrals

pair = gaussian_pair(GaussianModel(mean0=[0.0, 0.0], mean1=[1.5, 0.5], cov0=[1, 1], cov1=[1, 1]))

# One pass over a shared quadrature grid; each value comes with its standard
# error (0 for quadrature).
values = integrals(pair, ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"),
                   alpha=0.5)
ber, dpt, ap, bc, tv, ch = (value for value, _ in values.values())

print("bivariate Gaussians, means (0,0) and (1.5,0.5), equal priors:")
print(f"  bayes error      {ber:.6f}")
print(f"  divergence       {dpt:.6f}")
print(f"  affinity         {ap:.6f}")
print(f"  bhattacharyya    {bc:.6f}")
print(f"  total variation  {tv:.6f}")
print(f"  chernoff (1/2)   {ch:.6f}")

print("\nidentities (should be ~0):")
print(f"  divergence - (1 - affinity):      {dpt - (1 - ap):+.2e}")
print(f"  bayes error - (1 - tv)/2:         {ber - (0.5 - 0.5 * tv):+.2e}")
print(f"  bhattacharyya - 2*chernoff(1/2):  {bc - 2 * ch:+.2e}")

print("\nbound ordering around the true error:")
lo_bc = 0.5 - 0.5 * np.sqrt(1 - bc**2)
lo_dp = 0.5 - 0.5 * np.sqrt(dpt)
up_dp = 0.5 - 0.5 * dpt
up_bc = 0.5 * bc
print(f"  {lo_bc:.4f} <= {lo_dp:.4f} <= {ber:.4f} <= {up_dp:.4f} <= {up_bc:.4f}")
print("  (BC lower <= divergence lower <= truth <= divergence upper <= BC upper)")

print("\nsandwich between divergence and total variation:")
print(f"  {dpt:.4f} <= {tv:.4f} <= {np.sqrt(dpt):.4f}   (divergence <= tv <= sqrt)")
