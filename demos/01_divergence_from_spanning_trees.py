"""Estimating distribution divergence from a spanning tree.

Pool two samples, build the Euclidean minimum spanning tree, and count the
edges whose endpoints come from different samples. Heavy mixing means the
distributions overlap; a handful of crossings means they are far apart.
"""

import numpy as np

from dpdiv import build_mst, estimate, fr_statistic

rng = np.random.default_rng(0)

# Case 1: both samples from the same standard bivariate Gaussian
a = rng.normal(size=(400, 2))
b = rng.normal(size=(400, 2))
print("same distribution:")
print("  cross edges:", fr_statistic(a, b), "of", 799, "total edges")
est = estimate(a, b)
print(f"  divergence estimate (clamped): {est.dp_tilde:.3f}   raw: {est.dp_tilde_raw:+.3f}")

# Case 2: second sample shifted by 3 in every coordinate
c = rng.normal(size=(400, 2)) + 3.0
est = estimate(a, c)
print("shifted by (3, 3):")
print("  cross edges:", est.cross_count)
print(f"  divergence estimate: {est.dp_tilde:.3f}   affinity: {est.affinity:.3f}")

# The tree itself is available: exact, deterministic, canonical edge order
mst = build_mst(np.vstack([a[:5], c[:5]]))
print("tiny pooled tree edges (i, j, length):")
for i, j, length in zip(mst.i, mst.j, mst.length):
    print(f"  ({i}, {j})  {length:.3f}")
