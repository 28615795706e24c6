"""
Single-site sanity check
========================

At one site the field value is the largest of two Poisson points, which
is exactly a standard Gumbel draw, and the sampler always consumes
exactly two clusters: the first point is the maximum, the second proves
it.  This script verifies both facts on 10,000 replications.
"""

import numpy as np

from brownresnick import (
    VariogramModel,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    replications,
)

model = VariogramModel(alpha=1.0)
reps = 10_000

values = np.empty(reps)
counts = np.empty(reps, dtype=int)
for r, fs in enumerate(replications([0.7], model, reps, seed=20)):
    values[r] = fs.values[0]
    counts[r] = fs.num_clusters

print(f"replications        : {reps}")
print(f"cluster counts      : min={counts.min()} max={counts.max()} "
      f"(always 2 at a single site)")

d = ks_statistic(values, gumbel_cdf)
bound = ks_critical(reps)
verdict = "consistent" if d <= bound else "NOT consistent"
print(f"KS vs Gumbel        : {d:.5f} (1% bound {bound:.5f}) -> {verdict}")
print(f"sample mean         : {values.mean():+.4f} (Euler-Mascheroni is +0.5772)")
print(f"sample median       : {np.median(values):+.4f} (theory +0.3665)")
