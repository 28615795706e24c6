"""
Cluster counts across roughness
===============================

The number of Poisson points the exact sampler must inspect before it can
stop depends on the variogram exponent: rougher fields (small alpha)
decorrelate the sites and push the termination bound further out.  This
script tabulates count quartiles on a fixed grid for several alpha values.
"""

import numpy as np

from brownresnick import (
    VariogramModel,
    box_grid,
    cluster_count_stats,
    replications,
)

grid = box_grid(0.0, 2.0, 1.0 / 32.0)
reps = 200

print(f"{grid.shape[0]} sites on [0, 2], {reps} replications per alpha\n")
print(f"{'alpha':>6} {'q25':>6} {'median':>7} {'q75':>6} {'mean':>8}")
for seed, alpha in enumerate((0.5, 1.0, 1.5, 2.0), start=50):
    model = VariogramModel(alpha=alpha)
    counts = [fs.num_clusters
              for fs in replications(grid, model, reps, seed=seed)]
    stats = cluster_count_stats(counts)
    q25, q50, q75 = stats["quartiles"]
    print(f"{alpha:>6.2f} {q25:>6.1f} {q50:>7.1f} {q75:>6.1f} "
          f"{stats['mean']:>8.2f}")

print("\nsmaller alpha -> rougher paths -> more clusters before the")
print("dominance bound v <= min_j(sup_j + log w_j) is reached")
