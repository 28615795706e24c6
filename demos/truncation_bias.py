"""
Why exactness matters
=====================

A common shortcut simulates max-stable fields by keeping only the N
largest Poisson points.  At sites far from the origin the drift gamma(t)
is large and discarded points can still dominate, so the truncated field
is stochastically too small there.  This script puts the truncated and
the exact sampler side by side on sites spanning [0, 10]: the truncated
marginal fails the Gumbel test decisively, the exact one passes.
"""

import numpy as np

from brownresnick import (
    VariogramModel,
    build_sampler,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    replications,
    simulate_naive,
)

model = VariogramModel(alpha=1.0)
sites = [0.0, 2.5, 5.0, 7.5, 10.0]
sampler = build_sampler(sites, model)
reps = 10_000
bound = ks_critical(reps)

# The truncated arm draws from streams (80_000 + r, 0), r < reps; the
# exact arm's seed lies outside that range, so the arms share no stream.
naive = np.array([
    simulate_naive(sites, model, seed=80_000 + r, truncation=5,
                   sampler=sampler).values[-1]
    for r in range(reps)
])
exact = np.array([
    fs.values[-1]
    for fs in replications(sites, model, reps, seed=90_000, sampler=sampler)
])

print(f"far site t=10, gamma(t) = {5.0}, {reps} replications each\n")
for name, sample in (("truncated (N=5)", naive), ("exact", exact)):
    d = ks_statistic(sample, gumbel_cdf)
    verdict = "REJECTED" if d > bound else "passes"
    print(f"{name:<16}: KS={d:.4f} vs bound {bound:.4f} -> {verdict}; "
          f"mean {sample.mean():+.3f} (Gumbel mean +0.577)")

print("\nthe truncated sampler undershoots because it never sees the")
print("low-v clusters that still win at distant sites")
