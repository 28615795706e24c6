"""
Two-site dependence against the closed form
===========================================

For two sites at separation s the maximum of the pair, recentered by
log(2 Phi(sqrt(gamma(s)/2))), is again standard Gumbel.  This is the one
nontrivial joint law with a closed form, so it makes a sharp end-to-end
check of the dependence structure.  The script runs the comparison at a
nearly-critical separation and writes a Q-Q plot to ``dependence_qq.svg``.
"""

import numpy as np

from brownresnick import (
    VariogramModel,
    gamma,
    gumbel_cdf,
    gumbel_quantile,
    ks_critical,
    ks_statistic,
    qq_data,
    replications,
    std_normal_cdf,
)
from brownresnick.cli import emit_svg_qq

model = VariogramModel(alpha=1.0)
s = 1.0 - 1.0 / 1024.0
reps = 10_000

loc = float(np.log(2.0 * std_normal_cdf(np.sqrt(gamma(model, s) / 2.0))))
samples = np.array([
    fs.values.max() - loc
    for fs in replications(np.array([0.0, s]), model, reps, seed=40)
])

d = ks_statistic(samples, gumbel_cdf)
bound = ks_critical(reps)
print(f"separation s        : {s}")
print(f"recentering constant: {loc:.6f}")
print(f"KS vs Gumbel        : {d:.5f} (1% bound {bound:.5f})")

emit_svg_qq(qq_data(samples, gumbel_quantile), "dependence_qq.svg")
print("wrote dependence_qq.svg (markers thinned to 2000)")
