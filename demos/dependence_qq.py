"""
Two-site dependence against the closed form
===========================================

For two sites at separation s the maximum of the pair, recentered by
log(2 Phi(sqrt(gamma(s)/2))), is again standard Gumbel.  This is the one
nontrivial joint law with a closed form, so it makes a sharp end-to-end
check of the dependence structure.  The script runs the comparison at a
nearly-critical separation through ``distributions.gumbel_checks``, the
check that ``brownresnick validate`` and acceptance criterion 2 run, and
writes a Q-Q plot of the located maxima to ``dependence_qq.svg``.
"""

import numpy as np

from brownresnick import VariogramModel, bivariate_neglog, gumbel_quantile, qq_data
from brownresnick.cli import emit_svg_qq
from brownresnick.distributions import gumbel_checks

model = VariogramModel(alpha=1.0)
s = 1.0 - 1.0 / 1024.0
reps = 10_000

(check,), (located,) = gumbel_checks(model, [0.0, s], {"bivariate": [0, 1]}, reps, 40)
loc = float(np.log(bivariate_neglog(model, s, 0.0, 0.0)))
print(f"separation s        : {s}")
print(f"recentering constant: {loc:.6f}")
print(f"KS vs Gumbel        : {check['statistic']:.5f} (1% bound {check['threshold']:.5f})")

emit_svg_qq(qq_data(located, gumbel_quantile), "dependence_qq.svg")
print("wrote dependence_qq.svg (markers thinned to 2000)")
