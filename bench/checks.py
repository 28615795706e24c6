"""Closed forms and family-wise tests for the benchmark's output checks.

Nothing here calls the library: the laws are computed from the variogram
``gamma(h) = |h|^alpha / 2`` with ``math.erf``, so a fault in the library's
own oracles cannot hide a fault in the sampler.

Statistical tests are collected during a run and judged together at its
end with a Bonferroni split of ``FAMILY_ALPHA`` over every test the run
made, so the chance that a correct program fails a run stays below
``FAMILY_ALPHA`` however many samples or rounds the run held, and whatever
random streams a later version of the library draws.  The KS and frequency
tests use the Dvoretzky-Kiefer-Wolfowitz-Massart and Hoeffding bounds,
which hold at every sample size.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

FAMILY_ALPHA = 1e-5


def gamma(h: float, alpha: float = 1.0) -> float:
    """Fractional variogram |h|^alpha / 2 at distance h."""
    return abs(h) ** alpha / 2.0


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def pair_extremal_coefficient(g: float) -> float:
    """theta for two sites with variogram value g: 2 Phi(sqrt(g / 2))."""
    return 2.0 * normal_cdf(math.sqrt(g / 2.0))


def bivariate_cdf(y1: float, y2: float, g: float) -> float:
    """P(eta(s) <= y1, eta(t) <= y2) for sites with gamma(s - t) = g."""
    if g == 0.0:
        return math.exp(-math.exp(-min(y1, y2)))
    lam = math.sqrt(g / 2.0)
    d = (y2 - y1) / (2.0 * lam)
    v = math.exp(-y1) * normal_cdf(lam + d) + math.exp(-y2) * normal_cdf(lam - d)
    return math.exp(-v)


def gumbel_ks_distance(sample) -> float:
    """Sup distance between the empirical CDF of ``sample`` and exp(-e^-x)."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    f = np.exp(-np.exp(-x))
    return float(max(np.max(np.arange(1, n + 1) / n - f),
                     np.max(f - np.arange(n) / n)))


class Checks:
    """Exact checks plus statistical tests judged family-wise at the end."""

    def __init__(self):
        self.exact_failures: list[str] = []
        self.tests: list[tuple] = []   # (kind, name, statistic, n)

    def exact(self, name: str, ok: bool) -> None:
        if not ok:
            self.exact_failures.append(name)

    def ks(self, name: str, distance: float, n: int) -> None:
        """Sup distance of an n-sample empirical CDF from the true CDF."""
        self.tests.append(("dkw", name, distance, n))

    def frequency(self, name: str, hits: int, n: int, p: float) -> None:
        """n Bernoulli(p) trials with ``hits`` successes."""
        self.tests.append(("dkw", name, abs(hits / n - p), n))

    def z(self, name: str, estimate: float, target: float, std_error: float,
          side: int = 0) -> None:
        """Monte Carlo estimate against its target; side > 0 tests
        estimate <= target only, side < 0 estimate >= target only."""
        if std_error > 0.0:
            score = (estimate - target) / std_error
        else:
            score = 0.0 if estimate == target else math.copysign(math.inf, estimate - target)
        if side > 0:
            score = max(score, 0.0)
        elif side < 0:
            score = min(score, 0.0)
        self.tests.append(("z", name, abs(score), 0))

    def failures(self) -> list[str]:
        level = FAMILY_ALPHA / max(len(self.tests), 1)
        z_limit = NormalDist().inv_cdf(1.0 - level / 2.0)
        out = list(self.exact_failures)
        for kind, name, stat, n in self.tests:
            # Both bounds give P(stat > limit) <= level: DKW-Massart for the
            # KS distance, Hoeffding for a frequency (one CDF point).
            limit = math.sqrt(math.log(2.0 / level) / (2.0 * n)) if kind == "dkw" else z_limit
            if not stat <= limit:
                out.append(f"{name}: {stat:.4g} > {limit:.4g}")
        return out
