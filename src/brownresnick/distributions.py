"""Reference laws and Monte Carlo oracles for validating the simulator.

Closed forms: the Gumbel marginal and the two-site formula

    -log P(eta(0) <= y1, eta(s) <= y2)
        = e^{-y1} Phi(lam + (y2-y1)/(2 lam)) + e^{-y2} Phi(lam + (y1-y2)/(2 lam)),

with lam = sqrt(gamma(s)/2).  Monte Carlo: the finite-dimensional CDF
identity P(eta <= y) = exp(-E exp(max_j (Z(t_j - t*) - y_j))) and the
change-of-measure identity E e^{W(t)-gamma(t)} F(W - gamma) = E F(Z(. - t))
for translation-invariant F.  The oracles draw W as the simulator does,
through ``build_sampler``, ``to_normals`` and ``from_normals``, so their
agreement with it checks what the exact sampler adds: the Poisson points,
the anchor tilt, the cluster normalization and the stopping rule.  The
shared draw path is checked by references outside it: the closed forms here
(acceptance criteria 1-2) and the ``math.erf`` laws of ``bench/checks.py``.
Both oracles are means taken by ``statseval.mc_mean`` from the stream
``(seed, 0)`` (the tilt check's right side from ``(seed, 1)``); its
docstring tells how it bounds memory and spreads the work over threads.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .gaussian import SiteSet
from .statseval import EstimateWithError, _exp_max, mc_mean
from .variogram import VariogramModel, as_points, cov_w, gamma


def gumbel_cdf(x, loc: float = 0.0):
    """Standard Gumbel CDF exp(-e^{-(x - loc)})."""
    out = np.exp(-np.exp(-(np.asarray(x, dtype=np.float64) - loc)))
    return float(out) if out.ndim == 0 else out


def gumbel_quantile(p, loc: float = 0.0):
    """Inverse of :func:`gumbel_cdf` on (0, 1)."""
    out = loc - np.log(-np.log(np.asarray(p, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF Phi."""
    return ndtr(x)


def bivariate_neglog(model: VariogramModel, s, y1: float, y2: float) -> float:
    """-log P(eta(0) <= y1, eta(s) <= y2) under variogram ``model``.

    At s = 0 the field is fully dependent and the value is e^{-min(y1,y2)}.
    """
    g = gamma(model, s)
    if np.ndim(g) != 0:
        raise ValueError("s must be a single point")
    g = float(g)
    if g == 0.0:
        return float(np.exp(-min(y1, y2)))
    lam = np.sqrt(g / 2.0)
    d = (y2 - y1) / (2.0 * lam)
    return float(np.exp(-y1) * ndtr(lam + d) + np.exp(-y2) * ndtr(lam - d))


def _peak_share(x: np.ndarray) -> np.ndarray:
    # F(x) = max_j e^{x_j} / sum_l e^{x_l}; invariant to adding a constant
    # to every coordinate, and exactly 1.0 for a single coordinate.
    return 1.0 / np.exp(x - x.max(axis=0)).sum(axis=0, keepdims=True)


def fdd_cdf_oracle(sites, model: VariogramModel, y, reps: int,
                   seed: int) -> EstimateWithError:
    """P(eta(t_1) <= y_1, ..., eta(t_n) <= y_n) by the CDF identity.

    Draws Z at the sites shifted by -t_1, which moves the first site to the
    origin (mean -gamma, covariance cov_w), estimates m = E exp(max_j (Z_j -
    y_j)) and returns exp(-m) with the delta-method standard error exp(-m) *
    SE(m).  Which site goes to the origin does not change the law, so
    listing the sites in another order estimates the same probability.
    """
    sites = SiteSet.from_points(sites)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != sites.n:
        raise ValueError(f"need {sites.n} thresholds, got {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("thresholds must be finite")
    (m,) = mc_mean(model, sites.shifted(-sites.points[0]), -y, reps, seed, _exp_max)
    value = float(np.exp(-m.value))
    return EstimateWithError(value, value * m.std_error, m.reps)


def change_of_measure_check(model: VariogramModel, grid, t, reps: int,
                            seed: int) -> float:
    """Standardized difference between the two sides of the tilt identity.

    Left side, E e^{W(t)-gamma(t)} F(W - gamma), is evaluated by the exact
    exponential tilt: reweighting by e^{W(t)-gamma(t)} shifts the mean of W
    by cov_w(., t) and removes the weight, so the F input becomes
    W_j + cov_w(s_j, t) - gamma(s_j).  Right side is F(Z(. - t)) with Z
    drawn on the shifted grid.  The sides draw from the streams (seed, 0)
    and (seed, 1); the returned z-score should be O(1) when the identity
    holds.  When both sample variances vanish (e.g. a single-point grid,
    where F is identically 1) the sides agree exactly and 0 is returned.
    """
    grid = SiteSet.from_points(grid)
    tpt = as_points(model, t)
    if tpt.shape[0] != 1:
        raise ValueError("t must be a single point")
    tpt = tpt[0]
    if not np.any(np.all(grid.points == tpt, axis=1)):
        raise ValueError("t must be one of the grid points")

    c_t = np.atleast_1d(cov_w(model, grid.points, np.broadcast_to(tpt, grid.points.shape)))
    (left,) = mc_mean(model, grid, c_t, reps, seed, _peak_share)
    (right,) = mc_mean(model, grid.shifted(-tpt), 0.0, reps, seed, _peak_share,
                       stream_id=1)
    denom = float(np.hypot(left.std_error, right.std_error))
    if denom == 0.0:
        return 0.0
    return float((left.value - right.value) / denom)
