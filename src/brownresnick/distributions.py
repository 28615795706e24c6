"""Reference laws and Monte Carlo oracles for validating the simulator.

Closed forms: the Gumbel marginal and the two-site formula

    -log P(eta(0) <= y1, eta(s) <= y2)
        = e^{-y1} Phi(lam + (y2-y1)/(2 lam)) + e^{-y2} Phi(lam + (y1-y2)/(2 lam)),

with lam = sqrt(gamma(s)/2).  Monte Carlo: the finite-dimensional CDF
identity P(eta <= y) = exp(-E exp(max_j (Z(t_j - t*) - y_j))) and the
change-of-measure identity E e^{W(t)-gamma(t)} F(W - gamma) = E F(Z(. - t))
for translation-invariant F.  The oracles share no code path with the
simulator, so agreement is evidence, not tautology.  Both average through
``statseval.mc_mean``, whose chunks hold about 2 MiB per array, so their
memory does not grow with the draw count.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .gaussian import SiteSet, build_sampler
from .statseval import EstimateWithError, mc_mean
from .streams import RandomStream, mask64
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


def _exp_rowmax(x: np.ndarray) -> np.ndarray:
    return np.exp(x.max(axis=0, keepdims=True))


def _peak_share(x: np.ndarray) -> np.ndarray:
    # F(x) = max_j e^{x_j} / sum_l e^{x_l}; invariant to adding a constant
    # to every coordinate, and exactly 1.0 for a single coordinate.
    return 1.0 / np.exp(x - x.max(axis=0)).sum(axis=0, keepdims=True)


def fdd_cdf_oracle(sites, model: VariogramModel, y, reps: int, seed: int,
                   *, anchor_index: int = 0) -> EstimateWithError:
    """P(eta(t_1) <= y_1, ..., eta(t_n) <= y_n) by the CDF identity.

    Draws Z at the sites shifted by -t_anchor (mean -gamma, covariance
    cov_w), estimates m = E exp(max_j (Z_j - y_j)) and returns exp(-m) with
    the delta-method standard error exp(-m) * SE(m).  The anchor choice
    does not change the law; ``anchor_index`` exists so tests can verify
    that.
    """
    sites = SiteSet.from_points(sites)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != sites.n:
        raise ValueError(f"need {sites.n} thresholds, got {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("thresholds must be finite")
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 0 <= anchor_index < sites.n:
        raise IndexError(f"anchor index {anchor_index} out of range")

    shifted = sites.shifted(-sites.points[anchor_index])
    fg = build_sampler(shifted, model)
    stream = RandomStream(mask64(seed), 0)
    (m,), (se_m,) = mc_mean(fg, -fg.gamma - y, stream, reps, _exp_rowmax)
    value = float(np.exp(-m))
    return EstimateWithError(value, value * float(se_m), reps)


def change_of_measure_check(model: VariogramModel, grid, t, reps: int,
                            seed: int) -> float:
    """Standardized difference between the two sides of the tilt identity.

    Left side, E e^{W(t)-gamma(t)} F(W - gamma), is evaluated by the exact
    exponential tilt: reweighting by e^{W(t)-gamma(t)} shifts the mean of W
    by cov_w(., t) and removes the weight, so the F input becomes
    W_j + cov_w(s_j, t) - gamma(s_j).  Right side is F(Z(. - t)) with Z
    drawn on the shifted grid.  Both sides use independent streams; the
    returned z-score should be O(1) when the identity holds.  When both
    sample variances vanish (e.g. a single-point grid, where F is
    identically 1) the sides agree exactly and 0 is returned.
    """
    grid = SiteSet.from_points(grid)
    tpt = as_points(model, t)
    if tpt.shape[0] != 1:
        raise ValueError("t must be a single point")
    tpt = tpt[0]
    if not np.any(np.all(grid.points == tpt, axis=1)):
        raise ValueError("t must be one of the grid points")
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    seed = mask64(seed)

    c_t = np.atleast_1d(cov_w(model, grid.points, np.broadcast_to(tpt, grid.points.shape)))
    fg_left = build_sampler(grid, model)
    (m_left,), (se_left,) = mc_mean(
        fg_left, c_t - fg_left.gamma, RandomStream(seed, 0), reps, _peak_share)

    fg_right = build_sampler(grid.shifted(-tpt), model)
    (m_right,), (se_right,) = mc_mean(
        fg_right, -fg_right.gamma, RandomStream(seed, 1), reps, _peak_share)

    denom = float(np.hypot(se_left, se_right))
    if denom == 0.0:
        return 0.0
    return float((m_left - m_right) / denom)
