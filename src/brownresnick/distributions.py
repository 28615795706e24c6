"""Reference laws, Monte Carlo oracles and the validation experiments.

Closed forms: the Gumbel marginal and the two-site formula

    -log P(eta(0) <= y1, eta(s) <= y2)
        = e^{-y1} Phi(lam + (y2-y1)/(2 lam)) + e^{-y2} Phi(lam + (y1-y2)/(2 lam)),

with lam = sqrt(gamma(s)/2).  Monte Carlo: the finite-dimensional CDF
identity P(eta <= y) = exp(-E exp(max_j (Z(t_j - t*) - y_j))) and the
change-of-measure identity E e^{W(t)-gamma(t)} F(W - gamma) = E F(Z(. - t))
for translation-invariant F.  The oracles draw W - gamma as the simulator
does, through ``build_sampler``, ``RandomStream.normals`` and
``from_normals``, but untilted, so their agreement with it checks what the
exact sampler adds: the Poisson points, the anchor tilt
(``simulator._simulate``), the cluster normalization and the stopping rule.
The shared draw path is checked by references outside it: the closed forms
here (acceptance criteria 1-2) and the ``math.erf`` laws of
``bench/checks.py``.
Both oracles are means taken by ``statseval.mc_mean`` from the stream
``(seed, 0)`` (the tilt check's right side from ``(seed, 1)``); its
docstring states their draws, pairing and standard errors.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import SiteSet
from .simulator import replications
from .statseval import (EstimateWithError, _exp_max, ks_critical, ks_statistic,
                        ks_two_sample, mc_mean)
from .variogram import VariogramModel, as_points, cov_w, gamma

VALIDATION_CHECKS = ("marginal", "bivariate", "mu_invariance", "stationarity")
FIVE_SITES = (0.0, 0.2, 0.45, 0.7, 1.0)  # the sites of validate's two-arm checks


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-e^{-x}); shift a sample by its location
    before testing it against this law."""
    out = np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


def gumbel_quantile(p):
    """Standard Gumbel quantile -log(-log p), the inverse of
    :func:`gumbel_cdf` on (0, 1)."""
    out = -np.log(-np.log(np.asarray(p, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2, of a number or
    elementwise of an array."""
    out = 0.5 * _erfc(-np.asarray(x, dtype=np.float64) / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


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
    return float(np.exp(-y1) * std_normal_cdf(lam + d)
                 + np.exp(-y2) * std_normal_cdf(lam - d))


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
    holds.  When both standard errors vanish (e.g. a single-point grid,
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


def _check(name: str, statistic: float, threshold: float) -> dict:
    return {"name": name, "pass": bool(statistic <= threshold),
            "statistic": statistic, "threshold": threshold}


def _values(sites, model, reps, seed, measure=None) -> np.ndarray:
    return np.array([fs.values for fs in replications(sites, model, reps, measure, seed)])


def gumbel_checks(model: VariogramModel, sites, groups: dict, reps: int, seed: int):
    """Check records, at ``ks_critical(reps)`` and from one run at ``seed``, of
    each group's maximum: standard Gumbel over one site, over two sites t_i, t_j
    Gumbel at log ``bivariate_neglog(model, t_j - t_i, 0, 0)``; and, for Q-Q
    plots, each maximum less its location.  ``groups`` maps names to indices."""
    sites = SiteSet.from_points(sites)
    values = _values(sites, model, reps, seed)
    records, located = [], []
    for name, group in groups.items():
        lag = sites.points[group[-1]] - sites.points[group[0]]
        x = values[:, group].max(axis=1) - np.log(bivariate_neglog(model, lag, 0.0, 0.0))
        records.append(_check(name, ks_statistic(x, gumbel_cdf), ks_critical(reps)))
        located.append(x)
    return records, located


def mu_invariance_check(model: VariogramModel, sites, measure, reps: int, seeds) -> dict:
    """Two-sample KS check of the maximum over ``sites`` under the uniform
    anchor measure, at ``seeds[0]``, against ``measure``, at ``seeds[1]``."""
    a = _values(sites, model, reps, seeds[0]).max(axis=1)
    b = _values(sites, model, reps, seeds[1], measure).max(axis=1)
    return _check("mu_invariance", ks_two_sample(a, b), ks_critical(reps, m=reps))


def stationarity_check(models, sites, shift, reps: int, seeds) -> dict:
    """Worst two-sample KS check, over ``models``, of the maximum and the first
    site at ``sites`` against ``sites`` moved by ``shift``; model k draws its
    arms at ``seeds[2k]`` and ``seeds[2k + 1]``."""
    worst = 0.0
    for model, here, there in zip(models, seeds[::2], seeds[1::2]):
        a = _values(sites, model, reps, here)
        b = _values(SiteSet.from_points(sites).shifted(shift), model, reps, there)
        worst = max(worst, ks_two_sample(a.max(axis=1), b.max(axis=1)),
                    ks_two_sample(a[:, 0], b[:, 0]))
    return _check("stationarity", worst, ks_critical(reps, m=reps))
