"""Estimators, and the test statistics of the validation experiments in ``distributions``.

Kolmogorov-Smirnov distances and Q-Q pairs check the simulated marginals;
the Pickands set function f(A) = E exp(sup_{t in A} Z(t)) and the discrete
extremal index theta(n) = n^{-1} E max_{i<=n} e^{Z(i)} reproduce the
classical constants attached to the field Z.  Every Monte Carlo estimate,
the oracles of ``distributions`` included, is a plain mean taken by
``mc_mean``, whose docstring states its draws, their antithetic pairing
and the standard error.  theta(n) is f({1, ..., n}) / n, the same mean
over the same draws divided by n.  A coupled mode shares the Gaussian
draws across several grids so that set inclusions become exact
inequalities between the estimates rather than statistical ones.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from . import streams
from .gaussian import SiteSet, _grid_axes, box_grid, build_sampler
from .streams import RandomStream, positive_int
from .variogram import VariogramModel, as_points

# Monte Carlo chunks hold at most this many doubles (512 KiB) per (n, k)
# array, so each thread's chunk arrays stay near cache size whatever the draw
# count.
_CHUNK_DOUBLES = 1 << 16
MAX_GRID = 4096


class ResourceLimitError(RuntimeError):
    """Requested grid exceeds the factorization budget."""


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate, its standard error, and the replication count."""

    value: float
    std_error: float
    reps: int


def ks_statistic(samples, cdf) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(n + 1, dtype=np.float64) / n
    return float(max(np.max(steps[1:] - f), np.max(f - steps[:-1])))


def ks_two_sample(a, b) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical(n: int, m: int | None = None) -> float:
    """Asymptotic KS critical value at the 1% level; two-sample form when
    ``m`` is given.

    c = sqrt(-ln(0.005)/2), about 1.63: c / sqrt(n), or c sqrt((n + m)/(n m)).
    """
    c = np.sqrt(-0.5 * np.log(0.005))
    if m is None:
        return float(c / np.sqrt(n))
    return float(c * np.sqrt((n + m) / (n * m)))


def qq_data(samples, quantile_fn):
    """Sorted samples paired with quantiles at (k - 0.5)/N."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    if x.size == 0:
        raise ValueError("empty sample")
    p = (np.arange(1, x.size + 1) - 0.5) / x.size
    t = np.asarray(quantile_fn(p), dtype=np.float64).reshape(-1)
    return list(zip(t.tolist(), x.tolist()))


def _exp_max(z: np.ndarray) -> np.ndarray:
    """exp of each draw's maximum over the sites, as a (1, k) row."""
    return np.exp(z.max(axis=0, keepdims=True))


def _chunk_moments(s: np.ndarray):
    """Sum, mean and moments about the mean of a chunk's (g, k) statistics
    whose columns 2i and 2i + 1 are the pairs, a last odd column unpaired:
    the squares, the pairs' cross products and the pairs' sums of
    deviations, one entry per statistic each."""
    total = s.sum(axis=1)
    mean = total / s.shape[1]
    d = s - mean[:, None]
    first, second = d[:, 0:s.shape[1] - 1:2], d[:, 1::2]
    return (total, mean, (d * d).sum(axis=1), (first * second).sum(axis=1),
            (first + second).sum(axis=1))


def mc_mean(model: VariogramModel, points, offset, reps: int, seed: int,
            reduce_fn, *, stream_id: int = 0) -> list:
    """Monte Carlo means and standard errors of per-draw statistics.

    The one Monte Carlo path of the oracles and estimators.  It factorizes
    W at ``points`` (a :class:`SiteSet` or an (n, d) array), keys the stream
    ``(seed, stream_id)`` and draws ``reps`` columns of Z + ``offset``, with
    Z = W - gamma, mapping them one (n, k) chunk at a time through
    ``reduce_fn`` to a (g, k) array holding g statistics per draw.  Chunks
    are ``k = max(1, _CHUNK_DOUBLES // n)`` columns wide, the last one
    narrower, so each chunk array holds at most 512 KiB whatever n and
    ``reps``.

    The draws come in antithetic pairs (Glasserman, *Monte Carlo Methods in
    Financial Engineering*, 2004, section 4.2).  Chunk c restarts the
    stream's normals at part c and reads ceil(k_c / 2) rows of m normals
    in one ``normals`` call (m the number of factorized sites, k_c the
    chunk's width); row i, mapped by ``from_normals`` to y = F z - gamma,
    gives the chunk's draws 2i, y + ``offset``, and 2i + 1, its reflection
    through the mean -y - 2 gamma + ``offset``.  An odd chunk's last row
    gives draw 2i alone.  Each draw has the law of Z + ``offset``; only the
    two draws of a pair depend on each other, and the exact sampler pairs
    nothing.  A chunk's statistics depend on its part alone, so the draws
    do not depend on ``reps`` (a shorter run's are the first ``reps`` of a
    longer one's), but they do depend on k, which sets the draw each part
    starts at.  The chunks are dealt round-robin to up to
    ``streams._MAX_WORKERS`` threads of ``streams``' pool, as many as the
    CPUs this process may run on allow, the calling thread among them;
    ``reduce_fn`` must be a pure function of its chunk.

    Returns one :class:`EstimateWithError` per statistic: the mean and its
    standard error sqrt((s^2 + 2 (P / reps) c) / reps), with s^2 the
    unbiased per-draw sample variance, c the mean cross product of the P
    complete pairs' deviations from the mean, and 0 when ``reps`` is 1.
    Each chunk's moments about its own mean are moved to the overall mean
    and added in chunk order (the pairwise update of Chan, Golub & LeVeque,
    1983), so a constant statistic has standard error 0 and the result has
    the same bytes for any number of threads.
    """
    reps = positive_int("reps", reps)
    fg = build_sampler(points, model)
    shift = np.asarray(offset, dtype=np.float64).reshape(-1, 1)
    mirror = shift - 2.0 * fg.gamma[:, None]
    chunk = max(1, _CHUNK_DOUBLES // fg.n)
    widths = np.minimum(chunk, reps - np.arange(0, reps, chunk))
    workers = min(streams._worker_count(), len(widths))
    chunks = [None] * len(widths)

    def run(first: int, stream: RandomStream) -> None:
        for c in range(first, len(widths), workers):
            k = int(widths[c])
            stream.restart_normals(c)
            y = fg.from_normals(stream.normals(((k + 1) // 2, fg.m)).T)
            x = np.empty((fg.n, k))
            np.add(y, shift, out=x[:, 0::2])
            np.subtract(mirror, y[:, :k // 2], out=x[:, 1::2])
            chunks[c] = _chunk_moments(reduce_fn(x))

    helpers = [streams._executor().submit(run, w, RandomStream(seed, stream_id))
               for w in range(1, workers)]
    try:
        run(0, RandomStream(seed, stream_id))
    finally:
        wait(helpers)
    for f in helpers:
        f.result()
    total, means, squares, cross, sums = (np.array(a) for a in zip(*chunks))
    mean = total.sum(axis=0) / reps
    d = means - mean
    squares = (squares + widths[:, None] * d * d).sum(axis=0)
    cross = (cross + d * (sums + (widths // 2)[:, None] * d)).sum(axis=0)
    se = np.zeros_like(mean)
    if reps > 1:
        var = np.maximum(squares / (reps - 1) + 2.0 * cross / reps, 0.0)
        se = np.sqrt(var / reps)
    return [EstimateWithError(float(m), float(e), reps) for m, e in zip(mean, se)]


def _region_grid(model: VariogramModel, region, mesh: float) -> np.ndarray:
    """Grid over the box [low, high] of ``low, high = region``, each bound a
    scalar or a length-dim vector broadcast to the model's dimension."""
    try:
        low, high = (np.broadcast_to(np.asarray(b, dtype=np.float64), (model.dim,))
                     for b in region)
    except (TypeError, ValueError):
        raise ValueError("region must be a (low, high) pair") from None
    return _bounded_grid(low, high, mesh)


def _bounded_grid(low, high, mesh) -> np.ndarray:
    """``box_grid(low, high, mesh)``, once its points are counted and found
    within ``MAX_GRID``: a fine mesh can ask for far more memory than the
    machine has, so nothing is built before the count."""
    size = math.prod(k + 1 for _, _, k in _grid_axes(low, high, mesh))
    if size > MAX_GRID:
        raise ResourceLimitError(
            f"grid of {size} points exceeds the budget of {MAX_GRID}")
    return box_grid(low, high, mesh)


def pickands_coupled(model: VariogramModel, grids, reps: int, seed: int) -> list:
    """Estimates of f over several grids from shared Z draws.

    Z is drawn once per replication on the union of the grids; each grid's
    sample is exp(max of Z over that grid's points).  Because the draws are
    shared, inclusions between grids yield deterministic inequalities of
    the estimates: a grid's estimate never exceeds that of a supergrid.

    Returns one :class:`EstimateWithError` per grid, a mean over the draws
    ``mc_mean`` lays out on the union's distinct sites.
    """
    grids = [as_points(model, g) for g in grids]
    if not grids:
        raise ValueError("need at least one grid")
    for i, g in enumerate(grids):
        if g.shape[0] == 0:
            raise ValueError(f"grid {i} has no points")
    union = SiteSet(np.vstack(grids))
    if union.num_representatives > MAX_GRID:
        raise ResourceLimitError(f"grid of {union.num_representatives} points "
                                 f"exceeds the budget of {MAX_GRID}")
    ends = np.cumsum([g.shape[0] for g in grids])
    row_sets = [np.unique(rows) for rows in np.split(union.rep_index, ends[:-1])]

    def grid_maxima(z):
        return np.stack([np.exp(z[rows].max(axis=0)) for rows in row_sets])

    return mc_mean(model, union.rep_points, 0.0, reps, seed, grid_maxima)


def pickands_estimate(model: VariogramModel, region, mesh: float, reps: int,
                      seed: int) -> EstimateWithError:
    """f(region) = E exp(sup of Z over the meshed region), by Monte Carlo.

    ``region`` is a ``(low, high)`` pair, each bound a scalar or a
    length-dim vector, so a (2, dim) array is one too; ``low == high`` is a
    single point.  The estimate is of the raw set function; dividing
    f([0, N]^d) by N^d gives the usual Pickands-constant approximant.
    """
    grid = _region_grid(model, region, mesh)
    return pickands_coupled(model, [grid], reps, seed)[0]


def extremal_index_estimate(model: VariogramModel, n: int, reps: int,
                            seed: int) -> EstimateWithError:
    """theta(n) = n^{-1} E max_{i=1..n} e^{Z(i)} over integer sites.

    That is f({1, ..., n}) / n: the same draws and the same mean as
    ``pickands_coupled(model, [sites 1..n], reps, seed)``, divided by n.
    """
    n = positive_int("n", n)
    low = np.eye(model.dim)[0]  # site 1 on the first axis
    points = _bounded_grid(low, n * low, 1.0)
    (est,) = mc_mean(model, points, 0.0, reps, seed, _exp_max)
    return EstimateWithError(est.value / n, est.std_error / n, est.reps)


def cluster_count_stats(counts) -> dict:
    """Quartiles, mean, and a fixed-width histogram of cluster counts.

    Quartiles use linear interpolation.  Bins are unit-width and centered
    on integers while the range allows, otherwise 20 equal-width bins.
    """
    c = np.asarray(counts, dtype=np.float64).reshape(-1)
    if c.size == 0:
        raise ValueError("empty input")
    q25, q50, q75 = np.percentile(c, [25.0, 50.0, 75.0])
    lo = float(c.min())
    hi = float(c.max())
    if hi - lo <= 40.0:
        edges = np.arange(np.floor(lo) - 0.5, np.floor(hi) + 1.5)
    else:
        edges = np.linspace(lo - 0.5, hi + 0.5, 21)
    hist, edges = np.histogram(c, bins=edges)
    return {
        "quartiles": [float(q25), float(q50), float(q75)],
        "mean": float(c.mean()),
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(h) for h in hist],
        },
    }
