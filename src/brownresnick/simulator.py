"""Exact simulation of the Brown-Resnick field at finitely many sites.

The field is eta(t) = sup_i (V_i + W_i(t) - sigma^2(t)/2) with variogram
gamma.  Clusters are generated one Poisson point at a time, anchored at a
random site T ~ mu, and the per-site running suprema are updated until the
dominance bound C(t_j) <= v - log w_j guarantees that no future cluster can
change any coordinate.  The algorithm is exact: its output has the law of
the field restricted to the sites, with no truncation error.  The point that
meets the bound is counted (``num_clusters``, ``v_trace``, ``bound_gap``)
but its cluster is neither formed nor merged: the bound covers it too, since
in exact arithmetic its coordinates are at most ``v - log w_j <= sup_j``, so
merging it could change nothing.  In floating point the two sides are
rounded, so the tests check at fixed seeds that the merge would change no
byte of the output.

Random streams: sample r of ``replications(seed=s)`` draws everything from
the one stream (s, r), and ``simulate(seed=s)`` is sample 0.  Cluster k
reads row k of the stream's uniforms, its Poisson point and then its anchor,
and normals [k m, (k + 1) m) of the stream's normals (m the number of
factorized sites; ``streams`` keeps the two in separate counter spaces).
One block reader, ``_blocks``, reads every sample's stream, for the exact
loop and for ``simulate_naive`` alike.  It draws in blocks of a fixed
private size B: one ``uniforms`` call, one pass for the block's Poisson
points, one anchor lookup and one ``normals`` call per block; the draws past
the stopping cluster go unused.  The Poisson points come out of a running
sum taken in sequence, so they do not depend on B, nor does which draws a
cluster reads.  Distinct keys give independent streams, so no two samples
share a draw, and each replays bit for bit from its key.  A run builds one
stream and re-keys it for each sample.

The screen: only an *open* site, one with ``sup_j + log w_j < v``, can be
raised by the cluster at v, and the sites open at a block's first point
include those open at each later point of the block, since v falls and sup
only rises.  A cluster is ``C_j = v + X_j - lse``, where X is the draw tilted
by the anchor T less gamma and lse the log-sum-exp of ``log w_l + X_l`` over
every site.  Over the open sites S, one product with the factor's rows at S
gives ``X_S`` for the block's B clusters, and ``L = max(lse_S, log w_T +
X_T)`` is a lower bound on lse: the max of the two terms, not their
log-sum, since T may lie in S.  So ``C_j <= v + X_j - L``, and only the
clusters for which that exceeds ``sup_j`` less a margin at some open j, sup
as it stood at the block's start, have their draw at every site formed, in
one product over those clusters, and stepped, and merged if they raise a
value.  The margin (``_MARGIN``, relative to the magnitudes compared) is
far above the rounding of either product, so a screened cluster would
raise no value in floating point either.  Every cluster still takes its turn in order, so ``num_clusters``,
``v_trace``, ``bound_gap`` and the stopping point are those of merging all.
A block at whose first point more than ``_FULL_SHARE`` of the sites are
open, as in the first block, where no site is raised yet, forms every
cluster in one product instead.  On large grids the products read only
each row block's nonzero prefix of the factor
(``gaussian.FactorizedGaussian.from_normals``), and each formed cluster's
draw comes out as one contiguous row of n values.  Which clusters share a
product, set by B and by the screen, changes the output bytes only by the
rounding of that product.

A deliberately naive truncated variant is included to demonstrate the bias
that the exact algorithm removes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .gaussian import FactorizedGaussian, SiteSet, build_sampler
from .pointprocess import SamplingMeasure, poisson_points
from .streams import RandomStream, positive_int

DEFAULT_MAX_CLUSTERS = 10_000_000
DEFAULT_V_TRACE_CAP = 100_000

# Rows (clusters, or simulate_naive points) drawn per block.
_BLOCK = 64
# The screen's margin, relative to the magnitudes it compares.
_MARGIN = 1e-9
# A block at whose first point more than this share of the sites is open
# forms every cluster in one product, unscreened.  Chosen by measurement: a
# higher share is faster, but reads more peak RSS on the benchmark's 65-site
# line, whose harness keeps a record per op (ROADMAP item 1).
_FULL_SHARE = 0.25

MARGINALS = ("gumbel", "frechet", "weibull")


class ClusterLimitError(RuntimeError):
    """Raised when the cluster safety cap is hit before termination, or at
    once when the dominance bound turns NaN, which no Poisson point meets.
    The message names the site with the worst gap, the one where
    ``sup_j + log w_j`` is smallest (or NaN)."""


@dataclass(frozen=True)
class FieldSample:
    """A single exact draw of (eta(t_1), ..., eta(t_n)).

    ``num_clusters`` counts the Poisson points consumed, including the final
    one that triggered termination, whose cluster cannot raise any value and
    is not merged; ``v_trace`` records them in decreasing order (truncated
    at the retention cap in pathological runs, in which case
    ``len(v_trace) < num_clusters``).  ``elapsed`` is the wall time of the
    draw, factorization excluded.  ``bound_gap`` is the stopping bound's
    slack ``min_j (sup_j + log w_j) - v >= 0`` at the final point; NaN for
    ``simulate_naive``, which has no stopping bound.  ``formed_clusters``
    counts the clusters whose draw at every site was formed, the others
    having been screened out, and ``raising_clusters`` those of them that
    raised at least one value and so were merged; both are 0 for
    ``simulate_naive``, which screens nothing.
    """

    values: np.ndarray
    num_clusters: int
    v_trace: list
    seed: int
    elapsed: float
    bound_gap: float = math.nan
    formed_clusters: int = 0
    raising_clusters: int = 0


def _cluster_step(x: np.ndarray, log_w: np.ndarray, v: float) -> np.ndarray:
    """Turn the tilted draw ``x`` in place into the cluster

        C(t_j) = v + X_j - logsumexp_l(log w_l + X_l),

    which a constant added to every X_j leaves unchanged.

    Every coordinate obeys the dominance bound ``C(t_j) <= v - log w_j``
    exactly, because the log-sum-exp is computed max-shifted and therefore
    never falls below the largest of its terms.
    """
    # The ufunc reductions, not the ndarray methods, which add a Python-level
    # wrapper call per reduction.
    a = log_w + x
    m = np.maximum.reduce(a)
    a -= m
    np.exp(a, out=a)
    lse = m + np.log(np.add.reduce(a))
    # v + (x - lse), not (v + x) - lse: with one site lse == x exactly and
    # the cluster collapses to v with no rounding.
    x -= lse
    x += v
    return x


def _prepare(sites, model, measure, sampler):
    """Anchor measure and factorization shared by every sample, checked
    against the sites and the model."""
    sites = SiteSet.from_points(sites)
    if sampler is None:
        sampler = build_sampler(sites, model)
    elif sampler.sites is not sites and not np.array_equal(sampler.sites.points,
                                                           sites.points):
        raise ValueError(
            f"sampler was built for different sites: {sampler.n} in dimension "
            f"{sampler.sites.dim}, against {sites.n} given in dimension {sites.dim}")
    if sampler.model != model:
        raise ValueError(f"sampler was built for {sampler.model}, not {model}")
    if measure is None:
        measure = SamplingMeasure.uniform(sites.n)
    if measure.n != sites.n:
        raise ValueError(
            f"measure has {measure.n} weights but there are {sites.n} sites"
        )
    return measure, sampler


def _blocks(stream, m, measure=None):
    """Yield ``(v, anchors, z)`` for block after block of ``_BLOCK`` rows.

    The one reader of a sample's stream.  Row k is the Poisson point's
    uniform, then with a ``measure`` the anchor's, and normals [k m,
    (k + 1) m): per block one ``uniforms`` call, one ``poisson_points``
    pass, one ``anchors`` lookup (None without a measure) and one
    ``normals`` call, whose (``_BLOCK``, m) array z is the caller's to
    overwrite.
    """
    lead = 1 if measure is None else 2
    gamma_sum = 0.0
    while True:
        block = stream.uniforms((_BLOCK, lead))
        gamma_sum, v = poisson_points(gamma_sum, block[:, 0])
        anchors = None if measure is None else measure.anchors(block[:, 1])
        yield v, anchors, stream.normals((_BLOCK, m))


def _rows(stream, sampler, measure=None, sup=None):
    """Yield ``(v, column)`` for row after row of ``_blocks``.

    v is the row's Poisson point and the column is its draw at the raw
    sites of W tilted by its anchor T, less gamma (``from_normals(z, T)``),
    or of W without a measure, one ``from_normals`` product per block.  The
    columns are views into the block's draw, free for the caller to
    overwrite; with a measure each one is contiguous, a row of the draw's
    transpose.  With ``sup``, the exact loop's running suprema, each block
    is first screened (``_screen``) against ``sup`` as it stands when the
    block is read, after the merges of every earlier row: the column is
    None where no draw is formed, and the formed ones equal this view's
    unscreened columns up to the rounding of the product they share.
    """
    for v, anchors, z in _blocks(stream, sampler.m, measure):
        formed = None if sup is None else _screen(
            sampler, measure.log_weights, sup, v, anchors, z)
        if formed is None:
            yield from zip(v.tolist(), sampler.from_normals(z.T, anchors).T)
            continue
        row = [None] * len(v)
        for i, x in zip(*formed):
            row[i] = x
        yield from zip(v.tolist(), row)


def _screen(sampler, log_w, sup, v, anchors, z):
    """The block's columns that may raise an open site, and their draws.

    Returns None, for every column, when more than ``_FULL_SHARE`` of the
    sites are open at the block's first point.  Otherwise returns the
    indices of the columns that pass the screen (module docstring) and, one
    per row, their draws ``from_normals(z[i], T_i)``; the screen tilts
    ``z`` in place.
    """
    g = sup + log_w
    if np.minimum.reduce(g) == -math.inf:  # no merge yet: every site open
        return None
    v0 = float(v[0])
    # Magnitudes the margin is relative to.
    scale = 1.0 + abs(v0) + abs(float(v[-1])) + float(np.maximum.reduce(np.abs(g)))
    open_ = np.flatnonzero(g < v0 + _MARGIN * scale)
    if len(open_) > _FULL_SHARE * sampler.n:
        return None
    if not len(open_):  # the block's first point stops the loop
        return (), ()
    f_t = sampler.factor[anchors]
    z += f_t
    # log w_T + X_T, the anchor's own term of the log-sum-exp.
    anchor_term = (log_w[anchors] + np.einsum("ij,ij->i", f_t, z)
                   - sampler.gamma[anchors])
    del f_t
    # a[i, j] = log w_j + X_j of column i at open site j, one buffer
    # throughout: its maximum less g_j, then its log-sum-exp.
    a = sampler.from_tilted_normals(z.T, open_).T
    a += log_w[open_]
    g = g[open_]
    peak = np.maximum.reduce(a, axis=1)
    scale += max(abs(float(peak.max())), abs(float(np.minimum.reduce(a, axis=None))))
    a -= g
    rise = np.maximum.reduce(a, axis=1)
    a += g
    a -= peak[:, None]
    np.exp(a, out=a)
    # L <= the full log-sum-exp: the max of two lower bounds, not their
    # log-sum, since T may be an open site.
    lse = np.maximum(peak + np.log(np.add.reduce(a, axis=1)), anchor_term)
    del a
    scale += float(np.maximum.reduce(np.abs(lse)))
    # Column i passes if v_i + X_j - L_i > sup_j - margin at an open j; a
    # NaN passes, so that its merge stops the loop as it would unscreened.
    keep = np.flatnonzero(~(rise + v - lse <= -_MARGIN * scale))
    if not len(keep):
        return (), ()
    return keep.tolist(), sampler.from_tilted_normals(z[keep].T).T


def _simulate(measure, sampler, stream) -> FieldSample:
    """The sample drawn from ``stream``, one screened row of ``_rows`` per
    cluster; only the formed ones are stepped and merged."""
    t0 = time.perf_counter()
    max_clusters, v_trace_cap = DEFAULT_MAX_CLUSTERS, DEFAULT_V_TRACE_CAP
    sites, alpha = sampler.sites, sampler.model.alpha
    log_w = measure.log_weights
    sup = np.full(sites.n, -np.inf)
    bound = -math.inf
    v_trace: list = []
    formed = raising = 0
    for k, (v, x) in enumerate(_rows(stream, sampler, measure, sup), 1):
        if k > max_clusters:
            raise ClusterLimitError(
                f"no termination after {max_clusters} clusters "
                f"(alpha={alpha}, n={sites.n}, last v="
                f"{v_trace[-1] if v_trace else None}, "
                f"bound={float((sup + log_w).min())}, "
                f"{_worst_site(sites, sup, log_w)})"
            )
        if math.isnan(bound):
            raise ClusterLimitError(
                f"dominance bound turned NaN before cluster {k}: a merged "
                f"cluster had a NaN value (alpha={alpha}, n={sites.n}, "
                f"{_worst_site(sites, sup, log_w)}), "
                f"so no Poisson point could ever stop the loop")
        if len(v_trace) < v_trace_cap:
            v_trace.append(v)
        if v <= bound:
            break
        if x is None:
            continue
        x = _cluster_step(x, log_w, v)
        formed += 1
        # A cluster that raises no value leaves sup and the bound as they
        # are; a NaN merges, so that the bound turns NaN.
        if np.logical_and.reduce(x <= sup):
            continue
        raising += 1
        np.maximum(sup, x, out=sup)
        bound = np.minimum.reduce(sup + log_w)

    return FieldSample(
        values=sup,
        num_clusters=k,
        v_trace=v_trace,
        seed=stream.seed,
        elapsed=time.perf_counter() - t0,
        bound_gap=float(bound - v),
        formed_clusters=formed,
        raising_clusters=raising,
    )


def _worst_site(sites, sup, log_w) -> str:
    """Name the site where ``sup_j + log w_j`` is smallest, or the first NaN."""
    j = int((sup + log_w).argmin())
    return f"worst gap at site {j}, t={sites.points[j].tolist()}"


def simulate(
    sites,
    model,
    measure: SamplingMeasure | None = None,
    seed: int = 0,
    *,
    sampler: FactorizedGaussian | None = None,
) -> FieldSample:
    """Draw one exact sample of the field at the given sites.

    Parameters
    ----------
    sites : SiteSet or array-like
        Evaluation sites in R^d.
    model : VariogramModel
        Variogram gamma determining the law of the field.
    measure : SamplingMeasure, optional
        Anchor-site distribution mu; uniform when omitted.  The output law
        does not depend on the choice as long as all weights are positive.
    seed : int
        Every draw (Poisson points, anchors, normals) comes from the one
        stream (seed, 0), so the output is a pure function of the seed and
        equals item 0 of ``replications(..., seed=seed)``.
    sampler : FactorizedGaussian, optional
        Prefactorized covariance for these sites; built on the fly when
        omitted.  Pass one in when simulating many replications.

    Returns
    -------
    FieldSample

    Notes
    -----
    Termination: after merging cluster k, the loop stops as soon as the
    *next* Poisson point v satisfies v <= min_j (sup_j + log w_j).  That
    final point is counted in ``num_clusters`` and ``v_trace``, but its
    cluster is not merged: each of its coordinates is at most
    v - log w_j <= sup_j, so it could raise none of them.  A run that passes
    ``DEFAULT_MAX_CLUSTERS`` clusters without stopping aborts with
    :class:`ClusterLimitError`; ``v_trace`` keeps at most
    ``DEFAULT_V_TRACE_CAP`` points.
    """
    return next(replications(sites, model, 1, measure, seed, sampler=sampler))


def simulate_naive(
    sites,
    model,
    seed: int = 0,
    truncation: int = 100,
    *,
    sampler: FactorizedGaussian | None = None,
) -> FieldSample:
    """Truncated approximation sup_{i<=N} (V_i + W_i(t_j) - gamma(t_j)).

    Biased: the missing points with small V_i can still dominate at sites
    where gamma is large, so far-field marginals come out stochastically
    too small.  Kept only to demonstrate that failure mode.

    W_i is drawn pinned at the origin.  Point i takes uniform i of the one
    stream (seed, 0) for V_i and normals [i m, (i + 1) m) for W_i.  The
    draws come in full blocks whatever N, so a point's draws, W_i's bits
    included, do not depend on N: a shorter run consumes a prefix of the
    same draws, and for a fixed seed the output is coordinatewise
    nondecreasing in N.
    """
    truncation = positive_int("truncation", truncation)
    stream = RandomStream(seed, 0)
    _, sampler = _prepare(sites, model, None, sampler)
    t0 = time.perf_counter()
    sup = np.full(sampler.n, -np.inf)
    v_trace: list = []
    for v, w in islice(_rows(stream, sampler), truncation):
        np.maximum(sup, v + w - sampler.gamma, out=sup)
        if len(v_trace) < DEFAULT_V_TRACE_CAP:
            v_trace.append(v)

    return FieldSample(
        values=sup,
        num_clusters=truncation,
        v_trace=v_trace,
        seed=stream.seed,
        elapsed=time.perf_counter() - t0,
    )


def transform_marginals(sample: FieldSample, target: str) -> FieldSample:
    """Map Gumbel output to the requested marginal family.

    gumbel: identity.  frechet: e^eta, standard Frechet exp(-1/x).
    weibull: -e^{-eta}, standard (reversed) Weibull exp(x) on x < 0.
    """
    if target not in MARGINALS:
        raise ValueError(f"unknown marginals {target!r}; choose from {MARGINALS}")
    if target == "gumbel":
        return sample
    if target == "frechet":
        return replace(sample, values=np.exp(sample.values))
    return replace(sample, values=-np.exp(-sample.values))


def replications(
    sites,
    model,
    reps: int,
    measure: SamplingMeasure | None = None,
    seed: int = 0,
    workers: int = 1,
    *,
    sampler: FactorizedGaussian | None = None,
):
    """A generator of ``reps`` independent FieldSamples of one run at ``seed``.

    The inputs are checked and the covariance factorized at the call, before
    the generator is returned, not at the first ``next()``.  Sample r draws
    everything from the one stream (seed, r), so item 0 equals
    ``simulate(..., seed=seed)`` bit for bit and runs at different seeds
    share no draw.  The factorization and the generator are shared: the
    stream is re-keyed from (seed, r - 1) to (seed, r) between samples.
    ``workers`` is ignored; samples are drawn one at a time.
    """
    reps = positive_int("reps", reps)
    stream = RandomStream(seed, 0)
    measure, sampler = _prepare(sites, model, measure, sampler)

    def samples():
        for r in range(reps):
            if r:
                stream.rekey(r)
            yield _simulate(measure, sampler, stream)
    return samples()
