"""Exact simulation of the Brown-Resnick field at finitely many sites.

The field is eta(t) = sup_i (V_i + W_i(t) - sigma^2(t)/2) with variogram
gamma.  Clusters are generated one Poisson point at a time, anchored at a
random site T ~ mu, and the per-site running suprema are updated until the
dominance bound C(t_j) <= v - log w_j guarantees that no future cluster can
change any coordinate.  The algorithm is exact: its output has the law of
the field restricted to the sites, with no truncation error.

Random streams: sample r of ``replications(seed=s)`` draws its Poisson
points, anchors and normals, in loop order, from the one stream (s, r), and
``simulate(seed=s)`` is sample 0.  Distinct keys give independent streams,
so no two samples share a draw, and each replays bit for bit from its key.

A deliberately naive truncated variant is included to demonstrate the bias
that the exact algorithm removes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import FactorizedGaussian, SiteSet, build_sampler
from .pointprocess import SamplingMeasure, VStream, sample_anchor
from .streams import RandomStream, mask64
from .variogram import gamma

DEFAULT_MAX_CLUSTERS = 10_000_000
DEFAULT_V_TRACE_CAP = 100_000

MARGINALS = ("gumbel", "frechet", "weibull")


class ClusterLimitError(RuntimeError):
    """Raised when the cluster safety cap is hit before termination."""


@dataclass(frozen=True)
class ClusterDraw:
    """One cluster: the Poisson point, its anchor site, and C(t_1..t_n).

    Every coordinate obeys the dominance bound
    ``values[j] <= v - log_weights[j]`` exactly, because the log-sum-exp
    normalizer is computed max-shifted and therefore never falls below the
    largest of its terms.
    """

    v: float
    anchor: int
    values: np.ndarray


@dataclass(frozen=True)
class FieldSample:
    """A single exact draw of (eta(t_1), ..., eta(t_n)).

    ``num_clusters`` counts the Poisson points consumed, including the final
    one that triggered termination; ``v_trace`` records them in decreasing
    order (truncated at the retention cap in pathological runs, in which
    case ``len(v_trace) < num_clusters``).  ``elapsed`` is the wall time of
    the draw, factorization excluded.
    """

    values: np.ndarray
    num_clusters: int
    v_trace: list
    seed: int
    elapsed: float


def generate_cluster(
    fg: FactorizedGaussian,
    measure: SamplingMeasure,
    v: float,
    stream: RandomStream,
) -> ClusterDraw:
    """Generate the cluster attached to the Poisson point ``v``.

    Draws an anchor T from ``measure``, then a Gaussian vector
    X_j = W(t_j) - gamma(t_j - T), and returns

        C(t_j) = v + X_j - logsumexp_l(log w_l + X_l).

    The anchor draw and the Gaussian draw consume ``stream`` in that fixed
    order, so the cluster is a pure function of v and the stream's state.
    """
    anchor = sample_anchor(measure, stream)
    x = fg.sample_drifted(anchor, stream)
    a = measure.log_weights + x
    m = a.max()
    lse = m + np.log(np.exp(a - m).sum())
    # v + (x - lse), not (v + x) - lse: with one site lse == x exactly and
    # the cluster collapses to v with no rounding.
    return ClusterDraw(v=v, anchor=anchor, values=v + (x - lse))


def _prepare(sites, model, measure, sampler):
    """Site set, anchor measure and factorization shared by every sample."""
    sites = SiteSet.from_points(sites)
    if sampler is None:
        sampler = build_sampler(sites, model)
    if measure is None:
        measure = SamplingMeasure.uniform(sites.n)
    if measure.n != sites.n:
        raise ValueError(
            f"measure has {measure.n} weights but there are {sites.n} sites"
        )
    return sites, measure, sampler


def _simulate(sites, model, measure, sampler, seed, replication,
              max_clusters=DEFAULT_MAX_CLUSTERS,
              v_trace_cap=DEFAULT_V_TRACE_CAP) -> FieldSample:
    """Sample ``replication`` of ``seed``, drawn from one stream in loop order."""
    t0 = time.perf_counter()
    stream = RandomStream(seed, replication)
    vstream = VStream(stream)
    log_w = measure.log_weights
    sup = np.full(sites.n, -np.inf)
    v_trace: list = []
    merged = 0
    while True:
        if merged >= max_clusters:
            raise ClusterLimitError(
                f"no termination after {merged} clusters "
                f"(alpha={model.alpha}, n={sites.n}, last v="
                f"{v_trace[-1] if v_trace else None}, "
                f"bound={float(np.min(sup + log_w))})"
            )
        v = vstream.next_v()
        merged += 1
        draw = generate_cluster(sampler, measure, v, stream)
        hit = v <= np.min(sup + log_w)
        np.maximum(sup, draw.values, out=sup)
        if len(v_trace) < v_trace_cap:
            v_trace.append(v)
        if hit:
            break

    return FieldSample(
        values=sup,
        num_clusters=merged,
        v_trace=v_trace,
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


def simulate(
    sites,
    model,
    measure: SamplingMeasure | None = None,
    seed: int = 0,
    *,
    sampler: FactorizedGaussian | None = None,
    max_clusters: int = DEFAULT_MAX_CLUSTERS,
    v_trace_cap: int = DEFAULT_V_TRACE_CAP,
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
    max_clusters : int
        Safety cap; the run aborts with :class:`ClusterLimitError` instead
        of looping forever if termination is not reached.
    v_trace_cap : int
        Retention cap on the recorded Poisson points.

    Returns
    -------
    FieldSample

    Notes
    -----
    Termination: after merging cluster k, the loop stops as soon as the
    *next* Poisson point v satisfies v <= min_j (sup_j + log w_j).  The
    cluster attached to that final point is still merged, so every consumed
    point contributes and ``num_clusters`` counts them all.
    """
    sites, measure, sampler = _prepare(sites, model, measure, sampler)
    return _simulate(sites, model, measure, sampler, mask64(seed), 0,
                     max_clusters, v_trace_cap)


def simulate_naive(
    sites,
    model,
    seed: int = 0,
    truncation: int = 100,
    *,
    sampler: FactorizedGaussian | None = None,
    v_trace_cap: int = DEFAULT_V_TRACE_CAP,
) -> FieldSample:
    """Truncated approximation sup_{i<=N} (V_i + W_i(t_j) - gamma(t_j)).

    Biased: the missing points with small V_i can still dominate at sites
    where gamma is large, so far-field marginals come out stochastically
    too small.  Kept only to demonstrate that failure mode.

    W_i is drawn pinned at the origin, and V_i and W_i come in turn from
    the one stream (seed, 0).  A shorter run consumes a prefix of the same
    draws, so for a fixed seed the output is coordinatewise nondecreasing
    in N.
    """
    t0 = time.perf_counter()
    truncation = int(truncation)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    sites, _, sampler = _prepare(sites, model, None, sampler)
    seed = mask64(seed)
    g = np.atleast_1d(gamma(model, sites.points))

    stream = RandomStream(seed, 0)
    vstream = VStream(stream)
    sup = np.full(sites.n, -np.inf)
    v_trace: list = []
    for _ in range(truncation):
        v = vstream.next_v()
        w = sampler.sample_w(stream)
        np.maximum(sup, v + w - g, out=sup)
        if len(v_trace) < v_trace_cap:
            v_trace.append(v)

    return FieldSample(
        values=sup,
        num_clusters=truncation,
        v_trace=v_trace,
        seed=seed,
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
    """Yield ``reps`` independent FieldSamples of one run at ``seed``.

    Sample r draws everything from the one stream (seed, r), so item 0
    equals ``simulate(..., seed=seed)`` bit for bit and runs at different
    seeds share no draw.  The covariance factorization is shared across
    replications.  ``workers`` is ignored; samples are drawn one at a time.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    sites, measure, sampler = _prepare(sites, model, measure, sampler)
    seed = mask64(seed)
    for r in range(int(reps)):
        yield _simulate(sites, model, measure, sampler, seed, r)
