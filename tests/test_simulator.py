import time
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from brownresnick import (
    ClusterLimitError,
    FieldSample,
    RandomStream,
    SamplingMeasure,
    SiteSet,
    VariogramModel,
    box_grid,
    build_sampler,
    covariance_matrix,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    poisson_points,
    replications,
    simulate,
    simulate_naive,
    transform_marginals,
)
from brownresnick import simulator
from brownresnick.variogram import gamma

M1 = VariogramModel(alpha=1.0)
FIVE_SITES = [0.0, 0.2, 0.45, 0.7, 1.0]


@pytest.fixture(scope="module")
def single_site_values():
    reps = 4000
    vals = np.array([
        s.values[0]
        for s in replications([0.7], M1, reps, seed=101)
    ])
    return vals


def _cluster(fg, mu, v, stream):
    """A cluster from the stream's next anchor uniform and m normals."""
    x = fg.from_normals(stream.normals(fg.m), mu.anchors(stream.uniforms(1)[0]))
    return simulator._cluster_step(x, mu.log_weights, v)


def test_single_site_cluster_collapses_to_v_exactly():
    fg = build_sampler([0.7], M1)
    mu = SamplingMeasure.uniform(1)
    for k, v in enumerate((1.7, 0.0, -3.25)):
        values = _cluster(fg, mu, v, RandomStream(5, k + 1))
        assert values[0] == v


def test_identical_sites_cluster_collapses_to_v():
    fg = build_sampler([0.3] * 16, M1)
    mu = SamplingMeasure.uniform(16)
    values = _cluster(fg, mu, -0.8, RandomStream(6, 1))
    assert np.all(values == values[0])
    np.testing.assert_allclose(values, -0.8, atol=1e-12)


def test_dominance_bound_holds_exactly():
    # values[j] <= v - log w_j must hold as a strict floating-point
    # inequality, it is what the termination rule relies on.
    fg = build_sampler([0.0, 0.25, 0.6, 1.0], M1)
    mu = SamplingMeasure([0.4, 0.3, 0.2, 0.1])
    for k in range(200):
        v = 0.5 - 0.01 * k
        values = _cluster(fg, mu, v, RandomStream(7, k + 1))
        assert np.all(values <= v - mu.log_weights)


def test_cluster_normalizer_identity():
    fg = build_sampler(FIVE_SITES, M1)
    mu = SamplingMeasure.uniform(5)
    for k in range(50):
        values = _cluster(fg, mu, 0.0, RandomStream(8, k + 1))
        total = np.sum(mu.weights * np.exp(values))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert np.max(values + mu.log_weights) <= 0.0


def test_single_site_consumes_exactly_two_points():
    for seed in range(1000):
        s = simulate([0.7], M1, seed=seed)
        assert s.num_clusters == 2
        assert len(s.v_trace) == 2
        assert s.v_trace[1] < s.v_trace[0]
        assert s.values[0] == s.v_trace[0]


def test_single_site_marginal_is_standard_gumbel(single_site_values):
    d = ks_statistic(single_site_values, gumbel_cdf)
    assert d <= ks_critical(len(single_site_values))


def test_frechet_transform_is_standard_frechet(single_site_values):
    x = np.exp(single_site_values)
    d = ks_statistic(x, lambda t: np.exp(-1.0 / t))
    assert d <= ks_critical(len(x))


def test_identical_sites_count_law():
    # With n copies of one site the count is 2 + Poisson((n-1) * Gamma_1)
    # conditionally on Gamma_1 ~ Exp(1); mean n + 1.  Compare the simulator
    # against that stopping rule drawn with an unrelated generator.
    n, reps = 16, 2500
    counts = np.array([
        fs.num_clusters for fs in replications([0.3] * n, M1, reps, seed=3000)
    ])
    rng = np.random.default_rng(42)
    g1 = rng.exponential(size=reps)
    oracle = 2 + rng.poisson((n - 1) * g1)
    gap = counts.mean() - oracle.mean()
    sigma = np.sqrt(counts.var(ddof=1) / reps + oracle.var(ddof=1) / reps)
    assert abs(gap) <= 4.0 * sigma


def test_identical_sites_values_all_equal():
    s = simulate([0.3] * 16, M1, seed=5)
    assert np.all(s.values == s.values[0])


def test_mean_count_grows_with_site_multiplicity():
    reps = 300
    means = []
    for n in (2, 8, 32, 128):
        counts = [fs.num_clusters
                  for fs in replications([0.3] * n, M1, reps, seed=n)]
        means.append(np.mean(counts))
    assert all(a < b for a, b in zip(means, means[1:]))


def test_truncated_variant_monotone_in_truncation():
    sites = [0.0, 1.0, 3.0]
    lo = simulate_naive(sites, M1, seed=11, truncation=2)
    hi = simulate_naive(sites, M1, seed=11, truncation=6)
    assert np.all(hi.values >= lo.values)
    assert hi.num_clusters == 6
    # 64, 65 and 130 points cross the boundaries of the rows drawn per block.
    runs = [hi] + [simulate_naive(sites, M1, seed=11, truncation=n)
                   for n in (64, 65, 130)]
    for short, long in zip(runs, runs[1:]):
        assert np.all(long.values >= short.values)
        assert long.v_trace[:len(short.v_trace)] == short.v_trace


def test_truncated_variant_first_point_at_origin():
    for seed in (0, 1, 2):
        s = simulate_naive([0.0], M1, seed=seed, truncation=1)
        _, (v1,) = poisson_points(0.0, RandomStream(seed, 0).uniforms(1))
        assert s.values[0] == v1


def test_transform_marginals_values():
    base = FieldSample(values=np.array([0.0, 1.0, -1.0]), num_clusters=2,
                       v_trace=[0.0], seed=0, elapsed=0.0)
    frech = transform_marginals(base, "frechet")
    np.testing.assert_allclose(frech.values, np.exp(base.values), rtol=1e-15)
    assert np.all(frech.values > 0.0)
    weib = transform_marginals(base, "weibull")
    np.testing.assert_allclose(weib.values, -np.exp(-base.values), rtol=1e-15)
    assert np.all(weib.values < 0.0)
    assert transform_marginals(base, "gumbel") is base
    with pytest.raises(ValueError):
        transform_marginals(base, "gompertz")


def test_termination_bound_recoverable_from_sample():
    mu = SamplingMeasure.uniform(5)
    for seed in range(30):
        s = simulate(FIVE_SITES, M1, mu, seed=seed)
        bound = np.min(s.values + mu.log_weights)
        assert s.v_trace[-1] <= bound + 1e-12
        assert s.num_clusters == len(s.v_trace)
        assert all(a > b for a, b in zip(s.v_trace, s.v_trace[1:]))


def test_v_trace_retention_cap(monkeypatch):
    monkeypatch.setattr(simulator, "DEFAULT_V_TRACE_CAP", 5)
    s = simulate([0.3] * 64, M1, seed=1)
    assert len(s.v_trace) == 5
    assert s.num_clusters > 5


def test_cluster_cap_aborts(monkeypatch):
    monkeypatch.setattr(simulator, "DEFAULT_MAX_CLUSTERS", 1)
    with pytest.raises(ClusterLimitError, match="alpha"):
        simulate([0.0, 1.0], M1, seed=0)


def test_nan_bound_fails_fast(monkeypatch):
    # A NaN cluster value makes the bound NaN, which no Poisson point meets;
    # the loop must stop at the next cluster, not at the default cap.
    calls = []

    def nan_step(x, log_w, v):
        calls.append(v)
        return np.full(x.shape, np.nan)

    monkeypatch.setattr(simulator, "_cluster_step", nan_step)
    with pytest.raises(ClusterLimitError, match="NaN before cluster 2"):
        simulate([0.0, 1.0], M1, seed=0)
    assert len(calls) == 1


def test_elapsed_excludes_factorization(monkeypatch):
    def slow_build(sites, model):
        time.sleep(0.2)
        return build_sampler(sites, model)

    monkeypatch.setattr(simulator, "build_sampler", slow_build)
    assert simulate(FIVE_SITES, M1, seed=2).elapsed < 0.1
    assert simulate_naive(FIVE_SITES, M1, seed=2, truncation=5).elapsed < 0.1


def test_input_validation():
    with pytest.raises(ValueError):
        simulate([0.0, 1.0], M1, SamplingMeasure.uniform(3))
    with pytest.raises(ValueError, match="finite"):
        simulate([0.0, np.nan], M1)
    with pytest.raises(ValueError):
        list(replications([0.0], M1, reps=0))
    with pytest.raises(ValueError, match="positive integer"):
        list(replications([0.0], M1, reps=2.5))
    with pytest.raises(ValueError):
        simulate_naive([0.0], M1, truncation=0)
    # A count that is not a finite whole number of at least 1 is rejected by
    # name: no OverflowError from int(inf), no truncation of 2.7 to 2 points.
    for bad in (np.inf, -np.inf, np.nan, 0, -1, 2.7):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            list(replications([0.0], M1, reps=bad))
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            simulate_naive([0.0], M1, truncation=bad)


def test_replications_checks_at_the_call():
    # No item is drawn: replications checks its input and factorizes before
    # it returns the generator, so each error comes from the call itself.
    cases = [
        (dict(sites=[0.0], reps=-1), "reps must be a positive integer, got -1"),
        (dict(sites=[[0.0, 0.0], [1.0, 1.0]], reps=2), "dimension 2, model has dim 1"),
        (dict(sites=[0.0, 1.0], reps=2, measure=SamplingMeasure.uniform(3)),
         "3 weights but there are 2 sites"),
        (dict(sites=[0.0, 1.0], reps=2, sampler=build_sampler([0.0, 5.0], M1)),
         "different sites"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            replications(model=M1, **kwargs)


def test_seed_rule_at_the_call():
    for bad in (2.7, np.inf, np.nan, "3"):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
            simulate([0.0, 1.0], M1, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            replications([0.0, 1.0], M1, 2, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_naive([0.0, 1.0], M1, seed=bad)
    # An integral float or a numpy integer is the same seed as the int.
    ref = simulate(FIVE_SITES, M1, seed=7)
    for same in (7.0, np.float64(7.0), np.int64(7), np.uint64(7)):
        fs = simulate(FIVE_SITES, M1, seed=same)
        assert fs.seed == 7
        np.testing.assert_array_equal(fs.values, ref.values)
    assert simulate(FIVE_SITES, M1, seed=-1.0).seed == 2 ** 64 - 1


def test_prebuilt_sampler_must_fit():
    def runs(sites, model, sampler):
        yield lambda: simulate(sites, model, sampler=sampler)
        yield lambda: list(replications(sites, model, 2, sampler=sampler))
        yield lambda: simulate_naive(sites, model, truncation=3, sampler=sampler)

    two_sites = build_sampler([0.0, 1.0], M1)
    cases = [([0.0, 1.0], M1, build_sampler([0.0, 5.0], M1), "different sites"),
             ([0.0, 1.0], VariogramModel(alpha=0.5), two_sites, "alpha=1.0"),
             ([0.0, 1.0, 2.0], M1, two_sites, "2 in dimension 1, against 3")]
    for sites, model, sampler, message in cases:
        for run in runs(sites, model, sampler):
            with pytest.raises(ValueError, match=message):
                run()
    # The sampler's own SiteSet, or equal points, are accepted.
    fg = build_sampler(SiteSet(FIVE_SITES), M1)
    a = simulate(fg.sites, M1, seed=4, sampler=fg)
    b = simulate(list(FIVE_SITES), M1, seed=4, sampler=fg)
    np.testing.assert_array_equal(a.values, b.values)


def test_seed_wraps_to_64_bits():
    a = simulate(FIVE_SITES, M1, seed=5)
    b = simulate(FIVE_SITES, M1, seed=2 ** 64 + 5)
    np.testing.assert_array_equal(a.values, b.values)
    assert b.seed == 5


def test_prebuilt_sampler_matches_fresh_build():
    fg = build_sampler(FIVE_SITES, M1)
    a = simulate(FIVE_SITES, M1, seed=77, sampler=fg)
    b = simulate(FIVE_SITES, M1, seed=77)
    np.testing.assert_array_equal(a.values, b.values)


def test_replications_are_deterministic():
    runs1 = [s.values for s in replications(FIVE_SITES, M1, 5, seed=6)]
    runs2 = [s.values for s in replications(FIVE_SITES, M1, 5, seed=6)]
    for a, b in zip(runs1, runs2):
        np.testing.assert_array_equal(a, b)
    # Distinct replications really are distinct draws.
    assert not np.array_equal(runs1[0], runs1[1])


def test_simulate_is_replication_zero():
    mu = SamplingMeasure([0.5, 0.2, 0.1, 0.1, 0.1])
    for seed in (0, 6, 2 ** 63 + 1):
        ref = simulate(FIVE_SITES, M1, mu, seed=seed)
        first = next(replications(FIVE_SITES, M1, 3, mu, seed=seed))
        np.testing.assert_array_equal(ref.values, first.values)
        assert ref.num_clusters == first.num_clusters
        assert ref.v_trace == first.v_trace
        assert ref.seed == first.seed


def test_one_stream_per_sample(monkeypatch):
    import brownresnick.simulator as simulator

    keys = []

    class Recording(RandomStream):
        def __init__(self, seed, stream_id=0):
            super().__init__(seed, stream_id)
            keys.append((self.seed, self.stream_id))

        def rekey(self, stream_id):
            super().rekey(stream_id)
            keys.append((self.seed, self.stream_id))

    monkeypatch.setattr(simulator, "RandomStream", Recording)
    samples = list(replications(FIVE_SITES, M1, 4, seed=8))
    assert keys == [(8, 0), (8, 1), (8, 2), (8, 3)]
    assert sum(fs.num_clusters for fs in samples) > 4
    keys.clear()
    simulate_naive(FIVE_SITES, M1, seed=8, truncation=7)
    assert keys == [(8, 0)]


def test_replications_equal_fresh_stream_samples():
    # replications re-keys one generator per sample; each item must be the
    # sample a newly built stream (seed, r) gives, byte for byte.
    mu = SamplingMeasure([0.5, 0.2, 0.1, 0.1, 0.1])
    fg = build_sampler(FIVE_SITES, M1)
    for seed in (8, 2 ** 63 + 3):
        items = replications(FIVE_SITES, M1, 4, mu, seed=seed, sampler=fg)
        for r, fs in enumerate(items):
            ref = simulator._simulate(mu, fg, RandomStream(seed, r))
            assert fs.values.tobytes() == ref.values.tobytes()
            assert fs.num_clusters == ref.num_clusters
            assert fs.v_trace == ref.v_trace
            assert fs.bound_gap == ref.bound_gap
            assert fs.seed == ref.seed


def test_cluster_limit_names_worst_site(monkeypatch):
    def fixed_step(x, log_w, v):
        return np.array([0.0, -3.0, 1.0])

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_cluster_step", fixed_step)
        patch.setattr(simulator, "DEFAULT_MAX_CLUSTERS", 1)
        with pytest.raises(ClusterLimitError, match=r"worst gap at site 1, t=\[0\.5\]"):
            simulate([0.0, 0.5, 1.0], M1, seed=0)

    def nan_step(x, log_w, v):
        return np.array([0.0, 1.0, np.nan])

    monkeypatch.setattr(simulator, "_cluster_step", nan_step)
    with pytest.raises(ClusterLimitError, match=r"NaN .*worst gap at site 2, t=\[1\.0\]"):
        simulate([0.0, 0.5, 1.0], M1, seed=0)


def test_bound_gap_is_the_final_slack():
    # One site: the first cluster collapses to V_1 and the second point
    # always stops the loop, so the gap is V_1 - V_2 exactly.
    for seed in range(20):
        s = simulate([0.7], M1, seed=seed)
        assert s.bound_gap == s.v_trace[0] - s.v_trace[1]
    mu = SamplingMeasure([0.4, 0.3, 0.1, 0.1, 0.1])
    for s in replications(FIVE_SITES, M1, 30, mu, seed=4):
        assert 0.0 <= s.bound_gap < np.inf
    assert np.isnan(simulate_naive(FIVE_SITES, M1, seed=4, truncation=3).bound_gap)


def _reference_sample(sites, model, measure, seed, r):
    """The exact sampler written out plainly: a Cholesky factor of the
    jittered covariance over the non-origin representatives, a zero-filled
    scatter/gather draw, the anchor tilt read from that covariance and an
    out-of-place log-sum-exp, all on stream (seed, r).  Per cluster: one
    exponential, one anchor uniform, then m normals."""
    s = SiteSet(sites)
    active = np.flatnonzero(np.any(s.rep_points != 0.0, axis=1))
    cov_j = covariance_matrix(model, s.rep_points)
    cov_j[active, active] += build_sampler(s, model).jitter_used
    chol = np.linalg.cholesky(cov_j[np.ix_(active, active)])
    # Tilting by e^{W(T) - gamma(T)} shifts the drawn Gaussian's mean by its
    # covariance column at T, here less gamma at the sites.
    tilt = (cov_j[np.ix_(s.rep_index, s.rep_index)]
            - np.atleast_1d(gamma(model, s.points))[:, None])
    log_w = np.log(measure.weights)
    tiny = np.finfo(np.float64).tiny
    stream = RandomStream(seed, r)
    sup = np.full(s.n, -np.inf)
    gamma_sum, trace = 0.0, []
    while True:
        e = -np.log1p(-stream.uniforms())
        gamma_sum += e if e > 0.0 else tiny
        v = -np.log(gamma_sum)
        trace.append(v)
        bound = np.min(sup + log_w)
        u = stream.uniforms()
        anchor = min(int(np.searchsorted(np.cumsum(measure.weights), u, side="right")),
                     s.n - 1)
        w_rep = np.zeros((s.num_representatives, 1))
        w_rep[active] = chol @ stream.normals((len(active), 1))
        x = w_rep[s.rep_index][:, 0] + tilt[:, anchor]
        a = log_w + x
        lse = a.max() + np.log(np.exp(a - a.max()).sum())
        np.maximum(sup, v + (x - lse), out=sup)
        if v <= bound:
            return sup, len(trace), trace, bound - v


REFERENCE_CASES = [
    (box_grid(0.0, 2.0, 0.25), 1, None),
    (box_grid([-1, -1], [1, 1], 0.5), 2, None),
    ([0.0, 0.5, -0.7, 0.5, 1.2, 0.0], 1, None),
    ([0.0, 0.5, -0.7, 0.5, 1.2, 0.0], 1, [3.0, 1.0, 0.5, 1.0, 2.0, 0.2]),
    (box_grid([0, 0], [1, 1], 0.5), 2, np.arange(1.0, 10.0)),
]


def _check_reference(sites, dim, weights, alpha):
    model = VariogramModel(alpha=alpha, dim=dim)
    n = len(sites)
    mu = SamplingMeasure.uniform(n) if weights is None else SamplingMeasure(weights)
    for r, fs in enumerate(replications(sites, model, 20, mu, seed=31)):
        values, count, trace, gap = _reference_sample(sites, model, mu, 31, r)
        assert fs.num_clusters == count
        assert fs.v_trace == trace
        tol = 1e-12 * np.maximum(1.0, np.abs(values))
        assert np.all(np.abs(fs.values - values) <= tol)
        assert abs(fs.bound_gap - gap) <= 1e-12 * max(1.0, abs(gap))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("sites, dim, weights", REFERENCE_CASES)
def test_matches_reference_loop(sites, dim, weights, alpha):
    _check_reference(sites, dim, weights, alpha)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("sites, dim, weights", REFERENCE_CASES)
def test_matches_reference_loop_in_blocks_of_7(sites, dim, weights, alpha, monkeypatch):
    # Most of these samples stop before 64 clusters; blocks of 7 put block
    # boundaries inside them.
    monkeypatch.setattr(simulator, "_BLOCK", 7)
    _check_reference(sites, dim, weights, alpha)


@pytest.mark.parametrize("sites, dim, weights", REFERENCE_CASES)
def test_final_cluster_changes_no_value(sites, dim, weights):
    # The loop skips the cluster of the point that meets the bound.  Merging
    # it must change no byte of the output.
    for alpha in (0.5, 1.0, 2.0):
        model = VariogramModel(alpha=alpha, dim=dim)
        fg = build_sampler(sites, model)
        mu = SamplingMeasure.uniform(fg.n) if weights is None else SamplingMeasure(weights)
        for r, fs in enumerate(replications(sites, model, 100, mu, seed=41, sampler=fg)):
            rows = simulator._rows(RandomStream(41, r), fg, mu)
            v, x = next(islice(rows, fs.num_clusters - 1, None))
            assert v == fs.v_trace[-1]
            merged = np.maximum(fs.values, simulator._cluster_step(x, mu.log_weights, v))
            assert merged.tobytes() == fs.values.tobytes()


def _plain_loop(measure, sampler, stream):
    """The exact loop with no screen: every row of ``_rows`` is stepped and
    merged, in order, until a point meets the bound."""
    log_w = measure.log_weights
    sup = np.full(sampler.n, -np.inf)
    trace = []
    for v, x in simulator._rows(stream, sampler, measure):
        bound = np.min(sup + log_w)
        trace.append(v)
        if v <= bound:
            return sup, trace, bound - v
        np.maximum(sup, simulator._cluster_step(x, log_w, v), out=sup)


# 135 sites: two row blocks of the factor.
SCREEN_CASES = REFERENCE_CASES + [(box_grid([0, 0], [1, 1.75], 1 / 8), 2, None)]


@pytest.mark.parametrize("block", [64, 7])
@pytest.mark.parametrize("sites, dim, weights", SCREEN_CASES)
def test_screened_clusters_raise_no_value(sites, dim, weights, block, monkeypatch):
    # Merging every cluster, screened or not, must stop at the same point
    # with the same values: a screened cluster could have raised nothing.
    monkeypatch.setattr(simulator, "_BLOCK", block)
    # At most 128 sites and blocks of 64, the products round alike and the
    # bytes must match.  Blocks of 7 leave products over a few columns, which
    # OpenBLAS's small-matrix path rounds differently from one over the whole
    # block, and 135 sites take two factor row blocks: there, rounding only.
    exact = block == 64 and len(sites) <= 128
    screened = 0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        model = VariogramModel(alpha=alpha, dim=dim)
        fg = build_sampler(sites, model)
        mu = SamplingMeasure.uniform(fg.n) if weights is None else SamplingMeasure(weights)
        for r, fs in enumerate(replications(sites, model, 20, mu, seed=53, sampler=fg)):
            values, trace, gap = _plain_loop(mu, fg, RandomStream(53, r))
            assert fs.num_clusters == len(trace)
            assert fs.v_trace == trace
            if exact:
                assert fs.values.tobytes() == values.tobytes()
                assert fs.bound_gap == gap
            else:
                assert np.all(np.abs(fs.values - values)
                              <= 1e-12 * np.maximum(1.0, np.abs(values)))
                assert abs(fs.bound_gap - gap) <= 1e-12 * max(1.0, abs(gap))
            screened += fs.num_clusters - 1 - fs.formed_clusters
    # Most samples on the small sets stop within the first block of 64,
    # which is never screened.
    if block == 7 or len(sites) > 128:
        assert screened > 0


def test_formed_and_raising_counts():
    sites = box_grid([0, 0], [1, 1.75], 1 / 8)
    model = VariogramModel(alpha=1.0, dim=2)
    samples = list(replications(sites, model, 20, seed=59))
    for fs in samples:
        assert 1 <= fs.raising_clusters <= fs.formed_clusters <= fs.num_clusters - 1
    assert sum(fs.formed_clusters for fs in samples) < sum(fs.num_clusters - 1
                                                           for fs in samples)
    # One site: every cluster but the last is formed, and only the first
    # raises the value.
    for fs in replications([0.7], M1, 5, seed=59):
        assert (fs.num_clusters, fs.formed_clusters, fs.raising_clusters) == (2, 1, 1)
    naive = simulate_naive(sites, model, seed=59, truncation=70)
    assert (naive.formed_clusters, naive.raising_clusters) == (0, 0)


BLOCK_CASES = [
    (box_grid(0.0, 4.0, 1.0 / 16.0), 1, None),
    (box_grid([0, 0], [1, 1], 0.25), 2, None),
    (FIVE_SITES, 1, [0.6, 0.1, 0.1, 0.1, 0.1]),
]


@pytest.mark.parametrize("sites, dim, weights", BLOCK_CASES)
def test_block_size_changes_only_rounding(sites, dim, weights, monkeypatch):
    model = VariogramModel(alpha=1.0, dim=dim)
    fg = build_sampler(sites, model)
    mu = SamplingMeasure.uniform(len(sites)) if weights is None else SamplingMeasure(weights)

    def run(block):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        return list(replications(sites, model, 12, mu, seed=17, sampler=fg))

    base = run(64)
    assert max(fs.num_clusters for fs in base) > 7
    for block in (1, 7, 64):
        first, again = run(block), run(block)
        for ref, fs, fs2 in zip(base, first, again):
            assert fs.num_clusters == ref.num_clusters
            assert fs.v_trace == ref.v_trace
            tol = 1e-12 * np.maximum(1.0, np.abs(ref.values))
            assert np.all(np.abs(fs.values - ref.values) <= tol)
            assert fs.values.tobytes() == fs2.values.tobytes()


def test_prefix_product_changes_only_rounding():
    # 257 sites, the origin first: three row blocks against m = 256.
    sites = box_grid(0.0, 32.0, 0.125)
    fg = build_sampler(sites, M1)
    assert fg._widths == [127, 255, 256]
    dense = build_sampler(sites, M1)
    dense._widths = [dense.m] * 3  # every block over all m columns
    runs = [list(replications(sites, M1, 3, seed=23, sampler=f)) for f in (fg, dense)]
    for fs, ref in zip(*runs):
        assert fs.num_clusters == ref.num_clusters
        assert fs.v_trace == ref.v_trace
        assert np.all(np.abs(fs.values - ref.values)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref.values)))


def test_sample_values_own_their_memory():
    # A view into a block would keep the whole block alive with the sample.
    fg = build_sampler(FIVE_SITES, M1)
    samples = [simulate(FIVE_SITES, M1, seed=3, sampler=fg),
               simulate_naive(FIVE_SITES, M1, seed=3, truncation=70, sampler=fg)]
    samples += list(replications(FIVE_SITES, M1, 3, seed=3, sampler=fg))
    for fs in samples:
        assert fs.values.base is None


def test_sample_memory_peak_is_a_few_blocks():
    sites = box_grid(0.0, 4.0, 1.0 / 64.0)
    fg = build_sampler(sites, M1)
    mu = SamplingMeasure.uniform(fg.n)
    block_bytes = 8 * simulator._BLOCK * ((fg.m + 2) + fg.n)  # uniforms and W
    tracemalloc.start()
    try:
        fs = simulate(sites, M1, mu, seed=3, sampler=fg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Five or more blocks: keeping each block alive would pass the bound.
    assert fs.num_clusters > 4 * simulator._BLOCK
    assert peak < 3 * block_bytes
