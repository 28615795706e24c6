import numpy as np
import pytest

from brownresnick import (
    ClusterLimitError,
    FieldSample,
    RandomStream,
    SamplingMeasure,
    VariogramModel,
    VStream,
    build_sampler,
    generate_cluster,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    replications,
    simulate,
    simulate_naive,
    transform_marginals,
)

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


def test_single_site_cluster_collapses_to_v_exactly():
    fg = build_sampler([0.7], M1)
    mu = SamplingMeasure.uniform(1)
    for k, v in enumerate((1.7, 0.0, -3.25)):
        draw = generate_cluster(fg, mu, v, RandomStream(5, k + 1))
        assert draw.values[0] == v
        assert draw.anchor == 0


def test_identical_sites_cluster_collapses_to_v():
    fg = build_sampler([0.3] * 16, M1)
    mu = SamplingMeasure.uniform(16)
    draw = generate_cluster(fg, mu, -0.8, RandomStream(6, 1))
    assert np.all(draw.values == draw.values[0])
    np.testing.assert_allclose(draw.values, -0.8, atol=1e-12)


def test_dominance_bound_holds_exactly():
    # values[j] <= v - log w_j must hold as a strict floating-point
    # inequality, it is what the termination rule relies on.
    fg = build_sampler([0.0, 0.25, 0.6, 1.0], M1)
    mu = SamplingMeasure([0.4, 0.3, 0.2, 0.1])
    for k in range(200):
        draw = generate_cluster(fg, mu, 0.5 - 0.01 * k, RandomStream(7, k + 1))
        assert np.all(draw.values <= draw.v - mu.log_weights)


def test_cluster_normalizer_identity():
    fg = build_sampler(FIVE_SITES, M1)
    mu = SamplingMeasure.uniform(5)
    for k in range(50):
        draw = generate_cluster(fg, mu, 0.0, RandomStream(8, k + 1))
        total = np.sum(mu.weights * np.exp(draw.values - draw.v))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert np.max(draw.values + mu.log_weights) <= draw.v


def test_single_site_consumes_exactly_two_points():
    for seed in range(1000):
        s = simulate([0.7], M1, seed=seed)
        assert s.num_clusters == 2
        assert len(s.v_trace) == 2
        assert s.v_trace[1] < s.v_trace[0]
        assert s.values[0] == s.v_trace[0]


def test_single_site_marginal_is_standard_gumbel(single_site_values):
    d = ks_statistic(single_site_values, gumbel_cdf)
    assert d <= ks_critical(len(single_site_values), alpha=0.01)


def test_frechet_transform_is_standard_frechet(single_site_values):
    x = np.exp(single_site_values)
    d = ks_statistic(x, lambda t: np.exp(-1.0 / t))
    assert d <= ks_critical(len(x), alpha=0.01)


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


def test_truncated_variant_first_point_at_origin():
    for seed in (0, 1, 2):
        s = simulate_naive([0.0], M1, seed=seed, truncation=1)
        v1 = VStream(RandomStream(seed, 0)).next_v()
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


def test_v_trace_retention_cap():
    s = simulate([0.3] * 64, M1, seed=1, v_trace_cap=5)
    assert len(s.v_trace) == 5
    assert s.num_clusters > 5


def test_cluster_cap_aborts():
    with pytest.raises(ClusterLimitError, match="alpha"):
        simulate([0.0, 1.0], M1, seed=0, max_clusters=1)


def test_input_validation():
    with pytest.raises(ValueError):
        simulate([0.0, 1.0], M1, SamplingMeasure.uniform(3))
    with pytest.raises(ValueError, match="finite"):
        simulate([0.0, np.nan], M1)
    with pytest.raises(ValueError):
        list(replications([0.0], M1, reps=0))
    with pytest.raises(ValueError):
        simulate_naive([0.0], M1, truncation=0)


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

    monkeypatch.setattr(simulator, "RandomStream", Recording)
    samples = list(replications(FIVE_SITES, M1, 4, seed=8))
    assert keys == [(8, 0), (8, 1), (8, 2), (8, 3)]
    assert sum(fs.num_clusters for fs in samples) > 4
    keys.clear()
    simulate_naive(FIVE_SITES, M1, seed=8, truncation=7)
    assert keys == [(8, 0)]
