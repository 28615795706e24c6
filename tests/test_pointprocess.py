import warnings

import numpy as np
import pytest

from brownresnick import (
    RandomStream,
    SamplingMeasure,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    poisson_points,
)

N_STREAMS = 100_000
BASE_SEED = 60_000


@pytest.fixture(scope="module")
def first_points():
    """First three points V_1 > V_2 > V_3 from independent streams.

    Also returns Gamma_3, the running exponential sum after three points,
    for the gamma-law check.
    """
    v1 = np.empty(N_STREAMS)
    g3 = np.empty(N_STREAMS)
    for r in range(N_STREAMS):
        g3[r], v = poisson_points(0.0, RandomStream(BASE_SEED + r).uniforms(3))
        v1[r] = v[0]
    return v1, g3


def test_unit_exponentials_give_v1_zero():
    u = -np.expm1(-1.0)  # rounds so that -log(1 - u) is exactly 1.0
    gamma_sum, v = poisson_points(0.0, [u, u])
    assert v.tolist() == [0.0, -np.log(2.0)]
    assert gamma_sum == 2.0
    # u == 0 gives the smallest positive increment, never a zero one.
    tiny = np.finfo(np.float64).tiny
    gamma_sum, v = poisson_points(0.0, [0.0])
    assert gamma_sum == tiny
    assert v.tolist() == [-np.log(tiny)]


def test_points_strictly_decreasing():
    _, v = poisson_points(0.0, RandomStream(4).uniforms(2000))
    assert np.all(np.diff(v) < 0.0)


def test_blocks_match_the_running_sum():
    # The plain loop, one point per uniform, is the reference: cutting the
    # uniforms into blocks of any size must give the same bytes.
    u = RandomStream(5).uniforms(300)
    u[[0, 77]] = 0.0
    tiny = np.finfo(np.float64).tiny
    gamma_sum, ref = 0.0, []
    for x in u.tolist():
        e = -np.log1p(-x)
        gamma_sum += e if e > 0.0 else tiny
        ref.append(-np.log(gamma_sum))
    for block in (1, 7, 64, 300):
        carry, points = 0.0, []
        for start in range(0, u.size, block):
            carry, v = poisson_points(carry, u[start:start + block])
            points.extend(v.tolist())
        assert points == ref
        assert carry == gamma_sum


def test_first_point_is_standard_gumbel(first_points):
    v1, _ = first_points
    d = ks_statistic(v1, gumbel_cdf)
    assert d <= 0.0165


def test_gamma3_matches_integrated_density(first_points):
    # Gamma_3 should follow the Gamma(3, 1) law.  The reference CDF is
    # obtained by numerically integrating the density x^2 e^{-x} / 2, not
    # from a closed form.
    _, g3 = first_points
    grid = np.linspace(0.0, max(40.0, g3.max() + 1.0), 80_001)
    pdf = grid ** 2 * np.exp(-grid) / 2.0
    steps = np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0
    cdf_grid = np.concatenate([[0.0], np.cumsum(steps)])

    d = ks_statistic(g3, lambda x: np.interp(x, grid, cdf_grid))
    assert d <= ks_critical(N_STREAMS)


def test_measure_normalizes_and_caches_logs():
    m = SamplingMeasure([2.0, 2.0])
    np.testing.assert_array_equal(m.weights, [0.5, 0.5])
    np.testing.assert_array_equal(m.log_weights, np.log(m.weights))
    u = SamplingMeasure.uniform(4)
    np.testing.assert_array_equal(u.weights, np.full(4, 0.25))
    assert u.n == 4


def test_measure_normalizes_weights_whose_sum_overflows():
    # Finite weights whose plain sum overflows are rescaled by the largest
    # one first: no RuntimeWarning, no rejection.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = SamplingMeasure([1e308, 1e308])
        np.testing.assert_array_equal(m.weights, [0.5, 0.5])
        m = SamplingMeasure([1e308, 5e307, 5e307])
        np.testing.assert_array_equal(m.weights, [0.5, 0.25, 0.25])
        assert np.all(np.isfinite(m.log_weights))


def test_measure_rejects_a_weight_that_normalizes_to_zero():
    # A positive weight whose ratio to the sum underflows would have log
    # weight -inf, so the stopping bound would never be met.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weight 1 normalizes to 0"):
            SamplingMeasure([1e10, 1e-320])
        with pytest.raises(ValueError, match="weight 2 normalizes to 0"):
            SamplingMeasure([1e308, 1e308, 1e-300])
        m = SamplingMeasure([1.0, 1e-300])  # tiny, but positive once normalized
        assert np.all(np.isfinite(m.log_weights))


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError, match="at least one weight"):
        SamplingMeasure([])
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        SamplingMeasure.uniform(0)
    with pytest.raises(ValueError):
        SamplingMeasure([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        SamplingMeasure([0.7, -0.3])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SamplingMeasure([1.0, bad])


def test_uniform_measure_takes_a_count():
    # No truncation of 2.7 to 2 sites, no OverflowError from int(inf).
    for bad in (2.7, np.inf, np.nan, -1, "3"):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {bad!r}"):
            SamplingMeasure.uniform(bad)
    assert SamplingMeasure.uniform(3.0).n == 3


def test_single_site_anchor_is_always_first():
    m = SamplingMeasure.uniform(1)
    assert np.all(m.anchors(RandomStream(12).uniforms(100)) == 0)


def test_uniform_anchor_frequencies():
    m = SamplingMeasure.uniform(4)
    n = 100_000
    counts = np.bincount(m.anchors(RandomStream(13).uniforms(n)), minlength=4)
    np.testing.assert_allclose(counts / n, 0.25, atol=0.01)


def test_weighted_anchor_frequencies():
    probs = np.array([0.5, 0.3, 0.2])
    m = SamplingMeasure(probs)
    n = 50_000
    counts = np.bincount(m.anchors(RandomStream(14).uniforms(n)), minlength=3)
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts / n - probs) <= 4.0 * sigma)


def test_anchors_cut_at_cumulative_weights():
    # A uniform equal to a cumulative weight goes to the next site, and the
    # last cumulative weight, which rounds below 1 here, clamps onto the
    # last site.
    m = SamplingMeasure.uniform(10)
    cum = np.cumsum(m.weights)
    assert cum[-1] == 0.9999999999999999
    u = [0.0, cum[3], np.nextafter(1.0, 0.0)]
    np.testing.assert_array_equal(m.anchors(u), [0, 4, 9])
