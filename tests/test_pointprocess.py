import numpy as np
import pytest

from brownresnick import (
    RandomStream,
    SamplingMeasure,
    VStream,
    gumbel_cdf,
    ks_critical,
    ks_statistic,
    sample_anchor,
)

N_STREAMS = 100_000
BASE_SEED = 60_000


class _UnitExponential:
    """Stub stream whose exponential draws are always exactly 1."""

    def exponential(self):
        return 1.0


@pytest.fixture(scope="module")
def poisson_points():
    """First three points V_1 > V_2 > V_3 from independent streams.

    Also returns Gamma_3, the running exponential sum after three points,
    for the gamma-law check.
    """
    v1 = np.empty(N_STREAMS)
    g3 = np.empty(N_STREAMS)
    for r in range(N_STREAMS):
        vs = VStream(RandomStream(BASE_SEED + r))
        v1[r] = vs.next_v()
        vs.next_v()
        vs.next_v()
        g3[r] = vs.gamma_sum
    return v1, g3


def test_unit_exponentials_give_v1_zero():
    vs = VStream(_UnitExponential())
    assert vs.next_v() == 0.0
    assert vs.next_v() == -np.log(2.0)
    assert vs.gamma_sum == 2.0


def test_points_strictly_decreasing():
    vs = VStream(RandomStream(4))
    prev = np.inf
    for _ in range(2000):
        v = vs.next_v()
        assert v < prev
        prev = v


def test_first_point_is_standard_gumbel(poisson_points):
    v1, _ = poisson_points
    d = ks_statistic(v1, gumbel_cdf)
    assert d <= 0.0165


def test_gamma3_matches_integrated_density(poisson_points):
    # Gamma_3 should follow the Gamma(3, 1) law.  The reference CDF is
    # obtained by numerically integrating the density x^2 e^{-x} / 2, not
    # from a closed form.
    _, g3 = poisson_points
    grid = np.linspace(0.0, max(40.0, g3.max() + 1.0), 80_001)
    pdf = grid ** 2 * np.exp(-grid) / 2.0
    steps = np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0
    cdf_grid = np.concatenate([[0.0], np.cumsum(steps)])

    d = ks_statistic(g3, lambda x: np.interp(x, grid, cdf_grid))
    assert d <= ks_critical(N_STREAMS, alpha=0.01)


def test_measure_normalizes_and_caches_logs():
    m = SamplingMeasure([2.0, 2.0])
    np.testing.assert_array_equal(m.weights, [0.5, 0.5])
    np.testing.assert_array_equal(m.log_weights, np.log(m.weights))
    u = SamplingMeasure.uniform(4)
    np.testing.assert_array_equal(u.weights, np.full(4, 0.25))
    assert u.n == 4


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        SamplingMeasure([])
    with pytest.raises(ValueError):
        SamplingMeasure([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        SamplingMeasure([0.7, -0.3])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SamplingMeasure([1.0, bad])


def test_single_site_anchor_is_always_first():
    m = SamplingMeasure.uniform(1)
    stream = RandomStream(12)
    for _ in range(100):
        assert sample_anchor(m, stream) == 0


def test_uniform_anchor_frequencies():
    m = SamplingMeasure.uniform(4)
    stream = RandomStream(13)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample_anchor(m, stream)] += 1
    np.testing.assert_allclose(counts / n, 0.25, atol=0.01)


def test_weighted_anchor_frequencies():
    probs = np.array([0.5, 0.3, 0.2])
    m = SamplingMeasure(probs)
    stream = RandomStream(14)
    n = 50_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_anchor(m, stream)] += 1
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts / n - probs) <= 4.0 * sigma)
