import multiprocessing
import sys
import tracemalloc

import numpy as np
import pytest

from brownresnick import (
    EstimateWithError,
    RandomStream,
    ResourceLimitError,
    VariogramModel,
    box_grid,
    build_sampler,
    change_of_measure_check,
    cluster_count_stats,
    extremal_index_estimate,
    fdd_cdf_oracle,
    gumbel_cdf,
    gumbel_quantile,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    pickands_coupled,
    pickands_estimate,
    qq_data,
)
from brownresnick import statseval, streams
from brownresnick.statseval import _CHUNK_DOUBLES

M1 = VariogramModel(alpha=1.0)


def _reference_draws(points, reps, seed, reduce_fn):
    """Per-draw statistics of ``mc_mean(M1, points, 0.0, reps, seed,
    reduce_fn)``, drawn apart from it by its documented layout, and the
    columns that open a complete pair.  Chunk c holds k_c of at most
    max(1, _CHUNK_DOUBLES // n) draws and reads ceil(k_c / 2) rows of normal
    part c; row i, y = F z - gamma, gives draw 2i, y, and draw 2i + 1, its
    mirror -y - 2 gamma, the last row of an odd chunk draw 2i alone."""
    fg = build_sampler(points, M1)
    chunk = max(1, statseval._CHUNK_DOUBLES // fg.n)
    stream = RandomStream(seed, 0)
    parts, pairs = [], []
    for c, start in enumerate(range(0, reps, chunk)):
        k = min(chunk, reps - start)
        stream.restart_normals(c)
        y = fg.from_normals(stream.normals(((k + 1) // 2, fg.m)).T)
        mirror = -y - 2.0 * fg.gamma[:, None]
        parts.append(reduce_fn(np.stack([y, mirror], axis=2).reshape(fg.n, -1)[:, :k]))
        pairs.append(start + np.arange(0, k - 1, 2))
    return np.hstack(parts), np.concatenate(pairs)


def _coupled_draws(grids, reps, seed):
    """Reference of ``pickands_coupled``'s draws: exp(max of Z over each
    grid), one row per grid, with Z drawn on the union's distinct sites; and
    the columns that open a complete pair."""
    union = np.unique(np.vstack(grids), axis=0)
    rows = [np.flatnonzero((union[:, None] == g[None]).all(axis=2).any(axis=1))
            for g in grids]
    return _reference_draws(
        union, reps, seed, lambda z: np.stack([np.exp(z[r].max(axis=0)) for r in rows]))


def _assert_estimates_of(estimates, samples, pairs):
    """The estimates are the mean of the sample rows and its standard error
    sqrt((s^2 + 2 (P / reps) c) / reps): s^2 the per-draw sample variance,
    c the mean cross product of the P pairs (j, j + 1), j in ``pairs``, of
    deviations from the mean."""
    reps = samples.shape[1]
    assert all(e.reps == reps for e in estimates)
    mean = samples.mean(axis=1)
    dev = samples - mean[:, None]
    c = (dev[:, pairs] * dev[:, pairs + 1]).mean(axis=1)
    var = samples.var(axis=1, ddof=1) + 2.0 * (pairs.size / reps) * c
    np.testing.assert_allclose([e.value for e in estimates], mean, rtol=1e-12)
    np.testing.assert_allclose([e.std_error for e in estimates],
                               np.sqrt(var / reps), rtol=1e-12)


def test_ks_statistic_exact_quantile_sample():
    n = 100
    x = gumbel_quantile((np.arange(1, n + 1) - 0.5) / n)
    d = ks_statistic(x, gumbel_cdf)
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_statistic_single_observation():
    median = gumbel_quantile(0.5)
    assert ks_statistic([median], gumbel_cdf) == pytest.approx(0.5, abs=1e-12)


def test_ks_statistic_empty_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], gumbel_cdf)
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_statistic_calibration_at_one_percent():
    # 50 independent batches of 10^4 true Gumbel draws: the 1%-level
    # threshold 0.0163 should reject at most a couple of them.
    rng = np.random.default_rng(2718)
    u = rng.uniform(size=(50, 10_000))
    fails = sum(
        ks_statistic(gumbel_quantile(row), gumbel_cdf) > 0.0163 for row in u)
    assert fails <= 2


def test_ks_two_sample_known_values():
    assert ks_two_sample([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_two_sample([0.0, 1.0], [2.0, 3.0]) == 1.0
    assert ks_two_sample([1.0, 2.0], [1.5]) == pytest.approx(0.5, abs=1e-15)


def test_ks_two_sample_detects_location_shift():
    rng = np.random.default_rng(9)
    a = gumbel_quantile(rng.uniform(size=2000))
    b = gumbel_quantile(rng.uniform(size=2000)) + 1.0
    assert ks_two_sample(a, b) > ks_critical(2000, m=2000)


def test_ks_critical_values():
    assert ks_critical(10_000) == pytest.approx(0.016276, rel=1e-3)
    c = np.sqrt(-0.5 * np.log(0.005))
    assert ks_critical(100, m=400) == pytest.approx(
        c * np.sqrt(500 / 40_000), rel=1e-12)


def test_qq_data_single_point_and_diagonal():
    pairs = qq_data([3.0], gumbel_quantile)
    assert pairs == [(gumbel_quantile(0.5), 3.0)]
    n = 64
    x = gumbel_quantile((np.arange(1, n + 1) - 0.5) / n)
    pairs = np.array(qq_data(x, gumbel_quantile))
    np.testing.assert_allclose(pairs[:, 0], pairs[:, 1], atol=1e-12)
    with pytest.raises(ValueError):
        qq_data([], gumbel_quantile)


def test_pickands_at_origin_is_exactly_one():
    # Z is pinned at the origin, so f({0}) carries no Monte Carlo error.
    est = pickands_estimate(M1, (0.0, 0.0), 1.0, reps=500, seed=3)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_pickands_single_offsite_point_is_one_in_mean():
    # E e^{Z(t)} = 1 for every single t (lognormal with mean -gamma,
    # variance 2 gamma).
    est = pickands_estimate(M1, (0.5, 0.5), 1.0, reps=20_000, seed=4)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error
    assert est.std_error > 0.0


def test_pickands_monotone_under_grid_refinement():
    fine = box_grid(0.0, 1.0, 0.125)
    coarse = fine[::2]
    est_f, est_c = pickands_coupled(M1, [fine, coarse], reps=2000, seed=5)
    # Shared draws make the inclusion deterministic, draw by draw.
    samples, pairs = _coupled_draws([fine, coarse], 2000, 5)
    _assert_estimates_of([est_f, est_c], samples, pairs)
    assert np.all(samples[0] >= samples[1])
    assert est_f.value >= est_c.value - 1e-12


def test_pickands_subadditive_on_shared_draws():
    mesh = 0.125
    a = box_grid(0.0, 1.0, mesh)
    b = box_grid(1.0, 2.0, mesh)
    u = box_grid(0.0, 2.0, mesh)
    est_a, est_b, est_u = pickands_coupled(M1, [a, b, u], reps=5000, seed=6)
    samples, pairs = _coupled_draws([a, b, u], 5000, 6)
    _assert_estimates_of([est_a, est_b, est_u], samples, pairs)
    np.testing.assert_array_equal(
        samples[2], np.maximum(samples[0], samples[1]))
    assert est_u.value <= est_a.value + est_b.value + 1e-12
    # Statistical two-interval form via translation invariance.
    slack = 3.0 * np.sqrt(est_u.std_error ** 2 + 4.0 * est_a.std_error ** 2)
    assert est_u.value <= 2.0 * est_a.value + slack


def test_pickands_translation_invariance():
    a = pickands_estimate(M1, (0.0, 1.0), 0.0625, reps=20_000, seed=7)
    b = pickands_estimate(M1, (3.0, 4.0), 0.0625, reps=20_000, seed=8)
    assert abs(a.value - b.value) <= 3.0 * np.hypot(a.std_error, b.std_error)


def test_pickands_region_forms():
    est_pair = pickands_estimate(M1, (0.0, 0.5), 0.25, reps=100, seed=1)
    assert est_pair.reps == 100
    m2 = VariogramModel(alpha=1.0, dim=2)
    est_box = pickands_estimate(
        m2, np.array([[0.0, 0.0], [0.5, 1.0]]), 0.25, reps=100, seed=1)
    assert est_box.value >= 1.0 - 1e-12 or est_box.std_error > 0.0
    # A (2, dim) array is a (low, high) pair of vectors; a bound may be a
    # scalar broadcast to the dimension.
    assert pickands_estimate(m2, ([0.0, 0.0], np.array([0.5, 1.0])), 0.25,
                             reps=100, seed=1) == est_box
    assert pickands_estimate(m2, (0.0, [0.5, 0.5]), 0.25, reps=100, seed=1) == \
        pickands_estimate(m2, np.array([[0.0, 0.0], [0.5, 0.5]]), 0.25, reps=100, seed=1)
    for bad in (np.zeros((3, 2)), 0.5, (0.0, [0.5, 0.5])):
        with pytest.raises(ValueError, match=r"region must be a \(low, high\) pair"):
            pickands_estimate(M1, bad, 0.25, reps=100, seed=1)


def test_pickands_grid_budget(monkeypatch):
    # Every rejection comes before the factorization and any draw.
    def no_sampler(*args, **kwargs):
        raise AssertionError("sampler built for rejected input")

    monkeypatch.setattr(statseval, "build_sampler", no_sampler)
    with pytest.raises(ResourceLimitError):
        pickands_estimate(M1, (0.0, 1.0), 1.0 / 8192, reps=10, seed=0)
    with pytest.raises(ValueError):
        pickands_coupled(M1, [], reps=10, seed=0)
    with pytest.raises(ValueError, match="grid 0 has no points"):
        pickands_coupled(M1, [np.zeros((0, 1)), box_grid(0.0, 1.0, 0.5)],
                         reps=10, seed=0)
    with pytest.raises(ValueError):
        pickands_estimate(M1, (0.0, 1.0), 0.5, reps=0, seed=0)
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        pickands_coupled(M1, [box_grid(0.0, 1.0, 0.5)], reps=-1, seed=0)
    # mc_mean's one count check, reached through two of its callers.
    for bad in (np.inf, -np.inf, np.nan, 0, -1, 2.7):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            pickands_coupled(M1, [box_grid(0.0, 1.0, 0.5)], reps=bad, seed=0)
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], reps=bad, seed=0)


def test_pickands_budget_checked_before_any_grid():
    # 10^6 + 1 points: the check must come from span and mesh alone, before
    # an 8 MB grid (or a far larger one at a finer mesh) is built.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="1000001 points"):
            pickands_estimate(M1, (0.0, 1.0), 1e-6, reps=10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pickands_repeated_points_share_draws():
    # A point listed twice within a grid, and a grid holding the same points
    # in another order, factorize the same distinct sites: the estimates are
    # those of the de-duplicated grids, byte for byte.
    grid = box_grid(0.0, 1.0, 0.25)
    repeated = np.vstack([grid, grid[[2]]])
    shuffled = grid[::-1]
    got = pickands_coupled(M1, [repeated, shuffled], reps=3000, seed=8)
    expected = pickands_coupled(M1, [grid, grid], reps=3000, seed=8)
    assert got == expected
    _assert_estimates_of(got, *_coupled_draws([grid, grid], 3000, 8))


def test_pickands_accumulator_across_chunk_boundary():
    # The 5-site union takes _CHUNK_DOUBLES // 5 draws per chunk, an odd
    # count whose last row gives one unpaired draw, so 3 more span two chunks
    # of the shared accumulator; the estimates must equal plain statistics of
    # the same draws taken apart from it.
    grids = [box_grid(0.0, 1.0, 0.25), np.array([[0.5]])]
    reps = _CHUNK_DOUBLES // 5 + 3
    samples, pairs = _coupled_draws(grids, reps, 21)
    assert samples.shape == (2, reps)
    _assert_estimates_of(pickands_coupled(M1, grids, reps=reps, seed=21), samples, pairs)


def test_shorter_run_draws_a_prefix_of_a_longer_run(monkeypatch):
    # Chunk c reads part c of the stream's normals whatever reps is, so a run
    # of 50 draws, whose last chunk holds one draw, takes the first 50 draws
    # of a run of 200 up to the rounding of the products.
    grids = [box_grid(0.0, 1.0, 0.25), box_grid(0.0, 2.0, 0.25), np.array([[0.5]])]
    monkeypatch.setattr(statseval, "_CHUNK_DOUBLES", 7 * 9)  # 9-site union
    short, short_pairs = _coupled_draws(grids, 50, 8)
    long, long_pairs = _coupled_draws(grids, 200, 8)
    _assert_estimates_of(pickands_coupled(M1, grids, reps=50, seed=8), short, short_pairs)
    _assert_estimates_of(pickands_coupled(M1, grids, reps=200, seed=8), long, long_pairs)
    base = long[:, :50]
    assert np.all(np.abs(short - base) <= 1e-12 * np.maximum(1.0, np.abs(base)))
    # Each chunk reads a part of its own: no draw repeats another's.
    assert np.unique(long[2]).size == long.shape[1]  # exp(Z(0.5)) per draw


def test_pair_draws_mirror_through_the_mean(monkeypatch):
    # Row i of a chunk gives draws 2i and 2i + 1, reflections of each other
    # through the mean -gamma + offset; chunks of 5 draws leave the last row
    # of each, and of the 3-draw last chunk, unpaired.
    monkeypatch.setattr(statseval, "_CHUNK_DOUBLES", 7 * 5)
    monkeypatch.setattr(streams, "_worker_count", lambda: 1)
    points = box_grid(0.0, 1.5, 0.25)
    offset = np.linspace(-1.0, 2.0, 7)
    gamma = build_sampler(points, M1).gamma
    seen = []

    def keep(x):
        seen.append(x.copy())
        return x

    estimates = statseval.mc_mean(M1, points, offset, 23, 9, keep)
    assert [x.shape[1] for x in seen] == [5, 5, 5, 5, 3]
    for x in seen:
        pair_sum = x[:, 0:x.shape[1] - 1:2] + x[:, 1::2]
        np.testing.assert_allclose(pair_sum, np.broadcast_to(
            (2.0 * offset - 2.0 * gamma)[:, None], pair_sum.shape), rtol=0, atol=1e-12)
    draws = np.hstack(seen)
    assert np.unique(draws[1]).size == draws.shape[1]
    np.testing.assert_allclose([e.value for e in estimates], draws.mean(axis=1), rtol=1e-12)


@pytest.mark.parametrize("oracle", [
    lambda seed: [fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], reps=4000, seed=seed)],
    lambda seed: pickands_coupled(M1, [box_grid(0.0, 0.5, 0.125), box_grid(0.0, 1.0, 0.125)],
                                  reps=4000, seed=seed),
], ids=["fdd_cdf_oracle", "pickands_coupled"])
def test_reported_standard_error_matches_the_spread_over_seeds(oracle):
    # The pairs are dependent, so the standard error must count them: over
    # 200 seeds the mean reported SE is within 20% of the estimates' standard
    # deviation, a band fixed beforehand (200 seeds measure the deviation to
    # about 1 / sqrt(2 * 199), or 5%).
    runs = np.array([[(e.value, e.std_error) for e in oracle(seed)] for seed in range(200)])
    ratio = runs[:, :, 1].mean(axis=0) / runs[:, :, 0].std(axis=0, ddof=1)
    assert np.all(np.abs(ratio - 1.0) <= 0.2), ratio


def _oracle_bytes(reps: int) -> bytes:
    """Every output of the four Monte Carlo oracles, as one byte string.

    The 7-site grids factorize to an odd m, and reps leaves a short last
    chunk at any chunk width that does not divide it.
    """
    grid = box_grid(0.0, 1.5, 0.25)
    out = [fdd_cdf_oracle(grid, M1, np.linspace(0.5, 2.0, 7), reps, seed=61)]
    out += pickands_coupled(M1, [grid[:3], grid], reps, seed=62)
    out.append(extremal_index_estimate(M1, 7, reps, seed=63))
    values = [v for e in out for v in (e.value, e.std_error)]
    values.append(change_of_measure_check(M1, grid, [0.5], reps, seed=64))
    return np.array(values).tobytes()


def _oracle_bytes_to(conn, reps):
    conn.send(_oracle_bytes(reps))
    conn.close()


@pytest.mark.parametrize("chunk_doubles", [_CHUNK_DOUBLES, 7 * 13])
def test_worker_count_never_changes_a_byte(monkeypatch, chunk_doubles):
    # Chunk c reads part c of its stream's normals whoever computes it, and
    # the chunk moments are combined in chunk order, so 1, 2 or 3 threads (3 being
    # more than some machines have cores) give the same bytes.
    monkeypatch.setattr(statseval, "_CHUNK_DOUBLES", chunk_doubles)
    reps = 3 * (chunk_doubles // 7) + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(streams, "_worker_count", lambda: workers)
            outputs.append(_oracle_bytes(reps))
    finally:
        sys.setswitchinterval(interval)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_forked_child_builds_its_own_pool(monkeypatch):
    # A child forked after the parent's pool has run has none of its
    # threads; it must build a pool of its own rather than wait on them.
    monkeypatch.setattr(streams, "_worker_count", lambda: 2)
    reps = 2 * (_CHUNK_DOUBLES // 7) + 5
    expected = _oracle_bytes(reps)
    parent_end, child_end = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_oracle_bytes_to, args=(child_end, reps))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "forked child did not answer in 60 s"
        got = parent_end.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()
    assert got == expected


@pytest.mark.parametrize("oracle", [
    lambda: fdd_cdf_oracle(box_grid(0.0, 4.0, 1.0 / 16.0), M1, np.full(65, 2.0),
                           reps=1 << 16, seed=3),
    lambda: pickands_coupled(M1, [np.array([[0.0]]), box_grid(0.0, 1.0, 1.0 / 16.0),
                                  box_grid(0.0, 4.0, 1.0 / 16.0)], reps=1 << 15, seed=4),
    lambda: extremal_index_estimate(M1, 64, reps=1 << 16, seed=5),
], ids=["fdd_cdf_oracle", "pickands_coupled", "extremal_index_estimate"])
def test_oracle_memory_is_bounded_by_the_chunk(oracle):
    # Chunked accumulation keeps the peak at a few chunk arrays of
    # 8 * _CHUNK_DOUBLES bytes each, whatever the draw count.
    tracemalloc.start()
    try:
        oracle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_extremal_index_single_site():
    est = extremal_index_estimate(M1, 1, reps=20_000, seed=11)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


def test_extremal_index_nonincreasing_in_n():
    prev = None
    for n, seed in ((8, 12), (16, 13), (32, 14)):
        est = extremal_index_estimate(M1, n, reps=20_000, seed=seed)
        assert est.value > 0.0
        if prev is not None:
            assert est.value <= prev.value + 3.0 * np.hypot(
                est.std_error, prev.std_error)
        prev = est


def test_extremal_index_bounded_by_one():
    est = extremal_index_estimate(M1, 64, reps=20_000, seed=15)
    assert 0.0 < est.value <= 1.0 + 3.0 * est.std_error


def test_extremal_index_validation():
    with pytest.raises(ValueError):
        extremal_index_estimate(M1, 0, reps=10, seed=0)
    with pytest.raises(ValueError):
        extremal_index_estimate(M1, 4, reps=0, seed=0)
    with pytest.raises(ResourceLimitError):
        extremal_index_estimate(M1, 100_000, reps=10, seed=0)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        extremal_index_estimate(M1, 2.7, reps=10, seed=0)
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        extremal_index_estimate(M1, 4, reps=2.5, seed=0)
    for bad in (np.inf, -np.inf, np.nan, 0, -1, 2.7):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            extremal_index_estimate(M1, bad, reps=10, seed=0)


@pytest.mark.parametrize("n", [2, 7, 65])
def test_extremal_index_is_pickands_over_n(n):
    # theta(n) = f({1..n}) / n on the same stream over the same sorted
    # sites, so the two agree exactly, not just in law.
    sites = np.arange(1.0, n + 1.0).reshape(-1, 1)
    theta = extremal_index_estimate(M1, n, reps=3000, seed=41)
    (f,) = pickands_coupled(M1, [sites], reps=3000, seed=41)
    assert theta.value == f.value / n
    assert theta.std_error == f.std_error / n


def test_cluster_count_stats_constant_input():
    stats = cluster_count_stats([2] * 50)
    assert stats["quartiles"] == [2.0, 2.0, 2.0]
    assert stats["mean"] == 2.0
    assert sum(stats["histogram"]["counts"]) == 50


def test_cluster_count_stats_interpolated_quartiles():
    stats = cluster_count_stats([1, 2, 3, 4])
    assert stats["quartiles"] == [1.75, 2.5, 3.25]
    assert stats["mean"] == 2.5
    # Unit-width bins centered on the integers.
    np.testing.assert_allclose(stats["histogram"]["edges"],
                               [0.5, 1.5, 2.5, 3.5, 4.5])
    assert stats["histogram"]["counts"] == [1, 1, 1, 1]


def test_cluster_count_stats_wide_range_uses_twenty_bins():
    stats = cluster_count_stats(np.arange(2, 200))
    assert len(stats["histogram"]["counts"]) == 20
    assert sum(stats["histogram"]["counts"]) == 198


def test_cluster_count_stats_empty_rejected():
    with pytest.raises(ValueError):
        cluster_count_stats([])


def test_estimate_dataclass_fields():
    est = EstimateWithError(1.0, 0.1, 100)
    assert (est.value, est.std_error, est.reps) == (1.0, 0.1, 100)
