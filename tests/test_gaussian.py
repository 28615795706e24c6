import tracemalloc

import numpy as np
import pytest

from brownresnick import (
    FactorizationError,
    RandomStream,
    SiteSet,
    VariogramModel,
    box_grid,
    build_sampler,
    covariance_matrix,
    gamma,
    load_sites_csv,
    simulate,
)
from brownresnick import gaussian
from brownresnick.gaussian import read_csv


def _normals(stream, k, m):
    """k draws' normals as an (m, k) array, m normals per draw."""
    return stream.normals((k, m)).T


def _w(fg, stream):
    """One draw of W - gamma at the raw sites from the stream's next m normals."""
    return fg.from_normals(stream.normals(fg.m))


def _draws(fg, stream, k):
    """(n, k) draws of W - gamma, m normals per draw."""
    return fg.from_normals(_normals(stream, k, fg.m))


def _sampled_covariance(fg):
    # The identity's columns as normals give the factor itself, mapped to the
    # raw sites and less gamma, so F @ F.T is the covariance the sampler
    # reproduces.
    f = fg.from_normals(np.eye(fg.m)) + fg.gamma[:, None]
    return f @ f.T


def test_covariance_matrix_three_sites_alpha1():
    model = VariogramModel(alpha=1.0)
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 1.0],
    ])
    np.testing.assert_allclose(
        covariance_matrix(model, [0.0, 0.5, 1.0]), expected, atol=1e-14)
    fg = build_sampler([0.0, 0.5, 1.0], model)
    np.testing.assert_allclose(_sampled_covariance(fg), expected, atol=1e-14)


def test_factor_reproduces_covariance():
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for dim in (1, 2):
            model = VariogramModel(alpha=alpha, dim=dim)
            pts = rng.uniform(-2, 2, size=(8, dim))
            pts[-1] = pts[0]  # a duplicate site is mapped, not factorized
            fg = build_sampler(pts, model)
            cov = covariance_matrix(model, pts)
            resid = _sampled_covariance(fg) - cov
            tol = fg.jitter_used + 1e-8 * np.max(np.diag(cov))
            assert np.max(np.abs(resid)) <= tol
            # gamma(t_j) at the raw sites, half the covariance diagonal.
            np.testing.assert_array_equal(fg.gamma, gamma(model, pts))
            np.testing.assert_array_equal(fg.gamma, np.diag(cov) / 2.0)


def test_origin_site_is_pinned_to_zero():
    fg = build_sampler([0.0, 1.0, 2.0], VariogramModel(alpha=1.3))
    stream = RandomStream(17)
    for _ in range(50):
        w = _w(fg, stream)
        assert w[0] == 0.0

    # Every site at the origin: nothing is factorized (m = 0), and every
    # draw is exactly zero.
    model = VariogramModel(alpha=1.3)
    fg = build_sampler([0.0, 0.0], model)
    assert fg.factor.shape == (2, 0)
    np.testing.assert_array_equal(_draws(fg, RandomStream(3), 4), np.zeros((2, 4)))
    np.testing.assert_array_equal(_w(fg, RandomStream(3)), [0.0, 0.0])
    np.testing.assert_array_equal(fg.from_normals(np.zeros(0) + fg.factor[1]), [0.0, 0.0])
    assert simulate([0.0, 0.0], model, seed=3).num_clusters >= 2

    # The origin mid-grid: the factorized rows around it are not contiguous.
    grid = box_grid([-1, -1], [1, 1], 0.5)
    origin = int(np.flatnonzero(np.all(grid == 0.0, axis=1))[0])
    assert 0 < origin < len(grid) - 1
    model = VariogramModel(alpha=1.3, dim=2)
    fg = build_sampler(grid, model)
    assert fg.factor.shape == (25, 24)
    for _ in range(20):
        w = _w(fg, stream)
        assert w[origin] == 0.0
        assert np.all(np.delete(w, origin) != 0.0)
    resid = _sampled_covariance(fg) - covariance_matrix(model, grid)
    assert np.max(np.abs(resid)) <= 1e-12


def test_duplicate_sites_share_one_value():
    fg = build_sampler([0.3, 0.7, 0.3], VariogramModel(alpha=1.0))
    assert fg.sites.num_representatives == 2
    stream = RandomStream(9)
    for _ in range(50):
        w = _w(fg, stream)
        assert w[0] == w[2]


def test_identical_key_streams_replay_exactly():
    fg = build_sampler([0.2, 0.9], VariogramModel(alpha=0.7))
    a = _w(fg, RandomStream(123, 4))
    b = _w(fg, RandomStream(123, 4))
    np.testing.assert_array_equal(a, b)
    c = _w(fg, RandomStream(123, 5))
    assert not np.array_equal(a, c)


def test_rekeyed_stream_replays_a_new_stream():
    # Re-keying mid-buffer (an odd number of uniforms, or of normals, drawn)
    # must reset both counter spaces and their buffers, not only the key.
    for seed in (123, 2 ** 64 - 7):
        for r in (1, 2 ** 63 + 5, 2 ** 64 - 1):
            stream = RandomStream(seed, 0)
            stream.uniforms(3)
            stream.normals(3)
            stream.rekey(r)
            fresh = RandomStream(seed, r)
            assert (stream.seed, stream.stream_id) == (fresh.seed, fresh.stream_id)
            assert stream.uniforms(9).tobytes() == fresh.uniforms(9).tobytes()
            assert stream.uniforms((4, 5)).tobytes() == fresh.uniforms((4, 5)).tobytes()
            assert stream.normals((4, 5)).tobytes() == fresh.normals((4, 5)).tobytes()


def _reference_normals(seed, r, part, size):
    """Normals of key (seed, r) at part ``part``, seeded by hand: numpy's
    ``sfc64_set_seed`` (state (w0, w1, w2, 1), then 12 outputs discarded) on
    the first three words a Philox under the key draws from counter words
    (0, 0, part, 1)."""
    key = np.array([seed, r], dtype=np.uint64)
    counter = np.array([0, 0, part, 1], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=counter).random_raw(3)
    sfc64 = np.random.SFC64(0)
    sfc64.state = {"bit_generator": "SFC64",
                   "state": {"state": np.append(words, np.uint64(1))},
                   "has_uint32": 0, "uinteger": 0}
    sfc64.random_raw(12)
    return np.random.Generator(sfc64).standard_normal(size)


@pytest.mark.parametrize("seed, r", [(0, 0), (123, 1), (2 ** 64 - 7, 2 ** 63 + 5)])
def test_normals_are_sfc64_seeded_from_the_philox_key(seed, r):
    stream = RandomStream(seed, r)
    assert stream.normals((4, 25)).tobytes() == _reference_normals(seed, r, 0, (4, 25)).tobytes()
    for part in (1, 7, 2 ** 64 - 1, 0):
        stream.uniforms(3)
        stream.restart_normals(part)
        assert stream.normals(100).tobytes() == _reference_normals(seed, r, part, 100).tobytes()


@pytest.mark.parametrize("seed, r", [(17, 5), (0, 0), (2 ** 64 - 1, 2 ** 64 - 1)])
def test_neighbouring_keys_and_parts_share_no_normal(seed, r):
    # Keys (s, r), (s, r + 1) and (s + 1, r), each at parts 0-3: twelve
    # normal spaces, whose first 64 normals are 768 distinct values.
    firsts = []
    for key in ((seed, r), (seed, r + 1), (seed + 1, r)):
        stream = RandomStream(*key)
        for part in range(4):
            stream.restart_normals(part)
            firsts.append(stream.normals(64))
    values = np.concatenate(firsts)
    assert np.unique(values).size == values.size


def test_uniforms_and_normals_do_not_move_each_other():
    u = RandomStream(31, 2).uniforms(60)
    z = RandomStream(31, 2).normals(60)
    stream = RandomStream(31, 2)
    got_u, got_z = [], []
    for k in (1, 7, 2, 13, 37):
        got_u.append(stream.uniforms(k))
        got_z.append(stream.normals(k))
    assert np.concatenate(got_u).tobytes() == u.tobytes()
    assert np.concatenate(got_z).tobytes() == z.tobytes()
    # Restarting the normals moves no uniform either.
    stream.restart_normals(3)
    fresh = RandomStream(31, 2)
    fresh.uniforms(60)
    fresh.restart_normals(3)
    assert stream.uniforms(9).tobytes() == fresh.uniforms(9).tobytes()
    assert stream.normals(9).tobytes() == fresh.normals(9).tobytes()


def test_sample_moments_match_kernel():
    model = VariogramModel(alpha=1.0)
    fg = build_sampler([0.5, 1.0], model)
    w = _draws(fg, RandomStream(2024), 100_000)
    # Target mean -gamma = [-0.25, -0.5] and covariance [[0.5, 0.5], [0.5,
    # 1.0]]; tolerances are ~4 standard errors of the empirical moments at
    # this sample size.
    assert np.mean(w[0]) == pytest.approx(-0.25, abs=0.02)
    assert np.mean(w[1]) == pytest.approx(-0.5, abs=0.02)
    emp = np.cov(w)
    np.testing.assert_allclose(
        emp, [[0.5, 0.5], [0.5, 1.0]], atol=0.02)


def test_anchor_tilt_is_the_mean_shift_of_the_drawn_gaussian():
    # from_normals(z + factor[T]) - from_normals(z) is the Cameron-Martin
    # shift Cov(., T) of the jittered covariance the factor draws:
    # gamma(.) + gamma(T) - gamma(. - T), plus jitter_used at T's own sites.
    cases = [
        (VariogramModel(alpha=1.4, scale=0.8), [0.0, 0.4, 1.1]),
        (VariogramModel(alpha=2.0), [0.5, 0.0, 1.0, 0.5, -0.7, 1.3]),
        (VariogramModel(alpha=0.6, dim=2), box_grid([-1, -1], [1, 1], 0.5)),
    ]
    jitters = []
    for model, sites in cases:
        fg = build_sampler(sites, model)
        jitters.append(fg.jitter_used)
        pts = fg.sites.points
        z = _normals(RandomStream(77, 3), 1, fg.m)[:, 0]
        plain = fg.from_normals(z)
        for t in range(fg.n):
            shift = (np.atleast_1d(gamma(model, pts)) + gamma(model, pts[t])
                     - np.atleast_1d(gamma(model, pts - pts[t])))
            same = fg.sites.rep_index == fg.sites.rep_index[t]
            if np.any(pts[t] != 0.0):
                shift[same] += fg.jitter_used
            tol = 1e-12 * np.maximum(1.0, np.abs(shift))
            assert np.all(np.abs(fg.from_normals(z + fg.factor[t]) - plain - shift) <= tol)
    # Both regimes: a jitter-free factor and a jittered one (alpha 2).
    assert min(jitters) == 0.0 < max(jitters)


def test_block_of_anchors_tilts_each_column():
    model = VariogramModel(alpha=1.4, scale=0.8)
    fg = build_sampler([0.0, 0.4, 1.1], model)
    # A block of draws, one anchor per column, equals one draw per column
    # up to the rounding of one product against three.
    zs = _normals(RandomStream(77, 4), 3, fg.m)
    tilted = fg.from_normals(zs + fg.factor[[2, 0, 2]].T)
    for k, anchor in enumerate([2, 0, 2]):
        expected = fg.from_normals(zs[:, k] + fg.factor[anchor])
        np.testing.assert_allclose(tilted[:, k], expected, rtol=0.0, atol=1e-12)


_CENTRED = box_grid([-10, -10], [10, 10], 1.0)  # the origin is row 220
_PLANE17 = box_grid([0, 0], [16, 16], 1.0)
PREFIX_CASES = [
    pytest.param(box_grid([0, 0], [8, 8], 1.0), [80], id="plane9"),
    pytest.param(box_grid([0, 0], [32, 32], 1.0), [128 * b - 1 for b in range(1, 9)] + [1088],
                 id="plane33"),
    pytest.param(_PLANE17[np.random.default_rng(5).permutation(289)], [287, 285, 288],
                 id="shuffled17"),
    pytest.param(np.concatenate([_CENTRED[:300], _CENTRED[:40], _CENTRED[300:]]),
                 [128, 255, 343, 440], id="duplicates-origin"),
    pytest.param(np.zeros((300, 2)), [0, 0, 0], id="all-origin"),
    # Block 0 is 128 rows at the origin: a product over no columns.
    pytest.param(np.concatenate([np.zeros((128, 2)), _PLANE17]), [0, 127, 255, 288],
                 id="origin-block"),
]


@pytest.mark.parametrize("sites, widths", PREFIX_CASES)
def test_prefix_product_equals_the_dense_product(sites, widths):
    fg = build_sampler(sites, VariogramModel(alpha=1.0, dim=2))
    assert fg._widths == widths
    zs = _normals(RandomStream(9, 1), 5, fg.m)
    dense = fg.factor @ zs - fg.gamma[:, None]
    # Rows gathered across every block, a run of consecutive rows among them,
    # and consecutive rows whose groups straddle the row blocks.
    rows = np.unique(np.r_[0:fg.n:3, fg.n // 2:fg.n // 2 + 40, fg.n - 1])
    tail = np.arange(fg.n // 3, fg.n)
    x = fg.from_normals(zs)
    for y, ref in [(x, dense),
                   (fg.from_normals(zs[:, 2].copy()), dense[:, 2]),
                   (fg.from_normals(zs, rows), dense[rows]),
                   (fg.from_normals(zs, tail), dense[tail]),
                   (fg.from_normals(zs[:, 1].copy(), rows), dense[rows, 1])]:
        assert y.shape == ref.shape
        assert np.all(np.abs(y - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    if len(widths) == 1:  # one block: the dense product itself
        assert x.tobytes() == dense.tobytes()
        assert fg.from_normals(zs, rows).tobytes() == x[rows].tobytes()
    # A block with no nonzero column lies at the origin and draws exact zeros.
    for b, width in enumerate(widths):
        assert width or not np.any(x[128 * b:128 * (b + 1)])
    # One draw per column of a C-ordered result.
    assert x.flags.c_contiguous and fg.from_normals(zs, rows).flags.c_contiguous


def test_drifted_mean_is_minus_gamma():
    model = VariogramModel(alpha=1.0)
    fg = build_sampler([0.0, 1.0], model)
    k = 100_000
    x = fg.from_normals(_normals(RandomStream(31), k, fg.m))
    assert np.mean(x[1]) == pytest.approx(-0.5, abs=0.02)


def test_alpha2_requires_jitter_but_samples_correctly():
    # alpha=2 gives Cov(W(s), W(t)) = scale * s * t on the line: rank one,
    # so the jitter escalation must engage.
    model = VariogramModel(alpha=2.0)
    fg = build_sampler(np.linspace(0.0, 1.0, 6), model)
    assert fg.jitter_used > 0.0
    cov = covariance_matrix(model, np.linspace(0.0, 1.0, 6))
    assert fg.jitter_used <= 1e-6 * np.max(np.diag(cov)) * (1 + 1e-9)
    w = _draws(fg, RandomStream(8), 20_000)
    assert np.var(w[-1]) == pytest.approx(1.0, abs=0.05)
    # Rank-one structure: W(t) = t * W(1) up to jitter noise.
    corr = np.corrcoef(w[2], w[-1])[0, 1]
    assert corr > 0.999


def test_jitter_ladder_keeps_the_bytes_of_a_full_jittered_copy():
    # The ladder adds each jitter to the diagonal of one working copy; the
    # factor is that of cov + j * I formed in full, at the first rung (the
    # alpha-2 plane off the origin) and after three failed ones (a matrix
    # with two eigenvalues of -1e-9).
    model = VariogramModel(alpha=2.0, dim=2)
    points = box_grid([0.0, 0.0], [1.0, 1.0], 0.25)
    plane = covariance_matrix(model, points[1:])
    shifted = 2.0 - 1e-9 * np.eye(4) + 0.25 * np.outer(np.arange(4), np.arange(4))
    for cov, rung in ((plane, 1e-12), (shifted, 1e-9)):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        before = cov.copy()
        factor, j = gaussian._cholesky(cov, None)
        assert cov.tobytes() == before.tobytes()
        assert j == rung * cov.diagonal().mean()
        expected = np.linalg.cholesky(cov + j * np.eye(len(cov)))
        assert factor.tobytes() == expected.tobytes()
    fg = build_sampler(points, model)
    assert fg.jitter_used == 1e-12 * plane.diagonal().mean()
    assert fg.factor[1:].tobytes() == np.linalg.cholesky(
        plane + fg.jitter_used * np.eye(len(plane))).tobytes()


def test_factorization_error_names_model_and_diameter(monkeypatch):
    monkeypatch.setattr(gaussian, "_MAX_JITTER_FACTOR", 0.0)
    with pytest.raises(FactorizationError, match="alpha=2"):
        build_sampler([1.0, 2.0, 3.0], VariogramModel(alpha=2.0))
    # Finite input whose covariance overflows fails at once, not in the
    # jitter ladder.
    with pytest.raises(FactorizationError, match="overflowed.*alpha=2.*diameter 1e\\+200"):
        build_sampler([0.0, 1e200], VariogramModel(alpha=2.0))
    with pytest.raises(FactorizationError, match="overflowed.*scale=1e\\+308.*diameter 10"):
        build_sampler([0.0, 10.0], VariogramModel(alpha=1.0, scale=1e308))


def test_overflow_message_needs_no_pairwise_difference_array():
    # Naming the diameter takes the distances one row at a time, so the
    # failing build needs at most covariance_matrix's own work space plus
    # one (m, m) array, not an (m, m, d) array of coordinate differences
    # (in 4-d that array alone is four (m, m) arrays).
    points = box_grid([1.0] * 4, [5.0] * 4, 1.0)
    model = VariogramModel(alpha=1.0, scale=1e308, dim=4)
    m = len(points)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            covariance_matrix(model, points)
        _, cov_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(FactorizationError, match="overflowed.*diameter 8$"):
            build_sampler(points, model)
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak <= cov_peak + 8 * m * m


def test_sampler_keeps_the_factor_and_one_vector():
    # The factor and gamma at the sites: no (n, n) table over raw site pairs.
    fg = build_sampler(np.arange(1, 1025) / 64.0, VariogramModel(alpha=1.0))
    kept = sum(v.nbytes for v in vars(fg).values() if isinstance(v, np.ndarray))
    assert (fg.n, fg.m) == (1024, 1024)
    assert kept < 8 * fg.n * (fg.m + 2)


def test_site_set_dedup_and_coercion():
    s = SiteSet(0.5)
    assert s.points.shape == (1, 1)
    s = SiteSet([1.0, 1.0, 2.0])
    assert s.n == 3 and s.num_representatives == 2
    np.testing.assert_array_equal(s.rep_points.ravel(), [1.0, 2.0])
    np.testing.assert_array_equal(s.rep_index, [0, 0, 1])
    with pytest.raises(ValueError):
        SiteSet(np.zeros((0, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SiteSet([[0.0, 1.0], [bad, 2.0]])
    assert SiteSet.from_points(s) is s


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_site_set_dedup_is_np_unique(dim):
    # Shuffled sets with ties in the leading coordinates, exact duplicate
    # rows and -0.0 beside 0.0 in the last coordinate: the representatives
    # are np.unique(axis=0)'s by value and the map to them is its inverse.
    rng = np.random.default_rng(dim)
    for n in (1, 2, 5, 40, 300):
        pts = rng.integers(-2, 3, size=(n, dim)) * 0.5
        pts = pts[rng.integers(0, n, size=n + n // 2)]
        flip = (pts[:, -1] == 0.0) & (rng.random(len(pts)) < 0.5)
        pts[flip, -1] = -0.0
        rng.shuffle(pts)
        s = SiteSet(pts)
        reps, index = np.unique(pts, axis=0, return_inverse=True)
        np.testing.assert_array_equal(s.rep_points, reps)
        assert s.rep_index.dtype == index.dtype
        assert s.rep_index.tobytes() == index.reshape(-1).tobytes()
        if n >= 40:
            assert np.signbit(pts[:, -1]).any() and s.num_representatives < len(pts)


def _reference_build(points, model):
    """factor, gamma, prefix widths and jitter of a build that deduplicates
    with np.unique(axis=0), evaluates gamma through gamma() and
    covariance_matrix, and lists every jitter before the first attempt."""
    pts = SiteSet(points).points
    reps, index = np.unique(pts, axis=0, return_inverse=True)
    index = index.reshape(-1)
    is_origin = np.all(reps == 0.0, axis=1)
    g = np.atleast_1d(gamma(model, pts))
    cov = covariance_matrix(model, reps[~is_origin])
    sub, jitter = np.zeros((1, 0)), 0.0
    if len(cov):
        mean_diag = float(np.mean(np.diag(cov)))
        for j in [0.0] + [mean_diag * 10.0 ** k for k in range(-12, -5)]:
            try:
                sub = np.linalg.cholesky(cov + j * np.eye(len(cov)) if j else cov)
                jitter = j
                break
            except np.linalg.LinAlgError:
                continue
    row = np.cumsum(~is_origin)[index] - 1
    at_origin = is_origin[index]
    factor = sub[np.maximum(row, 0)]
    factor[at_origin] = 0.0
    widths = np.maximum.reduceat(np.where(at_origin, 0, row + 1),
                                 np.arange(0, len(pts), gaussian._ROWS)).tolist()
    return factor, g, widths, jitter


_PLANE3 = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
_CUBE = box_grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.5)
_CUBE = np.random.default_rng(3).permutation(np.vstack([_CUBE, _CUBE[[0, 4, 13, 26]]]))
_CUBE[(_CUBE[:, 1] == 0.0) & (np.arange(len(_CUBE)) % 2 == 1), 1] = -0.0
BUILD_SETS = {
    "sites-5": np.array([0.0, 0.2, 0.45, 0.7, 1.0]),
    "line-65": box_grid(0.0, 4.0, 1.0 / 16.0),
    "plane-9x9": box_grid([0.0, 0.0], [2.0, 2.0], 0.25),
    "sites-7-dup-origin": np.vstack([[0.0, 0.0], _PLANE3, [0.0, 0.0], _PLANE3[1:]]),
    "cube-3x3x3-shuffled": _CUBE,
}


@pytest.mark.parametrize("name", list(BUILD_SETS))
def test_build_keeps_the_bytes_of_the_reference_build(name):
    # The sampler's arrays equal the reference build's byte for byte; at
    # alpha 2 the jitter ladder runs.
    points = BUILD_SETS[name]
    dim = SiteSet(points).dim
    for alpha in (0.5, 1.0, 1.5, 2.0):
        model = VariogramModel(alpha=alpha, dim=dim)
        fg = build_sampler(points, model)
        factor, g, widths, jitter = _reference_build(points, model)
        assert fg.factor.tobytes() == factor.tobytes()
        assert fg.factor.shape == factor.shape
        assert fg.gamma.tobytes() == g.tobytes()
        assert fg._widths == widths
        assert np.float64(fg.jitter_used).tobytes() == np.float64(jitter).tobytes()
        if alpha == 2.0 and fg.m > dim:
            assert jitter > 0.0


def test_site_set_shifted():
    s = SiteSet([[0.0, 1.0], [2.0, 3.0]]).shifted((10.0, -1.0))
    np.testing.assert_array_equal(s.points, [[10.0, 0.0], [12.0, 2.0]])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build_sampler(np.zeros((4, 2)), VariogramModel(alpha=1.0, dim=1))


def test_box_grid_one_dimensional():
    g = box_grid(0.0, 1.0, 0.25)
    np.testing.assert_allclose(g.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.shape == (5, 1)


def test_box_grid_degenerate_axis():
    g = box_grid(0.5, 0.5, 1.0)
    np.testing.assert_array_equal(g, [[0.5]])


def test_box_grid_two_dimensional_row_major():
    g = box_grid((0.0, 0.0), (1.0, 1.0), 0.5)
    assert g.shape == (9, 2)
    # First axis varies slowest.
    np.testing.assert_allclose(g[:3], [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]])
    np.testing.assert_allclose(g[-1], [1.0, 1.0])


def test_box_grid_broadcasts_mesh():
    g = box_grid((0.0, 0.0), (1.0, 2.0), 0.5)
    assert g.shape == (15, 2)


def test_box_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        box_grid(0.0, 1.0, 0.3)  # does not divide the span
    with pytest.raises(ValueError):
        box_grid(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        box_grid(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        box_grid((0.0, 0.0), (1.0,), 0.5)
    # An infinite mesh gives k = 0 intervals, and 0 * inf = NaN passes the
    # divisibility test, so it must be rejected as such.
    for low, high, mesh in ((0.0, np.inf, 1.0), (0.0, np.nan, 1.0), (0.0, 1.0, np.nan),
                            (-1e308, 1e308, 1.0), (0.0, 1e300, 1e-300),
                            (0.0, 1.0, np.inf), (0.5, 0.5, np.inf),
                            ((0.0, 0.0), (1.0, 2.0), (0.5, np.inf))):
        with pytest.raises(ValueError, match="finite grid"):
            box_grid(low, high, mesh)


def test_load_sites_csv(tmp_path):
    plain = tmp_path / "sites.csv"
    plain.write_text("0.0,1.0\n0.5,2.0\n")
    s = load_sites_csv(plain)
    np.testing.assert_array_equal(s.points, [[0.0, 1.0], [0.5, 2.0]])

    with_header = tmp_path / "sites_h.csv"
    with_header.write_text("x,y\n0.0,1.0\n0.5,2.0\n")
    s = load_sites_csv(with_header, header=True)
    assert s.n == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_sites_csv(empty)


def test_read_csv_format(tmp_path):
    path = tmp_path / "f.csv"
    # Comments run from # to the end of the line; lines blank once the
    # comment is cut are skipped, whitespace-only lines included.
    path.write_text("# x, y\n0.0, 1.0\n\n   \n0.5,2.0  # second\r\n")
    np.testing.assert_array_equal(read_csv(path), [[0.0, 1.0], [0.5, 2.0]])
    # The header is the first line, whatever it holds.
    path.write_text("x,y\n0.0,1.0\n")
    np.testing.assert_array_equal(read_csv(path, header=True), [[0.0, 1.0]])
    for text, message in (("0,1\n# c\n2\n", "line 3 has 1 values where the first row"),
                          ("x,y\n0,1\n", "line 1: 'x,y' is not"),
                          ("0,1,\n", "line 1: '0,1,' is not"),
                          ('"0","1"\n', "line 1")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(path)
    # A file with no rows is left to the site set or measure to reject.
    path.write_text("# only a comment\n\n")
    with pytest.raises(ValueError, match="nonempty"):
        load_sites_csv(path)
