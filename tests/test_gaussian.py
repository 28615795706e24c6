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
    load_sites_csv,
)


class _IdentityNormals:
    """Stub stream whose normal draws form an identity matrix.

    ``correlated_normals(_IdentityNormals(), n)`` then returns the factor
    itself, mapped to the raw sites, so ``F @ F.T`` is the covariance the
    sampler reproduces.
    """

    def normals(self, shape):
        return np.eye(*shape)


def _sampled_covariance(fg):
    f = fg.correlated_normals(_IdentityNormals(), fg.n)
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


def test_origin_site_is_pinned_to_zero():
    fg = build_sampler([0.0, 1.0, 2.0], VariogramModel(alpha=1.3))
    stream = RandomStream(17)
    for _ in range(50):
        w = fg.sample_w(stream)
        assert w[0] == 0.0


def test_duplicate_sites_share_one_value():
    fg = build_sampler([0.3, 0.7, 0.3], VariogramModel(alpha=1.0))
    assert fg.sites.num_representatives == 2
    stream = RandomStream(9)
    for _ in range(50):
        w = fg.sample_w(stream)
        assert w[0] == w[2]


def test_identical_key_streams_replay_exactly():
    fg = build_sampler([0.2, 0.9], VariogramModel(alpha=0.7))
    a = fg.sample_w(RandomStream(123, 4))
    b = fg.sample_w(RandomStream(123, 4))
    np.testing.assert_array_equal(a, b)
    c = fg.sample_w(RandomStream(123, 5))
    assert not np.array_equal(a, c)


def test_sample_moments_match_kernel():
    model = VariogramModel(alpha=1.0)
    fg = build_sampler([0.5, 1.0], model)
    w = fg.correlated_normals(RandomStream(2024), 100_000)
    # Target covariance [[0.5, 0.5], [0.5, 1.0]]; tolerances are ~4 standard
    # errors of the empirical moments at this sample size.
    assert np.mean(w[0]) == pytest.approx(0.0, abs=0.02)
    assert np.mean(w[1]) == pytest.approx(0.0, abs=0.02)
    emp = np.cov(w)
    np.testing.assert_allclose(
        emp, [[0.5, 0.5], [0.5, 1.0]], atol=0.02)


def test_drifted_draw_subtracts_drift_exactly():
    model = VariogramModel(alpha=1.4, scale=0.8)
    fg = build_sampler([0.0, 0.4, 1.1], model)
    # Same stream key consumes the same normals, isolating the drift term.
    plain = fg.sample_w(RandomStream(77, 3))
    drifted = fg.sample_drifted(1, RandomStream(77, 3))
    np.testing.assert_array_equal(drifted, plain - fg.drift_table[:, 1])


def test_drifted_mean_is_minus_gamma():
    model = VariogramModel(alpha=1.0)
    fg = build_sampler([0.0, 1.0], model)
    x = fg.correlated_normals(RandomStream(31), 100_000)
    x -= fg.drift_table[:, [0]]
    assert np.mean(x[1]) == pytest.approx(-0.5, abs=0.02)


def test_anchor_index_validated():
    fg = build_sampler([0.0, 1.0], VariogramModel(alpha=1.0))
    with pytest.raises(IndexError):
        fg.sample_drifted(2, RandomStream(1))
    with pytest.raises(IndexError):
        fg.sample_drifted(-1, RandomStream(1))


def test_alpha2_requires_jitter_but_samples_correctly():
    # alpha=2 gives Cov(W(s), W(t)) = scale * s * t on the line: rank one,
    # so the jitter escalation must engage.
    model = VariogramModel(alpha=2.0)
    fg = build_sampler(np.linspace(0.0, 1.0, 6), model)
    assert fg.jitter_used > 0.0
    cov = covariance_matrix(model, np.linspace(0.0, 1.0, 6))
    assert fg.jitter_used <= 1e-6 * np.max(np.diag(cov)) * (1 + 1e-9)
    w = fg.correlated_normals(RandomStream(8), 20_000)
    assert np.var(w[-1]) == pytest.approx(1.0, abs=0.05)
    # Rank-one structure: W(t) = t * W(1) up to jitter noise.
    corr = np.corrcoef(w[2], w[-1])[0, 1]
    assert corr > 0.999


def test_factorization_error_names_model_and_diameter():
    with pytest.raises(FactorizationError, match="alpha=2"):
        build_sampler([1.0, 2.0, 3.0], VariogramModel(alpha=2.0),
                      max_jitter_factor=0.0)
    # Finite input whose covariance overflows fails at once, not in the
    # jitter ladder.
    with pytest.raises(FactorizationError, match="overflowed.*alpha=2.*diameter 1e\\+200"):
        build_sampler([0.0, 1e200], VariogramModel(alpha=2.0))
    with pytest.raises(FactorizationError, match="overflowed.*scale=1e\\+308.*diameter 10"):
        build_sampler([0.0, 10.0], VariogramModel(alpha=1.0, scale=1e308))


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
