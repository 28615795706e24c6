import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brownresnick
from brownresnick import variogram
from brownresnick import (
    VariogramModel,
    as_points,
    cov_w,
    covariance_matrix,
    gamma,
)


def test_gamma_vanishes_at_origin():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        assert gamma(VariogramModel(alpha=alpha), 0.0) == 0.0


def test_gamma_known_values():
    assert gamma(VariogramModel(alpha=1.0), 0.5) == pytest.approx(0.25, abs=1e-15)
    m2 = VariogramModel(alpha=2.0, dim=2)
    assert gamma(m2, (3.0, 4.0)) == pytest.approx(12.5, abs=1e-12)


def test_gamma_symmetric_and_nonnegative():
    m = VariogramModel(alpha=1.3, scale=0.7)
    pts = np.linspace(-3, 3, 13)
    g_pos = gamma(m, pts)
    g_neg = gamma(m, -pts)
    assert np.all(g_pos >= 0.0)
    np.testing.assert_array_equal(g_pos, g_neg)


def test_gamma_self_similarity():
    # gamma(c t) = c^alpha gamma(t) for the fractional family.
    rng = np.random.default_rng(11)
    for alpha in (0.5, 1.0, 1.7, 2.0):
        m = VariogramModel(alpha=alpha, scale=1.9)
        t = rng.normal(size=7)
        for c in (0.25, 2.0, 10.0):
            np.testing.assert_allclose(
                gamma(m, c * t), c ** alpha * gamma(m, t), rtol=1e-12)


def test_gamma_scale_is_multiplicative():
    t = np.array([0.3, 1.1, 2.4])
    base = gamma(VariogramModel(alpha=1.5), t)
    scaled = gamma(VariogramModel(alpha=1.5, scale=3.0), t)
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-14)


def test_cov_w_alpha1_is_min_on_positive_axis():
    # For alpha=1, (|s| + |t| - |s - t|)/2 = min(s, t) when s, t >= 0.
    m = VariogramModel(alpha=1.0)
    s, t = np.meshgrid(np.linspace(0.1, 3.0, 12), np.linspace(0.1, 3.0, 12))
    got = cov_w(m, s.ravel(), t.ravel())
    np.testing.assert_allclose(got, np.minimum(s, t).ravel(), atol=1e-14)
    assert cov_w(m, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_cov_w_zero_site_and_diagonal():
    m = VariogramModel(alpha=1.4, scale=2.0)
    assert cov_w(m, 0.0, 1.7) == pytest.approx(0.0, abs=1e-15)
    t = 1.3
    assert cov_w(m, t, t) == pytest.approx(2.0 * gamma(m, t), rel=1e-14)
    assert cov_w(VariogramModel(alpha=2.0), 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_cov_w_symmetric_in_arguments():
    m = VariogramModel(alpha=0.8)
    rng = np.random.default_rng(3)
    s = rng.normal(size=9)
    t = rng.normal(size=9)
    np.testing.assert_allclose(cov_w(m, s, t), cov_w(m, t, s), rtol=1e-14)


def test_mean_and_variance_of_z():
    # Z has mean -gamma and the covariance kernel of W.
    m = VariogramModel(alpha=1.0)
    assert -gamma(m, 1.0) == pytest.approx(-0.5, abs=1e-15)
    assert cov_w(m, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert -gamma(m, 0.0) == 0.0
    assert cov_w(m, 0.0, 0.0) == 0.0


def test_cov_z_alpha1_min_identity():
    # Z shares the kernel of W, so cov_w gives Cov(Z(s), Z(t)) = min(s, t).
    m = VariogramModel(alpha=1.0)
    assert cov_w(m, 0.25, 0.75) == pytest.approx(0.25, abs=1e-15)


def test_covariance_matrix_positive_semidefinite():
    rng = np.random.default_rng(29)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for dim in (1, 2):
            m = VariogramModel(alpha=alpha, dim=dim)
            pts = rng.uniform(-2, 2, size=(10, dim))
            cov = covariance_matrix(m, pts)
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            eig = np.linalg.eigvalsh(cov)
            assert eig.min() >= -1e-10 * np.trace(cov)


def test_covariance_matrix_matches_pairwise_kernel():
    for pts in (np.array([[0.0, 0.0], [0.5, 0.25], [1.0, -1.0]]),
                np.array([[0.0, 0.0, 0.0], [0.5, 0.25, -2.0], [1.0, -1.0, 0.5]])):
        m = VariogramModel(alpha=1.2, scale=1.5, dim=pts.shape[1])
        cov = covariance_matrix(m, pts)
        for j in range(3):
            for k in range(3):
                assert cov[j, k] == pytest.approx(
                    cov_w(m, pts[j], pts[k]), rel=1e-13, abs=1e-15)


def _broadcast_pairwise(model, pts):
    """The pairwise gamma by strided broadcasts, every pass taken: the
    reference assembly."""
    out = pts[:, None, 0] - pts[None, :, 0]
    out *= out
    for axis in range(1, pts.shape[1]):
        diff = pts[:, None, axis] - pts[None, :, axis]
        diff *= diff
        out += diff
    np.sqrt(out, out=out)
    out **= model.alpha
    out *= model.scale
    out /= 2.0
    return out


def test_assembly_keeps_the_bytes_of_the_broadcast_formula():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 3):
        pts = rng.uniform(-2.0, 2.0, size=(23, dim))
        pts[5] = pts[2]                      # a duplicate
        pts[9] = 0.0                         # the origin
        pts[11, 0] = -0.0                    # a -0.0 coordinate
        pts[17, :] = pts[11, :]
        pts[17, 0] = 0.0                     # equal to row 11 up to the sign
        for alpha in (0.5, 1.0, 1.5, 2.0):
            # A subnormal scale rounds twice, so the halving must stay its
            # own pass after the scale's product.
            for scale in (1.0, 0.3, 2.5, 1e-310):
                model = VariogramModel(alpha=alpha, scale=scale, dim=dim)
                g = variogram._gamma_points(model, pts)
                pairwise = _broadcast_pairwise(model, pts)
                expected = g[:, None] + g[None, :]
                expected -= pairwise
                cov = variogram._covariance(model, pts, g)
                assert cov.tobytes() == expected.tobytes()
                assert cov.diagonal().tobytes() == (2.0 * g).tobytes()


def test_import_leaves_scipy_spatial_unloaded():
    src = Path(brownresnick.__file__).resolve().parents[1]
    # The package needs numpy alone at run time: no scipy module at all.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import brownresnick; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_model_validation():
    with pytest.raises(ValueError):
        VariogramModel(alpha=0.0)
    with pytest.raises(ValueError):
        VariogramModel(alpha=2.5)
    with pytest.raises(ValueError):
        VariogramModel(alpha=1.0, scale=0.0)
    with pytest.raises(ValueError):
        VariogramModel(alpha=1.0, scale=np.inf)
    with pytest.raises(ValueError):
        VariogramModel(alpha=1.0, dim=0)
    VariogramModel(alpha=2.0)  # the boundary itself is allowed
    for bad in (np.inf, -np.inf, np.nan, -1, 2.7):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            VariogramModel(alpha=1.0, dim=bad)
    # dim sizes arrays (extremal_index_estimate's sites), so 2.0 becomes 2.
    assert type(VariogramModel(alpha=1.0, dim=2.0).dim) is int


def test_dimension_mismatch_rejected():
    m = VariogramModel(alpha=1.0, dim=2)
    with pytest.raises(ValueError, match="dim"):
        gamma(m, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        as_points(m, np.zeros((4, 1)))


def test_as_points_coercions():
    m1 = VariogramModel(alpha=1.0)
    assert as_points(m1, 2.0).shape == (1, 1)
    assert as_points(m1, [1.0, 2.0, 3.0]).shape == (3, 1)
    m2 = VariogramModel(alpha=1.0, dim=2)
    assert as_points(m2, (1.0, 2.0)).shape == (1, 2)
    assert as_points(m2, np.zeros((5, 2))).shape == (5, 2)
