import numpy as np
import pytest
from scipy.integrate import quad

from brownresnick import (
    VariogramModel,
    bivariate_neglog,
    box_grid,
    change_of_measure_check,
    fdd_cdf_oracle,
    gamma,
    gumbel_cdf,
    gumbel_quantile,
    replications,
    std_normal_cdf,
)

M1 = VariogramModel(alpha=1.0)


def test_gumbel_cdf_known_points():
    assert gumbel_cdf(0.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert gumbel_cdf(-np.log(np.log(2.0))) == pytest.approx(0.5, abs=1e-15)
    assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-15)
    assert gumbel_cdf(-50.0) == 0.0


def test_gumbel_quantile_inverts_cdf():
    p = np.linspace(0.01, 0.99, 25)
    np.testing.assert_allclose(gumbel_cdf(gumbel_quantile(p)), p, atol=1e-12)
    x = gumbel_quantile(0.3)
    assert isinstance(x, float)
    assert gumbel_cdf(x) == pytest.approx(0.3, abs=1e-12)


def test_std_normal_cdf_basics():
    assert std_normal_cdf(0.0) == 0.5
    x = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0,
                               atol=1e-12)
    assert abs(std_normal_cdf(1.959963985) - 0.975) <= 1e-9


def test_std_normal_cdf_against_quadrature():
    # Independent route: integrate the density numerically.
    density = lambda u: np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi)
    for x in (-1.2, 0.5, 1.959963985, 3.0):
        # The mass below -40 is under 1e-300, so a finite window is exact.
        ref, err = quad(density, -40.0, x, limit=200, epsabs=1e-13,
                        epsrel=1e-13)
        assert err < 1e-10
        assert std_normal_cdf(x) == pytest.approx(ref, abs=1e-9)


def test_bivariate_alpha1_equal_thresholds_closed_form():
    # For alpha=1, scale=1 and y1 = y2 = x the two-site formula reduces to
    # 2 Phi(sqrt(s)/2) e^{-x}.
    for s in (0.25, 1.0, 2.0):
        for x in (-1.0, 0.0, 2.0):
            expected = 2.0 * std_normal_cdf(np.sqrt(s) / 2.0) * np.exp(-x)
            assert bivariate_neglog(M1, s, x, x) == pytest.approx(
                expected, rel=1e-14)


def test_bivariate_complete_dependence_at_zero_separation():
    assert bivariate_neglog(M1, 0.0, 1.0, 2.0) == pytest.approx(
        np.exp(-1.0), rel=1e-15)
    assert bivariate_neglog(M1, 0.0, 3.0, -1.0) == pytest.approx(
        np.exp(1.0), rel=1e-15)


def test_bivariate_symmetries():
    m = VariogramModel(alpha=1.4, scale=0.6)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.uniform(0.1, 3.0)
        y1, y2 = rng.normal(size=2)
        assert bivariate_neglog(m, s, y1, y2) == pytest.approx(
            bivariate_neglog(m, s, y2, y1), rel=1e-13)
        assert bivariate_neglog(m, -s, y1, y2) == pytest.approx(
            bivariate_neglog(m, s, y1, y2), rel=1e-13)


def test_bivariate_between_dependence_bounds():
    # Complete dependence gives e^{-min}, independence e^{-y1} + e^{-y2}.
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = rng.uniform(0.05, 5.0)
        y1, y2 = rng.normal(size=2)
        val = bivariate_neglog(M1, s, y1, y2)
        assert val >= np.exp(-max(y1, y2)) - 1e-12
        assert val <= np.exp(-y1) + np.exp(-y2) + 1e-12
        assert np.exp(-min(y1, y2)) <= val + 1e-12


def test_bivariate_decreasing_in_thresholds():
    for y in np.linspace(-1, 2, 7):
        assert bivariate_neglog(M1, 1.0, y + 0.1, 0.0) < bivariate_neglog(
            M1, 1.0, y, 0.0)


def test_bivariate_independence_limit():
    val = bivariate_neglog(M1, 1e8, 0.5, 1.5)
    assert val == pytest.approx(np.exp(-0.5) + np.exp(-1.5), rel=1e-6)


def test_bivariate_rejects_point_batches():
    with pytest.raises(ValueError):
        bivariate_neglog(M1, [0.5, 1.0], 0.0, 0.0)


def test_fdd_oracle_single_site_is_exact():
    # At one site the integrand is constant, so the estimate carries no
    # Monte Carlo error.
    for y in (-0.5, 0.0, 1.5):
        est = fdd_cdf_oracle([0.7], M1, [y], reps=1000, seed=1)
        assert est.value == pytest.approx(gumbel_cdf(y), rel=1e-13)
        assert est.std_error <= 1e-13
        assert est.reps == 1000


def test_fdd_oracle_matches_two_site_closed_form():
    est = fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], reps=200_000, seed=303)
    target = np.exp(-bivariate_neglog(M1, 1.0, 1.0, 1.0))
    assert abs(est.value - target) <= 3.0 * est.std_error
    assert est.std_error < 0.01

    est = fdd_cdf_oracle([0.0, 0.75], M1, [0.0, 1.5], reps=200_000, seed=304)
    target = np.exp(-bivariate_neglog(M1, 0.75, 0.0, 1.5))
    assert abs(est.value - target) <= 3.0 * est.std_error


def test_fdd_oracle_matches_empirical_three_site_cdf():
    sites = [0.0, 0.5, 1.0]
    y = np.ones(3)
    est = fdd_cdf_oracle(sites, M1, y, reps=200_000, seed=305)
    reps = 20_000
    hits = sum(
        np.all(s.values <= y)
        for s in replications(sites, M1, reps, seed=70_000)
    )
    p_hat = hits / reps
    se_emp = np.sqrt(p_hat * (1.0 - p_hat) / reps)
    assert abs(est.value - p_hat) <= 3.0 * np.hypot(est.std_error, se_emp)


def test_fdd_oracle_anchor_invariance():
    # The oracle moves the first site to the origin, so listing the sites
    # rotated anchors the same probability at another site.
    a = fdd_cdf_oracle([0.0, 0.5, 1.0], M1, [0.5, 1.0, 0.0], reps=100_000, seed=31)
    b = fdd_cdf_oracle([1.0, 0.0, 0.5], M1, [0.0, 0.5, 1.0], reps=100_000, seed=32)
    assert abs(a.value - b.value) <= 3.0 * np.hypot(a.std_error, b.std_error)


def test_fdd_oracle_input_validation():
    with pytest.raises(ValueError):
        fdd_cdf_oracle([0.0, 1.0], M1, [0.0], reps=10, seed=0)
    with pytest.raises(ValueError):
        fdd_cdf_oracle([0.0], M1, [np.inf], reps=10, seed=0)
    with pytest.raises(ValueError):
        fdd_cdf_oracle([0.0], M1, [0.0], reps=0, seed=0)


def test_change_of_measure_single_point_grid_is_exact():
    assert change_of_measure_check(M1, [0.5], 0.5, reps=100, seed=0) == 0.0


def test_change_of_measure_identity_holds():
    z = change_of_measure_check(M1, [0.0, 0.5, 1.0], 0.5, reps=200_000, seed=21)
    assert abs(z) <= 3.0
    m2 = VariogramModel(alpha=2.0)
    z = change_of_measure_check(m2, [0.0, 1.0], 1.0, reps=200_000, seed=22)
    assert abs(z) <= 3.0


def test_change_of_measure_identity_holds_in_the_plane():
    m = VariogramModel(alpha=1.5, dim=2)
    grid = box_grid((0.0, 0.0), (1.0, 1.0), 0.5)
    z = change_of_measure_check(m, grid, (0.5, 0.5), reps=50_000, seed=23)
    assert abs(z) <= 3.0


def test_change_of_measure_input_validation():
    with pytest.raises(ValueError):
        change_of_measure_check(M1, [0.0, 1.0], 0.5, reps=10, seed=0)
    with pytest.raises(ValueError):
        change_of_measure_check(M1, [0.0, 1.0], [0.0, 1.0], reps=10, seed=0)
    with pytest.raises(ValueError):
        change_of_measure_check(M1, [0.0, 1.0], 0.0, reps=0, seed=0)


def test_gamma_reexport_consistency():
    # The closed form and the oracle share the variogram, not each other.
    assert gamma(M1, 1.0) == 0.5


def test_oracle_seed_rule_at_the_call():
    for bad in (2.7, np.inf, np.nan, "3"):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
            fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], 100, bad)
    a = fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], 100, 7)
    assert fdd_cdf_oracle([0.0, 1.0], M1, [1.0, 1.0], 100, 7.0) == a
