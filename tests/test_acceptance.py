"""Acceptance suite: the ten headline criteria, one test and verdict each.

Every test computes its statistic at a fixed seed, records a single
``[criterion k] name: PASS/FAIL`` line (echoed in the terminal summary and
printed, so ``pytest -s`` shows it inline), and then asserts.  Tolerances
are the contract values; replication counts are never lowered below the
contract sizes and thresholds are never widened.

Seeds: each arm has one plain integer seed, 1, 2, 3, ... in file order,
and no two arms share a (seed, stream) key.  ``replications(seed=s)``
draws sample r from stream (s, r) and the Monte Carlo oracles use (s, 0)
and (s, 1), so distinct seeds suffice.  Criterion 10's truncated arm runs
``simulate_naive(seed=s0 + r)`` on keys (s0 + r, 0) for r < REPS, so the
exact arm after it takes seed s0 + REPS, the first seed past that range,
and the 2-d arm after criterion 10 the next one, s0 + REPS + 1 = 10020.
"""

import time

import numpy as np
import pytest

from brownresnick import (
    SamplingMeasure,
    VariogramModel,
    bivariate_neglog,
    change_of_measure_check,
    extremal_index_estimate,
    fdd_cdf_oracle,
    gumbel_cdf,
    gumbel_quantile,
    ks_critical,
    ks_statistic,
    pickands_coupled,
    pickands_estimate,
    qq_data,
    replications,
    simulate_naive,
)
from brownresnick.cli import emit_svg_qq
from brownresnick.distributions import gumbel_checks, mu_invariance_check, stationarity_check
from brownresnick.gaussian import box_grid, build_sampler

ALPHA_ONE = VariogramModel(alpha=1.0)
ALPHA_TWO = VariogramModel(alpha=2.0)
SITES5 = [0.0, 0.2, 0.45, 0.7, 1.0]
SPAN_SITES = [0.0, 2.5, 5.0, 7.5, 10.0]
KS_BOUND = 0.0163          # 1%-level one-sample bound at 10^4 draws
REPS = 10_000
# 135 sites, two row blocks of the factor (128 + 7); its sample size keeps
# the arm near 12 s on 2 CPUs.
PLANE = box_grid([0.0, 0.0], [1.0, 1.75], 0.125)
PLANE_REPS = 2_500


def _report(acceptance_report, num, name, passed, detail):
    line = f"[criterion {num:>2}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    acceptance_report.append(line)
    print(line)


def test_criterion_01_single_site_marginal(acceptance_report):
    t0 = time.perf_counter()
    (check,), _ = gumbel_checks(ALPHA_ONE, [0.7], {"marginal": [0]}, REPS, seed=1)
    d = check["statistic"]
    elapsed = time.perf_counter() - t0
    ok = d <= KS_BOUND and elapsed < 30.0
    _report(acceptance_report, 1, "single-site marginal is standard Gumbel",
            ok, f"KS={d:.5f} <= {KS_BOUND}, {elapsed:.1f}s")
    assert d <= KS_BOUND
    assert elapsed < 30.0


def test_criterion_02_bivariate_dependence(acceptance_report, tmp_path):
    t0 = time.perf_counter()
    pair = [0.0, 1.0 - 1.0 / 1024.0]
    (check,), (located,) = gumbel_checks(ALPHA_ONE, pair, {"bivariate": [0, 1]}, REPS, seed=2)
    d = check["statistic"]
    svg = tmp_path / "qq_dependence.svg"
    emit_svg_qq(qq_data(located, gumbel_quantile), str(svg))
    elapsed = time.perf_counter() - t0
    ok = d <= KS_BOUND and svg.exists() and elapsed < 60.0
    _report(acceptance_report, 2, "two-site max matches the closed form",
            ok, f"KS={d:.5f} <= {KS_BOUND}, QQ SVG written, {elapsed:.1f}s")
    assert d <= KS_BOUND
    assert svg.stat().st_size > 0
    assert elapsed < 60.0


def test_criterion_03_oracle_agrees_with_closed_form(acceptance_report):
    t0 = time.perf_counter()
    est = fdd_cdf_oracle([0.0, 1.0], ALPHA_ONE, [0.0, 1.0],
                         reps=1_000_000, seed=3)
    target = float(np.exp(-bivariate_neglog(ALPHA_ONE, 1.0, 0.0, 1.0)))
    gap = abs(est.value - target)
    elapsed = time.perf_counter() - t0
    ok = gap <= 3.0 * est.std_error
    _report(acceptance_report, 3, "CDF oracle matches two-site closed form",
            ok, f"|{est.value:.5f} - {target:.5f}| = {gap:.2e} "
                f"<= 3*SE={3 * est.std_error:.2e}, {elapsed:.1f}s")
    assert gap <= 3.0 * est.std_error


def test_criterion_04_cluster_count_law(acceptance_report):
    # n identical sites: count = 2 + Poisson((n-1) Gamma_1), mean n + 1.
    # The oracle samples that stopping rule with an unrelated generator.
    t0 = time.perf_counter()
    n = 16
    counts = np.array([
        fs.num_clusters
        for fs in replications([0.3] * n, ALPHA_ONE, REPS, seed=4)
    ])
    rng = np.random.default_rng(163)
    oracle = 2 + rng.poisson((n - 1) * rng.exponential(size=REPS))
    gap = counts.mean() - oracle.mean()
    sigma = np.sqrt(counts.var(ddof=1) / REPS + oracle.var(ddof=1) / REPS)
    degenerate_ok = all(
        fs.num_clusters == 2
        for fs in replications([0.7], ALPHA_ONE, 1000, seed=5)
    )
    elapsed = time.perf_counter() - t0
    ok = abs(gap) <= 4.0 * sigma and degenerate_ok
    _report(acceptance_report, 4, "cluster counts follow the stopping law",
            ok, f"mean {counts.mean():.2f} vs oracle {oracle.mean():.2f}, "
                f"|gap|={abs(gap):.3f} <= 4*sigma={4 * sigma:.3f}; "
                f"single-site count == 2 always: {degenerate_ok}; {elapsed:.1f}s")
    assert abs(gap) <= 4.0 * sigma
    assert degenerate_ok


def test_criterion_05_measure_invariance(acceptance_report):
    t0 = time.perf_counter()
    skew = SamplingMeasure([0.6, 0.1, 0.1, 0.1, 0.1])
    d = mu_invariance_check(ALPHA_ONE, SITES5, skew, REPS, seeds=(6, 7))["statistic"]
    thr = ks_critical(REPS, m=REPS)
    elapsed = time.perf_counter() - t0
    ok = d <= thr
    _report(acceptance_report, 5, "law is invariant to the anchor measure",
            ok, f"two-sample KS={d:.5f} <= {thr:.5f}, {elapsed:.1f}s")
    assert d <= thr


def test_criterion_06_stationarity(acceptance_report):
    t0 = time.perf_counter()
    thr = ks_critical(REPS, m=REPS)
    worst = stationarity_check((ALPHA_ONE, ALPHA_TWO), SITES5, 10.0, REPS,
                               seeds=(8, 9, 10, 11))["statistic"]
    elapsed = time.perf_counter() - t0
    ok = worst <= thr
    _report(acceptance_report, 6, "field is stationary under translation",
            ok, f"worst two-sample KS={worst:.5f} <= {thr:.5f} "
                f"(alpha 1 and 2), {elapsed:.1f}s")
    assert worst <= thr


def test_criterion_07_change_of_measure(acceptance_report):
    t0 = time.perf_counter()
    grid = [0.0, 0.5, 1.0]
    z1 = change_of_measure_check(ALPHA_ONE, grid, 0.5, reps=1_000_000, seed=12)
    z2 = change_of_measure_check(ALPHA_TWO, grid, 0.5, reps=1_000_000, seed=13)
    elapsed = time.perf_counter() - t0
    ok = abs(z1) <= 3.0 and abs(z2) <= 3.0
    _report(acceptance_report, 7, "exponential tilt identity holds",
            ok, f"|z|={abs(z1):.2f}, {abs(z2):.2f} <= 3 at 10^6 reps "
                f"(alpha 1, 2), {elapsed:.1f}s")
    assert abs(z1) <= 3.0
    assert abs(z2) <= 3.0


def test_criterion_08_pickands_and_extremal_index(acceptance_report):
    t0 = time.perf_counter()
    mesh = 1.0 / 32.0
    reps = 100_000
    grids = [box_grid(0.0, 1.0, mesh), box_grid(1.0, 2.0, mesh),
             box_grid(0.0, 2.0, mesh)]
    est_a, est_b, est_u = pickands_coupled(ALPHA_ONE, grids, reps, seed=14)
    coupled_ok = est_u.value <= est_a.value + est_b.value + 1e-12
    slack = 3.0 * np.sqrt(est_u.std_error ** 2 + 4.0 * est_a.std_error ** 2)
    twoterm_ok = est_u.value <= 2.0 * est_a.value + slack

    est_t = pickands_estimate(ALPHA_ONE, (3.0, 4.0), mesh, reps, seed=15)
    shift_gap = abs(est_a.value - est_t.value)
    shift_tol = 3.0 * np.hypot(est_a.std_error, est_t.std_error)
    translation_ok = shift_gap <= shift_tol

    theta = extremal_index_estimate(ALPHA_ONE, 64, reps, seed=16)
    theta_ok = 0.0 < theta.value <= 1.0 + 3.0 * theta.std_error
    elapsed = time.perf_counter() - t0
    ok = coupled_ok and twoterm_ok and translation_ok and theta_ok
    _report(acceptance_report, 8, "Pickands functional behaves canonically",
            ok, f"f[0,2]={est_u.value:.3f} <= f[0,1]+f[1,2]="
                f"{est_a.value + est_b.value:.3f} (coupled), "
                f"translation gap {shift_gap:.4f} <= {shift_tol:.4f}, "
                f"theta(64)={theta.value:.3f} <= 1+3SE, {elapsed:.1f}s")
    assert coupled_ok
    assert twoterm_ok
    assert translation_ok
    assert theta_ok


def test_criterion_09_seed_determinism(acceptance_report):
    # Same seed: the run replays bit for bit.  Adjacent seeds: no sample of
    # one run shares its first Poisson point with any sample of the other.
    t0 = time.perf_counter()
    first = list(replications(SITES5, ALPHA_ONE, 100, seed=17))
    again = list(replications(SITES5, ALPHA_ONE, 100, seed=17))
    mismatches = sum(
        not np.array_equal(a.values, b.values)
        or a.num_clusters != b.num_clusters
        or a.v_trace != b.v_trace
        for a, b in zip(first, again)
    )
    neighbour = replications(SITES5, ALPHA_ONE, 100, seed=18)
    shared = len({fs.v_trace[0] for fs in first}
                 & {fs.v_trace[0] for fs in neighbour})
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and shared == 0
    _report(acceptance_report, 9, "same seed replays, adjacent seeds share no draw",
            ok, f"{mismatches}/100 replay mismatches, {shared}/100 first "
                f"points shared by seeds 17 and 18, {elapsed:.1f}s")
    assert mismatches == 0
    assert shared == 0


def test_criterion_10_truncation_bias_is_detected(acceptance_report):
    # The deliberately truncated simulator must fail the far-site marginal
    # test that the exact simulator passes on the same sites.
    t0 = time.perf_counter()
    model = ALPHA_ONE
    fg = build_sampler(SPAN_SITES, model)
    naive_seed = 19
    naive = np.array([
        simulate_naive(SPAN_SITES, model, seed=naive_seed + r, truncation=5,
                       sampler=fg).values[-1]
        for r in range(REPS)
    ])
    exact = np.array([
        fs.values[-1]
        for fs in replications(SPAN_SITES, model, REPS,
                               seed=naive_seed + REPS, sampler=fg)
    ])
    d_naive = ks_statistic(naive, gumbel_cdf)
    d_exact = ks_statistic(exact, gumbel_cdf)
    elapsed = time.perf_counter() - t0
    ok = d_naive > KS_BOUND and d_exact <= KS_BOUND
    _report(acceptance_report, 10, "truncated variant rejected, exact passes",
            ok, f"naive KS={d_naive:.4f} > {KS_BOUND}, "
                f"exact KS={d_exact:.4f} <= {KS_BOUND}, {elapsed:.1f}s")
    assert d_naive > KS_BOUND
    assert d_exact <= KS_BOUND


def test_criteria_01_02_on_a_multi_block_plane(acceptance_report):
    # Site 134, (1, 1.75), lies in the second row block.  Its pairs with
    # sites 59 and 85 are at the axis lag (5/8, 0) and the diagonal lag
    # (3/8, 1/2), of equal norm, so the two pair laws also test isotropy.
    t0 = time.perf_counter()
    assert np.array_equal(PLANE[134] - PLANE[59], [0.625, 0.0])
    assert np.array_equal(PLANE[134] - PLANE[85], [0.375, 0.5])
    groups = {"marginal": [134], "axis pair": [134, 59], "diagonal pair": [134, 85]}
    checks, _ = gumbel_checks(VariogramModel(alpha=1.0, dim=2), PLANE, groups,
                              PLANE_REPS, seed=10020)
    thr = ks_critical(PLANE_REPS)
    worst = max(c["statistic"] for c in checks)
    elapsed = time.perf_counter() - t0
    _report(acceptance_report, "2-d", "criteria 1-2 hold on a 135-site plane",
            worst <= thr, ", ".join(f"{c['name']} KS={c['statistic']:.5f}" for c in checks)
            + f" <= {thr:.5f} at {PLANE_REPS} reps, {elapsed:.1f}s")
    assert worst <= thr
