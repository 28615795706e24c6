import json

import numpy as np
import pytest

from brownresnick import VariogramModel, extremal_index_estimate, fdd_cdf_oracle
from brownresnick.cli import emit_svg_qq, main, parse_grid

ECHO_KEYS = {"seed", "alpha", "n", "reps", "version"}


def _run_simulate(tmp_path, tag, extra=()):
    out = tmp_path / f"values_{tag}.csv"
    diag = tmp_path / f"diag_{tag}.json"
    rc = main([
        "simulate", "--grid", "0:1:0.25", "--alpha", "1.0",
        "--reps", "3", "--seed", "9", "--no-timing",
        "--out", str(out), "--diag", str(diag), *extra,
    ])
    assert rc == 0
    return out, diag


def test_parse_grid_forms():
    g = parse_grid("0:1:0.25")
    assert g.shape == (5, 1)
    g = parse_grid("0:1:0.5,0:2:1")
    assert g.shape == (9, 2)
    g = parse_grid("0.5:0.5:1")
    np.testing.assert_array_equal(g, [[0.5]])


def test_parse_grid_rejects_malformed_terms():
    for expr in ("0:1", "0:1:x", "0:1:0.3", "1:0:0.5"):
        with pytest.raises(ValueError):
            parse_grid(expr)


def test_simulate_replays_byte_identically(tmp_path):
    out_a, diag_a = _run_simulate(tmp_path, "a")
    out_b, diag_b = _run_simulate(tmp_path, "b")
    assert out_a.read_bytes() == out_b.read_bytes()
    assert diag_a.read_bytes() == diag_b.read_bytes()


def test_simulate_csv_round_trips(tmp_path):
    out, _ = _run_simulate(tmp_path, "rt")
    values = np.loadtxt(out, delimiter=",")
    assert values.shape == (3, 5)
    # repr-formatted floats parse back to the exact binary values, so a
    # second pass through the formatter is a fixed point.
    lines = [",".join(repr(float(v)) for v in row) for row in values]
    assert out.read_text() == "\n".join(lines) + "\n"


def test_simulate_diag_fields(tmp_path):
    _, diag = _run_simulate(tmp_path, "diag")
    d = json.loads(diag.read_text())
    assert ECHO_KEYS <= d.keys()
    assert d["seed"] == 9 and d["n"] == 5 and d["reps"] == 3
    assert d["marginals"] == "gumbel"
    assert len(d["cluster_counts"]) == 3
    assert d["jitter_used"] == 0.0
    assert "workers" not in d
    assert "wall_time_s" not in d

    # Two sites off the origin at alpha 2 give a rank-one covariance.
    paraboloid = tmp_path / "alpha2.json"
    main(["simulate", "--grid", "1:2:1", "--alpha", "2.0", "--reps", "1",
          "--seed", "1", "--no-timing", "--out", str(tmp_path / "alpha2.csv"),
          "--diag", str(paraboloid)])
    assert json.loads(paraboloid.read_text())["jitter_used"] > 0.0

    out = tmp_path / "timed.csv"
    timed = tmp_path / "timed.json"
    main(["simulate", "--grid", "0:1:0.5", "--alpha", "1.0", "--reps", "1",
          "--seed", "1", "--out", str(out), "--diag", str(timed)])
    assert "wall_time_s" in json.loads(timed.read_text())


def test_simulate_marginal_transforms(tmp_path):
    out_f, _ = _run_simulate(tmp_path, "frechet", ("--marginals", "frechet"))
    assert np.all(np.loadtxt(out_f, delimiter=",") > 0.0)
    out_w, _ = _run_simulate(tmp_path, "weibull", ("--marginals", "weibull"))
    assert np.all(np.loadtxt(out_w, delimiter=",") < 0.0)


def test_simulate_reads_site_csv(tmp_path):
    sites = tmp_path / "sites.csv"
    sites.write_text("t\n0.0\n0.5\n1.0\n")
    out = tmp_path / "vals.csv"
    rc = main(["simulate", "--sites", str(sites), "--sites-header",
               "--alpha", "1.0", "--reps", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    assert np.loadtxt(out, delimiter=",").shape == (2, 3)

    bad = tmp_path / "bad_sites.csv"
    bad.write_text("0.0\nnan\n1.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--sites", str(bad), "--alpha", "1.0", "--out", str(out)])
    assert str(bad) in str(exc.value.code)


def test_simulate_measure_weights(tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("5\n1\n1\n1\n1\n")
    out_skew, _ = _run_simulate(tmp_path, "skew",
                                ("--measure-weights", str(weights)))
    out_unif, _ = _run_simulate(tmp_path, "unif")
    # The anchor-site draws differ, so the realized paths differ even at
    # the same seed (the law does not, which validate checks separately).
    assert out_skew.read_bytes() != out_unif.read_bytes()

    short = tmp_path / "short.csv"
    short.write_text("1\n1\n")
    with pytest.raises(SystemExit):
        _run_simulate(tmp_path, "bad", ("--measure-weights", str(short)))

    # Non-finite or non-positive weights exit with a message naming the file.
    for tag, text in (("inf", "5\n1\ninf\n1\n1\n"), ("zero", "5\n1\n0\n1\n1\n")):
        bad = tmp_path / f"{tag}.csv"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            _run_simulate(tmp_path, tag, ("--measure-weights", str(bad)))
        assert str(bad) in str(exc.value.code)


def test_simulate_rejects_bad_arguments(tmp_path):
    base = ["simulate", "--alpha", "1.0"]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--grid", "0:1:0.5", "--reps", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(base + ["--reps", "1"])  # no sites and no grid
    with pytest.raises(SystemExit):
        main(base + ["--grid", "0:1:0.5", "--sites", "x.csv", "--reps", "1"])
    with pytest.raises(SystemExit) as exc:
        main(base + ["--grid", "0:10:10", "--scale", "1e308"])
    assert "overflowed" in str(exc.value.code)
    with pytest.raises(SystemExit):
        main(base + ["--grid", "0:1:0.7"])  # mesh does not divide the span
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--grid", "0:1:0.5", "--alpha", "2.5", "--reps", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(base + ["--grid", "0:1:0.5", "--scale", "-3", "--reps", "1"])
    assert exc.value.code == 2


def test_dim_flag_cross_checks_sites():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--grid", "0:1:0.5", "--dim", "2", "--alpha", "1.0"])
    assert exc.value.code == 2
    rc = main(["simulate", "--grid", "0.5:0.5:1", "--dim", "1",
               "--alpha", "1.0", "--seed", "1", "--out", "/dev/null"])
    assert rc == 0


def test_oracle_matches_library_call(tmp_path):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--grid", "0:1:0.5", "--alpha", "1.0",
               "--y", "1.0", "--reps", "2000", "--seed", "17",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert ECHO_KEYS <= d.keys()
    assert d["y"] == [1.0, 1.0, 1.0]
    est = fdd_cdf_oracle([0.0, 0.5, 1.0], VariogramModel(alpha=1.0),
                         [1.0] * 3, reps=2000, seed=17)
    assert d["value"] == est.value
    assert d["std_error"] == est.std_error


def test_oracle_rejects_mismatched_thresholds():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--grid", "0:1:0.5", "--alpha", "1.0",
              "--y", "1.0,2.0", "--reps", "10"])
    assert exc.value.code == 2


def test_oracle_replays_byte_identically(tmp_path):
    args = ["oracle", "--grid", "0:1:1", "--alpha", "1.5", "--y", "0.5",
            "--reps", "1000", "--seed", "4"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_pickands_reports_both_normalizations(tmp_path):
    out = tmp_path / "pick.json"
    rc = main(["pickands", "--alpha", "1.0", "--N", "2", "--mesh", "0.25",
               "--reps", "2000", "--seed", "5", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert ECHO_KEYS <= d.keys()
    assert d["n"] == 9  # grid points of [0, 2] at mesh 1/4
    assert d["value"] == pytest.approx(d["set_function"] / 2.0, rel=1e-15)
    assert d["set_function"] >= 1.0


def test_theta_matches_library_call(tmp_path):
    out = tmp_path / "theta.json"
    rc = main(["theta", "--alpha", "1.0", "--n", "8", "--reps", "2000",
               "--seed", "6", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    est = extremal_index_estimate(VariogramModel(alpha=1.0), 8,
                                  reps=2000, seed=6)
    assert d["value"] == est.value
    assert 0.0 < d["value"] <= 1.0 + 3.0 * est.std_error


def test_clusters_single_site_counts_are_two(tmp_path):
    counts_csv = tmp_path / "counts.csv"
    summary = tmp_path / "summary.json"
    rc = main(["clusters", "--grid", "0.5:0.5:1", "--alphas", "1.0,2.0",
               "--reps", "20", "--seed", "2", "--out", str(counts_csv),
               "--summary", str(summary)])
    assert rc == 0
    lines = counts_csv.read_text().splitlines()
    assert len(lines) == 40
    assert all(line.endswith(",2") for line in lines)
    d = json.loads(summary.read_text())
    assert d["alpha"] == [1.0, 2.0]
    for s in d["summaries"]:
        assert s["quartiles"] == [2.0, 2.0, 2.0]
        assert s["mean"] == 2.0


def test_clusters_requires_alpha_list(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["clusters", "--grid", "0:1:0.5", "--reps", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["clusters", "--grid", "0:1:0.5", "--alphas", "1.0,x",
              "--reps", "5"])
    with pytest.raises(SystemExit):
        main(["clusters", "--grid", "0:1:0.5", "--alphas", ",",
              "--reps", "5"])


def test_validate_default_checks(tmp_path, capsys):
    report = tmp_path / "report.json"
    qq = tmp_path / "qq.svg"
    rc = main(["validate", "--reps", "400", "--seed", "1",
               "--report", str(report), "--qq", str(qq)])
    assert rc == 0
    d = json.loads(report.read_text())
    assert ECHO_KEYS <= d.keys()
    assert [c["name"] for c in d["checks"]] == [
        "marginal", "bivariate", "mu_invariance", "stationarity"]
    assert d["all_pass"] is True
    assert d["s"] == pytest.approx(1.0 - 1.0 / 1024.0)
    assert qq.exists()
    out = capsys.readouterr().out
    for name in ("marginal", "bivariate", "mu_invariance", "stationarity"):
        assert name in out
    assert "FAIL" not in out


def test_validate_skip_bivariate(tmp_path):
    report = tmp_path / "report.json"
    qq = tmp_path / "qq.svg"
    rc = main(["validate", "--reps", "200", "--seed", "1",
               "--skip", "bivariate", "--report", str(report),
               "--qq", str(qq)])
    assert rc == 0
    d = json.loads(report.read_text())
    assert len(d["checks"]) == 3
    assert "bivariate" not in [c["name"] for c in d["checks"]]
    assert not qq.exists()


def test_validate_honors_scale(tmp_path):
    # the pair draws and the closed-form location both depend on the
    # variogram scale, so the bivariate KS statistic must move when
    # --scale does; margins stay Gumbel either way, so both runs pass
    # (the single-site marginal check is scale-invariant by construction)
    skips = []
    for name in ("marginal", "mu_invariance", "stationarity"):
        skips += ["--skip", name]
    stats = {}
    for scale in ("1.0", "4.0"):
        report = tmp_path / f"scale_{scale}.json"
        rc = main(["validate", "--reps", "200", "--seed", "1",
                   "--scale", scale, "--report", str(report),
                   "--qq", str(tmp_path / f"qq_{scale}.svg")] + skips)
        assert rc == 0
        d = json.loads(report.read_text())
        assert d["checks"][0]["name"] == "bivariate"
        assert d["checks"][0]["pass"] is True
        stats[scale] = d["checks"][0]["statistic"]
    assert stats["1.0"] != stats["4.0"]


def test_validate_rejects_bad_arguments(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--reps", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["validate", "--reps", "100", "--skip", "nonesuch"])
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--reps", "100", "--alpha", "2.5"])
    assert exc.value.code == 2


def test_environment_variable_seeds_default(tmp_path, monkeypatch):
    monkeypatch.setenv("BROWNRESNICK_SEED", "777")
    out = tmp_path / "env.csv"
    diag = tmp_path / "env.json"
    main(["simulate", "--grid", "0.5:0.5:1", "--alpha", "1.0",
          "--reps", "1", "--no-timing", "--out", str(out),
          "--diag", str(diag)])
    assert json.loads(diag.read_text())["seed"] == 777

    monkeypatch.setenv("BROWNRESNICK_SEED", "not-a-number")
    with pytest.raises(SystemExit):
        main(["simulate", "--grid", "0.5:0.5:1", "--alpha", "1.0"])


def test_svg_marker_and_line_counts(tmp_path):
    path = tmp_path / "three.svg"
    emit_svg_qq([(0.0, 0.1), (1.0, 0.9), (2.0, 2.2)], str(path))
    text = path.read_text()
    assert text.count("<circle") == 3
    assert text.count('class="diagonal"') == 1
    assert text.count('class="axis"') == 2


def test_svg_downsamples_large_inputs(tmp_path):
    path = tmp_path / "big.svg"
    x = np.linspace(-2, 8, 10_000)
    emit_svg_qq(list(zip(x, x + 0.01)), str(path))
    text = path.read_text()
    assert text.count("<circle") <= 2000
    assert path.stat().st_size < 2_000_000


def test_svg_rejects_empty_input(tmp_path):
    path = tmp_path / "empty.svg"
    with pytest.raises(ValueError):
        emit_svg_qq([], str(path))
    assert not path.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    import brownresnick
    assert brownresnick.__version__ in capsys.readouterr().out
