import json
import os
import tracemalloc

import numpy as np
import pytest

from brownresnick import (
    FieldSample,
    VariogramModel,
    extremal_index_estimate,
    fdd_cdf_oracle,
    replications,
)
from brownresnick import cli, simulator
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


def test_simulate_writes_each_row_as_it_is_drawn(tmp_path, monkeypatch):
    # The cluster loop is not at issue here: each replication's draw is
    # cut to n uniforms of its stream, a fresh array per row.
    def draw(measure, sampler, stream):
        return FieldSample(values=stream.uniforms(sampler.n), num_clusters=1,
                           v_trace=[0.0], seed=stream.seed, elapsed=0.0)

    monkeypatch.setattr(simulator, "_simulate", draw)
    reps, n = 4000, 65
    out = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        assert main(["simulate", "--grid", "0:4:0.0625", "--alpha", "1.0",
                     "--reps", str(reps), "--seed", "4", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Below the (reps, n) array the rows were once gathered in.
    assert peak < 8 * reps * n
    values = np.loadtxt(out, delimiter=",")
    assert values.shape == (reps, n)
    assert np.all((values > 0.0) & (values < 1.0))


def test_simulate_diag_fields(tmp_path):
    _, diag = _run_simulate(tmp_path, "diag")
    d = json.loads(diag.read_text())
    assert ECHO_KEYS <= d.keys()
    assert d["seed"] == 9 and d["n"] == 5 and d["reps"] == 3
    assert d["marginals"] == "gumbel"
    assert len(d["cluster_counts"]) == 3
    lib = list(replications(np.linspace(0.0, 1.0, 5), VariogramModel(alpha=1.0), 3, seed=9))
    assert d["formed_clusters"] == [fs.formed_clusters for fs in lib]
    assert d["raising_clusters"] == [fs.raising_clusters for fs in lib]
    assert d["jitter_used"] == 0.0
    assert "workers" not in d
    assert not {"wall_time_s", "factorization_s", "loop_s"} & d.keys()

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
    d = json.loads(timed.read_text())
    assert d["factorization_s"] > 0.0 and d["loop_s"] > 0.0
    assert d["factorization_s"] + d["loop_s"] == pytest.approx(d["wall_time_s"])


def test_simulate_diag_bound_gaps(tmp_path):
    _, diag = _run_simulate(tmp_path, "gaps")
    gaps = json.loads(diag.read_text())["bound_gaps"]
    lib = [fs.bound_gap for fs in replications(
        np.linspace(0.0, 1.0, 5), VariogramModel(alpha=1.0), 3, seed=9)]
    assert gaps == lib
    assert all(g >= 0.0 for g in gaps)


def test_simulate_cluster_limit_exits_with_message(tmp_path, monkeypatch):
    def nan_step(x, log_w, v):
        return np.full(x.shape, np.nan)

    monkeypatch.setattr(simulator, "_cluster_step", nan_step)
    with pytest.raises(SystemExit) as exc:
        _run_simulate(tmp_path, "nan")
    assert "NaN before cluster 2" in exc.value.code
    assert "worst gap at site 0" in exc.value.code


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


def test_rejected_weights_leave_out_file_as_it_was(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("kept\n")
    short = tmp_path / "short.csv"
    short.write_text("1\n1\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--grid", "0:1:0.25", "--alpha", "1.0", "--reps", "3",
              "--measure-weights", str(short), "--out", str(out)])
    assert "2 weights but there are 5 sites" in str(exc.value.code)
    assert out.read_text() == "kept\n"


def test_ragged_csv_files_name_the_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1\n2\n")
    for flags in (["--sites", str(ragged)],
                  ["--grid", "0:1:1", "--measure-weights", str(ragged)]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "1.0", "--out", str(tmp_path / "v.csv"),
                  *flags])
        assert exc.value.code == f"{ragged}: line 2 has 1 values where the first row has 2"


def test_weights_file_is_one_row_or_one_column(tmp_path):
    column = tmp_path / "column.csv"
    column.write_text("# anchor weights\n5\n1\n  \n1\n1\n1  # last\n")
    row = tmp_path / "row.csv"
    row.write_text("5,1,1,1,1\n")
    out_column, _ = _run_simulate(tmp_path, "column", ("--measure-weights", str(column)))
    out_row, _ = _run_simulate(tmp_path, "row", ("--measure-weights", str(row)))
    assert out_column.read_bytes() == out_row.read_bytes()

    matrix = tmp_path / "matrix.csv"
    matrix.write_text("5,1\n1,1\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--alpha", "1.0", "--grid", "0:3:1",
              "--measure-weights", str(matrix)])
    assert exc.value.code == f"{matrix}: 2 rows of 2 weights, not one row or column"


@pytest.mark.parametrize("command", [
    ["simulate", "--alpha", "1.0", "--grid", "0:1:0.5"],
    ["oracle", "--alpha", "1.0", "--grid", "0:1:0.5", "--y", "1.0"],
    ["validate"],
    ["pickands", "--alpha", "1.0", "--N", "1", "--mesh", "0.5"],
    ["theta", "--alpha", "1.0", "--n", "4"],
    ["clusters", "--alphas", "1.0", "--grid", "0:1:0.5"],
], ids=lambda command: command[0])
def test_every_command_rejects_nonpositive_reps(capsys, command):
    for reps in ("0", "-3", "2.5"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--reps", reps])
        assert exc.value.code == 2
        assert "reps must be a positive integer" in capsys.readouterr().err


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
    for dim in ("2", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--grid", "0:1:0.5", "--dim", dim, "--alpha", "1.0"])
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


def test_oracle_rejects_mismatched_thresholds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--grid", "0:1:0.5", "--alpha", "1.0",
              "--y", "1.0,2.0", "--reps", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--grid", "0:1:0.5", "--alpha", "1.0", "--y", "abc"])
    assert exc.value.code == 2
    assert "--y must be a comma list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--grid", "0:1:0.5", "--alpha", "1", "--y", "nan"], "finite"),
    (["pickands", "--alpha", "1", "--N", "1", "--mesh", "0.3"], "does not divide"),
    (["pickands", "--alpha", "1", "--N", "1", "--mesh", "0.0001"], "budget of 4096"),
    (["pickands", "--alpha", "1", "--N", "1", "--mesh", "0.000001"], "budget of 4096"),
    (["theta", "--alpha", "1", "--n", "5000"], "budget of 4096"),
    (["oracle", "--grid", "0:1e200:1e200", "--alpha", "2", "--y", "1"], "overflowed"),
    (["clusters", "--grid", "0:1e200:1e200", "--alphas", "2"], "overflowed"),
    (["pickands", "--alpha", "2", "--N", "1e200", "--mesh", "1e200"], "overflowed"),
    (["pickands", "--alpha", "1", "--N", "inf", "--mesh", "1"], "finite grid"),
    (["pickands", "--alpha", "1", "--N", "1", "--mesh", "inf"], "finite grid"),
    (["theta", "--alpha", "1", "--n", "1" + "0" * 400], "too large"),
], ids=["oracle-nan", "pickands-mesh", "pickands-budget", "pickands-fine-mesh",
        "theta-budget", "oracle-overflow", "clusters-overflow", "pickands-overflow",
        "pickands-inf", "pickands-inf-mesh", "theta-huge"])
def test_rejected_input_exits_with_one_line_message(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str)
    assert message in exc.value.code and "\n" not in exc.value.code


def _no_draws(*args, **kwargs):
    raise AssertionError("the command went on to draw")


@pytest.mark.parametrize("argv, flag, other", [
    (["simulate", "--grid", "0:1:0.5", "--alpha", "1"], "--out", "--diag"),
    (["simulate", "--grid", "0:1:0.5", "--alpha", "1"], "--diag", "--out"),
    (["oracle", "--grid", "0:1:0.5", "--alpha", "1", "--y", "1"], "--out", None),
    (["pickands", "--alpha", "1", "--N", "1", "--mesh", "0.5"], "--out", None),
    (["theta", "--alpha", "1", "--n", "2", "--reps", "10"], "--out", None),
    (["clusters", "--grid", "0:1:0.5", "--alphas", "1"], "--out", "--summary"),
    (["clusters", "--grid", "0:1:0.5", "--alphas", "1"], "--summary", "--out"),
    (["validate", "--reps", "20"], "--report", "--qq"),
    (["validate", "--reps", "20"], "--qq", "--report"),
    (["simulate", "--alpha", "1"], "--sites", "--out"),
], ids=["simulate-out", "simulate-diag", "oracle-out", "pickands-out", "theta-out",
        "clusters-out", "clusters-summary", "validate-report", "validate-qq",
        "simulate-sites"])
def test_unopenable_file_exits_with_one_line_naming_it(tmp_path, monkeypatch, argv,
                                                       flag, other):
    # Output paths are checked before the first draw, without opening or
    # truncating the command's other output, an existing file here.
    for name in ("replications", "fdd_cdf_oracle", "pickands_estimate",
                 "extremal_index_estimate"):
        monkeypatch.setattr(cli, name, _no_draws)
    kept = tmp_path / "kept.txt"
    kept.write_text("kept\n")
    extra = [] if other is None else [other, str(kept)]
    for bad in (tmp_path / "no_such_dir" / "file", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra + [flag, str(bad)])
        assert isinstance(exc.value.code, str)
        assert str(bad) in exc.value.code and "\n" not in exc.value.code
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--grid", "0:1:0.5", "--dim", "2", "--alpha", "1"],
    ["oracle", "--grid", "0:1:0.5", "--alpha", "1", "--y", "1,x"],
    ["clusters", "--grid", "0:1:0.5", "--alphas", "1,x"],
    ["pickands", "--alpha", "1", "--N", "0", "--mesh", "0.5"],
    ["pickands", "--alpha", "1", "--N", "nan", "--mesh", "0.5"],
    ["simulate", "--grid", "0:1:inf", "--alpha", "1"],
], ids=["simulate", "oracle", "clusters", "pickands", "pickands-nan", "simulate-inf-mesh"])
def test_command_errors_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: brownresnick {argv[0]} ")
    assert f"\nbrownresnick {argv[0]}: error: " in err


def test_grid_budget_is_checked_before_the_grid_is_built(capsys, monkeypatch):
    # 10^5 + 1 points: each array of the built grid would take 0.8 MB, so a
    # grid built before its count breaks the bound, yet fits in memory.
    monkeypatch.setattr(cli, "build_sampler", _no_draws)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--grid", "0:1e5:1", "--alpha", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert "budget of 4096" in capsys.readouterr().err.splitlines()[-1]
    assert peak < 2 ** 19


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
    with pytest.raises(SystemExit) as exc:
        main(["clusters", "--grid", "0:1:0.5", "--alphas", "1.0,2.0,",
              "--reps", "5"])
    assert exc.value.code == 2


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


def test_environment_does_not_set_the_seed(monkeypatch, capsys):
    # The default seed is 1 whatever the environment holds, so a run's
    # output is a function of its command line alone.
    argv = ["simulate", "--grid", "0:1:0.5", "--alpha", "1.0", "--reps", "2"]
    main(argv + ["--seed", "1"])
    expected = capsys.readouterr().out
    for value in ("777", "not-a-number"):
        monkeypatch.setenv("BROWNRESNICK_SEED", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


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
