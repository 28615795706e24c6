"""Command-line front end: simulation runs, oracles, and validation.

Subcommands
-----------
simulate   draw replications of the field and write CSV / JSON diagnostics
oracle     finite-dimensional CDF probability by the Monte Carlo identity
validate   run the built-in validation experiments, write report + Q-Q SVG
pickands   estimate the Pickands set function over [0, N]^d
theta      estimate the discrete extremal index
clusters   cluster-count distributions across a list of alpha values

Every JSON output echoes {seed, alpha, n, reps, version} so a run can be
replayed exactly.  Identical configurations produce identical output
bytes; pass --no-timing to strip the wall-clock fields from simulate
diagnostics when byte-stable files are required.  simulate, oracle,
pickands and theta equal the library call at --seed; the arms of clusters
and validate draw at seeds hashed from (--seed, arm), so none share a stream.
Arguments argparse rejects (grid and comma-list syntax, a grid over the
budget, --skip, --dim, model parameters) exit with status 2 and the
subcommand's usage; input the library rejects, and files that cannot be read
or written, with status 1 and one line.  Output paths are checked before the
first draw.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .distributions import bivariate_neglog, fdd_cdf_oracle, gumbel_cdf, gumbel_quantile
from .gaussian import (FactorizationError, SiteSet, build_sampler, load_sites_csv,
                       read_csv)
from .pointprocess import SamplingMeasure
from .simulator import MARGINALS, ClusterLimitError, replications, transform_marginals
from .statseval import (
    ResourceLimitError,
    _bounded_grid,
    cluster_count_stats,
    extremal_index_estimate,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    pickands_estimate,
    qq_data,
)
from .streams import positive_int, seed_int
from .variogram import VariogramModel

SVG_SIZE = 480
SVG_MARGIN = 48
SVG_MAX_MARKERS = 2000

VALIDATE_CHECKS = ("marginal", "bivariate", "mu_invariance", "stationarity")

# Fixed 5-site set for the invariance experiments.
FIVE_SITES = (0.0, 0.2, 0.45, 0.7, 1.0)


def _arm_seeds(seed: int, count: int) -> list[int]:
    """Library seeds for ``count`` arms: 64-bit SeedSequence hashes of (seed, k).

    Two arms, of one run or of runs at different seeds, collide with
    probability about 2^-64.
    """
    children = np.random.SeedSequence(seed_int(seed)).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def parse_grid(expr: str) -> np.ndarray:
    """Points of a grid expression ``a:b:mesh[,a:b:mesh]``, one term per axis,
    counted before they are built and held to ``statseval.MAX_GRID``."""
    axes = []
    for term in expr.split(","):
        parts = term.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid term {term!r} is not of the form a:b:mesh")
        try:
            axes.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"grid term {term!r} has a non-numeric part") from None
    return _bounded_grid(*zip(*axes))  # the lows, highs and meshes


def _check_outputs(**paths) -> None:
    """Fail before the first draw if an output file cannot be written: each
    path's directory must exist and be writable, and an existing file must
    be writable.  Nothing is opened, so no file is truncated."""
    for flag, path in paths.items():
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            problem = "is a directory"
        elif not os.path.isdir(folder):
            problem = f"no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            problem = "cannot be written"
        else:
            continue
        raise OSError(f"--{flag} {path}: {problem}")


def _from_file(path, load):
    try:
        return load(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _weights_csv(path) -> SamplingMeasure:
    rows = read_csv(path)
    if min(rows.shape) > 1:
        raise ValueError(f"{len(rows)} rows of {rows.shape[1]} weights, not one row or column")
    return SamplingMeasure(rows.reshape(-1))


def _resolve_sites(args, parser) -> SiteSet:
    sites = args.grid  # argparse requires exactly one of --grid and --sites
    if args.sites is not None:
        sites = _from_file(args.sites, lambda p: load_sites_csv(p, args.sites_header))
    if args.dim is not None and args.dim != sites.dim:
        parser.error(f"--dim {args.dim} does not match the {sites.dim}-dimensional sites")
    return sites


def _numbers(parser, flag: str, text: str) -> list[float]:
    """The one comma-list reader: every entry must be a number."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        parser.error(f"{flag} must be a comma list of numbers, got {text!r}")


def _build_model(parser, alpha, scale, dim) -> VariogramModel:
    try:
        return VariogramModel(alpha=alpha, scale=scale, dim=dim)
    except ValueError as exc:
        parser.error(str(exc))


def _echo(seed, alpha, n, reps) -> dict:
    return {
        "seed": seed,
        "alpha": alpha,
        "n": n,
        "reps": reps,
        "version": __version__,
    }


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_svg_qq(pairs, path: str) -> None:
    """Write a standalone Q-Q scatter with a diagonal reference line.

    Markers are strided down to at most 2000 to bound the file size; the
    output contains no timestamps, so equal inputs give equal bytes.
    """
    pts = [(float(a), float(b)) for a, b in pairs]
    if not pts:
        raise ValueError("no Q-Q points to plot")
    if len(pts) > SVG_MAX_MARKERS:
        idx = np.unique(np.round(
            np.linspace(0, len(pts) - 1, SVG_MAX_MARKERS)).astype(int))
        pts = [pts[i] for i in idx]
    flat = [v for p in pts for v in p]
    lo, hi = min(flat), max(flat)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    span = SVG_SIZE - 2 * SVG_MARGIN

    def sx(v):
        return SVG_MARGIN + (v - lo) / (hi - lo) * span

    def sy(v):
        return SVG_SIZE - SVG_MARGIN - (v - lo) / (hi - lo) * span

    x0, x1 = sx(lo), sx(hi)
    y0, y1 = sy(lo), sy(hi)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<line class="axis" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
        f'y2="{y0:.2f}" stroke="black"/>',
        f'<line class="axis" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" '
        f'y2="{y1:.2f}" stroke="black"/>',
        f'<line class="diagonal" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
        f'y2="{y1:.2f}" stroke="gray" stroke-dasharray="4 3"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{SVG_SIZE - 10}" '
        'text-anchor="middle" font-size="12">theoretical quantile</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 14 {(y0 + y1) / 2:.2f})">'
        'empirical quantile</text>',
        f'<text x="{x0:.2f}" y="{y0 + 16:.2f}" text-anchor="middle" '
        f'font-size="10">{lo:.3g}</text>',
        f'<text x="{x1:.2f}" y="{y0 + 16:.2f}" text-anchor="middle" '
        f'font-size="10">{hi:.3g}</text>',
    ]
    for a, b in pts:
        parts.append(f'<circle class="pt" cx="{sx(a):.2f}" cy="{sy(b):.2f}" '
                     'r="2" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_simulate(args, parser) -> int:
    _check_outputs(out=args.out, diag=args.diag)
    sites = _resolve_sites(args, parser)
    model = _build_model(parser, args.alpha, args.scale, sites.dim)
    measure = (None if args.measure_weights is None
               else _from_file(args.measure_weights, _weights_csv))

    t0 = time.perf_counter()
    sampler = build_sampler(sites, model)
    t1 = time.perf_counter()
    counts, formed, raising, gaps = [], [], [], []
    # The inputs are checked before --out is opened, so a rejected run
    # leaves an existing file as it was; then each replication's row is
    # written as it is drawn: no (reps, n) array.
    draws = replications(sites, model, args.reps, measure=measure,
                         seed=args.seed, sampler=sampler)
    fh = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for fs in draws:
            values = transform_marginals(fs, args.marginals).values
            fh.write(",".join(map(repr, values.tolist())) + "\n")
            counts.append(fs.num_clusters)
            formed.append(fs.formed_clusters)
            raising.append(fs.raising_clusters)
            gaps.append(fs.bound_gap)
    finally:
        if fh is not sys.stdout:
            fh.close()
    t2 = time.perf_counter()

    if args.diag is not None:
        diag = _echo(args.seed, args.alpha, sites.n, args.reps)
        diag.update({
            "jitter_used": sampler.jitter_used,
            "marginals": args.marginals,
            "cluster_counts": counts,
            "formed_clusters": formed,
            "raising_clusters": raising,
            "bound_gaps": gaps,
        })
        if not args.no_timing:
            diag.update({"wall_time_s": t2 - t0, "factorization_s": t1 - t0,
                         "loop_s": t2 - t1})
        _emit_json(diag, args.diag)
    return 0


def cmd_oracle(args, parser) -> int:
    _check_outputs(out=args.out)
    sites = _resolve_sites(args, parser)
    model = _build_model(parser, args.alpha, args.scale, sites.dim)
    y = _numbers(parser, "--y", args.y)
    if len(y) == 1:
        y = y * sites.n
    if len(y) != sites.n:
        parser.error(f"--y needs 1 or {sites.n} values, got {len(y)}")
    est = fdd_cdf_oracle(sites, model, y, args.reps, args.seed)
    out = _echo(args.seed, args.alpha, sites.n, args.reps)
    out.update({"value": est.value, "std_error": est.std_error, "y": y})
    _emit_json(out, args.out)
    return 0


def cmd_pickands(args, parser) -> int:
    _check_outputs(out=args.out)
    if not args.N > 0:  # NaN fails too
        parser.error("N must be positive")
    model = _build_model(parser, args.alpha, args.scale, args.dim)
    est = pickands_estimate(model, (0.0, args.N), args.mesh, args.reps, args.seed)
    volume = float(args.N) ** args.dim
    n_points = round(args.N / args.mesh + 1) ** args.dim
    out = _echo(args.seed, args.alpha, n_points, args.reps)
    out.update({
        "value": est.value / volume,
        "std_error": est.std_error / volume,
        "set_function": est.value,
        "N": args.N,
        "mesh": args.mesh,
    })
    _emit_json(out, args.out)
    return 0


def cmd_theta(args, parser) -> int:
    _check_outputs(out=args.out)
    model = _build_model(parser, args.alpha, args.scale, args.dim)
    est = extremal_index_estimate(model, args.n, args.reps, args.seed)
    out = _echo(args.seed, args.alpha, args.n, args.reps)
    out.update({"value": est.value, "std_error": est.std_error})
    _emit_json(out, args.out)
    return 0


def cmd_clusters(args, parser) -> int:
    _check_outputs(out=args.out, summary=args.summary)
    sites = _resolve_sites(args, parser)
    alphas = _numbers(parser, "--alphas", args.alphas)
    models = [_build_model(parser, alpha, args.scale, sites.dim) for alpha in alphas]

    rows = []
    summaries = []
    for alpha, model, arm_seed in zip(alphas, models, _arm_seeds(args.seed, len(alphas))):
        counts = [fs.num_clusters
                  for fs in replications(sites, model, args.reps, seed=arm_seed)]
        rows.extend((alpha, c) for c in counts)
        summary = {"alpha": alpha}
        summary.update(cluster_count_stats(counts))
        summaries.append(summary)

    if args.out is not None:
        lines = [f"{alpha!r},{count}" for alpha, count in rows]
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    report = _echo(args.seed, alphas, sites.n, args.reps)
    report["summaries"] = summaries
    _emit_json(report, args.summary)
    return 0


def _ks_check(name, statistic, threshold, **extra) -> dict:
    return {"name": name, "pass": bool(statistic <= threshold),
            "statistic": statistic, "threshold": threshold, **extra}


def cmd_validate(args, parser) -> int:
    _check_outputs(report=args.report,
                   qq=None if "bivariate" in args.skip else args.qq)
    reps = args.reps
    seed = args.seed
    # Arms 0-7: marginal, bivariate, the two mu_invariance arms, then the
    # unshifted and shifted stationarity arms at alpha 1 and at alpha 2.
    arm = _arm_seeds(seed, 8)
    model = _build_model(parser, args.alpha, args.scale, 1)
    sites5 = SiteSet(np.asarray(FIVE_SITES))
    checks = []

    if "marginal" not in args.skip:
        samples = [fs.values[0]
                   for fs in replications([0.7], model, reps, seed=arm[0])]
        checks.append(_ks_check("marginal", ks_statistic(samples, gumbel_cdf),
                                ks_critical(reps)))

    if "bivariate" not in args.skip:
        pair = np.array([0.0, args.s])
        loc = float(np.log(bivariate_neglog(model, args.s, 0.0, 0.0)))
        samples = [fs.values.max() - loc
                   for fs in replications(pair, model, reps, seed=arm[1])]
        emit_svg_qq(qq_data(samples, gumbel_quantile), args.qq)
        checks.append(_ks_check("bivariate", ks_statistic(samples, gumbel_cdf),
                                ks_critical(reps), qq_svg=args.qq))

    if "mu_invariance" not in args.skip:
        skewed = SamplingMeasure([0.6, 0.1, 0.1, 0.1, 0.1])
        arm_a = [fs.values.max()
                 for fs in replications(sites5, model, reps, seed=arm[2])]
        arm_b = [fs.values.max()
                 for fs in replications(sites5, model, reps, measure=skewed,
                                        seed=arm[3])]
        checks.append(_ks_check("mu_invariance", ks_two_sample(arm_a, arm_b),
                                ks_critical(reps, m=reps)))

    if "stationarity" not in args.skip:
        worst = 0.0
        for k, alpha in enumerate((1.0, 2.0)):
            m = VariogramModel(alpha=alpha, scale=args.scale)
            runs_a = [fs.values
                      for fs in replications(sites5, m, reps, seed=arm[4 + 2 * k])]
            runs_b = [fs.values
                      for fs in replications(sites5.shifted(10.0), m, reps,
                                             seed=arm[5 + 2 * k])]
            a = np.asarray(runs_a)
            b = np.asarray(runs_b)
            for stat_a, stat_b in ((a.max(axis=1), b.max(axis=1)),
                                   (a[:, 0], b[:, 0])):
                worst = max(worst, ks_two_sample(stat_a, stat_b))
        checks.append(_ks_check("stationarity", worst, ks_critical(reps, m=reps)))

    all_pass = all(c["pass"] for c in checks)
    report = _echo(seed, args.alpha, sites5.n, reps)
    report.update({"s": args.s, "checks": checks, "all_pass": all_pass})
    _emit_json(report, args.report)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        sys.stdout.write(
            f"{c['name']:<22} {status}  statistic={c['statistic']:.6g} "
            f"threshold={c['threshold']:.6g}\n")
    sys.stdout.write(f"report written to {args.report}\n")
    return 0 if all_pass else 1


def _grid(text: str) -> SiteSet:
    try:
        return SiteSet(parse_grid(text))
    except (ValueError, ResourceLimitError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_site_args(sp):
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--sites", help="CSV of sites, one point per row")
    where.add_argument("--grid", type=_grid,
                       help="grid expression a:b:mesh[,a:b:mesh], endpoints included")
    sp.add_argument("--sites-header", action="store_true",
                    help="skip the first row of --sites")
    sp.add_argument("--dim", type=int, default=None,
                    help="expected site dimension (checked against the sites)")


def _reps(text: str) -> int:
    try:
        return positive_int("reps", int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"reps must be a positive integer, got {text!r}")


def _add_common(sp, reps_default):
    sp.add_argument("--scale", type=float, default=1.0,
                    help="variogram scale (default 1)")
    sp.add_argument("--reps", type=_reps, default=reps_default,
                    help=f"replications (default {reps_default})")
    sp.add_argument("--seed", type=int, default=1, help="base seed (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brownresnick",
        description="Exact Brown-Resnick max-stable field simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw field replications")
    _add_site_args(sp)
    sp.add_argument("--alpha", type=float, required=True)
    _add_common(sp, reps_default=1)
    sp.add_argument("--marginals", choices=MARGINALS, default="gumbel")
    sp.add_argument("--measure-weights",
                    help="CSV of one positive weight per site, in one row or one "
                         "column, read as --sites is (default uniform)")
    sp.add_argument("--out", help="output CSV path (default stdout)")
    sp.add_argument("--diag", help="diagnostics JSON path")
    sp.add_argument("--no-timing", action="store_true",
                    help="omit wall_time_s, factorization_s and loop_s from "
                         "diagnostics for byte-stable replays")
    sp.set_defaults(func=cmd_simulate, parser=sp)

    sp = sub.add_parser("oracle", help="finite-dimensional CDF oracle")
    _add_site_args(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--y", required=True,
                    help="comma list of thresholds (one value broadcasts)")
    _add_common(sp, reps_default=1_000_000)
    sp.add_argument("--out", help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_oracle, parser=sp)

    sp = sub.add_parser("validate", help="run the validation experiments")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0 - 1.0 / 1024.0,
                    help="site separation for the bivariate check")
    _add_common(sp, reps_default=10_000)
    sp.add_argument("--skip", action="append", default=[], metavar="CHECK",
                    choices=VALIDATE_CHECKS,
                    help=f"skip a named check; one of {', '.join(VALIDATE_CHECKS)}")
    sp.add_argument("--report", default="validate_report.json")
    sp.add_argument("--qq", default="qq_dependence.svg",
                    help="Q-Q SVG path for the bivariate check")
    sp.set_defaults(func=cmd_validate, parser=sp)

    sp = sub.add_parser("pickands", help="Pickands set-function estimate")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--N", type=float, required=True, help="box is [0, N]^dim")
    sp.add_argument("--mesh", type=float, required=True)
    sp.add_argument("--dim", type=int, default=1)
    _add_common(sp, reps_default=100_000)
    sp.add_argument("--out", help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_pickands, parser=sp)

    sp = sub.add_parser("theta", help="discrete extremal index estimate")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="integer sites 1..n")
    sp.add_argument("--dim", type=int, default=1)
    _add_common(sp, reps_default=100_000)
    sp.add_argument("--out", help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_theta, parser=sp)

    sp = sub.add_parser("clusters", help="cluster counts across alpha values")
    _add_site_args(sp)
    sp.add_argument("--alphas", required=True,
                    help="comma list of alpha values")
    _add_common(sp, reps_default=200)
    sp.add_argument("--out", help="per-run counts CSV (rows alpha,count)")
    sp.add_argument("--summary", help="summary JSON path (default stdout)")
    sp.set_defaults(func=cmd_clusters, parser=sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Each command reports argument errors through its own subparser,
        # with its usage and its prog.
        return args.func(args, args.parser)
    except (OSError, ValueError, OverflowError, FactorizationError,
            ResourceLimitError, ClusterLimitError) as exc:
        # Input the library rejects, and a file that cannot be read or
        # written, end in one line, not a traceback.
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
