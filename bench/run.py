"""Benchmark of the exact Brown-Resnick sampler and its Monte Carlo oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Each workload is a closed loop
of one client in this single process: the next operation starts when the
previous one has returned, with ``workers=1`` and BLAS held to one thread.

Workloads (README.md says why each was chosen):

* ``sites-5``, ``line-65``, ``plane-17x17``: one operation is one exact
  field sample, taken from ``replications`` with a sampler built once.
* ``oracle-mc``: one operation is one estimator call at a fixed draw count,
  in the fixed rotation fdd_cdf_oracle, pickands_coupled,
  extremal_index_estimate.

A run builds the workload's shared inputs, then runs whole rounds of
operations until ``--seconds`` of wall time have passed since the loop
began, building the inputs once more after every ``SETUP_EVERY_S`` seconds
of operations.  ``setup_s`` is the median of all these builds, so most of
them find the caches as a program that does other work between builds
would; it excludes interpreter start and ``import brownresnick``.
Afterwards the first round of operations is run again and must give
identical outputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``ops_per_s``, ``op_p50_ms``, ``setup_s`` and
``peak_rss_mb``.  The three timings are scaled to a reference machine speed
(``calibrate.py``): right before and after every build and after every
``CAL_EVERY_S`` seconds of operations the run times a fixed numpy kernel,
and each timing is multiplied by the kernel's reference time over the mean
of the two kernel times around it.  The unscaled figures go to standard
error.  With ``--trace 1`` the operations run in blocks, each block once
plain and then again with every public function of the package
wrapped by ``tracer.Tracer``; the run prints the per-layer metrics, among them the
tracing overhead against the plain runs of the same operations, and writes
the spans to ``bench/out/``.  Every run checks its outputs (``checks.py``)
and reports ``correct``, ``attempted`` and ``failed``.
"""

from __future__ import annotations

import os
import sys
import time

# One thread per process; this must be set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "brownresnick"
OUT_DIR = BENCH_DIR / "out"


def import_library():
    """Import ``brownresnick`` from this checkout; return it and the seconds."""
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    start = time.perf_counter()
    try:
        import brownresnick
    except ImportError as exc:
        sys.exit(f"bench: cannot import brownresnick from {PACKAGE_DIR.parent}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(brownresnick.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"bench: brownresnick was imported from {brownresnick.__file__}, "
                 f"not from {PACKAGE_DIR}")
    return brownresnick, elapsed


# numpy and the helpers load after the package, so that the import time
# measured here is that of a fresh interpreter.
br, IMPORT_S = import_library()

import numpy as np  # noqa: E402

from calibrate import Calibration  # noqa: E402
from checks import (  # noqa: E402
    Checks, bivariate_cdf, gamma, gumbel_ks_distance, normal_cdf,
    pair_extremal_coefficient)
from tracer import Tracer  # noqa: E402

WORKLOADS = ("sites-5", "line-65", "plane-17x17", "oracle-mc")
SOURCE_MODULES = ("__init__", "cli", "distributions", "gaussian", "pointprocess",
                  "simulator", "statseval", "streams", "variogram")

SETUP_REPEATS = 5         # traced builds in a traced run
SETUP_EVERY_S = 0.25
CAL_EVERY_S = 0.1
TRACE_BLOCK_S = 0.5
FDD_DRAWS = 1 << 16
PICKANDS_DRAWS = 1 << 15
THETA_DRAWS = 1 << 16
WARMUP_DRAWS = 1 << 10
ALL_REPLICATIONS = 1 << 40   # replications() is lazy; the loop stops it
BIVARIATE_POINT = (-0.5, 1.0)
ROTATION = ("fdd", "pickands", "theta")


def seed_base(seed: int) -> int:
    """A 62-bit library seed, far from those of any other run seed.

    ``replications(seed=s)`` gives replication r the seed s + r, so nearby
    run seeds passed straight through would share samples.
    """
    state = np.random.SeedSequence([seed, 0]).generate_state(1, dtype=np.uint64)
    return int(state[0]) >> 2


# -- simulator workloads ------------------------------------------------------

@dataclass(frozen=True)
class SimSpec:
    dim: int
    points: object          # () -> site array
    weights: object         # n -> anchor weights
    checked_sites: int      # sites whose marginal is tested; 0 means all
    num_pairs: int          # site pairs for the bivariate law; 0 means all


SIM_SPECS = {
    "sites-5": SimSpec(1, lambda: np.array([0.0, 0.2, 0.45, 0.7, 1.0]),
                       lambda n: [0.6, 0.1, 0.1, 0.1, 0.1], 0, 0),
    "line-65": SimSpec(1, lambda: br.box_grid(0.0, 4.0, 1.0 / 16.0),
                       lambda n: np.full(n, 1.0 / n), 0, 8),
    "plane-17x17": SimSpec(2, lambda: br.box_grid([0.0, 0.0], [4.0, 4.0], 1.0 / 4.0),
                           lambda n: np.full(n, 1.0 / n), 16, 8),
}


@dataclass(frozen=True)
class SimInputs:
    model: object
    sites: object
    measure: object
    sampler: object


class SimWorkload:
    """One op is one exact sample; op k is replication k from one seed."""

    round_size = 1

    def __init__(self, name: str, seed: int):
        self.spec = SIM_SPECS[name]
        self.kernel = f"cluster-{len(self.spec.points())}"
        self.base = seed_base(seed)
        self.rng = np.random.default_rng([seed, 1])

    def build(self) -> SimInputs:
        spec = self.spec
        model = br.VariogramModel(alpha=1.0, dim=spec.dim)
        sites = br.SiteSet(spec.points())
        measure = br.SamplingMeasure(spec.weights(sites.n))
        sampler = br.build_sampler(sites, model)
        return SimInputs(model, sites, measure, sampler)

    def start(self, inputs: SimInputs):
        """An op source whose op k is replication k."""
        w = np.asarray(self.spec.weights(inputs.sites.n), dtype=np.float64)
        self.log_w = np.log(w / w.sum())
        gen = None

        def op(k: int):
            nonlocal gen
            if gen is None:
                gen = br.replications(inputs.sites, inputs.model, ALL_REPLICATIONS,
                                      inputs.measure, seed=self.base + k, workers=1,
                                      sampler=inputs.sampler)
            try:
                return next(gen)
            except Exception:
                # A failed sample ends the generator; the next op restarts it.
                gen = None
                raise
        return op

    def check_op(self, checks: Checks, sample):
        """Exact properties of one sample; returns what the run check needs."""
        vt = np.asarray(sample.v_trace)
        checks.exact("v_trace strictly decreasing", bool(np.all(np.diff(vt) < 0.0)))
        checks.exact("len(v_trace) == num_clusters", len(vt) == sample.num_clusters)
        checks.exact("termination certificate v <= min(sup + log w)",
                     bool(vt[-1] <= np.min(sample.values + self.log_w)))
        return sample.values, sample.num_clusters

    def same_output(self, a, b) -> bool:
        return a[1] == b[1] and np.array_equal(a[0], b[0])

    def check_run(self, checks: Checks, inputs: SimInputs, records) -> dict:
        """Gumbel marginals at the sites and the bivariate law of site pairs."""
        values = np.array([r[0] for r in records])
        clusters = [r[1] for r in records]
        k, n = values.shape
        spec = self.spec
        sites = range(n) if spec.checked_sites == 0 else \
            sorted(self.rng.choice(n, size=spec.checked_sites, replace=False))
        for j in sites:
            checks.ks(f"Gumbel marginal at site {j}", gumbel_ks_distance(values[:, j]), k)
        if spec.num_pairs == 0:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            pairs = [tuple(sorted(self.rng.choice(n, size=2, replace=False)))
                     for _ in range(spec.num_pairs)]
        pts = inputs.sites.points
        y1, y2 = BIVARIATE_POINT
        for i, j in pairs:
            g = gamma(float(np.linalg.norm(pts[i] - pts[j])))
            pair_max = np.maximum(values[:, i], values[:, j])
            checks.ks(f"pair ({i},{j}) max law",
                      gumbel_ks_distance(pair_max - np.log(pair_extremal_coefficient(g))), k)
            hits = int(np.sum((values[:, i] <= y1) & (values[:, j] <= y2)))
            checks.frequency(f"pair ({i},{j}) CDF at {BIVARIATE_POINT}", hits, k,
                             bivariate_cdf(y1, y2, g))
        return {"samples": k, "clusters_quartiles": quartiles(clusters),
                "clusters_mean": float(np.mean(clusters))}


# -- oracle workload ------------------------------------------------------------

@dataclass(frozen=True)
class OracleInputs:
    model: object
    grid: object
    thresholds: object
    nested: list


class OracleWorkload:
    """One op is one estimator call; op k is ROTATION[k % 3] with seed base + k."""

    round_size = len(ROTATION)
    kernel = "vector"

    def __init__(self, seed: int):
        self.base = seed_base(seed)
        self.thresholds = np.random.default_rng([seed, 1]).uniform(1.0, 3.0, size=65)
        self.bounds = None

    def build(self) -> OracleInputs:
        model = br.VariogramModel(alpha=1.0)
        grid = br.box_grid(0.0, 4.0, 1.0 / 16.0)
        nested = [np.array([[0.0]]), np.array([[0.0], [1.0]]),
                  br.box_grid(0.0, 1.0, 1.0 / 16.0), br.box_grid(0.0, 2.0, 1.0 / 16.0), grid]
        inputs = OracleInputs(model, grid, self.thresholds, nested)
        for kind in ROTATION:
            self._call(inputs, kind, self.base - 1, WARMUP_DRAWS)
        return inputs

    def _call(self, inputs: OracleInputs, kind: str, seed: int, draws: int):
        if kind == "fdd":
            return br.fdd_cdf_oracle(inputs.grid, inputs.model, inputs.thresholds,
                                     draws, seed)
        if kind == "pickands":
            return br.pickands_coupled(inputs.model, inputs.nested, draws, seed)
        return br.extremal_index_estimate(inputs.model, 2, draws, seed)

    def start(self, inputs: OracleInputs):
        if self.bounds is None:
            # P(eta <= y) over the grid lies between independence and the
            # smallest pairwise CDF.
            y, t = self.thresholds, inputs.grid[:, 0]
            lower = float(np.exp(-np.sum(np.exp(-y))))
            upper = min(bivariate_cdf(float(y[i]), float(y[j]), gamma(float(t[i] - t[j])))
                        for i in range(len(t)) for j in range(i + 1, len(t)))
            self.bounds = (lower, upper)
        draws = {"fdd": FDD_DRAWS, "pickands": PICKANDS_DRAWS, "theta": THETA_DRAWS}

        def op(k: int):
            kind = ROTATION[k % len(ROTATION)]
            return kind, self._call(inputs, kind, self.base + k, draws[kind])
        return op

    def check_op(self, checks: Checks, out):
        kind, result = out
        if kind == "fdd":
            lower, upper = self.bounds
            checks.z("fdd at or above independence", result.value, lower,
                     result.std_error, side=-1)
            checks.z("fdd at or below every pair's CDF", result.value, upper,
                     result.std_error, side=1)
            return result.value
        if kind == "pickands":
            vals = [e.value for e in result]
            checks.exact("pickands f({0}) == 1", vals[0] == 1.0)
            checks.exact("pickands nondecreasing over nested grids",
                         all(a <= b for a, b in zip(vals, vals[1:])))
            checks.z("pickands f({0,1}) == 2 Phi(sqrt(gamma(1)/2))", vals[1],
                     pair_extremal_coefficient(gamma(1.0)), result[1].std_error)
            return vals
        checks.z("theta(2) == Phi(sqrt(gamma(1)/2))", result.value,
                 normal_cdf(np.sqrt(gamma(1.0) / 2.0)), result.std_error)
        return result.value

    def same_output(self, a, b) -> bool:
        return a == b

    def check_run(self, checks: Checks, inputs: OracleInputs, records) -> dict:
        """Closed forms the rotation does not reach: a two-site CDF and theta(1)."""
        y1, y2 = 0.5, 1.5
        pair = br.fdd_cdf_oracle([0.0, 1.0], inputs.model, [y1, y2], FDD_DRAWS, self.base - 2)
        checks.z("two-site fdd == bivariate closed form", pair.value,
                 bivariate_cdf(y1, y2, gamma(1.0)), pair.std_error)
        theta1 = br.extremal_index_estimate(inputs.model, 1, THETA_DRAWS, self.base - 3)
        checks.z("theta(1) == 1", theta1.value, 1.0, theta1.std_error)
        return {"estimator_calls": len(records)}


# -- the measuring loop -------------------------------------------------------------

class Run:
    """Times the set-up and the operations of one workload in this process."""

    def __init__(self, workload):
        self.wl = workload
        self.checks = Checks()
        self.setup_times: list[float] = []
        self.setup_blocks: list[int] = []
        self.op_blocks: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.clock = time.perf_counter
        self.cal = None

    def setup(self):
        """One timed build, in a calibration block of its own."""
        self.cal.sample()
        start = self.clock()
        inputs = self.wl.build()
        self.setup_times.append(self.clock() - start)
        self.setup_blocks.append(self.cal.block)
        self.cal.sample()
        return inputs

    def attempt(self, op, k: int, durations: list):
        """Run op k once; return its checked record, or None if it failed."""
        self.attempted += 1
        start = self.clock()
        try:
            out = op(k)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        durations.append(self.clock() - start)
        return self.wl.check_op(self.checks, out)

    def rounds(self, op, first: int, durations: list, records: list, seconds: float) -> int:
        """Whole rounds of ops from op ``first``, at least one, until ``seconds``
        have passed; returns the number of the next op."""
        k, end = first, self.clock() + seconds
        while True:
            for _ in range(self.wl.round_size):
                records.append(self.attempt(op, k, durations))
                k += 1
            if self.clock() >= end:
                return k

    def replay(self, inputs, records) -> None:
        """Run the first round again from a fresh start; outputs must not change."""
        op = self.wl.start(inputs)
        again = [self.attempt(op, k, []) for k in range(self.wl.round_size)]
        self.checks.exact("replayed ops give identical outputs", all(
            (a is None) == (b is None) and (a is None or self.wl.same_output(a, b))
            for a, b in zip(records, again)))

    def measure(self, seconds: float):
        """Set up, then whole rounds of ops for ``seconds`` of wall time.

        The calibration kernel runs right before and after every build,
        after every ``CAL_EVERY_S`` seconds of ops and after the last op;
        the block of each op and build is recorded.  Returns the op
        durations.
        """
        self.cal = Calibration(self.wl.kernel)
        inputs = self.setup()
        op = self.wl.start(inputs)
        durations, records = [], []
        k = 0
        since_setup = since_cal = 0.0
        end = self.clock() + seconds
        while self.clock() < end:
            done = len(durations)
            k = self.rounds(op, k, durations, records, 0.0)
            self.op_blocks += [self.cal.block] * (len(durations) - done)
            busy = sum(durations[done:])
            since_setup += busy
            since_cal += busy
            if since_setup >= SETUP_EVERY_S:
                self.setup()
                since_setup = since_cal = 0.0
            elif since_cal >= CAL_EVERY_S:
                self.cal.sample()
                since_cal = 0.0
        if since_cal > 0.0:
            self.cal.sample()
        self.replay(inputs, records)
        self.finish(inputs, records)
        return durations

    def scaled(self, durations) -> tuple[list, list]:
        """The op durations and set-up times, each times its block's factor."""
        f = self.cal.factors()
        return ([d * f[b - 1] for d, b in zip(durations, self.op_blocks)],
                [s * f[b - 1] for s, b in zip(self.setup_times, self.setup_blocks)])

    def trace(self, seconds: float):
        """The set-up traced; then blocks of ops run plain and again traced.

        Each block runs ``TRACE_BLOCK_S`` of ops plain and then the same ops
        with the tracer installed, so that the two halves of a block see the
        machine alike.  Returns the set-up and op tracers and the plain and
        traced durations.
        """
        setup_tr, loop_tr = Tracer(), Tracer()
        setup_tr.install(br)
        try:
            for _ in range(SETUP_REPEATS):
                inputs = self.wl.build()
        finally:
            setup_tr.uninstall()
        plain_op, traced_op = self.wl.start(inputs), self.wl.start(inputs)
        plain, traced, records = [], [], []
        k = 0
        end = self.clock() + seconds
        while self.clock() < end:
            first = k
            k = self.rounds(plain_op, first, plain, records, TRACE_BLOCK_S)
            loop_tr.install(br)
            try:
                for j in range(first, k):
                    loop_tr.op = j
                    again = self.attempt(traced_op, j, traced)
                    self.checks.exact("traced outputs equal plain ones",
                                      (records[j] is None) == (again is None) and
                                      (again is None or self.wl.same_output(records[j], again)))
            finally:
                loop_tr.uninstall()
        self.finish(inputs, records)
        return setup_tr, loop_tr, plain, traced

    def finish(self, inputs, records) -> None:
        records = [r for r in records if r is not None]
        self.summary = {}
        if records:
            self.summary = self.wl.check_run(self.checks, inputs, records)
        else:
            self.checks.exact("at least one op succeeded", False)


# -- metrics --------------------------------------------------------------------

def quartiles(xs):
    if len(xs) < 2:
        return [float(x) for x in xs]
    return [float(q) for q in statistics.quantiles(xs, n=4)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end_metrics(durations, setup_times) -> dict:
    return {
        "ops_per_s": (_ratio(len(durations), sum(durations)), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3 if durations else 0.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def source_lines() -> tuple[int, dict]:
    lines = {}
    for mod in SOURCE_MODULES:
        path = PACKAGE_DIR / f"{mod}.py"
        lines[mod] = len(path.read_text().splitlines()) if path.exists() else 0
    total = sum(len(p.read_text().splitlines()) for p in PACKAGE_DIR.glob("*.py"))
    return total, lines


def layer_metrics(setup: Tracer, loop: Tracer, plain, traced) -> dict:
    """Per-layer figures from the traced ops: means per call unless named."""
    ops = max(len(traced), 1)
    us, ms = 1e6, 1e3

    def where(name):
        # Factorization runs per op on oracle-mc but only in set-up elsewhere.
        return loop if loop.calls(name) else setup

    ctor = "streams.RandomStream.__init__"
    normals = "streams.RandomStream.normals"
    build = "gaussian.build_sampler"
    cov = "variogram.covariance_matrix"
    corr = "gaussian.FactorizedGaussian.correlated_normals"
    sim = "simulator.simulate"
    gen = "simulator.generate_cluster"
    fdd = "distributions.fdd_cdf_oracle"
    pick = "statseval.pickands_coupled"
    theta = "statseval.extremal_index_estimate"
    bt = where(build)
    build_calls = bt.calls(build)
    corr_self = loop.total(corr, self_time=True)
    clusters = loop.counts.get("clusters", 0.0)
    total_lines, lines = source_lines()

    m = {
        "streams.ctor_us": (loop.mean(ctor) * us, "us"),
        "streams.ctor_per_op": (loop.calls(ctor) / ops, "count"),
        "streams.normals_busy_s": (loop.total(normals) / ops, "s"),
        "streams.normals_per_s": (_ratio(loop.counts.get("normals", 0.0),
                                         loop.total(normals)), "1/s"),
        "pointprocess.next_v_us": (loop.mean("pointprocess.VStream.next_v") * us, "us"),
        "pointprocess.sample_anchor_us": (loop.mean("pointprocess.sample_anchor") * us, "us"),
        "variogram.covariance_matrix_ms": (where(cov).mean(cov) * ms, "ms"),
        "gaussian.build_sampler_ms": (bt.mean(build) * ms, "ms"),
        "gaussian.build_sampler_self_ms": (bt.mean(build, self_time=True) * ms, "ms"),
        "gaussian.jitter_attempts": (_ratio(bt.counts.get("jitter_attempts", 0.0),
                                            build_calls), "count"),
        "gaussian.sampler_mb": (_ratio(bt.counts.get("sampler_bytes", 0.0),
                                       build_calls) / 1e6, "MB"),
        "gaussian.sample_drifted_us":
            (loop.mean("gaussian.FactorizedGaussian.sample_drifted") * us, "us"),
        "gaussian.factor_gb_per_s": (_ratio(loop.counts.get("factor_bytes", 0.0),
                                            corr_self) / 1e9, "GB/s"),
        "gaussian.correlated_normals_self_ms": (loop.mean(corr, self_time=True) * ms, "ms"),
        "gaussian.gemm_gflop_per_s": (_ratio(loop.counts.get("gemm_flops", 0.0),
                                             corr_self) / 1e9, "GFLOP/s"),
        "simulator.clusters_per_op": (_ratio(clusters, loop.calls(sim)), "count"),
        "simulator.useful_cluster_ratio": (_ratio(loop.counts.get("useful_clusters", 0.0),
                                                  loop.calls(gen)), "ratio"),
        "simulator.generate_cluster_us": (loop.mean(gen) * us, "us"),
        "simulator.generate_cluster_self_us": (loop.mean(gen, self_time=True) * us, "us"),
        "simulator.loop_self_us_per_cluster":
            (_ratio(loop.total(sim, self_time=True), clusters) * us, "us"),
        "simulator.call_overhead_us":
            (_ratio(loop.total(sim) - loop.total(gen), loop.calls(sim)) * us, "us"),
        "distributions.fdd_cdf_oracle_ms": (loop.mean(fdd) * ms, "ms"),
        "distributions.draws_per_s": (_ratio(loop.counts.get("fdd_draws", 0.0),
                                             loop.total(fdd)), "1/s"),
        "statseval.pickands_coupled_ms": (loop.mean(pick) * ms, "ms"),
        "statseval.extremal_index_estimate_ms": (loop.mean(theta) * ms, "ms"),
        "statseval.draws_per_s": (_ratio(loop.counts.get("statseval_draws", 0.0),
                                         loop.total(pick) + loop.total(theta)), "1/s"),
        "brownresnick.import_s": (IMPORT_S, "s"),
        "src.lines": (total_lines, "lines"),
    }
    for mod in SOURCE_MODULES:
        m[f"src.lines.{mod}"] = (lines[mod], "lines")
    m["trace.overhead_pct"] = ((_ratio(sum(traced), sum(plain)) - 1.0) * 100.0, "%")
    return m


def write_trace(workload: str, seed: int, setup: Tracer, loop: Tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    loop.write(path, {"workload": workload, "seed": seed,
                      "setup_calls": {k: v[0] for k, v in setup.stats.items() if v[0]}})
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.workload == "oracle-mc":
        workload = OracleWorkload(args.seed)
    else:
        workload = SimWorkload(args.workload, args.seed)
    run = Run(workload)
    if args.trace:
        setup_tr, loop_tr, durations, traced = run.trace(args.seconds)
        metrics = layer_metrics(setup_tr, loop_tr, durations, traced)
    else:
        durations = run.measure(args.seconds)
        metrics = end_to_end_metrics(*run.scaled(durations))

    failures = run.checks.failures()
    log = sys.stderr
    log.write(f"{args.workload} seed={args.seed}: {run.attempted} ops attempted, "
              f"{run.failed} failed, {len(run.checks.tests)} statistical tests\n")
    if run.setup_times:
        log.write(f"  set-up: {len(run.setup_times)} timed, quartiles "
                  f"{[round(q * 1e3, 4) for q in quartiles(run.setup_times)]} ms\n")
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1]
        log.write(f"  op p90 {p90 * 1e3:.4g} ms over {len(durations)} ops\n")
    for key, val in run.summary.items():
        log.write(f"  {key}: {val}\n")
    if run.cal is not None:
        raw = end_to_end_metrics(durations, run.setup_times)
        log.write(f"  calibration: {len(run.cal.times)} {run.cal.kernel} kernels, quartiles "
                  f"{[round(q * 1e3, 4) for q in quartiles(run.cal.times)]} ms, factor quartiles "
                  f"{[round(q, 4) for q in quartiles(run.cal.factors())]}; "
                  f"unscaled {', '.join(f'{k} {v:.6g}' for k, (v, _) in raw.items())}\n")
    if args.trace:
        log.write(f"  spans written to {write_trace(args.workload, args.seed, setup_tr, loop_tr)}\n")
    for line in failures[:20]:
        log.write(f"  CHECK FAILED {line}\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
