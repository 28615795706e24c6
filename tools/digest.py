"""Print a SHA-256 of the output bytes of fixed-seed runs, one per group.

Usage::

    PYTHONPATH=src python tools/digest.py

The determinism contract is: same seed, same library stack, same bytes.
This tool checks it across runs, CPU counts and commits.  Two runs on one
machine must print the same lines, and so must a run pinned to one CPU
(``taskset -c 0``).  To show that a change keeps the output bytes, diff the
tool's output at the parent commit against its output at the change, on
the same library stack; the first lines name numpy and its BLAS.

Groups:

* ``sampler <site set> counts`` and ``... values``: ``replications``
  (``REPS`` samples), ``simulate`` and ``simulate_naive`` on each site set,
  at each alpha in ``ALPHAS`` and seed in ``SEEDS``.  ``counts`` hashes
  ``num_clusters`` and ``v_trace``; ``values`` hashes the values and
  ``bound_gap``.  So a change that moves values only by rounding keeps
  the counts lines.
* ``oracle <name>``: the four Monte Carlo oracles and ``pickands_estimate``
  at the same alphas and seeds.
* ``cli <subcommand>``: stdout, exit status and every file written by each
  of the six subcommands, ``simulate`` with ``--no-timing``.

No golden digest is stored: the bytes depend on the library stack.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brownresnick as br  # noqa: E402
from brownresnick import cli  # noqa: E402

ALPHAS = (0.5, 1.0, 1.5, 2.0)
SEEDS = (0, 17, 2 ** 63 + 91)
REPS = 20
NAIVE_TRUNCATION = 100
ORACLE_REPS = 4096

_PLANE = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
SITE_SETS = {
    "sites-5": ([0.0, 0.2, 0.45, 0.7, 1.0], [0.6, 0.1, 0.1, 0.1, 0.1]),
    "line-65": (br.box_grid(0.0, 4.0, 1.0 / 16.0), None),
    "plane-9x9": (br.box_grid([0.0, 0.0], [2.0, 2.0], 0.25), None),
    "plane-17x17": (br.box_grid([0.0, 0.0], [4.0, 4.0], 0.25), None),
    # Duplicates and two rows at the origin: rows that share a factor row
    # and rows that are pinned to zero.
    "sites-7-dup-origin": (np.vstack([[0.0, 0.0], _PLANE, [0.0, 0.0], _PLANE[1:]]),
                           None),
}


def _hash(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _model(alpha, points) -> br.VariogramModel:
    return br.VariogramModel(alpha=alpha, dim=br.SiteSet(points).dim)


def sampler_groups():
    for name, (points, weights) in SITE_SETS.items():
        counts, values = [], []
        for alpha in ALPHAS:
            model = _model(alpha, points)
            measure = None if weights is None else br.SamplingMeasure(weights)
            for seed in SEEDS:
                samples = list(br.replications(points, model, REPS, measure, seed))
                samples.append(br.simulate(points, model, measure, seed))
                samples.append(br.simulate_naive(points, model, seed, NAIVE_TRUNCATION))
                for fs in samples:
                    counts += [fs.num_clusters, np.asarray(fs.v_trace).tobytes()]
                    values += [fs.values.tobytes(), np.float64(fs.bound_gap).tobytes()]
        yield f"sampler {name} counts", _hash(counts)
        yield f"sampler {name} values", _hash(values)


def _estimate(e) -> bytes:
    return np.array([e.value, e.std_error, e.reps], dtype=np.float64).tobytes()


def oracle_groups():
    line = br.box_grid(0.0, 2.0, 0.25)
    calls = {
        "fdd_cdf_oracle": lambda m, s: _estimate(
            br.fdd_cdf_oracle(line, m, np.linspace(0.5, 2.5, len(line)), ORACLE_REPS, s)),
        "change_of_measure_check": lambda m, s: np.float64(
            br.change_of_measure_check(m, line, 0.75, ORACLE_REPS, s)).tobytes(),
        "pickands_coupled": lambda m, s: b"".join(
            _estimate(e) for e in br.pickands_coupled(
                m, [line[:3], line[2:6], line], ORACLE_REPS, s)),
        "extremal_index_estimate": lambda m, s: _estimate(
            br.extremal_index_estimate(m, 8, ORACLE_REPS, s)),
        "pickands_estimate": lambda m, s: _estimate(
            br.pickands_estimate(m, (0.0, 2.0), 0.5, ORACLE_REPS, s)),
    }
    for name, call in calls.items():
        yield f"oracle {name}", _hash(call(br.VariogramModel(alpha=alpha), seed)
                                      for alpha in ALPHAS for seed in SEEDS)


CLI_RUNS = {
    "simulate": ["simulate", "--grid", "0:2:0.25,0:1:0.25", "--alpha", "1.5",
                 "--reps", "20", "--seed", "17", "--out", "values.csv",
                 "--diag", "diag.json", "--no-timing"],
    "oracle": ["oracle", "--grid", "0:2:0.5", "--alpha", "1", "--y", "1.5",
               "--reps", "20000", "--seed", "17"],
    "validate": ["validate", "--alpha", "1", "--reps", "300", "--seed", "17"],
    "pickands": ["pickands", "--alpha", "1", "--N", "2", "--mesh", "0.25",
                 "--reps", "20000", "--seed", "17"],
    "theta": ["theta", "--alpha", "1", "--n", "8", "--reps", "20000", "--seed", "17"],
    "clusters": ["clusters", "--grid", "0:2:0.25", "--alphas", "0.5,1,2",
                 "--reps", "50", "--seed", "17", "--out", "counts.csv"],
}


def cli_groups():
    for name, argv in CLI_RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            out = io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out):
                    try:
                        status = cli.main(argv)
                    except SystemExit as exc:
                        status = exc.code
                files = [(p.name, p.read_bytes()) for p in sorted(Path(tmp).iterdir())]
            finally:
                os.chdir(here)
        yield f"cli {name}", _hash([status, out.getvalue()] + files)


def library_stack() -> list:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return [f"numpy {np.__version__}",
            f"blas {blas.get('name', '?')} {blas.get('version', '?')}"]


def main() -> int:
    for line in library_stack():
        print(line)
    for groups in (sampler_groups, oracle_groups, cli_groups):
        for name, digest in groups():
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
