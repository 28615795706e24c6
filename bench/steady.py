"""Steadiness check: run each workload at several seeds and report spreads.

    python3 bench/steady.py [--workloads sites-5,oracle-mc] [--runs 10]
                            [--first-seed 1] [--seconds S] [--trace 0|1]
                            [--compare bench/out/steady-A.json]

Runs ``bench/run.py`` once per (seed, workload), seeds in the outer loop so
that a slow spell of the machine falls on every workload alike.  For each
metric it prints the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; a spread at or above a third of the bound is flagged.  It
also checks that every run was correct and that the failed share of
operations is the same in every run of a workload.  With ``--compare`` it
also reports each median against that of an earlier output file, flagging
a move in the worse direction larger than the bound.  Results, with each
run's standard error (its unscaled figures among them), are written to
``bench/out/steady-<time>.json``.  Exits 1 when anything was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["log"] = proc.stderr
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            res = run_once(w, seed, args.seconds, args.trace)
            runs[w].append(dict(res, seed=seed))
            print(f"{w} seed {seed}: {res['wall_s']:.1f} s wall, "
                  f"{res['attempted']} attempted, {res['failed']} failed, "
                  f"correct={res['correct']}", flush=True)

    previous = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    flagged = []
    summary: dict[str, dict] = {}
    print(f"\n{'workload':<12} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  {'vs earlier':>10}")
    for w in workloads:
        rs = runs[w]
        if not all(r["correct"] for r in rs):
            flagged.append(f"{w}: a run reported correct=false")
        shares = {r["failed"] / r["attempted"] for r in rs}
        if len(shares) > 1:
            flagged.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        summary[w] = {}
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, sp = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            bound = m.get("bound")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                "values": values}
            note = ""
            if bound is not None and sp >= bound / 3.0:
                note = " SPREAD"
                flagged.append(f"{w} {name}: spread {sp:.3f} >= bound/3 {bound / 3.0:.3f}")
            shift = ""
            if bound is not None and name in previous.get(w, {}):
                before = previous[w][name]["median"]
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                shift = f"{worse:+.3f}"
                if worse > bound:
                    note += " WORSE"
                    flagged.append(f"{w} {name}: median worse by {worse:.3f} > {bound}")
            print(f"{w:<12} {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{'' if bound is None else bound:>6}  {shift:>10}{note}")
        summary[w]["failed_share"] = sorted(shares)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args) | {"compare": str(args.compare)},
                                "summary": summary, "runs": runs}, indent=1))
    print(f"\nwritten to {path}")
    for line in flagged:
        print("FLAG", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
