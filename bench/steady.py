"""Steadiness self-check: run one workload with seeds 1..RUNS, each for
BENCHMARK.json's run_seconds, and compare each metric's spread with its
bound.

    python3 bench/steady.py --workload frontier --runs 10
    python3 bench/steady.py --workload frontier --runs 2 --trace 1

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median and that spread as a share of the metric's bound in BENCHMARK.json;
a spread under a third of the bound is marked "steady".  The spread of the
unscaled seconds is printed beside it, to show what the reference scaling
removes.  With --trace 1 it runs every seed twice and reports, for each
per-layer count, whether it repeated exactly for the same seed and across
seeds.  Runs go one after another, never in parallel, since they time the
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    side, result = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    result["side"] = json.loads(side)
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = []
    seeds = range(1, args.runs + 1)
    for seed in (s for s in seeds for _ in range(1 + args.trace)):
        res = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in res["metrics"].items()
                         if not args.trace), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    ok = all(r["correct"] for r in results) and len(shares) == 1
    if args.trace:
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                same_seed = all(a == b for a, b in zip(vals[::2], vals[1::2]))
                ok = ok and same_seed
                across = "exact" if len(set(vals)) == 1 else sorted(set(vals))
                print(f"{m['name']:40s} same seed: "
                      f"{'exact' if same_seed else 'VARIES'}, "
                      f"across seeds: {across}")
        return 0 if ok else 1
    if args.runs < 4:
        print("spreads need at least 4 runs")
        return 0 if ok else 1
    print(f"{'metric':15s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} {'/bound':>7s} {'raw':>6s}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3, sp = spread(vals)
        ratio = sp / m["bound"]
        steady = ratio < 1 / 3
        ok = ok and sp <= m["bound"]
        raw = [r["side"]["raw_s"].get(m["name"]) for r in results]
        raw_sp = f"{spread(raw)[3]:6.3f}" if None not in raw else "     -"
        print(f"{m['name']:15s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{sp:7.3f} {m['bound']:6.2f} {ratio:7.2f} {raw_sp} "
              f"{'steady' if steady else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
