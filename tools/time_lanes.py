#!/usr/bin/env python3
"""Time the lane scans: the codeword walk, the lane ball and the lifted count.

    python3 tools/time_lanes.py [SRC]

imports ranklab from SRC/src (default: this checkout) and prints one JSON
object: for each instance of CASES, built at seed 1 as tools/same_reports.py
builds it, the median seconds of REPEATS calls of a full
gabidulin._lane_walk, of gabidulin.ball_by_lanes at the instance radius and
of subspace_code.lifted_count at floor(tau_s/2) = tau, after one untimed
call of each that builds their fields, codes and lane layouts.  CASES holds
every instance of the q2-exhaustive and odd-exhaustive workloads of
bench/workloads.py, and the 2^24-word counting Gab[12,2]/GF(2^12) of the
frontier workload, whose ball the benchmark skips as over budget; it runs
FRONTIER_REPEATS times.  Two source trees are compared by running it on
each:

    python3 tools/time_lanes.py /path/to/parent-checkout
    python3 tools/time_lanes.py .

Standard library only; nothing under bench/ imports it.
"""

import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 7
FRONTIER_REPEATS = 2
WORKLOADS = ("q2-exhaustive", "odd-exhaustive")
FRONTIER = "q2-counting-gab12-2-g3"


def median_seconds(repeats, fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: time_lanes.py [SRC]", file=sys.stderr)
        return 2
    src = os.path.abspath(args[0] if args else os.path.join(HERE, ".."))
    if not os.path.isdir(os.path.join(src, "src", "ranklab")):
        print(f"no src/ranklab under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(HERE, "..", "bench"))
    from workloads import WORKLOADS as ALL
    from ranklab import gabidulin
    from ranklab.adversarial import (
        build_counting_instance,
        build_explicit_instance,
    )
    from ranklab.subspace_code import lift_word, lifted_count

    cases = [(inst, REPEATS) for name in WORKLOADS
             for inst in ALL[name].instances]
    cases += [(inst, FRONTIER_REPEATS) for inst in ALL["frontier"].instances
              if inst.name == FRONTIER]
    results = []
    for inst, repeats in cases:
        beta = inst.beta_exponent(1)
        if inst.kind == "counting":
            built = build_counting_instance(inst.q, inst.n, inst.m, inst.k,
                                            inst.g, beta)
        else:
            built = build_explicit_instance(inst.q, inst.g, inst.s, inst.n,
                                            inst.m, beta)
        code, center, tau = built.code, built.center, built.tau
        lifted = lift_word(center)

        def walk():
            for _ in gabidulin._lane_walk(code):
                pass

        results.append({
            "instance": inst.name,
            "code": repr(code),
            "words": code.size,
            "lanes": code.q ** gabidulin._lane_digits(code),
            "lane_walk_s": round(median_seconds(repeats, walk), 5),
            "ball_by_lanes_s": round(median_seconds(
                repeats, gabidulin.ball_by_lanes, code, center, tau), 5),
            "lifted_count_s": round(median_seconds(
                repeats, lifted_count, code, lifted, tau), 5),
        })
    print(json.dumps({
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "frontier_repeats": FRONTIER_REPEATS,
        "results": results,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
