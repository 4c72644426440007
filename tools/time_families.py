#!/usr/bin/env python3
"""Time the subfield-linear family and its pigeonhole subfamily.

    python3 tools/time_families.py [SRC]

imports ranklab from SRC/src (default: this checkout) and prints one JSON
object: for each parameter set (q, n, r, g, ell) in PARAMS, the median
seconds of REPEATS calls of constructions.pigeonhole_subfamily(q, n, r, g,
ell) and of constructions.subfield_linear_family(q, n, r, g), after one
untimed call of each that builds their fields.  PARAMS holds the counting
builds of the benchmark's instances, the two frontier ones
(Gab[10,5]/GF(2^10) and Gab[12,2]/GF(2^12)) included, and two mid-size
builds.  Two source trees are compared by running it on each:

    python3 tools/time_families.py /path/to/parent-checkout
    python3 tools/time_families.py .

Standard library only; nothing under bench/ imports it.
"""

import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 9
PARAMS = [
    (2, 6, 4, 2, 0),    # q2-counting-gab6-3
    (3, 4, 2, 2, 0),    # q3-counting-gab4-2
    (2, 8, 4, 2, 1),
    (3, 8, 4, 2, 1),
    (2, 10, 6, 2, 1),   # q2-counting-gab10-5 (frontier)
    (2, 12, 6, 3, 1),   # q2-counting-gab12-2-g3 (frontier)
]


def median_seconds(fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: time_families.py [SRC]", file=sys.stderr)
        return 2
    src = os.path.abspath(args[0] if args else os.path.join(HERE, ".."))
    if not os.path.isdir(os.path.join(src, "src", "ranklab")):
        print(f"no src/ranklab under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(src, "src"))
    from ranklab.constructions import (
        pigeonhole_subfamily,
        subfield_linear_family,
    )

    results = []
    for q, n, r, g, ell in PARAMS:
        results.append({
            "params": [q, n, r, g, ell],
            "pigeonhole_subfamily_s": round(
                median_seconds(pigeonhole_subfamily, q, n, r, g, ell), 5),
            "subfield_linear_family_s": round(
                median_seconds(subfield_linear_family, q, n, r, g), 5),
        })
    print(json.dumps({
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "results": results,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
