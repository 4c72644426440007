"""Recompute the exact ball sizes in ball_sizes.json by brute force.

    python3 bench/ball_sizes.py            # compare with the stored sizes
    python3 bench/ball_sizes.py --write    # store the recomputed sizes

For every instance of the exhaustive workloads, the CLI builds the instance
at a few seeds (each a different code shift); oracle.brute_force_ball then
walks the whole code in the benchmark's own arithmetic.  The size must not
depend on the seed and the listed codewords must all lie in the ball.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import checks
import oracle
from run import OUT, cli_call, import_cli, read_json
from workloads import WORKLOADS

EXHAUSTIVE = ("q2-exhaustive", "odd-exhaustive")
SEEDS = (0, 1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    cli = import_cli()
    stored = checks.load_ball_sizes()
    workdir = os.path.join(OUT, f"ball-sizes-{os.getpid()}")
    os.makedirs(workdir)
    sizes, ok = {}, True
    try:
        for wname in EXHAUSTIVE:
            for inst in WORKLOADS[wname].instances:
                path = os.path.join(workdir, f"{inst.name}.json")
                found = set()
                t0 = time.perf_counter()
                for seed in SEEDS:
                    rc, _ = cli_call(cli, inst.gen_argv(seed, path))
                    data = read_json(path)
                    ball = set(oracle.ball_of_instance(data))
                    listed = {tuple(w) for w in data["codewords"]}
                    if rc != 0 or not listed <= ball:
                        print(f"{inst.name} seed {seed}: rc={rc}, list in "
                              f"ball: {listed <= ball}")
                        ok = False
                    found.add(len(ball))
                size = found.pop() if len(found) == 1 else None
                same = size is not None and stored.get(inst.name) == size
                ok = ok and size is not None and (same or args.write)
                sizes[inst.name] = size
                print(f"{inst.name}: ball {size} (stored "
                      f"{stored.get(inst.name)}), "
                      f"{time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.write and ok:
        with open(checks.BALL_SIZES_FILE, "w", encoding="ascii") as fh:
            json.dump(sizes, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
