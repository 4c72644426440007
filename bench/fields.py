"""Build a workload's fields and subfield embeddings, as every ranklab
command does before its real work.

    python3 bench/fields.py SRC '[[[q, e], ...], [[q, small, big], ...]]'

Run as a script, it is the fresh process that setup_s times: it imports
ranklab.cli from SRC and builds the fields, timing itself from its first
statement to the end of the build.  It then runs reference units
(refclock.py) in the same process, so the seconds are scaled by the speed
of the CPU that ran them, and prints {"raw_s": ..., "unit_s": ...}.
run.py also calls build() in-process, so that timed passes find the field
caches warm.
"""

import time

T0 = time.perf_counter()              # interpreter start-up is not timed

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

UNITS = 48


def build(fields, embeds):
    from ranklab.field import embed_serial, make_field
    for q, e in fields:
        make_field(q, e)
    for q, a, b in embeds:
        embed_serial(1, make_field(q, a), make_field(q, b))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import ranklab.cli  # noqa: F401  (every command imports the CLI)
    build(*json.loads(sys.argv[2]))
    raw_s = time.perf_counter() - T0
    import refclock                   # after the build: its imports untimed
    units = [refclock.time_unit() for _ in range(UNITS)]
    print(json.dumps({"raw_s": raw_s, "unit_s": statistics.median(units)}))
