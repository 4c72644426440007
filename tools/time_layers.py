#!/usr/bin/env python3
"""Time ranklab's layers: the lane scans, the family builds, the supports
walk and the evaluation of linearized polynomials at a code's points.

    python3 tools/time_layers.py [SRC]

imports ranklab from SRC/src (default: this checkout) and prints one JSON
object.  Each timing is the median seconds of REPEATS calls (FRONTIER_REPEATS
on a frontier instance, whose calls take seconds), after one untimed call
that builds the fields, codes and lane layouts, and, in a tree that keeps
them on the code object, the low slices of each code's lane walk, which a
CLI call builds once as it loads its instance.  Instances are built at
seed 1 as tools/same_reports.py builds them.  Its sections:

- "lanes": a full gabidulin._lane_walk and gabidulin.ball_by_lanes at
  the instance radius, and the lifted ball of
  subspace_code.verify_lifted_instance at floor(tau_s/2) = tau, one
  subspace_code._listed_distances call on the words of
  gabidulin.exact_ball at the instance radius (the ball, built at a
  budget of the code's size, and the center's lift_word outside the
  timing), on every instance of the q2-exhaustive and odd-exhaustive
  workloads of bench/workloads.py and on the 2^24-word counting
  Gab[12,2]/GF(2^12) of the frontier workload, whose ball the benchmark
  skips as over budget;
- "families": constructions.pigeonhole_subfamily(q, n, r, g, ell) and
  constructions.subfield_linear_family(q, n, r, g) for each parameter set
  of FAMILY_PARAMS: the counting builds of the benchmark's instances, the
  two frontier ones included, and two mid-size builds;
- "supports": gabidulin.ball_by_supports at the instance radius on the two
  Gab[6,3]/GF(2^6) instances of q2-exhaustive, the frontier Gab[8,5]
  and Gab[10,7], whose supports walk tools/same_reports.py runs as
  ball-wide, and the two dense exhaustive instances Gab[8,1]/GF(2^16)
  and Gab[6,1]/GF(3^6), timed FRONTIER_REPEATS times, where a walk of
  every support takes seconds; "nodes" counts the nodes, the root
  included, of the walk it hands gfmatrix.tagged_walk;
- "exact_ball": gabidulin.exact_ball at the instance radius on every
  instance of the q2-exhaustive and odd-exhaustive workloads: the oracle
  it runs ("lanes" where it calls gabidulin.ball_by_lanes, else
  "supports"), the nodes, root included, of the full supports walk,
  sum_{t<=tau} [n,t]_q, and of the walk through e_0, 1 + sum_{1<=t<=tau}
  [n-1,t-1]_q, and its seconds on a fresh copy of the code object per
  call, so that the membership system, the Singer tables and the lane
  walk's low slices are built inside the timing, as a CLI call builds
  them;
- "evaluation": gabidulin.evaluate_word at every family member of the
  frontier explicit instances Gab[8,5] and Gab[10,7], and the codeword
  check of adversarial.verify_instance on its own
  (adversarial.codewords_check);
- "listed": the listed-word check of subspace_code.verify_lifted_instance,
  the sorted distinct lifted distances of the listed codewords from the
  lifted center and the number within 2 tau, on every instance of the
  three workloads, with the center's lift_word outside the timing
  (subspace_code._listed_distances).

Two source trees are compared by running it on each:

    python3 tools/time_layers.py /path/to/parent-checkout
    python3 tools/time_layers.py .

Standard library only; nothing under bench/ imports it.
"""

import dataclasses
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 7
FRONTIER_REPEATS = 3
LANE_WORKLOADS = ("q2-exhaustive", "odd-exhaustive")
LANE_FRONTIER = ("q2-counting-gab12-2-g3",)
FAMILY_PARAMS = [
    (2, 6, 4, 2, 0),    # q2-counting-gab6-3
    (3, 4, 2, 2, 0),    # q3-counting-gab4-2
    (2, 8, 4, 2, 1),
    (3, 8, 4, 2, 1),
    (2, 10, 6, 2, 1),   # q2-counting-gab10-5 (frontier)
    (2, 12, 6, 3, 1),   # q2-counting-gab12-2-g3 (frontier)
]
SUPPORT_CASES = ("q2-counting-gab6-3", "q2-explicit-gab6-3",
                 "q2-explicit-gab8-5", "q2-explicit-gab10-7",
                 "q2-explicit-gab8-1-m16", "q3-explicit-gab6-1-g3")
DENSE_SUPPORTS = ("q2-explicit-gab8-1-m16", "q3-explicit-gab6-1-g3")
EVALUATION_CASES = ("q2-explicit-gab8-5", "q2-explicit-gab10-7")


def median_seconds(repeats, fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 5)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: time_layers.py [SRC]", file=sys.stderr)
        return 2
    src = os.path.abspath(args[0] if args else os.path.join(HERE, ".."))
    if not os.path.isdir(os.path.join(src, "src", "ranklab")):
        print(f"no src/ranklab under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(HERE, "..", "bench"))
    from workloads import WORKLOADS
    from ranklab import adversarial, gabidulin, gfmatrix
    from ranklab.adversarial import (
        build_counting_instance,
        build_explicit_instance,
    )
    from ranklab.constructions import (
        pigeonhole_subfamily,
        subfield_linear_family,
    )
    from ranklab.subspace import gaussian_binomial
    from ranklab.subspace_code import _listed_distances, lift_word

    frontier = {inst.name: inst for inst in WORKLOADS["frontier"].instances}
    exhaustive = {inst.name: inst for name in LANE_WORKLOADS
                  for inst in WORKLOADS[name].instances}

    def build(name):
        """The built instance and its repeats."""
        inst = exhaustive.get(name) or frontier[name]
        beta = inst.beta_exponent(1)
        if inst.kind == "counting":
            built = build_counting_instance(inst.q, inst.n, inst.m, inst.k,
                                            inst.g, beta)
        else:
            built = build_explicit_instance(inst.q, inst.g, inst.s, inst.n,
                                            inst.m, beta)
        repeats = FRONTIER_REPEATS if name in frontier else REPEATS
        return built, repeats

    lanes = []
    for name in [*exhaustive, *LANE_FRONTIER]:
        built, repeats = build(name)
        code, center, tau = built.code, built.center, built.tau
        ball = gabidulin.exact_ball(code, center, tau, code.size)

        def walk():
            for _ in gabidulin._lane_walk(code):
                pass

        lanes.append({
            "instance": name,
            "code": repr(code),
            "words": code.size,
            "lanes": code.q ** gabidulin._lane_digits(code),
            "lane_walk_s": median_seconds(repeats, walk),
            "ball_by_lanes_s": median_seconds(
                repeats, gabidulin.ball_by_lanes, code, center, tau),
            "lifted_ball_s": median_seconds(
                repeats, _listed_distances, lift_word(center), ball, tau),
        })
    families = [{
        "params": [q, n, r, g, ell],
        "pigeonhole_subfamily_s": median_seconds(
            REPEATS, pigeonhole_subfamily, q, n, r, g, ell),
        "subfield_linear_family_s": median_seconds(
            REPEATS, subfield_linear_family, q, n, r, g),
    } for q, n, r, g, ell in FAMILY_PARAMS]

    def walked(code, center, tau):
        """The ball's size and the nodes of the walk that ball_by_supports
        hands gfmatrix.tagged_walk."""
        nodes, tagged_walk = [], gfmatrix.tagged_walk

        def counted(walk, *args):
            return tagged_walk((nodes.append(1) or rows for rows in walk),
                               *args)

        gfmatrix.tagged_walk = counted
        try:
            ball = gabidulin.ball_by_supports(code, center, tau)
        finally:
            gfmatrix.tagged_walk = tagged_walk
        return len(ball), len(nodes)

    supports = []
    for name in SUPPORT_CASES:
        built, repeats = build(name)
        code, center, tau = built.code, built.center, built.tau
        ball, nodes = walked(code, center, tau)
        supports.append({
            "instance": name,
            "code": repr(code),
            "tau": tau,
            "ball": ball,
            "nodes": nodes,
            "ball_by_supports_s": median_seconds(
                FRONTIER_REPEATS if name in DENSE_SUPPORTS else repeats,
                gabidulin.ball_by_supports, code, center, tau),
        })

    def oracle(code, center, tau):
        """The oracle exact_ball runs on the center at tau."""
        ran, lanes = [], gabidulin.ball_by_lanes
        gabidulin.ball_by_lanes = lambda *args: ran.append(1) or lanes(*args)
        try:
            gabidulin.exact_ball(code, center, tau)
        finally:
            gabidulin.ball_by_lanes = lanes
        return "lanes" if ran else "supports"

    exact = []
    for name in exhaustive:
        built, repeats = build(name)
        code, center, tau = built.code, built.center, built.tau
        q, n = code.q, code.n
        exact.append({
            "instance": name,
            "code": repr(code),
            "tau": tau,
            "oracle": oracle(code, center, tau),
            "full_nodes": sum(gaussian_binomial(n, t, q)
                              for t in range(tau + 1)),
            "e0_nodes": 1 + sum(gaussian_binomial(n - 1, t - 1, q)
                                for t in range(1, tau + 1)),
            "exact_ball_s": median_seconds(
                repeats, lambda: gabidulin.exact_ball(
                    dataclasses.replace(code), center, tau)),
        })
    evaluation = []
    for name in EVALUATION_CASES:
        # milliseconds a call, so REPEATS on the frontier too
        built = build(name)[0]
        code, members = built.code, built.family.members
        evaluation.append({
            "instance": name,
            "code": repr(code),
            "members": len(members),
            "evaluate_word_s": median_seconds(
                REPEATS, lambda: [gabidulin.evaluate_word(code, member)
                                  for member in members]),
            "codewords_check_s": median_seconds(
                REPEATS, adversarial.codewords_check, built),
        })
    listed = []
    for name in [*exhaustive, *frontier]:
        # milliseconds a call, so REPEATS on the frontier too
        built = build(name)[0]
        center = lift_word(built.center)
        dists, count = _listed_distances(center, built.codewords, built.tau)
        listed.append({
            "instance": name,
            "code": repr(built.code),
            "words": len(built.codewords),
            "distances": dists,
            "listed": count,
            "listed_s": median_seconds(REPEATS, _listed_distances, center,
                                       built.codewords, built.tau),
        })
    print(json.dumps({
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "frontier_repeats": FRONTIER_REPEATS,
        "lanes": lanes,
        "families": families,
        "supports": supports,
        "exact_ball": exact,
        "evaluation": evaluation,
        "listed": listed,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
