"""Checks of the CLI's output files against the benchmark's own oracle.

Each check returns (name, ok, detail).  Exact ball sizes come from
ball_sizes.json, which ball_sizes.py recomputes by brute force in
oracle.py; nothing is compared with a stored copy of the program's output.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Dict, List, Optional, Tuple

import oracle
from workloads import Instance

Check = Tuple[str, bool, str]

BALL_SIZES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "ball_sizes.json")


def load_ball_sizes() -> Dict[str, int]:
    with open(BALL_SIZES_FILE, encoding="ascii") as fh:
        return json.load(fh)


def list_bound(inst: Instance) -> Tuple[int, int]:
    """(radius, list-size bound) from the paper's formulas."""
    if inst.kind == "explicit":
        return inst.g * inst.s, oracle.explicit_list_size(
            inst.q, inst.n, inst.g, inst.s)
    tau = oracle.counting_radius(inst.n, inst.k, inst.g)
    return tau, oracle.counting_list_bound(inst.q, inst.n, inst.g, tau)


def check_instance_file(inst: Instance, data: dict) -> List[Check]:
    """List size, radius, exact distances and pairwise separation."""
    q, m = inst.q, inst.m
    tau, bound = list_bound(inst)
    cws = data["codewords"]
    center = data["center"]
    size_ok = (data["tau"] == tau and data["code"]["k"] == inst.dim
               and data["claimed_bound"] == bound
               and (len(cws) == bound if inst.kind == "explicit"
                    else len(cws) >= bound))
    checks = [("list_size", size_ok,
               f"tau={data['tau']}/{tau} list={len(cws)} bound={bound} "
               f"claimed={data['claimed_bound']}")]
    dists = sorted({oracle.rank_distance(center, w, q, m) for w in cws})
    checks.append(("distances_exactly_tau", dists == [tau],
                   f"distances {dists}, tau {tau}"))
    d = inst.n - inst.dim + 1
    closest = min((oracle.rank_distance(a, b, q, m)
                   for a, b in itertools.combinations(cws, 2)), default=d)
    checks.append(("pairwise_at_least_d", closest >= d,
                   f"closest pair {closest}, d {d}"))
    return checks


def _by_name(report: dict) -> Dict[str, dict]:
    return {c["name"]: c for c in report["checks"]}


def check_verify_report(inst: Instance, data: dict, report: dict,
                        exact: Optional[int]) -> Tuple[Check, List[str]]:
    """Every check passes; when the ball oracle ran, the list sits in a
    ball of the exact size that is at least the bound.  Where the exact
    size is known the code is small enough to enumerate, so the oracle
    must have run."""
    checks = _by_name(report)
    ball = checks.get("ball_oracle_containment", {})
    ok = report["all_passed"] and all(c["status"] != "fail"
                                      for c in checks.values())
    detail = f"all_passed={report['all_passed']}"
    if exact is not None and ball.get("status") != "pass":
        ok = False
        detail += f" ball oracle {ball.get('status', 'missing')}"
    if ball.get("status") == "pass":
        _, bound = list_bound(inst)
        size = ball["measured"]
        ok = ok and size >= len(data["codewords"]) and size >= bound \
            and (exact is None or size == exact)
        detail += f" ball={size} exact={exact} bound={bound}"
    skipped = [c["name"] for c in report["checks"]
               if c["status"] == "skipped"]
    return ("verify_report", ok, detail), skipped


def check_lift_report(inst: Instance, data: dict, report: dict,
                      exact: Optional[int]) -> Tuple[Check, List[str]]:
    """Every lifted distance is 2 tau, the lifted ball holds the rank ball,
    and the lifted bound is the paper's.  Where the exact size is known,
    the ball relation must have run."""
    checks = _by_name(report)
    tau = data["tau"]
    _, bound = list_bound(inst)
    dists = checks["lifted_distances_within_radius"]["measured"]
    lifted_bound = checks[f"lifted_{inst.kind}_bound"]
    ok = (report["all_passed"] and dists == [2 * tau]
          and lifted_bound["status"] == "pass"
          and lifted_bound["measured"] == len(data["codewords"])
          and lifted_bound["expected"] >= bound)
    detail = f"lifted distances {dists}, bound {lifted_bound['expected']}"
    rel = checks.get("ball_relation_inequality", {})
    if exact is not None and rel.get("status") != "pass":
        ok = False
        detail += f" ball relation {rel.get('status', 'missing')}"
    if rel.get("status") == "pass":
        ok = ok and rel["measured"] >= rel["expected"] \
            and (exact is None or rel["expected"] == rel["measured"] == exact)
        detail += f" lifted ball={rel['measured']} rank ball={rel['expected']}"
    skipped = [c["name"] for c in report["checks"]
               if c["status"] == "skipped"]
    return ("lift_report", ok, detail), skipped
