"""Command-line front end.

Subcommands build instances (gen-counting, gen-explicit), re-verify them
(verify, lift-verify), run the exact ball oracle (ball), print bound
tables (bounds), and evaluate the radius comparison (compare-radius).
Artifacts are JSON with sorted keys; identical configurations produce
byte-identical files.  Exit codes: 0 ok, 1 verification failed, 2 bad
configuration (with a JSON error object on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from ranklab.adversarial import (
    build_counting_instance,
    build_explicit_instance,
    compare_radius_to_prior,
    counting_bound,
    counting_divides,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    list_bound,
    radius_window,
    verify_instance,
)
from ranklab.errors import (
    BadParameters,
    DivisibilityViolation,
    NotPrime,
    RanklabError,
)
from ranklab.field import is_prime
from ranklab.gabidulin import (
    BALL_BUDGET,
    check_code_params,
    exact_ball,
    johnson_like_radius,
    prior_counting_bound,
)
from ranklab.subspace_code import verify_lifted_instance


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process: parse_args keeps no state in it, each call
    starts from a fresh namespace and the parser's defaults."""
    parser = argparse.ArgumentParser(
        prog="ranklab",
        description="Construct and certify adversarial list-decoding "
                    "instances for Gabidulin codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=BALL_BUDGET,
                       help="max enumeration count for oracles")

    def add_gen_options(p):
        p.add_argument("--beta-exp", type=int, default=0)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for callers that pass one; it changes "
                            "no output and no check")
        p.add_argument("--pretty", action="store_true",
                       help="add human-readable coefficient tuples")

    p = sub.add_parser("gen-counting",
                       help="build a counting-route instance")
    for flag in ("--q", "--n", "--m", "--k", "--g"):
        p.add_argument(flag, type=int, required=True)
    add_gen_options(p)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("gen-explicit",
                       help="build an explicit-route instance")
    for flag in ("--q", "--g", "--s", "--n", "--m"):
        p.add_argument(flag, type=int, required=True)
    add_gen_options(p)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="re-verify an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the report JSON here")
    add_budget(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("ball", help="exact ball oracle count")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau", type=int, help="override the instance radius")
    p.add_argument("--out", help="write the codeword list here")
    add_budget(p)
    p.set_defaults(run=_cmd_ball)

    p = sub.add_parser("bounds", help="print the bound table")
    for flag in ("--q", "--n", "--m", "--k", "--g"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--out", help="write the table as JSON here")
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("lift-verify",
                       help="subspace-level checks of an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau-s", type=int, dest="tau_s",
                   help="subspace radius (default 2*tau)")
    p.add_argument("--out", help="write the report JSON here")
    add_budget(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("compare-radius",
                       help="our radius vs the prior square-root radius")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_compare_radius)

    return parser


def _load_instance(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return instance_from_dict(json.load(fh))


def _write(path: str, text: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _check_ranges(args):
    """Reject a budget below 1 and a negative radius before any file is
    read or oracle run: a mistyped value is a bad parameter, not a verdict."""
    if getattr(args, "budget", 1) < 1:
        raise BadParameters(f"--budget must be at least 1, got {args.budget}")
    for flag, value in (("--tau", getattr(args, "tau", None)),
                        ("--tau-s", getattr(args, "tau_s", None))):
        if value is not None and value < 0:
            raise BadParameters(f"{flag} must be at least 0, got {value}")


def _cmd_gen(args) -> int:
    if args.command == "gen-explicit":
        inst = build_explicit_instance(args.q, args.g, args.s, args.n,
                                       args.m, args.beta_exp)
    else:
        inst = build_counting_instance(args.q, args.n, args.m, args.k,
                                       args.g, args.beta_exp)
    _write(args.out, dump_json(instance_to_dict(inst, pretty=args.pretty)))
    print(f"wrote {args.out}: {inst.kind} instance, "
          f"{len(inst.codewords)} codewords at radius {inst.tau}"
          + (" (degenerate)" if inst.degenerate else ""))
    return 0


def _cmd_verify(args) -> int:
    """verify and lift-verify: one report handling around their verifier."""
    inst = _load_instance(args.infile)
    if args.command == "lift-verify":
        report = verify_lifted_instance(inst, tau_s=args.tau_s,
                                        budget=args.budget)
    else:
        report = verify_instance(inst, ball_budget=args.budget)
    text = dump_json(report.to_dict())
    if args.out:
        _write(args.out, text)
    for c in report.checks:
        print(f"{c.name}: {c.status}")
    print("all passed" if report.all_passed else "FAILED")
    return 0 if report.all_passed else 1


def _cmd_ball(args) -> int:
    inst = _load_instance(args.infile)
    tau = args.tau if args.tau is not None else inst.tau
    ball = exact_ball(inst.code, inst.center, tau, budget=args.budget)
    print(len(ball))
    if args.out:
        _write(args.out, dump_json({
            "format": "ranklab.ball/v1", "tau": tau, "count": len(ball),
            "codewords": [list(w.coords) for w in ball]}))
    return 0


def _cmd_bounds(args) -> int:
    q, n, m, k, g, s = args.q, args.n, args.m, args.k, args.g, args.s
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")
    check_code_params(n, m, k)
    if g < 1 or s < 1:
        raise DivisibilityViolation(f"need g >= 1 and s >= 1, got g={g}, "
                                    f"s={s}")
    d = n - k + 1
    jr = johnson_like_radius(n, m, d, 0)
    rows = []
    for tau in radius_window(n, k):
        prior = prior_counting_bound(q, n, m, k, tau)
        entry = {"tau": tau, "prior": _frac_str(prior),
                 "prior_vacuous": prior < 1,
                 "counting": None, "simplified": None, "explicit": None}
        if counting_divides(n, g, tau):
            exact, simp = counting_bound(q, n, g, tau)
            entry["counting"] = _frac_str(exact)
            entry["simplified"] = simp
        if tau == g * s:
            entry["explicit"] = list_bound("explicit", q, n, k, g, tau)
        rows.append(entry)
    print(f"Gab[{n},{k}] over GF({q}^{m}), d={d}, "
          f"unique decoding radius {(d - 1) // 2}")
    print(f"johnson-like radius (eps=0): {jr:.9f}")
    header = f"{'tau':>4} {'prior':>16} {'counting':>12} " \
             f"{'simplified':>12} {'explicit':>10}"
    print(header)
    for e in rows:
        print(f"{e['tau']:>4} "
              f"{e['prior'] + (' (<1)' if e['prior_vacuous'] else ''):>16} "
              f"{str(e['counting'] or '-'):>12} "
              f"{str(e['simplified'] or '-'):>12} "
              f"{str(e['explicit'] or '-'):>10}")
    if args.out:
        _write(args.out, dump_json({
            "format": "ranklab.bounds/v1",
            "params": {"q": q, "n": n, "m": m, "k": k, "g": g, "s": s},
            "johnson_like_radius": jr, "rows": rows}))
    return 0


def _cmd_compare_radius(args) -> int:
    cmp = compare_radius_to_prior(args.i, args.n)
    print(f"tau = n/2^(i+1) = {cmp.tau}")
    print(f"tau' (with 2/n term)    = {cmp.tau_prime:.9f}")
    print(f"tau' (asymptotic)       = {cmp.tau_prime_asymptotic:.9f}")
    print(f"technical inequality holds: {cmp.inequality_holds}")
    print(f"tau < tau': {cmp.verdict}")
    return 0


def main(argv=None) -> int:
    # Exact bounds can exceed CPython's 4,300-digit limit on str(int); lift
    # it while main runs and restore it for callers that run main in-process.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_ranges(args)
        return args.run(args)
    except (RanklabError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
