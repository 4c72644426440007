#!/usr/bin/env python3
"""Write every benchmark instance's CLI outputs, for a byte-for-byte diff.

For each instance of every workload in bench/workloads.py, at seed 1, this
runs `gen-*`, `verify --out`, `lift-verify --out`, `lift-verify --tau-s
<2 tau + 2> --out` (tau the instance radius; floor(tau_s/2) = tau + 1, where
the lifted ball may hold more than the rank-level ball), `lift-verify
--tau-s <2 tau - 1> --out` (floor(tau_s/2) = tau - 1, where the lifted ball
falls below the rank-level ball, so the report fails with exit 1), `ball
--out`, `ball --tau <d - 1> --out` and `bounds --out` (with the instance's
q, n, m, k, g and s) with the ranklab found in SRC/src and writes into
OUTDIR:

    <instance>.instance.json            the gen output
    <instance>.verify.json              the verify report
    <instance>.lift-verify.json         the lift-verify report
    <instance>.lift-verify-wide.json    the lift-verify report at 2 tau + 2
    <instance>.lift-verify-narrow.json  the lift-verify report at 2 tau - 1
    <instance>.ball.json                the exact ball at the instance
                                        radius
    <instance>.ball-wide.json           the same ball, with the budget
                                        raised to the code's size (see
                                        below)
    <instance>.ball-dense.json          the exact ball at radius d - 1,
                                        the largest below the minimum
                                        distance d = n - k + 1: where the
                                        supports oracle runs there, its
                                        walk meets the most hits (1,101
                                        words on each q = 2 Gab[6,3])
    <instance>.bounds.json              the bound table
    <instance>.<stage>.log              exit code, stdout and stderr of
                                        each call, stage being one of gen,
                                        verify, lift-verify,
                                        lift-verify-wide,
                                        lift-verify-narrow, ball, ball-wide,
                                        ball-dense and bounds

A code over the ball budget writes no ball or ball-dense file; its ball
and ball-dense logs record the exit code 2 and the BudgetExceeded error.
Where such a code has at most WIDE_SUPPORTS error supports of rank <= tau
(sum_{t<=tau} [n,t]_q), `ball --budget <q^(mk)> --out` also runs, so the
supports oracle reaches the byte diff on a code beyond brute force.

Paths handed to the CLI are relative to OUTDIR, so the logs do not name it.
Two source trees give the same reports iff `diff -r` of their OUTDIRs is
empty:

    python3 tools/same_reports.py /path/to/parent-checkout /tmp/parent
    python3 tools/same_reports.py . /tmp/change
    diff -r /tmp/parent /tmp/change

The instance list comes from this checkout's bench/, so both runs use the
same one; each run imports only the ranklab of its SRC.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
WIDE_SUPPORTS = 1 << 18


def run_stage(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # recorded, so that a diff shows it
            rc = f"{type(exc).__name__}: {exc}"
    return f"exit: {rc}\n--- stdout\n{out.getvalue()}--- stderr\n" \
           f"{err.getvalue()}"


def stages(inst, path):
    """(stage, argv) of each CLI call on one instance, gen first.  A
    generator, so that the radius of the wide and narrow lift-verify, of
    the wide ball and of the dense ball is read from the file only after
    gen has written it."""
    from ranklab.gabidulin import BALL_BUDGET
    from ranklab.subspace import gaussian_binomial

    name = inst.name
    yield "gen", inst.gen_argv(SEED, path)
    for s in ("verify", "lift-verify"):
        yield s, [s, "--in", path, "--out", f"{name}.{s}.json"]
    with open(path, encoding="ascii") as fh:
        written = json.load(fh)
    tau = written["tau"]
    for s, tau_s in (("lift-verify-wide", 2 * tau + 2),
                     ("lift-verify-narrow", 2 * tau - 1)):
        yield s, ["lift-verify", "--in", path, "--tau-s", str(tau_s),
                  "--out", f"{name}.{s}.json"]
    yield "ball", ["ball", "--in", path, "--out", f"{name}.ball.json"]
    size = inst.q ** (inst.m * inst.dim)
    supports = sum(gaussian_binomial(inst.n, t, inst.q)
                   for t in range(tau + 1))
    if size > BALL_BUDGET and supports <= WIDE_SUPPORTS:
        yield "ball-wide", ["ball", "--in", path, "--budget", str(size),
                            "--out", f"{name}.ball-wide.json"]
    dense = written["code"]["n"] - written["code"]["k"]
    yield "ball-dense", ["ball", "--in", path, "--tau", str(dense),
                         "--out", f"{name}.ball-dense.json"]
    yield "bounds", [
        "bounds", "--q", str(inst.q), "--n", str(inst.n), "--m", str(inst.m),
        "--k", str(inst.dim), "--g", str(inst.g), "--s", str(inst.s),
        "--out", f"{name}.bounds.json"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: same_reports.py SRC OUTDIR", file=sys.stderr)
        return 2
    src, outdir = (os.path.abspath(a) for a in args)
    if not os.path.isdir(os.path.join(src, "src", "ranklab")):
        print(f"no src/ranklab under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(HERE, "..", "bench"))
    from ranklab import cli
    from workloads import WORKLOADS

    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for workload in WORKLOADS.values():
        for inst in workload.instances:
            t0 = time.perf_counter()
            for stage, stage_argv in stages(inst,
                                            f"{inst.name}.instance.json"):
                with open(f"{inst.name}.{stage}.log", "w",
                          encoding="utf-8") as fh:
                    fh.write(run_stage(cli, stage_argv))
            print(f"{inst.name}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
