"""Benchmark of the ranklab CLI pipeline: gen-* -> verify -> lift-verify.

    python3 bench/run.py --workload frontier --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ranklab from ./src.
Each pass calls ranklab.cli.main in-process for every stage of every
instance of the workload, scales each call's seconds by a reference unit
run around and inside it (refclock.py), and checks every output file with
the benchmark's own oracle (checks.py).  Passes repeat until --seconds
have gone by.  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import fields  # noqa: E402
import refclock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS, Instance, Workload  # noqa: E402

SETUP_REPS = 11
STAGE_METRIC = {"gen": "gen_s", "verify": "verify_s",
                "lift-verify": "lift_verify_s"}


class Tally:
    """Operations attempted and failed; a failed check also clears
    correct.  Details of failures go to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def call(self, what: str, rc, ok: bool):
        self.attempted += 1
        if rc != 0 or not ok:
            self.failed += 1
            print(f"FAILED call {what}: rc={rc}", file=sys.stderr)

    def check(self, what: str, result: checks.Check):
        name, ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            print(f"FAILED check {what} {name}: {detail}", file=sys.stderr)


def cli_call(cli, argv: List[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the program's fault; counted as failed
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def read_json(path: str):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


class Runner:
    def __init__(self, workload: Workload, seed: int, workdir: str, cli):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.clock = refclock.Clock()
        self.tally = Tally()
        self.exact = checks.load_ball_sizes()
        self.skipped: Dict[str, List[str]] = {}
        self.setup_s: Dict[str, List[float]] = {"raw": [], "scaled": []}

    def _path(self, inst: Instance, what: str) -> str:
        return os.path.join(self.workdir, f"{inst.name}.{what}.json")

    def _argv(self, stage: str, inst: Instance) -> List[str]:
        if stage == "gen":
            return inst.gen_argv(self.seed, self._path(inst, "instance"))
        return [stage, "--in", self._path(inst, "instance"),
                "--out", self._path(inst, stage)]

    def _expected_stdout(self, stage: str, inst: Instance, out: str) -> bool:
        if stage == "gen":
            tau, _ = checks.list_bound(inst)
            return f"at radius {tau}" in out
        return out.rstrip().endswith("all passed")

    def _check(self, stage: str, inst: Instance):
        skipped = []
        try:
            data = read_json(self._path(inst, "instance"))
            if stage == "gen":
                results = checks.check_instance_file(inst, data)
            else:
                check = (checks.check_verify_report if stage == "verify"
                         else checks.check_lift_report)
                result, skipped = check(inst, data,
                                        read_json(self._path(inst, stage)),
                                        self.exact.get(inst.name))
                results = [result]
        except (OSError, ValueError, KeyError, TypeError,
                StopIteration) as exc:    # missing or malformed output
            results = [(f"{stage}_output", False, repr(exc))]
        for result in results:
            self.tally.check(inst.name, result)
        seen = self.skipped.setdefault(inst.name, [])
        seen.extend(name for name in skipped if name not in seen)

    def schedule(self) -> List[tuple]:
        """(round, instance, stage, last call?) of every call of a pass, in
        order.  Call j of a stage with r calls goes to round
        (j + i/n) * R / r for instance i of n, with R rounds in all.  So a
        stage's calls spread evenly over the pass and are staggered across
        instances: they meet the machine at different times, between the
        long calls of other stages, and not back to back."""
        reps = self.workload.reps
        rounds = max(reps.values())
        n = len(self.workload.instances)
        return sorted(((j * n + i) * rounds // (reps[stage] * n), i,
                       STAGES.index(stage), j == reps[stage] - 1)
                      for i in range(n) for stage in STAGES
                      for j in range(reps[stage]))

    def run_pass(self, calls: "Calls"):
        """One pass over every stage of every instance; each call's raw
        and scaled seconds go into calls.  A stage's output is checked
        after its last call."""
        for _, i, s, last in self.schedule():
            inst, stage = self.workload.instances[i], STAGES[s]
            self._call(stage, inst, calls)
            if last:
                self._check(stage, inst)

    def write_instances(self):
        """Write every instance file once, untimed, so that a pass may
        call any stage of an instance before that instance's gen."""
        for inst in self.workload.instances:
            rc, out = cli_call(self.cli, self._argv("gen", inst))
            self.tally.call(f"gen {inst.name}", rc,
                            self._expected_stdout("gen", inst, out))

    def _call(self, stage: str, inst: Instance, calls: "Calls"):
        argv = self._argv(stage, inst)
        results = []
        timing = self.clock.time(
            lambda: results.append(cli_call(self.cli, argv)))
        rc, out = results[0]
        self.tally.call(f"{stage} {inst.name}", rc,
                        self._expected_stdout(stage, inst, out))
        calls.add(stage, inst.name, timing)

    def measure_setup(self, warm_up: bool):
        """SETUP_REPS fresh processes, after one that warms the bytecode
        cache as an installed package would have it if warm_up; their raw
        and scaled seconds go into self.setup_s.  Each process times
        itself and scales by its own reference units: the parent's units
        may run on another CPU, whose speed differs."""
        cmd = [sys.executable, os.path.join(HERE, "fields.py"), SRC,
               json.dumps(self.workload.fields())]
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        def spawn():
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True)
            try:
                return proc.returncode, json.loads(proc.stdout)
            except ValueError:
                return proc.returncode, None

        if warm_up:
            rc, child = spawn()
            self.tally.call("setup warm-up", rc, child is not None)
        for _ in range(SETUP_REPS):
            rc, child = spawn()
            self.tally.call("setup", rc, child is not None)
            if child is not None:
                self.setup_s["raw"].append(child["raw_s"])
                self.setup_s["scaled"].append(
                    refclock.scale(child["raw_s"], child["unit_s"]))

    def build_fields(self):
        fields.build(*self.workload.fields())


class Calls:
    """Per-call seconds of every stage and instance over a run.  A stage's
    metric is the sum over instances of the median call, so a preempted
    call, or a pass the machine ran slowly, moves it little."""

    def __init__(self):
        self.seconds: Dict[str, Dict[tuple, List[float]]] = \
            {"raw": {}, "scaled": {}}

    def add(self, stage: str, instance: str, timing: refclock.Timing):
        for kind, value in (("raw", timing.raw_s),
                            ("scaled", timing.scaled_s)):
            self.seconds[kind].setdefault((stage, instance), []).append(value)

    def metrics(self, kind: str) -> Dict[str, float]:
        out = dict.fromkeys(STAGE_METRIC.values(), 0.0)
        for (stage, _), values in self.seconds[kind].items():
            out[STAGE_METRIC[stage]] += statistics.median(values)
        out["certify_s"] = sum(out.values())
        return out


def run_timed(runner: Runner, seconds: float) -> Dict:
    runner.measure_setup(warm_up=True)
    runner.build_fields()
    runner.write_instances()
    calls, passes = Calls(), 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runner.run_pass(calls)
        passes += 1
    # A second block of set-up processes at the end spreads them over the
    # run, as the passes spread the calls.
    runner.measure_setup(warm_up=False)
    setup = {kind: statistics.median(v) for kind, v in runner.setup_s.items()}
    values = calls.metrics("scaled")
    values["setup_s"] = setup["scaled"]
    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = calls.metrics("raw")
    raw["setup_s"] = setup["raw"]
    return {"values": values, "raw_s": raw, "passes": passes}


def layer_values(tracer: Tracer, unit_s: float) -> Dict[str, float]:
    """Every count and drift-scaled self time the tracer gathered."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.words"] = st.words
        out[f"{name}.s"] = refclock.scale(st.self_s, unit_s)
        if name in ("adversarial.verify_instance",
                    "subspace_code.verify_lifted_instance"):
            out["adversarial.checks_skipped"] = \
                out.get("adversarial.checks_skipped", 0) + st.skipped
    return out


def run_traced(runner: Runner, seconds: float, trace_path: str) -> Dict:
    """Traced field build, then alternating untraced and traced passes;
    per-layer figures are the setup's plus the traced passes' median."""
    tracer = Tracer()
    tracer.install()
    try:
        runner.build_fields()
    finally:
        tracer.uninstall()
    setup = layer_values(tracer, statistics.fmean(runner.clock.bracket()))
    runner.write_instances()
    plain, traced, layers = Calls(), Calls(), []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        runner.run_pass(plain)
        tracer.reset()
        tracer.install()
        first = len(runner.clock.units)
        try:
            runner.run_pass(traced)
        finally:
            tracer.uninstall()
        layers.append(layer_values(
            tracer, statistics.fmean(runner.clock.units[first:])))
    values = {k: setup[k] + statistics.median(p[k] for p in layers)
              for k in layers[0]}
    counts_repeat = all(p[k] == layers[0][k] for p in layers
                        for k in layers[0] if not k.endswith(".s"))
    untraced = plain.metrics("scaled")["certify_s"]
    with_trace = traced.metrics("scaled")["certify_s"]
    overhead = {"untraced_certify_s": untraced,
                "traced_certify_s": with_trace,
                "overhead_s": with_trace - untraced,
                "overhead_share": (with_trace - untraced) / untraced,
                "traced_passes": len(layers),
                "counts_repeat_across_passes": counts_repeat}
    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump({"workload": runner.workload.name, "seed": runner.seed,
                   "overhead": overhead, "setup": setup, "passes": layers,
                   "spans": [dict(zip(("id", "parent", "root", "name",
                                       "start", "end"), s))
                             for s in tracer.spans]}, fh)
    return {"values": values, "overhead": overhead, "passes": len(layers)}


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def import_cli():
    """ranklab.cli from this checkout's src, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ranklab", "cli.py")):
        raise SystemExit(f"error: no ranklab sources under {SRC}")
    sys.path.insert(0, SRC)
    import ranklab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ranklab from {cli.__file__}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    cli = import_cli()
    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir, cli)
    try:
        if args.trace:
            run = run_traced(runner, args.seconds,
                             os.path.join(OUT, f"trace-{tag}.json"))
            wanted = spec["per_layer"]
        else:
            run = run_timed(runner, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": run["values"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    side = {k: v for k, v in run.items() if k != "values"}
    side.update(reference_unit_s=runner.clock.median_unit(),
                nominal_unit_s=refclock.NOMINAL_UNIT_S,
                checks_skipped=runner.skipped)
    result = {"correct": runner.tally.correct,
              "attempted": runner.tally.attempted,
              "failed": runner.tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump({"side": side, "result": result}, fh, indent=1)
    print(json.dumps(side))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
