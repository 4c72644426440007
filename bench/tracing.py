"""Per-module tracing from outside the program.

The tracer wraps public functions and methods of ranklab's modules and
replaces every reference to them, including names other modules imported
(``codewords`` inside ``subspace_code``, ``make_field`` inside
``gabidulin``).  Each wrapped call records a call count, optional work
count and self time: its duration minus the time its traced children
took.  Coarse calls (CLI commands, builders, verifiers) also keep a span
(name, start, end, parent span, root span) in memory; hot leaves such as
field additions keep only the aggregate.  Generators are timed per resume,
so a codeword walk's self time excludes what its consumer does between
words.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Probe:
    metric: str                       # e.g. "gabidulin.rank_distance"
    module: str                       # ranklab module holding the callable
    attr: str                         # function name, or "Class.method"
    span: bool = False                # keep one span per call
    generator: bool = False           # count yielded items as words
    word_of: Optional[str] = None     # a call made directly inside this
                                      # metric's call is one of its words
    skipped: bool = False             # count skipped checks in the report

# The ball oracle's words are the per-word rank tests it makes itself.
BALL = "gabidulin.enumerate_ball"


PROBES = (
    Probe("cli.main", "ranklab.cli", "main", span=True),
    Probe("adversarial.build", "ranklab.adversarial",
          "build_counting_instance", span=True),
    Probe("adversarial.build", "ranklab.adversarial",
          "build_explicit_instance", span=True),
    Probe("adversarial.verify_instance", "ranklab.adversarial",
          "verify_instance", span=True, skipped=True),
    Probe("adversarial.serialize", "ranklab.adversarial", "instance_to_dict",
          span=True),
    Probe("adversarial.serialize", "ranklab.adversarial",
          "instance_from_dict", span=True),
    Probe("adversarial.serialize", "ranklab.adversarial", "dump_json",
          span=True),
    Probe("adversarial.serialize", "ranklab.adversarial",
          "VerificationReport.to_dict", span=True),
    Probe("subspace_code.verify_lifted_instance", "ranklab.subspace_code",
          "verify_lifted_instance", span=True, skipped=True),
    Probe("subspace_code.lift_word", "ranklab.subspace_code", "lift_word"),
    Probe("subspace_code.lifted_distance", "ranklab.subspace_code",
          "lifted_distance"),
    Probe("constructions.family", "ranklab.constructions",
          "subfield_linear_family", span=True),
    Probe("constructions.family", "ranklab.constructions",
          "pigeonhole_subfamily", span=True),
    Probe("constructions.family", "ranklab.constructions",
          "orbit_poly_family", span=True),
    Probe("constructions.family", "ranklab.constructions", "shift_family",
          span=True),
    Probe("gabidulin.codewords", "ranklab.gabidulin", "codewords",
          generator=True),
    Probe(BALL, "ranklab.gabidulin", "enumerate_ball", span=True),
    Probe("gabidulin.rank_distance", "ranklab.gabidulin", "rank_distance",
          word_of=BALL),
    Probe("gabidulin.preimage_message", "ranklab.gabidulin",
          "preimage_message", span=True),
    Probe("gfmatrix.rank_gf2_exceeds", "ranklab.gfmatrix",
          "rank_gf2_exceeds", word_of=BALL),
    Probe("gfmatrix.rank_gf2", "ranklab.gfmatrix", "rank_gf2", word_of=BALL),
    Probe("gfmatrix.rref", "ranklab.gfmatrix", "rref"),
    Probe("gfmatrix.solve", "ranklab.gfmatrix", "solve"),
    Probe("field.make_field", "ranklab.field", "make_field", span=True),
    Probe("field.add", "ranklab.field", "FieldSpec.add"),
    Probe("field.mul", "ranklab.field", "FieldSpec.mul"),
    Probe("field.pow", "ranklab.field", "FieldSpec.pow"),
    Probe("field.digits", "ranklab.field", "FieldSpec.digits"),
    Probe("linpoly.evaluate_serial", "ranklab.linpoly",
          "LinearizedPoly.evaluate_serial"),
    Probe("linpoly.kernel", "ranklab.linpoly", "kernel", span=True),
    Probe("subspace.subspace_polynomial", "ranklab.subspace",
          "subspace_polynomial"),
)


class Stat:
    __slots__ = ("calls", "words", "self_s", "skipped")

    def __init__(self):
        self.calls = 0
        self.words = 0
        self.self_s = 0.0
        self.skipped = 0


class Tracer:
    """Aggregates and spans for PROBES; install() patches the program,
    uninstall() restores every reference it replaced."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {p.metric: Stat() for p in PROBES}
        self.spans: List[tuple] = []
        # [child_s, span_id, root_id, metric]
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[tuple] = []   # (owner, name, original)

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.stats = {p.metric: Stat() for p in PROBES}

    def _enter(self, metric: str, keep_span: bool):
        parent = self._stack[-1] if self._stack else None
        span_id = root_id = None
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        if parent is not None:
            root_id = parent[2]
            if span_id is None:
                span_id = parent[1]
        if root_id is None:
            root_id = span_id
        frame = [0.0, span_id, root_id, metric]
        self._stack.append(frame)
        return frame, (parent[1] if parent is not None else None)

    def _leave(self, metric: str, stat: Stat, frame, parent_id,
               keep_span: bool, t0: float, t1: float):
        self._stack.pop()
        dt = t1 - t0
        stat.self_s += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        if keep_span:
            self.spans.append((frame[1], parent_id, frame[2], metric,
                               t0, t1))

    def _wrap(self, probe: Probe, fn):
        tracer = self
        keep = probe.span
        metric = probe.metric

        if probe.generator:
            def traced_gen(*args, **kwargs):
                stat = tracer.stats[metric]
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame, parent_id = tracer._enter(metric, False)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(metric, stat, frame, parent_id, False,
                                      t0, time.perf_counter())
                    stat.words += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            stat = tracer.stats[metric]
            stat.calls += 1
            stack = tracer._stack
            if probe.word_of and stack and stack[-1][3] == probe.word_of:
                tracer.stats[probe.word_of].words += 1
            frame, parent_id = tracer._enter(metric, keep)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(metric, stat, frame, parent_id, keep, t0,
                              time.perf_counter())
            if probe.skipped:
                stat.skipped += sum(c.status == "skipped"
                                    for c in result.checks)
            return result
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ranklab" or name.startswith("ranklab.")]
        for probe in PROBES:
            owner = importlib.import_module(probe.module)
            *cls, name = probe.attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[name]
                self._patch(owner, name, original, self._wrap(probe, original))
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(probe, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

