"""The benchmark's tracer wraps ranklab functions by name; every name it
probes must resolve, or `bench/run.py --trace 1` stops at install, and its
own tests must pass against this ranklab."""

import importlib
import importlib.util
import io
import sys
import unittest
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_probed_name_resolves_in_ranklab():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing     # dataclasses look the module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    assert tracing.PROBES
    for probe in tracing.PROBES:
        assert probe.module.startswith("ranklab.")
        owner = importlib.import_module(probe.module)
        *cls, name = probe.attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            assert name in vars(owner), probe
        assert callable(getattr(owner, name, None)), probe


def test_the_benchmark_tracer_contract_holds():
    # bench/test_bench.py's TracerTest, unmodified: it pins which probed
    # names the ball oracle and rank_distance call.  Only that class runs;
    # the benchmark's reference-clock tests time the machine.
    bench = TRACING.parent
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_test_bench", bench / "test_bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)     # puts bench/ on sys.path
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(
            module.TracerTest)
        out = io.StringIO()
        result = unittest.TextTestRunner(stream=out, verbosity=2).run(suite)
    finally:
        sys.path[:] = saved
        for name, mod in list(sys.modules.items()):
            if Path(getattr(mod, "__file__", None) or "/").parent == bench:
                del sys.modules[name]
    assert result.testsRun > 0, out.getvalue()
    assert result.wasSuccessful(), out.getvalue()
