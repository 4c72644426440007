"""The benchmark's tracer wraps ranklab functions by name; every name it
probes must resolve, or `bench/run.py --trace 1` stops at install."""

import importlib
import importlib.util
import sys
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
