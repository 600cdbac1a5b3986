"""The per-layer metrics of BENCHMARK.json name public library functions.

The benchmark's tracer wraps the functions in each layer's __all__ and
reports `<layer>.<fn>.calls`, `.self_s`, `.work` and `.loop_iters` for the
metrics the spec declares; a declared function that leaves __all__ makes
the benchmark report raise KeyError.  This catches that without a
benchmark run.
"""
import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
FUNCTION_METRICS = ("calls", "self_s", "work", "loop_iters")
PINS = sorted(
    {
        tuple(m["name"].split(".")[:2])
        for m in SPEC["per_layer"]
        if m["name"].count(".") == 2 and m["name"].rsplit(".", 1)[1] in FUNCTION_METRICS
    }
)


def test_the_spec_pins_functions():
    assert ("oracle", "janowski_expand") in PINS
    assert len(PINS) > 10


@pytest.mark.parametrize("layer,fn", PINS, ids=[".".join(p) for p in PINS])
def test_pinned_function_is_public(layer, fn):
    mod = importlib.import_module(f"qstarlike.{layer}")
    assert fn in mod.__all__
    assert inspect.isfunction(getattr(mod, fn))
