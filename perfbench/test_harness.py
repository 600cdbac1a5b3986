"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q

Each workload runs at a tiny size (a handful of items), so the whole file
takes seconds rather than a benchmark run.
"""
import itertools
import json
import math
import sys
import time

import pytest

import run
import tracer
import worker
import workloads
from qstarlike import JanowskiParams, QContext, classify, random_schwarz, schwarz_to_member

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_the_implemented_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(worker, "MIN_ITEMS", 2)
    monkeypatch.setattr(worker, "TRACE_DIR", tmp_path)
    t0 = time.monotonic()
    wl, stream = worker.set_up(name, 5)
    setup_s = time.monotonic() - t0
    wl.trace_items = 2
    untraced = {"env": worker.environment(5), **worker.measure(wl, stream, seconds=0.0)}
    untraced["metrics"]["setup_s"] = setup_s
    traced = {"env": worker.environment(5), **worker.trace(name, wl, stream)}
    assert (tmp_path / f"trace-{name}.npz").is_file()
    for is_traced, result, declared in (
        (False, untraced, SPEC["end_to_end"]),
        (True, traced, SPEC["per_layer"]),
    ):
        line = run.report(SPEC, name, 5, is_traced, result)
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == line
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_agree(name):
    wl = workloads.WORKLOADS[name](7)
    items = list(itertools.islice(wl.items(), 2))
    plain = [wl.digest(wl.run(item)) for item in items]
    with tracer.Tracer(extra_namespaces=[workloads]) as tr:
        traced = [wl.digest(wl.run(item)) for item in items]
    assert traced == plain
    assert sum(tr.calls) > 0


def test_tracer_sees_nested_cross_layer_calls():
    ctx, jp = QContext(2, 0.5, 1.0), JanowskiParams(1.0, -1.0)
    f = schwarz_to_member(random_schwarz(2, 1), ctx, jp, order=8)
    with tracer.Tracer() as tr:
        verdict = classify.boundary_sample_test(f, jp)
    stats = tr.function_stats()
    assert stats["classify.boundary_sample_test"][0] == 1
    # classify calls apply_L through its own imported name
    assert stats["operators.apply_L"][0] == 1
    assert stats["operators.lambda_table"][0] == 1
    assert stats["series.ratio"][0] == 1
    assert stats["qarith.q_number"][0] > 0
    assert tr.counts["classify.boundary_sample_test.pass"] == int(verdict.passed)
    assert tr.counts["series.ratio.work"] > 0
    assert all(s >= 0.0 for _, s in stats.values())


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "qstarlike" or n.startswith("qstarlike.")]
    return {(m.__name__, k): v for m in mods + [workloads] for k, v in vars(m).items()}


def test_tracer_restores_every_rebound_function():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer(extra_namespaces=[workloads]):
            assert tracer.is_wrapper(workloads.member_matrix)
            assert tracer.is_wrapper(classify.apply_L)
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not any(tracer.is_wrapper(v) for v in after.values())
