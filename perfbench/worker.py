"""One workload in one fresh interpreter; prints one JSON line with its figures.

Modes:
  setup    build the inputs, warm up, report the set-up time and exit;
  measure  then run the closed timed loop (one caller, next item when the
           previous returns) for --seconds of item time, at least MIN_ITEMS;
  trace    run a fixed item list untraced, then the same list traced, and
           report the per-layer figures plus each CLI subcommand's wall time.

Set-up time runs from --spawned-at (the parent's monotonic clock just before
it started this interpreter) to the first timed item: imports, inputs from
the seed and warm-up.  Like the item times it is reported scaled by the
probe (`probe_s`), with the wall-clock figures under "unscaled".  run.py
starts this file with OpenBLAS pinned to one thread; the defaults below
only cover a direct start.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import qstarlike  # noqa: E402
import workloads  # noqa: E402
from qstarlike import cli, save_series  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Each timed run has at least this many items, so ten lie beyond p90.
MIN_ITEMS = 100

#: Probe time that the reported times are scaled to (see `probe_s`).
PROBE_REF_S = 1.0e-3

#: Items per block that share one probe median in the scaling.
SCALE_BLOCK = 10

#: Probes run after set-up; their median scales the set-up time.
SETUP_PROBES = 9

#: Spans are written here, one file per workload, overwritten by each traced run.
TRACE_DIR = ROOT / ".perfbench"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def probe_s() -> float:
    """Seconds taken by a fixed reference computation that uses no qstarlike code.

    On a shared host every process slows down by up to ~1.7x for seconds to
    minutes at a time (seen on a 2-core cloud VM).  The probe does the
    kinds of work the items do (interpreted float loops, small-array dot
    products, complex Horner sweeps over a sample circle), so it slows down
    with them.  Item times are multiplied by (PROBE_REF_S / probe time) to
    the power of the workload's `probe_exponent`, which removes the host's
    drift but not a change in the program's own speed.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        total, power = 0.0, 1.0
        for _ in range(4000):
            total += power
            power *= 0.9995
        g = np.linspace(1.0, 2.0, 48) + 0.5j
        h = np.zeros(48, dtype=complex)
        h[0] = 1.0
        for k in range(1, 48):
            h[k] = (g[k] - np.dot(g[1 : k + 1], h[k - 1 :: -1])) / g[0]
        zs = 0.9 * np.exp(2j * np.pi * np.arange(360) / 360)
        acc = np.full(zs.shape, h[-1])
        for c in h[-2::-1]:
            acc = acc * zs + c
    return time.perf_counter() - t0


def _run_item(wl, item):
    """Time one item; returns (seconds, output or None, failure texts)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as exc:  # an undocumented exception fails the item
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, out, []


def set_up(name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed)
    stream = wl.items()
    for _ in range(wl.warmup_items):
        item = next(stream)
        wl.check(item, wl.run(item))
    return wl, stream


def measure(wl, stream, seconds: float) -> dict:
    """Closed loop; a probe runs before the first item and after each one."""
    lat, probes, failures = [], [probe_s()], []
    busy, completed = 0.0, 0
    while busy < seconds or len(lat) < MIN_ITEMS:
        item = next(stream)
        dt, out, bad = _run_item(wl, item)
        probes.append(probe_s())
        lat.append(dt)
        busy += dt
        if out is not None:
            completed += 1
            bad = wl.check(item, out)
        if bad:
            failures.append(bad)
    raw = np.array(lat)
    # each block of items is scaled by the median of the probes around it:
    # short enough to follow the host, long enough to damp one probe's jitter
    block_probe = [np.median(probes[b : b + SCALE_BLOCK + 1]) for b in range(0, raw.size, SCALE_BLOCK)]
    scale = (PROBE_REF_S / np.repeat(block_probe, SCALE_BLOCK)[: raw.size]) ** wl.probe_exponent
    scaled = raw * scale
    return {
        "attempted": raw.size,
        "failed": len(failures),
        "failures": [f for bad in failures[:5] for f in bad],
        "metrics": {
            "items_per_s": completed / scaled.sum(),
            "item_p50_ms": float(np.percentile(scaled, 50)) * 1e3,
            "item_p90_ms": float(np.percentile(scaled, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "unscaled": {
            "items_per_s": completed / raw.sum(),
            "item_p50_ms": float(np.percentile(raw, 50)) * 1e3,
            "item_p90_ms": float(np.percentile(raw, 90)) * 1e3,
            "probe_ms": float(np.median(probes)) * 1e3,
        },
    }


def trace(name: str, wl, stream) -> dict:
    count = wl.trace_items
    items = [next(stream) for _ in range(count)]
    failures = []
    untraced_s, reference = 0.0, []
    for item in items:
        dt, out, bad = _run_item(wl, item)
        untraced_s += dt
        if out is not None:
            bad = wl.check(item, out)
            reference.append(repr(wl.digest(out)))
        else:
            reference.append(None)
        if bad:
            failures.append(bad)
    traced_s = 0.0
    with Tracer(extra_namespaces=[workloads]) as tr:
        for i, item in enumerate(items):
            tr.item = i
            dt, out, bad = _run_item(wl, item)
            traced_s += dt
            if (None if out is None else repr(wl.digest(out))) != reference[i]:
                failures.append([f"traced item {i} differs from the untraced run"])
    TRACE_DIR.mkdir(exist_ok=True)
    spans = tr.save(TRACE_DIR / f"trace-{name}.npz")

    m = {}
    stats = tr.function_stats()
    for fn, (calls, self_s) in stats.items():
        m[f"{fn}.calls"] = calls
        m[f"{fn}.self_s"] = self_s
    for key in ("qarith.q_number.loop_iters", "series.ratio.work"):
        m[key] = tr.counts[key]
    for test, short in (("sufficiency_test", "sufficiency"), ("boundary_sample_test", "boundary"),
                        ("convolution_test", "convolution")):
        calls = stats[f"classify.{test}"][0]
        m[f"classify.{short}.pass_ratio"] = tr.counts[f"classify.{test}.pass"] / max(calls, 1)
    m["classify.pole_ratio"] = tr.counts["classify.boundary_sample_test.pole"] / max(
        stats["classify.boundary_sample_test"][0], 1)
    for layer, self_s in tr.layer_self_s().items():
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / traced_s
    m["trace.items"] = count
    m["trace.spans"] = spans
    m["trace.untraced_items_per_s"] = count / untraced_s
    m["trace.traced_items_per_s"] = count / traced_s
    m["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    m.update(cli_timings(wl.seed))
    return {
        "attempted": 2 * count,
        "failed": len(failures),
        "failures": [f for bad in failures[:5] for f in bad],
        "metrics": m,
    }


def cli_timings(seed: int) -> dict:
    """Wall time of each CLI subcommand once, in-process, stdout captured."""
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=TRACE_DIR))
    try:
        f_path = tmp / "f.json"
        ctx = qstarlike.QContext(1, 0.5, 0.0)
        jp = qstarlike.JanowskiParams(1.0, -1.0)
        member = qstarlike.schwarz_to_member(qstarlike.random_schwarz(3, seed), ctx, jp, order=8)
        save_series(member.series, str(f_path))
        common = ["--p", "1", "--q", "0.5", "--mu", "0"]
        commands = {
            "qnum": ["qnum", "--n", "64", "--q", "0.9"],
            "bounds-table": ["bounds-table", "--N", "8"],
            "check": ["check", "--in", str(f_path), *common, "--A", "1", "--B", "-1"],
            "generate": ["generate", *common, "--seed", str(seed)],
            "fs-sweep": ["fs-sweep", "--lambda-grid", "-2:2:0.1", *common, "--seed", str(seed)],
            "limit-compare": ["limit-compare", "--p", "2", "--mu", "2.5"],
            "bernardi": ["bernardi", "--in", str(f_path), "--eta", "1", "--p", "1", "--q", "0.5"],
        }
        out = {}
        for name, argv in commands.items():
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                status = cli.main(argv)
            out[f"cli.{name}.wall_s"] = time.perf_counter() - t0
            if status not in (0, 1) or not sink.getvalue():
                raise RuntimeError(f"cli {name} exited {status} with output {sink.getvalue()[:200]!r}")
        return out
    finally:
        shutil.rmtree(tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, default=None)
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    wl, stream = set_up(args.workload, args.seed)
    setup_s = time.monotonic() - spawned_at
    probe = float(np.median([probe_s() for _ in range(SETUP_PROBES)]))
    result = {
        "setup_s": setup_s * PROBE_REF_S / probe,
        "unscaled_setup_s": setup_s,
        "env": environment(args.seed),
    }
    if args.mode == "measure":
        result.update(measure(wl, stream, args.seconds))
    elif args.mode == "trace":
        result.update(trace(args.workload, wl, stream))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
