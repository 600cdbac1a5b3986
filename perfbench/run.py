"""qstarlike benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, defaults

Run from anywhere inside a source checkout; the library is imported from its
`src/` directory.  Each workload runs in fresh interpreters (worker.py) with
OpenBLAS pinned to one thread:

  --trace 0  starts EXTRA_SETUPS set-up-only interpreters and one measuring
             interpreter, and reports the end-to-end metrics of BENCHMARK.json,
             with setup_s as the median of all their set-up times;
  --trace 1  starts one traced interpreter and reports the per-layer metrics.

End-to-end times are scaled to a reference speed by a probe computation run
between items (worker.probe_s), so that the host's speed drift does not move
them; the unscaled wall-clock figures are printed alongside.

Human-readable lines come first; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Exit status 0 when a result
was printed, 2 when the checkout or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only interpreters per untraced run, besides the measuring one.
EXTRA_SETUPS = 6

#: A whole run must end within 180 s.
RUN_DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its JSON line; raises on any failure."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if traced:
        return report(spec, workload, seed, True, spawn(workload, seed, seconds, "trace", deadline))
    setups = [spawn(workload, seed, seconds, "setup", deadline) for _ in range(EXTRA_SETUPS)]
    result = spawn(workload, seed, seconds, "measure", deadline)
    setups.append(result)
    result["metrics"]["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    result["unscaled"]["setup_s"] = statistics.median(r["unscaled_setup_s"] for r in setups)
    return report(spec, workload, seed, False, result)


def report(spec: dict, workload: str, seed: int, traced: bool, result: dict) -> dict:
    """Print the declared metrics of a worker result; the last line is the JSON result."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    print(f"# workload {workload}, seed {seed}, trace {int(traced)}")
    print(f"# env {json.dumps(result['env'])}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:40s} {value:>16.6g}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_ratio':40s} {failed / attempted:>16.6g} ratio ({failed} failed of {attempted} attempted)")
    for text in result["failures"]:
        print(f"FAILED {text}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    if not (ROOT / "src" / "qstarlike" / "__init__.py").is_file():
        print(f"error: no qstarlike sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            run_workload(spec, workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
