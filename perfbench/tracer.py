"""Call tracer for the qstarlike layers, installed from outside the program.

Every public function of a layer module (the names in its __all__) is
replaced by a timing wrapper in every qstarlike.* module namespace that
holds it, and in any extra namespace the caller names.  Modules import each
other by name (classify holds its own `apply_L`), so only rebinding every
reference catches the nested cross-layer calls.

Each call records a span: function, start, end, parent span and item id.
Spans stay in memory until `save`.  A span's self time is its duration
minus the time its child calls cover.  The qarith scalars run millions of
times per pass, so they are timed and counted but not recorded as spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("qarith", "series", "operators", "classify", "bounds", "oracle")

#: Timed and counted, but kept out of the span record.
SCALARS = frozenset({"qarith.q_number", "qarith.q_number_real"})

#: Tests whose verdict mix is counted at the call boundary.
VERDICT_TESTS = ("classify.sufficiency_test", "classify.boundary_sample_test", "classify.convolution_test")


class Tracer:
    """Context manager: wraps on entry, restores every original on exit."""

    def __init__(self, extra_namespaces=()):
        self.extra_namespaces = tuple(extra_namespaces)
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.item = -1
        self.span_fn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qstarlike.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items() if n == "qstarlike" or n.startswith("qstarlike.")]
        for ns in namespaces + list(self.extra_namespaces):
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def restore(self) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        record = name not in SCALARS
        after = _after_hook(name, self.counts)
        on_error = _error_hook(name, self.counts)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        fns, starts, ends = self.span_fn, self.span_start, self.span_end
        parents, items = self.span_parent, self.span_item
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                span = len(starts)
                fns.append(fid)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(parent)
                items.append(self.item)
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[fid] += 1
                self_s[fid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    starts[span] = t0
                    ends[span] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def function_stats(self) -> dict[str, tuple[int, float]]:
        """Qualified name -> (calls, self seconds)."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def save(self, path) -> int:
        """Write the span record as a compressed .npz; returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
        )
        return len(self.span_start)


def _after_hook(name: str, counts: Counter):
    if name == "qarith.q_number":

        def after(args, result):
            counts["qarith.q_number.loop_iters"] += int(args[0])

        return after
    if name == "series.ratio":

        def after(args, result):
            counts["series.ratio.work"] += result.coeffs.size**2 / 2

        return after
    if name in VERDICT_TESTS:

        def after(args, result):
            if result.passed:
                counts[f"{name}.pass"] += 1

        return after
    return None


def _error_hook(name: str, counts: Counter):
    if name != "classify.boundary_sample_test":
        return None
    from qstarlike.classify import SamplePoleError

    def on_error(exc):
        if isinstance(exc, SamplePoleError):
            counts[f"{name}.pole"] += 1

    return on_error


def is_wrapper(obj) -> bool:
    return hasattr(obj, "_perfbench_original")
