"""Spans and counts recorded from outside the program.

Nothing under ``src/`` is instrumented.  Instead, :class:`Patched`
replaces public functions at the module or class attribute where their
caller looks them up (``repro.core.ism.propagate_correspondences``,
``TileExecutor.flow_iteration``, ...) with wrappers that only time and
pass through, and puts the originals back on exit.  A wrapper records
only while :attr:`Recorder.on` is set, so a run can interleave traced
and untraced frames through one pipeline.

Spans nest by call order (the serving loop is single-threaded), so a
span's parent is the innermost span open when it started, and its self
time is its duration minus its direct children's.  Spans export as
Chrome trace-event JSON (``"ph": "X"`` events), which Perfetto and
``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: calls of each captured kernel kept for the inline-vs-tiled replay
CAPTURE_CALLS = 5


class Recorder:
    """Spans and counts of one run, attributed to the unit being served.

    A unit is one served frame (pixel workloads) or one fleet serve;
    :meth:`begin_unit` names it and decides whether it is traced.
    """

    def __init__(self):
        self.on = False
        self.unit: int | None = None
        self.unit_args: dict[int, dict] = {}
        #: closed spans: (name, start_ns, dur_ns, span_id, parent_id, unit)
        self.spans: list[tuple] = []
        #: (unit, counter name) -> count
        self.counts: dict[tuple, int] = defaultdict(int)
        #: span name -> captured (args, kwargs) of its first calls
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[tuple[int, str, int]] = []
        self._next_id = 0

    def begin_unit(self, index: int, traced: bool, **args) -> None:
        self.unit = index
        self.on = traced
        if traced:
            self.unit_args[index] = args

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append((self._next_id, name, time.perf_counter_ns()))

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((name, start, end - start, span_id, parent, self.unit))

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. rendering)."""
        if not self.on:
            yield
            return
        self.open(name)
        try:
            yield
        finally:
            self.close()


def _span_wrapper(rec: Recorder, name: str, fn, capture: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if capture and len(rec.captured[name]) < CAPTURE_CALLS:
            rec.captured[name].append((args, kwargs))
        rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn, size):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if rec.on:
            rec.counts[(rec.unit, name)] += 1
            if size is not None:
                rec.counts[(rec.unit, name + ".items")] += size(out)
        return out

    return wrapper


def targets() -> list[tuple]:
    """``(span name, owner, attribute, kind)`` of every wrapped function.

    ``kind`` is ``"span"``, ``"capture"`` (a span whose first calls are
    kept for replay) or ``"count"`` (a call counter, for functions too
    hot or too cheap to time; ``"count:len"`` also sums ``len`` of the
    result).  Each attribute is defined on its owner itself, so the
    wrapper sits exactly where the caller looks the name up.
    """
    from repro.backends import base, gpu, systolic
    from repro.cluster import engine, faults
    from repro.core import correspondence, ism
    from repro.parallel import executor, shm
    from repro.pipeline import schedulers

    tile = executor.TileExecutor
    return [
        ("ism.step", ism.ISM, "step", "span"),
        ("correspondence.propagate", ism, "propagate_correspondences", "span"),
        ("correspondence.refine", ism, "refine_correspondences", "span"),
        ("correspondence.compose", correspondence, "compose_flows", "span"),
        ("flow.warp", correspondence, "forward_warp_disparity", "span"),
        ("stereo.flow_median", correspondence, "median2d", "span"),
        ("stereo.fill", correspondence, "fill_background", "span"),
        ("stereo.median_clean", correspondence, "median_clean", "span"),
        ("flow.expand", tile, "expand_frame", "span"),
        ("flow.iterate", tile, "flow_iteration", "capture"),
        ("parallel.poly", tile, "poly_expansion", "capture"),
        ("stereo.guided", tile, "guided_block_match", "capture"),
        ("stereo.bm", tile, "block_match", "capture"),
        ("stereo.sgm", tile, "sgm", "span"),
        ("stereo.sgm_aggregate", executor, "aggregate_path", "span"),
        ("stereo.sgm_wta", executor, "wta_disparity", "span"),
        ("parallel.shm_share", shm.ShmArena, "share", "span"),
        ("parallel.split_rows", executor, "split_rows", "count:len"),
        ("backends.network_result", base.ExecutionBackend, "network_result", "count"),
        ("backends.cost_model", gpu.GPUBackend, "run_network", "span"),
        ("backends.cost_model", systolic.SystolicBackend, "run_network", "span"),
        ("deconv.optimize_layers", systolic, "optimize_layers", "span"),
        ("pipeline.serve", schedulers.FrameScheduler, "serve", "span"),
        ("cluster.place", engine.ClusterEngine, "place", "span"),
        ("cluster.run", engine.ClusterEngine, "run", "span"),
        ("cluster.chaos_run", faults.ChaosClusterEngine, "run", "span"),
    ]


class Patched:
    """Context manager installing every wrapper of :func:`targets`."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple] = []

    def __enter__(self) -> "Patched":
        try:
            for name, owner, attr, kind in targets():
                original = vars(owner)[attr]
                if kind.startswith("count"):
                    size = len if kind == "count:len" else None
                    wrapper = _count_wrapper(self.rec, name, original, size)
                else:
                    wrapper = _span_wrapper(
                        self.rec, name, original, kind == "capture"
                    )
                wrapper.e2e_span = name
                setattr(owner, attr, wrapper)
                self.saved.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        self.rec.on = False

    def __exit__(self, *exc) -> None:
        self.restore()


def left_patched() -> list[str]:
    """``owner.attr`` of every target still holding a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _name, owner, attr, _kind in targets()
        if hasattr(vars(owner)[attr], "e2e_span")
    ]


def unit_totals(rec: Recorder) -> dict[str, dict[int, list[int]]]:
    """``{span name: {unit: [total_ns, self_ns, calls]}}``."""
    child_ns: dict[int, int] = defaultdict(int)
    for _name, _start, dur, _sid, parent, _unit in rec.spans:
        if parent is not None:
            child_ns[parent] += dur
    out: dict[str, dict[int, list[int]]] = defaultdict(dict)
    for name, _start, dur, sid, _parent, unit in rec.spans:
        slot = out[name].setdefault(unit, [0, 0, 0])
        slot[0] += dur
        slot[1] += dur - child_ns[sid]
        slot[2] += 1
    return out


def median_ms(per_unit: dict[int, list[int]], field: int = 0) -> float:
    """Median over units of one ``unit_totals`` field, in ms (0.0 if the
    span never ran: the layer did no work in this workload)."""
    if not per_unit:
        return 0.0
    return statistics.median(v[field] for v in per_unit.values()) / 1e6


def chrome_trace(rec: Recorder, pid: int, meta: dict) -> dict:
    """Chrome trace-event JSON of every recorded span."""
    t0 = min((s[1] for s in rec.spans), default=0)
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": (start - t0) / 1e3,
            "dur": dur / 1e3,
            "pid": pid,
            "tid": 0,
            "args": {"id": sid, "parent": parent, **rec.unit_args.get(unit, {})},
        }
        for name, start, dur, sid, parent, unit in rec.spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
