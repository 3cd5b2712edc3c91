"""Serve one end-to-end benchmark workload in this process.

``run.py`` starts this script once per set-up measurement, in a fresh
interpreter, so set-up time covers interpreter start, imports, pipeline
construction and the untimed warm-up.  It prints one JSON object of raw
samples as the last line of its standard output.

    PYTHONPATH=src python3 benchmarks/e2e/serve.py --workload ism-serial \
        --seed 1 --seconds 28 --trace 0 --out benchmarks/e2e/out \
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spans
from repro.backends import get_backend
from repro.cluster import (
    Autoscaler,
    ChaosClusterEngine,
    ClusterEngine,
    CrashFault,
    FaultSchedule,
)
from repro.core.ism import ISM, ISMConfig
from repro.parallel import TileExecutor
from repro.pipeline import (
    FrameCoster,
    FrameStream,
    QualityProbe,
    kitti_stream,
    plan_keys,
    sceneflow_stream,
)
from repro.stereo.metrics import end_point_error, three_pixel_error

#: timed frames per run: the printed p90 needs ten samples beyond it,
#: the gated p50 (all a quick run reports) needs twenty frames
MIN_FRAMES = 100
QUICK_MIN_FRAMES = 24
#: leading frames scored again by ``QualityProbe.score_plan``
PROBE_FRAMES = 8


@dataclass(frozen=True)
class PixelSpec:
    """A closed-loop camera stream through the real ISM pipeline."""

    dataset: str  # "sceneflow" or "kitti"
    size: tuple[int, int]
    max_disp: int
    matcher: str  # key-frame matcher: a TileExecutor kernel name
    pw: int  # propagation window: a key frame every pw frames
    workers: int
    #: frames per generated scene; a multiple of every pw, so chained
    #: scenes keep keys every pw frames and flow never spans a cut
    clip: int = 40


@dataclass(frozen=True)
class FleetSpec:
    """Cost-only cameras served by the cluster simulator."""

    fleet: tuple[str, ...]
    cameras: int
    frames: int
    size: tuple[int, int]
    fps: float


WORKLOADS = {
    "ism-serial": PixelSpec("sceneflow", (135, 240), 48, "bm", 4, 1),
    "ism-tiled": PixelSpec("sceneflow", (135, 240), 48, "bm", 4, 2),
    "key-sgm": PixelSpec("kitti", (96, 320), 48, "sgm", 1, 1),
    # about 1.1x over the busiest shard's capacity, so fifo, edf and
    # shed serve the same offered load differently
    "fleet-sim": FleetSpec(("gpu", "gpu", "systolic", "systolic"), 16, 300, (96, 160), 88.0),
}

#: tiny inputs for the self-test; same code paths
QUICK = {
    "ism-serial": replace(WORKLOADS["ism-serial"], size=(40, 64), max_disp=16),
    "ism-tiled": replace(WORKLOADS["ism-tiled"], size=(40, 64), max_disp=16),
    "key-sgm": replace(WORKLOADS["key-sgm"], size=(32, 96), max_disp=24),
    "fleet-sim": FleetSpec(("gpu", "gpu"), 6, 60, (48, 80), 300.0),
}

DISCIPLINES = ("fifo", "edf", "shed", "chaos")
DEADLINES_S = (0.015, 0.03, 0.06)


def digest(disp: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(disp).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# pixel workloads
# ----------------------------------------------------------------------
def clip_stream(spec: PixelSpec, seed: int, clip: int, n_frames: int | None = None):
    make = sceneflow_stream if spec.dataset == "sceneflow" else kitti_stream
    return make(
        seed=seed * 1000 + clip,
        size=spec.size,
        n_frames=n_frames or spec.clip,
        max_disp=spec.max_disp,
        pw=spec.pw,
    )


def camera(spec: PixelSpec, seed: int):
    """Endless ``(frame, is_key)`` pairs: scene after generated scene."""
    for clip in itertools.count():
        stream = clip_stream(spec, seed, clip)
        yield from zip(stream.frames(), plan_keys(stream))


def build_ism(spec: PixelSpec, ex: TileExecutor) -> ISM:
    """The pipeline exactly as ``QualityProbe.score_stream`` builds it."""
    matcher = ex.kernel(spec.matcher)
    return ISM(
        lambda f: matcher(f.left, f.right, spec.max_disp),
        config=ISMConfig(),
        refiner=ex.kernel("guided"),
        flow=ex,
    )


def bad_output(disp, shape) -> str | None:
    if disp.shape != shape:
        return f"shape {disp.shape} != {shape}"
    if not np.isfinite(disp).all():
        return "non-finite disparity"
    if (disp < 0).any():
        return "negative disparity"
    return None


def serve_pixel(spec: PixelSpec, args, rec: spans.Recorder) -> dict:
    frames: list[dict] = []  # every served frame, warm-up included
    failures: list[str] = []
    source = camera(spec, args.seed)

    def serve_frame(traced: bool) -> None:
        index = len(frames)
        rec.begin_unit(index, traced, frame=index)
        with rec.span("datasets.render"):
            frame, key = next(source)
        if traced:
            rec.unit_args[index]["key"] = bool(key)
        record = {"unit": index, "key": bool(key), "ms": None, "traced": traced}
        frames.append(record)
        t = time.perf_counter()
        try:
            disp, _ = ism.step(frame, is_key=key)
        except Exception as err:  # a failing frame is counted, the stream goes on
            ism.reset()
            failures.append(f"frame {index}: {type(err).__name__}: {err}")
            return
        ms = (time.perf_counter() - t) * 1e3
        problem = bad_output(disp, frame.left.shape)
        if problem:
            failures.append(f"frame {index}: {problem}")
            return
        record.update(
            ms=ms,
            digest=digest(disp),
            epe=end_point_error(disp, frame.disparity),
            bad=three_pixel_error(disp, frame.disparity),
        )

    with contextlib.ExitStack() as stack:
        patch = stack.enter_context(spans.Patched(rec)) if args.trace else None
        ex = stack.enter_context(TileExecutor(workers=spec.workers, pool="process"))
        ism = build_ism(spec, ex)
        for _ in range(spec.pw):  # first propagation window: warm-up
            serve_frame(traced=False)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            return {"setup_s": setup_s}
        warm = len(frames)
        min_frames = QUICK_MIN_FRAMES if args.quick else MIN_FRAMES
        start = time.perf_counter()
        window = 0
        while (
            len(frames) - warm < min_frames
            or time.perf_counter() - start < args.seconds
            or (args.trace and window < 2)
        ):
            traced = bool(args.trace) and window % 2 == 1
            for _ in range(spec.pw):
                serve_frame(traced)
            window += 1
        rec.on = False
        gains = {}
        if patch is not None:
            patch.restore()
            gains = tiling_gains(rec, ex)
    timed = frames[warm:]
    rss = peak_rss_mb()
    checks = {"patches restored": not spans.left_patched()}
    checks.update(probe_check(spec, args.seed, frames))
    layers = {}
    if args.trace:
        layers = layer_metrics(rec, timed, gains, model_nonkey_ms(spec, args.seed))
    served = [f for f in timed if f["ms"] is not None]
    scored = served[:MIN_FRAMES]  # a fixed prefix: quality is exact per seed
    return {
        "setup_s": setup_s,
        "rss_mb": rss,
        "attempted": len(timed),
        "failed": len(timed) - len(served),
        "failures": failures[:10],
        "step_ms": [f["ms"] for f in served if not f["traced"]],
        "key": [f["key"] for f in served if not f["traced"]],
        "digests": [f.get("digest") for f in frames],
        "epe_px": statistics.fmean(f["epe"] for f in scored) if scored else None,
        "bad_pixel_rate": statistics.fmean(f["bad"] for f in scored) if scored else None,
        "checks": checks,
        "layers": layers,
    }


def probe_check(spec: PixelSpec, seed: int, frames: list[dict]) -> dict:
    """``QualityProbe.score_plan`` over the leading frames must score
    exactly what this run served (it rebuilds the pipeline serially,
    untraced)."""
    stream = clip_stream(spec, seed, 0, n_frames=PROBE_FRAMES)
    with QualityProbe(matcher=spec.matcher, max_disp=spec.max_disp) as probe:
        quality = probe.score_plan(stream)
    ours = [(f.get("epe"), f.get("bad")) for f in frames[:PROBE_FRAMES]]
    theirs = [(q.epe_px, q.bad_pixel_rate) for q in quality.frames]
    return {"probe agrees": ours == theirs}


def model_nonkey_ms(spec: PixelSpec, seed: int) -> float:
    """``FrameCoster``'s systolic prediction of one non-key frame."""
    coster = FrameCoster(get_backend("systolic"))
    return coster.nonkey_frame_seconds(clip_stream(spec, seed, 0)) * 1e3


def layer_metrics(rec: spans.Recorder, units: list[dict], gains: dict,
                  model_ms: float | None) -> dict:
    """Every per-layer metric, from the traced units of one run.

    ``units`` are the timed frames (``key`` set) or fleet serves
    (``kind`` set); ``ms`` is a frame's step time or a serve's host
    time per simulated frame.  Times are per unit: the median, over the
    traced units where a layer ran, of the time it took in that unit.
    A layer that did no work in this workload reads 0.  ``model_ms`` is
    the modelled non-key frame the measured one is set against.
    """
    per = spans.unit_totals(rec)
    ms = spans.median_ms
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"] and u["ms"] is not None]
    frames = [u for u in units if "key" in u]
    nonkey = [u["unit"] for u in traced if u.get("key") is False]
    expands = sum(per["flow.expand"].get(u, (0, 0, 0))[2] for u in nonkey)
    key_match = {
        u: [a + b for a, b in zip(per["stereo.bm"].get(u, (0, 0, 0)),
                                  per["stereo.sgm"].get(u, (0, 0, 0)))]
        for u in per["stereo.bm"].keys() | per["stereo.sgm"].keys()
    }
    splits = sum(v for (_u, n), v in rec.counts.items() if n == "parallel.split_rows")
    bands = sum(v for (_u, n), v in rec.counts.items() if n == "parallel.split_rows.items")
    calls = [rec.counts.get((u["unit"], "backends.network_result"), 0) for u in traced if "kind" in u]
    builds = [per["backends.cost_model"].get(u["unit"], (0, 0, 0))[2] for u in traced if "kind" in u]
    failovers = [u["migrations"] for u in units if u.get("kind") == "chaos"]

    def p50(values):
        return statistics.median(values) if values else 0.0

    nonkey_p50 = p50([u["ms"] for u in plain if u.get("key") is False])
    return {
        "flow.expand_ms": ms(per["flow.expand"]),
        "flow.iterate_ms": ms(per["flow.iterate"]),
        "flow.expand_calls_per_nonkey": expands / len(nonkey) if nonkey else 0.0,
        "flow.warp_ms": ms(per["flow.warp"]),
        "correspondence.propagate_ms": ms(per["correspondence.propagate"]),
        "correspondence.refine_ms": ms(per["correspondence.refine"]),
        "correspondence.compose_ms": ms(per["correspondence.compose"]),
        "stereo.flow_median_ms": ms(per["stereo.flow_median"]),
        "stereo.fill_ms": ms(per["stereo.fill"]),
        "stereo.guided_ms": ms(per["stereo.guided"]),
        "stereo.median_clean_ms": ms(per["stereo.median_clean"]),
        "stereo.key_match_ms": ms(key_match),
        "stereo.sgm_aggregate_ms": ms(per["stereo.sgm_aggregate"]),
        "stereo.sgm_wta_ms": ms(per["stereo.sgm_wta"]),
        "stereo.sgm_cost_self_ms": ms(per["stereo.sgm"], 1),
        "ism.step_self_ms": ms(per["ism.step"], 1),
        "ism.key_fraction": sum(u["key"] for u in frames) / len(frames) if frames else 0.0,
        "ism.key_p50_ms": p50([u["ms"] for u in plain if u.get("key") is True]),
        "ism.nonkey_p50_ms": nonkey_p50,
        "parallel.bands_per_call": bands / splits if splits else 0.0,
        "parallel.shm_share_ms": ms(per["parallel.shm_share"]),
        **gains,
        "backends.network_result_calls": p50(calls),
        "backends.cost_model_builds": p50(builds),
        "backends.memo_hit_rate": 1.0 - sum(builds) / sum(calls) if sum(calls) else 0.0,
        "backends.cost_model_ms": ms(per["backends.cost_model"]),
        "deconv.optimize_layers_ms": ms(per["deconv.optimize_layers"]),
        "pipeline.serve_self_ms": ms(per["pipeline.serve"], 1),
        "cluster.place_self_ms": ms(per["cluster.place"], 1),
        "cluster.chaos_run_self_ms": ms(per["cluster.chaos_run"], 1),
        "cluster.failover_events": p50(failovers),
        "pipeline.model_gap": nonkey_p50 / model_ms if model_ms else 0.0,
        "datasets.render_ms": ms(per["datasets.render"]),
        "trace.overhead_pct": overhead_pct(
            [u["ms"] for u in traced if u["ms"] is not None], [u["ms"] for u in plain]
        ),
    }


#: span name -> the TileExecutor method whose first calls it captured
_REPLAYED = {
    "stereo.guided": ("guided", "guided_block_match"),
    "flow.iterate": ("flow", "flow_iteration"),
    "parallel.poly": ("poly", "poly_expansion"),
    "stereo.bm": ("bm", "block_match"),
}


def tiling_gains(rec: spans.Recorder, ex: TileExecutor | None) -> dict:
    """Inline time over tiled time of each kernel's first captured
    calls, replayed after the run (0.0 without a worker pool)."""
    gains = {f"parallel.tiling_gain.{short}": 0.0 for short, _ in _REPLAYED.values()}
    if ex is None or ex.workers == 1:
        return gains
    with TileExecutor(workers=1) as inline:
        for name, (short, attr) in _REPLAYED.items():
            calls = rec.captured.get(name)
            if not calls:
                continue
            method = getattr(TileExecutor, attr)
            took = {}
            for target in (inline, ex):
                t = time.perf_counter()
                for call_args, call_kwargs in calls:
                    method(target, *call_args[1:], **call_kwargs)
                took[target] = time.perf_counter() - t
            gains[f"parallel.tiling_gain.{short}"] = took[inline] / took[ex]
    return gains


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """How much slower the median traced unit ran than the untraced one."""
    if not traced or not plain:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


# ----------------------------------------------------------------------
# fleet workload
# ----------------------------------------------------------------------
def fleet_streams(spec: FleetSpec, seed: int) -> list[FrameStream]:
    """Mixed PW-2/PW-4 cameras; ``seed`` rotates the deadline classes."""
    return [
        FrameStream(
            f"cam-{i}",
            network="DispNet",
            size=spec.size,
            n_frames=spec.frames,
            mode="ilar",
            pw=4 if i % 2 else 2,
            fps=spec.fps,
            deadline_s=DEADLINES_S[(i + seed) % len(DEADLINES_S)],
        )
        for i in range(spec.cameras)
    ]


def crash_schedule(spec: FleetSpec, seed: int) -> FaultSchedule:
    """One seeded crash of one shard, 30-70% into the streams."""
    rng = np.random.default_rng(seed)
    labels = [f"{name}:{spec.fleet[:i].count(name)}" for i, name in enumerate(spec.fleet)]
    shard = labels[int(rng.integers(len(labels)))]
    at_s = float(rng.uniform(0.3, 0.7)) * spec.frames / spec.fps
    return FaultSchedule(faults=(CrashFault(shard, at_s=at_s),), seed=seed)


def build_engine(spec: FleetSpec, kind: str, seed: int) -> ClusterEngine:
    """A fresh engine, backends built by name as the docs do."""
    if kind == "chaos":
        return ChaosClusterEngine(
            list(spec.fleet),
            scheduler="edf",
            faults=crash_schedule(spec, seed),
            autoscaler=Autoscaler(backend="gpu"),
        )
    return ClusterEngine(list(spec.fleet), scheduler=kind)


def serve_fleet(spec: FleetSpec, args, rec: spans.Recorder) -> dict:
    serves: list[dict] = []
    failures: list[str] = []
    offered = spec.cameras * spec.frames
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context(spans.Patched(rec)) if args.trace else None
        # loads the registries and the lazily imported schedulers
        ClusterEngine([spec.fleet[0]]).run(
            [FrameStream("warm-up", size=(68, 120), n_frames=2, mode="baseline")]
        )
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            return {"setup_s": setup_s}
        start = time.perf_counter()
        # the disciplines in turn until --seconds have passed, after at
        # least one whole cycle (traced: two, one of them traced); a
        # serve takes about 2 s, so a run ends within one of --seconds
        min_serves = len(DISCIPLINES) * (2 if args.trace else 1)
        for index in itertools.count():
            if index >= min_serves and time.perf_counter() - start >= args.seconds:
                break
            cycle, turn = divmod(index, len(DISCIPLINES))
            kind = DISCIPLINES[turn]
            traced = bool(args.trace) and cycle % 2 == 1
            rec.begin_unit(index, traced, serve=index, discipline=kind)
            streams = fleet_streams(spec, args.seed)
            t = time.perf_counter()
            try:
                report = build_engine(spec, kind, args.seed).run(streams)
            except Exception as err:  # a failing serve is counted, the run goes on
                failures.append(f"{kind}: {type(err).__name__}: {err}")
                continue
            host_s = time.perf_counter() - t
            res = report.resilience
            serves.append({
                "unit": index,
                "kind": kind,
                "host_s": host_s,
                "frames": report.offered_frames,
                "ms": host_s * 1e3 / report.offered_frames,
                "traced": traced,
                "migrations": res.total_migrations if res else 0,
                "sim": {
                    "p99_ms": report.worst_p99_ms,
                    "miss_rate": report.deadline_miss_rate,
                    "missed": report.missed_deadlines,
                    "dropped": report.dropped_frames,
                    "crashes": res.crashes if res else 0,
                },
            })
        rec.on = False
        if patch is not None:
            patch.restore()
    rss = peak_rss_mb()
    sims: dict[str, dict] = {}
    consistent = True
    for s in serves:
        consistent &= sims.setdefault(s["kind"], s["sim"]) == s["sim"]

    def sim(kind: str, field: str):
        return sims.get(kind, {}).get(field)

    checks = {
        "patches restored": not spans.left_patched(),
        "offered frames all accounted": all(s["frames"] == offered for s in serves),
        "repeat serves identical": consistent,
        "edf misses < fifo misses": (sim("edf", "missed") or 0) < (sim("fifo", "missed") or 0),
        "shed drops > 0": (sim("shed", "dropped") or 0) > 0,
        "chaos crashed once": sim("chaos", "crashes") == 1,
    }
    return {
        "setup_s": setup_s,
        "rss_mb": rss,
        "attempted": len(serves) + len(failures),
        "failed": len(failures),
        "failures": failures[:10],
        "serves": [
            {k: s[k] for k in ("kind", "host_s", "frames")} for s in serves if not s["traced"]
        ],
        "sim": sims,
        "checks": checks,
        "layers": layer_metrics(rec, serves, tiling_gains(rec, None), None) if args.trace else {},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = (QUICK if args.quick else WORKLOADS)[args.workload]
    rec = spans.Recorder()
    serve = serve_pixel if isinstance(spec, PixelSpec) else serve_fleet
    result = serve(spec, args, rec)
    if args.trace and not args.setup_only:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"trace-{args.workload}.json"
        meta = {"workload": args.workload, "seed": args.seed, "spec": repr(spec)}
        path.write_text(json.dumps(spans.chrome_trace(rec, os.getpid(), meta)))
        result["trace_file"] = str(path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
