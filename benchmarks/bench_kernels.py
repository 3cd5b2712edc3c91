"""Library kernel microbenchmarks + tiled multi-core measurements.

Two layers:

* the **microbenchmarks** (real repeated timing of the single-core
  kernels) keep substrate performance regressions visible, and pin the
  algorithmic ordering — guided search beats full search, the
  transformed deconvolution beats the zero-stuffed one;
* the **tiled execution bench** measures what
  :class:`repro.parallel.TileExecutor` buys on this machine: each
  matcher runs whole-frame (*serial*) and tiled, one band per worker
  on a shared-memory process pool (*tiled*).  The seam-equivalence
  contract is asserted for the tiled run (bit-identical output — this
  is the part CI smoke-runs), every latency lands in
  ``benchmarks/results/BENCH_kernels.json``, and the run must leave no
  stray ``/dev/shm/asv_*`` segments behind.  Flow is not banded: the
  non-key bench times the Farneback kernels against their tap-loop
  and scalar baselines, and asserts that a multi-worker ISM (flow
  split by stream, guided search tiled) serves the serial disparities.

Wall-clock *speedup* is machine-dependent (worker count, core count,
thermal state), so it is printed and recorded but only asserted when
``ASV_BENCH_ASSERT_SPEEDUP=1`` is set — run that locally on a
multi-core box, never in CI.  Knobs:

* ``ASV_BENCH_SIZE``  — ``HxW`` cap for every frame in this file
  (CI smoke uses a tiny one);
* ``ASV_BENCH_WORKERS`` — pool size for the tiled runs (default: all
  cores, at least 2 so tiling is always exercised);
* ``ASV_BENCH_ASSERT_SPEEDUP`` — opt-in ``>= 2x`` speedup gate.
"""

import glob
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from benchmarks.conftest import RESULTS_DIR
from repro.core import ISM, ISMConfig, correspondence
from repro.datasets import sceneflow_scene
from repro.deconv import deconv_via_subconvolutions
from repro.flow import (
    FrameExpansion,
    bilinear_sample,
    blur_kernel1d,
    downsample2,
    farneback_flow,
    flow_from_expansions,
    flow_iteration,
    gaussian_blur,
    gaussian_kernel1d,
    poly_expansion,
)
from repro.nn.ops import deconvnd
from repro.parallel import TileExecutor
from repro.stereo import block_match, guided_block_match, sgm
from repro.stereo import block_matching as bm_mod
from repro.stereo.sgm import _DIRECTIONS_8, aggregate_path, aggregate_volume
from repro.tables import render_table


def _size_cap(default):
    """Apply the ``ASV_BENCH_SIZE`` ``HxW`` cap to a default size."""
    txt = os.environ.get("ASV_BENCH_SIZE")
    if not txt:
        return default
    h, w = (int(v) for v in txt.lower().split("x"))
    return (min(h, default[0]), min(w, default[1]))


SIZE = _size_cap((96, 160))
MAX_DISP = min(32, SIZE[1] // 2)

#: the paper's serving resolution (qHD) for the tiled measurements;
#: SGM — whose aggregation is a Python-level DP sweep — runs at half
#: that so the whole bench stays minutes, not hours
FULL_SIZE = _size_cap((540, 960))
SGM_SIZE = _size_cap((270, 480))
FULL_MAX_DISP = min(64, FULL_SIZE[1] // 2)
WORKERS = int(
    os.environ.get("ASV_BENCH_WORKERS", str(max(2, os.cpu_count() or 2)))
)


@pytest.fixture(scope="module")
def frame():
    return sceneflow_scene(5, size=SIZE, max_disp=MAX_DISP).render(0)


@pytest.fixture(scope="module")
def pair():
    scene = sceneflow_scene(5, size=SIZE, max_disp=MAX_DISP, max_speed=1.5)
    return scene.render(0), scene.render(1)


def _clock(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# single-core microbenchmarks
# ----------------------------------------------------------------------
def test_block_match_kernel(benchmark, frame):
    disp = benchmark(block_match, frame.left, frame.right, MAX_DISP)
    assert disp.shape == SIZE


def test_guided_search_kernel(benchmark, frame):
    disp = benchmark(
        guided_block_match, frame.left, frame.right, frame.disparity, 4
    )
    assert disp.shape == SIZE


def test_guided_search_faster_than_full(frame):
    """The algorithmic point of ISM's refinement: a +/-4 window costs
    a fraction of the full search."""
    full = _clock(lambda: block_match(frame.left, frame.right, MAX_DISP))
    guided = _clock(
        lambda: guided_block_match(frame.left, frame.right, frame.disparity, 4)
    )
    assert guided < full


def test_float32_cost_volume_not_slower_by_much(frame):
    """The precision knob trades memory traffic for rounding; it must
    never cost meaningful extra time.  A 1.5x relative bound on a
    millisecond-scale call is noise-sensitive, so like the speedup
    gate it is printed always but asserted only opt-in (never in the
    CI smoke run)."""
    f64 = _clock(lambda: block_match(frame.left, frame.right, MAX_DISP))
    f32 = _clock(
        lambda: block_match(
            frame.left, frame.right, MAX_DISP, precision="float32"
        )
    )
    print(f"float32/float64 block_match: {f32 / f64:.2f}x")
    if os.environ.get("ASV_BENCH_ASSERT_SPEEDUP"):
        assert f32 < 1.5 * f64


def test_sgm_kernel(benchmark, frame):
    disp = benchmark(sgm, frame.left, frame.right, MAX_DISP)
    assert disp.shape == SIZE


def test_farneback_kernel(benchmark, pair):
    f0, f1 = pair
    flow = benchmark(farneback_flow, f0.left, f1.left)
    assert flow.shape == SIZE + (2,)


def test_deconv_transformation_kernel(benchmark):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 24, 40))
    w = rng.normal(size=(16, 32, 4, 4))
    out = benchmark(deconv_via_subconvolutions, x, w, 2, 1)
    assert out.shape == (16, 48, 80)


def test_transformed_deconv_faster_than_naive():
    """The MAC reduction shows up in wall-clock too."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(32, 24, 40))
    w = rng.normal(size=(16, 32, 4, 4))

    naive = _clock(lambda: deconvnd(x, w, stride=2, padding=1))
    ours = _clock(lambda: deconv_via_subconvolutions(x, w, 2, 1))
    assert ours < naive


# ----------------------------------------------------------------------
# tiled multi-core execution: seams + speedup -> BENCH_kernels.json
# ----------------------------------------------------------------------
def _tiled_cases():
    """(name, size, serial call, tiled call) per matcher."""
    big = sceneflow_scene(
        7, size=FULL_SIZE, max_disp=min(FULL_MAX_DISP, 48)
    ).render(0)
    small = sceneflow_scene(
        7, size=SGM_SIZE, max_disp=min(FULL_MAX_DISP, 48)
    ).render(0)
    md = FULL_MAX_DISP
    return [
        ("bm", FULL_SIZE, big,
         lambda ex: ex.block_match(big.left, big.right, md)),
        ("census", FULL_SIZE, big,
         lambda ex: ex.census_block_match(big.left, big.right, md)),
        ("guided", FULL_SIZE, big,
         lambda ex: ex.guided_block_match(
             big.left, big.right, big.disparity, radius=4)),
        ("sgm", SGM_SIZE, small,
         lambda ex: ex.sgm(
             small.left, small.right, min(64, SGM_SIZE[1] // 2), paths=8)),
    ]


def _shm_segments():
    """Names of this package's live shm segments (None off-Linux)."""
    if not Path("/dev/shm").exists():
        return None
    return set(glob.glob("/dev/shm/asv_*"))


def _scalar_aggregate(cost, dy, dx, p1, p2):
    """Per-cell Python DP — the pre-vectorization shape of
    ``aggregate_path`` (same recurrence the pinned scalar reference in
    ``tests/test_stereo_matchers.py`` uses), kept here as the honest
    "before" baseline for the sweep vectorization."""
    d, h, w = cost.shape
    out = np.empty_like(cost)
    ys = range(h) if dy >= 0 else range(h - 1, -1, -1)
    xs = range(w) if dx >= 0 else range(w - 1, -1, -1)
    for y in ys:
        for x in xs:
            py, px = y - dy, x - dx
            if not (0 <= py < h and 0 <= px < w):
                out[:, y, x] = cost[:, y, x]
                continue
            prev = out[:, py, px]
            floor = prev.min()
            best = np.minimum(prev, floor + p2)
            best[1:] = np.minimum(best[1:], prev[:-1] + p1)
            best[:-1] = np.minimum(best[:-1], prev[1:] + p1)
            out[:, y, x] = cost[:, y, x] + (best - floor)
    return out


def _bench_aggregation():
    """Before/after for the SGM hot loop.

    Two measurements: the *vectorization* win (scalar per-cell DP vs
    the line-vectorized ``aggregate_path``, one diagonal direction on
    a small volume — the scalar loop would take minutes at qHD), and
    the fused 8-direction :func:`aggregate_volume` vs its
    per-direction composition (the fused form writes no per-direction
    volume: each sweep folds its finished lines into the total).  The
    two are asserted byte-equal in
    float64 and float32 on every run, on a volume larger than the
    unit pins in ``tests/test_stereo_matchers.py``."""
    h, w = _size_cap((64, 96))
    small = np.random.default_rng(2).random((16, h, w))
    assert np.array_equal(  # apples to apples: same DP, same bits
        _scalar_aggregate(small, 1, 1, 1.0, 8.0),
        aggregate_path(small, 1, 1, 1.0, 8.0),
    )
    t_scalar = _clock(lambda: _scalar_aggregate(small, 1, 1, 1.0, 8.0),
                      reps=1)
    t_vector = _clock(lambda: aggregate_path(small, 1, 1, 1.0, 8.0),
                      reps=3)

    h, w = _size_cap((270, 480))
    cost = np.random.default_rng(3).random((min(32, FULL_MAX_DISP), h, w))

    def per_direction(volume=cost):
        total = np.zeros_like(volume)
        for dy, dx in _DIRECTIONS_8:
            total += aggregate_path(volume, dy, dx, 1.0, 8.0)
        return total

    # also warms the allocator and pages before timing either form
    for volume in (cost, cost.astype(np.float32)):
        assert (  # same DP, same summation order, same bytes
            aggregate_volume(volume, 1.0, 8.0, paths=8).tobytes()
            == per_direction(volume).tobytes()
        ), f"fused aggregation differs from the composition ({volume.dtype})"
    t_fused = _clock(lambda: aggregate_volume(cost, 1.0, 8.0, paths=8),
                     reps=3)
    t_composed = _clock(per_direction, reps=3)
    return {
        "scalar_shape": [16, *_size_cap((64, 96))],
        "scalar_s": t_scalar,
        "vectorized_s": t_vector,
        "vectorization_speedup": t_scalar / t_vector,
        "volume_shape": list(cost.shape),
        "fused_s": t_fused,
        "per_direction_s": t_composed,
        "fused_vs_composed": t_composed / t_fused,
    }


def test_tiled_execution_speedup_and_seams(save_table):
    segments_before = _shm_segments()
    serial = TileExecutor(workers=1)
    rows, records = [], {}
    with TileExecutor(workers=WORKERS, pool="process") as tiled:
        for name, size, _frame_obj, call in _tiled_cases():
            # seam equivalence is the part that gates CI — tile seams
            # must be bit-identical to whole-frame execution
            assert np.array_equal(call(serial), call(tiled)), (
                f"{name}: tiled output differs from whole-frame"
            )
            t_serial = _clock(lambda: call(serial), reps=2)
            t_tiled = _clock(lambda: call(tiled), reps=2)
            records[name] = {
                "size": list(size),
                "serial_s": t_serial,
                "tiled_s": t_tiled,
                "speedup": t_serial / t_tiled,
                "seam_identical": True,
            }
            rows.append(
                [name, f"{size[0]}x{size[1]}",
                 1e3 * t_serial, 1e3 * t_tiled, t_serial / t_tiled, "yes"]
            )

    aggregation = _bench_aggregation()
    report = {
        "bench": "kernels",
        "workers": WORKERS,
        "pool": "process",
        "cpu_count": os.cpu_count(),
        "max_disp": FULL_MAX_DISP,
        "smoke_size_cap": os.environ.get("ASV_BENCH_SIZE"),
        "kernels": records,
        "sgm_aggregation": aggregation,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernels.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    save_table(
        "kernels_tiled",
        render_table(
            f"Tiled kernel execution — {WORKERS} process workers on "
            f"{os.cpu_count()} cores (speedup = serial/tiled; "
            f"machine-dependent, asserted only with "
            f"ASV_BENCH_ASSERT_SPEEDUP=1)",
            ["kernel", "frame", "serial ms", "tiled ms", "speedup",
             "seam-identical"],
            rows,
        ),
    )
    print(f"[saved to {path}]")
    print(f"aggregation vectorization: "
          f"{aggregation['vectorization_speedup']:.1f}x over scalar DP; "
          f"fused vs composed: {aggregation['fused_vs_composed']:.2f}x")

    # shared-memory band jobs must leave /dev/shm exactly as they found it
    segments_after = _shm_segments()
    if segments_before is not None:
        leaked = segments_after - segments_before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"

    if os.environ.get("ASV_BENCH_ASSERT_SPEEDUP"):
        # opt-in, multi-core-host-only gates (see module docstring)
        assert aggregation["vectorization_speedup"] >= 5.0, (
            "vectorized aggregate_path must beat the scalar DP >= 5x, "
            f"got {aggregation['vectorization_speedup']:.1f}x"
        )
        for name in ("sgm", "census"):
            assert records[name]["speedup"] > 1.0, (
                f"{name}: tiled run slower than serial "
                f"({records[name]['speedup']:.2f}x)"
            )
        best = max(r["speedup"] for r in records.values())
        assert best >= 2.0, (
            f"expected >= 2x multi-worker speedup, best was {best:.2f}x "
            f"({os.cpu_count()} cores, {WORKERS} workers)"
        )


# ----------------------------------------------------------------------
# the non-key path: before/after for flow, guided search and ISM.step
# ----------------------------------------------------------------------
# "Before" baselines, kept in the pre-vectorization shape: Python tap
# loops over shifted whole-image views for the moment filters, one
# bilinear_sample / gaussian_blur call per channel in the iteration,
# and one gather + box filter per offset in the guided search.  The
# guided loop is bit-identical to the batched kernel (asserted); the
# correlate1d-based flow rounds differently at the last bit, so its
# max-abs deviation is measured and recorded instead.

def _tap_sep_correlate(img, ky, kx):
    pad_y = len(ky) // 2
    pad_x = len(kx) // 2
    padded = np.pad(img, ((pad_y, pad_y), (0, 0)), mode="edge")
    tmp = np.zeros_like(img)
    for i, t in enumerate(ky):
        if t:
            tmp += t * padded[i : i + img.shape[0], :]
    padded = np.pad(tmp, ((0, 0), (pad_x, pad_x)), mode="edge")
    out = np.zeros_like(img)
    for i, t in enumerate(kx):
        if t:
            out += t * padded[:, i : i + img.shape[1]]
    return out


def _tap_poly_expansion(img, sigma=1.5, radius=None, precision="float64"):
    img = np.asarray(img, dtype=np.float64)
    if radius is None:
        radius = max(2, int(round(3.0 * sigma)))
    g0 = gaussian_kernel1d(sigma, radius)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g1, g2 = g0 * x, g0 * x * x
    m00 = _tap_sep_correlate(img, g0, g0)
    m01 = _tap_sep_correlate(img, g0, g1)
    m10 = _tap_sep_correlate(img, g1, g0)
    m02 = _tap_sep_correlate(img, g0, g2)
    m20 = _tap_sep_correlate(img, g2, g0)
    m11 = _tap_sep_correlate(img, g1, g1)
    s0 = g0.sum()
    s2 = float((g0 * x * x).sum())
    s4 = float((g0 * x**4).sum())
    G = np.array(
        [
            [s0, 0, 0, s2, s2, 0],
            [0, s2, 0, 0, 0, 0],
            [0, 0, s2, 0, 0, 0],
            [s2, 0, 0, s4, s2 * s2, 0],
            [s2, 0, 0, s2 * s2, s4, 0],
            [0, 0, 0, 0, 0, s2 * s2],
        ]
    )
    moments = np.stack([m00, m01, m10, m02, m20, m11], axis=-1)
    coeffs = moments @ np.linalg.inv(G).T
    h, w = img.shape
    A = np.empty((h, w, 2, 2))
    A[..., 0, 0] = coeffs[..., 4]
    A[..., 1, 1] = coeffs[..., 3]
    A[..., 0, 1] = A[..., 1, 0] = coeffs[..., 5] / 2.0
    b = np.empty((h, w, 2))
    b[..., 0] = coeffs[..., 2]
    b[..., 1] = coeffs[..., 1]
    return A, b


def _tap_flow_iteration(A1, b1, A2, b2, flow, window_sigma=4.0):
    h, w = flow.shape[:2]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sy = yy + flow[..., 0]
    sx = xx + flow[..., 1]
    A2w = np.stack(
        [bilinear_sample(A2[..., i, j], sy, sx) for i in range(2) for j in range(2)],
        axis=-1,
    ).reshape(h, w, 2, 2)
    b2w = np.stack(
        [bilinear_sample(b2[..., i], sy, sx) for i in range(2)], axis=-1
    )
    A = 0.5 * (A1 + A2w)
    db = -0.5 * (b2w - b1) + np.einsum("hwij,hwj->hwi", A, flow)
    G = np.einsum("hwki,hwkj->hwij", A, A)
    hvec = np.einsum("hwki,hwk->hwi", A, db)
    for i in range(2):
        hvec[..., i] = gaussian_blur(hvec[..., i], window_sigma)
        for j in range(2):
            G[..., i, j] = gaussian_blur(G[..., i, j], window_sigma)
    trace = G[..., 0, 0] + G[..., 1, 1]
    lam = 1e-3 * 0.5 * trace + 1e-12
    g00 = G[..., 0, 0] + lam
    g11 = G[..., 1, 1] + lam
    det = g00 * g11 - G[..., 0, 1] * G[..., 1, 0]
    new = np.empty_like(flow)
    new[..., 0] = (g11 * hvec[..., 0] - G[..., 0, 1] * hvec[..., 1]) / det
    new[..., 1] = (g00 * hvec[..., 1] - G[..., 1, 0] * hvec[..., 0]) / det
    return new


class _TapFlow:
    """The pre-vectorization flow stack behind the ``flow=`` duck
    interface, so a whole ISM can run on the "before" kernels."""

    @staticmethod
    def expand_frame(frame, levels=3, sigma=1.5, radius=None, precision="float64"):
        f = np.asarray(frame, dtype=np.float64)
        if f.ndim == 3:
            f = f.mean(axis=2)
        pyramid = [f]
        for _ in range(levels - 1):
            if min(pyramid[-1].shape) < 16:
                break
            pyramid.append(downsample2(pyramid[-1]))
        return FrameExpansion(
            coeffs=tuple(_tap_poly_expansion(p, sigma) for p in pyramid),
            shapes=tuple(p.shape for p in pyramid),
            levels=levels, sigma=sigma, radius=radius, precision=precision,
        )

    @staticmethod
    def flow_from_expansions(exp0, exp1, iterations=3, window_sigma=4.0):
        return flow_from_expansions(
            exp0, exp1, iterations, window_sigma, step=_tap_flow_iteration
        )


def _loop_guided(left, right, init, radius=4, block_size=9, subpixel=True,
                 accept_margin=0.1, precision="float64"):
    """Per-offset guided search (the pre-batching loop) — bit-identical
    to the batched kernel, so the comparison is asserted, not measured."""
    dtype = bm_mod.resolve_precision(precision)
    left = bm_mod._as_float(left, dtype)
    right = bm_mod._as_float(right, dtype)
    init = np.asarray(init, dtype=np.float64)
    h, w = left.shape
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.rint(init).astype(int)
    offsets = np.arange(-radius, radius + 1)
    costs = np.empty((offsets.size, h, w), dtype=dtype)
    any_valid = np.zeros((h, w), dtype=bool)
    init_valid = None
    for i, off in enumerate(offsets):
        d = base + off
        sample_x = xx + d
        valid = (sample_x >= 0) & (sample_x < w) & (d >= 0)
        diff = np.abs(left - right[yy, np.clip(sample_x, 0, w - 1)])
        costs[i] = bm_mod._box_mean(diff, block_size)
        costs[i][~valid] = bm_mod._BIG
        any_valid |= valid
        if off == 0:
            init_valid = valid
    best = costs.argmin(axis=0)
    if accept_margin > 0:
        init_cost = costs[radius]
        best_cost = np.take_along_axis(costs, best[None], axis=0)[0]
        best = np.where(init_cost <= best_cost + accept_margin, radius, best)
    disp = (base + offsets[best]).astype(np.float64)
    if subpixel:
        frac = bm_mod._subpixel_refine(costs, best.astype(np.float64))
        disp = base + offsets[0] + frac
    keep_init = ~any_valid
    if accept_margin > 0:
        keep_init |= ~init_valid
    disp = np.where(
        keep_init, np.clip(init, 0.0, (w - 1 - xx).astype(np.float64)), disp
    )
    return np.maximum(disp, 0.0)


def _scalar_flow_iteration(A1, b1, A2, b2, flow, window_sigma):
    """Per-pixel scalar Farneback update — the same computation
    :func:`flow_iteration` vectorizes (pinned bit-identical by
    ``tests/test_flow.py``), timed on a small frame exactly like the
    scalar SGM DP above."""
    h, w = flow.shape[:2]
    stack = np.empty((5, h, w))
    for y in range(h):
        for x in range(w):
            sy = min(max(y + flow[y, x, 0], 0.0), h - 1.0)
            sx = min(max(x + flow[y, x, 1], 0.0), w - 1.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            w00 = (1 - fy) * (1 - fx)
            w01 = (1 - fy) * fx
            w10 = fy * (1 - fx)
            w11 = fy * fx
            A2w = (A2[y0, x0] * w00 + A2[y0, x1] * w01
                   + A2[y1, x0] * w10 + A2[y1, x1] * w11)
            b2w = (b2[y0, x0] * w00 + b2[y0, x1] * w01
                   + b2[y1, x0] * w10 + b2[y1, x1] * w11)
            A = 0.5 * (A1[y, x] + A2w)
            db = -0.5 * (b2w - b1[y, x]) + A @ flow[y, x]
            G = A @ A
            hv = A @ db
            stack[0, y, x] = G[0, 0]
            stack[1, y, x] = G[0, 1]
            stack[2, y, x] = G[1, 1]
            stack[3, y, x] = hv[0]
            stack[4, y, x] = hv[1]
    taps = blur_kernel1d(window_sigma)
    r = taps.size // 2
    blurred = np.empty_like(stack)
    for p in range(5):
        tmp = np.empty((h, w))
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for t in range(-r, r + 1):
                    acc += stack[p, min(max(y + t, 0), h - 1), x] * taps[r + t]
                tmp[y, x] = acc
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for t in range(-r, r + 1):
                    acc += tmp[y, min(max(x + t, 0), w - 1)] * taps[r + t]
                blurred[p, y, x] = acc
    G00, G01, G11, h0, h1 = blurred
    new = np.empty_like(flow)
    for y in range(h):
        for x in range(w):
            lam = 1e-3 * 0.5 * (G00[y, x] + G11[y, x]) + 1e-12
            g00 = G00[y, x] + lam
            g11 = G11[y, x] + lam
            det = g00 * g11 - G01[y, x] * G01[y, x]
            new[y, x, 0] = (g11 * h0[y, x] - G01[y, x] * h1[y, x]) / det
            new[y, x, 1] = (g00 * h1[y, x] - G01[y, x] * h0[y, x]) / det
    return new


@contextmanager
def _pr7_medians():
    """Pin the median filtering of the non-key path back to scipy's
    generic rank filter — the implementation PR 7 shipped — so the
    "before" ISM pays PR-7's median cost while computing the same
    bits (``median2d`` is bit-identical to ``ndimage.median_filter``
    by construction and by ``tests/test_stereo_matchers.py``)."""
    saved = correspondence.median2d

    def scipy_median(a, size):
        full = (1,) * (a.ndim - 2) + (size, size)
        return ndimage.median_filter(a, size=full)

    correspondence.median2d = scipy_median
    try:
        yield
    finally:
        correspondence.median2d = saved


def _steady_state_step(make_ism, frames, reps=3):
    """Best-of-``reps`` latency of the third (steady-state non-key)
    step."""
    best, disps = float("inf"), None
    for _ in range(reps):
        ism = make_ism()
        ism.step(frames[0], is_key=True)
        d1, _ = ism.step(frames[1])
        t0 = time.perf_counter()
        d2, _ = ism.step(frames[2])
        best = min(best, time.perf_counter() - t0)
        disps = (d1, d2)
    return best, disps


def test_nonkey_path_before_after(save_table):
    """Before/after for every non-key kernel + the served ISM step.

    Always asserted, any machine: the batched guided search is
    bit-identical to the per-offset loop, the cached ISM serves
    bit-identical disparities to the uncached one, the tiled ISM
    serves the serial one's, and the per-pixel scalar flow baseline
    agrees with the kernel.  The wall-clock gates (vectorized flow
    >= 3x the scalar loops, cached step beating
    uncached, the served step >= 3x over the full PR-7 stack — tap
    flow, per-offset guided loop, scipy rank-filter medians, no
    cache) are opt-in via ``ASV_BENCH_ASSERT_SPEEDUP=1`` like every
    other speed assertion here.
    """
    size = _size_cap((270, 480))
    scene = sceneflow_scene(9, size=size, max_disp=min(32, size[1] // 2),
                            max_speed=1.5)
    frames = scene.sequence(3)
    f0 = np.asarray(frames[0].left, dtype=np.float64)
    f1 = np.asarray(frames[1].left, dtype=np.float64)
    if f0.ndim == 3:
        f0, f1 = f0.mean(axis=2), f1.mean(axis=2)

    # --- polynomial expansion: tap loops vs fused correlate1d sweeps
    t_tap_poly = _clock(lambda: _tap_poly_expansion(f0), reps=1)
    t_vec_poly = _clock(lambda: poly_expansion(f0), reps=3)
    A1, b1 = poly_expansion(f0)
    A2, b2 = poly_expansion(f1)
    A1t, b1t = _tap_poly_expansion(f0)
    poly_dev = max(np.abs(A1 - A1t).max(), np.abs(b1 - b1t).max())

    # --- one flow iteration: per-channel blurs vs fused stacked sweep
    flow0 = np.zeros(f0.shape + (2,))
    t_tap_iter = _clock(
        lambda: _tap_flow_iteration(A1, b1, A2, b2, flow0, 2.5), reps=1
    )
    t_vec_iter = _clock(
        lambda: flow_iteration(A1, b1, A2, b2, flow0, window_sigma=2.5), reps=3
    )
    iter_dev = np.abs(
        flow_iteration(A1, b1, A2, b2, flow0, window_sigma=2.5)
        - _tap_flow_iteration(A1, b1, A2, b2, flow0, 2.5)
    ).max()

    # --- the whole vectorized flow
    t_vec_flow = _clock(
        lambda: farneback_flow(f0, f1, levels=3, iterations=2,
                               window_sigma=2.5), reps=2
    )

    # --- guided search: per-offset loop vs batched gather (bitwise)
    fr = frames[1]
    loop = _loop_guided(fr.left, fr.right, fr.disparity)
    batched = guided_block_match(fr.left, fr.right, fr.disparity)
    assert np.array_equal(loop, batched), (
        "batched guided_block_match must be bit-identical to the loop"
    )
    t_loop_guided = _clock(
        lambda: _loop_guided(fr.left, fr.right, fr.disparity), reps=2
    )
    t_batched_guided = _clock(
        lambda: guided_block_match(fr.left, fr.right, fr.disparity), reps=3
    )

    # --- scalar baseline: per-pixel loops at a small size, reps=1
    # (the honest pre-vectorization "before", like the scalar SGM DP)
    sh, sw = _size_cap((32, 48))
    rng = np.random.default_rng(7)
    s0, s1 = rng.random((sh, sw)), rng.random((sh, sw))
    sA1, sb1 = poly_expansion(s0)
    sA2, sb2 = poly_expansion(s1)
    sflow = rng.normal(size=(sh, sw, 2)) * 0.7
    scalar_dev = np.abs(
        _scalar_flow_iteration(sA1, sb1, sA2, sb2, sflow, 2.5)
        - flow_iteration(sA1, sb1, sA2, sb2, sflow, window_sigma=2.5)
    ).max()
    assert scalar_dev < 1e-9, "scalar baseline diverged from the kernel"
    t_scalar_iter = _clock(
        lambda: _scalar_flow_iteration(sA1, sb1, sA2, sb2, sflow, 2.5), reps=1
    )
    t_small_iter = _clock(
        lambda: flow_iteration(sA1, sb1, sA2, sb2, sflow, window_sigma=2.5),
        reps=3,
    )

    # --- the served non-key step at probe resolution: the PR-7 stack
    # (tap-loop flow, per-offset guided search, scipy rank-filter
    # medians, no cache) vs the vectorized path, uncached and cached
    step_size = SIZE
    step_scene = sceneflow_scene(11, size=step_size,
                                 max_disp=min(32, step_size[1] // 2),
                                 max_speed=1.5)
    step_frames = step_scene.sequence(3)
    config = ISMConfig(propagation_window=4)
    dnn = lambda f: f.disparity
    with _pr7_medians():
        t_pr7, _ = _steady_state_step(
            lambda: ISM(dnn, config=config, flow=_TapFlow(),
                        refiner=_loop_guided, expansion_cache=False),
            step_frames,
        )
    t_uncached, d_uncached = _steady_state_step(
        lambda: ISM(dnn, config=config, expansion_cache=False), step_frames
    )
    t_cached, d_cached = _steady_state_step(
        lambda: ISM(dnn, config=config), step_frames
    )
    for a, b in zip(d_uncached, d_cached):
        assert np.array_equal(a, b), (
            "cached non-key disparities differ from uncached"
        )
    # the full serving config: cached + every non-key kernel through
    # the tiled executor — byte-identical to the serial step, faster
    # where there are cores to tile across
    with TileExecutor(workers=WORKERS, pool="process") as step_ex:
        t_tiled_step, d_tiled = _steady_state_step(
            lambda: ISM(dnn, config=config, flow=step_ex,
                        refiner=step_ex.guided_block_match),
            step_frames,
        )
    for a, b in zip(d_cached, d_tiled):
        assert np.array_equal(a, b), (
            "tiled non-key disparities differ from serial"
        )
    t_step_best = min(t_cached, t_tiled_step)

    nonkey = {
        "size": list(size),
        "poly_expansion": {
            "tap_s": t_tap_poly, "vectorized_s": t_vec_poly,
            "speedup": t_tap_poly / t_vec_poly,
            "max_abs_dev": float(poly_dev),
        },
        "flow_iteration": {
            "tap_s": t_tap_iter, "vectorized_s": t_vec_iter,
            "speedup": t_tap_iter / t_vec_iter,
            "max_abs_dev": float(iter_dev),
        },
        "flow_iteration_scalar": {
            "size": [sh, sw],
            "scalar_s": t_scalar_iter, "vectorized_s": t_small_iter,
            "speedup": t_scalar_iter / t_small_iter,
            "max_abs_dev": float(scalar_dev),
        },
        "farneback": {"vectorized_s": t_vec_flow},
        "guided_bm": {
            "loop_s": t_loop_guided, "batched_s": t_batched_guided,
            "speedup": t_loop_guided / t_batched_guided,
            "bitwise_identical": True,
        },
        "ism_step": {
            "size": list(step_size),
            "pr7_s": t_pr7, "uncached_s": t_uncached, "cached_s": t_cached,
            "tiled_s": t_tiled_step,
            "speedup_vs_pr7": t_pr7 / t_step_best,
            "cache_gain": t_uncached / t_cached,
            "cached_equals_uncached": True,
            "tiled_equals_serial": True,
        },
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernels.json"
    report = json.loads(path.read_text()) if path.exists() else {
        "bench": "kernels"
    }
    report["nonkey"] = nonkey
    path.write_text(json.dumps(report, indent=2) + "\n")

    save_table(
        "nonkey_path",
        render_table(
            f"ISM non-key path — before/after at {size[0]}x{size[1]} "
            f"(speedups machine-dependent; gated only with "
            f"ASV_BENCH_ASSERT_SPEEDUP=1)",
            ["stage", "before ms", "after ms", "speedup", "equivalence"],
            [
                ["flow_iteration (scalar)", 1e3 * t_scalar_iter,
                 1e3 * t_small_iter, t_scalar_iter / t_small_iter,
                 f"<= {scalar_dev:.1e}"],
                ["poly_expansion", 1e3 * t_tap_poly, 1e3 * t_vec_poly,
                 t_tap_poly / t_vec_poly, f"<= {poly_dev:.1e}"],
                ["flow_iteration", 1e3 * t_tap_iter, 1e3 * t_vec_iter,
                 t_tap_iter / t_vec_iter, f"<= {iter_dev:.1e}"],
                ["guided_bm", 1e3 * t_loop_guided, 1e3 * t_batched_guided,
                 t_loop_guided / t_batched_guided, "bit-identical"],
                ["ISM.step (non-key)", 1e3 * t_pr7, 1e3 * t_step_best,
                 t_pr7 / t_step_best, "serial == tiled == cached"],
            ],
        ),
    )
    print(f"[nonkey results merged into {path}]")
    print(f"flow iteration {t_scalar_iter / t_small_iter:.1f}x vs scalar, "
          f"{t_tap_iter / t_vec_iter:.1f}x vs tap loops; "
          f"ISM step {t_pr7 / t_step_best:.1f}x vs the PR-7 stack "
          f"(cache gain {t_uncached / t_cached:.2f}x)")

    if os.environ.get("ASV_BENCH_ASSERT_SPEEDUP"):
        # opt-in gates, same contract as the tiled-execution gates
        # above: run on an idle multi-core box, never in CI
        assert t_scalar_iter / t_small_iter >= 3.0, (
            f"vectorized flow iteration must be >= 3x the scalar loops, "
            f"got {t_scalar_iter / t_small_iter:.1f}x"
        )
        assert t_cached < t_uncached, (
            f"cached steady-state step ({1e3 * t_cached:.1f} ms) must "
            f"beat uncached ({1e3 * t_uncached:.1f} ms)"
        )
        assert t_pr7 / t_step_best >= 3.0, (
            f"non-key ISM.step must be >= 3x the PR-7 stack, "
            f"got {t_pr7 / t_step_best:.1f}x"
        )
