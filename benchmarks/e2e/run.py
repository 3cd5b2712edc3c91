"""End-to-end benchmark of the ASV stereo serving stack.

One workload, one run (the form ``BENCHMARK.json``'s ``command`` takes):

    python3 benchmarks/e2e/run.py --workload ism-serial --seed 1 --seconds 28 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
with its unit, then one JSON result line.  Subcommands:

    python3 benchmarks/e2e/run.py run [--seed N] [--rounds 3] [--workloads ...] [--out DIR]
    python3 benchmarks/e2e/run.py trace [--seed N] [--workloads ...] [--out DIR]
    python3 benchmarks/e2e/run.py compare A.json B.json

``README.md`` beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: a run must exit well inside 180 s
RUN_BUDGET_S = 170.0
#: set-ups measured per run; ``setup_s`` is their median
SETUPS = 3
#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
#: frames per window of the pixel workloads' ``throughput_fps``
WINDOW_FRAMES = 4


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``.

    Refuses when fewer than :data:`MIN_BEYOND` samples lie beyond it,
    where a tail percentile stops meaning anything.
    """
    n = len(values)
    if n * (100 - q) / 100 < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; got {n} samples"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("asv_")}
    except FileNotFoundError:
        return set()


def run_child(workload: str, seed: int, seconds: float, trace: int, *,
              setup_only: bool, quick: bool, out: Path, deadline: float) -> dict:
    """Run ``serve.py`` in a fresh interpreter; return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "serve.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    cmd += ["--setup-only"] * setup_only + ["--quick"] * quick
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise SystemExit(f"{workload}: serving did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload}: serve.py exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            quick: bool = False, out: Path = OUT) -> dict:
    """One benchmark run of ``workload``: set-up measured in fresh
    processes, the last of which also serves for ``seconds``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'repro'} is missing")
    deadline = time.monotonic() + RUN_BUDGET_S
    before = shm_segments()
    setups = [
        run_child(workload, seed, 0, 0, setup_only=True, quick=quick, out=out,
                  deadline=deadline)["setup_s"]
        for _ in range(0 if quick else SETUPS - 1)
    ]
    raw = run_child(workload, seed, seconds, trace, setup_only=False, quick=quick,
                    out=out, deadline=deadline)
    setups.append(raw["setup_s"])
    leaked = sorted(shm_segments() - before)
    checks = dict(raw["checks"], **{"no /dev/shm/asv_* leaked": not leaked})
    if trace:
        metrics = dict(raw["layers"], **{"parallel.shm_leaked_segments": len(leaked)})
    else:
        metrics = end_to_end(raw, setups)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": raw["failed"] == 0 and all(checks.values()),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "metrics": metrics,
        "checks": checks,
        "setups_s": setups,
        "extra": extras(raw),
        "digests": raw.get("digests") or [json.dumps(raw.get("sim"), sort_keys=True)],
        "trace_file": raw.get("trace_file"),
    }


def frame_samples(raw: dict) -> list[float]:
    """Host milliseconds per frame.

    The fleet is simulated in bulk, so each simulated frame is charged
    its serve's host time divided by the frames that serve simulated.
    """
    if "step_ms" in raw:
        return raw["step_ms"]
    samples = []
    for s in raw["serves"]:
        samples += [s["host_s"] * 1e3 / s["frames"]] * s["frames"]
    return samples


def throughput_fps(raw: dict) -> float:
    """Sustained frames per host second.

    Pixel workloads: the frames of a window of :data:`WINDOW_FRAMES`
    consecutive frames (one PW-4 propagation window: a key frame and its
    non-key frames) over the median window's step time.  A median over
    windows, unlike frames over the summed time, does not follow the
    few frames a co-tenant burst stalls.  Fleet: simulated frames over
    the summed host time of its serves.
    """
    if "serves" in raw:
        serves = raw["serves"]
        return sum(s["frames"] for s in serves) / sum(s["host_s"] for s in serves)
    ms = raw["step_ms"]
    windows = [sum(ms[i:i + WINDOW_FRAMES])
               for i in range(0, len(ms) - WINDOW_FRAMES + 1, WINDOW_FRAMES)]
    return WINDOW_FRAMES * 1e3 / statistics.median(windows)


def end_to_end(raw: dict, setups: list[float]) -> dict:
    return {
        "throughput_fps": throughput_fps(raw),
        "frame_p50_ms": percentile(frame_samples(raw), 50),
        "peak_rss_mb": raw["rss_mb"],
        "setup_s": statistics.median(setups),
    }


def extras(raw: dict) -> dict:
    """Printed beside the metrics: the tail, sample counts and the
    outputs that are exact per seed.

    The p90 is printed but not gated: co-tenant load on a shared host
    moves it between runs by more than the largest bound allowed.
    """
    samples = frame_samples(raw)
    try:
        tail = {"frame_p90_ms": percentile(samples, 90)}
    except ValueError:  # a traced run times only half its frames plainly
        tail = {}
    if "serves" in raw:
        return {
            **tail,
            "serves": len(raw["serves"]),
            "simulated_frames": len(samples),
            **{f"sim_p99_ms.{k}": v["p99_ms"] for k, v in raw["sim"].items()},
            **{f"sim_miss_rate.{k}": v["miss_rate"] for k, v in raw["sim"].items()},
            **{f"sim_drops.{k}": v["dropped"] for k, v in raw["sim"].items()},
        }
    keys = [ms for ms, k in zip(raw["step_ms"], raw["key"]) if k]
    nonkeys = [ms for ms, k in zip(raw["step_ms"], raw["key"]) if not k]
    return {
        **tail,
        "frames": len(samples),
        "key_frames": len(keys),
        "key_p50_ms": statistics.median(keys) if keys else None,
        "nonkey_p50_ms": statistics.median(nonkeys) if nonkeys else None,
        "epe_px": raw["epe_px"],
        "bad_pixel_rate": raw["bad_pixel_rate"],
        "failed_frame_rate": raw["failed"] / raw["attempted"],
    }


def contract_line(result: dict, bench: dict) -> str:
    """The JSON result line: every metric ``BENCHMARK.json`` lists for
    this mode, by name and unit."""
    listed = bench["per_layer" if result["trace"] else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in listed
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict, bench: dict) -> None:
    listed = bench["per_layer" if result["trace"] else "end_to_end"]
    print(f"{result['workload']}  seed {result['seed']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for m in listed:
        print(f"  {m['name']:<34} {result['metrics'][m['name']]:>14.6g} {m['unit']}")
    for name, value in result["extra"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14}")
    for name, ok in result["checks"].items():
        print(f"  check: {name:<40} {'ok' if ok else 'FAILED'}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    if result["trace_file"]:
        print(f"  trace: {result['trace_file']}")


def same_prefix(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def cmd_run(args, bench: dict) -> int:
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            result = measure(name, args.seed, args.seconds, 0, quick=args.quick, out=args.out)
            print_result(result, bench)
            runs[name].append(result)
    checks = {}
    for name, results in runs.items():
        checks[f"{name}: outputs identical across rounds"] = all(
            same_prefix(results[0]["digests"], r["digests"]) for r in results
        )
    if "ism-serial" in runs and "ism-tiled" in runs:
        checks["ism-serial and ism-tiled disparities identical"] = all(
            same_prefix(s["digests"], t["digests"])
            for s, t in zip(runs["ism-serial"], runs["ism-tiled"])
        )
    doc = {"seed": args.seed, "seconds": args.seconds, "rounds": args.rounds,
           "host": host(), "checks": checks, "workloads": {}}
    print(f"\nmedians over {args.rounds} round(s), seed {args.seed}")
    for name, results in runs.items():
        medians = {
            m["name"]: statistics.median(r["metrics"][m["name"]] for r in results)
            for m in bench["end_to_end"]
        }
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "median": medians,
            "rounds": [r["metrics"] for r in results],
            "extra": [r["extra"] for r in results],
        }
        print(name + "  " + "  ".join(f"{k} {v:.6g}" for k, v in medians.items()))
    for name, ok in checks.items():
        print(f"check: {name:<58} {'ok' if ok else 'FAILED'}")
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"run-s{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1))
    print(f"wrote {path}")
    ok = all(checks.values()) and all(w["correct"] for w in doc["workloads"].values())
    return 0 if ok else 1


def cmd_trace(args, bench: dict) -> int:
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        plain = measure(name, args.seed, args.seconds, 0, quick=args.quick, out=args.out)
        traced = measure(name, args.seed, args.seconds, 1, quick=args.quick, out=args.out)
        print_result(traced, bench)
        same = same_prefix(plain["digests"], traced["digests"])
        print(f"  check: {'traced outputs equal untraced':<40} {'ok' if same else 'FAILED'}")
        ok &= same and plain["correct"] and traced["correct"]
    return 0 if ok else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles interpolated within the runs: with a handful of rounds
    the default (exclusive) method would make the spread the range."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Compare runs of a parent ``a`` and a change ``b`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    worse = sign * (statistics.median(b) - med_a) / med_a
    spread = max((q[2] - q[0]) / q[1] for q in (quartiles(a), quartiles(b)))
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def cmd_compare(args, bench: dict) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    bad = 0
    print(f"{'workload':<11} {'metric':<15} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'worse':>8} {'bound':>6}  verdict")
    for name in [n for n in a["workloads"] if n in b["workloads"]]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in bench["end_to_end"]:
            va = [r[m["name"]] for r in wa["rounds"]]
            vb = [r[m["name"]] for r in wb["rounds"]]
            word, worse = verdict(va, vb, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{name:<11} {m['name']:<15} {qa[1]:>11.5g} "
                  f"{qa[0]:>11.5g}..{qa[2]:<10.5g} {qb[1]:>11.5g} "
                  f"{qb[0]:>11.5g}..{qb[2]:<10.5g} {worse:>+8.1%} {m['bound']:>6.0%}  {word}")
            bad += word in ("regressed", "unresolved")
        if a["seed"] == b["seed"]:
            # simulated and quality outputs are exact per seed
            exact = [
                {k: v for k, v in e.items() if k.startswith(("sim_", "epe", "bad"))}
                for e in wa["extra"] + wb["extra"]
            ]
            same = all(x == exact[0] for x in exact)
            print(f"{name:<11} exact outputs: {'identical' if same else 'DIFFER'}")
            bad += not same
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    bench = load_bench()
    if argv and argv[0] in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("a", help="run JSON of the parent")
            parser.add_argument("b", help="run JSON of the change")
        else:
            parser.add_argument("--seed", type=int, default=1)
            parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
            parser.add_argument("--workloads", nargs="+",
                                choices=[w["name"] for w in bench["workloads"]])
            parser.add_argument("--out", type=Path, default=OUT)
            parser.add_argument("--quick", action="store_true",
                                help="tiny inputs, one set-up: a smoke test")
            if argv[0] == "run":
                parser.add_argument("--rounds", type=int, default=3)
        args = parser.parse_args(argv[1:])
        command = {"run": cmd_run, "trace": cmd_trace, "compare": cmd_compare}[argv[0]]
        return command(args, bench)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     quick=args.quick, out=args.out)
    print_result(result, bench)
    print(contract_line(result, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
