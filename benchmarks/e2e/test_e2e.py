"""Smoke test of the end-to-end benchmark on tiny inputs.

Serves every workload once untraced and once traced with ``quick=True``
(tiny frames, one set-up) and checks the benchmark's own contract.  It
asserts no wall-clock thresholds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import pytest

import run
import spans

BENCH = run.load_bench()
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        (name, trace): run.measure(name, seed=3, seconds=0, trace=trace, quick=True, out=out)
        for name in NAMES
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_printed_with_its_unit(results, trace):
    listed = BENCH["per_layer" if trace else "end_to_end"]
    for name in NAMES:
        line = json.loads(run.contract_line(results[(name, trace)], BENCH))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], results[(name, trace)]["checks"]
        assert line["failed"] == 0 and line["attempted"] >= 1
        units = {k: v["unit"] for k, v in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_percentile_refuses_thin_tails():
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert run.percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError, match="samples beyond"):
        run.percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="samples beyond"):
        run.percentile(list(range(19)), 50)


def test_traces_are_nested_chrome_json(results):
    for name in NAMES:
        events = json.loads(Path(results[(name, 1)]["trace_file"]).read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        by_id = {e["args"]["id"]: e for e in events}
        child_us: dict[int, float] = defaultdict(float)
        for e in events:
            parent = e["args"]["parent"]
            if parent is None:
                continue
            p = by_id[parent]
            assert p["ts"] <= e["ts"] + 1e-3
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
            child_us[parent] += e["dur"]
        assert all(by_id[i]["dur"] - us >= -1e-3 for i, us in child_us.items())


def test_serial_tiled_and_traced_outputs_are_identical(results):
    serial = results[("ism-serial", 0)]["digests"]
    assert run.same_prefix(serial, results[("ism-tiled", 0)]["digests"])
    for name in NAMES:
        assert run.same_prefix(results[(name, 0)]["digests"], results[(name, 1)]["digests"])


def test_no_wrapper_is_left_patched(results):
    assert all(r["checks"]["patches restored"] for r in results.values())
    with spans.Patched(spans.Recorder()):
        assert len(spans.left_patched()) == len(spans.targets())
    assert spans.left_patched() == []
