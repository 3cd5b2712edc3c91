"""Contract of the process-wide DCO schedule memo.

``optimize_layer`` and ``best_static_partition`` each search once per
process for equal inputs, so every backend and model on one
``HWConfig`` shares the solved schedules.  These tests pin what that
sharing must leave alone: each backend's own result cache and its
statistics, caller-owned return values, and byte-identical reports.
Searches are counted by wrapping the private search functions.
"""

import json
import sys
import threading
from collections import Counter

import pytest

from repro.backends import SystolicBackend
from repro.cluster import (
    ChaosClusterEngine,
    ClusterEngine,
    CrashFault,
    FaultSchedule,
)
from repro.deconv import (
    best_static_partition,
    exhaustive,
    lower_conv,
    lower_network,
    optimize_layer,
    optimize_layers,
    optimizer,
)
from repro.hw import ASV_BASE, SystolicModel
from repro.models.stereo_networks import network_specs
from repro.nn.workload import ConvSpec
from repro.pipeline import FrameStream

TINY = (68, 120)


@pytest.fixture
def searches(monkeypatch):
    """Cold memos, and a count of the searches that really run."""
    optimizer._schedule_memo.clear()
    exhaustive._partition_memo.clear()
    calls = Counter()

    def counted(kind, search):
        def wrapper(*args):
            calls[kind] += 1
            return search(*args)
        return wrapper

    monkeypatch.setattr(
        optimizer, "_search_layer", counted("layer", optimizer._search_layer)
    )
    monkeypatch.setattr(
        exhaustive, "_search_partition",
        counted("partition", exhaustive._search_partition),
    )
    return calls


def _ilar_layers():
    return lower_network(network_specs("DispNet", TINY), transform=True, ilar=True)


def test_second_backend_runs_no_search(searches):
    first, second = SystolicBackend(), SystolicBackend()
    cold = first.network_result("DispNet", "ilar", TINY)
    solved = searches["layer"]
    assert solved == len(_ilar_layers())
    warm = second.network_result("DispNet", "ilar", TINY)
    assert searches["layer"] == solved
    assert warm == cold and warm is not cold
    for backend in (first, second):
        info = backend.cache_info()
        assert (info.hits, info.misses) == (0, 1)


def test_other_hwconfig_does_not_reuse_entries(searches):
    base = SystolicBackend().network_result("DispNet", "ilar", TINY)
    solved = searches["layer"]
    small_hw = ASV_BASE.with_resources(pe_rows=12, pe_cols=12)
    small = SystolicBackend(small_hw).network_result("DispNet", "ilar", TINY)
    assert searches["layer"] == 2 * solved
    assert small.cycles > base.cycles


def test_model_subclass_bypasses_the_memo(searches):
    class ProbeModel(SystolicModel):
        pass

    layer = _ilar_layers()[0]
    for _ in range(2):
        optimize_layer(layer, ASV_BASE, ProbeModel(ASV_BASE))
        best_static_partition([layer], ASV_BASE, ProbeModel(ASV_BASE))
    assert searches == {"layer": 2, "partition": 2}
    assert len(optimizer._schedule_memo) == len(exhaustive._partition_memo) == 0


def test_returned_containers_belong_to_the_caller(searches):
    layers = _ilar_layers()[:3]

    first = optimize_layers(layers, ASV_BASE)
    expected = [s.to_dict() for s in first]
    first.append(first[0])
    first[0].rounds.append(first[0].rounds[0])
    first[0].counts.append(5)
    single = optimize_layer(layers[1], ASV_BASE)
    single.rounds.clear()
    single.counts.clear()
    assert [s.to_dict() for s in optimize_layers(layers, ASV_BASE)] == expected

    part, schedules = best_static_partition(layers, ASV_BASE)
    expected = (repr(part), [s.to_dict() for s in schedules])
    schedules.append(schedules[0])
    schedules[0].rounds.append(schedules[0].rounds[0])
    schedules[0].counts.append(5)
    part.ifmap_bytes = 1
    part, schedules = best_static_partition(layers, ASV_BASE)
    assert (repr(part), [s.to_dict() for s in schedules]) == expected
    assert searches == {"layer": 3, "partition": 1}


def test_infeasible_search_raises_every_call_and_is_not_cached(searches):
    tiny = ASV_BASE.with_resources(buffer_bytes=8 * 1024, bank_bytes=4 * 1024)
    work = lower_conv(ConvSpec("fat", 4, 4, (48, 48), (48, 48), (1, 1), (0, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="no feasible schedule"):
            optimize_layer(work, tiny, SystolicModel(tiny))
        with pytest.raises(ValueError, match="buffer too small"):
            best_static_partition([work], tiny)
    assert searches == {"layer": 2, "partition": 2}
    assert len(optimizer._schedule_memo) == len(exhaustive._partition_memo) == 0


def test_concurrent_callers_share_one_search(searches):
    layer = _ilar_layers()[0]
    n_threads = 8
    start = threading.Barrier(n_threads)
    schedules = []

    def worker():
        start.wait(timeout=30)
        schedules.append(optimize_layer(layer, ASV_BASE))

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert searches["layer"] == 1
    assert len({id(s) for s in schedules}) == n_threads
    assert len({json.dumps(s.to_dict()) for s in schedules}) == 1


def _cluster_reports() -> tuple[str, str]:
    def streams():
        return [
            FrameStream(f"cam{i}", size=TINY, n_frames=8, mode="ilar",
                        deadline_s=0.05)
            for i in range(3)
        ]

    fleet = ["systolic", "systolic"]
    fifo = ClusterEngine(fleet, scheduler="fifo").run(streams())
    crash = FaultSchedule(faults=(CrashFault("systolic:0", at_s=0.05),))
    chaos = ChaosClusterEngine(fleet, scheduler="edf", faults=crash).run(streams())
    return repr(fifo), repr(chaos)


def test_cluster_reports_match_cold_and_warm(searches):
    cold = _cluster_reports()
    solved = searches["layer"]
    assert solved > 0
    assert _cluster_reports() == cold
    assert searches["layer"] == solved
