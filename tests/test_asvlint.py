"""The repo's own static-analysis pass, tested the way it gates CI.

Three layers, mirroring ``docs/static-analysis.md``:

* **Fixtures** — every rule (ASV001–ASV005) has at least one failing
  and one passing snippet, with the reported code and line asserted,
  plus the per-line / per-file suppression syntax.
* **The gate** — ``python -m tools.asvlint src`` must exit 0 on the
  committed tree, and reintroducing a violation must fail both the
  CLI and :func:`lint_source`.  ``mypy`` (installed in CI, optional
  locally) must pass on the four typed packages.
* **The dynamic sanitizers** — the ``ASV_SHM_SANITIZE=1`` write-overlap
  sanitizer catches a deliberately overlapping band and accepts the
  real tiled kernels; the determinism canary renders the same chaos
  report byte-for-byte twice.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.executor import _BAND_KERNELS, _run_band, TileExecutor
from repro.parallel.shm import (
    ShmArena,
    ShmSanitizeError,
    arm_segment,
    assert_covered,
    claim_region,
    sanitize_enabled,
    shm_available,
)
from tools.asvlint import (
    Rule,
    available_rules,
    canary_reports,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

needs_shm = pytest.mark.skipif(not shm_available(), reason="no shared memory")


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_builtin_rules_registered():
    assert set(available_rules()) >= {
        "ASV001", "ASV002", "ASV003", "ASV004", "ASV005"
    }


def test_every_rule_carries_catalog_fields():
    for code in available_rules():
        rule = get_rule(code)
        assert rule.code == code
        assert rule.name and rule.rationale and rule.hint


def test_unknown_rule_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rule("ASV999")


def test_third_party_rules_plug_in_like_backends():
    from tools.asvlint import engine

    @register_rule
    class EveryModuleRule(Rule):
        code = "ASV901"
        name = "test-rule"
        rationale = "fixture"
        hint = "n/a"

        def check(self, ctx):
            yield ctx.violation(ctx.tree, self.code, "hello")

    try:
        assert codes(lint_source("x = 1\n", select=["ASV901"])) == ["ASV901"]
    finally:
        engine._RULES.pop("ASV901")


# ----------------------------------------------------------------------
# ASV001 determinism
# ----------------------------------------------------------------------
def test_asv001_flags_wall_clock():
    found = lint_source("import time\nt0 = time.time()\n")
    assert codes(found) == ["ASV001"]
    assert found[0].line == 2
    assert "wall clock" in found[0].message


def test_asv001_allows_perf_counter():
    assert lint_source("import time\nt0 = time.perf_counter()\n") == []


def test_asv001_flags_stdlib_random_and_aliases():
    assert codes(lint_source("import random\nx = random.random()\n")) == ["ASV001"]
    assert codes(lint_source("from random import choice\nx = choice([1])\n")) == [
        "ASV001"
    ]


def test_asv001_flags_unseeded_default_rng():
    bad = "import numpy as np\nrng = np.random.default_rng()\n"
    good = "import numpy as np\nrng = np.random.default_rng(seed)\n"
    assert codes(lint_source(bad)) == ["ASV001"]
    assert lint_source(good) == []


def test_asv001_flags_legacy_np_random_globals():
    found = lint_source("import numpy as np\nnp.random.seed(0)\n")
    assert codes(found) == ["ASV001"]
    assert "global RNG state" in found[0].message


def test_asv001_hash_banned_only_in_strict_packages():
    snippet = "x = hash('stream-0')\n"
    strict = lint_source(snippet, rel="repro/cluster/faults.py")
    assert codes(strict) == ["ASV001"]
    assert strict[0].line == 1
    # outside cluster/pipeline/parallel, hash() is not a lint error
    assert lint_source(snippet, rel="repro/stereo/sgm.py") == []


# ----------------------------------------------------------------------
# ASV002 shm lifecycle
# ----------------------------------------------------------------------
def test_asv002_flags_unreleased_arena():
    bad = (
        "def leak(x):\n"
        "    arena = ShmArena()\n"
        "    handle = arena.share(x)\n"
        "    return handle\n"
    )
    found = lint_source(bad, rel="repro/parallel/executor.py")
    assert codes(found) == ["ASV002"]
    assert found[0].line == 2
    assert "never closed" in found[0].message


def test_asv002_accepts_context_manager_and_explicit_close():
    with_cm = (
        "def fine(x):\n"
        "    with ShmArena() as arena:\n"
        "        return arena.share(x)\n"
    )
    with_close = (
        "def fine(x):\n"
        "    arena = ShmArena()\n"
        "    try:\n"
        "        return arena.share(x)\n"
        "    finally:\n"
        "        arena.close()\n"
    )
    assert lint_source(with_cm, rel="repro/parallel/executor.py") == []
    assert lint_source(with_close, rel="repro/parallel/executor.py") == []


def test_asv002_confines_raw_shared_memory_to_shm_module():
    snippet = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe():\n"
        "    with SharedMemory(name='x', create=True, size=8) as seg:\n"
        "        return seg\n"
    )
    found = lint_source(snippet, rel="repro/cluster/engine.py")
    assert codes(found) == ["ASV002"]
    assert "outside parallel/shm.py" in found[0].message


# ----------------------------------------------------------------------
# ASV003 precision threading
# ----------------------------------------------------------------------
def test_asv003_flags_dtypeless_allocation_on_kernel_paths():
    bad = "import numpy as np\ndef f(h, w):\n    return np.zeros((h, w))\n"
    found = lint_source(bad, rel="repro/stereo/block_matching.py")
    assert codes(found) == ["ASV003"]
    assert found[0].line == 3
    # the same allocation outside the precision scope is fine
    assert lint_source(bad, rel="repro/cluster/report.py") == []


def test_asv003_accepts_explicit_dtype():
    good = (
        "import numpy as np\n"
        "def f(h, w, precision):\n"
        "    return np.zeros((h, w), dtype=resolve_precision(precision))\n"
    )
    assert lint_source(good, rel="repro/stereo/block_matching.py") == []


def test_asv003_flags_bare_float_casts():
    bad = "import numpy as np\ndef f(x):\n    return np.float64(x)\n"
    found = lint_source(bad, rel="repro/flow/warp.py")
    assert codes(found) == ["ASV003"]


def test_asv003_flags_unforwarded_precision_knob():
    bad = (
        "def match(left, right, precision='float64'):\n"
        "    return left - right\n"
    )
    found = lint_source(bad, rel="repro/stereo/census.py")
    assert codes(found) == ["ASV003"]
    assert "never forwards" in found[0].message
    good = (
        "def match(left, right, precision='float64'):\n"
        "    return kernel(left, right, precision=precision)\n"
    )
    assert lint_source(good, rel="repro/stereo/census.py") == []


# ----------------------------------------------------------------------
# ASV004 registry/doc drift
# ----------------------------------------------------------------------
def _registering(name):
    return (
        "from repro.backends.registry import register_backend\n"
        f"@register_backend({name!r})\n"
        "class Custom:\n"
        "    pass\n"
    )


def test_asv004_flags_undocumented_registered_name(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "backends.md").write_text("only `documented-npu` here\n")
    found = lint_source(_registering("mystery-npu"), repo_root=tmp_path)
    assert codes(found) == ["ASV004"]
    assert found[0].line == 2
    assert lint_source(_registering("documented-npu"), repo_root=tmp_path) == []


def test_asv004_committed_registries_are_documented():
    # the live-tree variant of the fixture: every name registered in
    # src/ appears in docs/ (this is what `python -m tools.asvlint src`
    # enforces in CI)
    assert lint_paths([REPO_ROOT / "src"], select=["ASV004"]) == []


# ----------------------------------------------------------------------
# ASV005 bounded submission
# ----------------------------------------------------------------------
def test_asv005_flags_unbounded_submit_loop():
    bad = (
        "def fan_out(pool, jobs):\n"
        "    futures = []\n"
        "    for job in jobs:\n"
        "        futures.append(pool.submit(run, job))\n"
        "    return futures\n"
    )
    found = lint_source(bad)
    assert codes(found) == ["ASV005"]
    assert found[0].line == 4


def test_asv005_flags_submit_comprehension():
    bad = "def fan_out(pool, jobs):\n    return [pool.submit(run, j) for j in jobs]\n"
    assert codes(lint_source(bad)) == ["ASV005"]


def test_asv005_accepts_islice_primed_loop():
    good = (
        "from itertools import islice\n"
        "def prime(pool, jobs, workers):\n"
        "    pending = [pool.submit(run, j) for j in islice(jobs, workers)]\n"
        "    while pending:\n"
        "        result = pending.pop(0).result()\n"
        "        job = next(jobs, None)\n"
        "        if job is not None:\n"
        "            pending.append(pool.submit(run, job))\n"
        "        yield result\n"
    )
    assert lint_source(good) == []


# ----------------------------------------------------------------------
# suppression syntax
# ----------------------------------------------------------------------
def test_line_suppression_silences_named_code():
    src = (
        "import time\n"
        "t0 = time.time()  # asvlint: disable=ASV001  display-only timestamp\n"
    )
    assert lint_source(src) == []


def test_line_suppression_is_code_specific():
    src = "import time\nt0 = time.time()  # asvlint: disable=ASV002\n"
    assert codes(lint_source(src)) == ["ASV001"]


def test_line_suppression_only_covers_its_line():
    src = (
        "import time\n"
        "a = time.time()  # asvlint: disable=ASV001\n"
        "b = time.time()\n"
    )
    found = lint_source(src)
    assert [(v.code, v.line) for v in found] == [("ASV001", 3)]


def test_file_suppression_and_all_wildcard():
    src = (
        "# asvlint: disable-file=ASV001  fixture exercising the clock\n"
        "import time\n"
        "t0 = time.time()\n"
    )
    assert lint_source(src) == []
    src_all = "import time\nt0 = time.time()  # asvlint: disable=all\n"
    assert lint_source(src_all) == []


# ----------------------------------------------------------------------
# the gate: CLI + committed tree + reintroduction
# ----------------------------------------------------------------------
def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "tools.asvlint", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_committed_tree_is_clean():
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "asvlint: clean" in proc.stderr


def test_reintroduced_violation_fails_cli(tmp_path):
    bad = tmp_path / "regression.py"
    bad.write_text("import time\nt0 = time.time()\n")
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "ASV001" in proc.stdout
    assert f"{bad}:2" in proc.stdout
    assert "[fix:" in proc.stdout


def test_reintroduced_violation_fails_in_process():
    # the exact regression PR 9 fixed: a wall-clock read in evaluation
    found = lint_source(
        "import time\nt0 = time.time()\n", rel="repro/evaluation/__main__.py"
    )
    assert [(v.code, v.line) for v in found] == [("ASV001", 2)]


def test_cli_github_annotations(tmp_path):
    bad = tmp_path / "annotated.py"
    bad.write_text("import time\nt0 = time.time()\n")
    proc = _run_cli(str(bad), "--github")
    assert proc.returncode == 1
    assert f"::error file={bad},line=2," in proc.stdout
    assert "title=ASV001" in proc.stdout


def test_cli_list_rules_and_select():
    listing = _run_cli("--list-rules")
    assert listing.returncode == 0
    for code in ("ASV001", "ASV002", "ASV003", "ASV004", "ASV005"):
        assert code in listing.stdout
    unknown = _run_cli("src", "--select", "ASV999")
    assert unknown.returncode != 0


def test_syntax_error_reported_as_asv000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    found = lint_paths([broken])
    assert codes(found) == ["ASV000"]
    assert "syntax error" in found[0].message


def test_mypy_passes_on_typed_packages():
    api = pytest.importorskip(
        "mypy.api", reason="mypy is installed in CI, optional locally"
    )
    stdout, stderr, status = api.run(
        [
            "--config-file", str(REPO_ROOT / "mypy.ini"),
            "-p", "repro.backends",
            "-p", "repro.pipeline",
            "-p", "repro.cluster",
            "-p", "repro.parallel",
        ]
    )
    assert status == 0, stdout + stderr


# ----------------------------------------------------------------------
# the shm write-overlap sanitizer
# ----------------------------------------------------------------------
def test_sanitizer_off_by_default():
    assert not sanitize_enabled()


def test_arm_claim_and_coverage_primitives(monkeypatch):
    view = np.empty((4, 3), dtype=np.float64)
    assert arm_segment(view)
    assert np.all(np.isnan(view))
    claim_region(view, (slice(0, 2),))      # untouched rows: claim succeeds
    view[0:2] = 1.0
    with pytest.raises(ShmSanitizeError, match="already claimed"):
        claim_region(view, (slice(1, 3),))  # row 1 was just written
    with pytest.raises(ShmSanitizeError, match="unwritten"):
        assert_covered(view)
    view[2:4] = 2.0
    assert_covered(view)                    # fully written: passes
    # integer segments have no NaN sentinel and are left alone
    assert not arm_segment(np.empty((2, 2), dtype=np.int64))


#: the output targets a band job writes into: a shared segment (process
#: pools) or a preallocated array (inline and thread pools)
_TARGETS = [pytest.param("shm", marks=needs_shm), "ndarray"]


@contextmanager
def _band_operands(target, img):
    """``(inputs, out, view)`` for band jobs over ``img``: handles to
    shared segments, or the arrays themselves."""
    if target == "ndarray":
        view = np.empty(img.shape, np.float64)
        yield (img,), view, view
        return
    with ShmArena() as arena:
        out, view = arena.alloc(img.shape, np.float64)
        yield (arena.share(img),), out, view


@pytest.mark.parametrize("target", _TARGETS)
def test_sanitizer_catches_overlapping_band(monkeypatch, target):
    # a deliberately buggy banding: two jobs whose output rows overlap
    monkeypatch.setenv("ASV_SHM_SANITIZE", "1")
    monkeypatch.setitem(
        _BAND_KERNELS, "stub", lambda a, **kw: np.array(a, dtype=np.float64)
    )
    img = np.arange(40.0).reshape(8, 5)
    with _band_operands(target, img) as (inputs, out, view):
        assert arm_segment(view)
        _run_band("stub", inputs, 0, 4, {}, (0, 4), 0, out, 0)
        with pytest.raises(ShmSanitizeError, match="disjoint"):
            # writes rows 2:6 — rows 2:4 already belong to the first band
            _run_band("stub", inputs, 2, 6, {}, (0, 4), 0, out, 2)


@pytest.mark.parametrize("target", _TARGETS)
def test_sanitizer_passes_disjoint_bands(monkeypatch, target):
    monkeypatch.setenv("ASV_SHM_SANITIZE", "1")
    monkeypatch.setitem(
        _BAND_KERNELS, "stub", lambda a, **kw: np.array(a, dtype=np.float64)
    )
    img = np.arange(40.0).reshape(8, 5)
    with _band_operands(target, img) as (inputs, out, view):
        assert arm_segment(view)
        _run_band("stub", inputs, 0, 4, {}, (0, 4), 0, out, 0)
        _run_band("stub", inputs, 4, 8, {}, (0, 4), 0, out, 4)
        assert_covered(view)
        assert np.array_equal(view, img)


@needs_shm
@pytest.mark.parametrize("kernel", ["bm", "sgm"])
def test_real_kernels_bit_identical_under_sanitizer(monkeypatch, kernel):
    monkeypatch.setenv("ASV_SHM_SANITIZE", "1")
    from repro.datasets import sceneflow_scene

    frame = sceneflow_scene(5, size=(25, 36), max_disp=10).render(0)
    with TileExecutor(workers=1) as ref_ex, TileExecutor(
        workers=2, tile_rows=7
    ) as ex:
        ref = ref_ex.kernel(kernel)(frame.left, frame.right, 10)
        out = ex.kernel(kernel)(frame.left, frame.right, 10)
    assert np.array_equal(ref, out)


# ----------------------------------------------------------------------
# the determinism canary
# ----------------------------------------------------------------------
def test_canary_reports_are_byte_identical():
    first, second = canary_reports(n_frames=6, seed=3)
    assert first and first == second


def test_canary_cli_exit_code():
    proc = _run_cli("--canary")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "canary" in proc.stdout.lower()


# ----------------------------------------------------------------------
# ASV006 halo sufficiency (flow-sensitive)
# ----------------------------------------------------------------------
_EXEC_FIXTURE_HEADER = """\
from repro.parallel.tiles import Stencil, split_rows, stencil

CENSUS_STENCIL = Stencil.window("window")
AGGREGATE_STENCIL = Stencil.infinite()

@stencil(CENSUS_STENCIL)
def census_block_match(left, right, window=5):
    return left

@stencil(AGGREGATE_STENCIL)
def aggregate(cost):
    return cost

_BAND_KERNELS = {"census": census_block_match, "agg": aggregate}

class Exec:
    def _tiled(self, kernel, arrays, kwargs, halo):
        pass
"""


def _exec_fixture(body):
    return _EXEC_FIXTURE_HEADER + body


def test_asv006_registered_with_catalog_fields():
    assert {"ASV006", "ASV007", "ASV008"} <= set(available_rules())


def test_asv006_shrunken_halo_fails_with_location():
    src = _exec_fixture(
        "    def run(self, left, right, window):\n"
        "        kwargs = dict(window=window)\n"
        "        self._tiled('census', (left, right), kwargs, halo=window // 4)\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV006"]
    # the violation lands on the _tiled call line, not somewhere vague
    assert found[0].line == len(_EXEC_FIXTURE_HEADER.splitlines()) + 3
    assert "smaller than" in found[0].message


def test_asv006_stencil_derived_halo_passes():
    src = _exec_fixture(
        "    def run(self, left, right, window):\n"
        "        kwargs = dict(window=window)\n"
        "        self._tiled('census', (left, right), kwargs,\n"
        "                    halo=CENSUS_STENCIL.halo(window=window))\n"
    )
    assert lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


def test_asv006_flags_parameter_mismatch_between_halo_and_kwargs():
    src = _exec_fixture(
        "    def run(self, left, right, window):\n"
        "        kwargs = dict(window=window + 2)\n"
        "        self._tiled('census', (left, right), kwargs,\n"
        "                    halo=CENSUS_STENCIL.halo(window=window))\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV006"]
    assert "kernel receives" in found[0].message


def test_asv006_flags_wrong_stencil_constant():
    src = _exec_fixture(
        "BLOCK_STENCIL = Stencil.window('block_size')\n"
        "class Exec2(Exec):\n"
        "    def run(self, left, right, window):\n"
        "        kwargs = dict(window=window)\n"
        "        self._tiled('census', (left, right), kwargs,\n"
        "                    halo=BLOCK_STENCIL.halo(block_size=window))\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV006"]
    assert "declares" in found[0].message


def test_asv006_infinite_stencil_is_untileable():
    src = _exec_fixture(
        "    def run(self, cost):\n"
        "        self._tiled('agg', (cost,), dict(), halo=3)\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV006"]
    assert "no finite halo" in found[0].message


def test_asv006_flags_understated_declaration():
    # the kernel body reads a 9-tap vertical window but declares radius 1
    src = (
        "import numpy as np\n"
        "from scipy import ndimage\n"
        "from repro.parallel.tiles import Stencil, stencil\n"
        "\n"
        "@stencil(Stencil.fixed(1))\n"
        "def lying_kernel(img):\n"
        "    taps = np.full(9, 1.0 / 9.0)\n"
        "    return ndimage.correlate1d(img, taps, axis=0)\n"
    )
    found = lint_source(
        src, rel="repro/stereo/fx.py", repo_root=REPO_ROOT, select=["ASV006"]
    )
    assert codes(found) == ["ASV006"]
    assert "reaches" in found[0].message
    # widening the declaration to the true footprint passes
    honest = src.replace("Stencil.fixed(1)", "Stencil.fixed(4)")
    assert (
        lint_source(
            honest, rel="repro/stereo/fx.py", repo_root=REPO_ROOT, select=["ASV006"]
        )
        == []
    )


def test_asv006_split_rows_requires_matching_stencil():
    src = _exec_fixture(
        "def runner(img, window):\n"
        "    bands = split_rows(img.shape[0], 4, 1)\n"
        "    return [census_block_match(img, img, window=window)\n"
        "            for lo, hi in bands]\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV006"]
    good = _exec_fixture(
        "def runner(img, window):\n"
        "    bands = split_rows(img.shape[0], 4,\n"
        "                       CENSUS_STENCIL.halo(window=window))\n"
        "    return [census_block_match(img, img, window=window)\n"
        "            for lo, hi in bands]\n"
    )
    assert lint_source(good, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


def test_asv006_executor_call_sites_verify_on_committed_tree():
    # the acceptance bar: every real _tiled call site proves its halo
    found = lint_paths([REPO_ROOT / "src"], select=["ASV006"])
    assert found == []


# ----------------------------------------------------------------------
# ASV007 shm write-region safety (flow-sensitive)
# ----------------------------------------------------------------------
_OVERLAP_FIXTURE = """\
from repro.parallel.executor import _run_band

def overlapping_bands(in_handle, out_handle):
    _run_band("stub", (in_handle,), 0, 4, {}, (0, 4), 0, out_handle, 0)
    _run_band("stub", (in_handle,), 2, 6, {}, (0, 4), 0, out_handle, 2)
"""


def test_asv007_flags_overlapping_band_writes():
    found = lint_source(
        _OVERLAP_FIXTURE, rel="repro/parallel/fx.py", repo_root=REPO_ROOT
    )
    assert codes(found) == ["ASV007"]
    assert "overlapping rows [0, 4) and [2, 6)" in found[0].message


def test_asv007_accepts_disjoint_and_exclusive_bands():
    disjoint = _OVERLAP_FIXTURE.replace("(0, 4), 0, out_handle, 2", "(2, 4), 0, out_handle, 4")
    assert lint_source(disjoint, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []
    exclusive = (
        "from repro.parallel.executor import _run_band\n"
        "def pick(in_handle, out_handle, flag):\n"
        "    if flag:\n"
        "        _run_band('s', (in_handle,), 0, 4, {}, (0, 4), 0, out_handle, 0)\n"
        "    else:\n"
        "        _run_band('s', (in_handle,), 2, 6, {}, (0, 4), 0, out_handle, 2)\n"
    )
    assert lint_source(exclusive, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


@needs_shm
def test_asv007_agrees_with_dynamic_sanitizer_on_same_fixture(monkeypatch):
    # the acceptance bar: the static rule and the ASV_SHM_SANITIZE=1
    # runtime sanitizer catch the SAME overlapping-band source
    static = lint_source(
        _OVERLAP_FIXTURE, rel="repro/parallel/fx.py", repo_root=REPO_ROOT
    )
    assert codes(static) == ["ASV007"]

    monkeypatch.setenv("ASV_SHM_SANITIZE", "1")
    monkeypatch.setitem(
        _BAND_KERNELS, "stub", lambda a, **kw: np.array(a, dtype=np.float64)
    )
    namespace = {}
    exec(compile(_OVERLAP_FIXTURE, "fx.py", "exec"), namespace)
    with ShmArena() as arena:
        img = np.arange(40.0).reshape(8, 5)
        in_handle = arena.share(img)
        out_handle, out_view = arena.alloc((8, 5), np.float64)
        assert arm_segment(out_view)
        with pytest.raises(ShmSanitizeError, match="disjoint"):
            namespace["overlapping_bands"](in_handle, out_handle)


def test_asv007_flags_view_read_before_jobs_drain():
    src = (
        "def run(self, arena, jobs_args):\n"
        "    out_handle, out_view = arena.alloc((8, 8), 'float64')\n"
        "    jobs = self._iter_map(run_one, jobs_args)\n"
        "    snapshot = out_view.copy()\n"
        "    for _ in jobs:\n"
        "        pass\n"
        "    return snapshot\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV007"]
    assert "not be fully consumed" in found[0].message
    drained = (
        "def run(self, arena, jobs_args):\n"
        "    out_handle, out_view = arena.alloc((8, 8), 'float64')\n"
        "    jobs = self._iter_map(run_one, jobs_args)\n"
        "    for _ in jobs:\n"
        "        pass\n"
        "    return out_view.copy()\n"
    )
    assert lint_source(drained, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


def test_asv007_flags_exception_path_skipping_cleanup():
    src = (
        "from repro.parallel.shm import ShmArena\n"
        "def run(jobs):\n"
        "    arena = ShmArena()\n"
        "    handle = arena.share(jobs)\n"
        "    arena.close()\n"
        "    return handle\n"
    )
    found = lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT)
    assert "ASV007" in codes(found)
    leak = next(v for v in found if v.code == "ASV007")
    assert "escapes before 'arena'" in leak.message
    protected = (
        "from repro.parallel.shm import ShmArena\n"
        "def run(jobs):\n"
        "    arena = ShmArena()\n"
        "    try:\n"
        "        return arena.share(jobs)\n"
        "    finally:\n"
        "        arena.close()\n"
    )
    assert lint_source(protected, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


def test_asv007_accepts_conditional_arena_ownership():
    # the real _tiled pattern: borrow the caller's arena or own a fresh one
    src = (
        "from repro.parallel.shm import ShmArena\n"
        "def run(jobs, arena=None):\n"
        "    local = arena if arena is not None else ShmArena()\n"
        "    try:\n"
        "        return local.share(jobs)\n"
        "    finally:\n"
        "        if arena is None:\n"
        "            local.close()\n"
    )
    assert lint_source(src, rel="repro/parallel/fx.py", repo_root=REPO_ROOT) == []


# ----------------------------------------------------------------------
# ASV008 lock discipline (flow-sensitive)
# ----------------------------------------------------------------------
_LOCK_FIXTURE = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def put(self, k, v):
        with self._lock:
            self._data[k] = v

    def get(self, k):
        {get_body}
"""


def test_asv008_flags_unguarded_access_to_guarded_field():
    src = _LOCK_FIXTURE.replace("{get_body}", "return self._data.get(k)")
    found = lint_source(src, rel="repro/cache.py", repo_root=REPO_ROOT)
    assert codes(found) == ["ASV008"]
    assert "'_data'" in found[0].message
    assert "Cache.put" in found[0].message


def test_asv008_accepts_consistent_guarding():
    src = _LOCK_FIXTURE.replace(
        "{get_body}", "with self._lock:\n            return self._data.get(k)"
    )
    assert lint_source(src, rel="repro/cache.py", repo_root=REPO_ROOT) == []


def test_asv008_init_is_exempt_and_committed_tree_clean():
    # __init__ populates fields before the object is shared: exempt
    src = _LOCK_FIXTURE.replace(
        "{get_body}", "with self._lock:\n            return self._data.get(k)"
    )
    assert lint_source(src, rel="repro/cache.py", repo_root=REPO_ROOT) == []
    # the hardened ShmArena/LRUCache pass their own rule
    assert lint_paths([REPO_ROOT / "src"], select=["ASV008"]) == []


# ----------------------------------------------------------------------
# engine/CLI: unreadable files, SARIF, --stats
# ----------------------------------------------------------------------
def test_unreadable_file_reported_as_asv000(tmp_path):
    target = tmp_path / "gone.py"
    broken = tmp_path / "broken.py"
    broken.symlink_to(target)  # dangling: read_text raises OSError
    (tmp_path / "binary.py").write_bytes(b"\xff\xfe\x00bad")
    found = lint_paths([tmp_path])
    assert codes(found) == ["ASV000", "ASV000"]
    assert all("unreadable file" in v.message for v in found)
    proc = _run_cli(str(tmp_path))
    assert proc.returncode == 1
    assert "unreadable file" in proc.stdout


def test_cli_sarif_output(tmp_path):
    import json

    bad = tmp_path / "regression.py"
    bad.write_text("import time\nt0 = time.time()\n")
    proc = _run_cli(str(bad), "--format=sarif")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "asvlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"ASV001", "ASV006", "ASV007", "ASV008"} <= rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "ASV001"
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 2


def test_cli_stats_reports_per_rule_runtime():
    proc = _run_cli("src", "--select", "ASV001,ASV006", "--stats")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ASV001" in proc.stderr and "ASV006" in proc.stderr
    assert "rules total" in proc.stderr


def test_committed_tree_and_tools_are_clean():
    # the exact blocking CI invocation: src AND the linter's own code
    proc = _run_cli("src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
