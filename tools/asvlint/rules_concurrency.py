"""ASV007/ASV008 — flow-sensitive shared-memory and lock discipline.

ASV007 guards the shm band transport (``repro/parallel/``) with three
static analyses that mirror the runtime ``ASV_SHM_SANITIZE=1``
sanitizer:

* **overlap** — band jobs handed to ``_run_band``/``_flow_band``
  with statically-constant crop/start rows must write disjoint row
  ranges of the same output handle; two calls whose ranges overlap and
  that can both execute (CFG-reachable from one another) are exactly
  the race :func:`repro.parallel.shm.claim_region` trips on at runtime.
* **pending consumption** — an ``_iter_map`` iterator drives the band
  jobs lazily; reading an ``alloc``'d output view while the iterator
  has not been drained reads rows no job has written yet.  Tracked with
  a may-be-pending dataflow over the CFG (:mod:`tools.asvlint.dataflow`).
* **exception escape** — a ``ShmArena``/``SharedMemory`` acquired in a
  function that *does* clean it up on some path must have every
  may-raise statement between acquisition and cleanup covered by a
  ``finally``/handler that cleans up (or a ``with``): an exception edge
  that escapes past visible cleanup leaks a named ``/dev/shm`` segment.

ASV008 checks lock discipline everywhere: a field consistently accessed
under ``with self._lock`` in one method but reachable unguarded in
another is a data race the guarded method was written to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.asvlint.cfg import CFG, build_cfg, may_raise
from tools.asvlint.dataflow import Domain, solve
from tools.asvlint.engine import LintContext, Rule, Violation, register_rule

__all__ = ["ShmWriteRegionRule", "LockDisciplineRule"]

#: worker entry points whose argument tuples carry (crop, out, start)
_BAND_WORKERS = {
    "_run_band": (5, 7, 8),
    "_flow_band": (4, 5, 6),
}

_ARENA_CTORS = {"ShmArena", "SharedMemory"}

_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__"}


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _stmt_node(ctx: LintContext, cfg: CFG, node: ast.AST) -> int | None:
    """The CFG node of the statement containing ``node``."""
    cur: ast.AST | None = node
    while cur is not None:
        if isinstance(cur, ast.stmt):
            idx = cfg.node_of(cur)
            if idx is not None:
                return idx
        cur = ctx.parent(cur)
    return None


# ----------------------------------------------------------------------
# ASV007a: statically-overlapping band write regions
# ----------------------------------------------------------------------


def _const_int(node: ast.expr | None) -> int | None:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _write_interval(args: list[ast.expr], slots: tuple[int, int, int]):
    """(out-expr dump, row interval) of one band job's argument list."""
    crop_i, out_i, start_i = slots
    if len(args) <= max(slots):
        return None
    crop = args[crop_i]
    start = _const_int(args[start_i])
    if start is None or not (isinstance(crop, ast.Tuple) and len(crop.elts) == 2):
        return None
    lo, hi = _const_int(crop.elts[0]), _const_int(crop.elts[1])
    if lo is None or hi is None:
        return None
    return ast.dump(args[out_i]), (start, start + (hi - lo))


def _band_jobs(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """(call/tuple node, out dump, interval) for every statically-known
    band job in ``fn``: direct worker calls, plus literal job-tuple
    lists handed to a map over a worker."""
    jobs = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in _BAND_WORKERS:
            extracted = _write_interval(node.args, _BAND_WORKERS[name])
            if extracted is not None:
                jobs.append((node, *extracted))
        elif name in ("_iter_map", "map", "starmap") and node.args:
            worker = node.args[0]
            wname = None
            if isinstance(worker, ast.Attribute):
                wname = worker.attr
            elif isinstance(worker, ast.Name):
                wname = worker.id
            if wname not in _BAND_WORKERS or len(node.args) < 2:
                continue
            arg = node.args[1]
            if not isinstance(arg, (ast.List, ast.Tuple)):
                continue
            for elt in arg.elts:
                if isinstance(elt, ast.Tuple):
                    extracted = _write_interval(
                        list(elt.elts), _BAND_WORKERS[wname]
                    )
                    if extracted is not None:
                        jobs.append((elt, *extracted))
    return jobs


def _overlap_violations(
    ctx: LintContext, fn: ast.FunctionDef | ast.AsyncFunctionDef, cfg: CFG
) -> Iterator[Violation]:
    jobs = _band_jobs(fn)
    for i in range(len(jobs)):
        for j in range(i + 1, len(jobs)):
            node_a, out_a, (lo_a, hi_a) = jobs[i]
            node_b, out_b, (lo_b, hi_b) = jobs[j]
            if out_a != out_b or max(lo_a, lo_b) >= min(hi_a, hi_b):
                continue
            idx_a = _stmt_node(ctx, cfg, node_a)
            idx_b = _stmt_node(ctx, cfg, node_b)
            if idx_a is None or idx_b is None:
                continue
            if idx_a != idx_b and not (
                idx_b in cfg.reachable(idx_a) or idx_a in cfg.reachable(idx_b)
            ):
                continue  # exclusive branches never both run
            later = node_b if node_b.lineno >= node_a.lineno else node_a
            yield ctx.violation(
                later, "ASV007",
                f"band jobs write overlapping rows [{lo_a}, {hi_a}) and "
                f"[{lo_b}, {hi_b}) of the same output segment; band row "
                "ranges must partition the output",
                hint="derive band bounds from split_rows so interiors are "
                "disjoint",
            )


# ----------------------------------------------------------------------
# ASV007b: reading an output view while band jobs are still pending
# ----------------------------------------------------------------------


class _PendingDomain(Domain):
    """Which lazily-driven job iterators may still be unconsumed."""

    def __init__(self, gens: frozenset[str]):
        self.gens = gens

    def initial(self):
        return frozenset()

    def top(self):
        return self.gens

    def join(self, a, b):
        return a | b

    def transfer(self, node, state):
        stmt = node.stmt
        if stmt is None:
            return state
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and _call_name(stmt.value) == "_iter_map"
        ):
            return state | {stmt.targets[0].id}
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and isinstance(
            stmt.iter, ast.Name
        ):
            return state - {stmt.iter.id}
        consumed = set()
        for call in ast.walk(stmt):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in ("list", "tuple")
                and len(call.args) == 1
                and isinstance(call.args[0], ast.Name)
            ):
                consumed.add(call.args[0].id)
        return state - consumed if consumed else state


def _pending_violations(
    ctx: LintContext, fn: ast.FunctionDef | ast.AsyncFunctionDef, cfg: CFG
) -> Iterator[Violation]:
    gens = set()
    views = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        name = _call_name(node.value)
        target = node.targets[0] if len(node.targets) == 1 else None
        if name == "_iter_map" and isinstance(target, ast.Name):
            gens.add(target.id)
        elif (
            name == "alloc"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            views.add(target.elts[1].id)
    if not gens or not views:
        return
    states = solve(cfg, _PendingDomain(frozenset(gens)))
    for node in cfg.nodes:
        stmt = node.stmt
        entry = states.get(node.idx)
        if stmt is None or not isinstance(entry, frozenset) or not entry:
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and isinstance(
            stmt.iter, ast.Name
        ):
            continue  # draining the iterator is the consumption itself
        for ref in ast.walk(stmt):
            if (
                isinstance(ref, ast.Name)
                and isinstance(ref.ctx, ast.Load)
                and ref.id in views
            ):
                pending = ", ".join(sorted(entry))
                yield ctx.violation(
                    ref, "ASV007",
                    f"output view {ref.id!r} is read while the band-job "
                    f"iterator {pending!r} may not be fully consumed; "
                    "unconsumed jobs have not written their rows yet",
                    hint="drain the job iterator (for _ in jobs / "
                    "list(jobs)) before touching the output view",
                )
                break


# ----------------------------------------------------------------------
# ASV007c: acquisitions whose cleanup an exception edge can skip
# ----------------------------------------------------------------------


def _acquisitions(fn) -> list[tuple[ast.Assign, str]]:
    out = []
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        value = node.value
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for cand in candidates:
            if isinstance(cand, ast.Call) and _call_name(cand) in _ARENA_CTORS:
                out.append((node, node.targets[0].id))
                break
    return out


def _clears_var(stmt: ast.stmt, var: str) -> bool:
    """Whether a statement visibly hands off or releases ``var``."""
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if isinstance(item.context_expr, ast.Name) and item.context_expr.id == var:
                return True
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        if any(
            isinstance(n, ast.Name) and n.id == var for n in ast.walk(stmt.value)
        ):
            return True
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.func.attr in ("close", "unlink", "release", "shutdown")
            ):
                return True
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Name) and arg.id == var:
                    return True
        if isinstance(node, ast.Yield) and node.value is not None:
            if any(
                isinstance(n, ast.Name) and n.id == var
                for n in ast.walk(node.value)
            ):
                return True
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Attribute) for t in node.targets)
            and isinstance(node.value, ast.Name)
            and node.value.id == var
        ):
            return True
    return False


def _protected(ctx: LintContext, stmt: ast.stmt, var: str) -> bool:
    """Whether an exception at ``stmt`` runs visible cleanup of ``var``
    on its way out (an enclosing finally/handler that clears it, or an
    enclosing ``with var``)."""
    for anc in ctx.ancestors(stmt):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                if (
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id == var
                ):
                    return True
        if isinstance(anc, ast.Try):
            bodies = [anc.finalbody, *(h.body for h in anc.handlers)]
            for body in bodies:
                for inner in body:
                    for sub in ast.walk(inner):
                        if isinstance(sub, ast.stmt) and _clears_var(sub, var):
                            return True
    return False


def _escape_violations(
    ctx: LintContext, fn: ast.FunctionDef | ast.AsyncFunctionDef, cfg: CFG
) -> Iterator[Violation]:
    for creation, var in _acquisitions(fn):
        clear_nodes = set()
        has_clear = False
        for node in cfg.nodes:
            if node.stmt is not None and _clears_var(node.stmt, var):
                clear_nodes.add(node.idx)
                has_clear = True
        if not has_clear:
            continue  # never cleaned up at all: ASV002's territory
        start = cfg.node_of(creation)
        if start is None:
            continue
        open_nodes = cfg.reachable(start, avoid=clear_nodes)
        for idx in sorted(open_nodes):
            node = cfg.nodes[idx]
            stmt = node.stmt
            if stmt is None or stmt is creation or not may_raise(stmt):
                continue
            if _protected(ctx, stmt, var):
                continue
            yield ctx.violation(
                stmt, "ASV007",
                f"an exception here escapes before {var!r} "
                f"(acquired at line {creation.lineno}) is cleaned up; the "
                "named shm segment would leak until interpreter exit",
                hint=f"acquire {var} with a `with` statement or wrap the "
                "uses in try/finally",
            )
            return  # one report per acquisition is enough


@register_rule
class ShmWriteRegionRule(Rule):
    """ASV007: statically catch the shm races and leaks the runtime
    sanitizer (``ASV_SHM_SANITIZE=1``) only catches when the bad path
    actually executes."""

    code = "ASV007"
    name = "shm-write-region"
    rationale = (
        "band jobs share one named output segment; overlapping writes, "
        "reads before the lazy job iterator drains, and exception paths "
        "that skip cleanup all corrupt or leak /dev/shm state without an "
        "immediate failure"
    )
    hint = (
        "partition rows with split_rows, drain job iterators before "
        "reading outputs, and release arenas in with/finally"
    )
    scope = ("repro/parallel/",)

    def check(self, ctx: LintContext) -> Iterable[Violation]:
        for fn in _functions(ctx.tree):
            cfg = build_cfg(fn)
            yield from _overlap_violations(ctx, fn, cfg)
            yield from _pending_violations(ctx, fn, cfg)
            yield from _escape_violations(ctx, fn, cfg)


# ----------------------------------------------------------------------
# ASV008: fields guarded in one method, unguarded in another
# ----------------------------------------------------------------------


def _lock_depth(ctx: LintContext, node: ast.AST, fn: ast.AST) -> int:
    depth = 0
    for anc in ctx.ancestors(node):
        if anc is fn:
            break
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                names = [
                    n.attr
                    for n in ast.walk(item.context_expr)
                    if isinstance(n, ast.Attribute)
                ] + [
                    n.id
                    for n in ast.walk(item.context_expr)
                    if isinstance(n, ast.Name)
                ]
                if any("lock" in name.lower() for name in names):
                    depth += 1
                    break
    return depth


def _self_fields(
    ctx: LintContext, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> Iterator[tuple[ast.Attribute, int]]:
    """(self.<field> access, lock depth) pairs within one method."""
    args = method.args
    positional = [*args.posonlyargs, *args.args]
    if not positional:
        return
    self_name = positional[0].arg
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            yield node, _lock_depth(ctx, node, method)


@register_rule
class LockDisciplineRule(Rule):
    """ASV008: a field the class guards with ``self._lock`` somewhere
    must be guarded everywhere it is reachable."""

    code = "ASV008"
    name = "lock-discipline"
    rationale = (
        "a field that one method protects with the instance lock is "
        "shared mutable state; touching it unguarded elsewhere races the "
        "guarded method (the ShmArena finalizer runs on whatever thread "
        "drops the last reference)"
    )
    hint = "wrap the access in `with self._lock:` (it is re-entrant)"
    scope = None

    def check(self, ctx: LintContext) -> Iterable[Violation]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [
                node
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            method_names = {m.name for m in methods}
            #: field -> a method that guards it
            guarded: dict[str, str] = {}
            for method in methods:
                if method.name in _EXEMPT_METHODS:
                    continue
                for attr, depth in _self_fields(ctx, method):
                    field = attr.attr
                    if depth > 0 and "lock" not in field.lower() and (
                        field not in method_names
                    ):
                        guarded.setdefault(field, method.name)
            if not guarded:
                continue
            for method in methods:
                if method.name in _EXEMPT_METHODS:
                    continue
                cfg = build_cfg(method)
                live = cfg.reachable(cfg.entry)
                for attr, depth in _self_fields(ctx, method):
                    field = attr.attr
                    if depth > 0 or field not in guarded:
                        continue
                    idx = _stmt_node(ctx, cfg, attr)
                    if idx is not None and idx not in live:
                        continue  # dead code cannot race
                    yield ctx.violation(
                        attr, "ASV008",
                        f"field {field!r} is guarded by the instance lock in "
                        f"{cls.name}.{guarded[field]} but accessed unguarded "
                        "here",
                        hint=self.hint,
                    )
