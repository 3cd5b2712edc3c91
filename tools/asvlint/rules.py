"""The built-in asvlint rules (ASV001–ASV005 and ASV008).

Each rule encodes an invariant a previous PR earned the hard way; the
``rationale`` attribute names it.  See ``docs/static-analysis.md`` for
the full catalog, suppression syntax, and how to register new rules.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Iterator

from tools.asvlint.engine import LintContext, Rule, Violation, register_rule

__all__ = [
    "DeterminismRule",
    "ShmLifecycleRule",
    "PrecisionRule",
    "RegistryDocDriftRule",
    "BoundedSubmissionRule",
    "LockDisciplineRule",
]

#: packages whose serving/transport loops must be *strictly* deterministic
#: (the PR 7 byte-identical-replay contract)
STRICT_DETERMINISM = ("repro/cluster/", "repro/pipeline/", "repro/parallel/")

#: packages whose kernels carry the ``precision`` dtype knob (PR 5/6/8)
PRECISION_SCOPE = ("repro/stereo/", "repro/flow/", "repro/parallel/")

#: ``np.random`` global-state functions banned everywhere (their seed is
#: hidden process state, so runs stop replaying)
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "uniform", "normal", "standard_normal",
        "get_state", "set_state",
    }
)


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _Imports:
    """Name bindings relevant to the determinism rule."""

    def __init__(self, tree: ast.AST):
        self.random_modules: set[str] = set()    # names bound to stdlib random
        self.random_funcs: set[str] = set()      # names imported *from* random
        self.time_modules: set[str] = set()      # names bound to stdlib time
        self.time_funcs: set[str] = set()        # names bound to time.time/time_ns
        self.numpy_modules: set[str] = set()     # names bound to numpy
        self.nprandom_modules: set[str] = set()  # names bound to numpy.random
        self.nprandom_funcs: dict[str, str] = {} # local name -> numpy.random attr
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(bound)
                    elif alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(bound)
                    elif alias.name == "numpy.random" and alias.asname:
                        self.nprandom_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        self.random_funcs.add(bound)
                    elif node.module == "time" and alias.name in ("time", "time_ns"):
                        self.time_funcs.add(bound)
                    elif node.module == "numpy" and alias.name == "random":
                        self.nprandom_modules.add(bound)
                    elif node.module == "numpy.random":
                        self.nprandom_funcs[bound] = alias.name


@register_rule
class DeterminismRule(Rule):
    """ASV001: no hidden-state randomness or wall-clock in serving code.

    Globally (all of ``src``): stdlib ``random``, ``time.time()`` /
    ``time.time_ns()`` (use ``time.perf_counter()`` for durations, an
    explicit parameter for timestamps), ``np.random``'s global-state
    API, and *unseeded* ``np.random.default_rng()`` are banned.

    Additionally, inside the strictly deterministic packages
    (``cluster/``, ``pipeline/``, ``parallel/``): ``hash()`` on
    anything but an int literal (``PYTHONHASHSEED`` perturbs it — PR 7
    replaced it with SHA-256 draws) and *any* ``np.random`` call other
    than an explicitly seeded ``default_rng(seed)`` or a
    ``Generator(...)`` construction.
    """

    code = "ASV001"
    name = "determinism"
    rationale = (
        "PR 7's chaos replays are byte-identical because every draw is a pure "
        "function of an explicit seed; PR 5/6/8 pin tiled==serial bitwise."
    )
    hint = (
        "thread an explicit seed: np.random.default_rng(seed) / SHA-256 of the "
        "(seed, key) tuple; time.perf_counter() for durations"
    )
    scope = None

    def _strict(self, rel: str) -> bool:
        return any(rel.startswith(p) for p in STRICT_DETERMINISM)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        imports = _Imports(ctx.tree)
        strict = self._strict(ctx.rel)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts is None:
                continue
            yield from self._check_call(ctx, node, parts, imports, strict)

    def _check_call(
        self,
        ctx: LintContext,
        node: ast.Call,
        parts: list[str],
        imports: _Imports,
        strict: bool,
    ) -> Iterator[Violation]:
        root, rest = parts[0], parts[1:]
        if root in imports.random_modules or (not rest and root in imports.random_funcs):
            yield ctx.violation(
                node, self.code,
                f"stdlib random ({'.'.join(parts)}) draws from hidden process "
                "state; runs stop replaying",
                self.hint,
            )
            return
        is_time_call = (
            root in imports.time_modules and rest in (["time"], ["time_ns"])
        ) or (not rest and root in imports.time_funcs)
        if is_time_call:
            yield ctx.violation(
                node, self.code,
                f"{'.'.join(parts)}() reads the wall clock; simulated time and "
                "report replays must not depend on it",
                self.hint,
            )
            return
        if strict and not rest and root == "hash" and not (
            node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, int)
        ):
            yield ctx.violation(
                node, self.code,
                "hash() on non-int is perturbed by PYTHONHASHSEED; derive draws "
                "from SHA-256 of the (seed, key) tuple instead",
                self.hint,
            )
            return
        # resolve np.random.<fn> in its three spellings
        fn: str | None = None
        if root in imports.numpy_modules and len(rest) == 2 and rest[0] == "random":
            fn = rest[1]
        elif root in imports.nprandom_modules and len(rest) == 1:
            fn = rest[0]
        elif not rest and root in imports.nprandom_funcs:
            fn = imports.nprandom_funcs[root]
        if fn is None:
            return
        if fn == "default_rng":
            if not node.args and not node.keywords:
                yield ctx.violation(
                    node, self.code,
                    "np.random.default_rng() without a seed draws from OS "
                    "entropy; pass the explicit seed the caller threads",
                    self.hint,
                )
        elif fn in _LEGACY_NP_RANDOM:
            yield ctx.violation(
                node, self.code,
                f"np.random.{fn} mutates/reads hidden global RNG state; use an "
                "explicitly seeded Generator",
                self.hint,
            )
        elif strict and fn != "Generator":
            yield ctx.violation(
                node, self.code,
                f"np.random.{fn} in a strictly deterministic package; only "
                "seeded default_rng(seed) / Generator(...) are allowed here",
                self.hint,
            )


def _enclosing_scope(ctx: LintContext, node: ast.AST) -> ast.AST:
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return ctx.tree


def _cleanup_evidence(scope: ast.AST, name: str) -> bool:
    """Whether ``name`` is closed, delegated, stored, or handed off."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Attribute) and node.attr in ("close", "unlink"):
            if isinstance(node.value, ast.Name) and node.value.id == name:
                return True
        if isinstance(node, ast.Call):
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True  # delegated (finalize/_close_quietly/container)
        if isinstance(node, (ast.Return, ast.Yield)) and isinstance(
            node.value, ast.Name
        ) and node.value.id == name:
            return True  # ownership transferred to the caller
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and (
            node.value.id == name
        ):
            if not all(isinstance(t, ast.Name) for t in node.targets):
                return True  # stored into a container/attribute
        if isinstance(node, ast.withitem):
            expr = node.context_expr
            if isinstance(expr, ast.Name) and expr.id == name:
                return True  # later `with name:` owns the cleanup
    return False


def _attr_cleanup_evidence(tree: ast.AST, attr: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("close", "unlink"):
            if isinstance(node.value, ast.Attribute) and node.value.attr == attr:
                return True
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts and parts[-1] == "finalize":
                return True
    return False


@register_rule
class ShmLifecycleRule(Rule):
    """ASV002: every shared-memory segment has an owner that unlinks it.

    Direct ``SharedMemory`` construction is confined to
    ``repro/parallel/shm.py`` — everything else goes through
    ``ShmArena`` (create) / ``attached`` (map).  An ``ShmArena()`` or
    ``SharedMemory()`` creation must be used as a context manager,
    ``close()``/``unlink()``-ed, registered with ``weakref.finalize``,
    or handed off (returned / passed on / stored in an owning
    container) inside its scope; a creation the linter cannot see an
    owner for is a leaked ``/dev/shm`` name waiting to happen.
    """

    code = "ASV002"
    name = "shm-lifecycle"
    rationale = (
        "PR 6's crash-safe ShmArena: leaked segments survive the process and "
        "fail CI's /dev/shm/asv_* leak check"
    )
    hint = (
        "wrap the creation in `with ShmArena() as arena:` or pair it with "
        "close()/unlink()/weakref.finalize"
    )
    scope = None

    _SHM_HOME = "repro/parallel/shm.py"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts is None:
                continue
            ctor = parts[-1]
            if ctor == "SharedMemory" and ctx.rel != self._SHM_HOME:
                yield ctx.violation(
                    node, self.code,
                    "direct SharedMemory construction outside parallel/shm.py; "
                    "create through ShmArena, map through attached()",
                    self.hint,
                )
                continue
            if ctor not in ("ShmArena", "SharedMemory"):
                continue
            yield from self._check_creation(ctx, node, ctor)

    def _check_creation(
        self, ctx: LintContext, node: ast.Call, ctor: str
    ) -> Iterator[Violation]:
        assign: ast.Assign | None = None
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.withitem):
                return  # context manager owns the lifecycle
            if isinstance(anc, ast.Call):
                return  # passed straight into an owner (enter_context/...)
            if isinstance(anc, (ast.Return, ast.Yield)):
                return  # ownership transferred to the caller
            if isinstance(anc, ast.Assign):
                assign = anc
                break
            if isinstance(anc, ast.Expr):
                yield ctx.violation(
                    node, self.code,
                    f"{ctor}() created and immediately dropped; nothing can "
                    "ever unlink this segment",
                    self.hint,
                )
                return
            if isinstance(anc, ast.stmt):
                break
        if assign is None:
            return
        target = assign.targets[0] if len(assign.targets) == 1 else None
        if isinstance(target, ast.Name):
            scope = _enclosing_scope(ctx, node)
            if not _cleanup_evidence(scope, target.id):
                yield ctx.violation(
                    node, self.code,
                    f"{ctor}() bound to {target.id!r} is never closed, "
                    "unlinked, finalized, or handed off in this scope",
                    self.hint,
                )
        elif isinstance(target, ast.Attribute):
            if not _attr_cleanup_evidence(ctx.tree, target.attr):
                yield ctx.violation(
                    node, self.code,
                    f"{ctor}() stored on self.{target.attr} with no close()/"
                    "unlink()/weakref.finalize anywhere in the module",
                    self.hint,
                )


#: allocators whose dtype defaults to float64 silently; (name, index of the
#: positional dtype argument)
_FLOAT_ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}


@register_rule
class PrecisionRule(Rule):
    """ASV003: kernel paths thread the ``precision`` knob, never guess.

    In ``stereo/``, ``flow/`` and ``parallel/``: ``np.zeros`` /
    ``np.empty`` / ``np.ones`` / ``np.full`` must name a dtype (a
    dtype-less allocation silently pins float64 and breaks the
    float32 path's memory model), ``np.float32(...)`` /
    ``np.float64(...)`` casts are banned in favour of the resolved
    knob, and a public function that *accepts* ``precision`` must
    actually use it.
    """

    code = "ASV003"
    name = "precision-threading"
    rationale = (
        "PR 5 threaded precision='float32'|'float64' through every kernel; a "
        "dtype-less hot-path allocation reverts it without failing any test"
    )
    hint = (
        "pass dtype=resolve_precision(precision) (or an explicit np.float64 if "
        "the value is precision-independent by design)"
    )
    scope = PRECISION_SCOPE

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        imports = _Imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_alloc(ctx, node, imports)
            elif isinstance(node, ast.FunctionDef):
                yield from self._check_knob(ctx, node)

    def _check_alloc(
        self, ctx: LintContext, node: ast.Call, imports: _Imports
    ) -> Iterator[Violation]:
        parts = _dotted(node.func)
        if parts is None or len(parts) != 2 or parts[0] not in imports.numpy_modules:
            return
        fn = parts[1]
        if fn in ("float32", "float64"):
            yield ctx.violation(
                node, self.code,
                f"bare np.{fn}(...) cast hard-codes the dtype on a kernel path",
                self.hint,
            )
            return
        dtype_pos = _FLOAT_ALLOCATORS.get(fn)
        if dtype_pos is None:
            return
        has_dtype = len(node.args) > dtype_pos or any(
            kw.arg == "dtype" for kw in node.keywords
        )
        if not has_dtype:
            yield ctx.violation(
                node, self.code,
                f"np.{fn} without an explicit dtype defaults to float64 and "
                "ignores the precision knob",
                self.hint,
            )

    def _check_knob(
        self, ctx: LintContext, node: ast.FunctionDef
    ) -> Iterator[Violation]:
        if node.name.startswith("_"):
            return
        params = [
            a.arg
            for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        ]
        if "precision" not in params:
            return
        used = any(
            isinstance(n, ast.Name) and n.id == "precision"
            for body_stmt in node.body
            for n in ast.walk(body_stmt)
        )
        if not used:
            yield ctx.violation(
                node, self.code,
                f"{node.name}() accepts a precision knob it never forwards",
                "forward precision= to the allocations/kernels this calls",
            )


_REGISTRARS = ("register_backend", "register_scheduler", "register_placement_policy")

_DOCS_CACHE: dict[pathlib.Path, str] = {}


def _docs_text(repo_root: pathlib.Path) -> str | None:
    docs = repo_root / "docs"
    if not docs.is_dir():
        return None
    if repo_root not in _DOCS_CACHE:
        _DOCS_CACHE[repo_root] = "\n".join(
            p.read_text() for p in sorted(docs.glob("*.md"))
        )
    return _DOCS_CACHE[repo_root]


@register_rule
class RegistryDocDriftRule(Rule):
    """ASV004: every registered name is documented.

    Names registered through ``register_backend`` /
    ``register_scheduler`` / ``register_placement_policy`` are the
    system's public vocabulary — users select them by string.  Each
    must appear somewhere in ``docs/*.md``, or the docs have silently
    drifted behind the registries.
    """

    code = "ASV004"
    name = "registry-doc-drift"
    rationale = (
        "PR 2/3's docs suite documents the registries; a registered-but-"
        "undocumented name is invisible to users and to the docs link-check"
    )
    hint = "mention the registered name in the relevant docs/ page"
    scope = None

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if ctx.repo_root is None:
            return
        docs = _docs_text(ctx.repo_root)
        if docs is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts is None or parts[-1] not in _REGISTRARS or not node.args:
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue
            if arg.value not in docs:
                yield ctx.violation(
                    node, self.code,
                    f"{parts[-1]}({arg.value!r}) registers a name that appears "
                    "nowhere in docs/",
                    self.hint,
                )


def _islice_bounded(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Call):
        parts = _dotted(expr.func)
        return bool(parts) and parts[-1] == "islice"
    return False


@register_rule
class BoundedSubmissionRule(Rule):
    """ASV005: pool submission loops keep a bounded in-flight set.

    ``.submit()`` inside a ``for`` loop or comprehension fans out one
    future per item *eagerly*, holding every job's payload alive at
    once.  Submission loops must be bounded the way
    ``TileExecutor._iter_map`` is: prime at most
    ``workers`` futures through ``islice``, then submit one job per
    consumed result.  (A ``while`` that submits after consuming is the
    second half of that pattern and is allowed.)
    """

    code = "ASV005"
    name = "bounded-submission"
    rationale = (
        "PR 6 bounded _iter_map to the worker count; unbounded fan-out holds "
        "every job's payload alive at once"
    )
    hint = "route the loop through _iter_map, or prime with islice(jobs, workers)"
    scope = None

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
            ):
                continue
            for anc in ctx.ancestors(node):
                if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
                if isinstance(anc, (ast.For, ast.AsyncFor)) and not _islice_bounded(
                    anc.iter
                ):
                    yield ctx.violation(
                        node, self.code,
                        "submit() fans out one future per loop iteration with "
                        "no in-flight bound",
                        self.hint,
                    )
                    break
                if isinstance(
                    anc, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ) and not all(_islice_bounded(g.iter) for g in anc.generators):
                    yield ctx.violation(
                        node, self.code,
                        "submit() inside a comprehension materialises every "
                        "future eagerly",
                        self.hint,
                    )
                    break


#: methods that run before the object is shared (or after it no longer is)
_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__"}


def _under_lock(ctx: LintContext, node: ast.AST, fn: ast.AST) -> bool:
    """Whether a ``with <...lock...>:`` block inside ``fn`` encloses ``node``."""
    for anc in ctx.ancestors(node):
        if anc is fn:
            return False
        if isinstance(anc, (ast.With, ast.AsyncWith)) and any(
            "lock" in (n.attr if isinstance(n, ast.Attribute) else n.id).lower()
            for item in anc.items
            for n in ast.walk(item.context_expr)
            if isinstance(n, (ast.Attribute, ast.Name))
        ):
            return True
    return False


def _self_fields(
    ctx: LintContext, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> Iterator[tuple[ast.Attribute, bool]]:
    """(self.<field> access, under the lock?) pairs within one method."""
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
            yield node, _under_lock(ctx, node, method)


@register_rule
class LockDisciplineRule(Rule):
    """ASV008: a field the class guards with ``self._lock`` somewhere
    must be guarded everywhere.

    A field one method reads or writes inside ``with self._lock:`` is
    shared mutable state; any other method (``__init__`` and friends
    excepted: the object is not shared yet) that touches it outside a
    lock block races the guarded one.
    """

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

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            defs = [
                node
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            method_names = {m.name for m in defs}
            methods = [m for m in defs if m.name not in _EXEMPT_METHODS]
            #: field -> a method that guards it
            guarded: dict[str, str] = {}
            for method in methods:
                for attr, locked in _self_fields(ctx, method):
                    field = attr.attr
                    if locked and "lock" not in field.lower() and (
                        field not in method_names
                    ):
                        guarded.setdefault(field, method.name)
            for method in methods:
                for attr, locked in _self_fields(ctx, method):
                    if locked or attr.attr not in guarded:
                        continue
                    yield ctx.violation(
                        attr, self.code,
                        f"field {attr.attr!r} is guarded by the instance lock "
                        f"in {cls.name}.{guarded[attr.attr]} but accessed "
                        "unguarded here",
                        self.hint,
                    )
