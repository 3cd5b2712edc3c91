"""The asvlint engine: rule registry, suppression parsing, file walking.

``asvlint`` statically enforces the invariants this repo's reproduction
claims rest on (seeded determinism, shared-memory lifecycle, precision
threading, registry/doc sync, bounded pool submission).  The engine is
deliberately small: it parses each file once with :mod:`ast`, hands the
tree to every registered :class:`Rule` whose scope matches the file's
package path, and filters the returned :class:`Violation` objects
through the file's suppression comments.

Rules plug in exactly like execution backends plug into
``repro.backends.registry``::

    @register_rule
    class MyRule(Rule):
        code = "ASV999"
        name = "my-invariant"
        ...

Suppression syntax (checked by ``tests/test_asvlint.py``):

* ``# asvlint: disable=ASV001`` — suppress the named code(s) on this
  physical line (put it on the *first* line of a multi-line statement;
  comma-separate multiple codes).
* ``# asvlint: disable-file=ASV002`` — suppress the code(s) for the
  whole file, wherever the comment appears.
* ``all`` is accepted in place of a code list.

Suppressions should carry a justification in the trailing free text;
the linter does not parse it, reviewers do.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import time
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Type

__all__ = [
    "Violation",
    "LintContext",
    "Rule",
    "register_rule",
    "available_rules",
    "get_rule",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f" [fix: {self.hint}]"
        return text

    def render_github(self) -> str:
        """GitHub Actions annotation form (``::error file=...``)."""
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{self.message}"
        )


@dataclass
class LintContext:
    """Everything a rule may look at for one file."""

    path: str                      #: path as reported in violations
    rel: str                       #: package-relative posix path ("repro/cluster/faults.py")
    source: str
    tree: ast.AST
    repo_root: pathlib.Path | None = None  #: for rules that read docs/
    _parents: dict[int, ast.AST] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield enclosing nodes, innermost first."""
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def violation(
        self, node: ast.AST, code: str, message: str, hint: str = ""
    ) -> Violation:
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            hint=hint,
        )


class Rule:
    """Base class for asvlint rules.

    Subclasses set ``code`` (``"ASV00x"``), ``name`` (a short slug),
    ``rationale`` (which PR/invariant motivated the rule), ``hint``
    (the autofix direction reported with every violation) and
    ``scope`` — a tuple of package-path prefixes the rule applies to,
    or ``None`` for every file.  ``check`` receives a
    :class:`LintContext` and yields :class:`Violation` objects.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    hint: str = ""
    scope: tuple[str, ...] | None = None

    def applies_to(self, rel: str) -> bool:
        if self.scope is None:
            return True
        return any(rel.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: LintContext) -> Iterable[Violation]:  # pragma: no cover
        raise NotImplementedError


_RULES: dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule instance to the registry.

    Mirrors ``repro.backends.registry.register_backend``: rules are
    requested by code, and third-party rules plug in the same way the
    built-ins do.

    >>> @register_rule
    ... class DocRule(Rule):
    ...     code = "ASV900"
    ...     name = "doc-example"
    ...     def check(self, ctx):
    ...         return ()
    >>> "ASV900" in available_rules()
    True
    >>> _ = _RULES.pop("ASV900")  # keep the example side-effect-free
    """
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} must define a code")
    _RULES[rule.code] = rule
    return cls


def available_rules() -> tuple[str, ...]:
    """Sorted codes of every registered rule."""
    _load_builtins()
    return tuple(sorted(_RULES))


def get_rule(code: str) -> Rule:
    """Look a rule up by code (``ValueError`` on a miss)."""
    _load_builtins()
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(
            f"unknown rule {code!r}; available: {available_rules()}"
        ) from None


def _load_builtins() -> None:
    from tools.asvlint import rules as _builtin_rules  # noqa: F401  (self-registering)


_SUPPRESS = re.compile(
    r"#\s*asvlint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def _suppressions(source: str) -> tuple[dict[str, set[int]], set[str]]:
    """Parse suppression comments.

    Returns ``(per_line, per_file)`` where ``per_line`` maps an upper-
    cased code to the set of physical lines it is disabled on, and
    ``per_file`` is the set of codes disabled for the whole file.
    ``ALL`` is a wildcard entry.
    """
    per_line: dict[str, set[int]] = {}
    per_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse already passed
        comments = []
    for line, text in comments:
        match = _SUPPRESS.search(text)
        if not match:
            continue
        codes = {c.strip().upper() for c in match.group(2).split(",") if c.strip()}
        if match.group(1) == "disable-file":
            per_file |= codes
        else:
            for code in codes:
                per_line.setdefault(code, set()).add(line)
    return per_line, per_file


def _suppressed(v: Violation, per_line: dict[str, set[int]], per_file: set[str]) -> bool:
    if "ALL" in per_file or v.code in per_file:
        return True
    for key in (v.code, "ALL"):
        if v.line in per_line.get(key, set()):
            return True
    return False


def package_rel(path: pathlib.Path) -> str:
    """The package-relative posix path rules scope on.

    Everything from the last ``repro`` (or ``tools``) component onward;
    the bare filename when neither appears (fixture snippets pass an
    explicit ``rel`` instead).

    >>> package_rel(pathlib.Path("src/repro/cluster/faults.py"))
    'repro/cluster/faults.py'
    >>> package_rel(pathlib.Path("scratch/snippet.py"))
    'snippet.py'
    """
    parts = path.parts
    for anchor in ("repro", "tools"):
        if anchor in parts:
            return "/".join(parts[len(parts) - 1 - parts[::-1].index(anchor):])
    return path.name


def lint_source(
    source: str,
    rel: str = "snippet.py",
    path: str | None = None,
    repo_root: pathlib.Path | None = None,
    select: Iterable[str] | None = None,
    timings: dict[str, float] | None = None,
) -> list[Violation]:
    """Lint one source string (the fixture-test entry point).

    ``rel`` positions the snippet inside the package tree for scope
    matching; ``select`` restricts checking to the given rule codes;
    ``timings`` (if given) accumulates per-rule wall time by code.
    """
    tree = ast.parse(source)
    ctx = LintContext(
        path=path if path is not None else rel,
        rel=rel,
        source=source,
        tree=tree,
        repo_root=repo_root,
    )
    per_line, per_file = _suppressions(source)
    codes = tuple(select) if select is not None else available_rules()
    found: list[Violation] = []
    for code in codes:
        rule = get_rule(code)
        if not rule.applies_to(rel):
            continue
        start = time.perf_counter()
        found.extend(v for v in rule.check(ctx) if not _suppressed(v, per_line, per_file))
        if timings is not None:
            timings[code] = timings.get(code, 0.0) + time.perf_counter() - start
    return sorted(found)


def iter_python_files(paths: Iterable[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Iterable[str | pathlib.Path],
    repo_root: pathlib.Path | None = None,
    select: Iterable[str] | None = None,
    timings: dict[str, float] | None = None,
) -> list[Violation]:
    """Lint files and directories; returns sorted violations.

    ``repo_root`` defaults to the common parent holding ``docs/`` if
    one is found above the first path (the registry-drift rule reads
    it); syntax errors and unreadable files surface as ``ASV000``
    violations rather than crashing the run.
    """
    paths = list(paths)
    if repo_root is None:
        repo_root = _find_repo_root(paths)
    found: list[Violation] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            # e.g. a broken symlink or a stray non-UTF-8 file: diagnose
            # and keep linting the rest of the tree
            found.append(
                Violation(
                    path=str(file),
                    line=1,
                    col=0,
                    code="ASV000",
                    message=f"unreadable file: {exc}",
                    hint="remove the broken symlink or fix the encoding",
                )
            )
            continue
        try:
            found.extend(
                lint_source(
                    source,
                    rel=package_rel(file),
                    path=str(file),
                    repo_root=repo_root,
                    select=select,
                    timings=timings,
                )
            )
        except SyntaxError as exc:
            found.append(
                Violation(
                    path=str(file),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code="ASV000",
                    message=f"syntax error: {exc.msg}",
                )
            )
    return sorted(found)


def _find_repo_root(paths: list[str | pathlib.Path]) -> pathlib.Path | None:
    start = pathlib.Path(paths[0]).resolve() if paths else pathlib.Path.cwd()
    for candidate in (start, *start.parents):
        if (candidate / "docs").is_dir():
            return candidate
    return None
