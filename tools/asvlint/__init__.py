"""asvlint — repo-specific static analysis for the ASV reproduction.

An AST-based linter whose rules encode the invariants the optimization
PRs earned the hard way: seeded determinism (ASV001), shared-memory
lifecycle (ASV002), precision-knob threading (ASV003), registry/doc
sync (ASV004), bounded pool submission (ASV005) and lock discipline
(ASV008).  Run it as::

    python -m tools.asvlint src

or programmatically:

>>> from tools.asvlint import lint_source
>>> [v.code for v in lint_source("import time\\nt = time.time()\\n")]
['ASV001']

Rules register through :func:`register_rule`, mirroring
``repro.backends.registry``; ``docs/static-analysis.md`` is the
catalog, with the mutation table that decides which rules stay.
"""

from tools.asvlint.engine import (
    LintContext,
    Rule,
    Violation,
    available_rules,
    get_rule,
    iter_python_files,
    lint_paths,
    lint_source,
    register_rule,
)
from tools.asvlint import rules as _builtin_rules  # noqa: F401  (self-registering)

__all__ = [
    "LintContext",
    "Rule",
    "Violation",
    "available_rules",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register_rule",
]
