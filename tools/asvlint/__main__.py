"""CLI: ``python -m tools.asvlint [paths...]``.

Exit status: 0 clean, 1 violations, 2 usage errors.  Output is one
``path:line:col: CODE message [fix: ...]`` line per violation, and
``--stats`` prints per-rule wall time to stderr.  Under GitHub Actions
(or with ``--github``) each violation is additionally emitted as a
``::error file=...,line=...`` annotation so CI failures land on the
offending line in the diff view.
"""

from __future__ import annotations

import argparse
import os
import sys

from tools.asvlint.engine import available_rules, get_rule, lint_paths


def _list_rules() -> None:
    for code in available_rules():
        rule = get_rule(code)
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        print(f"{code}  {rule.name}  [{scope}]")
        print(f"    rationale: {rule.rationale}")
        print(f"    fix: {rule.hint}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.asvlint",
        description="repo-specific static analysis (determinism, shm "
        "lifecycle, precision threading, registry drift, bounded "
        "submission, lock discipline)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule wall time to stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--github", action="store_true",
                        help="also emit GitHub Actions ::error annotations "
                        "(automatic when GITHUB_ACTIONS is set)")
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    select = None
    if args.select:
        select = [c.strip().upper() for c in args.select.split(",") if c.strip()]
        for code in select:
            get_rule(code)  # fail fast on unknown codes
    timings: dict[str, float] = {}
    violations = lint_paths(
        args.paths or ["src"], select=select, timings=timings
    )
    github = args.github or os.environ.get("GITHUB_ACTIONS") == "true"
    for v in violations:
        print(v.render())
        if github:
            print(v.render_github())
    if args.stats:
        total = sum(timings.values())
        for code, seconds in sorted(
            timings.items(), key=lambda kv: kv[1], reverse=True
        ):
            print(f"asvlint: {code} {seconds * 1000:8.1f} ms", file=sys.stderr)
        print(f"asvlint: rules total {total:.2f} s", file=sys.stderr)
    if violations:
        print(
            f"asvlint: {len(violations)} violation(s) in "
            f"{len({v.path for v in violations})} file(s)",
            file=sys.stderr,
        )
        return 1
    print("asvlint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `--list-rules | head`
        sys.exit(0)
