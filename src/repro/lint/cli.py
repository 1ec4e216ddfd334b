"""``python -m repro.lint`` command line front end.

Every registered rule runs on every file, and every finding fails the
run.  Exit codes: 0 = clean, 1 = at least one finding, 2 = usage or
internal error (bad path, unparseable file, malformed waiver).

Every rule runs per file, so linting only what changed is a matter of
naming it: ``tools/lint.sh $(git diff --name-only HEAD -- '*.py')``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import LintError
from repro.lint import rules as _rules  # noqa: F401 -- populates the registry
from repro.lint.registry import Finding, all_rules
from repro.lint.walker import iter_python_files, lint_paths

__all__ = ["main", "render_rule_list", "render_text"]

_DEFAULT_TARGET = "src/repro"


def render_text(findings: Sequence[Finding], *, files: int) -> str:
    """pylint-style one-line-per-finding report plus a summary line."""
    lines: List[str] = []
    for f in findings:
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet}")
    lines.append(f"repro-lint: {len(findings)} finding(s) in {files} file(s)")
    return "\n".join(lines)


def render_rule_list() -> str:
    """``--list-rules`` output: id, name, hazard."""
    lines = []
    for spec in all_rules():
        lines.append(f"{spec.id}  {spec.name}")
        lines.append(f"    {spec.hazard}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and simulation-correctness linter for "
            "the repro codebase (rules REP001-REP013 and REP017-REP020)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files/directories to lint (default: {_DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule with its hazard and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0
    default = Path(_DEFAULT_TARGET)
    targets = [Path(p) for p in args.paths] or [
        default if default.is_dir() else Path(".")
    ]
    try:
        files = iter_python_files(targets)
        findings = lint_paths(files)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    print(render_text(findings, files=len(files)))
    return 1 if findings else 0
