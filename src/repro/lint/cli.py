"""``repro-lint`` command line front end.

Exit codes: 0 = clean (or every finding baselined / warning-only),
1 = at least one new error-severity finding, 2 = usage or internal
error (bad path, unparseable file, malformed config/baseline).

Subcommands::

    repro-lint [PATHS...]            # lint (default)
    repro-lint baseline --update     # merge current findings into the
                                     # baseline without dropping entries

Every rule runs per file, so linting only what changed is a matter of
naming it: ``repro-lint $(git diff --name-only HEAD -- '*.py')``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import LintError
from repro.lint import rules as _rules  # noqa: F401 -- populates the registry
from repro.lint.baseline import (
    load_baseline,
    merge_baseline,
    partition,
    save_baseline,
    save_fingerprints,
)
from repro.lint.config import LintConfig, load_config
from repro.lint.registry import Severity, get_rule
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.walker import iter_python_files, lint_paths

__all__ = ["main"]

_DEFAULT_TARGET = "src/repro"

_RENDERERS = {
    "text": render_text,
    "json": render_json,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism and simulation-correctness linter for "
            "the repro codebase (rules REP001-REP013 and REP017-REP020)."
        ),
        epilog=(
            "subcommands: 'repro-lint baseline --update [PATHS...]' merges "
            "current findings into the baseline without dropping entries "
            "('baseline' must be the first argument)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files/directories to lint (default: {_DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format", choices=tuple(_RENDERERS), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--pyproject", metavar="FILE",
        help="pyproject.toml to read [tool.repro-lint] from "
             "(default: nearest above the current directory)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file of grandfathered findings (overrides config)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore", metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule with its hazard and exit",
    )
    return parser


def _build_baseline_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint baseline",
        description="maintain the grandfathered-findings baseline",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files/directories to lint (default: {_DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="merge current findings into the baseline; existing "
             "entries (including other rules') are never dropped",
    )
    parser.add_argument("--pyproject", metavar="FILE")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file to update (overrides config)",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[frozenset]:
    if raw is None:
        return None
    ids = frozenset(part.strip() for part in raw.split(",") if part.strip())
    for rule_id in sorted(ids):
        get_rule(rule_id)  # raises LintError on unknown ids
    return ids


def _apply_overrides(config: LintConfig, args) -> LintConfig:
    from dataclasses import replace

    updates = {}
    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore)
    if select is not None:
        updates["enable"] = select
    if ignore is not None:
        updates["disable"] = config.disable | ignore
    if args.baseline is not None:
        updates["baseline"] = args.baseline
        # An explicit --baseline path is relative to the caller, not the
        # pyproject directory.
        updates["root"] = Path.cwd()
    if args.no_baseline:
        updates["baseline"] = None
    return replace(config, **updates) if updates else config


def _default_targets(config: LintConfig) -> List[Path]:
    default = Path(_DEFAULT_TARGET)
    if not default.is_dir() and config.root is not None:
        rooted = config.root / _DEFAULT_TARGET
        if rooted.is_dir():
            return [rooted]
    return [default if default.is_dir() else Path(".")]


def _baseline_main(argv: Sequence[str]) -> int:
    args = _build_baseline_parser().parse_args(list(argv))
    try:
        pyproject = Path(args.pyproject) if args.pyproject else None
        config = load_config(pyproject)
        if args.baseline is not None:
            from dataclasses import replace

            config = replace(config, baseline=args.baseline, root=Path.cwd())
        baseline_path = config.baseline_path()
        if baseline_path is None:
            raise LintError("baseline maintenance requires a baseline path")
        if not args.update:
            raise LintError(
                "nothing to do: pass --update to merge current findings "
                "(use --write-baseline on the lint command to overwrite)"
            )
        targets = [Path(p) for p in args.paths] or _default_targets(config)
        findings = lint_paths(targets, config)
        existing = load_baseline(baseline_path)
        merged = merge_baseline(existing, findings)
        save_fingerprints(baseline_path, merged)
        print(
            f"baseline {baseline_path}: {len(existing)} entr(ies) kept, "
            f"{len(merged) - len(existing)} added",
            file=sys.stderr,
        )
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lint`` and ``python -m repro.lint``."""
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["baseline"]:
        return _baseline_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0
    try:
        pyproject = Path(args.pyproject) if args.pyproject else None
        config = _apply_overrides(load_config(pyproject), args)
        targets = [Path(p) for p in args.paths] or _default_targets(config)
        files = iter_python_files(targets, config)
        findings = lint_paths(targets, config)

        baseline_path = config.baseline_path()
        if args.write_baseline:
            if baseline_path is None:
                raise LintError("--write-baseline requires a baseline path")
            save_baseline(baseline_path, findings)
            print(
                f"wrote {len(findings)} finding(s) to {baseline_path}",
                file=sys.stderr,
            )
            return 0

        new, grandfathered = partition(findings, load_baseline(baseline_path))
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    render = _RENDERERS[args.format]
    print(render(new, baselined=len(grandfathered), files=len(files)))
    has_errors = any(f.severity is Severity.ERROR for f in new)
    return 1 if has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
