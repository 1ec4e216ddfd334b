"""repro.lint: AST-based determinism & simulation-correctness linter.

The package enforces the invariants the reproduction's numbers rest on
(explicit seeding, ordered iteration, validated configs, geometry owned
by :mod:`repro.config`) as static checks over the source tree.  Run it
with ``repro-lint``, ``python -m repro.lint``, or programmatically::

    from repro.lint import LintConfig, lint_paths
    findings = lint_paths(["src/repro"], LintConfig())

Every rule checks one module's AST at a time.  Rules are documented in
DESIGN.md ("Static analysis"); the linter is self-applied by
``tests/test_lint_clean.py``.
"""

from repro.lint import rules as _rules  # noqa: F401 -- populates the registry
from repro.lint.baseline import load_baseline, partition, save_baseline
from repro.lint.cli import main
from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.registry import (
    Finding,
    RuleSpec,
    Severity,
    all_rules,
    get_rule,
    known_rule_ids,
)
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.suppressions import SuppressionMap, scan_suppressions
from repro.lint.walker import ModuleContext, iter_python_files, lint_file, lint_paths

__all__ = [
    # registry
    "Finding", "RuleSpec", "Severity", "all_rules", "get_rule",
    "known_rule_ids",
    # config
    "LintConfig", "find_pyproject", "load_config",
    # walking
    "ModuleContext", "iter_python_files", "lint_file", "lint_paths",
    # suppressions / baseline
    "SuppressionMap", "scan_suppressions",
    "load_baseline", "partition", "save_baseline",
    # reporting / cli
    "render_json", "render_rule_list", "render_text", "main",
]
