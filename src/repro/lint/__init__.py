"""repro.lint: AST-based determinism & simulation-correctness linter.

The package enforces the invariants the reproduction's numbers rest on
(explicit seeding, ordered iteration, validated configs, geometry owned
by :mod:`repro.config`) as static checks over the source tree.  Every
registered rule runs on every file and every finding fails the run;
a ``# repro-lint: disable=RULE -- reason`` comment on the finding's
line is the one way to waive it.  Run it with
``python -m repro.lint [PATH...]`` (or ``tools/lint.sh``), or
programmatically::

    from repro.lint import lint_paths
    findings = lint_paths(["src/repro"])

Every rule checks one module's AST at a time.  Rules are documented in
DESIGN.md ("Static analysis"); the linter is self-applied by
``tests/test_lint_clean.py``.
"""

from repro.lint import rules as _rules  # noqa: F401 -- populates the registry
from repro.lint.cli import main, render_rule_list, render_text
from repro.lint.registry import Finding, RuleSpec, all_rules, get_rule
from repro.lint.suppressions import scan_suppressions
from repro.lint.walker import ModuleContext, iter_python_files, lint_file, lint_paths

__all__ = [
    # registry
    "Finding", "RuleSpec", "all_rules", "get_rule",
    # walking and waivers
    "ModuleContext", "iter_python_files", "lint_file", "lint_paths",
    "scan_suppressions",
    # reporting / cli
    "render_rule_list", "render_text", "main",
]
