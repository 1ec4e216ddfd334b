"""Finding reporters: human text and machine JSON.

The JSON schema is stable (``{"tool", "schema_version", "summary",
"findings": [...]}``) so CI annotations and dashboards can consume it;
``tests/test_lint_infra.py`` pins the shape.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.lint.registry import Finding, Severity, all_rules

__all__ = [
    "JSON_SCHEMA_VERSION",
    "render_json",
    "render_rule_list",
    "render_text",
]

JSON_SCHEMA_VERSION = 1


def _counts(findings: Sequence[Finding]) -> dict:
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return {
        "total": len(findings),
        "errors": errors,
        "warnings": len(findings) - errors,
    }


def render_text(
    findings: Sequence[Finding], *, baselined: int = 0, files: int = 0
) -> str:
    """pylint-style one-line-per-finding report plus a summary line."""
    lines: List[str] = []
    for f in findings:
        lines.append(
            f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity.value}] {f.message}"
        )
        if f.snippet:
            lines.append(f"    {f.snippet}")
    counts = _counts(findings)
    summary = (
        f"repro-lint: {counts['errors']} error(s), "
        f"{counts['warnings']} warning(s) in {files} file(s)"
    )
    if baselined:
        summary += f" ({baselined} baselined finding(s) suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], *, baselined: int = 0, files: int = 0
) -> str:
    payload = {
        "tool": "repro-lint",
        "schema_version": JSON_SCHEMA_VERSION,
        "summary": {**_counts(findings), "files": files, "baselined": baselined},
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules`` output: id, name, default severity, hazard."""
    lines = []
    for spec in all_rules():
        lines.append(f"{spec.id}  {spec.name}  [{spec.severity.value}]")
        lines.append(f"    {spec.hazard}")
    return "\n".join(lines)
