"""Rule registry: findings, severities, and the rule catalogue.

Rules are plain generator functions registered with the :func:`rule`
decorator.  Each rule receives a :class:`repro.lint.walker.ModuleContext`
and yields ``(node, message)`` pairs; the walker turns those into
:class:`Finding` objects, applies inline suppressions and severity
overrides, and sorts the result.  Keeping rules as data in a registry
(rather than hard-coded passes) lets the CLI list them, lets pyproject
config enable/disable them by id, and keeps each rule independently
testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

from repro.errors import LintError

__all__ = [
    "Finding",
    "RuleSpec",
    "Severity",
    "all_rules",
    "get_rule",
    "known_rule_ids",
    "rule",
]


class Severity(enum.Enum):
    """How a finding affects the lint run's exit status."""

    #: Reported and counted toward a non-zero exit code.
    ERROR = "error"
    #: Reported but never fails the run.
    WARNING = "warning"
    #: Rule is disabled entirely.
    OFF = "off"

    @classmethod
    def parse(cls, value: str) -> "Severity":
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(s.value for s in cls)
            raise LintError(
                f"unknown severity {value!r}; expected one of: {choices}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    snippet: str = ""

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-number-independent identity used for baseline matching.

        Keyed on (path, rule, snippet) so baselined findings survive
        unrelated edits that shift line numbers.
        """
        return (self.path, self.rule, self.snippet)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity.value,
            "snippet": self.snippet,
        }


#: Signature of a rule body: yields (node, message) pairs.
RuleFunc = Callable[["object"], Iterable[tuple]]


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule: identity, default severity, and the check body."""

    id: str
    name: str
    hazard: str
    func: RuleFunc = field(repr=False)
    severity: Severity = Severity.ERROR


_REGISTRY: Dict[str, RuleSpec] = {}


def rule(
    rule_id: str,
    name: str,
    *,
    hazard: str,
    severity: Severity = Severity.ERROR,
) -> Callable[[RuleFunc], RuleFunc]:
    """Register a rule function under ``rule_id`` (e.g. ``"REP001"``).

    ``name`` is a short kebab-case label for reports; ``hazard`` is one
    sentence on the determinism / correctness hazard the rule guards,
    shown by ``repro-lint --list-rules`` and quoted in DESIGN.md.
    """

    def decorator(func: RuleFunc) -> RuleFunc:
        if rule_id in _REGISTRY:
            raise LintError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = RuleSpec(
            id=rule_id, name=name, hazard=hazard, func=func, severity=severity
        )
        return func

    return decorator


def all_rules() -> Tuple[RuleSpec, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def known_rule_ids() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_rule(rule_id: str) -> RuleSpec:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(
            f"unknown rule id {rule_id!r}; known rules: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
