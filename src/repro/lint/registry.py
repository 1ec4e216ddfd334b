"""Rule registry: findings and the rule catalogue.

Rules are plain generator functions registered with the :func:`rule`
decorator.  Each rule receives a :class:`repro.lint.walker.ModuleContext`
and yields ``(node, message)`` pairs; the walker turns those into
:class:`Finding` objects, applies inline suppressions, and sorts the
result.  Keeping rules as data in a registry (rather than hard-coded
passes) lets the CLI list them and keeps each rule independently
testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

from repro.errors import LintError

__all__ = [
    "Finding",
    "RuleSpec",
    "all_rules",
    "get_rule",
    "rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


#: Signature of a rule body: yields (node, message) pairs.
RuleFunc = Callable[["object"], Iterable[tuple]]


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule: identity, hazard, and the check body."""

    id: str
    name: str
    hazard: str
    func: RuleFunc = field(repr=False)


_REGISTRY: Dict[str, RuleSpec] = {}


def rule(
    rule_id: str, name: str, *, hazard: str
) -> Callable[[RuleFunc], RuleFunc]:
    """Register a rule function under ``rule_id`` (e.g. ``"REP001"``).

    ``name`` is a short kebab-case label for reports; ``hazard`` is one
    sentence on the determinism / correctness hazard the rule guards,
    shown by ``python -m repro.lint --list-rules`` and quoted in DESIGN.md.
    """

    def decorator(func: RuleFunc) -> RuleFunc:
        if rule_id in _REGISTRY:
            raise LintError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = RuleSpec(
            id=rule_id, name=name, hazard=hazard, func=func
        )
        return func

    return decorator


def all_rules() -> Tuple[RuleSpec, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def get_rule(rule_id: str) -> RuleSpec:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(
            f"unknown rule id {rule_id!r}; known rules: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
