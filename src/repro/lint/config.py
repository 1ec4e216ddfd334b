"""Lint configuration: defaults plus the ``[tool.repro-lint]`` section.

Configuration lives in ``pyproject.toml`` so the linter, CI, and
editors all read one source of truth.  Recognized keys (dashes and
underscores interchangeable)::

    [tool.repro-lint]
    baseline = ".repro-lint-baseline.json"   # grandfathered findings
    disable = ["REP008"]                      # rule ids turned off
    enable = ["REP001", "REP002"]             # restrict to these ids
    exclude = ["lint_fixtures", "*/_vendor/*"]  # path globs/substrings
    rep008-all-modules = false   # REP008 on every module, not just __init__
    rep010-allowed = ["repro/config.py"]      # modules that may own geometry
    rep012-allowed = ["repro/telemetry/clock.py"]  # modules that may read clocks
    rep020-allowed = ["repro/resilience/policy.py"]  # may sleep in retry loops

    [tool.repro-lint.severity]
    REP002 = "warning"                        # error | warning | off

TOML parsing needs :mod:`tomllib` (Python 3.11+).  On older
interpreters the defaults are used and an explicit ``--pyproject``
request fails with :class:`LintError` instead of silently ignoring the
file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

try:
    import tomllib
except ImportError:  # Python < 3.11
    tomllib = None

from repro.errors import LintError
from repro.lint.registry import RuleSpec, Severity, get_rule, known_rule_ids

__all__ = ["DEFAULT_BASELINE_NAME", "LintConfig", "find_pyproject", "load_config"]

DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"

_KNOWN_KEYS = {
    "baseline",
    "disable",
    "enable",
    "exclude",
    "rep008_all_modules",
    "rep010_allowed",
    "rep012_allowed",
    "rep020_allowed",
    "severity",
}


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration for one lint run."""

    #: Baseline file name/path, resolved against :attr:`root`.
    baseline: Optional[str] = DEFAULT_BASELINE_NAME
    #: Rule ids globally disabled.
    disable: FrozenSet[str] = frozenset()
    #: When set, only these rule ids run.
    enable: Optional[FrozenSet[str]] = None
    #: Per-rule severity overrides (id -> Severity).
    severity: Mapping[str, Severity] = field(default_factory=dict)
    #: Path globs / substrings excluded from linting.
    exclude: Tuple[str, ...] = ()
    #: REP008 applies to every public module, not only package __init__.
    rep008_all_modules: bool = False
    #: Modules allowed to define cache-geometry literals (REP010).
    rep010_allowed: Tuple[str, ...] = ("repro/config.py",)
    #: Modules allowed to read host clocks directly (REP012).
    rep012_allowed: Tuple[str, ...] = ("repro/telemetry/clock.py",)
    #: Modules allowed to sleep inside retry loops directly (REP020) —
    #: the home of the sanctioned backoff_sleep helper itself.
    rep020_allowed: Tuple[str, ...] = ("repro/resilience/policy.py",)
    #: Directory paths/baselines resolve against (pyproject's directory).
    root: Optional[Path] = None

    def __post_init__(self) -> None:
        for rule_id in sorted({*self.disable, *(self.enable or ()), *self.severity}):
            get_rule(rule_id)  # raises LintError on unknown ids
        for rule_id, severity in sorted(self.severity.items()):
            if not isinstance(severity, Severity):
                raise LintError(
                    f"severity for {rule_id} must be a Severity, "
                    f"got {severity!r}"
                )

    def severity_for(self, spec: RuleSpec) -> Severity:
        return self.severity.get(spec.id, spec.severity)

    def is_excluded(self, rel_path: str) -> bool:
        for pattern in self.exclude:
            if fnmatch(rel_path, pattern) or pattern in rel_path:
                return True
        return False

    def baseline_path(self) -> Optional[Path]:
        if self.baseline is None:
            return None
        path = Path(self.baseline)
        if not path.is_absolute() and self.root is not None:
            path = self.root / path
        return path


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    current = (start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def _check_rule_ids(ids, key: str) -> FrozenSet[str]:
    known = set(known_rule_ids())
    result = set()
    for rule_id in ids:
        if not isinstance(rule_id, str) or rule_id not in known:
            raise LintError(
                f"[tool.repro-lint] {key}: unknown rule id {rule_id!r}; "
                f"known rules: {', '.join(sorted(known))}"
            )
        result.add(rule_id)
    return frozenset(result)


def _parse_section(section: Mapping, root: Path) -> LintConfig:
    normalized: Dict[str, object] = {}
    for key, value in section.items():
        norm = key.replace("-", "_")
        if norm not in _KNOWN_KEYS:
            raise LintError(
                f"[tool.repro-lint]: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(k.replace('_', '-') for k in _KNOWN_KEYS))}"
            )
        normalized[norm] = value

    severity: Dict[str, Severity] = {}
    raw_severity = normalized.get("severity", {})
    if not isinstance(raw_severity, Mapping):
        raise LintError("[tool.repro-lint] severity: expected a table")
    for rule_id in _check_rule_ids(raw_severity, "severity"):
        severity[rule_id] = Severity.parse(raw_severity[rule_id])

    enable = normalized.get("enable")
    return LintConfig(
        baseline=normalized.get("baseline", DEFAULT_BASELINE_NAME),
        disable=_check_rule_ids(normalized.get("disable", ()), "disable"),
        enable=None if enable is None else _check_rule_ids(enable, "enable"),
        severity=severity,
        exclude=tuple(normalized.get("exclude", ())),
        rep008_all_modules=bool(normalized.get("rep008_all_modules", False)),
        rep010_allowed=tuple(
            normalized.get("rep010_allowed", ("repro/config.py",))
        ),
        rep012_allowed=tuple(
            normalized.get("rep012_allowed", ("repro/telemetry/clock.py",))
        ),
        rep020_allowed=tuple(
            normalized.get(
                "rep020_allowed", ("repro/resilience/policy.py",)
            )
        ),
        root=root,
    )


def load_config(
    pyproject: Optional[Path] = None, start: Optional[Path] = None
) -> LintConfig:
    """Build a :class:`LintConfig` from a pyproject file.

    ``pyproject`` names the file explicitly (missing file is an error);
    otherwise the nearest ``pyproject.toml`` above ``start``/cwd is
    used, and defaults apply when none exists or it has no
    ``[tool.repro-lint]`` section.
    """
    explicit = pyproject is not None
    if pyproject is None:
        pyproject = find_pyproject(start)
        if pyproject is None:
            return LintConfig(root=(start or Path.cwd()).resolve())
    pyproject = Path(pyproject)
    if not pyproject.is_file():
        raise LintError(f"pyproject file not found: {pyproject}")
    if tomllib is None:
        if explicit:
            raise LintError(
                "reading pyproject configuration requires Python 3.11+ (tomllib)"
            )
        return LintConfig(root=pyproject.resolve().parent)
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise LintError(f"cannot read {pyproject}: {exc}") from exc
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, Mapping):
        raise LintError("[tool.repro-lint]: expected a table")
    return _parse_section(section, pyproject.resolve().parent)
