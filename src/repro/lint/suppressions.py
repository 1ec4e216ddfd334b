"""Inline waivers: the one way to silence a finding.

``# repro-lint: disable=REP002`` on the physical line a finding is
reported at (the statement's first line) waives the listed rule(s) on
that line only; several ids may be given, comma-separated.  A waiver is
for a *justified* violation, so the comment should say why the flagged
construct is safe, e.g.::

    if entropy == 1.0:  # repro-lint: disable=REP002 -- validated exact input
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Set

from repro.errors import LintError

__all__ = ["scan_suppressions"]

#: Matches the directive anywhere inside a comment; trailing free text
#: (a justification) is allowed after the id list.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)

_ID = re.compile(r"^[A-Z]{3}\d{3}$")


def _parse_ids(raw: str, path: str, line: int) -> FrozenSet[str]:
    ids: Set[str] = set()
    for token in raw.split(","):
        token = token.strip()
        # The id list ends at the first token that is not an id; what
        # follows is free-text justification ("-- reason" style).
        if not token:
            continue
        first_word = token.split()[0]
        if not _ID.match(first_word):
            raise LintError(
                f"{path}:{line}: malformed repro-lint directive: "
                f"{first_word!r} is not a rule id (expected e.g. REP001)"
            )
        ids.add(first_word)
        if first_word != token:
            break  # id followed by justification text: stop parsing ids
    if not ids:
        raise LintError(
            f"{path}:{line}: repro-lint directive lists no rule ids"
        )
    return frozenset(ids)


def scan_suppressions(
    source: str, path: str = "<unknown>"
) -> Dict[int, FrozenSet[str]]:
    """Map each line holding a waiver to the rule ids it waives."""
    waived: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            waived[line] = _parse_ids(match.group("ids"), path, line)
    except tokenize.TokenError as exc:
        raise LintError(f"{path}: cannot tokenize: {exc}") from exc
    return waived
