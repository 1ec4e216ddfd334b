"""Self-application: the shipped source tree must be repro-lint clean.

This is the CI gate the whole subsystem exists for — any new unseeded
RNG, float equality, hash-ordered output, or stray cache geometry in
``src/repro`` or ``tools`` fails the tier-1 run unless its line carries
a justified ``# repro-lint: disable=RULE -- reason`` waiver, and every
such waiver must still silence a finding.
"""

from __future__ import annotations

import contextlib
import io
import tokenize
from pathlib import Path

import pytest

from repro.lint import lint_file, scan_suppressions
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.lint


@pytest.fixture(scope="module")
def self_application():
    """One self-application through the CLI, as CI's
    ``tools/lint.sh src/repro tools`` runs it from the repo root, shared
    by the tests below: ``(exit code, report text)``."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = lint_main(["src/repro", "tools"])
    return code, out.getvalue()


def test_src_tree_is_lint_clean(self_application):
    # No finding, or the report in the failure message.
    _, report = self_application
    assert "repro-lint: 0 finding(s) in" in report, (
        "\nnew lint findings:\n" + report
    )


def test_cli_exits_zero_on_repo(self_application):
    code, report = self_application
    assert code == 0, "\nrepro-lint report:\n" + report


def test_cli_exits_nonzero_on_unseeded_rng_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import numpy as np\nRNG = np.random.default_rng()\n", encoding="utf-8"
    )
    code = lint_main([str(fixture)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP001" in out


def _strip_waivers(source: str) -> str:
    """``source`` with each waiver comment cut off its line."""
    lines = source.splitlines(keepends=True)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type == tokenize.COMMENT and "repro-lint:" in tok.string:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
    return "".join(lines)


def test_every_waiver_still_silences_a_finding(tmp_path):
    # Each copy keeps its path relative to the repo, so the path-scoped
    # rules and their allowed modules treat it as they treat the original.
    checked, stale = [], []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        waivers = scan_suppressions(source, str(path))
        if not waivers:
            continue
        copy = tmp_path / path.relative_to(REPO)
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_text(_strip_waivers(source), encoding="utf-8")
        live = {(f.line, f.rule) for f in lint_file(copy, root=tmp_path)}
        for line, rule_ids in sorted(waivers.items()):
            for rule_id in sorted(rule_ids):
                where = f"{path.relative_to(REPO)}:{line}: {rule_id}"
                checked.append(where)
                if (line, rule_id) not in live:
                    stale.append(where)
    assert checked, "no waiver found in src/repro"
    assert stale == [], "waivers that silence nothing:\n" + "\n".join(stale)
