"""Self-application: the shipped source tree must be repro-lint clean.

This is the CI gate the whole subsystem exists for — any new unseeded
RNG, float equality, hash-ordered output, or stray cache geometry in
``src/repro`` fails the tier-1 run unless it is explicitly suppressed
with a justification or added to the committed baseline.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.lint import load_baseline, load_config
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.lint


def repo_config():
    return load_config(REPO / "pyproject.toml")


@pytest.fixture(scope="module")
def self_application():
    """One self-application through the CLI, as ``tools/lint.sh`` runs
    it, shared by the tests below: ``(exit code, report text)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = lint_main(
            ["--pyproject", str(REPO / "pyproject.toml"), str(REPO / "src" / "repro")]
        )
    return code, out.getvalue()


def test_src_tree_is_lint_clean(self_application):
    # No new finding of any severity, or the report in the failure message.
    _, report = self_application
    assert "repro-lint: 0 error(s), 0 warning(s) in" in report, (
        "\nnew lint findings:\n" + report
    )


def test_cli_exits_zero_on_repo(self_application):
    code, report = self_application
    assert code == 0, "\nrepro-lint report:\n" + report


def test_shipped_baseline_is_empty():
    # The baseline exists for future grandfathering, but this repo ships
    # with every finding fixed; keep it that way.
    config = repo_config()
    assert load_baseline(config.baseline_path()) == []


def test_cli_exits_nonzero_on_unseeded_rng_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import numpy as np\nRNG = np.random.default_rng()\n", encoding="utf-8"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro-lint]\n", encoding="utf-8")
    code = lint_main(["--pyproject", str(pyproject), str(fixture)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP001" in out
