"""Linter infrastructure: waivers, the text report, the walker, the CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import (
    all_rules,
    lint_file,
    lint_paths,
    render_text,
    scan_suppressions,
)
from repro.lint.cli import main as lint_main
from repro.lint.walker import ModuleContext, iter_python_files

pytestmark = pytest.mark.lint

UNSEEDED = "import numpy as np\nRNG = np.random.default_rng()\n"


def write_module(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def lint_source(tmp_path: Path, source: str):
    return lint_file(write_module(tmp_path, source), root=tmp_path)


class TestSuppressions:
    def test_line_level_directive(self):
        sup = scan_suppressions("x = 1  # repro-lint: disable=REP001\n")
        assert sup == {1: {"REP001"}}

    def test_multiple_ids_and_justification(self):
        sup = scan_suppressions(
            "y = 2  # repro-lint: disable=REP003,REP005 -- intentional\n"
        )
        assert sup == {1: {"REP003", "REP005"}}

    def test_malformed_directive_raises(self):
        with pytest.raises(LintError):
            scan_suppressions("x = 1  # repro-lint: disable=bogus\n")
        with pytest.raises(LintError):
            scan_suppressions("x = 1  # repro-lint: disable=all\n")

    def test_suppression_silences_finding(self, tmp_path):
        assert len(lint_source(tmp_path, UNSEEDED)) == 1
        suppressed = UNSEEDED.replace(
            "default_rng()",
            "default_rng()  # repro-lint: disable=REP001 -- seeded upstream",
        )
        assert lint_source(tmp_path, suppressed) == []


class TestReporters:
    def sample(self, tmp_path):
        return lint_source(tmp_path, UNSEEDED)

    def test_text_format(self, tmp_path):
        findings = self.sample(tmp_path)
        text = render_text(findings, files=1)
        assert "mod.py:2:" in text
        assert "REP001" in text
        assert "repro-lint: 1 finding(s) in 1 file(s)" in text


class TestWalker:
    def test_alias_resolution(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from numpy.random import default_rng as mk\n"
        )
        ctx = ModuleContext(write_module(tmp_path, source), "mod.py", source)
        import ast

        np_attr = ast.parse("np.random.default_rng").body[0].value
        assert ctx.resolve(np_attr) == "numpy.random.default_rng"
        mk_name = ast.parse("mk").body[0].value
        assert ctx.resolve(mk_name) == "numpy.random.default_rng"

    def test_exclude_patterns(self, tmp_path):
        keep = write_module(tmp_path, UNSEEDED, "keep.py")
        (tmp_path / "lint_fixtures").mkdir()
        write_module(tmp_path / "lint_fixtures", UNSEEDED, "bad.py")
        assert iter_python_files([tmp_path]) == [keep]

    def test_syntax_error_is_lint_error(self, tmp_path):
        path = write_module(tmp_path, "def broken(:\n")
        with pytest.raises(LintError):
            lint_file(path, root=tmp_path)

    def test_lint_paths_over_directory(self, tmp_path):
        write_module(tmp_path, UNSEEDED, "a.py")
        write_module(tmp_path, "x = 1\n", "b.py")
        findings = lint_paths([tmp_path])
        assert [f.rule for f in findings] == ["REP001"]


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = write_module(tmp_path, "x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        target = write_module(tmp_path, UNSEEDED)
        assert lint_main([str(target)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for spec in all_rules():
            assert spec.id in out
        assert [spec.id for spec in all_rules()] == [
            *(f"REP{n:03d}" for n in range(1, 14)),
            "REP017", "REP018", "REP019", "REP020",
        ]
