"""Linter infrastructure: suppressions, baseline, reporters, config, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import (
    Finding,
    LintConfig,
    Severity,
    all_rules,
    lint_file,
    lint_paths,
    load_baseline,
    load_config,
    partition,
    render_json,
    render_text,
    save_baseline,
    scan_suppressions,
)
from repro.lint.baseline import merge_baseline, save_fingerprints
from repro.lint.cli import main as lint_main
from repro.lint.walker import ModuleContext, iter_python_files

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

pytestmark = pytest.mark.lint

UNSEEDED = "import numpy as np\nRNG = np.random.default_rng()\n"


def write_module(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def lint_source(tmp_path: Path, source: str, **config_kwargs):
    config = LintConfig(baseline=None, root=tmp_path, **config_kwargs)
    return lint_file(write_module(tmp_path, source), config)


class TestSuppressions:
    def test_line_level_directive(self):
        sup = scan_suppressions("x = 1  # repro-lint: disable=REP001\n")
        assert sup.is_suppressed("REP001", 1)
        assert not sup.is_suppressed("REP002", 1)
        assert not sup.is_suppressed("REP001", 2)

    def test_multiple_ids_and_justification(self):
        sup = scan_suppressions(
            "y = 2  # repro-lint: disable=REP003,REP005 -- intentional\n"
        )
        assert sup.is_suppressed("REP003", 1)
        assert sup.is_suppressed("REP005", 1)

    def test_file_wide_and_all(self):
        sup = scan_suppressions(
            "# repro-lint: disable-file=REP008\n"
            "z = 3  # repro-lint: disable=all\n"
        )
        assert sup.is_suppressed("REP008", 99)
        assert sup.is_suppressed("REP010", 2)
        assert not sup.is_suppressed("REP010", 3)

    def test_malformed_directive_raises(self):
        with pytest.raises(LintError):
            scan_suppressions("x = 1  # repro-lint: disable=bogus\n")

    def test_suppression_silences_finding(self, tmp_path):
        assert len(lint_source(tmp_path, UNSEEDED)) == 1
        suppressed = UNSEEDED.replace(
            "default_rng()",
            "default_rng()  # repro-lint: disable=REP001 -- seeded upstream",
        )
        assert lint_source(tmp_path, suppressed) == []


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = lint_source(tmp_path, UNSEEDED)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, findings)
        new, old = partition(findings, load_baseline(baseline_path))
        assert new == [] and len(old) == 1

    def test_line_shift_does_not_resurrect(self, tmp_path):
        findings = lint_source(tmp_path, UNSEEDED)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, findings)
        shifted = lint_source(tmp_path, "# a new leading comment\n" + UNSEEDED)
        assert shifted[0].line != findings[0].line
        new, old = partition(shifted, load_baseline(baseline_path))
        assert new == [] and len(old) == 1

    def test_new_findings_surface(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, lint_source(tmp_path, UNSEEDED))
        both = UNSEEDED + "OTHER = np.random.default_rng()\n"
        new, old = partition(
            lint_source(tmp_path, both), load_baseline(baseline_path)
        )
        assert len(new) == 1 and len(old) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []
        assert load_baseline(None) == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{\"version\": 99}", encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(bad)
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(bad)


class TestBaselineMerge:
    def test_merge_keeps_existing_and_adds_new(self):
        existing = [("src/a.py", "REP004", "time.time()")]
        findings = [
            Finding(
                rule="REP001", path="src/b.py", line=3, col=0,
                message="m", snippet="RNG = np.random.default_rng()",
            ),
            Finding(
                rule="REP004", path="src/a.py", line=9, col=0,
                message="m", snippet="time.time()",
            ),
        ]
        merged = merge_baseline(existing, findings)
        assert ("src/a.py", "REP004", "time.time()") in merged
        assert ("src/b.py", "REP001", "RNG = np.random.default_rng()") in merged
        # The REP004 finding matched the existing entry: no duplicate.
        assert len(merged) == 2

    def test_merge_preserves_stale_entries(self):
        # A baselined finding that no longer fires must survive --update.
        existing = [("src/gone.py", "REP001", "np.random.rand()")]
        merged = merge_baseline(existing, [])
        assert merged == existing

    def test_merge_respects_multiplicity(self):
        fp = ("src/a.py", "REP002", "x == y")
        finding = Finding(
            rule="REP002", path="src/a.py", line=1, col=0,
            message="m", snippet="x == y",
        )
        merged = merge_baseline([fp], [finding, finding])
        assert merged.count(fp) == 2

    def test_cli_baseline_update_round_trip(self, tmp_path, monkeypatch):
        write_module(tmp_path, UNSEEDED)
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        # Seed the baseline with a foreign file's entry.
        save_fingerprints(
            baseline, [("src/old.py", "REP004", "time.time()")]
        )
        code = lint_main(
            ["baseline", "--update", "--baseline", str(baseline), "mod.py"]
        )
        assert code == 0
        merged = load_baseline(baseline)
        assert ("src/old.py", "REP004", "time.time()") in merged
        assert ("mod.py", "REP001", "RNG = np.random.default_rng()") in merged
        # The lint run is now clean against the merged baseline.
        assert lint_main(["mod.py", "--baseline", str(baseline)]) == 0

    def test_save_baseline_round_trip_still_works(self, tmp_path):
        finding = Finding(
            rule="REP001", path="src/b.py", line=3, col=0,
            message="m", snippet="RNG = np.random.default_rng()",
        )
        path = tmp_path / "b.json"
        save_baseline(path, [finding])
        assert load_baseline(path) == [finding.fingerprint]


class TestReporters:
    def sample(self, tmp_path):
        return lint_source(tmp_path, UNSEEDED)

    def test_text_format(self, tmp_path):
        findings = self.sample(tmp_path)
        text = render_text(findings, baselined=2, files=1)
        assert "mod.py:2:" in text
        assert "REP001" in text
        assert "1 error(s), 0 warning(s) in 1 file(s)" in text
        assert "2 baselined" in text

    def test_json_schema(self, tmp_path):
        findings = self.sample(tmp_path)
        payload = json.loads(render_json(findings, baselined=0, files=1))
        assert payload["tool"] == "repro-lint"
        assert payload["schema_version"] == 1
        assert payload["summary"] == {
            "total": 1, "errors": 1, "warnings": 0, "files": 1, "baselined": 0,
        }
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "severity", "snippet",
        }
        assert finding["rule"] == "REP001"
        assert finding["severity"] == "error"


class TestConfig:
    def test_defaults(self):
        config = LintConfig()
        assert config.baseline == ".repro-lint-baseline.json"
        assert config.enable is None and config.disable == frozenset()

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(LintError):
            LintConfig(disable=frozenset({"REP999"}))

    def test_severity_override_and_off(self, tmp_path):
        warned = lint_source(
            tmp_path, UNSEEDED, severity={"REP001": Severity.WARNING}
        )
        assert warned[0].severity is Severity.WARNING
        silenced = lint_source(
            tmp_path, UNSEEDED, severity={"REP001": Severity.OFF}
        )
        assert silenced == []

    def test_pyproject_section(self, tmp_path):
        pytest.importorskip("tomllib")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\n"
            "baseline = \"lint-base.json\"\n"
            "disable = [\"REP008\"]\n"
            "exclude = [\"vendored\"]\n"
            "rep008-all-modules = true\n"
            "rep012-allowed = [\"repro/clockproxy.py\"]\n"
            "[tool.repro-lint.severity]\n"
            "REP002 = \"warning\"\n",
            encoding="utf-8",
        )
        config = load_config(pyproject)
        assert config.baseline == "lint-base.json"
        assert config.baseline_path() == tmp_path / "lint-base.json"
        assert config.disable == frozenset({"REP008"})
        assert config.exclude == ("vendored",)
        assert config.rep008_all_modules is True
        assert config.rep012_allowed == ("repro/clockproxy.py",)
        assert config.severity["REP002"] is Severity.WARNING
        assert config.root == tmp_path

    def test_pyproject_unknown_key_raises(self, tmp_path):
        pytest.importorskip("tomllib")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\ntypo = 1\n", encoding="utf-8")
        with pytest.raises(LintError):
            load_config(pyproject)

    def test_missing_explicit_pyproject_raises(self, tmp_path):
        with pytest.raises(LintError):
            load_config(tmp_path / "nope.toml")

    def test_repo_pyproject_parses(self):
        pytest.importorskip("tomllib")
        config = load_config(REPO / "pyproject.toml")
        assert "tests/lint_fixtures" in config.exclude
        assert config.baseline == ".repro-lint-baseline.json"


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
        keep = write_module(tmp_path, "x = 1\n", "keep.py")
        write_module(tmp_path, "x = 1\n", "skip_me.py")
        config = LintConfig(root=tmp_path, exclude=("skip_*",))
        assert iter_python_files([tmp_path], config) == [keep]

    def test_syntax_error_is_lint_error(self, tmp_path):
        path = write_module(tmp_path, "def broken(:\n")
        with pytest.raises(LintError):
            lint_file(path, LintConfig(root=tmp_path))

    def test_lint_paths_over_directory(self, tmp_path):
        write_module(tmp_path, UNSEEDED, "a.py")
        write_module(tmp_path, "x = 1\n", "b.py")
        findings = lint_paths([tmp_path], LintConfig(root=tmp_path))
        assert [f.rule for f in findings] == ["REP001"]


class TestCli:
    def pyproject(self, tmp_path: Path) -> Path:
        path = tmp_path / "pyproject.toml"
        path.write_text("[tool.repro-lint]\n", encoding="utf-8")
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = write_module(tmp_path, "x = 1\n")
        code = lint_main(
            ["--pyproject", str(self.pyproject(tmp_path)), str(target)]
        )
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        target = write_module(tmp_path, UNSEEDED)
        code = lint_main(
            ["--pyproject", str(self.pyproject(tmp_path)), str(target)]
        )
        assert code == 1
        assert "REP001" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        target = write_module(tmp_path, UNSEEDED)
        lint_main(
            ["--pyproject", str(self.pyproject(tmp_path)),
             "--format", "json", str(target)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1

    def test_select_and_ignore(self, tmp_path, capsys):
        target = write_module(tmp_path, UNSEEDED)
        base = ["--pyproject", str(self.pyproject(tmp_path))]
        assert lint_main([*base, "--select", "REP002", str(target)]) == 0
        assert lint_main([*base, "--ignore", "REP001", str(target)]) == 0
        assert lint_main([*base, "--select", "NOPE", str(target)]) == 2
        capsys.readouterr()

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        target = write_module(tmp_path, UNSEEDED)
        base = ["--pyproject", str(self.pyproject(tmp_path))]
        assert lint_main([*base, "--write-baseline", str(target)]) == 0
        assert (tmp_path / ".repro-lint-baseline.json").exists()
        assert lint_main([*base, str(target)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        assert lint_main([*base, "--no-baseline", str(target)]) == 1

    def test_bad_path_exits_two(self, tmp_path, capsys):
        code = lint_main(
            ["--pyproject", str(self.pyproject(tmp_path)),
             str(tmp_path / "missing.py")]
        )
        assert code == 2
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

    def test_main_cli_forwards_lint(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "REP001" in capsys.readouterr().out


def test_finding_fingerprint_ignores_line():
    a = Finding("REP001", "m.py", 3, 0, "msg", Severity.ERROR, "x = 1")
    b = Finding("REP001", "m.py", 9, 4, "msg", Severity.ERROR, "x = 1")
    assert a.fingerprint == b.fingerprint
