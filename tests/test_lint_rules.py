"""Per-rule fire/no-fire coverage over the lint_fixtures modules."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_file, rules

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

pytestmark = pytest.mark.lint


def run_rule(rule_id: str, filename: str, root: Path = FIXTURES):
    """One rule's findings on one fixture.

    ``root=FIXTURES`` keeps fixture rel-paths free of the ``tests/``
    component, so path-scoped rules (REP009) behave as they would on
    library code.
    """
    findings = lint_file(FIXTURES / filename, root=root)
    return [f for f in findings if f.rule == rule_id]


#: (rule id, bad fixture, expected findings, good fixture)
CASES = [
    ("REP001", "rep001_bad.py", 14, "rep001_good.py"),
    ("REP002", "rep002_bad.py", 5, "rep002_good.py"),
    ("REP003", "rep003_bad.py", 7, "rep003_good.py"),
    ("REP004", "rep004_bad.py", 6, "rep004_good.py"),
    ("REP005", "rep005_bad.py", 7, "rep005_good.py"),
    ("REP006", "rep006_bad.py", 4, "rep006_good.py"),
    ("REP007", "rep007_bad.py", 2, "rep007_good.py"),
    ("REP008", "rep008_bad_pkg/__init__.py", 1, "rep008_good_pkg/__init__.py"),
    ("REP009", "rep009_bad.py", 2, "rep009_good.py"),
    ("REP010", "rep010_bad.py", 3, "rep010_good.py"),
    ("REP011", "rep011_bad.py", 4, "rep011_good.py"),
    ("REP012", "rep012_bad.py", 7, "rep012_good.py"),
    ("REP013", "rep013_bad.py", 3, "rep013_good.py"),
    ("REP017", "rep017_bad.py", 4, "rep017_good.py"),
    ("REP018", "rep018_bad.py", 7, "rep018_good.py"),
    ("REP019", "rep019_bad.py", 6, "rep019_good.py"),
    ("REP020", "rep020_bad.py", 3, "rep020_good.py"),
]


@pytest.mark.parametrize(
    "rule_id,bad,expected,good", CASES, ids=[c[0] for c in CASES]
)
def test_rule_fires_and_stays_silent(rule_id, bad, expected, good):
    findings = run_rule(rule_id, bad)
    assert len(findings) == expected, [f.snippet for f in findings]
    assert all(f.rule == rule_id for f in findings)
    assert all(f.path and f.line >= 1 and f.message for f in findings)
    assert run_rule(rule_id, good) == []


class TestRuleDetails:
    def test_rep001_reports_alias_resolved_names(self):
        messages = " ".join(f.message for f in run_rule("REP001", "rep001_bad.py"))
        assert "default_rng" in messages
        assert "numpy.random.rand" in messages
        assert "random.shuffle" in messages
        assert "os.urandom()" in messages
        assert "secrets.token_hex()" in messages

    def test_rep003_names_hash_and_id(self):
        messages = " ".join(f.message for f in run_rule("REP003", "rep003_bad.py"))
        assert "hash() differs between processes" in messages
        assert "id() differs between processes" in messages

    def test_rep002_snippet_points_at_comparison(self):
        findings = run_rule("REP002", "rep002_bad.py")
        assert any("entropy == 0.0" in f.snippet for f in findings)

    def test_rep004_catches_aliased_imports(self):
        findings = run_rule("REP004", "rep004_bad.py")
        assert any("time.time()" in f.message for f in findings)
        assert any("datetime.datetime.utcnow" in f.message for f in findings)

    def test_rep007_names_the_class(self):
        findings = run_rule("REP007", "rep007_bad.py")
        assert {f.message.split()[2] for f in findings} == {
            "PrefetcherConfig", "MemoryConfig",
        }

    def test_rep009_exempts_test_paths(self):
        repo_root = FIXTURES.parents[1]
        assert run_rule("REP009", "rep009_bad.py", root=repo_root) == []

    def test_rep010_respects_allowed_modules(self, monkeypatch):
        monkeypatch.setattr(rules, "GEOMETRY_MODULES", ("rep010_bad.py",))
        assert run_rule("REP010", "rep010_bad.py") == []

    def test_rep012_respects_allowed_modules(self, monkeypatch):
        monkeypatch.setattr(rules, "CLOCK_MODULES", ("rep012_bad.py",))
        assert run_rule("REP012", "rep012_bad.py") == []

    def test_rep012_covers_both_clock_families(self):
        messages = " ".join(
            f.message for f in run_rule("REP012", "rep012_bad.py")
        )
        assert "time.perf_counter" in messages
        assert "time.time" in messages
        assert "repro.telemetry.clock" in messages

    def test_rep010_names_literal_kwargs(self):
        findings = run_rule("REP010", "rep010_bad.py")
        by_snippet = " ".join(f.message for f in findings)
        assert "line_size" in by_snippet
        assert "positional geometry" in by_snippet

    def test_rep017_names_the_guarded_sink(self):
        messages = [f.message for f in run_rule("REP017", "rep017_bad.py")]
        assert any("parallel_map()" in m for m in messages)
        assert any("map_benchmarks()" in m for m in messages)
        assert any("journal.append()" in m for m in messages)
        assert any(".result()" in m for m in messages)
