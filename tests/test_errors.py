"""The ReproError exception hierarchy and its message contracts."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    ClusteringError,
    ConfigError,
    LintError,
    PinballError,
    ReproError,
    SimPointError,
    SimulationError,
    UnknownBenchmarkError,
    WorkloadError,
)

#: child -> direct parent; the full shipped tree.
HIERARCHY = {
    ConfigError: ReproError,
    WorkloadError: ReproError,
    UnknownBenchmarkError: WorkloadError,
    ClusteringError: ReproError,
    SimPointError: ReproError,
    PinballError: ReproError,
    SimulationError: ReproError,
    LintError: ReproError,
}


class TestHierarchy:
    @pytest.mark.parametrize(
        "child,parent", HIERARCHY.items(),
        ids=[c.__name__ for c in HIERARCHY],
    )
    def test_direct_parent(self, child, parent):
        assert child.__bases__ == (parent,)

    @pytest.mark.parametrize(
        "child", HIERARCHY, ids=[c.__name__ for c in HIERARCHY]
    )
    def test_single_catch_clause_suffices(self, child):
        if child is UnknownBenchmarkError:
            exc = child("999.nope_r", ["505.mcf_r"])
        else:
            exc = child("boom")
        with pytest.raises(ReproError):
            raise exc

    def test_base_does_not_leak_programming_errors(self):
        assert not issubclass(TypeError, ReproError)
        assert not issubclass(ReproError, (ValueError, RuntimeError))

    def test_all_hierarchy_classes_exported_from_package(self):
        for cls in (*HIERARCHY, ReproError):
            assert cls.__name__ in repro.__all__
            assert getattr(repro, cls.__name__) is cls


class TestUnknownBenchmarkMessage:
    def test_message_names_offender_and_registry(self):
        exc = UnknownBenchmarkError("999.nope_r", ["505.mcf_r", "557.xz_r"])
        message = str(exc)
        assert message == (
            "unknown benchmark '999.nope_r'; known benchmarks: "
            "505.mcf_r, 557.xz_r"
        )

    def test_attributes_preserved(self):
        exc = UnknownBenchmarkError("x", ("a", "b"))
        assert exc.name == "x"
        assert exc.known == ["a", "b"]

    def test_raised_by_the_registry(self):
        from repro.workloads import get_descriptor

        with pytest.raises(UnknownBenchmarkError) as excinfo:
            get_descriptor("000.missing_s")
        assert "000.missing_s" in str(excinfo.value)


class TestLintError:
    def test_lint_error_is_repro_error(self):
        assert issubclass(LintError, ReproError)

    def test_raised_for_unknown_rule(self):
        from repro.lint import get_rule

        with pytest.raises(LintError) as excinfo:
            get_rule("REP999")
        assert "REP999" in str(excinfo.value)
