"""Command-line interface."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "623.xalancbmk_s" in out
        assert "503.bwaves_r" in out

    def test_experiment_with_subset(self, capsys):
        assert main(["fig6", "--benchmarks", "620.omnetpp_s"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "620.omnetpp_s" in out

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["fig6", "--benchmarks", "999.bogus"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_turnaround_with_subset(self, capsys):
        assert main(["turnaround", "--benchmarks", "620.omnetpp_s"]) == 0
        out = capsys.readouterr().out
        assert "detailed full" in out
        assert "FSA" in out

    def test_rate_with_subset(self, capsys):
        assert main(["rate", "--benchmarks", "620.omnetpp_s"]) == 0
        out = capsys.readouterr().out
        assert "SPECrate" in out
        assert "throughput" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro-spec2017 {repro.__version__}"

    def test_version_matches_package_metadata(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_version_is_written_once(self):
        """pyproject.toml takes the version from ``repro.__version__``, so
        an installed copy and a source tree stamp the same one on every
        result envelope."""
        root = Path(__file__).resolve().parents[1]
        tables = pyproject_tables(root / "pyproject.toml")
        assert 'dynamic = ["version"]' in tables["project"]
        assert not [
            line for line in tables["project"] if line.startswith("version")
        ]
        assert tables["tool.setuptools.dynamic"] == [
            'version = { attr = "repro.__version__" }'
        ]
        for path in sorted((root / "results").glob("*.json")):
            envelope = json.loads(path.read_text(encoding="utf-8"))
            assert envelope["version"] == repro.__version__, path.name


def pyproject_tables(path):
    """Each table's non-blank, non-comment lines, by table name.

    Line-based rather than :mod:`tomllib`, which Python 3.9 and 3.10 lack.
    """
    tables, name = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("[") and not line.startswith("[["):
            name = line.strip("[]")
            tables[name] = []
        elif line and not line.startswith("#") and name is not None:
            tables[name].append(line)
    return tables


@pytest.mark.slow
class TestTraceCli:
    ARGS = ["trace", "fig10", "--benchmarks", "620.omnetpp_s", "557.xz_r",
            "--jobs", "2"]

    def test_trace_writes_all_three_exports(self, tmp_path, capsys):
        from repro.experiments.common import clear_pinpoints_cache

        clear_pinpoints_cache()  # cold memory tier: workers run pipelines
        trace_path = tmp_path / "run.trace.json"
        events_path = tmp_path / "run.events.jsonl"
        summary_path = tmp_path / "run.summary.json"
        assert main(self.ARGS + [
            "--trace-out", str(trace_path),
            "--events-out", str(events_path),
            "--summary-out", str(summary_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out

        trace = json.loads(trace_path.read_text())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        # Spans from the pipeline, store, and cache layers, per-worker.
        for prefix in ("pinpoints.", "store.", "cache."):
            assert any(n.startswith(prefix) for n in names), prefix
        assert any(e["tid"] > 0 for e in complete)
        threads = {e["args"]["name"] for e in trace["traceEvents"]
                   if e["ph"] == "M"}
        assert {"main", "worker-1", "worker-2"} <= threads

        first = json.loads(events_path.read_text().splitlines()[0])
        assert first["type"] == "span"
        summary = json.loads(summary_path.read_text())
        assert summary["schema"] == "repro-trace-summary-v1"
        assert summary["counters"]["parallel.tasks"] == 2

    #: Single-benchmark serial variant for the cheaper checks.
    QUICK_ARGS = ["trace", "fig10", "--benchmarks", "620.omnetpp_s",
                  "--jobs", "1"]

    def test_trace_view_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(self.QUICK_ARGS + ["--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "view", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        # cache.replay always runs (RunMetrics are store-keyed, but this
        # process's memory tier starts cold for metrics of this run).
        assert "cache.replay" in out
        assert "measure.benchmark" in out

    def test_trace_view_missing_file(self, tmp_path, capsys):
        assert main(["trace", "view", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    def test_trace_rejects_unknown_benchmark(self, capsys):
        assert main(["trace", "fig10", "--benchmarks", "999.bogus"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_trace_leaves_no_recorder_installed(self, tmp_path):
        from repro.telemetry import get_recorder

        assert main(self.QUICK_ARGS + ["--trace-out",
                                       str(tmp_path / "t.json")]) == 0
        assert get_recorder() is None
