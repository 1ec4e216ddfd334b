"""The declarative experiment registry and the result serialization protocol.

Contracts under test:

* every registered experiment gets a CLI subparser, and its ``trace``
  twin exposes the same experiment options;
* the result codec round-trips every result type with render fidelity
  (the rendered table from a deserialized result is byte-identical to the
  live one), and every committed ``results/NAME.json`` decodes, renders
  to its ``NAME.txt`` and re-encodes to its own bytes;
* :func:`repro.experiments.registry.execute` serves a stored result
  payload instead of re-running the experiment, with ``jobs`` excluded
  from the cache key, and recomputes a stored payload whose data does not
  fit its result type;
* empty-result aggregates raise :class:`ConfigError` instead of
  ``ZeroDivisionError``;
* every experiment that fans out binds each worker parameter but the
  item, and its ``item`` memo key changes with the item and with every
  bound value.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
from pathlib import Path
from typing import Optional

import pytest

import repro
from repro.cli import _build_parser, main
from repro.config import ALLCACHE_SIM, ALLCACHE_TABLE_I, CacheHierarchyConfig
from repro.errors import ConfigError
from repro.experiments import all_specs, common, execute, get_spec
from repro.experiments.common import configure_cache, get_store, set_store
from repro.experiments.registry import (
    RESULT_SCHEMA,
    result_from_payload,
    result_key_params,
    result_payload,
    write_result,
)
from repro.experiments.serialize import _codec, to_payload
from repro.parallel import artifact_key

from conftest import QUICK

RESULTS = Path(__file__).resolve().parent.parent / "results"

B = "620.omnetpp_s"

#: Cheap runner kwargs per experiment (shared pinpoints cache keeps the
#: repeated 620.omnetpp_s QUICK pipelines nearly free).
QUICK_KWARGS = {
    "table2": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig3a": dict(benchmark="557.xz_r", maxk_values=(13,), **QUICK),
    "fig3b": dict(benchmark=B, slice_sizes_m=(15, 30)),
    "fig4": dict(benchmarks=[B], k_values=(2, 8), jobs=1, **QUICK),
    "fig5": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig6": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig7": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig8": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig9": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig10": dict(benchmarks=[B], jobs=1, **QUICK),
    "fig12": dict(benchmarks=[B], jobs=1, **QUICK),
    "baselines": dict(benchmarks=[B], jobs=1, **QUICK),
    "rate": dict(benchmarks=[B], copy_counts=(1, 2), num_slices=8,
                 jobs=1, **QUICK),
    "turnaround": dict(benchmarks=[B], jobs=1, **QUICK),
    "table2-projected": dict(benchmarks=[B, "628.pop2_s"], jobs=1, **QUICK),
    "sampler-frontier": dict(benchmarks=[B], samplers=("simpoint", "random"),
                             budgets=(2, 4), jobs=1, **QUICK),
}

SPEC_NAMES = [spec.name for spec in all_specs()]


def _subparser(parser: argparse.ArgumentParser, name: str):
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices[name]


def _option_strings(parser: argparse.ArgumentParser) -> set:
    return {
        s for a in parser._actions for s in a.option_strings
        if s not in ("-h", "--help")
    }


class TestRegistry:
    def test_every_experiment_registered_with_renderer(self):
        specs = all_specs()
        assert [s.name for s in specs] == SPEC_NAMES
        for spec in specs:
            assert callable(spec.runner), spec.name
            assert callable(spec.renderer), spec.name
            assert spec.paper_ref, spec.name
            assert isinstance(spec.result_type, type), spec.name

    def test_quick_kwargs_cover_every_experiment(self):
        assert set(QUICK_KWARGS) == set(SPEC_NAMES)

    def test_every_result_type_is_serializable(self):
        # Building a class's codec checks every field hint, nested ones
        # included, so an unsupported hint fails here even where the
        # committed results hold no instance of it.
        for spec in all_specs():
            assert dataclasses.is_dataclass(spec.result_type), spec.name
            _codec(spec.result_type)

    def test_get_spec_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            get_spec("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import experiment

        with pytest.raises(ConfigError, match="already registered"):
            experiment(
                "fig8", result=dict, paper_ref="dup"
            )(lambda: None)

    def test_renderer_for_unregistered_experiment_rejected(self):
        from repro.experiments.registry import renders

        with pytest.raises(ConfigError, match="not\\s+registered"):
            renders("fig99")(lambda r: "")


class TestParserGeneration:
    def test_every_experiment_builds_a_subparser(self):
        parser = _build_parser()
        for name in SPEC_NAMES:
            sub = _subparser(parser, name)
            options = _option_strings(sub)
            assert "--cache-dir" in options, name
            assert "--no-cache" in options, name
            assert "--json-out" in options, name

    def test_suite_experiments_expose_benchmarks_and_jobs(self):
        parser = _build_parser()
        for spec in all_specs():
            options = _option_strings(_subparser(parser, spec.name))
            assert ("--benchmarks" in options) == spec.supports_benchmarks
            assert ("--jobs" in options) == spec.supports_jobs
            assert ("--benchmark" in options) == (
                spec.benchmark_option is not None
            )

    def test_trace_twin_exposes_same_experiment_options(self):
        parser = _build_parser()
        trace = _subparser(parser, "trace")
        trace_only = {"--trace-out", "--events-out", "--summary-out"}
        for name in SPEC_NAMES:
            plain = _option_strings(_subparser(parser, name))
            twin = _option_strings(_subparser(trace, name))
            assert twin - trace_only == plain, name

    def test_one_failure_policy_leaves_nothing_to_choose(self):
        # Every fan-out fails on its first failed item; no option picks
        # another policy, and a plain rerun is how a failed run
        # continues: finished items come back from the store.  Only
        # serve keeps --resume, to re-adopt the jobs in its ledger.
        parser = _build_parser()
        trace = _subparser(parser, "trace")
        serve = _subparser(parser, "serve")
        subparsers = [serve]
        for name in SPEC_NAMES:
            subparsers += [_subparser(parser, name), _subparser(trace, name)]
        gone = {"--retries", "--timeout", "--on-failure", "--inject-faults"}
        for sub in subparsers:
            options = _option_strings(sub)
            assert not options & gone, sub.prog
            assert ("--resume" in options) == (sub is serve), sub.prog


class _FannedOut(Exception):
    """Stops a runner at its fan-out: the key tests need only the unit."""


def _captured_fanout(monkeypatch, name: str):
    """The worker, bound keywords and items ``name``'s runner fans out."""
    captured = []

    def capture(unit, items, jobs=None):
        captured.append((unit, list(items)))
        raise _FannedOut

    monkeypatch.setattr(common, "parallel_map", capture)
    with pytest.raises(_FannedOut):
        get_spec(name).runner(**QUICK_KWARGS[name])
    ((unit, items),) = captured
    assert unit.func is common._run_item
    worker, bound = unit.args
    return worker, bound, items


def _item_key(monkeypatch, worker, bound: dict, item) -> str:
    """The ``item`` memo key of one item; nothing is computed."""
    keys = []

    def record(kind, params, compute, result_type=None):
        keys.append(artifact_key(kind, params, version=repro.__version__))

    with monkeypatch.context() as patch:
        patch.setattr(common, "memo", record)
        common._run_item(worker, bound, item)
    (key,) = keys
    return key


def _changed(value):
    """Another value of the same kind as ``value``."""
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    if isinstance(value, (tuple, list)):
        return type(value)([*value, *value[-1:]] or ["changed"])
    if isinstance(value, dict):
        return {**value, "changed": True}
    if isinstance(value, CacheHierarchyConfig):
        return ALLCACHE_TABLE_I if value == ALLCACHE_SIM else ALLCACHE_SIM
    raise AssertionError(f"no changed value for {value!r}")


FANNED_OUT = [spec.name for spec in all_specs() if spec.supports_jobs]


class TestItemKeys:
    """Changing the item or any one bound value changes its item key."""

    @pytest.mark.parametrize("name", FANNED_OUT)
    def test_worker_binds_every_parameter_but_the_item(
        self, name, monkeypatch
    ):
        worker, bound, _ = _captured_fanout(monkeypatch, name)
        assert "<" not in worker.__qualname__  # a stable, importable name
        parameters = list(inspect.signature(worker).parameters)
        assert set(bound) == set(parameters[1:])

    @pytest.mark.parametrize("name", FANNED_OUT)
    def test_item_key_covers_the_item_and_every_bound_value(
        self, name, monkeypatch
    ):
        worker, bound, items = _captured_fanout(monkeypatch, name)
        item = items[0]
        variants = [(item, bound), (_changed(item), bound)]
        variants += [
            (item, {**bound, keyword: _changed(value)})
            for keyword, value in bound.items()
        ]
        keys = [_item_key(monkeypatch, worker, b, i) for i, b in variants]
        assert len(set(keys)) == len(keys) == 2 + len(bound)

    def test_worker_without_a_stable_name_is_rejected(self):
        def local_worker(item):
            return item

        for worker in (lambda item: item, local_worker):
            with pytest.raises(ConfigError, match="module-level worker"):
                common.map_items(worker, [1, 2], jobs=1)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_payload_round_trip_has_render_fidelity(name):
    spec = get_spec(name)
    result = spec.runner(**QUICK_KWARGS[name])
    envelope = result_payload(spec, result)
    assert envelope["schema"] == RESULT_SCHEMA
    assert envelope["experiment"] == name
    # Through the actual JSON codec, not just dict copies.
    restored = result_from_payload(
        spec, json.loads(json.dumps(envelope))
    )
    assert spec.renderer(restored) == spec.renderer(result)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_committed_result_rerenders_and_rewrites(name, tmp_path, monkeypatch):
    spec = get_spec(name)
    committed = (RESULTS / f"{name}.json").read_bytes()
    envelope = json.loads(committed)
    result = result_from_payload(spec, envelope)
    text = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert spec.renderer(result) + "\n" == text
    # The envelope stamps the installed package's version; pin it to the
    # file's so the byte comparison is about the layout and the data.
    monkeypatch.setattr(repro, "__version__", envelope["version"])
    write_result(tmp_path / f"{name}.json", spec, result)
    assert (tmp_path / f"{name}.json").read_bytes() == committed


@dataclasses.dataclass
class _OptionalField:
    value: Optional[int]


def test_codec_rejects_unsupported_hints():
    with pytest.raises(TypeError, match="does not support"):
        to_payload(_OptionalField(value=1))


class TestEnvelopeValidation:
    def test_wrong_experiment_rejected(self):
        fig10 = get_spec("fig10")
        table2 = get_spec("table2")
        result = fig10.runner(**QUICK_KWARGS["fig10"])
        envelope = result_payload(fig10, result)
        with pytest.raises(ConfigError, match="mismatch"):
            result_from_payload(table2, envelope)

    def test_wrong_schema_rejected(self):
        spec = get_spec("fig10")
        result = spec.runner(**QUICK_KWARGS["fig10"])
        envelope = result_payload(spec, result)
        envelope["schema"] = "repro-result-v0"
        with pytest.raises(ConfigError, match="schema mismatch"):
            result_from_payload(spec, envelope)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            result_from_payload(get_spec("fig10"), [1, 2, 3])


def _boom(**kwargs):
    raise AssertionError("runner must not re-run on a result-cache hit")


class TestExecuteCaching:
    def test_result_cache_hit_end_to_end(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = get_spec("fig10")
            kwargs = QUICK_KWARGS["fig10"]
            first = execute(spec, kwargs)
            assert "result" in get_store().info().render()
            poisoned = dataclasses.replace(spec, runner=_boom)
            second = execute(poisoned, kwargs)
            assert spec.renderer(second) == spec.renderer(first)
        finally:
            set_store(previous)

    def test_jobs_excluded_from_cache_key(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = get_spec("fig10")
            first = execute(spec, QUICK_KWARGS["fig10"])
            poisoned = dataclasses.replace(spec, runner=_boom)
            rekeyed = dict(QUICK_KWARGS["fig10"], jobs=4)
            second = execute(poisoned, rekeyed)
            assert spec.renderer(second) == spec.renderer(first)
        finally:
            set_store(previous)

    def test_without_store_runner_always_runs(self):
        assert get_store() is None
        spec = get_spec("fig10")
        calls = []

        def counting(**kwargs):
            calls.append(kwargs)
            return spec.runner(**kwargs)

        counted = dataclasses.replace(spec, runner=counting)
        execute(counted, QUICK_KWARGS["fig10"])
        execute(counted, QUICK_KWARGS["fig10"])
        assert len(calls) == 2

    def test_corrupt_stored_payload_falls_back_to_runner(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = get_spec("fig10")
            kwargs = QUICK_KWARGS["fig10"]
            first = execute(spec, kwargs)
            params = result_key_params(spec.name, kwargs)
            get_store().put_json("result", params, {"schema": "garbage"})
            second = execute(spec, kwargs)
            assert spec.renderer(second) == spec.renderer(first)
            # The self-healed artifact serves the next hit again.
            third = execute(
                dataclasses.replace(spec, runner=_boom), kwargs
            )
            assert spec.renderer(third) == spec.renderer(first)
        finally:
            set_store(previous)

    @pytest.mark.parametrize("mangle", [
        lambda data: data["rows"][0].update(mix_error_pp=[1.0, 2.0]),
        lambda data: data["rows"][0].update(budget="3"),
        lambda data: data["rows"][0].pop("l3_error_pp"),
        lambda data: data["rows"].__setitem__(0, ["row"]),
        lambda data: data.update(rows={"row": 1}),
    ], ids=["dict-as-list", "int-as-str", "missing-field", "row-as-list",
            "rows-as-dict"])
    def test_malformed_stored_data_falls_back_to_runner(
        self, tmp_path, mangle
    ):
        # A stored envelope with the right schema, experiment and type but
        # data that does not fit the result dataclass is recomputed and
        # overwritten, not a crash.
        spec = get_spec("baselines")
        good = json.loads((RESULTS / "baselines.json").read_text())
        calls = []

        def runner(**kwargs):
            calls.append(kwargs)
            return result_from_payload(spec, good)

        bad = copy.deepcopy(good)
        mangle(bad["data"])
        previous = configure_cache(tmp_path / "store")
        try:
            params = result_key_params(spec.name, {})
            get_store().put_json("result", params, bad)
            first = execute(dataclasses.replace(spec, runner=runner), {})
            assert len(calls) == 1
            assert get_store().get_json("result", params)["data"] == (
                good["data"]
            )
            second = execute(dataclasses.replace(spec, runner=_boom), {})
            assert spec.renderer(second) == spec.renderer(first)
        finally:
            set_store(previous)


class TestEmptyResultGuards:
    def test_aggregates_raise_config_error(self):
        from repro.experiments.baselines import BaselineResult
        from repro.experiments.fig5 import Fig5Result
        from repro.experiments.fig7 import Fig7Result
        from repro.experiments.fig8 import Fig8Result
        from repro.experiments.fig12 import Fig12Result
        from repro.experiments.future_suite import FutureSuiteResult
        from repro.experiments.table2 import Table2Result
        from repro.experiments.turnaround import TurnaroundResult

        probes = [
            lambda: Table2Result(rows=[]).average_points,
            lambda: Fig5Result(rows=[]).instruction_reduction,
            lambda: Fig7Result(rows=[]).average_whole_mix,
            lambda: Fig8Result(rows=[]).average_delta_pp("regional", "L3"),
            lambda: Fig12Result(rows=[]).average_regional_error_pct,
            lambda: BaselineResult(rows=[]).average_mix_error("simpoint"),
            lambda: TurnaroundResult(rows=[]).average_hours("fsa"),
            lambda: FutureSuiteResult(rows=[]).average_points,
        ]
        for probe in probes:
            with pytest.raises(ConfigError, match="no rows"):
                probe()

    def test_fig9_rejects_empty_benchmark_list(self):
        from repro.experiments.fig9 import run_fig9

        with pytest.raises(ConfigError, match="at least one benchmark"):
            run_fig9(benchmarks=[], **QUICK)


class TestCliJsonExport:
    def test_json_out_writes_valid_envelope(self, tmp_path, capsys):
        out = tmp_path / "fig10.json"
        assert main(["fig10", "--benchmarks", B, "--jobs", "1",
                     "--json-out", str(out)]) == 0
        rendered = capsys.readouterr().out
        envelope = json.loads(out.read_text())
        assert envelope["schema"] == RESULT_SCHEMA
        assert envelope["experiment"] == "fig10"
        spec = get_spec("fig10")
        restored = result_from_payload(spec, envelope)
        assert spec.renderer(restored) + "\n" == rendered

    def test_report_writes_text_and_json_siblings(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path / "out"),
                     "--experiments", "turnaround", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "turnaround.txt" in out and "turnaround.json" in out
        text = (tmp_path / "out" / "turnaround.txt").read_text()
        assert "campaign turnaround" in text
        envelope = json.loads(
            (tmp_path / "out" / "turnaround.json").read_text()
        )
        spec = get_spec("turnaround")
        restored = result_from_payload(spec, envelope)
        assert spec.renderer(restored) + "\n" == text

    def test_report_rejects_unknown_experiment(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path),
                     "--experiments", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err
