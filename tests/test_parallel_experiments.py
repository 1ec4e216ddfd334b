"""Parallel fan-out and the disk tier never change experiment output.

The contract under test: for every driver that takes ``jobs``, the
rendered table from a parallel run is byte-identical to the serial
run's, and a warm-from-disk run is byte-identical to a cold one.  Each
comparison empties the in-process memo before its second run, so the
second run recomputes its fan-out items instead of answering from the
first run's (pool workers fork from this process and inherit it).
"""

from __future__ import annotations

import shutil

import pytest

from repro.cli import main
from repro.experiments import common
from repro.experiments.baselines import render_baselines, run_baselines
from repro.experiments.common import clear_pinpoints_cache, configure_cache
from repro.experiments.fig4 import render_fig4, run_fig4
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.fig7 import render_fig7, run_fig7
from repro.experiments.fig8 import render_fig8, run_fig8
from repro.experiments.fig9 import render_fig9, run_fig9
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.experiments.fig12 import render_fig12, run_fig12
from repro.experiments.frontier import render_frontier, run_frontier
from repro.experiments.future_suite import (
    render_future_suite,
    run_future_suite,
)
from repro.experiments.rate_scaling import (
    render_rate_scaling,
    run_rate_scaling,
)
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.turnaround import render_turnaround, run_turnaround
from repro.telemetry.recorder import TraceRecorder, using_recorder

from conftest import QUICK

BENCHMARKS = ["620.omnetpp_s", "557.xz_r"]

#: Fan-out items computed, and items read back from the store.
ITEM_MISS = "memtier.miss{kind=item}"
ITEM_STORE_HIT = "store.hit{kind=item}"

#: (runner, renderer) for every driver exposing the ``jobs`` axis.
DRIVERS = [
    (run_table2, render_table2),
    (run_fig4, render_fig4),
    (run_fig5, render_fig5),
    (run_fig6, render_fig6),
    (run_fig7, render_fig7),
    (run_fig8, render_fig8),
    (run_fig9, render_fig9),
    (run_fig10, render_fig10),
    (run_fig12, render_fig12),
    (run_baselines, render_baselines),
    (run_rate_scaling, render_rate_scaling),
    (run_turnaround, render_turnaround),
    (run_future_suite, render_future_suite),
    (run_frontier, render_frontier),
]


@pytest.mark.parametrize(
    "runner,renderer", DRIVERS, ids=[r[0].__name__ for r in DRIVERS]
)
def test_parallel_output_is_byte_identical(runner, renderer):
    clear_pinpoints_cache()
    serial = renderer(runner(BENCHMARKS, jobs=1, **QUICK))
    common._MEMO.clear()
    rec = TraceRecorder()
    with using_recorder(rec):
        parallel = renderer(runner(BENCHMARKS, jobs=4, **QUICK))
    # Every item ran in a pool worker, not answered from the serial run.
    assert rec.metrics.counters[ITEM_MISS] == len(BENCHMARKS)
    assert parallel == serial


def test_warm_disk_run_is_byte_identical(tmp_path):
    configure_cache(tmp_path / "store")
    clear_pinpoints_cache()
    cold = render_fig8(run_fig8(BENCHMARKS, jobs=1, **QUICK))
    store = common.get_store()
    assert store.info().artifacts.get("item", 0) > 0

    # A fresh process on a warm disk without the items: every item is
    # rebuilt from the stored pipelines and replay metrics (an injected
    # store fault may spoil a few of those, which then recompute).
    shutil.rmtree(store.root / "objects" / "item")
    common._MEMO.clear()
    rec = TraceRecorder()
    with using_recorder(rec):
        warm = render_fig8(run_fig8(BENCHMARKS, jobs=1, **QUICK))
    counters = rec.metrics.counters
    assert counters[ITEM_MISS] == len(BENCHMARKS)
    assert counters["store.hit{kind=pinpoints}"] > 0
    assert counters["store.hit{kind=metrics}"] > 0
    assert warm == cold

    # Again, with the items the warm run stored: they answer first.
    common._MEMO.clear()
    rec = TraceRecorder()
    with using_recorder(rec):
        from_items = render_fig8(run_fig8(BENCHMARKS, jobs=1, **QUICK))
    assert rec.metrics.counters[ITEM_STORE_HIT] > 0
    assert from_items == cold


def test_parallel_cold_run_with_shared_store(tmp_path):
    configure_cache(tmp_path / "store")
    clear_pinpoints_cache()
    serial = render_fig7(run_fig7(BENCHMARKS, jobs=1, **QUICK))
    clear_pinpoints_cache()
    parallel = render_fig7(run_fig7(BENCHMARKS, jobs=2, **QUICK))
    assert parallel == serial


class TestCli:
    def test_jobs_flag_output_matches_serial(self, tmp_path, capsys):
        args = ["fig10", "--benchmarks", "620.omnetpp_s"]
        assert main(args + ["--jobs", "1",
                            "--cache-dir", str(tmp_path / "serial")]) == 0
        serial = capsys.readouterr().out
        common._MEMO.clear()
        assert main(args + ["--jobs", "2",
                            "--cache-dir", str(tmp_path / "parallel")]) == 0
        assert capsys.readouterr().out == serial

    def test_no_cache_flag_disables_disk_tier(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["fig10", "--benchmarks", "620.omnetpp_s", "--jobs", "1",
                     "--cache-dir", str(store_dir), "--no-cache"]) == 0
        capsys.readouterr()
        assert not store_dir.exists()

    def test_cache_info_and_clear(self, tmp_path, capsys, empty_memo):
        # An earlier test's fig10 item in this process's memo would
        # answer first and store only itself: start from an empty memo.
        store_dir = str(tmp_path / "store")
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        assert "not created yet" in capsys.readouterr().out
        assert main(["fig10", "--benchmarks", "620.omnetpp_s", "--jobs", "1",
                     "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        info = capsys.readouterr().out
        assert "metrics" in info and "pinpoints" in info
        assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        assert "artifacts: 0" in capsys.readouterr().out

    def test_cache_clear_refuses_foreign_directory(self, tmp_path, capsys):
        foreign = tmp_path / "not-a-store"
        foreign.mkdir()
        (foreign / "keep.txt").write_text("data")
        assert main(["cache", "clear", "--cache-dir", str(foreign)]) == 2
        assert "refusing" in capsys.readouterr().err
        assert (foreign / "keep.txt").exists()

    def test_default_store_honors_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        assert main(["cache", "info"]) == 0
        assert str(tmp_path / "env-store") in capsys.readouterr().out
