"""Per-layer timing from outside the program.

The traced run wraps public functions of the program from this file --
nothing under ``src/`` changes.  Every wrapped call is a span on one
stack; a layer's self time is its spans' durations minus the part their
child spans cover, so the self times of all layers never add up to more
than the timed wall time, and what no layer covers is reported as
``bench.unattributed_s``.  Glue between public calls (``measure_benchmark``,
``run_pinpoints``, the benchmark's own loops) is deliberately not a layer.

Only the thread that built the tracer is traced: the service client's
cold-job thread and the server's helper threads run untraced, so spans
never interleave on the stack.  The campaign server and the job
processes it forks are traced through ``serve.py``; each forked process
starts from a reset tracer and writes its own totals when it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer) for every timed layer; a layer that a
#: workload never calls reads zero, which is how the traced run shows the
#: bypass cases (no clustering or direct-mapped replay on sniper-regional).
TIMED_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.spec2017", "build_program", "workloads.build"),
    ("repro.workloads.program", "SyntheticProgram.generate_slice",
     "workloads.slicegen"),
    ("repro.pinpoints.pipeline", "collect_features", "pin.bbv"),
    ("repro.pinpoints.pipeline", "run_sampler", "sampling.select"),
    ("repro.simpoint.simpoints", "project", "clustering.project"),
    ("repro.simpoint.simpoints", "choose_k", "clustering.choose_k"),
    ("repro.pinball.logger", "PinPlayLogger.log_regions", "pinball.regions"),
    ("repro.experiments.common", "measure_whole", "cache.dm_replay"),
    ("repro.experiments.common", "measure_points", "cache.dm_replay"),
    ("repro.cache.hierarchy", "CacheHierarchy.access_data", "cache.assoc"),
    ("repro.cache.hierarchy", "CacheHierarchy.access_ifetch", "cache.assoc"),
    ("repro.sniper.core", "SniperSimulator.run_region", "sniper.model"),
    ("repro.parallel.store", "ArtifactStore.put_json", "parallel.store_put"),
    ("repro.parallel.store", "ArtifactStore.put_pickle", "parallel.store_put"),
    ("repro.parallel.store", "ArtifactStore.get_json", "parallel.store_get"),
    ("repro.parallel.store", "ArtifactStore.get_pickle", "parallel.store_get"),
    ("repro.parallel.store", "ArtifactStore.has", "parallel.store_get"),
)

#: The campaign client's frame coding, in the service round's process.
CLIENT_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.campaign.protocol", "encode_frame", "campaign.client_protocol"),
    ("repro.campaign.protocol", "decode_frame", "campaign.client_protocol"),
)

#: The campaign server's request path.  ``repro.campaign.server`` binds
#: the frame codec by name, so those names are wrapped in that module.
SERVER_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.campaign.server", "decode_frame", "campaign.protocol"),
    ("repro.campaign.server", "encode_frame", "campaign.protocol"),
    ("repro.campaign.server", "CampaignServer.submit", "campaign.submit"),
    ("repro.campaign.server", "CampaignServer.stored_result",
     "campaign.result"),
    ("repro.campaign.ledger", "ServerLedger.record_submit", "campaign.ledger"),
    ("repro.campaign.ledger", "ServerLedger.record_state", "campaign.ledger"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, _, layer in TIMED_LAYERS + CLIENT_LAYERS + SERVER_LAYERS))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Attribute replacements that can be undone (tests reuse processes)."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, module: str, path: str,
                make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerTracer:
    """A span stack over wrapped calls, accumulating self time per layer."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget everything and trace the calling thread from now on."""
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self.thread = threading.get_ident()

    def enter(self, layer: str) -> None:
        self._stack.append([layer, 0, self.clock()])

    def exit(self) -> None:
        layer, child_ns, start = self._stack.pop()
        duration = self.clock() - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def self_seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def dump(self, path) -> None:
        """Write the totals as JSON (read back by :func:`load_dumps`)."""
        Path(path).write_text(json.dumps({
            "layers_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "layer_calls": dict(self.calls),
            "layer_counts": dict(self.counts),
        }), encoding="utf-8")


def load_dumps(paths) -> dict:
    """Sum the totals of several :meth:`LayerTracer.dump` files."""
    merged = {"layers_s": defaultdict(float), "layer_calls": defaultdict(float),
              "layer_counts": defaultdict(float)}
    for path in paths:
        dumped = json.loads(Path(path).read_text(encoding="utf-8"))
        for section, totals in merged.items():
            for name, value in dumped[section].items():
                totals[name] += value
    return {section: dict(totals) for section, totals in merged.items()}


def _count_refs(tracer: LayerTracer, args, _result) -> None:
    tracer.counts["cache.assoc_refs"] += len(args[1])


def _count_put_bytes(tracer: LayerTracer, _args, path) -> None:
    tracer.counts["parallel.store_put_bytes"] += path.stat().st_size


def install_layers(tracer: LayerTracer, patches: Patches,
                   extra: Tuple[Tuple[str, str, str], ...] = ()) -> None:
    """Wrap every function in :data:`TIMED_LAYERS` and ``extra`` with a span."""
    hooks = {
        "cache.assoc": _count_refs,
        "parallel.store_put": _count_put_bytes,
    }
    for module, path, layer in TIMED_LAYERS + extra:
        patches.replace(
            module, path,
            lambda fn, layer=layer: tracer.wrap(layer, fn, hooks.get(layer)),
        )

    def count_dm_refs(submit):
        @functools.wraps(submit)
        def counted(hierarchy, trace):
            tracer.counts["cache.dm_refs"] += (
                trace.ifetch_lines.size + trace.mem_lines.size
            )
            return submit(hierarchy, trace)

        return counted

    patches.replace("repro.cache.fused", "FusedHierarchy.submit_slice",
                    count_dm_refs)


class SliceMeter:
    """Counts the instructions of every slice a pintool or Sniper sees.

    A count, not a timer: untraced runs use it too, because the
    simulated-instruction throughput needs it.  It forwards each slice
    unchanged.
    """

    def __init__(self, patches: Patches) -> None:
        self.instructions = 0
        self._patches = patches

    def count(self, traces):
        for trace in traces:
            self.instructions += trace.instruction_count
            yield trace

    def install_engine(self) -> None:
        """Count every slice that passes through ``Engine.run``."""
        def metered(run):
            @functools.wraps(run)
            def counted(engine, slices, warmup=()):
                return run(engine, self.count(slices), warmup=self.count(warmup))

            return counted

        self._patches.replace("repro.pin.engine", "Engine.run", metered)
