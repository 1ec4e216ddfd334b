"""What one round of a workload knows: its inputs, its files, its findings."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from checks import Committed

#: Fresh processes per run.  Each sets itself up and times its share of
#: the work, so every run yields this many set-up samples.
ROUNDS = 3

#: Longest a store preparation may take before the round fails.
PREPARE_TIMEOUT_S = 150


@dataclass
class Round:
    """One fresh process's share of a run.

    Attributes:
        workload: Workload name.
        seed: The run's seed; it only picks inputs.
        seconds: The run's measuring time, split evenly across rounds.
        benchmarks: This round's part of the seeded subset.
        root: Checkout root (holds ``src/`` and ``results/``).
        work: Private directory of this round (store, socket, logs).
        tracer: The round's :class:`~layers.LayerTracer` in a traced
            round (installed once set-up is done), else None.
    """

    workload: str
    seed: int
    seconds: float
    benchmarks: List[str]
    root: Path
    work: Path
    tracer: Optional[object] = None
    committed: Committed = field(init=False)
    #: Workload-specific live state (the service's server and sockets).
    state: Optional[object] = None

    def __post_init__(self) -> None:
        self.committed = Committed(self.root / "results")

    @property
    def store(self) -> Path:
        return self.work / "store"


@dataclass
class Outcome:
    """What a round's timed section measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    ops_ms: List[float] = field(default_factory=list)
    raw_s: float = 0.0
    scaled_s: float = 0.0
    probes_ms: List[float] = field(default_factory=list)
    #: Sums and samples reported beside the gated metrics.
    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def take(self, timer) -> None:
        """Adopt a :class:`~calibrate.ScaledTimer`'s totals and samples."""
        self.raw_s = timer.raw_s
        self.scaled_s = timer.scaled_s
        self.ops_ms = [s * 1e3 for s in timer.ops_s]
        self.probes_ms = list(timer.probes)

    def check(self, problems: List[str]) -> None:
        """Count one operation, failed when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def prepare_store(rnd: Round, result_keys: Sequence[tuple] = ()) -> None:
    """Build the round's pipelines, and the stored result of every
    ``(experiment, benchmarks)`` in ``result_keys``, into its private store,
    from a separate process so this one starts the timed section with
    empty in-process memos."""
    keys_file = rnd.work / "result-keys.json"
    keys_file.write_text(json.dumps([[exp, list(names)]
                                     for exp, names in result_keys]),
                         encoding="utf-8")
    command = [
        sys.executable, str(Path(__file__).with_name("child.py")), "prepare",
        "--store", str(rnd.store),
        "--benchmarks", ",".join(rnd.benchmarks),
        "--result-keys", str(keys_file),
    ]
    subprocess.run(command, cwd=rnd.root, check=True,
                   timeout=PREPARE_TIMEOUT_S)
