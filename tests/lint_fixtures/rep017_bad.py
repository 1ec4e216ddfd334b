"""REP017 fixtures: failure paths swallowed around dispatch/journal."""

from repro.experiments.common import map_benchmarks
from repro.parallel import parallel_map


def run_quietly(worker, items):
    try:
        return parallel_map(worker, items)
    except RuntimeError:
        return []


def measure_quietly(names):
    try:
        return map_benchmarks(names, jobs=2)
    except RuntimeError:
        return []


def journal_quietly(journal, record):
    try:
        journal.append(record)
    except OSError:
        pass


def harvest(futures):
    out = []
    for future in futures:
        try:
            out.append(future.result())
        except Exception as exc:
            out.append(None)
    return out
