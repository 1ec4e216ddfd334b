"""Trace export/import: compact on-disk slice traces.

Pin users exchange traces between tools; the synthetic equivalent is an
``.npz`` bundle holding a contiguous range of slice traces.  Exported
traces can be re-loaded without the generating program (e.g. to feed an
external cache simulator) and round-trip bit-exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import numpy as np

from repro.errors import WorkloadError
from repro.isa.trace import SliceTrace
from repro.workloads.program import SyntheticProgram

#: Format marker stored inside every trace file.
FORMAT = "repro-slice-traces-v1"


def export_traces(
    program: SyntheticProgram, path, start: int = 0, count: int = None
) -> Path:
    """Write a slice range to ``path`` as a compressed ``.npz``.

    Args:
        program: The generating program.
        path: Output file path.
        start: First slice to export.
        count: Slices to export (defaults to the rest of the execution).

    Returns:
        The written path.

    Raises:
        WorkloadError: If the range is out of bounds or holds no slice.
    """
    if count is None:
        count = program.num_slices - start
    traces = list(program.iter_slices(start, count))
    if not traces:
        raise WorkloadError(f"no slices to export at slice {start}")

    mem_lengths = np.asarray([t.mem_lines.size for t in traces])
    ifetch_lengths = np.asarray([t.ifetch_lines.size for t in traces])
    payload = {
        "format": np.asarray(FORMAT),
        "name": np.asarray(program.name),
        "num_blocks": np.asarray(program.num_blocks),
        "indices": np.asarray([t.index for t in traces]),
        "phase_ids": np.asarray([t.phase_id for t in traces]),
        "instruction_counts": np.asarray(
            [t.instruction_count for t in traces]
        ),
        "block_counts": np.vstack([t.block_counts for t in traces]),
        "class_counts": np.vstack([t.class_counts for t in traces]),
        "mem_lengths": mem_lengths,
        "mem_lines": np.concatenate([t.mem_lines for t in traces])
        if mem_lengths.sum() else np.empty(0, np.int64),
        "mem_is_write": np.concatenate([t.mem_is_write for t in traces])
        if mem_lengths.sum() else np.empty(0, bool),
        "ifetch_lengths": ifetch_lengths,
        "ifetch_lines": np.concatenate([t.ifetch_lines for t in traces]),
        "branch_counts": np.asarray([t.branch_count for t in traces]),
        "branch_entropies": np.asarray(
            [t.branch_entropy for t in traces]
        ),
    }
    path = Path(path)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **payload)
    return path


def import_traces(path) -> List[SliceTrace]:
    """Load traces written by :func:`export_traces`.

    Every array is decompressed once, and each trace's arrays are views
    into the bundle's arrays.

    Raises:
        WorkloadError: On a missing file or format mismatch.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError) as exc:
        raise WorkloadError(f"cannot read traces from {path}: {exc}") from exc
    if str(arrays.get("format", "")) != FORMAT:
        raise WorkloadError(f"{path} is not a {FORMAT} file")

    traces: List[SliceTrace] = []
    mem_offsets = np.concatenate([[0], np.cumsum(arrays["mem_lengths"])])
    ifetch_offsets = np.concatenate(
        [[0], np.cumsum(arrays["ifetch_lengths"])]
    )
    for row in range(arrays["indices"].size):
        mem_lo, mem_hi = mem_offsets[row], mem_offsets[row + 1]
        if_lo, if_hi = ifetch_offsets[row], ifetch_offsets[row + 1]
        traces.append(
            SliceTrace(
                index=int(arrays["indices"][row]),
                phase_id=int(arrays["phase_ids"][row]),
                instruction_count=int(arrays["instruction_counts"][row]),
                block_counts=arrays["block_counts"][row],
                class_counts=arrays["class_counts"][row],
                mem_lines=arrays["mem_lines"][mem_lo:mem_hi],
                mem_is_write=arrays["mem_is_write"][mem_lo:mem_hi],
                ifetch_lines=arrays["ifetch_lines"][if_lo:if_hi],
                branch_count=int(arrays["branch_counts"][row]),
                branch_entropy=float(arrays["branch_entropies"][row]),
            )
        )
    return traces
