"""Trace export/import round-trips."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.pin import Engine, LdStMix
from repro.workloads.trace_io import FORMAT, export_traces, import_traces


class TestRoundTrip:
    def test_bit_exact(self, small_program, tmp_path):
        path = export_traces(small_program, tmp_path / "t.npz", 0, 10)
        traces = import_traces(path)
        assert len(traces) == 10
        for loaded in traces:
            original = small_program.generate_slice(loaded.index)
            assert np.array_equal(loaded.mem_lines, original.mem_lines)
            assert np.array_equal(loaded.mem_is_write, original.mem_is_write)
            assert np.array_equal(loaded.block_counts, original.block_counts)
            assert np.array_equal(loaded.class_counts, original.class_counts)
            assert np.array_equal(loaded.ifetch_lines, original.ifetch_lines)
            assert loaded.instruction_count == original.instruction_count
            assert loaded.branch_count == original.branch_count
            assert loaded.branch_entropy == original.branch_entropy
            assert loaded.phase_id == original.phase_id

    def test_default_exports_everything(self, small_program, tmp_path):
        path = export_traces(small_program, tmp_path / "all.npz")
        assert len(import_traces(path)) == small_program.num_slices

    def test_loaded_traces_drive_tools(self, small_program, tmp_path):
        path = export_traces(small_program, tmp_path / "t.npz", 5, 4)
        tool = LdStMix()
        Engine([tool]).run(import_traces(path))
        reference = LdStMix()
        Engine([reference]).run(small_program.iter_slices(5, 4))
        assert np.array_equal(tool.class_counts, reference.class_counts)

    def test_subrange(self, small_program, tmp_path):
        path = export_traces(small_program, tmp_path / "t.npz", 7, 3)
        traces = import_traces(path)
        assert [t.index for t in traces] == [7, 8, 9]

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            import_traces(tmp_path / "missing.npz")

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, format=np.asarray("something-else"))
        with pytest.raises(WorkloadError):
            import_traces(path)

    def test_format_constant(self):
        assert FORMAT.startswith("repro-slice-traces")


class TestImportCost:
    """A bundle is decompressed once, not once per slice."""

    def test_each_array_is_read_once(self, small_program, tmp_path,
                                     monkeypatch):
        path = export_traces(small_program, tmp_path / "t.npz", 0, 30)
        reads = Counter()
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counted(self, key):
            reads[key] += 1
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
        assert len(import_traces(path)) == 30
        assert reads["mem_lines"] == 1
        assert max(reads.values()) == 1

    def test_traces_share_one_mem_lines_array(self, small_program, tmp_path):
        path = export_traces(small_program, tmp_path / "t.npz", 0, 30)
        bases = {id(t.mem_lines.base) for t in import_traces(path)}
        assert len(bases) == 1 and id(None) not in bases

    @pytest.mark.parametrize("start,count", [(5, 0), (60, None)])
    def test_empty_export_rejected(self, small_program, tmp_path, start,
                                   count):
        path = tmp_path / "empty.npz"
        with pytest.raises(WorkloadError, match="no slices"):
            export_traces(small_program, path, start, count)
        assert not path.exists()
