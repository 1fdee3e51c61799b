"""Unit tests for trace file formats."""

import json
import struct

import pytest

from repro.common.errors import TraceError
from repro.trace.io import last_read_report, read_trace, write_trace
from repro.trace.record import TraceRecord, make_branch, make_load, make_store
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass


@pytest.fixture
def sample_trace():
    records = [
        make_load(0x1000, dest=8, addr_srcs=(1,), ea=0x9000),
        TraceRecord(0x1004, OpClass.INT_ALU, dest=9, srcs=(8,)),
        make_store(0x1008, srcs=(1, 9), ea=0x9008),
        make_branch(0x100C, taken=True, target=0x1000),
        TraceRecord(0x1000, OpClass.SPECIAL, privileged=True),
    ]
    return Trace(records, name="sample", cpu=3)


@pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
class TestRoundTrip:
    def test_records_identical(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"trace{suffix}"
        write_trace(sample_trace, path)
        loaded = read_trace(path)
        assert loaded.records == sample_trace.records

    def test_metadata_preserved(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"trace{suffix}"
        write_trace(sample_trace, path)
        loaded = read_trace(path)
        assert loaded.name == "sample"
        assert loaded.cpu == 3

    def test_empty_trace(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"empty{suffix}"
        write_trace(Trace([], name="empty"), path)
        assert len(read_trace(path)) == 0


class TestErrors:
    def test_unknown_suffix(self, tmp_path, sample_trace):
        with pytest.raises(TraceError):
            write_trace(sample_trace, tmp_path / "trace.bin")
        with pytest.raises(TraceError):
            read_trace(tmp_path / "trace.xyz")

    def test_empty_jsonl_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_bad_binary_magic(self, tmp_path):
        path = tmp_path / "x.trc"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_malformed_jsonl_record(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"header": {"name": "x", "cpu": 0, "count": 1}}\n{"nope": 1}\n')
        with pytest.raises(TraceError):
            read_trace(path)


def _big_trace(count=300):
    records = [
        make_load(0x1000 + 4 * i, dest=8, addr_srcs=(1,), ea=0x9000 + 8 * i)
        for i in range(count)
    ]
    return Trace(records, name="framed", cpu=1)


class TestBinaryFraming:
    """SPT2 integrity framing: truncation and corruption must not pass."""

    def test_truncation_names_file_and_offset(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match=rf"{path.name}.*byte \d+"):
            read_trace(path)

    def test_single_bitflip_is_caught_by_crc(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="checksum mismatch"):
            read_trace(path)

    def test_footer_count_flip_is_caught(self, tmp_path):
        # The CRC covers the body, not the footer, so the count field
        # needs its own header/footer cross-check.
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(data) - 8, 7)  # footer count := 7
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="count mismatch"):
            read_trace(path)

    def test_skip_corrupt_salvages_prefix(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(300), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        salvaged = read_trace(path, skip_corrupt=True)
        report = last_read_report()
        assert 0 < len(salvaged) < 300
        assert salvaged.records == _big_trace(300).records[: len(salvaged)]
        assert report.dropped == 300 - len(salvaged)
        assert report.defects and not report.clean

    def test_clean_read_reports_clean(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(50), path)
        read_trace(path)
        report = last_read_report()
        assert report.clean and report.records == 50 and report.dropped == 0


class TestLegacyBinary:
    """SPT1 files (previous release: no footer) must still load."""

    @staticmethod
    def _downgrade(path):
        """Rewrite an SPT2 file as its SPT1 equivalent (strip framing)."""
        data = path.read_bytes()
        assert data[:4] == b"SPT2"
        path.write_bytes(b"SPT1" + data[4:-12])  # footer is magic + <II

    def test_legacy_file_round_trips(self, tmp_path, sample_trace):
        path = tmp_path / "t.trc"
        write_trace(sample_trace, path)
        self._downgrade(path)
        loaded = read_trace(path)
        assert loaded.records == sample_trace.records
        assert last_read_report().clean  # no framing, nothing to verify

    def test_legacy_truncation_still_typed(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        self._downgrade(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)


class TestJsonlFraming:
    def test_removed_line_is_detected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(_big_trace(20), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop last record
        with pytest.raises(TraceError, match="promises 20"):
            read_trace(path)

    def test_edited_line_is_detected_by_crc(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(_big_trace(20), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["ea"] += 8  # a plausible but wrong effective address
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="checksum mismatch"):
            read_trace(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(_big_trace(5), path)
        lines = path.read_text().splitlines()
        lines[2] = '{"pc": 4096, "op"'  # torn mid-line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="line 3"):
            read_trace(path)

    def test_skip_corrupt_drops_and_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(_big_trace(10), path)
        lines = path.read_text().splitlines()
        lines[4] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        salvaged = read_trace(path, skip_corrupt=True)
        report = last_read_report()
        assert len(salvaged) == 9
        assert report.dropped == 1 and not report.clean

    def test_legacy_header_without_crc_loads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(_big_trace(8), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["header"]["crc"]
        del header["header"]["count"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        assert len(read_trace(path)) == 8


class TestBinaryCompactness:
    def test_binary_smaller_than_jsonl(self, tmp_path):
        records = [make_load(0x1000 + 4 * i, dest=8, addr_srcs=(1,), ea=0x9000 + 8 * i)
                   for i in range(500)]
        trace = Trace(records, name="big")
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.trc"
        write_trace(trace, jsonl)
        write_trace(trace, binary)
        assert binary.stat().st_size < jsonl.stat().st_size / 2


class TestBinaryReadScaling:
    """Reading a binary trace is linear in its length."""

    @staticmethod
    def _read_seconds(tmp_path, count):
        import time

        records = [
            TraceRecord(0x1000 + 4 * i, OpClass.INT_ALU, dest=8, srcs=(1, 2))
            for i in range(count)
        ]
        path = tmp_path / f"scale{count}.trc"
        write_trace(Trace(records, name="scale"), path)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            loaded = read_trace(path)
            best = min(best, time.perf_counter() - started)
        assert len(loaded) == count
        return best

    def test_four_times_the_records_reads_in_about_four_times_the_time(self, tmp_path):
        small = 4_000
        base = self._read_seconds(tmp_path, small)
        large = self._read_seconds(tmp_path, 4 * small)
        # Linear reading gives a ratio near 4; re-slicing the file per
        # record made it ~16 at these sizes.
        assert large <= 2.0 * 4 * base, (
            f"{4 * small} records took {large:.3f}s vs {base:.3f}s for {small}"
        )
