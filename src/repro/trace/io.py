"""Trace file formats.

Two interchangeable formats:

- ``jsonl`` — one JSON object per record; human-inspectable, used in
  examples and debugging.
- ``bin`` — a fixed-width packed binary format (struct-based), roughly 6x
  smaller and faster; used when traces are archived between runs.

The format is chosen by file extension (``.jsonl`` / ``.trc``).

**Integrity framing.**  Archived traces feed thousands of simulations,
so a truncated or bit-flipped file must never be silently consumed as a
shorter/different workload.  Binary traces are written as ``SPT2``:
the record region is followed by a footer carrying the record count and
a CRC-32 of everything after the magic.  JSONL headers carry the record
count and a CRC-32 of the record lines.  On read:

- any malformed byte raises :class:`~repro.common.errors.TraceError`
  naming the file and the byte offset (binary) or line number (jsonl) —
  raw ``struct.error`` / ``EOFError`` / ``json.JSONDecodeError`` never
  escape;
- a missing footer or a count/CRC mismatch is reported as truncation or
  corruption, again with the offset where parsing stopped;
- ``skip_corrupt=True`` degrades gracefully instead: readable records
  are kept, damaged ones are dropped *and counted*, and the drop tally
  is logged and exposed via :func:`last_read_report`.

**Backward compatibility.**  Files written by the previous release
(``SPT1`` magic, no footer; jsonl headers without ``crc``) still load:
they get the same typed errors on structural damage, but no checksum
verification — the framing did not exist when they were written.  New
files are always written with framing.  Writes go to a temporary file
renamed into place, so an interrupted write leaves no torn trace behind.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.common import faults
from repro.common.errors import TraceError
from repro.isa.opcodes import OpClass
from repro.trace.record import NO_ADDR, NO_REG, TraceRecord
from repro.trace.stream import Trace

logger = logging.getLogger(__name__)

#: Legacy (unframed) and current (framed) binary magics.
_MAGIC_V1 = b"SPT1"
_MAGIC_V2 = b"SPT2"
#: Footer magic: count + CRC-32 trailer of an SPT2 file.
_FOOTER_MAGIC = b"SPTE"

# pc, op, dest, ea, size, flags(taken|priv), target, nsrcs  -> then srcs
_RECORD_HEAD = struct.Struct("<qBbqBBqB")
_SRC_FMT = struct.Struct("<b")
_HEADER_FMT = struct.Struct("<IHB")
_FOOTER_FMT = struct.Struct("<II")


@dataclass
class TraceReadReport:
    """What the last :func:`read_trace` call saw (observability).

    ``dropped`` is only ever non-zero in ``skip_corrupt`` mode; the
    default mode raises instead of dropping.
    """

    path: str = ""
    records: int = 0
    dropped: int = 0
    #: Human-readable descriptions of tolerated damage.
    defects: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.defects


_last_report = TraceReadReport()


def last_read_report() -> TraceReadReport:
    """Report describing the most recent :func:`read_trace` call."""
    return _last_report


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` in the format implied by its suffix.

    The bytes go to a temporary file in the same directory which is
    atomically renamed into place, so a crash mid-write can never leave
    a half-written trace under the final name.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        writer, mode = _write_jsonl, "w"
    elif path.suffix == ".trc":
        writer, mode = _write_binary, "wb"
    else:
        raise TraceError(f"unknown trace format for {path.name!r} (use .jsonl or .trc)")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        encoding = "utf-8" if mode == "w" else None
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            writer(trace, handle)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Testing hook: deliberately truncate/bit-flip the finished file to
    # model damage in transit or at rest (no-op unless faults installed).
    faults.corrupt_trace_file(path)


def read_trace(path: Union[str, Path], skip_corrupt: bool = False) -> Trace:
    """Read a trace previously written by :func:`write_trace`.

    With ``skip_corrupt=False`` (default) any structural damage raises
    :class:`TraceError` with the file and offset; with ``True``,
    readable records are kept and damage is counted and logged (see
    :func:`last_read_report`).
    """
    global _last_report
    path = Path(path)
    _last_report = TraceReadReport(path=str(path))
    if path.suffix == ".jsonl":
        return _read_jsonl(path, skip_corrupt, _last_report)
    if path.suffix == ".trc":
        return _read_binary(path, skip_corrupt, _last_report)
    raise TraceError(f"unknown trace format for {path.name!r} (use .jsonl or .trc)")


def _tolerate(
    skip_corrupt: bool, report: TraceReadReport, message: str
) -> None:
    """Record tolerated damage, or raise if not in skip mode."""
    if not skip_corrupt:
        raise TraceError(message)
    report.defects.append(message)
    logger.warning("skip_corrupt: %s", message)


# ----------------------------------------------------------------------
# jsonl
# ----------------------------------------------------------------------


def _record_to_dict(record: TraceRecord) -> dict:
    out = {"pc": record.pc, "op": record.op.name}
    if record.dest != NO_REG:
        out["dest"] = record.dest
    if record.srcs:
        out["srcs"] = list(record.srcs)
    if record.ea != NO_ADDR:
        out["ea"] = record.ea
    if record.size:
        out["size"] = record.size
    if record.is_branch:
        out["taken"] = record.taken
        if record.target != NO_ADDR:
            out["target"] = record.target
    if record.privileged:
        out["priv"] = True
    return out


def _record_from_dict(data: dict) -> TraceRecord:
    try:
        op = OpClass[data["op"]]
        return TraceRecord(
            pc=data["pc"],
            op=op,
            dest=data.get("dest", NO_REG),
            srcs=tuple(data.get("srcs", ())),
            ea=data.get("ea", NO_ADDR),
            size=data.get("size", 0),
            taken=data.get("taken", False),
            target=data.get("target", NO_ADDR),
            privileged=data.get("priv", False),
        )
    except (KeyError, TypeError) as exc:
        raise TraceError(f"malformed trace record: {data!r}") from exc


def _write_jsonl(trace: Trace, handle) -> None:
    lines = [json.dumps(_record_to_dict(record)) for record in trace.records]
    crc = zlib.crc32("\n".join(lines).encode("utf-8"))
    header = {
        "name": trace.name,
        "cpu": trace.cpu,
        "count": len(trace),
        "crc": crc,
    }
    handle.write(json.dumps({"header": header}) + "\n")
    for line in lines:
        handle.write(line + "\n")


def _read_jsonl(path: Path, skip_corrupt: bool, report: TraceReadReport) -> Trace:
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise TraceError(f"empty trace file: {path}")
        try:
            header_line = json.loads(first)
        except ValueError as exc:
            raise TraceError(f"{path}: line 1: unparseable header ({exc})") from exc
        if not isinstance(header_line, dict) or "header" not in header_line:
            raise TraceError(f"missing header line in {path}")
        header = header_line["header"]
        trace = Trace(name=header.get("name", path.stem), cpu=header.get("cpu", 0))
        body_lines: List[str] = []
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                record = _record_from_dict(data)
            except (ValueError, TraceError) as exc:
                _tolerate(
                    skip_corrupt,
                    report,
                    f"{path}: line {line_no}: malformed record ({exc})",
                )
                report.dropped += 1
                continue
            body_lines.append(line)
            trace.append(record)
    expected = header.get("count")
    if expected is not None and len(trace) + report.dropped != expected:
        _tolerate(
            skip_corrupt,
            report,
            f"{path}: truncated: header promises {expected} records, "
            f"found {len(trace) + report.dropped}",
        )
        report.dropped += expected - len(trace) - report.dropped
    # CRC only covers exactly the lines the writer emitted; verifying a
    # file we already dropped lines from would double-report the damage.
    expected_crc = header.get("crc")
    if expected_crc is not None and not report.defects:
        actual_crc = zlib.crc32("\n".join(body_lines).encode("utf-8"))
        if actual_crc != expected_crc:
            _tolerate(
                skip_corrupt,
                report,
                f"{path}: checksum mismatch (expected {expected_crc:#010x}, "
                f"got {actual_crc:#010x}): file corrupted",
            )
    report.records = len(trace)
    return trace


# ----------------------------------------------------------------------
# binary
# ----------------------------------------------------------------------


def _write_binary(trace: Trace, handle) -> None:
    name_bytes = trace.name.encode("utf-8")
    body = bytearray()
    body += _HEADER_FMT.pack(len(trace), len(name_bytes), trace.cpu)
    body += name_bytes
    for record in trace.records:
        flags = (1 if record.taken else 0) | (2 if record.privileged else 0)
        body += _RECORD_HEAD.pack(
            record.pc,
            int(record.op),
            record.dest,
            record.ea,
            record.size,
            flags,
            record.target,
            len(record.srcs),
        )
        for src in record.srcs:
            body += _SRC_FMT.pack(src)
    handle.write(_MAGIC_V2)
    handle.write(body)
    handle.write(_FOOTER_MAGIC)
    handle.write(_FOOTER_FMT.pack(len(trace), zlib.crc32(bytes(body))))


def _read_binary(path: Path, skip_corrupt: bool, report: TraceReadReport) -> Trace:
    data = path.read_bytes()
    magic = data[:4]
    if magic == _MAGIC_V1:
        framed = False
    elif magic == _MAGIC_V2:
        framed = True
    else:
        raise TraceError(f"not a binary trace file: {path}")

    body_end = len(data)
    footer_count: Optional[int] = None
    if framed:
        footer_size = len(_FOOTER_MAGIC) + _FOOTER_FMT.size
        if (
            len(data) < 4 + _HEADER_FMT.size + footer_size
            or data[-footer_size : -_FOOTER_FMT.size] != _FOOTER_MAGIC
        ):
            _tolerate(
                skip_corrupt,
                report,
                f"{path}: truncated binary trace: footer missing "
                f"(file ends at byte {len(data)})",
            )
            framed = False  # salvage whatever records parse
        else:
            body_end = len(data) - footer_size
            footer_count, footer_crc = _FOOTER_FMT.unpack_from(
                data, len(data) - _FOOTER_FMT.size
            )
            actual_crc = zlib.crc32(data[4:body_end])
            if actual_crc != footer_crc:
                _tolerate(
                    skip_corrupt,
                    report,
                    f"{path}: checksum mismatch (expected {footer_crc:#010x}, "
                    f"got {actual_crc:#010x}): file corrupted",
                )

    offset = 4
    try:
        count, name_len, cpu = _HEADER_FMT.unpack_from(data, offset)
    except struct.error as exc:
        raise TraceError(
            f"{path}: truncated binary trace: header incomplete at byte {offset}"
        ) from exc
    offset += _HEADER_FMT.size
    if footer_count is not None and footer_count != count:
        # The CRC does not cover the footer itself, so a flip inside the
        # footer's count field is only caught by this cross-check.
        _tolerate(
            skip_corrupt,
            report,
            f"{path}: header/footer record count mismatch ({count} vs "
            f"{footer_count}): file corrupted",
        )
    if offset + name_len > body_end:
        raise TraceError(
            f"{path}: truncated binary trace: name field runs past "
            f"byte {body_end}"
        )
    name = data[offset : offset + name_len].decode("utf-8", errors="replace")
    offset += name_len

    trace = Trace(name=name, cpu=cpu)
    # One zero-copy view of the record area: slicing ``data`` per record
    # would copy the rest of the file each time (quadratic in its size).
    body = memoryview(data)[:body_end]
    for index in range(count):
        record_start = offset
        try:
            pc, op, dest, ea, size, flags, target, nsrcs = _RECORD_HEAD.unpack_from(
                body, offset
            )
            offset += _RECORD_HEAD.size
            srcs = []
            for _ in range(nsrcs):
                (src,) = _SRC_FMT.unpack_from(body, offset)
                offset += _SRC_FMT.size
                srcs.append(src)
            op_class = OpClass(op)
        except struct.error:
            _tolerate(
                skip_corrupt,
                report,
                f"{path}: truncated binary trace: record {index}/{count} "
                f"cut off at byte {record_start}",
            )
            report.dropped += count - index
            break
        except ValueError:
            _tolerate(
                skip_corrupt,
                report,
                f"{path}: corrupt record {index}/{count} at byte "
                f"{record_start}: invalid op class {op}",
            )
            report.dropped += 1
            continue
        trace.append(
            TraceRecord(
                pc=pc,
                op=op_class,
                dest=dest,
                srcs=tuple(srcs),
                ea=ea,
                size=size,
                taken=bool(flags & 1),
                target=target,
                privileged=bool(flags & 2),
            )
        )
    if len(trace) + report.dropped != count:
        _tolerate(
            skip_corrupt,
            report,
            f"{path}: truncated binary trace: header promises {count} "
            f"records, parsed {len(trace)}",
        )
        report.dropped = max(report.dropped, count - len(trace))
    report.records = len(trace)
    return trace
