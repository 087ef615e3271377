"""Time-tag stream wire formats.

Binary format (versioned, little-endian):

    header  : 16 bytes = magic ``b"HSIMTAGS"`` + uint32 version (1) + uint32 zero
    records : 12 bytes each = uint8 channel, 3 zero bytes, uint64 timestamp_ps

Records are stored in global time order (ties broken by channel id).  The
CSV alternative is lossless: a ``channel,timestamp_ps`` header followed by
one ``<name>,<timestamp_ps>`` row per record with the channel spelled by
name.  The reader skips empty lines and allows whitespace around the
timestamp, which is a signed decimal integer that fits 64 bits.

Readers reject a file in which a channel's timestamps decrease.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import FormatError
from .event_sim import CHANNEL_NAMES, Channel, TagStream

MAGIC = b"HSIMTAGS"
VERSION = 1
HEADER_SIZE = 16

RECORD_DTYPE = np.dtype(
    [("channel", "<u1"), ("reserved", "<u1", (3,)), ("timestamp", "<u8")]
)
assert RECORD_DTYPE.itemsize == 12

CSV_HEADER = "channel,timestamp_ps"
#: Records formatted per ``write`` call by the CSV writer.
_CSV_CHUNK = 1 << 14
_CSV_NAMES = [CHANNEL_NAMES[ch] for ch in sorted(Channel)]  # indexed by channel id
# 16 characters hold every channel name, so a longer name stays unknown
_CSV_ROW = np.dtype([("name", "U16"), ("timestamp", "<i8")])
# The row grammar np.loadtxt applies with _CSV_ROW, for naming a bad row;
# re compiles it on first use, on the error path only.
_CSV_RECORD = rf"(?:{'|'.join(map(re.escape, _CSV_NAMES))}),\s*[+-]?[0-9]+\s*"


def _merged_records(stream: TagStream) -> np.ndarray:
    times = []
    codes = []
    for ch in Channel:
        arr = stream.channels.get(ch)
        if arr is None or arr.size == 0:
            continue
        times.append(np.asarray(arr, dtype=np.int64))
        codes.append(np.full(arr.size, int(ch), dtype=np.uint8))
    if not times:
        return np.empty(0, dtype=RECORD_DTYPE)
    t = np.concatenate(times)
    c = np.concatenate(codes)
    order = np.lexsort((c, t))
    records = np.zeros(t.size, dtype=RECORD_DTYPE)
    records["channel"] = c[order]
    records["timestamp"] = t[order].astype(np.uint64)
    return records


def _stream_from(path, codes: np.ndarray, times: np.ndarray, duration: int | None) -> TagStream:
    unknown = set(np.unique(codes).tolist()) - {int(ch) for ch in Channel}
    if unknown:
        raise FormatError(f"{path}: unknown channel ids {sorted(unknown)}")
    channels = {}
    for ch in Channel:
        sel = times[codes == int(ch)]
        if np.any(sel[1:] < sel[:-1]):
            raise FormatError(f"{path}: {CHANNEL_NAMES[ch]} timestamps are not in time order")
        channels[ch] = sel
    if duration is None:
        duration = int(times.max()) + 1 if times.size else 0
    return TagStream(channels=channels, duration=int(duration))


def write_binary(stream: TagStream, path) -> None:
    records = _merged_records(stream)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint32(0).tobytes())
        fh.write(records.tobytes())


def read_binary(path, duration: int | None = None) -> TagStream:
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:8] != MAGIC:
            raise FormatError(f"{path}: not a time-tag file (bad magic)")
        version = int(np.frombuffer(header[8:12], dtype="<u4")[0])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        payload = fh.read()
    if len(payload) % RECORD_DTYPE.itemsize:
        raise FormatError(f"{path}: truncated record payload")
    records = np.frombuffer(payload, dtype=RECORD_DTYPE)
    return _stream_from(path, records["channel"], records["timestamp"].astype(np.int64), duration)


def write_csv(stream: TagStream, path) -> None:
    records = _merged_records(stream)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, records.size, _CSV_CHUNK):
            chunk = records[lo : lo + _CSV_CHUNK]
            names = map(_CSV_NAMES.__getitem__, chunk["channel"].tolist())
            fh.write("".join(map("{},{}\n".format, names, chunk["timestamp"].tolist())))


def _csv_row_ok(line: str) -> bool:
    if not re.fullmatch(_CSV_RECORD, line):
        return False
    return -(2**63) <= int(line.split(",")[1]) < 2**63


def _contains_nul(path) -> bool:
    with open(path, "rb") as fh:
        return any(b"\0" in block for block in iter(lambda: fh.read(1 << 20), b""))


def _bad_row_error(path, cause) -> FormatError:
    """FormatError naming the first row of the file that breaks the CSV grammar."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line and not _csv_row_ok(line):
                return FormatError(f"{path}:{lineno}: bad record {line!r}")
    return FormatError(f"{path}: bad record ({cause})")


def read_csv(path, duration: int | None = None) -> TagStream:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise FormatError(f"{path}: bad CSV header {header!r}")
            with warnings.catch_warnings():
                # a file with the header alone holds an empty stream
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except FormatError:
        raise
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 text file") from exc
    except ValueError as exc:  # np.loadtxt met a row it cannot parse
        raise _bad_row_error(path, exc) from exc
    codes = np.full(rows.size, len(_CSV_NAMES), dtype=np.uint8)
    for code, name in enumerate(_CSV_NAMES):
        codes[rows["name"] == name] = code
    # numpy strings drop trailing NULs, which would read "hbt_a\0" as "hbt_a"
    if np.any(codes == len(_CSV_NAMES)) or _contains_nul(path):
        raise _bad_row_error(path, "unknown channel name")
    return _stream_from(path, codes, rows["timestamp"], duration)


def read_tags(path, duration: int | None = None) -> TagStream:
    """Dispatch on file content: binary if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_binary(path, duration)
    return read_csv(path, duration)
