"""Time-tag stream wire formats.

Binary format (versioned, little-endian):

    header  : 16 bytes = magic ``b"HSIMTAGS"`` + uint32 version (1) + uint32 zero
    records : 12 bytes each = uint8 channel, 3 zero bytes, uint64 timestamp_ps

The reader rejects non-zero reserved bytes and timestamps of 2**63 ps or
more, which do not fit the signed 64-bit times of a TagStream.

Records are stored in global time order (ties broken by channel id).  The
CSV alternative is lossless: a ``channel,timestamp_ps`` header followed by
one ``<name>,<timestamp_ps>`` row per record with the channel spelled by
name.  The reader skips empty lines and allows whitespace around the
timestamp, which is a signed decimal integer that fits 64 bits.

Readers reject a file in which a channel's timestamps decrease.
"""

from __future__ import annotations

import io
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
# the readers index per-channel counts by channel id
assert [int(ch) for ch in Channel] == list(range(len(Channel)))

CSV_HEADER = "channel,timestamp_ps"
#: Records per channel that the writers merge in one piece.
_WRITE_CHUNK = 1 << 16
#: Records formatted per ``write`` call by the CSV writer.
_CSV_CHUNK = 1 << 14
_CSV_NAMES = [CHANNEL_NAMES[ch] for ch in sorted(Channel)]  # indexed by channel id
# 16 characters hold every channel name, so a longer name stays unknown
_CSV_ROW = np.dtype([("name", "U16"), ("timestamp", "<i8")])
# The row grammar np.loadtxt applies with _CSV_ROW, for naming a bad row;
# re compiles it on first use, on the error path only.
_CSV_RECORD = rf"(?:{'|'.join(map(re.escape, _CSV_NAMES))}),\s*[+-]?[0-9]+\s*"


def _record_chunks(stream: TagStream):
    """The stream's records in file order, one piece at a time.

    Every channel is cut at the same times, which are every
    ``_WRITE_CHUNK``-th time of each channel, so the pieces follow one
    another in the file and each is merged on its own.  A piece holds at
    most ``_WRITE_CHUNK`` records per channel, more only where a channel
    repeats one time, and the writers never hold the whole file in memory.
    """
    codes, times = [], []
    for ch in Channel:
        arr = stream.channels.get(ch)
        if arr is None or arr.size == 0:
            continue
        t = np.asarray(arr, dtype=np.int64)
        if np.any(t[1:] < t[:-1]):
            t = np.sort(t)
        codes.append(int(ch))
        times.append(t)
    empty = np.empty(0, dtype=np.int64)
    cuts = np.unique(np.concatenate([t[_WRITE_CHUNK::_WRITE_CHUNK] for t in times] + [empty]))
    edges = [np.concatenate(([0], np.searchsorted(t, cuts), [t.size])) for t in times]
    for i in range(cuts.size + 1):
        piece = np.concatenate([t[e[i] : e[i + 1]] for t, e in zip(times, edges)] + [empty])
        piece_codes = np.repeat(np.array(codes, dtype=np.uint8), [e[i + 1] - e[i] for e in edges])
        # the piece lists channels by ascending id, so a stable sort on time
        # breaks ties by channel
        order = np.argsort(piece, kind="stable")
        records = np.zeros(piece.size, dtype=RECORD_DTYPE)
        records["channel"] = piece_codes[order]
        records["timestamp"] = piece[order]
        yield records


def _stream_from(path, codes: np.ndarray, times: np.ndarray, duration: int | None) -> TagStream:
    counts = np.bincount(codes, minlength=len(Channel))
    unknown = np.nonzero(counts[len(Channel) :])[0] + len(Channel)
    if unknown.size:
        raise FormatError(f"{path}: unknown channel ids {unknown.tolist()}")
    # a stable sort on the channel id keeps each channel's records in file
    # order and lays the channels out one after another
    by_channel = times[np.argsort(codes, kind="stable")]
    channels = {}
    for ch, sel in zip(Channel, np.split(by_channel, np.cumsum(counts)[:-1])):
        if np.any(sel[1:] < sel[:-1]):
            raise FormatError(f"{path}: {CHANNEL_NAMES[ch]} timestamps are not in time order")
        channels[ch] = sel
    if duration is None:
        duration = int(times.max()) + 1 if times.size else 0
    return TagStream(channels=channels, duration=int(duration))


def write_binary(stream: TagStream, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint32(0).tobytes())
        for records in _record_chunks(stream):
            fh.write(records.tobytes())


def read_binary(path, duration: int | None = None) -> TagStream:
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:8] != MAGIC:
            raise FormatError(f"{path}: not a time-tag file (bad magic)")
        version = int(np.frombuffer(header[8:12], dtype="<u4")[0])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if any(header[12:]):
            raise FormatError(f"{path}: reserved header word is not zero")
        payload = fh.read()
    if len(payload) % RECORD_DTYPE.itemsize:
        raise FormatError(f"{path}: truncated record payload")
    records = np.frombuffer(payload, dtype=RECORD_DTYPE)
    # the first little-endian word of a record is channel | reserved << 8
    first_words = np.frombuffer(payload, dtype="<u4")[::3]
    if first_words.size and first_words.max() > 0xFF:
        raise FormatError(f"{path}: record {int(np.argmax(first_words > 0xFF))} has non-zero reserved bytes")
    times = records["timestamp"].view(np.int64)  # 2**63 and above read as negative
    if times.size and times.min() < 0:
        raise FormatError(f"{path}: record {int(np.argmax(times < 0))} has a timestamp of 2**63 ps or more")
    return _stream_from(path, records["channel"], times, duration)


def write_csv(stream: TagStream, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for records in _record_chunks(stream):
            for lo in range(0, records.size, _CSV_CHUNK):
                chunk = records[lo : lo + _CSV_CHUNK]
                names = map(_CSV_NAMES.__getitem__, chunk["channel"].tolist())
                fh.write("".join(map("{},{}\n".format, names, chunk["timestamp"].tolist())))


def _csv_row_ok(line: str) -> bool:
    if not re.fullmatch(_CSV_RECORD, line):
        return False
    return -(2**63) <= int(line.split(",")[1]) < 2**63


def _bad_row_error(path, cause) -> FormatError:
    """FormatError naming the first row of the file that breaks the CSV grammar."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line and not _csv_row_ok(line):
                return FormatError(f"{path}:{lineno}: bad record {line!r}")
    return FormatError(f"{path}: bad record ({cause})")


def _unicode_spaces() -> dict:
    """str.translate table mapping each non-ASCII whitespace character to a space.

    U+3000 is the last code point that str.isspace accepts.
    """
    return {c: " " for c in range(0x80, 0x3001) if chr(c).isspace()}


def read_csv(path, duration: int | None = None) -> TagStream:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise FormatError(f"{path}: bad CSV header {header!r}")
            source = fh
            # numpy strings drop trailing NULs, which would read "hbt_a\0"
            # as "hbt_a", and np.loadtxt hands characters above U+00FF to C
            # isdigit, which reads out of bounds and can crash.  A row the
            # grammar takes holds no NUL, and non-ASCII characters only as
            # whitespace, so other files are parsed from a cleaned copy.
            if b"\0" in raw or not raw.isascii():
                body = fh.read().translate(_unicode_spaces())
                if "\0" in body or not body.isascii():
                    raise _bad_row_error(path, "a NUL, or a character that is neither ASCII nor whitespace")
                source = io.StringIO(body)
            with warnings.catch_warnings():
                # a file with the header alone holds an empty stream
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(source, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except FormatError:
        raise
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 text file") from exc
    except ValueError as exc:  # np.loadtxt met a row it cannot parse
        raise _bad_row_error(path, exc) from exc
    codes = np.full(rows.size, len(_CSV_NAMES), dtype=np.uint8)
    for code, name in enumerate(_CSV_NAMES):
        codes[rows["name"] == name] = code
    if np.any(codes == len(_CSV_NAMES)):
        raise _bad_row_error(path, "unknown channel name")
    return _stream_from(path, codes, rows["timestamp"], duration)


def read_tags(path, duration: int | None = None) -> TagStream:
    """Dispatch on file content: binary if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_binary(path, duration)
    return read_csv(path, duration)
