"""Time-tag stream wire formats.

Binary format (versioned, little-endian):

    header  : 16 bytes = magic ``b"HSIMTAGS"`` + uint32 version (1) + uint32 zero
    records : 12 bytes each = uint8 channel, 3 zero bytes, uint64 timestamp_ps

The reader rejects non-zero reserved bytes and timestamps of 2**63 ps or
more, which do not fit the signed 64-bit times of a TagStream.  The writer
refuses a stream with a negative time, which the format cannot hold.

Records are stored in global time order (ties broken by channel id).  The
CSV alternative is lossless: a ``channel,timestamp_ps`` header followed by
one ``<name>,<signed decimal>`` row per record, in the same order, with the
channel spelled by name and each row ending in ``\\n``.  The reader skips
empty lines, splits lines at ``\\n``, ``\\r\\n`` and ``\\r``, and allows
whitespace around the timestamp, which is a signed decimal integer that fits
64 bits.  Both CSV halves work on whole pieces of bytes: the writer
assembles the rows of a piece in one numpy byte block, and the reader finds
the line ends and the channel names by byte compares and converts the digit
fields of all rows at once.  Only a row that is not ``<name>,<1 to 18
digits>`` (one with padding, a sign, more digits, or outside the grammar)
goes through the per-row grammar check, and so do the rows that start in the
last 16 bytes of the file.

Readers reject a file in which a channel's timestamps decrease.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError, ParameterError
from .event_sim import CHANNEL_NAMES, CHANNELS_BY_NAME, Channel, TagStream

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
_CSV_NAMES = [CHANNEL_NAMES[ch] for ch in sorted(Channel)]  # indexed by channel id
# The row grammar, for the rows the bulk reader leaves to the per-row check.
_CSV_RECORD = rf"(?:{'|'.join(map(re.escape, _CSV_NAMES))}),\s*[+-]?[0-9]+\s*"
# Channel names NUL-padded to one width, indexed by channel id; the writer
# drops NUL bytes, which no row holds.
_CSV_NAME_BYTES = np.array([name.encode() for name in _CSV_NAMES], dtype="S")
# Bytes the bulk reader compares at the start of a row: "<name>," as two
# little-endian words, with a mask that keeps the bytes the name covers.
_CSV_HEAD = 16
_CSV_KEYS = [
    (
        np.frombuffer(f"{name},".encode().ljust(_CSV_HEAD, b"\0"), "<u8"),
        np.frombuffer(bytes(0xFF if i <= len(name) else 0 for i in range(_CSV_HEAD)), "<u8"),
    )
    for name in _CSV_NAMES
]
assert max(map(len, _CSV_NAMES)) < _CSV_HEAD
#: Most digits the bulk reader converts; 18 digits always fit int64.
_CSV_DIGITS = 18


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
    heralds = channels[Channel.HERALD_TRIGGER]
    if duration is None:
        duration = int(times.max()) + 1 if times.size else 0
    elif heralds.size and duration <= heralds[-1]:
        # heralds are pulse times, so the acquisition reaches past the last one
        raise ParameterError(f"{path}: duration {duration} ps must exceed the last herald at {int(heralds[-1])} ps")
    return TagStream(channels=channels, duration=int(duration))


def write_binary(stream: TagStream, path) -> None:
    for ch in Channel:
        arr = stream.channels.get(ch)
        if arr is not None and np.size(arr) and np.min(arr) < 0:
            raise ParameterError(
                f"{CHANNEL_NAMES[ch]} holds a negative timestamp, which the binary tag format cannot store"
            )
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


def _csv_rows(codes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rows ``<name>,<signed decimal>\\n`` of these records, as one byte array.

    Each row is laid out in a fixed-width block (name, comma, sign, digits,
    newline) whose unused bytes are NUL, and the NULs are dropped at the end.
    """
    neg = times < 0
    magnitude = times.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=neg)  # also right for -2**63
    # decimal digits, least significant first; NUL where a digit would be a
    # leading zero
    digits = []
    while True:
        quotient = magnitude // np.uint64(10)
        digit = (magnitude - quotient * np.uint64(10)).astype(np.uint8) + np.uint8(ord("0"))
        if digits:
            digit *= magnitude > 0
        digits.append(digit)
        magnitude = quotient
        if not magnitude.any():
            break
    if neg.any():
        digits.append(neg * np.uint8(ord("-")))
    width = _CSV_NAME_BYTES.itemsize
    block = np.empty((times.size, width + len(digits) + 2), dtype=np.uint8)
    block[:, :width] = _CSV_NAME_BYTES[codes].view(np.uint8).reshape(-1, width)
    block[:, width] = ord(",")
    block[:, width + 1 : -1] = np.array(digits[::-1]).T
    block[:, -1] = ord("\n")
    return block[block != 0]


def write_csv(stream: TagStream, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for records in _record_chunks(stream):
            fh.write(_csv_rows(records["channel"], records["timestamp"].view(np.int64)))


def _csv_row_ok(line: str) -> bool:
    if not re.fullmatch(_CSV_RECORD, line):
        return False
    return -(2**63) <= int(line.split(",")[1]) < 2**63


def _windows(raw: np.ndarray, width: int) -> np.ndarray:
    """One overlapping ``width``-byte item per offset of ``raw``, so that one
    gather takes a field out of every row."""
    return np.ndarray((raw.size - width + 1,), dtype=f"V{width}", buffer=raw, strides=(1,))


def _line_spans(raw: np.ndarray) -> tuple:
    """Start and end offsets of the lines of ``raw``, which end in ``\\n``,
    ``\\r\\n`` or ``\\r``.  A last line that is empty is left out."""
    ends = raw == ord("\n")
    cr = np.equal(raw, ord("\r"))
    if cr.any():
        ends[1:] &= ~cr[:-1]  # the \n of a \r\n ends no line of its own
        ends |= cr
        ends = np.flatnonzero(ends)
        crlf = np.zeros(ends.size, dtype=bool)
        inner = ends[ends < raw.size - 1]
        crlf[: inner.size] = cr[inner] & (raw[inner + 1] == ord("\n"))
        starts = ends + 1 + crlf
    else:
        ends = np.flatnonzero(ends)
        starts = ends + 1
    starts = np.concatenate(([0], starts))
    if starts[-1] == raw.size:
        return starts[:-1], ends
    return starts, np.concatenate((ends, [raw.size]))


def read_csv(path, duration: int | None = None) -> TagStream:
    raw = np.fromfile(path, dtype=np.uint8)
    n = raw.size
    if n and raw.max() >= 0x80:
        try:
            raw.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 text file") from exc
    starts, ends = _line_spans(raw)
    header = raw[: ends[0]].tobytes().decode().strip() if ends.size else ""
    if header != CSV_HEADER:
        raise FormatError(f"{path}: bad CSV header {header!r}")
    # body rows; the header holds 20 bytes, so every row starts and ends
    # past byte 20, and every gather below stays inside the file
    s, e = starts[1:], ends[1:]
    heads = _windows(raw, _CSV_HEAD)[np.minimum(s, n - _CSV_HEAD)].view("<u8").reshape(-1, 2)
    codes = np.zeros(s.size, dtype=np.uint8)
    field = s.copy()  # where the timestamp starts, in a row that starts with a name
    for code, (key, mask) in enumerate(_CSV_KEYS):
        hit = ((heads[:, 0] & mask[0]) == key[0]) & ((heads[:, 1] & mask[1]) == key[1])
        codes += hit * np.uint8(code)
        field += hit * (len(_CSV_NAMES[code]) + 1)
    del heads
    n_digits = e - field
    fast = (field > s) & (s <= n - _CSV_HEAD) & (n_digits >= 1) & (n_digits <= _CSV_DIGITS)
    # the last `places` bytes of every row, one row of the block per place
    places = int(n_digits[fast].max()) if fast.any() else 1
    digits = _windows(raw, places)[e - places].view(np.uint8).reshape(-1, places).T.copy()
    digits -= np.uint8(ord("0"))
    digits *= np.arange(places, 0, -1)[:, None] <= n_digits  # clear bytes before the digits
    fast &= digits.max(axis=0) <= 9
    times = np.zeros(s.size, dtype=np.int64)
    for place in digits:
        times *= 10
        times += place

    empty = s == e
    for i in np.flatnonzero(~(fast | empty)).tolist():
        line = raw[s[i] : e[i]].tobytes().decode()
        if not _csv_row_ok(line):
            raise FormatError(f"{path}:{i + 2}: bad record {line!r}")
        name, value = line.split(",")
        codes[i] = CHANNELS_BY_NAME[name]
        times[i] = int(value)
    if empty.any():
        codes, times = codes[~empty], times[~empty]
    return _stream_from(path, codes, times, duration)


def read_tags(path, duration: int | None = None) -> TagStream:
    """Dispatch on file content: binary if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_binary(path, duration)
    return read_csv(path, duration)
