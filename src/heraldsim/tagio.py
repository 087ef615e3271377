"""Time-tag stream wire formats.

Binary format (versioned, little-endian):

    header  : 16 bytes = magic ``b"HSIMTAGS"`` + uint32 version (1) + uint32 zero
    records : 12 bytes each = uint8 channel, 3 zero bytes, uint64 timestamp_ps

The reader rejects non-zero reserved bytes and timestamps of 2**63 ps or
more, which do not fit the signed 64-bit times of a TagStream.  It reads
the records in two passes over fixed blocks of ``_READ_BLOCK`` records in
one reused buffer: the first checks them and counts each channel's tags,
the second hands the blocks to the channel split.  A file whose records
are in time order has every channel in time order, so then the split checks
no channel's order.  The writer refuses a stream with a negative time, which
the format cannot hold.

Records are stored in global time order (ties broken by channel id), and
the binary reader refuses a file whose records are not.  Both writers take
a TagStream, merge the channels of each of its segments (sorted int64
times over disjoint spans of time in ascending order) and append the
segment's records as it comes, so writing a stream that ``run`` returns
holds one segment at a time.  Each returns the SHA-256 digest of the bytes
it wrote.

The CSV alternative is lossless: a ``channel,timestamp_ps`` header followed
by one ``<name>,<signed decimal>`` row per record, in the same order, with
the channel spelled by name and each row ending in ``\\n``.  The reader skips
empty lines, splits lines at ``\\n``, ``\\r\\n`` and ``\\r``, and allows
whitespace around the timestamp, which is a signed decimal integer that fits
64 bits.  Both CSV halves work on blocks of bytes.  The writer formats each
merged piece ``_CSV_ROWS`` (2**14) rows at a time, each block of rows as one
numpy byte array, so the block's temporaries stay in the CPU caches.  The
reader reads the file ``_CSV_BLOCK`` (1 MiB) bytes at a time into one reused
buffer and cuts each block after its last line end; the rest of the line
waits for the next block, and a line longer than the buffer grows it.  In
each block it finds the line ends and the channel names by byte compares
and converts the digit fields of all rows at once.  So it holds the
converted rows, 9 bytes each, and one block's temporaries, however long the
file.  Only a row that is not ``<name>,<1 to 18 digits>`` (one with
padding, a sign, more digits, or outside the grammar) goes through the
per-row grammar check.

Both readers split the records into channels the same way, block by block
into one array per channel of the counted size: the binary reader hands the
split its record blocks, the CSV reader its converted blocks.  Readers
reject a file in which a channel's timestamps decrease.  Without a given
duration, a stream read from a file lasts until one past its latest time,
the last time of one of its split channels.
"""

from __future__ import annotations

import hashlib
import os
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
#: Rows the CSV writer formats at a time: the temporaries of a block of
#: rows, about 120 bytes per row, then stay in the CPU caches.
_CSV_ROWS = 1 << 14
#: Records the binary reader decodes at a time.
_READ_BLOCK = 1 << 16
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
#: Bytes of a CSV file the reader converts at a time; a longer line grows the block.
_CSV_BLOCK = 1 << 20
#: Bytes on both sides of a CSV block in the read buffer, so that the
#: ``_CSV_HEAD`` bytes at a row's start and the ``_CSV_DIGITS`` bytes before
#: its end are in bounds.
_CSV_PAD = 32
assert _CSV_PAD >= max(_CSV_HEAD, _CSV_DIGITS)


def _merged(stream: TagStream):
    """The ``(codes, times)`` of a stream's tags in file order, one piece at a time.

    ``stream.segments()`` hands out every channel of a segment as sorted
    int64 times, over disjoint spans of time in ascending order, so the
    segments' records follow one another in the file.  Within a segment every
    channel is cut at the same times, which are every ``_WRITE_CHUNK``-th
    time of each channel, so the pieces follow one another too and each is
    merged on its own.  A piece holds at most ``_WRITE_CHUNK`` records per
    channel, more only where a channel repeats one time, and the writers hold
    one segment and one piece at a time.
    """
    for segment in stream.segments():
        yield from _segment_pieces([segment[ch] for ch in Channel])
        del segment  # let go of it before the next one is drawn


def _segment_pieces(times: list):
    """The non-empty pieces of one segment's channels, ``times`` indexed by channel id."""
    cuts = np.unique(np.concatenate([t[_WRITE_CHUNK::_WRITE_CHUNK] for t in times]))
    edges = [np.concatenate(([0], np.searchsorted(t, cuts), [t.size])) for t in times]
    for i in range(cuts.size + 1):
        piece = np.concatenate([t[e[i] : e[i + 1]] for t, e in zip(times, edges)])
        if piece.size:
            # the piece lists channels by ascending id, so a stable sort on
            # time breaks ties by channel
            order = np.argsort(piece, kind="stable")
            codes = np.repeat(np.arange(len(Channel), dtype=np.uint8), [e[i + 1] - e[i] for e in edges])
            yield codes[order], piece[order]


class _HashingWriter:
    """Writes bytes to a file and hashes them as they go."""

    def __init__(self, fh):
        self._fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> None:
        self._fh.write(data)
        self.digest.update(data)


def write_binary(stream: TagStream, path) -> str:
    """Write a TagStream as a binary tag file; returns the SHA-256 hex digest of the bytes written."""
    pieces = _merged(stream)
    piece = next(pieces, None)
    # the first piece holds the file's earliest time, so a negative time is
    # refused before the file is opened
    if piece is not None and piece[1][0] < 0:
        name = CHANNEL_NAMES[Channel(piece[0][0])]
        raise ParameterError(f"{name} holds a negative timestamp, which the binary tag format cannot store")
    with open(path, "wb") as fh:
        out = _HashingWriter(fh)
        out.write(MAGIC + np.array([VERSION, 0], dtype="<u4").tobytes())
        while piece is not None:
            codes, times = piece
            records = np.zeros(times.size, dtype=RECORD_DTYPE)
            records["channel"] = codes
            records["timestamp"] = times
            out.write(records)
            piece = next(pieces, None)
    return out.digest.hexdigest()


def _record_blocks(fh, block: np.ndarray, n_records: int):
    """The file's records read into ``block`` a block at a time, each with the index of its first record."""
    raw = block.view(np.uint8)
    fh.seek(HEADER_SIZE)
    for lo in range(0, n_records, block.size):
        count = min(block.size, n_records - lo)
        if fh.readinto(raw[: count * RECORD_DTYPE.itemsize]) != count * RECORD_DTYPE.itemsize:
            raise FormatError(f"{fh.name}: truncated record payload")
        yield lo, block[:count]


def _split(path, counts: np.ndarray, blocks, duration: int | None, ordered: bool = False) -> TagStream:
    """Split ``blocks`` of (codes, times) in file order into a stream of one array per channel.

    ``counts`` holds each channel's tag count.  Unless the file's times are
    known to be ``ordered`` as a whole, which orders every channel too, each
    channel's order is checked.  Without a ``duration``, the stream's is one
    past the file's latest time, the last time of a channel.
    """
    # one array laid out channel after channel, as a view per channel
    channels = dict(zip(Channel, np.split(np.empty(int(counts.sum()), dtype=np.int64), np.cumsum(counts)[:-1])))
    filled = dict.fromkeys(Channel, 0)
    unordered = set()
    for codes, times in blocks:
        for ch in Channel:
            # np.bincount would first widen every code to 64 bits
            mask = codes == ch
            lo, count = filled[ch], int(np.count_nonzero(mask))
            np.compress(mask, times, out=channels[ch][lo : lo + count])
            filled[ch] += count
            if not ordered:
                # the new times, and the one before them
                run = channels[ch][max(lo - 1, 0) : lo + count]
                if np.any(run[1:] < run[:-1]):
                    unordered.add(ch)
    if unordered:
        raise FormatError(f"{path}: {CHANNEL_NAMES[min(unordered)]} timestamps are not in time order")
    heralds = channels[Channel.HERALD_TRIGGER]
    if duration is None:
        duration = max((int(times[-1]) for times in channels.values() if times.size), default=-1) + 1
    elif heralds.size and duration <= heralds[-1]:
        # heralds are pulse times, so the acquisition reaches past the last one
        raise ParameterError(f"{path}: duration {duration} ps must exceed the last herald at {int(heralds[-1])} ps")
    return TagStream._of_sorted(channels, int(duration))


def _record_columns(fh, block: np.ndarray, n_records: int):
    """The file's records as (codes, times) a block at a time, each copied to a reused contiguous buffer."""
    codes = np.empty(block.size, dtype=np.uint8)
    times = np.empty(block.size, dtype=np.int64)
    for _, records in _record_blocks(fh, block, n_records):
        n = records.size
        codes[:n] = records["channel"]
        times[:n] = records["timestamp"].view(np.int64)
        yield codes[:n], times[:n]


def read_binary(path, duration: int | None = None) -> TagStream:
    """Read a binary tag file in two passes over fixed-size blocks of records.

    The first pass checks every record and counts each channel's tags, the
    second copies them into arrays of that exact size, so the reader holds
    the decoded stream and one block.
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:8] != MAGIC:
            raise FormatError(f"{path}: not a time-tag file (bad magic)")
        version = int(np.frombuffer(header[8:12], dtype="<u4")[0])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if any(header[12:]):
            raise FormatError(f"{path}: reserved header word is not zero")
        n_records, extra = divmod(os.fstat(fh.fileno()).st_size - HEADER_SIZE, RECORD_DTYPE.itemsize)
        if extra:
            raise FormatError(f"{path}: truncated record payload")

        block = np.empty(_READ_BLOCK, dtype=RECORD_DTYPE)
        counts = np.zeros(len(Channel), dtype=np.int64)
        unknown = set()
        bad_reserved = bad_time = bad_order = None
        before = -1  # the time of the record before the block
        for lo, records in _record_blocks(fh, block, n_records):
            # the first little-endian word of a record is channel | reserved << 8,
            # so a valid record's word is its channel id
            words = records.view("<u4")[::3]
            top = int(words.max())
            if bad_reserved is None and top > 0xFF:
                bad_reserved = lo + int(np.argmax(words > 0xFF))
            if top >= len(Channel):
                codes = records["channel"]
                unknown.update(np.unique(codes[codes >= len(Channel)]).tolist())
            times = records["timestamp"].view(np.int64)  # 2**63 and above read as negative
            if bad_time is None and times.min() < 0:
                bad_time = lo + int(np.argmax(times < 0))
            if bad_order is None:
                earlier = np.flatnonzero(times < np.concatenate(([before], times[:-1])))
                bad_order = lo + int(earlier[0]) if earlier.size else None
            before = times[-1]
            # every word is a channel id unless the file is refused below
            heralds = np.count_nonzero(words == Channel.HERALD_TRIGGER)
            hbt_a = np.count_nonzero(words == Channel.HBT_A)
            counts += (heralds, hbt_a, records.size - heralds - hbt_a)
        if bad_reserved is not None:
            raise FormatError(f"{path}: record {bad_reserved} has non-zero reserved bytes")
        if bad_time is not None:
            raise FormatError(f"{path}: record {bad_time} has a timestamp of 2**63 ps or more")
        if unknown:
            raise FormatError(f"{path}: unknown channel ids {sorted(unknown)}")

        blocks = _record_columns(fh, block, n_records)
        stream = _split(path, counts, blocks, duration, ordered=bad_order is None)
    # after the split, so that a channel whose own times decrease is named as such
    if bad_order is not None:
        raise FormatError(f"{path}: record {bad_order} is earlier than the record before it")
    return stream


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


def write_csv(stream: TagStream, path) -> str:
    """Write a TagStream as a CSV tag file; returns the SHA-256 hex digest of the bytes written."""
    with open(path, "wb") as fh:
        out = _HashingWriter(fh)
        out.write(f"{CSV_HEADER}\n".encode())
        for codes, times in _merged(stream):
            for lo in range(0, times.size, _CSV_ROWS):
                out.write(_csv_rows(codes[lo : lo + _CSV_ROWS], times[lo : lo + _CSV_ROWS]))
    return out.digest.hexdigest()


def _csv_row_ok(line: str) -> bool:
    if not re.fullmatch(_CSV_RECORD, line):
        return False
    # int() strips less than \s matches: not the separators U+001C to U+001F
    return -(2**63) <= int(line.split(",")[1].strip()) < 2**63


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


def _csv_blocks(fh):
    """The file's bytes in blocks of whole lines, read into one reused buffer.

    Yields ``(buf, lo, hi)``: the block is ``buf[lo:hi]``, with at least
    ``_CSV_PAD`` bytes of ``buf`` before it and after it.  A block ends
    after its last line end, and the bytes after that are carried into the
    next block; so is a ``\\r`` that ends the bytes read, since its ``\\n``
    may come next.  A line longer than the buffer doubles it.  The last
    block holds the rest of the file.
    """
    size = _CSV_BLOCK
    mem = bytearray(_CSV_PAD + size + _CSV_PAD)
    buf = np.frombuffer(mem, dtype=np.uint8)
    n = 0  # bytes carried and read, at mem[_CSV_PAD : _CSV_PAD + n]
    while True:
        n += fh.readinto(memoryview(mem)[_CSV_PAD + n : _CSV_PAD + size])
        end = _CSV_PAD + n
        if n < size:  # the read stopped at the end of the file
            yield buf, _CSV_PAD, end
            return
        cut = max(mem.rfind(b"\n", _CSV_PAD, end), mem.rfind(b"\r", _CSV_PAD, end - 1)) + 1
        if not cut:  # no line ends in the buffer
            size *= 2
            mem = mem[:end] + bytearray(size - n + _CSV_PAD)
            buf = np.frombuffer(mem, dtype=np.uint8)
            continue
        yield buf, _CSV_PAD, cut
        n = end - cut
        mem[_CSV_PAD : _CSV_PAD + n] = mem[cut:end]


def _csv_check_utf8(path, raw: np.ndarray) -> None:
    if raw.size and raw.max() >= 0x80:
        try:
            raw.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 text file") from exc


def _csv_convert(path, buf: np.ndarray, lo: int, hi: int, line: int) -> tuple:
    """The codes and times of the rows in the block ``buf[lo:hi]``, and its number of lines.

    The block's first line is line ``line`` of the file, and line 1 is the
    header.  Rows start at least ``_CSV_HEAD`` bytes before the end of
    ``buf`` and end at least ``_CSV_DIGITS`` bytes after its start, so every
    gather stays inside it.  A name match that runs past the end of its row
    leaves no digits, so the bytes after a row never change its outcome.
    """
    starts, ends = _line_spans(buf[lo:hi])
    n_lines = starts.size
    if line == 1:
        header = buf[lo : lo + ends[0]].tobytes().decode().strip() if ends.size else ""
        if header != CSV_HEADER:
            raise FormatError(f"{path}: bad CSV header {header!r}")
        starts, ends, line = starts[1:], ends[1:], 2
    s, e = starts + lo, ends + lo
    heads = _windows(buf, _CSV_HEAD)[s].view("<u8").reshape(-1, 2)
    codes = np.zeros(s.size, dtype=np.uint8)
    field = s.copy()  # where the timestamp starts, in a row that starts with a name
    for code, (key, mask) in enumerate(_CSV_KEYS):
        hit = ((heads[:, 0] & mask[0]) == key[0]) & ((heads[:, 1] & mask[1]) == key[1])
        codes += hit * np.uint8(code)
        field += hit * (len(_CSV_NAMES[code]) + 1)
    del heads
    n_digits = e - field
    fast = (field > s) & (n_digits >= 1) & (n_digits <= _CSV_DIGITS)
    # the last `places` bytes of every row, one row of the block per place
    places = int(n_digits[fast].max()) if fast.any() else 1
    digits = _windows(buf, places)[e - places].view(np.uint8).reshape(-1, places).T.copy()
    digits -= np.uint8(ord("0"))
    digits *= np.arange(places, 0, -1)[:, None] <= n_digits  # clear bytes before the digits
    fast &= digits.max(axis=0) <= 9
    times = np.zeros(s.size, dtype=np.int64)
    for place in digits:
        times *= 10
        times += place

    empty = s == e
    for i in np.flatnonzero(~(fast | empty)).tolist():
        row = buf[s[i] : e[i]].tobytes().decode()
        if not _csv_row_ok(row):
            raise FormatError(f"{path}:{line + i}: bad record {row!r}")
        name, value = row.split(",")
        codes[i] = CHANNELS_BY_NAME[name]
        times[i] = int(value.strip())
    if empty.any():
        codes, times = codes[~empty], times[~empty]
    return codes, times, n_lines


def read_csv(path, duration: int | None = None) -> TagStream:
    """Read a CSV tag file a block of ``_CSV_BLOCK`` bytes at a time.

    Each block's rows are converted to channel codes and times as it comes,
    so the reader holds the converted rows, 9 bytes each, and one block's
    temporaries, before the channel split.
    """
    converted = []
    counts = np.zeros(len(Channel), dtype=np.int64)
    line = 1  # the number of the block's first line
    with open(path, "rb") as fh:
        blocks = _csv_blocks(fh)
        for buf, lo, hi in blocks:
            _csv_check_utf8(path, buf[lo:hi])
            try:
                codes, times, n_lines = _csv_convert(path, buf, lo, hi, line)
            except FormatError:
                # a file that is not UTF-8 is refused as such, wherever the bad byte lies
                for buf, lo, hi in blocks:
                    _csv_check_utf8(path, buf[lo:hi])
                raise
            line += n_lines
            if times.size:
                converted.append((codes, times))
                counts += [np.count_nonzero(codes == ch) for ch in Channel]
    return _split(path, counts, converted, duration)


def read_tags(path, duration: int | None = None) -> TagStream:
    """Dispatch on file content: binary if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_binary(path, duration)
    return read_csv(path, duration)
