import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim import Channel, ExperimentConfig, FormatError, HeraldSelection, ParameterError, TagStream, run
from heraldsim import tagio
from heraldsim.event_sim import CHANNEL_NAMES, CHANNELS_BY_NAME


# Reference implementations: the whole-file record merge that the writers'
# piecewise merge replaces, the per-record CSV writer and reader, the
# per-row formatting writer and np.loadtxt reader that the bulk CSV codec
# replaces, the whole-file bulk CSV reader that the block reader replaces,
# and the argsort channel split that the readers' block split replaces.


def reference_records(stream):
    """Every record of the stream, ordered by time and then channel id."""
    times = [np.asarray(stream.channels.get(ch, ()), dtype=np.int64) for ch in Channel]
    t = np.concatenate(times)
    c = np.concatenate([np.full(arr.size, int(ch), dtype=np.uint8) for ch, arr in zip(Channel, times)])
    order = np.lexsort((c, t))
    records = np.zeros(t.size, dtype=tagio.RECORD_DTYPE)
    records["channel"] = c[order]
    records["timestamp"] = t[order].view(np.uint64)  # the bits of the signed time
    return records


def reference_write_csv(stream, path):
    records = reference_records(stream)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("channel,timestamp_ps\n")
        names = {int(ch): name for ch, name in CHANNEL_NAMES.items()}
        for code, timestamp in zip(records["channel"].tolist(), records["timestamp"].view(np.int64).tolist()):
            fh.write(f"{names[code]},{timestamp}\n")


def format_write_csv(stream, path, rows_per_write=1 << 14):
    """The writer that formats each row with str.format, in text mode."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("channel,timestamp_ps\n")
        for codes, times in tagio._merged(stream):
            for lo in range(0, times.size, rows_per_write):
                names = map(tagio._CSV_NAMES.__getitem__, codes[lo : lo + rows_per_write].tolist())
                fh.write("".join(map("{},{}\n".format, names, times[lo : lo + rows_per_write].tolist())))


# 16 characters hold every channel name, so a longer name stays unknown
_LOADTXT_ROW = np.dtype([("name", "U16"), ("timestamp", "<i8")])


def _loadtxt_bad_row_error(path, cause):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line and not tagio._csv_row_ok(line):
                return FormatError(f"{path}:{lineno}: bad record {line!r}")
    return FormatError(f"{path}: bad record ({cause})")


def reference_stream_from(path, codes, times, duration):
    """The channel split by one stable argsort of the channel ids, which the
    readers' shared block split replaces."""
    counts = np.bincount(codes, minlength=len(Channel))
    unknown = np.nonzero(counts[len(Channel) :])[0] + len(Channel)
    if unknown.size:
        raise FormatError(f"{path}: unknown channel ids {unknown.tolist()}")
    # a stable sort on the channel id keeps each channel's records in file
    # order and lays the channels out one after another
    by_channel = times[np.argsort(codes, kind="stable")]
    channels = dict(zip(Channel, np.split(by_channel, np.cumsum(counts)[:-1])))
    for ch, sel in channels.items():
        if np.any(sel[1:] < sel[:-1]):
            raise FormatError(f"{path}: {CHANNEL_NAMES[ch]} timestamps are not in time order")
    heralds = channels[Channel.HERALD_TRIGGER]
    if duration is None:
        duration = int(times.max()) + 1 if times.size else 0
    elif heralds.size and duration <= heralds[-1]:
        raise ParameterError(f"{path}: duration {duration} ps must exceed the last herald at {int(heralds[-1])} ps")
    return TagStream(channels=channels, duration=int(duration))


def loadtxt_read_csv(path):
    """The np.loadtxt reader: a TagStream, or FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "channel,timestamp_ps":
                raise FormatError(f"{path}: bad CSV header {header!r}")
            source = fh
            # numpy strings drop trailing NULs, and np.loadtxt hands
            # characters above U+00FF to C isdigit, so other files are parsed
            # from a copy with non-ASCII whitespace made spaces
            if b"\0" in raw or not raw.isascii():
                body = fh.read().translate({c: " " for c in range(0x80, 0x3001) if chr(c).isspace()})
                if "\0" in body or not body.isascii():
                    raise _loadtxt_bad_row_error(path, "a NUL, or a character that is neither ASCII nor whitespace")
                source = io.StringIO(body)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(source, dtype=_LOADTXT_ROW, delimiter=",", comments=None, ndmin=1)
    except FormatError:
        raise
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 text file") from exc
    except ValueError as exc:
        raise _loadtxt_bad_row_error(path, exc) from exc
    codes = np.full(rows.size, len(tagio._CSV_NAMES), dtype=np.uint8)
    for code, name in enumerate(tagio._CSV_NAMES):
        codes[rows["name"] == name] = code
    if np.any(codes == len(tagio._CSV_NAMES)):
        raise _loadtxt_bad_row_error(path, "unknown channel name")
    return reference_stream_from(path, codes, rows["timestamp"], None)


def reference_read_csv(path):
    """Per-channel int64 arrays, in file order, or FormatError."""
    codes = []
    times = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "channel,timestamp_ps":
            raise FormatError(f"{path}: bad CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                name, raw = line.split(",")
                codes.append(int(CHANNELS_BY_NAME[name]))
                times.append(int(raw))
            except (ValueError, KeyError) as exc:
                raise FormatError(f"{path}:{lineno}: bad record {line!r}") from exc
    codes = np.asarray(codes, dtype=np.uint8)
    times = np.asarray(times, dtype=np.int64)
    return {ch: times[codes == int(ch)] for ch in Channel}


def whole_file_read_csv(path, duration=None):
    """The bulk CSV reader that converts the whole file at once, which the
    block reader replaces."""
    raw = np.fromfile(path, dtype=np.uint8)
    n = raw.size
    if n and raw.max() >= 0x80:
        try:
            raw.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 text file") from exc
    starts, ends = tagio._line_spans(raw)
    header = raw[: ends[0]].tobytes().decode().strip() if ends.size else ""
    if header != tagio.CSV_HEADER:
        raise FormatError(f"{path}: bad CSV header {header!r}")
    # body rows; the header holds 20 bytes, so every row starts and ends
    # past byte 20, and every gather below stays inside the file
    s, e = starts[1:], ends[1:]
    heads = tagio._windows(raw, tagio._CSV_HEAD)[np.minimum(s, n - tagio._CSV_HEAD)].view("<u8").reshape(-1, 2)
    codes = np.zeros(s.size, dtype=np.uint8)
    field = s.copy()  # where the timestamp starts, in a row that starts with a name
    for code, (key, mask) in enumerate(tagio._CSV_KEYS):
        hit = ((heads[:, 0] & mask[0]) == key[0]) & ((heads[:, 1] & mask[1]) == key[1])
        codes += hit * np.uint8(code)
        field += hit * (len(tagio._CSV_NAMES[code]) + 1)
    n_digits = e - field
    fast = (field > s) & (s <= n - tagio._CSV_HEAD) & (n_digits >= 1) & (n_digits <= tagio._CSV_DIGITS)
    # the last `places` bytes of every row, one row of the block per place
    places = int(n_digits[fast].max()) if fast.any() else 1
    digits = tagio._windows(raw, places)[e - places].view(np.uint8).reshape(-1, places).T.copy()
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
        if not tagio._csv_row_ok(line):
            raise FormatError(f"{path}:{i + 2}: bad record {line!r}")
        name, value = line.split(",")
        codes[i] = CHANNELS_BY_NAME[name]
        times[i] = int(value)
    if empty.any():
        codes, times = codes[~empty], times[~empty]
    counts = np.array([np.count_nonzero(codes == ch) for ch in Channel])
    return tagio._split(path, counts, [(codes, times)], duration)


def reference_read_binary(path, duration=None):
    """The reader that loads the whole payload and splits it by channel with
    one argsort, which the block reader replaces."""
    with open(path, "rb") as fh:
        header = fh.read(tagio.HEADER_SIZE)
        if len(header) < tagio.HEADER_SIZE or header[:8] != tagio.MAGIC:
            raise FormatError(f"{path}: not a time-tag file (bad magic)")
        version = int(np.frombuffer(header[8:12], dtype="<u4")[0])
        if version != tagio.VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if any(header[12:]):
            raise FormatError(f"{path}: reserved header word is not zero")
        payload = fh.read()
    if len(payload) % tagio.RECORD_DTYPE.itemsize:
        raise FormatError(f"{path}: truncated record payload")
    records = np.frombuffer(payload, dtype=tagio.RECORD_DTYPE)
    first_words = np.frombuffer(payload, dtype="<u4")[::3]
    if first_words.size and first_words.max() > 0xFF:
        raise FormatError(f"{path}: record {int(np.argmax(first_words > 0xFF))} has non-zero reserved bytes")
    times = records["timestamp"].view(np.int64)
    if times.size and times.min() < 0:
        raise FormatError(f"{path}: record {int(np.argmax(times < 0))} has a timestamp of 2**63 ps or more")
    stream = reference_stream_from(path, records["channel"], times, duration)
    earlier = np.flatnonzero(times[1:] < times[:-1])
    if earlier.size:
        raise FormatError(f"{path}: record {int(earlier[0]) + 1} is earlier than the record before it")
    return stream


def stream_of(channels, duration=1):
    return TagStream(
        channels={ch: np.asarray(channels.get(ch, ()), dtype=np.int64) for ch in Channel},
        duration=duration,
    )


sorted_times = st.lists(st.integers(0, 2**62), max_size=60).map(sorted)
tag_streams = st.builds(
    lambda h, a, b: stream_of({Channel.HERALD_TRIGGER: h, Channel.HBT_A: a, Channel.HBT_B: b}),
    sorted_times,
    sorted_times,
    sorted_times,
)


@pytest.fixture(scope="module")
def sample_stream():
    cfg = ExperimentConfig(
        mean_pairs_per_pulse=0.05,
        n_pulses=50_000,
        seed=17,
        herald_selection=HeraldSelection.exactly(1),
        dark_rate=500.0,
    )
    stream, _ = run(cfg)
    return stream


class TestBinaryFormat:
    def test_record_layout(self):
        assert tagio.RECORD_DTYPE.itemsize == 12
        assert tagio.HEADER_SIZE == 16

    def test_round_trip(self, sample_stream, tmp_path):
        path = tmp_path / "tags.bin"
        tagio.write_binary(sample_stream, path)
        loaded = tagio.read_binary(path, duration=sample_stream.duration)
        for ch in Channel:
            np.testing.assert_array_equal(loaded.channels[ch], sample_stream.channels[ch])
        assert loaded.duration == sample_stream.duration

    def test_header_contents(self, sample_stream, tmp_path):
        path = tmp_path / "tags.bin"
        tagio.write_binary(sample_stream, path)
        raw = path.read_bytes()
        assert raw[:8] == b"HSIMTAGS"
        assert int(np.frombuffer(raw[8:12], dtype="<u4")[0]) == 1
        assert (len(raw) - 16) % 12 == 0

    def test_records_time_ordered(self, sample_stream, tmp_path):
        path = tmp_path / "tags.bin"
        tagio.write_binary(sample_stream, path)
        records = np.frombuffer(path.read_bytes()[16:], dtype=tagio.RECORD_DTYPE)
        assert np.all(np.diff(records["timestamp"].astype(np.int64)) >= 0)
        assert np.all(records["reserved"] == 0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTATAGF" + b"\x00" * 20)
        with pytest.raises(FormatError):
            tagio.read_binary(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v9.bin"
        path.write_bytes(b"HSIMTAGS" + np.uint32(9).tobytes() + np.uint32(0).tobytes())
        with pytest.raises(FormatError):
            tagio.read_binary(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"HSIMTAGS" + np.uint32(1).tobytes() + np.uint32(0).tobytes() + b"\x01\x02")
        with pytest.raises(FormatError):
            tagio.read_binary(path)

    @staticmethod
    def write_raw(path, records, reserved_word=0):
        path.write_bytes(b"HSIMTAGS" + np.uint32(1).tobytes() + np.uint32(reserved_word).tobytes()
                         + records.tobytes())

    def test_timestamp_past_int64_rejected(self, tmp_path):
        records = np.zeros(2, dtype=tagio.RECORD_DTYPE)
        records["channel"] = [int(Channel.HBT_A), int(Channel.HBT_B)]
        records["timestamp"] = [5, 2**63 + 7]
        path = tmp_path / "huge.bin"
        self.write_raw(path, records)
        with pytest.raises(FormatError, match=r"record 1 has a timestamp of 2\*\*63 ps or more"):
            tagio.read_binary(path)
        records["timestamp"][1] = 2**63 - 1  # the largest time a stream holds
        self.write_raw(path, records)
        assert tagio.read_binary(path).channels[Channel.HBT_B].tolist() == [2**63 - 1]

    @pytest.mark.parametrize("word", [1, 1 << 31])
    def test_reserved_header_word_rejected(self, tmp_path, word):
        path = tmp_path / "header.bin"
        self.write_raw(path, np.zeros(1, dtype=tagio.RECORD_DTYPE), reserved_word=word)
        with pytest.raises(FormatError, match="reserved header word"):
            tagio.read_binary(path)

    @pytest.mark.parametrize("byte", [0, 1, 2])
    def test_reserved_record_bytes_rejected(self, tmp_path, byte):
        records = np.zeros(3, dtype=tagio.RECORD_DTYPE)
        records["channel"] = int(Channel.HBT_B)
        records["timestamp"] = [10, 20, 30]
        records["reserved"][2, byte] = 0x80
        path = tmp_path / "reserved.bin"
        self.write_raw(path, records)
        with pytest.raises(FormatError, match="record 2 has non-zero reserved bytes"):
            tagio.read_binary(path)

    def test_unknown_channel_ids_named(self, tmp_path):
        records = np.zeros(4, dtype=tagio.RECORD_DTYPE)
        records["channel"] = [200, int(Channel.HBT_A), 3, 200]
        records["timestamp"] = [1, 2, 3, 4]
        path = tmp_path / "unknown.bin"
        self.write_raw(path, records)
        with pytest.raises(FormatError, match=r"unknown channel ids \[3, 200\]"):
            tagio.read_binary(path)

    def test_negative_time_refused_before_open(self, tmp_path):
        stream = stream_of({Channel.HBT_A: [3, 8], Channel.HERALD_TRIGGER: [-5, 10]})
        kept = tmp_path / "kept.tags"
        kept.write_bytes(b"earlier contents")
        absent = tmp_path / "absent.tags"
        for path in (kept, absent):
            with pytest.raises(ParameterError, match="herald_trigger holds a negative timestamp"):
                tagio.write_binary(stream, path)
        assert kept.read_bytes() == b"earlier contents"
        assert not absent.exists()

    def test_write_is_deterministic(self, sample_stream, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        tagio.write_binary(sample_stream, p1)
        tagio.write_binary(sample_stream, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvFormat:
    def test_round_trip(self, sample_stream, tmp_path):
        path = tmp_path / "tags.csv"
        tagio.write_csv(sample_stream, path)
        loaded = tagio.read_csv(path, duration=sample_stream.duration)
        for ch in Channel:
            np.testing.assert_array_equal(loaded.channels[ch], sample_stream.channels[ch])

    def test_header_and_names(self, sample_stream, tmp_path):
        path = tmp_path / "tags.csv"
        tagio.write_csv(sample_stream, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,timestamp_ps"
        assert lines[1].split(",")[0] in ("herald_trigger", "hbt_a", "hbt_b")

    def test_bad_channel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,timestamp_ps\nmystery,100\n")
        with pytest.raises(FormatError):
            tagio.read_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "mystery,100",  # unknown channel
            "HBT_A,100",  # names are case sensitive
            " hbt_a,100",  # whitespace is allowed around the timestamp only
            "hbt_a ,100",
            "hbt_a\0,100",  # a NUL that numpy strings would drop
            "herald_trigger_and_more,100",  # longer than the name field
            "#hbt_a,100",  # no comment rows
            "hbt_a",  # missing field
            "hbt_a,",  # empty timestamp
            "hbt_a,100,7",  # extra field
            "hbt_a,100,",
            "hbt_a,12.5",  # non-integer timestamps
            "hbt_a,1e3",
            "hbt_a,abc",
            "hbt_a,1_000",
            "hbt_a,9223372036854775808",  # past int64
            "   ",  # whitespace is not an empty line
            "hbt_a,\U00100000",  # characters above U+00FF that are not whitespace
            "hbt_a,\U000a2fa9\x0b",
            "hbt_a,\u0100",
            "hbt_a,7\u0663",
            "hbt_a,\u30007\u3000x",
        ],
    )
    def test_malformed_row_named(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"channel,timestamp_ps\nhbt_a,5\n\nhbt_b,6\n{row}\nhbt_b,9\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"{path.name}:5: bad record"):
            tagio.read_csv(path)

    def test_grammar_edges_accepted(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(
            "channel,timestamp_ps\r\n\r\nhbt_a, +5 \r\nhbt_a,\t007\r\nhbt_b,-3\r\n"
            "herald_trigger,9223372036854775807"
        )
        loaded = tagio.read_csv(path)
        assert loaded.channels[Channel.HBT_A].tolist() == [5, 7]
        assert loaded.channels[Channel.HBT_B].tolist() == [-3]
        assert loaded.channels[Channel.HERALD_TRIGGER].tolist() == [2**63 - 1]

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_whitespace_around_the_timestamp(self, tmp_path, separator):
        # \s and str.isspace() count U+001C..U+001F as whitespace, int() does not strip them
        path = tmp_path / "separators.csv"
        path.write_text(f"channel,timestamp_ps\nhbt_a,{separator}200\nhbt_b,7{separator}\n", encoding="utf-8")
        loaded = tagio.read_csv(path)
        assert loaded.channels[Channel.HBT_A].tolist() == [200]
        assert loaded.channels[Channel.HBT_B].tolist() == [7]

    @pytest.mark.parametrize(
        "body",
        [
            "channel,timestamp_ps\rhbt_a,5\r\rhbt_b,-3\rhbt_a,7\r",  # \r alone
            "channel,timestamp_ps\r\nhbt_a,5\n\rhbt_b,-3\r\r\nhbt_a,7",  # mixed, no last line end
        ],
    )
    def test_line_ends(self, tmp_path, body):
        path = tmp_path / "ends.csv"
        path.write_bytes(body.encode())
        loaded = tagio.read_csv(path)
        assert loaded.channels[Channel.HBT_A].tolist() == [5, 7]
        assert loaded.channels[Channel.HBT_B].tolist() == [-3]
        assert loaded.channels[Channel.HERALD_TRIGGER].tolist() == []

    def test_bad_row_after_cr_line_ends_named(self, tmp_path):
        path = tmp_path / "ends.csv"
        path.write_bytes(b"channel,timestamp_ps\r\nhbt_a,5\r\rhbt_b,x\nhbt_b,6\n")
        with pytest.raises(FormatError, match=r"ends.csv:4: bad record 'hbt_b,x'"):
            tagio.read_csv(path)

    def test_long_fields_with_leading_zeros(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text(
            "channel,timestamp_ps\n"
            "hbt_a,-0009223372036854775808\n"
            "hbt_a,0000000000000000012\n"  # 19 digits
            "hbt_a,00000000000000000034\n"  # 20 digits
            "hbt_b,+00000000000000000000000\n"
            "hbt_b,0009223372036854775807\n"
        )
        loaded = tagio.read_csv(path)
        assert loaded.channels[Channel.HBT_A].tolist() == [-(2**63), 12, 34]
        assert loaded.channels[Channel.HBT_B].tolist() == [0, 2**63 - 1]

    def test_int64_edges(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("channel,timestamp_ps\nhbt_a,-9223372036854775808\nhbt_a,9223372036854775807\n")
        assert tagio.read_csv(path).channels[Channel.HBT_A].tolist() == [-(2**63), 2**63 - 1]
        for value in ("9223372036854775808", "-9223372036854775809"):
            path.write_text(f"channel,timestamp_ps\nhbt_a,5\nhbt_b,{value}\n")
            with pytest.raises(FormatError, match=rf"edges.csv:3: bad record 'hbt_b,{value}'"):
                tagio.read_csv(path)

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("channel,timestamp_ps\n")
        loaded = tagio.read_csv(path)
        assert all(arr.size == 0 and arr.dtype == np.int64 for arr in loaded.channels.values())
        assert loaded.duration == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,channel\nhbt_a,5\n")
        with pytest.raises(FormatError, match="bad CSV header"):
            tagio.read_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_bytes(b"channel,timestamp_ps\nhbt_a,5\n\xff\xfe,6\n")
        with pytest.raises(FormatError):
            tagio.read_tags(path)


class TestDispatch:
    def test_read_tags_detects_format(self, sample_stream, tmp_path):
        bin_path = tmp_path / "t.bin"
        csv_path = tmp_path / "t.csv"
        tagio.write_binary(sample_stream, bin_path)
        tagio.write_csv(sample_stream, csv_path)
        for path in (bin_path, csv_path):
            loaded = tagio.read_tags(path)
            for ch in Channel:
                np.testing.assert_array_equal(loaded.channels[ch], sample_stream.channels[ch])

    def test_inferred_duration(self, tmp_path):
        stream = TagStream(
            channels={
                Channel.HERALD_TRIGGER: np.array([100], dtype=np.int64),
                Channel.HBT_A: np.array([250], dtype=np.int64),
                Channel.HBT_B: np.empty(0, dtype=np.int64),
            },
            duration=1_000,
        )
        path = tmp_path / "t.bin"
        tagio.write_binary(stream, path)
        assert tagio.read_binary(path).duration == 251
        assert tagio.read_binary(path, duration=1_000).duration == 1_000

    @pytest.mark.parametrize("write, read", [(tagio.write_binary, tagio.read_binary),
                                             (tagio.write_csv, tagio.read_csv)])
    def test_given_duration_must_exceed_the_last_herald(self, tmp_path, write, read):
        # HBT tags lag their pulse by the signal delay, so they may lie past the duration
        stream = stream_of({Channel.HERALD_TRIGGER: [0, 12_500], Channel.HBT_A: [25_000, 37_500],
                            Channel.HBT_B: [40_000]})
        path = tmp_path / "t"
        write(stream, path)
        with pytest.raises(ParameterError, match="duration 12500 ps must exceed the last herald at 12500 ps"):
            read(path, duration=12_500)
        assert read(path, duration=12_501).duration == 12_501


class TestTimeOrder:
    def test_csv_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "disorder.csv"
        path.write_text("channel,timestamp_ps\nhbt_a,100\nhbt_b,50\nhbt_a,90\n")
        with pytest.raises(FormatError, match="hbt_a timestamps are not in time order"):
            tagio.read_csv(path)

    def test_binary_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "disorder.bin"
        for channels, times, message in (
            # a channel's own times decrease
            ([Channel.HERALD_TRIGGER, Channel.HERALD_TRIGGER, Channel.HBT_A], [200, 100, 300],
             "herald_trigger timestamps are not in time order"),
            # each channel in order, but a record earlier than the one before it
            ([Channel.HBT_A, Channel.HERALD_TRIGGER, Channel.HBT_B], [10, 5, 7],
             "record 1 is earlier than the record before it"),
        ):
            records = np.zeros(3, dtype=tagio.RECORD_DTYPE)
            records["channel"] = [int(ch) for ch in channels]
            records["timestamp"] = times
            path.write_bytes(b"HSIMTAGS" + np.uint32(1).tobytes() + np.uint32(0).tobytes() + records.tobytes())
            with pytest.raises(FormatError, match=message):
                tagio.read_binary(path)

    def test_interleaved_channels_accepted(self, tmp_path):
        # the CSV reader checks only that each channel's own times do not decrease
        path = tmp_path / "interleaved.csv"
        path.write_text("channel,timestamp_ps\nhbt_a,100\nhbt_b,50\nhbt_a,100\nhbt_b,60\n")
        loaded = tagio.read_csv(path)
        assert loaded.channels[Channel.HBT_A].tolist() == [100, 100]
        assert loaded.channels[Channel.HBT_B].tolist() == [50, 60]


@given(tag_streams)
@settings(max_examples=150, deadline=None)
def test_csv_writer_matches_reference(tmp_path_factory, stream):
    tmp = tmp_path_factory.mktemp("csvw")
    tagio.write_csv(stream, tmp / "new.csv")
    reference_write_csv(stream, tmp / "ref.csv")
    format_write_csv(stream, tmp / "format.csv", rows_per_write=7)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes() == (tmp / "format.csv").read_bytes()


def test_csv_writer_chunk_edges_match_reference(tmp_path):
    for n in (tagio._WRITE_CHUNK - 1, tagio._WRITE_CHUNK, 2 * tagio._WRITE_CHUNK + 1):
        stream = stream_of({Channel.HBT_A: np.arange(n) * 12_500, Channel.HBT_B: [7]})
        tagio.write_csv(stream, tmp_path / "new.csv")
        reference_write_csv(stream, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# any int64, with the extremes and the sign change weighted in; few distinct
# values, so that channels share times
int64_times = st.lists(
    st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1])), max_size=40
)
signed_streams = st.builds(
    lambda h, a, b: stream_of({Channel.HERALD_TRIGGER: h, Channel.HBT_A: a, Channel.HBT_B: b}),
    int64_times.map(sorted),
    int64_times.map(sorted),
    st.lists(st.sampled_from([-(2**63), -7, 0, 7, 2**63 - 1]), max_size=20).map(sorted),
)


@given(signed_streams, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_csv_round_trip_over_int64(tmp_path_factory, stream, chunk):
    path = tmp_path_factory.mktemp("csvrt") / "tags.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tagio, "_WRITE_CHUNK", chunk)
        tagio.write_csv(stream, path)
    reference_write_csv(stream, path.with_suffix(".ref"))
    assert path.read_bytes() == path.with_suffix(".ref").read_bytes()
    loaded = tagio.read_csv(path)
    for ch in Channel:
        assert loaded.channels[ch].dtype == np.int64
        np.testing.assert_array_equal(loaded.channels[ch], stream.channels[ch])


@given(st.one_of(tag_streams, signed_streams), st.integers(1, 7), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_csv_writer_row_blocks_match_reference(tmp_path_factory, stream, rows, chunk):
    # row blocks end inside pieces, at their ends and past them
    path = tmp_path_factory.mktemp("csvrows") / "tags.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tagio, "_CSV_ROWS", rows)
        mp.setattr(tagio, "_WRITE_CHUNK", chunk)
        tagio.write_csv(stream, path)
    reference_write_csv(stream, path.with_suffix(".ref"))
    assert path.read_bytes() == path.with_suffix(".ref").read_bytes()


def test_csv_writer_holds_one_piece_and_one_row_block(tmp_path):
    import tracemalloc

    # one piece of 2**16 records per channel, with 13-digit times
    times = np.arange(tagio._WRITE_CHUNK, dtype=np.int64) * 12_500 + 10**12
    stream = stream_of({Channel.HERALD_TRIGGER: times, Channel.HBT_A: times + 1, Channel.HBT_B: times + 2})
    tracemalloc.start()
    try:
        tagio.write_csv(stream, tmp_path / "piece.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = 3 * times.size
    assert (tmp_path / "piece.csv").read_bytes().count(b"\n") == rows + 1
    # merging the piece takes 29 bytes per record; formatting takes about
    # 120 bytes per row of one block (8.5 MB here), where formatting the
    # whole piece at once took 27 MB
    assert peak <= 32 * rows + 200 * tagio._CSV_ROWS


# few distinct times, so that channels share times at and around the cuts
tied_times = st.lists(st.integers(0, 12), max_size=40)
tied_streams = st.builds(
    lambda h, a, b: stream_of({Channel.HERALD_TRIGGER: h, Channel.HBT_A: a, Channel.HBT_B: b}),
    tied_times.map(sorted),
    tied_times.map(sorted),
    # one channel out of order, which the TagStream sorts
    tied_times,
)


@given(st.one_of(tag_streams, tied_streams), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_binary_writer_matches_reference(tmp_path_factory, stream, chunk):
    tmp = tmp_path_factory.mktemp("binw")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tagio, "_WRITE_CHUNK", chunk)
        tagio.write_binary(stream, tmp / "new.tags")
        tagio.write_csv(stream, tmp / "new.csv")
    records = np.frombuffer((tmp / "new.tags").read_bytes()[tagio.HEADER_SIZE :], dtype=tagio.RECORD_DTYPE)
    assert records.tobytes() == reference_records(stream).tobytes()
    reference_write_csv(stream, tmp / "ref.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def test_binary_writer_piece_edges_match_reference(tmp_path):
    for n in (tagio._WRITE_CHUNK - 1, tagio._WRITE_CHUNK, 2 * tagio._WRITE_CHUNK + 1):
        times = np.arange(n) * 12_500
        stream = stream_of({Channel.HERALD_TRIGGER: times[::3], Channel.HBT_A: times, Channel.HBT_B: times[::2] + 1})
        tagio.write_binary(stream, tmp_path / "new.tags")
        assert (tmp_path / "new.tags").read_bytes()[tagio.HEADER_SIZE :] == reference_records(stream).tobytes()


# one row: channel, increment over the channel's previous time, and the
# spelling of the timestamp (padding, '+' sign, leading zeros)
csv_rows = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(sorted(CHANNELS_BY_NAME)),
            st.integers(0, 2**40),
            st.sampled_from(["", " ", "\t"]),
            st.sampled_from(["", "+"]),
            st.integers(0, 3),
            st.sampled_from(["", " ", "\t"]),
        ),
        st.just(None),  # empty line
    ),
    max_size=60,
)


@given(csv_rows, st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=150, deadline=None)
def test_csv_reader_matches_reference(tmp_path_factory, rows, newline):
    last = {}
    lines = ["channel,timestamp_ps"]
    for row in rows:
        if row is None:
            lines.append("")
            continue
        name, step, pad_l, sign, zeros, pad_r = row
        last[name] = last.get(name, 0) + step
        lines.append(f"{name},{pad_l}{sign}{'0' * zeros}{last[name]}{pad_r}")
    path = tmp_path_factory.mktemp("csvr") / "tags.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    expected = reference_read_csv(path)
    loaded = tagio.read_csv(path)
    for ch in Channel:
        assert loaded.channels[ch].dtype == np.int64
        np.testing.assert_array_equal(loaded.channels[ch], expected[ch])


near_valid_rows = st.builds(
    "{},{}".format,
    st.sampled_from([*sorted(CHANNELS_BY_NAME), "hbt_c", "", " hbt_a", "hbt_a\0"]),
    st.text("0123456789+- \t\x0b\xa0._eE\0\u0665", max_size=22),
)


@given(st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=30), near_valid_rows))
@settings(max_examples=400, deadline=None)
def test_csv_reader_on_any_row(tmp_path_factory, row):
    """A row the grammar takes reads as the reference reads it; any other
    row raises FormatError naming its line, and so does every row the
    reference reader refused."""
    row = row.replace("\r", "").replace("\n", "")
    floor = "".join(f"{name},{-(2**63)}\n" for name in sorted(CHANNELS_BY_NAME))
    path = tmp_path_factory.mktemp("csvm") / "tags.csv"
    path.write_text(f"channel,timestamp_ps\n{floor}{row}\n", encoding="utf-8")
    try:
        expected = reference_read_csv(path)
    except (FormatError, OverflowError):
        expected = None
    if row == "" or tagio._csv_row_ok(row):
        assert expected is not None
        loaded = tagio.read_csv(path)
        for ch in Channel:
            np.testing.assert_array_equal(loaded.channels[ch], expected[ch])
    else:
        with pytest.raises(FormatError, match=":5: bad record"):
            tagio.read_csv(path)


def read_or_error(reader, path):
    try:
        return {int(ch): arr.tolist() for ch, arr in reader(path).channels.items()}
    except FormatError as exc:
        return str(exc)


# rows in the writer's form, with the longest fast field and the shortest
# slow one, and rows outside it
mixed_rows = st.one_of(
    st.builds("{},{}".format, st.sampled_from(sorted(CHANNELS_BY_NAME)), st.integers(-(10**18), 10**19)),
    near_valid_rows,
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.just(""),
)


@given(st.lists(mixed_rows, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_csv_reader_matches_loadtxt_reader(tmp_path_factory, rows, newline, last_newline):
    """The bulk reader returns what the np.loadtxt reader returned, or raises
    the same FormatError."""
    rows = [row.replace("\r", "").replace("\n", "") for row in rows]
    body = newline.join(["channel,timestamp_ps", *rows]) + (newline if last_newline else "")
    path = tmp_path_factory.mktemp("csvl") / "tags.csv"
    path.write_bytes(body.encode())
    assert read_or_error(tagio.read_csv, path) == read_or_error(loadtxt_read_csv, path)


def read_csv_with_block(path, block, duration=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tagio, "_CSV_BLOCK", block)
        return tagio.read_csv(path, duration)


# a row in the grammar: channel, increment over the channel's previous time,
# and the spelling of the timestamp, with non-ASCII whitespace and with
# padding or leading zeros that make the row longer than a small block
_pads = st.sampled_from(["", " ", "\t", "\xa0", "\u3000", " " * 70])
grammar_rows = st.tuples(st.sampled_from(sorted(CHANNELS_BY_NAME)), st.integers(0, 2**40), _pads,
                         st.sampled_from(["", "+"]), st.sampled_from([0, 1, 3, 80]), _pads)


@given(st.lists(st.tuples(st.one_of(grammar_rows, mixed_rows), st.sampled_from(["\n", "\r\n", "\r"])), max_size=30),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.integers(16, 64))
@settings(max_examples=300, deadline=None)
def test_csv_block_reader_matches_whole_file_readers(tmp_path_factory, rows, header_end, last_newline, block):
    """Blocks of 16 to 64 bytes cut rows, line ends and \\r\\n pairs anywhere,
    and rows longer than the block grow it; the block reader returns what the
    whole-file reader returns, or raises the same error."""
    last = {}
    text = "channel,timestamp_ps" + header_end
    for row, newline in rows:
        if isinstance(row, tuple):
            name, step, pad_l, sign, zeros, pad_r = row
            last[name] = last.get(name, 0) + step
            row = f"{name},{pad_l}{sign}{'0' * zeros}{last[name]}{pad_r}"
        text += row.replace("\r", "").replace("\n", "") + newline
    if not last_newline:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("csvb") / "tags.csv"
    path.write_bytes(text.encode())
    expected = outcome(lambda: whole_file_read_csv(path))
    assert outcome(lambda: read_csv_with_block(path, block)) == expected
    if not isinstance(expected[0], type):
        per_row = reference_read_csv(path)
        assert expected[1] == {int(ch): per_row[ch].tolist() for ch in Channel}


def test_csv_block_edges_at_every_offset(tmp_path):
    """Blocks of each size from 16 to 64 bytes put block edges at every offset
    of the file, so some fall inside a \\r\\n pair and some cut a row."""
    path = tmp_path / "edges.csv"
    rows = [f"hbt_a,{i}\r\n\r\nhbt_b,\xa0+{i}\rherald_trigger,0{i}\n" for i in range(30)]
    path.write_bytes(("channel,timestamp_ps\r\n" + "".join(rows) + "hbt_a, 99").encode())
    expected = outcome(lambda: whole_file_read_csv(path))
    assert expected[1][int(Channel.HBT_A)] == [*range(30), 99]
    for block in range(16, 65):
        assert outcome(lambda: read_csv_with_block(path, block)) == expected


@pytest.mark.parametrize("n_rows, block", [(40, 16), (40, 64), (100_000, None)])
def test_csv_bad_record_in_a_later_block_names_its_line(tmp_path, n_rows, block):
    path = tmp_path / "late.csv"
    rows = "".join(f"{CHANNEL_NAMES[Channel(i % 3)]},{10 * i}\r\n" for i in range(n_rows))
    path.write_bytes(f"channel,timestamp_ps\r\n{rows}\r\nhbt_b,x\r\nhbt_a,1\r\n".encode())
    if block is None:
        assert path.stat().st_size > tagio._CSV_BLOCK
        block = tagio._CSV_BLOCK
    message = rf"late.csv:{n_rows + 3}: bad record 'hbt_b,x'"
    with pytest.raises(FormatError, match=message):
        whole_file_read_csv(path)
    with pytest.raises(FormatError, match=message):
        read_csv_with_block(path, block)


def test_csv_utf8_checked_past_a_bad_record(tmp_path):
    """A file that is not UTF-8 is refused as such, even where a bad record comes before the bad byte."""
    path = tmp_path / "late.csv"
    path.write_bytes(b"channel,timestamp_ps\nhbt_a,x\n" + b"hbt_a,1\n" * 20 + b"\xff\n")
    with pytest.raises(FormatError, match="not a UTF-8 text file"):
        whole_file_read_csv(path)
    with pytest.raises(FormatError, match="not a UTF-8 text file"):
        read_csv_with_block(path, 16)


def test_csv_block_reader_holds_the_rows_and_one_block(tmp_path):
    import tracemalloc

    rng = np.random.default_rng(5)
    n = 250_000
    times = np.cumsum(rng.integers(1, 25_000, n))
    codes = rng.integers(0, 3, n)
    path = tmp_path / "rows.csv"
    tagio.write_csv(stream_of({ch: times[codes == int(ch)] for ch in Channel}), path)
    tracemalloc.start()
    try:
        stream = tagio.read_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(arr.size for arr in stream.channels.values()) == n
    # the converted rows take 9 bytes each and the channels 8 more; the rest
    # is the buffer and one block's temporaries
    assert peak <= 24 * n + 2 * tagio._CSV_BLOCK


def read_with_block(path, block, duration=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tagio, "_READ_BLOCK", block)
        return tagio.read_binary(path, duration)


def outcome(read):
    """A stream's duration and channels, or the class and text of the error it raised."""
    try:
        stream = read()
    except (FormatError, ParameterError) as exc:
        return type(exc), str(exc)
    return stream.duration, {int(ch): arr.tolist() for ch, arr in stream.channels.items()}


@given(st.one_of(tag_streams, tied_streams), st.sampled_from([1, 2, 3, 7]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_block_reader_round_trip(tmp_path_factory, stream, block, given_duration):
    path = tmp_path_factory.mktemp("blocks") / "tags.bin"
    tagio.write_binary(stream, path)
    heralds = stream.channels[Channel.HERALD_TRIGGER]
    duration = (int(heralds.max()) if heralds.size else 0) + 1 if given_duration else None
    expected = outcome(lambda: reference_read_binary(path, duration))
    assert outcome(lambda: read_with_block(path, block, duration)) == expected
    if not isinstance(expected[0], type):
        for ch in Channel:
            assert sorted(expected[1][int(ch)]) == sorted(stream.channels[ch].tolist())


def _faulted_file(path, n, fault, at):
    """A valid file of n records with one fault at record ``at``."""
    records = np.zeros(n, dtype=tagio.RECORD_DTYPE)
    records["channel"] = np.arange(n) % 3
    records["timestamp"] = np.arange(n) * 10 + 10
    extra = b""
    if fault == "reserved":
        records["reserved"][at, at % 3] = 1
    elif fault == "time":
        records["timestamp"][at] = 2**63 + at
    elif fault == "channel":
        records["channel"][at] = 3 + at % 5
    elif fault == "order":  # a channel's times decrease at record `at`, or at its next record
        records["timestamp"][at] = records["timestamp"][at - 3] - 1 if at >= 3 else records["timestamp"][at + 3] + 1
    elif fault == "interleave":  # records `at - 1` and `at` of two channels swap times; each channel stays in order
        records["timestamp"][at - 1 : at + 1] = records["timestamp"][at - 1 : at + 1][::-1].copy()
    elif fault == "truncated":
        extra = b"\0" * (1 + at % 11)
    path.write_bytes(b"HSIMTAGS" + np.uint32(1).tobytes() + np.uint32(0).tobytes() + records.tobytes() + extra)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("fault", ["reserved", "time", "channel", "order", "interleave", "truncated", "duration"])
def test_block_reader_rejections_on_block_edges(tmp_path, block, fault):
    n = 3 * block + 4
    for at in sorted({block - 1, block, block + 1, 2 * block - 1, 2 * block, n - 1} - {0}):
        path = tmp_path / f"{fault}{at}.bin"
        _faulted_file(path, n, "none" if fault == "duration" else fault, at)
        # a duration at or below the herald of record `at` (heralds sit at every third record)
        duration = 10 * (at - at % 3) + 10 if fault == "duration" else None
        expected = outcome(lambda: reference_read_binary(path, duration))
        assert isinstance(expected[0], type), (fault, at)
        assert outcome(lambda: read_with_block(path, block, duration)) == expected


def test_block_reader_holds_the_stream_and_one_block(tmp_path):
    import tracemalloc

    cfg = ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=1_000_000, seed=3,
                           herald_selection=HeraldSelection.exactly(1))
    path = tmp_path / "dense.tags"
    tagio.write_binary(run(cfg)[0], path)
    tracemalloc.start()
    try:
        stream = tagio.read_binary(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    decoded = sum(arr.nbytes for arr in stream.channels.values())
    assert decoded > 4e6
    assert peak <= decoded + 2 * 2**20
