import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim import Channel, ExperimentConfig, FormatError, HeraldSelection, TagStream, run
from heraldsim import tagio
from heraldsim.event_sim import CHANNEL_NAMES, CHANNELS_BY_NAME


# Reference implementations: the whole-file record merge that the writers'
# piecewise merge replaces, and the per-record CSV writer and reader that the
# chunked writer and the np.loadtxt reader replace.


def reference_records(stream):
    """Every record of the stream, ordered by time and then channel id."""
    times = [np.asarray(stream.channels.get(ch, ()), dtype=np.int64) for ch in Channel]
    t = np.concatenate(times)
    c = np.concatenate([np.full(arr.size, int(ch), dtype=np.uint8) for ch, arr in zip(Channel, times)])
    order = np.lexsort((c, t))
    records = np.zeros(t.size, dtype=tagio.RECORD_DTYPE)
    records["channel"] = c[order]
    records["timestamp"] = t[order].astype(np.uint64)
    return records


def reference_write_csv(stream, path):
    records = reference_records(stream)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("channel,timestamp_ps\n")
        names = {int(ch): name for ch, name in CHANNEL_NAMES.items()}
        for code, _, timestamp in records:
            fh.write(f"{names[int(code)]},{int(timestamp)}\n")


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


class TestTimeOrder:
    def test_csv_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "disorder.csv"
        path.write_text("channel,timestamp_ps\nhbt_a,100\nhbt_b,50\nhbt_a,90\n")
        with pytest.raises(FormatError, match="hbt_a timestamps are not in time order"):
            tagio.read_csv(path)

    def test_binary_out_of_order_rejected(self, tmp_path):
        records = np.zeros(3, dtype=tagio.RECORD_DTYPE)
        records["channel"] = [int(Channel.HERALD_TRIGGER), int(Channel.HERALD_TRIGGER), int(Channel.HBT_A)]
        records["timestamp"] = [200, 100, 300]
        path = tmp_path / "disorder.bin"
        path.write_bytes(b"HSIMTAGS" + np.uint32(1).tobytes() + np.uint32(0).tobytes() + records.tobytes())
        with pytest.raises(FormatError, match="herald_trigger timestamps are not in time order"):
            tagio.read_binary(path)

    def test_interleaved_channels_accepted(self, tmp_path):
        # only each channel's own times must not decrease
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
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def test_csv_writer_chunk_edges_match_reference(tmp_path):
    for n in (tagio._CSV_CHUNK - 1, tagio._CSV_CHUNK, 2 * tagio._CSV_CHUNK + 1):
        stream = stream_of({Channel.HBT_A: np.arange(n) * 12_500, Channel.HBT_B: [7]})
        tagio.write_csv(stream, tmp_path / "new.csv")
        reference_write_csv(stream, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# few distinct times, so that channels share times at and around the cuts
tied_times = st.lists(st.integers(0, 12), max_size=40)
tied_streams = st.builds(
    lambda h, a, b: stream_of({Channel.HERALD_TRIGGER: h, Channel.HBT_A: a, Channel.HBT_B: b}),
    tied_times.map(sorted),
    tied_times.map(sorted),
    # one channel out of order: the writers sort a channel they are handed unsorted
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
