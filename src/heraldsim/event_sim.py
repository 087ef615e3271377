"""Seeded time-tag Monte Carlo of the full herald-and-gate chain.

Pulse p sits at t_p = p * rep_period.  The simulator draws only the pulses
that hold at least one pair: the gaps between them are geometric with
p = 1 - p(0).  Each of them then takes one uniform, which draws its whole
outcome from a Walker alias table of the joint law, built once per run: the
pair number n, the idler click count c (the detection matrix, crosstalk
included) and, per HBT arm, whether no signal photon reaches it, photons
reach it but none passes a closed gate, or one does.  Given n the idler and
signal photons are independent, so the law is a product.  An accepted pulse
emits a HeraldTrigger tag at t_p and opens the modulator over
[t_p + latency, t_p + latency + gate_length); overlapping gates merge.
With ``retrigger = "ignore"`` a herald is dropped, with its tag and its
gate, when the gate of an earlier kept herald has opened at or before its
time and has not yet closed; a herald that comes before the pending gates
open is kept.  Heralds sit on the pulse grid, so the filter works in whole
pulses: a gate opened by the herald of pulse p has opened by pulse p + L,
L = ceil(latency / rep), and has closed by pulse p + R,
R = ceil((latency + gate_length) / rep).

Signal photons of pulse p reach the modulator after a fixed optical delay
(by default the smallest whole number of pulse periods >= latency, so the
heralded photons of a pulse meet their own gate just after it opens).  A
photon passes an open gate with probability 1 and a closed gate with the
extinction leakage 10**(-extinction_db / 10), and goes to HBT A with
probability q_a, to HBT B with q_b, or is lost.  So an arm clicks through
an open gate when a photon reaches it, and through a closed one when a
photon passes; a pulse's outcome and its gate state pick both clicks by one
lookup.  On the opening ramp of ``gate_rise_time`` each photon passes with
the ramp's transmission, and the clicks are drawn from their law given the
outcome.  Detectors register at most one click per pulse per channel, at the
modulator-arrival time; dark counts are independent Poisson processes.

Determinism: every random draw happens in per-batch streams keyed by
(seed, batch index), and batches are contiguous pulse ranges whose size
``_batch_pulses`` takes from the config alone (no caller picks it), so
identical configs produce bit-identical streams for any thread count.  The
gate-edge thinning of ``gate_rise_time`` draws from one stream per HBT
channel, keyed (seed, _RAMP_STREAM_TAG, channel), in time order.

A batch holds as many pulses as expect ``EVENT_BUDGET`` events, and at most
``DEFAULT_BATCH_SIZE``: an event is an occupied pulse, or any pulse when an
empty one heralds, or a dark count at either HBT channel.  So a batch's
working set is set by the events it draws, not by how sparse they are, and
a config with at most 1/8 event per pulse takes batches of
``DEFAULT_BATCH_SIZE`` pulses.

Gate state is resolved by a sequential stitching pass that takes the
batches in order as they are drawn and turns each into one segment of the
run, so memory is set by the event budget and the thread count, not by
the run length.  A segment ends at the next batch's first pulse; what a
later batch can still change (signal arrivals past the cut, the gates that
reach it, and the kept heralds a retrigger filter needs) is carried over.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .detector_model import detection_matrix
from .errors import ParameterError
from .feedforward import HeraldSelection
from .photon_stats import FAMILIES, required_n_max

#: Most pulses a batch holds.
DEFAULT_BATCH_SIZE = 1 << 20

#: Expected events a batch draws: a dense batch of them traced 4.1 MB, where
#: one of 2**20 pulses traced 10.3 MB.  The tag writers' pieces and
#: correlate's pair windows take their sizes from it.
EVENT_BUDGET = 1 << 17

#: Sub-stream tag of the gate-edge thinning draws, which take one stream per
#: HBT channel, keyed (seed, tag, channel); batch indices stay below it.
_RAMP_STREAM_TAG = 1 << 48

#: Occupied pulses a batch draws at a time: 2**14 took 4.7 ms against 5.6 ms
#: for 2**16 to find the occupied pulses of a dense batch of 2**20.
_SLICE = 1 << 14

#: Entries ``_select`` takes at a time.  ``np.compress`` builds an 8-byte
#: index of the entries a block selects.  On a dense run, 2**14-entry blocks
#: kept the traced peak within 0.1 MB of boolean indexing's, where 2**16
#: raised it by 0.5 MB; on 4e5 arrivals they took 1.4 against 1.3 ms.
_SELECT_BLOCK = 1 << 14

#: Heralds the retrigger filter takes at a time.
_RETRIGGER_BLOCK = 1 << 16

#: Pulses per herald, in a block of the retrigger filter, up to which it
#: ranks the block's heralds by prefix counts over its pulses rather than by
#: merges.  The two take equal time near 7 pulses per herald (2**16-herald
#: blocks, numpy 2.4), and the counts take 8 bytes per pulse.
_GRID_SPAN = 6

#: Most dark counts ``DEFAULT_BATCH_SIZE`` pulses may expect at one HBT
#: channel: their times take 32 MB, and the Poisson mean stays far inside the
#: int64 range.  A batch sized by its events holds far fewer.
_DARK_BUDGET = 1 << 22

#: Most entries the table of pulse outcomes may hold; each costs about 30
#: bytes.  Thermal mu = 128 with 16 pixels takes about 4e5.
_TABLE_BUDGET = 1 << 20


class Channel(IntEnum):
    HERALD_TRIGGER = 0
    HBT_A = 1
    HBT_B = 2


CHANNEL_NAMES = {
    Channel.HERALD_TRIGGER: "herald_trigger",
    Channel.HBT_A: "hbt_a",
    Channel.HBT_B: "hbt_b",
}
CHANNELS_BY_NAME = {name: ch for ch, name in CHANNEL_NAMES.items()}


class ConfigKey(NamedTuple):
    """One config field: where the config file keeps it and how its text reads."""

    section: str
    key: str
    field: str
    kind: str  # "float", "int", "ps" (a picosecond time), "str" or "selection"


#: Every ExperimentConfig field, in the order the run summary prints them.
CONFIG_KEYS = (
    ConfigKey("source", "mean_pairs_per_pulse", "mean_pairs_per_pulse", "float"),
    ConfigKey("source", "family", "source_family", "str"),
    ConfigKey("source", "rep_period", "rep_period", "ps"),
    ConfigKey("idler", "transmission", "idler_transmission", "float"),
    ConfigKey("idler", "pixels", "n_pixels", "int"),
    ConfigKey("idler", "crosstalk", "crosstalk", "float"),
    ConfigKey("idler", "selection", "herald_selection", "selection"),
    ConfigKey("modulator", "latency", "latency", "ps"),
    ConfigKey("modulator", "gate_length", "gate_length", "ps"),
    ConfigKey("modulator", "extinction_db", "extinction_db", "float"),
    ConfigKey("signal", "transmission", "signal_transmission", "float"),
    ConfigKey("signal", "hbt_splitting", "hbt_splitting", "float"),
    ConfigKey("signal", "hbt_efficiency", "hbt_efficiency", "float"),
    ConfigKey("signal", "dark_rate", "dark_rate", "float"),
    ConfigKey("signal", "signal_delay", "signal_delay", "ps"),
    ConfigKey("modulator", "retrigger", "retrigger", "str"),
    ConfigKey("modulator", "gate_rise_time", "gate_rise_time", "ps"),
    ConfigKey("run", "pulses", "n_pulses", "int"),
    ConfigKey("run", "seed", "seed", "int"),
)


def _check_pixels(n_pixels: int) -> int:
    """The idler pixel count, if the simulation takes it."""
    if not 1 <= n_pixels <= 16:
        raise ParameterError("n_pixels must lie in 1..16")
    return n_pixels


@dataclass(frozen=True)
class ExperimentConfig:
    """All physical and run parameters of the event simulation.

    Times are picosecond integers.  ``signal_delay=None`` resolves to the
    smallest multiple of the repetition period that is at least the
    feedforward latency, which keeps the tag streams pulse-aligned while
    letting heralded photons arrive inside their own gate.
    """

    mean_pairs_per_pulse: float
    n_pulses: int
    seed: int
    rep_period: int = 12_500
    source_family: str = "poissonian"
    idler_transmission: float = 0.7
    n_pixels: int = 4
    crosstalk: float = 0.025
    herald_selection: HeraldSelection = HeraldSelection.exactly(1)
    latency: int = 23_000
    gate_length: int = 80_000
    extinction_db: float = 10.2
    signal_transmission: float = 1.0
    hbt_splitting: float = 0.5
    hbt_efficiency: float = 1.0
    dark_rate: float = 100.0
    signal_delay: int | None = None
    retrigger: str = "extend"
    gate_rise_time: int = 0

    def __post_init__(self):
        for row in CONFIG_KEYS:
            value = getattr(self, row.field)
            if value is None and row.field == "signal_delay":
                continue
            if row.kind in ("int", "ps"):
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise ParameterError(f"{row.field} must be an integer, got {value!r}")
                object.__setattr__(self, row.field, int(value))
            elif row.kind == "float":
                if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                    raise ParameterError(f"{row.field} must be a real number, got {value!r}")
                object.__setattr__(self, row.field, float(value))
        if not (math.isfinite(self.mean_pairs_per_pulse) and self.mean_pairs_per_pulse >= 0):
            raise ParameterError("mean_pairs_per_pulse must be finite and >= 0")
        if self.n_pulses < 0:
            raise ParameterError("n_pulses must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be an unsigned 64-bit integer")
        if self.rep_period <= 0:
            raise ParameterError("rep_period must be > 0")
        if self.source_family not in FAMILIES:
            raise ParameterError(f"unknown source family {self.source_family!r}")
        for name in ("idler_transmission", "signal_transmission", "hbt_splitting", "hbt_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
        _check_pixels(self.n_pixels)
        if not 0.0 <= self.crosstalk < 1.0:
            raise ParameterError(f"crosstalk must lie in [0, 1), got {self.crosstalk!r}")
        if max(self.herald_selection.accepted_clicks) > self.n_pixels:
            raise ParameterError("herald selection exceeds the pixel count")
        if self.latency < 0 or self.gate_length < 0 or self.gate_rise_time < 0:
            raise ParameterError("latency, gate_length and gate_rise_time must be >= 0")
        if not self.extinction_db >= 0:
            raise ParameterError(f"extinction_db must be >= 0, got {self.extinction_db!r}")
        if not (math.isfinite(self.dark_rate) and self.dark_rate >= 0):
            raise ParameterError(f"dark_rate must be finite and >= 0, got {self.dark_rate!r}")
        if self.retrigger not in ("extend", "ignore"):
            raise ParameterError(f"retrigger must be 'extend' or 'ignore', got {self.retrigger!r}")
        if self.signal_delay is not None and self.signal_delay < 0:
            raise ParameterError("signal_delay must be >= 0")

    @property
    def leakage(self) -> float:
        """Closed-gate intensity transmission, 10**(-extinction_db / 10)."""
        if math.isinf(self.extinction_db):
            return 0.0
        return 10.0 ** (-self.extinction_db / 10.0)

    @property
    def resolved_signal_delay(self) -> int:
        if self.signal_delay is not None:
            return self.signal_delay
        return ((self.latency + self.rep_period - 1) // self.rep_period) * self.rep_period

    @property
    def duration(self) -> int:
        return self.n_pulses * self.rep_period

    def resolved(self) -> dict:
        """Field values in CONFIG_KEYS order, with the selection's label and the resolved signal delay."""
        values = {row.field: getattr(self, row.field) for row in CONFIG_KEYS}
        values["herald_selection"] = self.herald_selection.label
        values["signal_delay"] = self.resolved_signal_delay
        return values


def _falling_channels(segments) -> set:
    """The channels whose times decrease within or across these segments, taken in turn."""
    last, falling = {}, set()
    for segment in segments:
        for ch, times in segment.items():
            if times.size:
                if times[0] < last.get(ch, times[0]) or np.any(times[1:] < times[:-1]):
                    falling.add(ch)
                last[ch] = times[-1]
    return falling


class TagStream:
    """A replayable source of time tags, handed out in segments.

    A segment is a dict of one sorted int64 array (ps) per Channel, and no
    tag of a later segment lies before the segment's last time.  Given
    ``channels``, the stream is that one segment: a missing Channel becomes
    empty, a channel whose times decrease is sorted, and any other key is
    refused.  Otherwise ``source()`` starts a new generator of the segments,
    such as ``run``'s draw or a reader's record blocks, which may return the
    run's _Counters.  ``duration`` spans the pulses: every herald lies below
    it, while HBT tags lag their pulse by the signal delay and may lie up to
    that delay past it.
    """

    def __init__(self, channels: dict | None, duration: int, source=None):
        if channels is not None:
            if set(channels).difference(Channel):
                raise ParameterError(f"TagStream channels must be Channel members, got {list(channels)}")
            channels = {ch: np.asarray(channels.get(ch, ()), dtype=np.int64) for ch in Channel}
            for ch in _falling_channels([channels]):
                channels[ch] = np.sort(channels[ch])
            source = functools.partial(iter, [channels])
        self.duration = duration
        self._source = source
        self._ended = None  # (counts, counters) of the last replay taken to its end

    @property
    def channels(self) -> dict:
        """Every tag in one array per channel from a new replay: the one join, for tests and the benchmark only."""
        segments = [dict.fromkeys(Channel, np.empty(0, dtype=np.int64))] + list(self.segments())
        return {ch: np.concatenate([segment[ch] for segment in segments]) for ch in Channel}

    def segments(self):
        """The segments in time order, from a new replay of the source."""
        counts = dict.fromkeys(Channel, 0)
        replay = self._source()
        while True:
            try:
                segment = next(replay)
            except StopIteration as end:
                self._ended = counts, end.value
                return
            for ch in Channel:
                counts[ch] += segment[ch].size
            yield segment
            del segment  # let go of it before the next one is drawn

    def counts(self) -> dict:
        """Tags per channel, from the last replay taken to its end or, dropping its segments, a new one."""
        if self._ended is None:
            for _ in self.segments():
                pass
        return dict(self._ended[0])

    def counters(self) -> _Counters | None:
        """The run's counters, from the replay ``counts()`` reads; None for a stream that is not a run."""
        self.counts()
        return self._ended[1]


class _Counters(NamedTuple):
    """What a run leaves behind once every segment is drawn."""

    click_counts: np.ndarray
    heralds_accepted: int
    heralds_emitted: int


def _counter(name: str):
    return property(lambda self: getattr(self._stream.counters(), name))


class RunSummary:
    """Aggregate counters of one simulation run, read from its stream's ``counters()``."""

    def __init__(self, config: ExperimentConfig, stream: TagStream):
        self.config = config
        self._stream = stream

    n_pulses = property(lambda self: self.config.n_pulses)
    seed = property(lambda self: self.config.seed)
    duration = property(lambda self: self.config.duration)
    channel_counts = property(lambda self: self._stream.counts())
    click_counts = _counter("click_counts")  # pulses per idler click outcome 0..n_pixels
    heralds_accepted = _counter("heralds_accepted")  # pulses whose click outcome is in the selection
    heralds_emitted = _counter("heralds_emitted")  # trigger tags after the retrigger policy

    def as_text(self) -> str:
        lines = ["[run]"]
        lines.append(f"pulses = {self.n_pulses}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"duration_ps = {self.duration}")
        lines.append(f"heralds_accepted = {self.heralds_accepted}")
        lines.append(f"heralds_emitted = {self.heralds_emitted}")
        lines.append("")
        lines.append("[counts]")
        for ch in Channel:
            lines.append(f"{CHANNEL_NAMES[ch]} = {self.channel_counts[ch]}")
        lines.append("")
        lines.append("[clicks]")
        for k, count in enumerate(self.click_counts):
            lines.append(f"k{k} = {int(count)}")
        lines.append("")
        lines.append("[config]")
        # str of a Python float is its repr, so the floats read back exactly
        values = self.config.resolved()
        lines += [f"{row.field} = {values[row.field]}" for row in CONFIG_KEYS if row.section != "run"]
        return "\n".join(lines) + "\n"


def _rank(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, keys, "left")`` for sorted keys, by one merge.

    A stable sort of keys followed by values puts each key before the values
    equal to it, and the keys stay in their own order, so key i lands at
    position i plus the number of values below it.  The stable sort of two
    sorted runs is a single merge.  Against more than twice as many values
    as keys the binary search is the faster one, and it keeps the
    temporaries to the size of the keys.
    """
    if values.size > 2 * keys.size:
        return np.searchsorted(values, keys)
    order = np.argsort(np.concatenate((keys, values)), kind="stable")
    return np.flatnonzero(order < keys.size) - np.arange(keys.size)


def merged_gate_intervals(herald_times, latency: int, gate_length: int):
    """Union of [h + latency, h + latency + gate_length) as merged (starts, ends)."""
    h = np.asarray(herald_times, dtype=np.int64)
    if h.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    gaps = np.diff(h)
    if np.any(gaps < 0):
        raise ParameterError("herald times must be sorted ascending")
    # every gate has the same length, so the gate of the previous herald
    # ends last, and a gap longer than a gate starts a new interval
    cut = np.flatnonzero(gaps > gate_length)
    starts = np.concatenate((h[:1], h[cut + 1]))
    starts += latency
    ends = np.append(h[cut], h[-1])
    ends += latency + gate_length
    return starts, ends


def _open_mask(times: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Which of the sorted times lie inside one of the merged gates, and how many lie inside each gate."""
    # the gates are disjoint and ordered, so their edges, searched into the
    # times, cut the times into runs that are closed and open in turn
    edges = np.empty(2 * starts.size, dtype=np.int64)
    edges[0::2] = starts
    edges[1::2] = ends
    runs = np.diff(np.searchsorted(times, edges), prepend=0, append=times.size)
    state = np.zeros(runs.size, dtype=bool)
    state[1::2] = True
    # a copy, so the caller holds one count per gate rather than every run
    return np.repeat(state, runs), runs[1::2].copy()


def _on_ramp(arrivals, open_gate, starts, gate_counts, rise_time: int):
    """Open arrivals on the linear voltage ramp at the opening edge of a merged gate.

    ``open_gate`` and ``gate_counts`` are what ``_open_mask`` returns for the
    arrivals.  Returns the indices of the open arrivals less than
    ``rise_time`` after their gate's start, and the transmission the ramp
    gives each of them.
    """
    # the open arrivals come gate by gate, so each takes its gate's start
    # from the count of arrivals inside each gate
    index = np.flatnonzero(open_gate)
    factor = (arrivals[index] - np.repeat(starts, gate_counts)) / rise_time
    partial = factor < 1.0
    return index[partial], factor[partial]


def _retrigger_loop(pulses: np.ndarray, opens: int, closes: int) -> np.ndarray:
    """_retrigger_filter one herald at a time; it serves gates shorter than the latency."""
    kept = np.zeros(pulses.size, dtype=bool)
    pending = deque()  # per kept gate not yet open, the first pulse that sees it open
    open_until = -1  # the first pulse that sees every opened gate closed
    for lo in range(0, pulses.size, _RETRIGGER_BLOCK):
        chunk = pulses[lo : lo + _RETRIGGER_BLOCK].tolist()
        for i, p in enumerate(chunk, start=lo):
            while pending and pending[0] <= p:
                open_until = max(open_until, pending.popleft() - opens + closes)
            if p >= open_until:
                kept[i] = True
                pending.append(p + opens)
    return pulses[kept]


def _orbit(jump: np.ndarray) -> np.ndarray:
    """Sorted orbit of 0 under i -> jump[i], where jump[i] > i and jump[-1] == jump.size - 1.

    Pointer doubling (Wyllie 1979): after round k the marked set holds the
    first 2**k members of the orbit and ``jump`` maps i to its 2**k-th
    successor, so the whole orbit takes log2 of its length rounds.
    """
    sink = jump.size - 1
    on = np.zeros(jump.size, dtype=bool)
    on[0] = True
    members = np.zeros(1, dtype=np.int64)
    while True:
        on[jump[members]] = True
        if on[sink]:
            return np.flatnonzero(on[:sink])
        members = np.flatnonzero(on)
        jump = jump[jump]


def _grid_rank(block: np.ndarray):
    """``lambda keys: _rank(keys, block)`` for sorted pulse indices and sorted keys >= block[0].

    Over a span of pulses at most ``_GRID_SPAN`` times the block's size it
    counts the block's pulses below each pulse of the span once, and a key
    takes its count by one gather; a sparser block is merged with the keys.
    """
    p0 = int(block[0])
    span = int(block[-1]) - p0 + 1
    if span > _GRID_SPAN * block.size:
        return lambda keys: _rank(keys, block)
    # below[i]: pulses of the block below p0 + i; the sum runs in place,
    # since fresh pages cost more than the sum
    below = np.bincount(block - (p0 - 1), minlength=span + 1)
    np.cumsum(below, out=below)
    return lambda keys: below[np.minimum(keys - p0, span)]


def _retrigger_filter(pulses: np.ndarray, rep: int, latency: int, gate_length: int) -> np.ndarray:
    """Drop heralds that arrive while a previously accepted gate is open.

    Takes and returns sorted herald pulses; pulse p heralds at p * rep.  A
    herald is kept when no earlier kept herald's gate has opened and is
    still open at its time; heralds before a pending gate opens are kept.
    A gate opened at p * rep + latency has opened by pulse p + L, with
    L = ceil(latency / rep), and has closed by pulse p + R, with
    R = ceil((latency + gate_length) / rep).

    When gate_length >= latency the kept heralds come in bursts.  A burst
    starts at a head p that no earlier kept gate reaches and keeps every
    herald below pulse p + L; with p_last the last of them, the burst's
    gates cover [p * rep + latency, p_last * rep + latency + gate_length)
    without a hole, since the gaps inside the burst are below
    latency <= gate_length, so every herald in that span is dropped and the
    next head is the first herald at or after pulse p_last + R.  The heads
    are the orbit of the first herald under that map.  Shorter gates leave
    holes between a burst's gates, and heralds in a hole are kept, so that
    case runs the loop one herald at a time.
    """
    opens = -(-latency // rep)
    closes = -(-(latency + gate_length) // rep)
    if gate_length < latency:
        return _retrigger_loop(pulses, opens, closes)
    n = pulses.size
    steps = np.zeros(n + 1, dtype=np.int8)  # +1 at each burst's first herald, -1 past its last
    head = 0
    while head < n:
        # each block starts at a head, so its heads are the orbit of its first herald
        block = pulses[head : head + _RETRIGGER_BLOCK]
        rank = _grid_rank(block)
        last = np.maximum(np.arange(block.size), rank(block + opens) - 1)
        reach = block[last]
        reach += closes
        jump = np.append(np.maximum(last + 1, rank(reach)), block.size)
        heads = _orbit(jump)
        steps[head + heads[:-1]] += 1
        steps[head + last[heads[:-1]] + 1] -= 1
        # the last burst, and the span its gates block, may run past the block
        head += int(heads[-1])
        burst_end = max(head + 1, int(np.searchsorted(pulses, pulses[head] + opens)))
        steps[head] += 1
        steps[burst_end] -= 1
        head = max(burst_end, int(np.searchsorted(pulses, pulses[burst_end - 1] + closes)))
    return pulses[np.cumsum(steps[:-1], dtype=np.int8).view(bool)]


def _select(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values[mask]``, selected ``_SELECT_BLOCK`` entries at a time.

    Boolean indexing branches per entry, which costs most where the mask is
    unpredictable (3.8 ms against 1.0 ms for ``np.compress`` on 4e5 int64
    values and a 56 % mask); ``np.compress`` does not branch, but builds an
    index of every selected entry, so it takes one block at a time into the
    output.
    """
    out = np.empty(np.count_nonzero(mask), dtype=values.dtype)
    k = 0
    for lo in range(0, mask.size, _SELECT_BLOCK):
        part = mask[lo : lo + _SELECT_BLOCK]
        count = int(np.count_nonzero(part))
        np.compress(part, values[lo : lo + _SELECT_BLOCK], out=out[k : k + count])
        k += count
    return out


def _with_darks(signal: np.ndarray, dark: np.ndarray) -> np.ndarray:
    """The sorted signal tags with the dark counts merged in."""
    dark = np.sort(dark)
    return np.insert(signal, np.searchsorted(signal, dark), dark)


class _Batch(NamedTuple):
    """Draws for one pulse batch; the stitch pass turns each into one segment of the run."""

    herald_pulse: np.ndarray  # int64 pulses whose click outcome is accepted
    cand_pulse: np.ndarray  # int64 pulses with a signal photon at HBT A or B through an open gate
    cand_entry: np.ndarray  # int32 _Outcomes entry of each candidate
    click_hist: np.ndarray  # int64 pulses per idler click outcome 0..n_pixels
    darks: tuple  # int64 dark-count times at HBT A and at HBT B


def _geometric(rng: np.random.Generator, p: float, count: int, cap: int) -> np.ndarray:
    """Geometric variates on {1, 2, ...} with success probability p, clipped at cap.

    Inversion, G = 1 + floor(log(1 - U) / log(1 - p)), costs one uniform and
    one logarithm per variate; ``rng.geometric`` searches instead for
    p >= 1/3 and takes about three times as long at p = 0.4.  At p = 1 every
    quotient is 0.  The clip comes before the integer cast, because for p
    near 0 the quotient exceeds int64.
    """
    y = np.log1p(-rng.random(count))
    y /= math.log1p(-p) if p < 1.0 else -math.inf
    np.minimum(y, cap - 1, out=y)
    return 1 + y.astype(np.int64)


def _occupied_pulses(rng: np.random.Generator, p_occ: float, size: int) -> np.ndarray:
    """Sorted int32 offsets in [0, size) of the pulses that hold at least one pair.

    Each pulse is occupied independently with probability p_occ, so the gaps
    between occupied pulses are geometric and only occupied pulses cost a
    draw (Devroye, Non-Uniform Random Variate Generation, ch. X).  A round
    draws its gaps ``_SLICE`` at a time; once the batch end is passed, the
    rest of the round's uniforms are drawn and dropped, so the stream does
    not depend on the slicing.
    """
    found = []
    last = -1  # offset of the last occupied pulse found so far
    while p_occ > 0.0 and last < size - 1:
        left = size - 1 - last
        expected = left * p_occ
        n = int(min(left, expected + 5.0 * math.sqrt(expected) + 16.0))
        for lo in range(0, n, _SLICE):
            count = min(_SLICE, n - lo)
            if last >= size:
                rng.random(count)
                continue
            # a gap of left + 1 already passes the batch end, so the clip keeps the sum exact
            pos = last + np.cumsum(_geometric(rng, p_occ, count, left + 1))
            found.append(pos[: np.searchsorted(pos, size)].astype(np.int32))
            last = int(pos[-1])
    return np.concatenate(found) if found else np.empty(0, dtype=np.int32)


def _arm_law(config: ExperimentConfig, n, state, z_a=1.0, z_b=1.0):
    """E[z_a**a z_b**b; the HBT arms' states] for n pairs, a of whose photons reach HBT A and b HBT B.

    ``state`` is 3 * A state + B state.  An arm's state is 0 when no photon
    reaches it, 1 when photons reach it but none passes a closed gate, and 2
    when one does.  Each photon keeps both arms at or below (s_a, s_b) with
    a share of the arms that adds, so that case is a power of n, and the
    states themselves are its differences over s_a and s_b.  At z_a = z_b = 1
    this is P(state | n).
    """
    q = config.signal_transmission * config.hbt_efficiency
    q_a, q_b, leak = q * config.hbt_splitting, q * (1.0 - config.hbt_splitting), config.leakage
    # an arm's share of a photon that keeps it at or below each state, from state -1 up
    share_a, share_b = (np.array([0.0, 0.0, x * (1.0 - leak), x]) for x in (q_a, q_b))
    lost = max(0.0, 1.0 - q_a - q_b)
    total = 0.0
    for d_a, d_b in itertools.product((0, 1), repeat=2):
        i_a, i_b = state // 3 + 1 - d_a, state % 3 + 1 - d_b
        term = (lost + z_a * share_a[i_a] + z_b * share_b[i_b]) ** n * ((i_a > 0) & (i_b > 0))
        total = total + term if d_a == d_b else total - term
    return total


def _alias(p: np.ndarray) -> tuple:
    """Walker's alias table of the weights p (Walker 1977; Vose 1991), built in vectorized rounds.

    Returns ``cut`` and ``alias``: with x uniform on [0, p.size) and
    i = floor(x), the draw is i when x < cut[i], else alias[i].  In a round
    every entry below the mean goes to the entry above it in whose share of
    the excess its own deficit starts; an entry that gives away more than
    its excess falls below the mean and waits for the next round.
    """
    q = p * (p.size / p.sum())
    prob = np.ones(p.size)
    alias = np.arange(p.size, dtype=np.int32)
    small, large = np.flatnonzero(q < 1.0), np.flatnonzero(q >= 1.0)
    while small.size and large.size:
        deficit = 1.0 - q[small]
        owner = np.searchsorted(np.cumsum(q[large] - 1.0), np.cumsum(deficit) - deficit, side="right")
        # round-off can leave a deficit past the last excess; that entry keeps its own slot
        fits = owner < large.size
        small, owner, deficit = small[fits], owner[fits], deficit[fits]
        prob[small] = q[small]
        alias[small] = large[owner]
        q[large] -= np.bincount(owner, weights=deficit, minlength=large.size)
        small, large = large[q[large] < 1.0], large[q[large] >= 1.0]
    return np.arange(p.size) + prob, alias


class _Outcomes(NamedTuple):
    """The joint law of what an occupied pulse does, as an alias table over its outcomes.

    An outcome is (n, c, A state, B state): n >= 1 pairs, c idler clicks and
    the HBT arms' states of ``_arm_law``.  Entry ((n - 1) * (n_pixels + 1)
    + c) * 9 + 3 * A state + B state has the probability
    p(n | n >= 1) * detection_matrix[n, c] * P(A state, B state | n).
    """

    p_occ: float  # probability that a pulse holds a pair
    cut: np.ndarray  # float64 and int32 alias arrays, see _alias
    alias: np.ndarray
    heralded: np.ndarray  # bool per entry: its click count is in the selection
    candidate: np.ndarray  # bool per entry: a photon reaches HBT A or B
    # uint8 per entry and gate state, at 2 * entry + open: bit 0 a click at
    # HBT A, bit 1 at HBT B; a closed gate passes only arms in state 2
    hbt: np.ndarray


def _outcomes(config: ExperimentConfig) -> _Outcomes:
    """The run's outcome table; the source law is cut where its tail mass falls below TAIL_MASS_TOL."""
    mu = config.mean_pairs_per_pulse
    n_max = max(1, required_n_max(mu, config.source_family))
    if n_max * (config.n_pixels + 1) * 9 > _TABLE_BUDGET:
        raise ParameterError(f"mean_pairs_per_pulse {mu!r} expects more than {_TABLE_BUDGET} outcomes of a pulse, "
                             f"with {config.n_pixels} pixels")
    source = FAMILIES[config.source_family](mu, n_max).probs[1:]
    if not source.any():  # mu = 0: no pulse is occupied, so the law is never drawn
        source = np.eye(1, n_max)[0]
    clicks = detection_matrix(config.idler_transmission, config.n_pixels, config.crosstalk, n_max).entries[1:]
    states = np.arange(9)
    # every term is a probability; the differences of _arm_law may round below 0
    arms = np.maximum(_arm_law(config, np.arange(1, n_max + 1)[:, None], states), 0.0)
    cut, alias = _alias((source[:, None, None] * clicks[:, :, None] * arms[:, None, :]).ravel())
    accept = np.zeros(config.n_pixels + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    a, b = np.divmod(states, 3)
    hbt = np.stack(((a == 2) + 2 * (b == 2), (a > 0) + 2 * (b > 0)), axis=1).astype(np.uint8)  # closed, open
    return _Outcomes(
        p_occ=mu / (1.0 + mu) if config.source_family == "thermal" else -math.expm1(-mu),
        cut=cut,
        alias=alias,
        heralded=np.repeat(np.tile(accept, n_max), 9),
        candidate=np.tile(a + b > 0, n_max * (config.n_pixels + 1)),
        hbt=np.tile(hbt, (n_max * (config.n_pixels + 1), 1)).ravel(),
    )


def _draw_outcomes(rng: np.random.Generator, table: _Outcomes, count: int) -> np.ndarray:
    """int32 outcome entries of ``count`` occupied pulses, one uniform each, ``_SLICE`` at a time."""
    entry = np.empty(count, dtype=np.int32)
    for lo in range(0, count, _SLICE):
        x = rng.random(min(_SLICE, count - lo))
        x *= table.cut.size
        i = x.astype(np.int32)
        np.copyto(entry[lo : lo + _SLICE], np.where(x < table.cut[i], i, table.alias[i]))
    return entry


def _ramp_hbt(config: ExperimentConfig, entry: np.ndarray, factor: np.ndarray, ramp: list) -> np.ndarray:
    """``_Outcomes.hbt`` codes of open arrivals on a gate's ramp, where each photon passes with probability ``factor``.

    An arm clicks when one of the photons that reach it passes.  Each
    arrival takes one uniform from each arm's ramp stream: A's decides A's
    click, and B's B's click given A's.
    """
    n, state = np.divmod(entry, 9)
    n = n // (config.n_pixels + 1) + 1
    one, z = np.ones_like(factor), 1.0 - factor
    p, dark_a, dark_b, dark = _arm_law(config, n, state, np.stack((one, z, one, z)), np.stack((one, one, z, z)))
    u_a, u_b = (rng.random(entry.size) for rng in ramp)
    click_a = u_a * p >= dark_a
    # B stays dark with probability dark / dark_a after no click at A, and (dark_b - dark) / (p - dark_a) after one
    click_b = np.where(click_a, u_b * (p - dark_a) >= dark_b - dark, u_b * dark_a >= dark)
    return (click_a + 2 * click_b).astype(np.uint8)


def _simulate_batch(config: ExperimentConfig, table: _Outcomes, batch_index: int, start: int, size: int) -> _Batch:
    """All random draws for pulses [start, start + size); no gate logic here."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    occ = _occupied_pulses(rng, table.p_occ, size)
    entry = _draw_outcomes(rng, table, occ.size)
    click_hist = np.bincount(entry, minlength=table.cut.size).reshape(-1, config.n_pixels + 1, 9).sum(axis=(0, 2))
    click_hist[0] += size - occ.size

    cand = table.candidate[entry]
    cand_pulse = _select(cand, occ).astype(np.int64)
    cand_pulse += start
    cand_entry = _select(cand, entry)
    herald_occ = _select(table.heralded[entry], occ)
    del cand, entry
    if table.heralded[0]:  # no click is a herald, so every empty pulse is one
        empty = np.setdiff1d(np.arange(size, dtype=np.int32), occ, assume_unique=True)
        herald_occ = np.sort(np.concatenate([herald_occ, empty]))
    herald_pulse = herald_occ.astype(np.int64)
    herald_pulse += start
    del herald_occ

    # dark counts over this batch's time span, A's drawn first
    span = size * config.rep_period
    t0 = start * config.rep_period
    lam = config.dark_rate * span * 1e-12
    darks = tuple(t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64) for _ in range(2))
    return _Batch(herald_pulse, cand_pulse, cand_entry, click_hist, darks)


def _batch_pulses(config: ExperimentConfig, table: _Outcomes) -> int:
    """Pulses per batch: as many as expect ``EVENT_BUDGET`` events, within [1, DEFAULT_BATCH_SIZE].

    A pulse expects ``p_occ`` occupied pulses, or one herald when an empty
    pulse heralds, and the dark counts of both HBT channels.
    """
    events = 1.0 if table.heralded[0] else table.p_occ
    events += 2 * config.dark_rate * config.rep_period * 1e-12
    if events * DEFAULT_BATCH_SIZE <= EVENT_BUDGET:
        return DEFAULT_BATCH_SIZE
    return max(1, int(EVENT_BUDGET // events))


def _batches(config: ExperimentConfig, table: _Outcomes, threads: int, batch_size: int, n_batches: int):
    """The run's batches in order, with at most ``threads`` + 1 of them drawn and not yet stitched.

    ``ThreadPoolExecutor.map`` would submit every batch up front, so the
    futures are submitted by hand, ``threads`` ahead of the one handed out.
    """
    jobs = ((i, i * batch_size, min(batch_size, config.n_pulses - i * batch_size)) for i in range(n_batches))
    if threads == 1 or n_batches <= 1:
        for job in jobs:
            yield _simulate_batch(config, table, *job)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for job in jobs:
            ahead.append(pool.submit(_simulate_batch, config, table, *job))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _segments(config: ExperimentConfig, table: _Outcomes, threads: int, batch_size: int, n_batches: int):
    """Stitch the run batch by batch; yields one segment per batch and returns the _Counters.

    A segment ends at the next batch's first pulse time, which every herald
    and dark count of its batch lies below.  Signal arrivals at or past that
    cut wait, with their outcomes, for a later segment, because a later
    herald's gate may still cover them.  Carried from one segment to the
    next are the merged gates that reach the cut and, for the retrigger
    filter, the kept heralds whose gates reach past it.
    """
    rep = config.rep_period
    delay = config.resolved_signal_delay
    latency, gate_length = config.latency, config.gate_length
    ignore = config.retrigger == "ignore"
    hbt = (Channel.HBT_A, Channel.HBT_B)
    ramp = [np.random.default_rng(np.random.SeedSequence((config.seed, _RAMP_STREAM_TAG, int(ch)))) for ch in hbt]
    empty = np.empty(0, dtype=np.int64)
    kept_tail = starts = ends = empty  # kept_tail holds pulses, the gates times
    waiting = (empty, np.empty(0, dtype=np.int32))  # arrivals and their outcome entries
    click_counts = np.zeros(config.n_pixels + 1, dtype=np.int64)
    accepted = emitted = 0

    batches = _batches(config, table, threads, batch_size, n_batches)
    for index in range(n_batches):
        batch = next(batches)
        click_counts += batch.click_hist
        heralds = batch.herald_pulse
        accepted += heralds.size
        if ignore:
            # a kept herald stays kept when only its predecessors whose gates
            # reach this batch are filtered with it
            heralds = _retrigger_filter(np.concatenate((kept_tail, heralds)), rep, latency, gate_length)
            heralds = heralds[kept_tail.size :]
            kept_tail = np.concatenate((kept_tail, heralds))
        heralds = np.multiply(heralds, rep, out=heralds)
        emitted += heralds.size
        new_starts, new_ends = merged_gate_intervals(heralds, latency, gate_length)
        if ends.size and new_starts.size and new_starts[0] <= ends[-1]:
            new_starts[0] = starts[-1]  # the first new gate extends the last carried one
            starts, ends = starts[:-1], ends[:-1]
        starts, ends = np.concatenate((starts, new_starts)), np.concatenate((ends, new_ends))

        arrivals = np.multiply(batch.cand_pulse, rep, out=batch.cand_pulse)
        arrivals += delay
        # the waiting arrivals all come before this batch's, and either part
        # may reach past the cut
        parts = [waiting, (arrivals, batch.cand_entry)]
        cut = None if index == n_batches - 1 else (index + 1) * batch_size * rep
        n_now = [part[0].size if cut is None else int(np.searchsorted(part[0], cut)) for part in parts]
        picked = []  # per part, the arrivals with a click at A and at B
        for part, n in zip(parts, n_now):
            arrivals, entry = (column[:n] for column in part)
            open_gate, gate_counts = _open_mask(arrivals, starts, ends)
            code = table.hbt[2 * entry + open_gate]
            if config.gate_rise_time > 0:
                partial, factor = _on_ramp(arrivals, open_gate, starts, gate_counts, config.gate_rise_time)
                code[partial] = _ramp_hbt(config, entry[partial], factor, ramp)
            del open_gate, gate_counts
            picked.append([_select(clicked.view(bool), arrivals) for clicked in (code & 1, code >> 1)])
        waiting = tuple(np.concatenate((early[n_now[0] :], late[n_now[1] :])) for early, late in zip(*parts))
        darks = batch.darks
        del batch, parts, part, arrivals, entry, code
        segment = {Channel.HERALD_TRIGGER: heralds}
        for ch, tags, dark in zip(hbt, zip(*picked), darks):
            segment[ch] = _with_darks(np.concatenate(tags), dark)
        del picked, tags, dark
        yield segment
        del segment, heralds, darks

        if cut is not None:
            # a gate that ends before the cut covers nothing after it
            keep = int(np.searchsorted(ends, cut))
            starts, ends = starts[keep:].copy(), ends[keep:].copy()
            # the kept heralds (pulses) whose gates end past the cut
            reach_cut = (cut - latency - gate_length) // rep
            kept_tail = kept_tail[np.searchsorted(kept_tail, reach_cut, side="right") :].copy()
            del new_starts, new_ends
    return _Counters(click_counts, accepted, emitted)


def run(config: ExperimentConfig, threads: int = 1):
    """Simulate the configured run, in batches of ``_batch_pulses`` pulses.

    Returns:
        (TagStream, RunSummary) at once.  The run is drawn and stitched
        batch by batch as the stream's segments are taken; see TagStream
        for what else draws it.  Output is bit-identical for any
        ``threads`` value; see the module docstring for the determinism
        contract.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    delay = config.resolved_signal_delay
    horizon = config.duration + delay + config.latency + config.gate_length
    if horizon >= 2**63:
        raise ParameterError("timestamp range overflows 64-bit picoseconds; reduce n_pulses")
    if config.dark_rate * (min(DEFAULT_BATCH_SIZE, config.n_pulses) * config.rep_period) * 1e-12 > _DARK_BUDGET:
        raise ParameterError(f"dark_rate {config.dark_rate!r} gives more dark counts per batch than {_DARK_BUDGET}")
    table = _outcomes(config)
    batch_size = _batch_pulses(config, table)
    # a run of zero pulses still makes one empty batch, which gives every
    # channel its dtype
    n_batches = max(1, (config.n_pulses + batch_size - 1) // batch_size)
    if n_batches >= _RAMP_STREAM_TAG:
        raise ParameterError("too many batches")
    stream = TagStream(None, config.duration, functools.partial(_segments, config, table, threads, batch_size,
                                                                 n_batches))
    return stream, RunSummary(config, stream)
