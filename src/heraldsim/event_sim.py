"""Seeded time-tag Monte Carlo of the full herald-and-gate chain.

Pulse p sits at t_p = p * rep_period.  The simulator draws only the pulses
that hold at least one pair: the gaps between them are geometric with
p = 1 - p(0), and their pair numbers come from the source law conditioned
on n >= 1.  Each photon then gets its own draws.  An idler photon survives
the source-to-detector transmission T and lands on a uniform pixel; the
pixels it fires give the click count, which the per-event crosstalk upgrade
may raise by one, and the herald selection is evaluated on it.  An accepted
pulse emits a HeraldTrigger tag at t_p and opens the modulator over
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
extinction leakage 10**(-extinction_db / 10), then goes to HBT A with
probability q_a, to HBT B with q_b, or is lost.  One uniform per photon
decides both its detector and whether it passes a closed gate, so the
counts for either gate outcome, at either HBT arm, come from the same draw.
The two arms differ only in their thresholds, and from the batch's draws to
the segment's tags the stitch treats HBT A and B as two rows of one block.
Only photons with a uniform below q_a + q_b can reach a detector; when they
are a small share of all photons, the batch reduces those candidate photons
alone, each found in its pulse by a search, rather than every photon.  A
lossless arm, q_a + q_b = 1, makes every photon a candidate: then every
occupied pulse is kept, with its photon number as its count at the top
threshold, and only the three lower thresholds are counted.
Detectors register at most one click per pulse per channel, at the
modulator-arrival time; dark counts are independent Poisson processes.

Determinism: every random draw happens in per-batch streams keyed by
(seed, batch index), and batches are fixed-size contiguous pulse ranges, so
identical configs produce bit-identical streams for any thread count.  The
gate-edge thinning of ``gate_rise_time`` draws from one stream per HBT
channel, keyed (seed, _RAMP_STREAM_TAG, channel), in time order.

Gate state is resolved by a sequential stitching pass that takes the
batches in order as they are drawn and turns each into one segment of the
run, so memory is set by the batch size and the thread count, not by the
run length.  A segment ends at the next batch's first pulse; what a later
batch can still change (signal arrivals past the cut, the gates that reach
it, and the kept heralds a retrigger filter needs) is carried over.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .feedforward import HeraldSelection
from .photon_stats import FAMILIES, poissonian, required_n_max

DEFAULT_BATCH_SIZE = 1 << 20

#: Sub-stream tag of the gate-edge thinning draws, which take one stream per
#: HBT channel, keyed (seed, tag, channel); batch indices stay below it.
_RAMP_STREAM_TAG = 1 << 48

#: Photons, or occupied pulses, a batch draws and reduces at a time.
_SLICE = 1 << 16

#: Share of photons, q_a + q_b, below which the signal arm reduces only the
#: photons that reach a detector rather than every photon.  The two
#: reductions take equal time near 1/3 for thermal mu = 1 and near 0.4 for
#: Poissonian mu = 0.5 (one batch of 2**20 pulses, numpy 2.4).  At a share
#: of 1, a lossless arm, neither is used: every pulse is kept and its photon
#: number is its top count.
_SPARSE_SIGNAL = 1 / 3

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

#: Largest mean ``Generator.poisson`` draws: the int64 range less a 10-sigma margin.
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

#: Most photons a batch may expect; each costs about 20 bytes of draws.
_PHOTON_BUDGET = 1 << 27


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
        if not 1 <= self.n_pixels <= 16:
            raise ParameterError("n_pixels must lie in 1..16")
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


class TagStream:
    """Per-channel time-tag arrays (int64 ps, sorted).

    ``duration`` spans the pulses: every herald lies below it, while HBT tags
    lag their pulse by the signal delay and may lie up to that delay past it.
    Given ``channels``, a missing Channel becomes empty, a channel whose
    times decrease is sorted, and any other key is refused.

    A stream that ``run`` returns holds nothing of the run.  Each
    ``segments()`` draws the run anew and hands out its tags as per-channel
    dicts over disjoint, ascending spans of time, so a writer that takes
    them holds one segment at a time.  ``channels`` draws the run once and
    joins it; ``counters()`` drains a draw unless one has finished.
    """

    def __init__(self, channels: dict | None, duration: int, draw=None):
        if channels is not None:
            if set(channels).difference(Channel):
                raise ParameterError(f"TagStream channels must be Channel members, got {list(channels)}")
            channels = {ch: np.asarray(channels.get(ch, ()), dtype=np.int64) for ch in Channel}
            for ch, times in channels.items():
                if np.any(times[1:] < times[:-1]):
                    channels[ch] = np.sort(times)
        self._channels = channels
        self.duration = duration
        # draw() starts a generator of the run's segments that returns its _Counters
        self._draw_segments = draw
        self._counters = None

    @classmethod
    def _of_sorted(cls, channels: dict, duration: int) -> TagStream:
        """A stream of int64 arrays, one per Channel member, that are known to be sorted, taken as they are."""
        stream = cls(None, duration)
        stream._channels = channels
        return stream

    def _draw(self):
        self._counters = yield from self._draw_segments()

    @property
    def channels(self) -> dict:
        if self._channels is None:
            segments = list(self._draw())
            self._channels = {ch: np.concatenate([segment[ch] for segment in segments]) for ch in Channel}
        return self._channels

    def segments(self):
        """The tags as per-channel dicts over disjoint spans of time, in time order."""
        if self._channels is None:
            return self._draw()
        return iter([self._channels])

    def counters(self) -> _Counters:
        """The run's counters, from a draw that has finished or, dropping its segments, from a new one."""
        if self._counters is None:
            for _ in self._draw():
                pass
        return self._counters

    def counts(self) -> dict:
        if self._channels is None:
            return dict(self.counters().channel_counts)
        return {ch: int(arr.size) for ch, arr in self._channels.items()}


class _Counters(NamedTuple):
    """What a run leaves behind once every segment is drawn."""

    click_counts: np.ndarray
    heralds_accepted: int
    heralds_emitted: int
    channel_counts: dict


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
    channel_counts = _counter("channel_counts")
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
    # int32 (4, candidates) photons of each candidate, one row per channel
    # and gate state: A closed, A open, B closed, B open; so photons[0::2]
    # are the counts through a closed gate and photons[1::2] through an open one
    photons: np.ndarray
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


def _photon_numbers(rng: np.random.Generator, config: ExperimentConfig, count: int) -> np.ndarray:
    """Pair numbers of occupied pulses: the source law conditioned on n >= 1."""
    mu = config.mean_pairs_per_pulse
    n = np.ones(count, dtype=np.int64)
    if config.source_family == "thermal":
        # no memory holds 2**62 photons, so the clip changes no run that can finish
        for lo in range(0, count, _SLICE):
            n[lo : lo + _SLICE] = _geometric(rng, 1.0 / (1.0 + mu), min(_SLICE, count - lo), 2**62)
        return n
    # inversion by sequential search on the table cut where the tail mass
    # falls below photon_stats.TAIL_MASS_TOL
    cdf = np.cumsum(poissonian(mu, max(1, required_n_max(mu))).probs[1:])
    for lo in range(0, count, _SLICE):
        x = rng.random(min(_SLICE, count - lo)) * cdf[-1]
        _count_edges(x, cdf[:-1], n[lo : lo + _SLICE])
    return n


def _count_edges(x: np.ndarray, edges: np.ndarray, out: np.ndarray) -> None:
    """Add to ``out`` the number of the sorted ``edges`` at or below each of the non-empty ``x``.

    An edge above ``x.max()`` adds nothing, so the search stops at the last
    edge at or below it.
    """
    for edge in edges[: np.searchsorted(edges, x.max(), "right")]:
        out += x >= edge


def _segment_counts(flags: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Number of set flags in each segment; segment i ends at index last[i]."""
    totals = np.cumsum(flags, dtype=np.int32)[last]
    return np.diff(totals, prepend=np.int32(0))


def _signal_counts(v: np.ndarray, first: np.ndarray, pulses: np.ndarray, thresholds: tuple, sparse: bool,
                   out: list) -> int:
    """Reduce a photon slice to its pulses with a uniform below the top threshold; returns how many there are.

    ``v`` holds the slice's per-photon uniforms, ``first`` the index of each
    pulse's first photon and ``pulses`` the pulses themselves.  The rows of
    ``out`` take, from their start, the pulses kept and then their uniforms
    below each threshold.  With ``sparse`` only the photons below the top
    threshold are reduced, each found in its pulse by a search into
    ``first``; otherwise every photon is.  A top threshold of 1 or more is
    above every uniform, so then every pulse is kept and its top count is
    its photon number.
    """
    if sparse:
        index = np.flatnonzero(v < thresholds[-1])
        pulse = np.searchsorted(first, index, "right") - 1
        v = v[index]
        # where each pulse's candidates start, and past the last one's
        edges = np.flatnonzero(np.diff(pulse, prepend=-1, append=first.size))
        k = edges.size - 1
        np.take(pulses, pulse[edges[:-1]], out=out[0][:k])
        for row, threshold in zip(out[1:], thresholds[:-1]):
            row[:k] = _segment_counts(v < threshold, edges[1:] - 1)
        out[-1][:k] = np.diff(edges)
        return k
    last = np.append(first[1:], v.size) - 1
    counts = [_segment_counts(v < threshold, last) for threshold in thresholds[:-1]]
    if thresholds[-1] >= 1.0:
        k = first.size
        for row, values in zip(out, [pulses, *counts, np.diff(first, append=v.size)]):
            row[:k] = values
        return k
    counts.append(_segment_counts(v < thresholds[-1], last))
    keep = counts[-1] > 0
    k = int(np.count_nonzero(keep))
    for row, values in zip(out, [pulses, *counts]):
        np.compress(keep, values, out=row[:k])
    return k


def _photon_slices(ends: np.ndarray):
    """Photon slices of about ``_SLICE``, cut at pulse boundaries.

    ``ends`` holds the photon index past each pulse's last photon.  Yields
    the slice's pulses as (first, past the last), its photon count and the
    index of each pulse's first photon within the slice.
    """
    cuts = np.searchsorted(ends, np.arange(_SLICE, ends[-1] if ends.size else 0, _SLICE), side="right")
    cuts = np.unique(np.concatenate(([0], cuts, [ends.size])))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        base = int(ends[lo - 1]) if lo else 0
        first = np.empty(hi - lo, dtype=np.int64)
        first[0] = 0
        np.subtract(ends[lo : hi - 1], base, out=first[1:])
        yield lo, hi, int(ends[hi - 1]) - base, first


def _simulate_batch(config: ExperimentConfig, batch_index: int, start: int, size: int) -> _Batch:
    """All random draws for pulses [start, start + size); no gate logic here.

    Photons are laid out contiguously per occupied pulse, and every occupied
    pulse holds at least one, so no segment is empty.  The per-photon draws
    are taken and reduced one photon slice at a time, in photon order, so
    the working set is set by the occupied pulses, not the photons.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    n_pix = config.n_pixels
    mu = config.mean_pairs_per_pulse
    p_occ = mu / (1.0 + mu) if config.source_family == "thermal" else -math.expm1(-mu)
    occ = _occupied_pulses(rng, p_occ, size)
    ends = np.cumsum(_photon_numbers(rng, config, occ.size))

    # idler arm: a photon survives iff u < T, and then u / T is uniform on
    # [0, 1) and picks its pixel; index n_pix marks a lost photon
    t_idler = config.idler_transmission
    pixel_bit = np.zeros(n_pix + 1, dtype=np.uint16)
    pixel_bit[:n_pix] = 1 << np.arange(n_pix)
    fired = np.empty(occ.size, dtype=np.uint16)
    for lo, hi, n_photons, first in _photon_slices(ends):
        u = rng.random(n_photons)
        if t_idler > 0.0:
            u /= t_idler
            np.minimum(u, 1.0, out=u)
        else:
            u.fill(1.0)
        u *= n_pix
        fired[lo:hi] = np.bitwise_or.reduceat(pixel_bit[u.astype(np.uint8)], first)
    clicks = np.bitwise_count(fired)
    del fired
    for lo in range(0, clicks.size, _SLICE):
        part = clicks[lo : lo + _SLICE]
        part += (part >= 1) & (part <= n_pix - 1) & (rng.random(part.size) < config.crosstalk)

    click_hist = np.bincount(clicks, minlength=n_pix + 1)
    click_hist[0] += size - occ.size

    # signal arm, counted for both gate outcomes; the stitch pass picks one.
    # v < q_a reaches A, and given that v / q_a is uniform, so v < q_a * leak
    # also passes a closed gate; B takes [q_a, q_a + q_b) the same way.
    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    leak = config.leakage
    thresholds = (q_a * leak, q_a, q_a + q_b * leak, q_a + q_b)
    sparse = thresholds[-1] < _SPARSE_SIGNAL
    # candidates (pulses with a photon below q_a + q_b) and their photons
    # below each threshold, for the candidates found so far
    cand = np.empty(occ.size, dtype=np.int32)
    below = np.empty((4, occ.size), dtype=np.int32)
    n_cand = 0
    for lo, hi, n_photons, first in _photon_slices(ends):
        v = rng.random(n_photons)
        rows = [cand[n_cand:], *below[:, n_cand:]]
        n_cand += _signal_counts(v, first, occ[lo:hi], thresholds, sparse, rows)
    del ends
    cand_pulse = cand[:n_cand].astype(np.int64)
    cand_pulse += start
    del cand
    # the B thresholds count the photons at A too
    photons = below[:, :n_cand]
    photons[2:] -= photons[1]

    # the heralds draw nothing, so they are picked after the signal arm;
    # held through its slices, they would raise the batch's peak memory
    accept = np.zeros(n_pix + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    herald_occ = _select(accept[clicks], occ)
    del clicks
    if accept[0]:
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
    return _Batch(herald_pulse, cand_pulse, photons, click_hist, darks)


def _batches(config: ExperimentConfig, threads: int, batch_size: int, n_batches: int):
    """The run's batches in order, with at most ``threads`` + 1 of them drawn and not yet stitched.

    ``ThreadPoolExecutor.map`` would submit every batch up front, so the
    futures are submitted by hand, ``threads`` ahead of the one handed out.
    """
    jobs = ((i, i * batch_size, min(batch_size, config.n_pulses - i * batch_size)) for i in range(n_batches))
    if threads == 1 or n_batches <= 1:
        for job in jobs:
            yield _simulate_batch(config, *job)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for job in jobs:
            ahead.append(pool.submit(_simulate_batch, config, *job))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _segments(config: ExperimentConfig, threads: int, batch_size: int, n_batches: int):
    """Stitch the run batch by batch; yields one segment per batch and returns the _Counters.

    A segment ends at the next batch's first pulse time, which every herald
    and dark count of its batch lies below.  Signal arrivals at or past that
    cut wait, with their photon counts, for a later segment, because a later
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
    waiting = (empty, np.empty((4, 0), dtype=np.int32))  # arrivals and their photons
    click_counts = np.zeros(config.n_pixels + 1, dtype=np.int64)
    accepted = emitted = 0
    channel_counts = dict.fromkeys(Channel, 0)

    batches = _batches(config, threads, batch_size, n_batches)
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
        parts = [waiting, (arrivals, batch.photons)]
        cut = None if index == n_batches - 1 else (index + 1) * batch_size * rep
        n_now = [part[0].size if cut is None else int(np.searchsorted(part[0], cut)) for part in parts]
        picked = []  # per part, the arrivals with a click at A and at B
        for part, n in zip(parts, n_now):
            arrivals, photons = (column[..., :n] for column in part)
            open_gate, gate_counts = _open_mask(arrivals, starts, ends)
            counts = np.where(open_gate, photons[1::2], photons[0::2])
            if config.gate_rise_time > 0:
                partial, factor = _on_ramp(arrivals, open_gate, starts, gate_counts, config.gate_rise_time)
                for arm, ramp_rng in enumerate(ramp):
                    counts[arm, partial] = ramp_rng.binomial(counts[arm, partial], factor)
            # the counts go before the picks, which set the run's peak memory
            clicked = counts > 0
            del gate_counts, counts
            picked.append([_select(row, arrivals) for row in clicked])
        waiting = tuple(np.concatenate((early[..., n_now[0] :], late[..., n_now[1] :]), axis=-1)
                        for early, late in zip(*parts))
        darks = batch.darks
        del batch, parts, part, arrivals, photons, open_gate, clicked
        segment = {Channel.HERALD_TRIGGER: heralds}
        for ch, tags, dark in zip(hbt, zip(*picked), darks):
            segment[ch] = _with_darks(np.concatenate(tags), dark)
        del picked, tags, dark
        for ch in Channel:
            channel_counts[ch] += segment[ch].size
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
    return _Counters(click_counts, accepted, emitted, channel_counts)


def run(config: ExperimentConfig, threads: int = 1, batch_size: int = DEFAULT_BATCH_SIZE):
    """Simulate the configured run.

    Returns:
        (TagStream, RunSummary) at once.  The run is drawn and stitched
        batch by batch as the stream's segments are taken; see TagStream
        for what else draws it.  Output is bit-identical for any
        ``threads`` value; see the module docstring for the determinism
        contract.
    """
    if batch_size <= 0:
        raise ParameterError("batch_size must be > 0")
    if batch_size >= 2**31:
        raise ParameterError("batch_size must be below 2**31")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    delay = config.resolved_signal_delay
    horizon = config.duration + delay + config.latency + config.gate_length
    if horizon >= 2**63:
        raise ParameterError("timestamp range overflows 64-bit picoseconds; reduce n_pulses")
    if config.dark_rate * (min(batch_size, config.n_pulses) * config.rep_period) * 1e-12 > _POISSON_MAX_MEAN:
        raise ParameterError(f"dark_rate {config.dark_rate!r} gives more dark counts per batch than can be drawn")
    if config.mean_pairs_per_pulse * min(batch_size, config.n_pulses) > _PHOTON_BUDGET:
        raise ParameterError(f"mean_pairs_per_pulse {config.mean_pairs_per_pulse!r} expects more than "
                             f"{_PHOTON_BUDGET} photons in a batch of up to batch_size={batch_size} pulses")
    # a run of zero pulses still makes one empty batch, which gives every
    # channel its dtype
    n_batches = max(1, (config.n_pulses + batch_size - 1) // batch_size)
    if n_batches >= _RAMP_STREAM_TAG:
        raise ParameterError("too many batches")
    stream = TagStream(None, config.duration, functools.partial(_segments, config, threads, batch_size, n_batches))
    return stream, RunSummary(config, stream)
