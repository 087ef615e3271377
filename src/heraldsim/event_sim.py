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
open is kept.

Signal photons of pulse p reach the modulator after a fixed optical delay
(by default the smallest whole number of pulse periods >= latency, so the
heralded photons of a pulse meet their own gate just after it opens).  A
photon passes an open gate with probability 1 and a closed gate with the
extinction leakage 10**(-extinction_db / 10), then goes to HBT A with
probability q_a, to HBT B with q_b, or is lost.  One uniform per photon
decides both its detector and whether it passes a closed gate, so the
counts for either gate outcome come from the same draw.  Detectors register
at most one click per pulse per channel, at the modulator-arrival time; dark
counts are independent Poisson processes.

Determinism: every random draw happens in per-batch streams keyed by
(seed, batch index), and batches are fixed-size contiguous pulse ranges, so
identical configs produce bit-identical streams for any thread count.  Gate
state is resolved in a sequential stitching pass after all batches.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .feedforward import HeraldSelection
from .photon_stats import poissonian, required_n_max

DEFAULT_BATCH_SIZE = 1 << 20

#: Reserved sub-stream tag for the sequential gate-edge thinning pass; batch
#: indices must stay below this value.
_RAMP_STREAM_TAG = 1 << 48

#: Heralds the retrigger filter takes at a time.
_RETRIGGER_BLOCK = 1 << 16

#: Largest mean ``Generator.poisson`` draws: the int64 range less a 10-sigma margin.
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


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
        if self.source_family not in ("poissonian", "thermal"):
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


@dataclass(frozen=True, eq=False)
class TagStream:
    """Finalized per-channel time-tag arrays (int64 ps, sorted).

    ``duration`` spans the pulses: every herald lies below it, while HBT tags
    lag their pulse by the signal delay and may lie up to that delay past it.
    """

    channels: dict
    duration: int

    def counts(self) -> dict:
        return {ch: int(arr.size) for ch, arr in self.channels.items()}


@dataclass(frozen=True)
class RunSummary:
    """Aggregate counters of one simulation run."""

    n_pulses: int
    seed: int
    duration: int
    channel_counts: dict
    click_counts: np.ndarray  # pulses per idler click outcome 0..n_pixels
    heralds_accepted: int     # pulses whose click outcome is in the selection
    heralds_emitted: int      # trigger tags after the retrigger policy
    config: ExperimentConfig

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


def _open_mask(times: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of the sorted times lie inside one of the merged gates."""
    # the gates are disjoint and ordered, so their edges, searched into the
    # times, cut the times into runs that are closed and open in turn
    edges = np.empty(2 * starts.size, dtype=np.int64)
    edges[0::2] = starts
    edges[1::2] = ends
    runs = np.diff(np.searchsorted(times, edges), prepend=0, append=times.size)
    state = np.zeros(runs.size, dtype=bool)
    state[1::2] = True
    return np.repeat(state, runs)


def _on_ramp(arrivals, open_gate, starts, ends, rise_time: int):
    """Open arrivals on the linear voltage ramp at the opening edge of a merged gate.

    Returns the indices of the open arrivals less than ``rise_time`` after
    their gate's start, and the transmission the ramp gives each of them.
    """
    # the open arrivals come gate by gate, so each takes its gate's start
    # from the count of arrivals inside each gate
    counts = np.searchsorted(arrivals, ends) - np.searchsorted(arrivals, starts)
    index = np.flatnonzero(open_gate)
    factor = (arrivals[index] - np.repeat(starts, counts)) / rise_time
    partial = factor < 1.0
    return index[partial], factor[partial]


def _retrigger_loop(herald_times: np.ndarray, latency: int, gate_length: int) -> np.ndarray:
    """_retrigger_filter one herald at a time; it serves gates shorter than the latency."""
    kept = np.zeros(herald_times.size, dtype=bool)
    pending = deque()  # starts of kept gates that have not opened yet
    open_end = -1
    for lo in range(0, herald_times.size, _RETRIGGER_BLOCK):
        chunk = herald_times[lo : lo + _RETRIGGER_BLOCK].tolist()
        for i, h in enumerate(chunk, start=lo):
            while pending and pending[0] <= h:
                open_end = max(open_end, pending.popleft() + gate_length)
            if h >= open_end:
                kept[i] = True
                pending.append(h + latency)
    return herald_times[kept]


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


def _retrigger_filter(herald_times: np.ndarray, latency: int, gate_length: int) -> np.ndarray:
    """Drop heralds that arrive while a previously accepted gate is open.

    A herald is kept when no earlier kept herald's gate has opened and is
    still open at its time; heralds before a pending gate opens are kept.

    When gate_length >= latency the kept heralds come in bursts.  A burst
    starts at a head h that no earlier kept gate reaches and keeps every
    herald in [h, h + latency); with h_last the last of them, the burst's
    gates cover [h + latency, h_last + latency + gate_length) without a hole,
    since the gaps inside the burst are below latency <= gate_length, so
    every herald in that span is dropped and the next head is the first
    herald at or after h_last + latency + gate_length.  The heads are the
    orbit of the first herald under that map.  Shorter gates leave holes
    between a burst's gates, and heralds in a hole are kept, so that case
    runs the loop one herald at a time.
    """
    if gate_length < latency:
        return _retrigger_loop(herald_times, latency, gate_length)
    n = herald_times.size
    steps = np.zeros(n + 1, dtype=np.int8)  # +1 at each burst's first herald, -1 past its last
    head = 0
    while head < n:
        # each block starts at a head, so its heads are the orbit of its first herald
        block = herald_times[head : head + _RETRIGGER_BLOCK]
        last = np.maximum(np.arange(block.size), _rank(block + latency, block) - 1)
        reach = block[last]
        reach += latency + gate_length
        jump = np.append(np.maximum(last + 1, _rank(reach, block)), block.size)
        heads = _orbit(jump)
        steps[head + heads[:-1]] += 1
        steps[head + last[heads[:-1]] + 1] -= 1
        # the last burst, and the span its gates block, may run past the block
        head += int(heads[-1])
        burst_end = max(head + 1, int(np.searchsorted(herald_times, herald_times[head] + latency)))
        steps[head] += 1
        steps[burst_end] -= 1
        blocked_until = int(herald_times[burst_end - 1]) + latency + gate_length
        head = max(burst_end, int(np.searchsorted(herald_times, blocked_until)))
    return herald_times[np.cumsum(steps[:-1], dtype=np.int8).view(bool)]


def _with_darks(signal: np.ndarray, dark: np.ndarray) -> np.ndarray:
    """The sorted signal tags with the dark counts merged in."""
    dark = np.sort(dark)
    return np.insert(signal, np.searchsorted(signal, dark), dark)


class _Batch(NamedTuple):
    """Draws for one pulse batch; ``run`` concatenates batches field by field."""

    herald_pulse: np.ndarray  # int64 pulses whose click outcome is accepted
    cand_pulse: np.ndarray  # int64 pulses with a signal photon at HBT A or B through an open gate
    a_open: np.ndarray  # int32 photons of each candidate at HBT A through an open gate
    a_closed: np.ndarray  # int32 the same through a closed gate
    b_open: np.ndarray  # int32
    b_closed: np.ndarray  # int32
    click_hist: np.ndarray  # int64 pulses per idler click outcome 0..n_pixels
    dark_a: np.ndarray  # int64 dark-count times
    dark_b: np.ndarray  # int64


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
    """Sorted offsets in [0, size) of the pulses that hold at least one pair.

    Each pulse is occupied independently with probability p_occ, so the gaps
    between occupied pulses are geometric and only occupied pulses cost a
    draw (Devroye, Non-Uniform Random Variate Generation, ch. X).
    """
    found = []
    last = -1  # offset of the last occupied pulse found so far
    while p_occ > 0.0 and last < size - 1:
        left = size - 1 - last
        expected = left * p_occ
        n = int(min(left, expected + 5.0 * math.sqrt(expected) + 16.0))
        # a gap of left + 1 already passes the batch end, so the clip keeps the sum exact
        pos = last + np.cumsum(_geometric(rng, p_occ, n, left + 1))
        found.append(pos[: np.searchsorted(pos, size)])
        last = int(pos[-1])
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _photon_numbers(rng: np.random.Generator, config: ExperimentConfig, count: int) -> np.ndarray:
    """Pair numbers of occupied pulses: the source law conditioned on n >= 1."""
    mu = config.mean_pairs_per_pulse
    if config.source_family == "thermal":
        # no memory holds 2**62 photons, so the clip changes no run that can finish
        return _geometric(rng, 1.0 / (1.0 + mu), count, 2**62)
    # inversion by sequential search on the table cut where the tail mass
    # falls below photon_stats.TAIL_MASS_TOL
    cdf = np.cumsum(poissonian(mu, max(1, required_n_max(mu))).probs[1:])
    x = rng.random(count) * cdf[-1]
    n = np.ones(count, dtype=np.int64)
    for edge in cdf[:-1]:
        n += x >= edge
    return n


def _segment_counts(flags: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Number of set flags in each segment; segment i ends at index last[i]."""
    totals = np.cumsum(flags, dtype=np.int32)[last]
    return np.diff(totals, prepend=np.int32(0))


def _simulate_batch(config: ExperimentConfig, batch_index: int, start: int, size: int) -> _Batch:
    """All random draws for pulses [start, start + size); no gate logic here.

    Photons are laid out contiguously per occupied pulse, and every occupied
    pulse holds at least one, so no segment is empty.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    n_pix = config.n_pixels
    mu = config.mean_pairs_per_pulse
    p_occ = mu / (1.0 + mu) if config.source_family == "thermal" else -math.expm1(-mu)
    occ = _occupied_pulses(rng, p_occ, size)
    photons = _photon_numbers(rng, config, occ.size)
    ends = np.cumsum(photons)
    first = ends - photons
    n_photons = int(ends[-1]) if ends.size else 0

    # idler arm: a photon survives iff u < T, and then u / T is uniform on
    # [0, 1) and picks its pixel; index n_pix marks a lost photon
    t_idler = config.idler_transmission
    u = rng.random(n_photons)
    if t_idler > 0.0:
        u /= t_idler
        np.minimum(u, 1.0, out=u)
    else:
        u.fill(1.0)
    u *= n_pix
    pixel_bit = np.zeros(n_pix + 1, dtype=np.uint16)
    pixel_bit[:n_pix] = 1 << np.arange(n_pix)
    fired = np.bitwise_or.reduceat(pixel_bit[u.astype(np.uint8)], first)
    del u
    clicks = np.bitwise_count(fired)
    clicks += (clicks >= 1) & (clicks <= n_pix - 1) & (rng.random(clicks.size) < config.crosstalk)

    click_hist = np.bincount(clicks, minlength=n_pix + 1)
    click_hist[0] += size - occ.size

    accept = np.zeros(n_pix + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    herald_occ = occ[accept[clicks]]
    if accept[0]:
        empty = np.setdiff1d(np.arange(size, dtype=np.int64), occ, assume_unique=True)
        herald_occ = np.sort(np.concatenate([herald_occ, empty]))
    herald_pulse = start + herald_occ.astype(np.int64)

    # signal arm, counted for both gate outcomes; the stitch pass picks one.
    # v < q_a reaches A, and given that v / q_a is uniform, so v < q_a * leak
    # also passes a closed gate; B takes [q_a, q_a + q_b) the same way.
    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    leak = config.leakage
    v = rng.random(n_photons)
    last = ends - 1
    a_closed, a_open, below_b_closed, below_b_open = (
        _segment_counts(v < threshold, last)
        for threshold in (q_a * leak, q_a, q_a + q_b * leak, q_a + q_b)
    )
    del v
    keep = below_b_open > 0
    a_open = a_open[keep]
    cand_pulse = start + occ[keep]

    # dark counts over this batch's time span
    span = size * config.rep_period
    t0 = start * config.rep_period
    lam = config.dark_rate * span * 1e-12
    dark_a = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)
    dark_b = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)

    return _Batch(
        herald_pulse=herald_pulse,
        cand_pulse=cand_pulse,
        a_open=a_open,
        a_closed=a_closed[keep],
        b_open=below_b_open[keep] - a_open,
        b_closed=below_b_closed[keep] - a_open,
        click_hist=click_hist,
        dark_a=dark_a,
        dark_b=dark_b,
    )


def run(config: ExperimentConfig, threads: int = 1, batch_size: int = DEFAULT_BATCH_SIZE):
    """Simulate the configured run.

    Returns:
        (TagStream, RunSummary).  Output is bit-identical for any ``threads``
        value; see the module docstring for the determinism contract.
    """
    if batch_size <= 0:
        raise ParameterError("batch_size must be > 0")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    delay = config.resolved_signal_delay
    horizon = config.duration + delay + config.latency + config.gate_length
    if horizon >= 2**63:
        raise ParameterError("timestamp range overflows 64-bit picoseconds; reduce n_pulses")
    if config.dark_rate * (min(batch_size, config.n_pulses) * config.rep_period) * 1e-12 > _POISSON_MAX_MEAN:
        raise ParameterError(f"dark_rate {config.dark_rate!r} gives more dark counts per batch than can be drawn")
    # a run of zero pulses still makes one empty batch, which gives every
    # merged field its dtype
    n_batches = max(1, (config.n_pulses + batch_size - 1) // batch_size)
    if n_batches >= _RAMP_STREAM_TAG:
        raise ParameterError("too many batches")

    jobs = [
        (i, i * batch_size, min(batch_size, config.n_pulses - i * batch_size))
        for i in range(n_batches)
    ]
    if threads == 1 or n_batches <= 1:
        results = [_simulate_batch(config, *job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: _simulate_batch(config, *job), jobs))
    merged = _Batch(*map(np.concatenate, zip(*results)))
    del results
    click_counts = merged.click_hist.reshape(n_batches, config.n_pixels + 1).sum(axis=0)
    heralds_accepted = merged.herald_pulse.size

    # pulse numbers turn into times in place, so run holds one copy of each
    herald_times = np.multiply(merged.herald_pulse, config.rep_period, out=merged.herald_pulse)
    arrivals = np.multiply(merged.cand_pulse, config.rep_period, out=merged.cand_pulse)
    arrivals += delay
    if config.retrigger == "ignore":
        herald_times = _retrigger_filter(herald_times, config.latency, config.gate_length)

    starts, ends = merged_gate_intervals(herald_times, config.latency, config.gate_length)
    open_gate = _open_mask(arrivals, starts, ends)
    a = np.where(open_gate, merged.a_open, merged.a_closed)
    b = np.where(open_gate, merged.b_open, merged.b_closed)

    if config.gate_rise_time > 0:
        partial, factor = _on_ramp(arrivals, open_gate, starts, ends, config.gate_rise_time)
        if partial.size:
            rng_ramp = np.random.default_rng(np.random.SeedSequence((config.seed, _RAMP_STREAM_TAG)))
            a[partial] = rng_ramp.binomial(a[partial], factor)
            b[partial] = rng_ramp.binomial(b[partial], factor)

    stream = TagStream(
        channels={
            Channel.HERALD_TRIGGER: herald_times,
            Channel.HBT_A: _with_darks(arrivals[a > 0], merged.dark_a),
            Channel.HBT_B: _with_darks(arrivals[b > 0], merged.dark_b),
        },
        duration=config.duration,
    )
    summary = RunSummary(
        n_pulses=config.n_pulses,
        seed=config.seed,
        duration=config.duration,
        channel_counts=stream.counts(),
        click_counts=click_counts,
        heralds_accepted=int(heralds_accepted),
        heralds_emitted=int(herald_times.size),
        config=config,
    )
    return stream, summary


def benchmark(config: ExperimentConfig, threads: int = 1, batch_size: int = DEFAULT_BATCH_SIZE) -> float:
    """Wall-clock throughput of run() in pulses per second."""
    t0 = time.perf_counter()
    run(config, threads=threads, batch_size=batch_size)
    elapsed = time.perf_counter() - t0
    return config.n_pulses / elapsed
