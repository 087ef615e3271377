"""Offline analysis of time-tag streams.

Both analyses take a stream one segment at a time (``_chunks``): each
chunk is a run of first-channel tags, handed out once no later segment can
add a partner, with the tags of the other channels those tags can reach.
What a later tag may still need is carried across a segment's end, so
memory is set by a segment and the reach, not by the run.

Cross-correlation histograms (``correlate``) count every pair of tags whose
time difference t_b - t_a falls in [-range_ps, range_ps).  In each chunk,
merges with the second channel's tags in reach give each tag's run of
partners, so the cost is O(tags + pairs in range), never all-pairs.  The
pairs are gathered in windows of at most ``_PAIR_BUDGET``, cut along the
cumulative pair count: a window may end inside one tag's run, so memory
stays bounded however wide the range or however dense the stream.
Histograms hold at most ``_MAX_BINS`` bins; a wider binning is rejected
before any pair is counted.

Pulsed sources produce peaks at multiples of the repetition period.  The
peak window of pulse offset k holds the bins whose centres lie within
+-peak_halfwidth of k * rep_period; since rep_period is a multiple of the
bin width, every window is the offset-0 window shifted by whole bins
(``_peak_window``).  ``integrate_peaks`` sums each window and ``g2_tau``
normalizes the peak rate by the singles rates,

    g2(tau) = (C_ab(tau) / T) * f_rep / ((C_a / T) * (C_b / T)),

with f_rep = 1 / rep_period: the standard low-photon-number estimator (1
for uncorrelated light).

``heralded_g2`` implements the number-triggered variant used for the
feedforward runs: tags at the herald-correlated pulse slots are selected
and the trigger rate replaces ``f_rep``, so for each pulse offset d

    g2(d) = N(A at slot, B at slot + d) * N_triggers
            / (N(A at slot) * N(B at slot + d)).

At d = 0 this is the heralded g2(0); at other offsets it tends to 1 for
uncorrelated light.

The counts behind it are taken on the pulse grid rather than from pair
histograms.  Pulse slots sit at phase + j * rep_period, and a B tag lies in
peak window k of slot j exactly when its slot index, counted from the start
of the offset-0 window, is j + k and its residual falls inside that window.
So the estimator counts in-window B tags per slot and reads those counts at
j + k for every herald and every HBT-A tag at a heralded slot.  This holds
only when all herald slots share one phase modulo rep_period (the
alignment contract); a herald off that grid raises ``ParameterError``.
A chunk of heralds spans at most ``_SLOT_SPAN`` slots, counted in reused
per-slot buffers whose touched entries are reset after use, so neither
memory nor time grows with the empty stretches of a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyEnsembleError, ParameterError, UndefinedStatisticError
from .event_sim import CHANNEL_NAMES, Channel, ExperimentConfig, TagStream, _rank

DEFAULT_BIN_WIDTH = 250
DEFAULT_RANGE = 100_000
DEFAULT_PEAK_HALFWIDTH = 1_000

_MAX_BINS = 1 << 27  # 1 GiB of int64 counts
_TAG_BLOCK = 1 << 16  # first-channel tags per chunk of the segment walk
_PAIR_BUDGET = 1 << 17  # pairs gathered at once in correlate
_SLOT_SPAN = 1 << 18  # pulse slots per chunk of the heralded estimator


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Binned pairwise time differences t_b - t_a over [-range_ps, +range_ps).

    Bin b covers [-range_ps + b * bin_width, -range_ps + (b + 1) * bin_width);
    a difference falling exactly on an edge belongs to the upper bin.
    """

    bin_width: int
    range_ps: int
    counts: np.ndarray
    channel_pair: tuple
    total_singles: tuple
    duration: int

    def __post_init__(self):
        _check_binning(self.bin_width, self.range_ps)
        if self.counts.shape != (self.n_bins,):
            raise ParameterError("counts length must equal 2 * range_ps / bin_width")
        if np.any(self.counts < 0):
            raise ParameterError("counts must be non-negative")
        self.counts.flags.writeable = False

    @property
    def n_bins(self) -> int:
        return (2 * self.range_ps) // self.bin_width

    def bin_centers(self) -> np.ndarray:
        return -self.range_ps + (np.arange(self.n_bins) + 0.5) * self.bin_width


def _check_binning(bin_width: int, range_ps: int) -> None:
    if bin_width <= 0 or range_ps <= 0:
        raise ParameterError("bin_width and range_ps must be > 0")
    if 2 * range_ps >= 2**63:
        raise ParameterError(f"range_ps {range_ps} must be below 2**62 so that time differences fit 64 bits")
    if (2 * range_ps) % bin_width:
        raise ParameterError(f"bin_width {bin_width} must divide the histogram span {2 * range_ps}")
    n_bins = (2 * range_ps) // bin_width
    if n_bins > _MAX_BINS:
        raise ParameterError(f"a histogram of {n_bins} bins cannot be allocated (the limit is {_MAX_BINS})")


def _chunks(stream: TagStream, lead: Channel, reach: dict, span: int | None = None):
    """Walk the stream's segments in chunks of ``lead`` tags; yields ``(tags, near)``.

    Each ``lead`` tag comes in one chunk, in time order, and ``near`` maps
    each channel of ``reach`` to its tags in [tags[0] + lo, tags[-1] + hi),
    ``(lo, hi) = reach[channel]``.  A tag t waits until a segment ends at or
    past t + hi, since no later tag lies before a segment's last time; the
    waiting tags, and the tags that they or later ones can reach, are
    carried across the cut.  A chunk holds at most ``_TAG_BLOCK`` tags, more
    only where one time repeats, all below its first plus ``span``.
    """
    reach_hi = max(hi for _, hi in reach.values())
    waiting = np.empty(0, dtype=np.int64)
    held = dict.fromkeys(reach, waiting)
    for segment in itertools.chain(stream.segments(), [None]):
        if segment is None:  # the stream has ended
            ready = waiting.size
        else:
            waiting = np.concatenate((waiting, segment[lead])) if waiting.size else segment[lead]
            held = {ch: np.concatenate((times, segment[ch])) if times.size else segment[ch]
                    for ch, times in held.items()}
            end = max((int(times[-1]) for times in segment.values() if times.size), default=None)
            if end is None:
                continue
            ready = int(np.searchsorted(waiting, end - reach_hi, side="right"))
        start = 0
        while start < ready:
            stop = int(np.searchsorted(waiting[:ready], waiting[min(start + _TAG_BLOCK, ready) - 1], side="right"))
            if span is not None:
                stop = min(stop, int(np.searchsorted(waiting[:ready], int(waiting[start]) + span)))
            tags = waiting[start:stop]
            first, last = int(tags[0]), int(tags[-1])
            yield tags, {ch: held[ch][np.searchsorted(held[ch], first + lo) : np.searchsorted(held[ch], last + hi)]
                         for ch, (lo, hi) in reach.items()}
            start = stop
        waiting = waiting[ready:]
        if segment is not None:
            # later lead tags lie at or after the segment's end
            first = min(int(waiting[0]), end) if waiting.size else end
            held = {ch: held[ch][np.searchsorted(held[ch], first + lo) :] for ch, (lo, _) in reach.items()}


def correlate(
    stream: TagStream,
    pair: tuple,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
) -> CoincidenceHistogram:
    """Histogram of time differences t_b - t_a for a channel pair."""
    ch_a, ch_b = pair
    for ch in (ch_a, ch_b):
        if ch not in CHANNEL_NAMES:
            raise ParameterError(f"stream has no channel {ch!r}")
    if ch_a == ch_b:
        # every tag would pair with itself at zero delay
        raise ParameterError(f"a channel pair needs two different channels, got {CHANNEL_NAMES[ch_a]} twice")
    _check_binning(bin_width, range_ps)
    n_bins = (2 * range_ps) // bin_width
    try:
        counts = np.zeros(n_bins, dtype=np.int64)
    except MemoryError:
        raise ParameterError(f"a histogram of {n_bins} bins cannot be allocated") from None
    ramp = np.arange(0)
    for tags, near in _chunks(stream, ch_a, {ch_b: (-range_ps, range_ps)}):
        b = near[ch_b]
        # pairs are numbered p = 0, 1, ... in tag order; pair p of tag i, with
        # bounds[i] <= p < bounds[i + 1], is b[first[i] + p] once first is shifted
        first = _rank(tags - range_ps, b)
        bounds = np.zeros(tags.size + 1, dtype=np.int64)
        np.cumsum(_rank(tags + range_ps, b) - first, out=bounds[1:])
        first -= bounds[:-1]
        total = int(bounds[-1])
        for p0 in range(0, total, _PAIR_BUDGET):
            p1 = min(p0 + _PAIR_BUDGET, total)
            t0 = int(np.searchsorted(bounds, p0, side="right")) - 1
            t1 = int(np.searchsorted(bounds, p1, side="left"))
            lens = np.diff(np.clip(bounds[t0 : t1 + 1], p0, p1))
            if ramp.size < p1 - p0:
                ramp = np.arange(p1 - p0)
            index = np.repeat(first[t0:t1] + p0, lens)
            index += ramp[: p1 - p0]
            tau = b[index]
            tau -= np.repeat(tags[t0:t1] - range_ps, lens)
            tau //= bin_width
            counts += np.bincount(tau, minlength=n_bins)
    singles = stream.counts()  # of the replay just walked
    return CoincidenceHistogram(
        bin_width=bin_width,
        range_ps=range_ps,
        counts=counts,
        channel_pair=(ch_a, ch_b),
        total_singles=(singles[ch_a], singles[ch_b]),
        duration=stream.duration,
    )


def _peak_window(bin_width: int, range_ps: int, rep_period: int, peak_halfwidth: int):
    """The pulse-peak windows of a binning, as exact unions of bins.

    A bin belongs to the window of pulse offset k when its centre lies in
    [k * rep_period - peak_halfwidth, k * rep_period + peak_halfwidth).
    Returns ``(lo, hi, offsets)``: the window of offset k covers the time
    differences [k * rep_period + lo, k * rep_period + hi), and ``offsets``
    is the range of k whose window fits inside [-range_ps, range_ps).  The
    binning must have passed _check_binning.
    """
    if rep_period <= 0 or rep_period % bin_width:
        raise ParameterError("rep_period must be a positive multiple of the bin width")
    if peak_halfwidth < bin_width // 2:
        raise ParameterError("peak_halfwidth must cover at least one bin")
    if 2 * peak_halfwidth > rep_period:
        raise ParameterError("peak windows overlap: need 2 * peak_halfwidth <= rep_period")
    if peak_halfwidth > range_ps:
        raise ParameterError("no peak window fits: need peak_halfwidth <= range_ps")
    # bins start at edge + m * bin_width; a bin starting at e is inside when
    # -peak_halfwidth <= e + bin_width / 2 < peak_halfwidth, that is when
    # first <= e <= last
    edge = -range_ps % bin_width
    first = -((2 * peak_halfwidth + bin_width) // 2)
    last = (2 * peak_halfwidth - bin_width - 1) // 2
    lo = first + (edge - first) % bin_width
    hi = last - (last - edge) % bin_width + bin_width
    k_max = (range_ps - peak_halfwidth) // rep_period
    return lo, hi, range(-k_max, k_max + 1)


def integrate_peaks(hist: CoincidenceHistogram, rep_period: int, peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH):
    """Sum counts in +-peak_halfwidth around each expected pulse peak.

    Returns a list of (pulse_offset, integrated_counts), covering every
    offset whose window fits inside the histogram range.
    """
    lo, hi, offsets = _peak_window(hist.bin_width, hist.range_ps, rep_period, peak_halfwidth)
    start = (hist.range_ps + lo) // hist.bin_width  # first bin of the offset-0 window
    width = (hi - lo) // hist.bin_width
    step = rep_period // hist.bin_width
    return [(k, int(hist.counts[start + k * step : start + k * step + width].sum())) for k in offsets]


def g2_tau(hist: CoincidenceHistogram, rep_period: int, peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH):
    """Normalized correlation per pulse peak, f_rep = 1 / rep_period: list of (pulse_offset, g2)."""
    c_a, c_b = hist.total_singles
    if c_a == 0 or c_b == 0:
        raise UndefinedStatisticError("g2 is undefined with zero singles on a channel")
    if hist.duration <= 0:
        raise ParameterError("histogram carries no acquisition duration")
    norm = 1e12 / rep_period * (hist.duration * 1e-12) / (c_a * c_b)
    return [(k, counts * norm) for k, counts in integrate_peaks(hist, rep_period, peak_halfwidth)]


def isolated_times(times: np.ndarray, min_separation: int) -> np.ndarray:
    """Subset of a sorted tag array with no neighbour within min_separation."""
    t = np.asarray(times, dtype=np.int64)
    if t.size <= 1:
        return t
    gap_prev = np.empty(t.size, dtype=bool)
    gap_next = np.empty(t.size, dtype=bool)
    gap_prev[0] = True
    gap_prev[1:] = np.diff(t) > min_separation
    gap_next[-1] = True
    gap_next[:-1] = np.diff(t) > min_separation
    return t[gap_prev & gap_next]


def _check_on_grid(heralds: np.ndarray, origin: int, rep: int) -> None:
    """Raise ParameterError naming the first herald off the pulse grid through origin."""
    off_grid = np.flatnonzero((heralds - origin) % rep)
    if off_grid.size:
        raise ParameterError(
            f"herald at {int(heralds[off_grid[0]])} ps is off the pulse grid of the first herald at "
            f"{origin} ps: heralds must share one phase modulo rep_period {rep}"
        )


@dataclass(frozen=True)
class HeraldedCounts:
    """Raw counters behind the trigger-conditioned g2 estimator."""

    n_triggers: int
    n_a_slot: int  # HBT-A tags at heralded slots
    pair_counts: dict  # pulse offset -> (A at slot, B at slot + offset) pairs
    b_counts: dict  # pulse offset -> B tags at (heralded slot + offset)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and how often each occurs."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return values[new], np.diff(np.flatnonzero(new), append=values.size)


def _summed_rows(rows: np.ndarray, index: np.ndarray, largest: int) -> np.ndarray:
    """rows[index].sum(axis=0) in int64, for int32 rows with no entry above largest.

    Rows are gathered at most _PAIR_BUDGET entries at a time, and few enough
    at a time that their int32 sum cannot overflow.
    """
    step = max(1, min(_PAIR_BUDGET // max(1, rows.shape[1]), (2**31 - 1) // max(1, largest)))
    total = np.zeros(rows.shape[1], dtype=np.int64)
    for lo in range(0, index.size, step):
        total += np.einsum("ij->j", rows[index[lo : lo + step]])
    return total


def heralded_coincidence_counts(
    stream: TagStream,
    config: ExperimentConfig,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
    peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH,
) -> HeraldedCounts:
    """Count triggers, slot-conditioned singles and slot pair coincidences on the pulse grid.

    A herald's slot is its time plus the resolved signal delay.  HBT-A tags
    count at a slot they sit on exactly, HBT-B tags at slot + d when they
    fall in the peak window of offset d, the window ``integrate_peaks`` sums.
    The first herald off the grid of the first one raises ParameterError.
    """
    _check_binning(bin_width, range_ps)
    rep = config.rep_period
    lo, hi, offsets = _peak_window(bin_width, range_ps, rep, peak_halfwidth)
    delay = config.resolved_signal_delay
    n_k = len(offsets)
    # Slot j of a chunk is the signal-arrival time first + delay + j * rep.
    # in_window[j + i] counts the B tags in the window of offset
    # offsets[i] of slot j, so rows[j] holds slot j's counts for every offset.
    in_window = np.zeros(_SLOT_SPAN + n_k, dtype=np.int32)
    rows = sliding_window_view(in_window, n_k)
    heralded = np.zeros(_SLOT_SPAN, dtype=bool)
    pair_counts = np.zeros(n_k, dtype=np.int64)
    b_counts = np.zeros(n_k, dtype=np.int64)
    n_a_slot = 0
    origin = None
    # a herald reaches the A tags on its slot, and the B tags from the start
    # of its first window to the end of the period of its last
    b_start = delay + lo + offsets.start * rep
    reach = {Channel.HBT_A: (delay, delay + 1), Channel.HBT_B: (b_start, b_start + n_k * rep)}
    for chunk, near in _chunks(stream, Channel.HERALD_TRIGGER, reach, _SLOT_SPAN * rep):
        first = int(chunk[0])
        origin = first if origin is None else origin
        _check_on_grid(chunk, origin, rep)
        slot = (chunk - first) // rep
        # b_slot counts whole periods from slot 0's first window, and the
        # remainder must fall inside the window
        since = near[Channel.HBT_B] - (first + b_start)
        b_slot = since // rep
        b_slot, per_slot = _runs(b_slot[since - b_slot * rep < hi - lo])
        in_window[b_slot] = per_slot
        largest = int(per_slot.max(initial=0))
        b_counts += _summed_rows(rows, slot, largest)
        # A tags exactly on a heralded slot of this chunk
        heralded[slot] = True
        since = near[Channel.HBT_A] - (first + delay)
        a_slot = since // rep
        a_slot = a_slot[a_slot * rep == since]
        a_slot = a_slot[heralded[a_slot]]
        n_a_slot += a_slot.size
        pair_counts += _summed_rows(rows, a_slot, largest)
        heralded[slot] = False
        in_window[b_slot] = 0
    if origin is None:
        raise EmptyEnsembleError("stream contains no herald tags")
    return HeraldedCounts(
        n_triggers=stream.counts()[Channel.HERALD_TRIGGER],  # of the replay just walked
        n_a_slot=n_a_slot,
        pair_counts=dict(zip(offsets, pair_counts.tolist())),
        b_counts=dict(zip(offsets, b_counts.tolist())),
    )


def heralded_g2(
    stream: TagStream,
    config: ExperimentConfig,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
    peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH,
):
    """Trigger-conditioned g2(d) per pulse offset d, as the module docstring gives it.

    Only offsets with non-zero conditioned singles are listed.  The offset-0
    entry estimates the heralded g2(0) of the modulated signal mode.
    """
    counts = heralded_coincidence_counts(stream, config, bin_width, range_ps, peak_halfwidth)
    if counts.n_a_slot == 0:
        raise UndefinedStatisticError("no HBT-A tags coincide with heralded slots")
    out = []
    for k in sorted(counts.pair_counts):
        n_b_k = counts.b_counts.get(k, 0)
        if n_b_k == 0:
            continue
        out.append((k, counts.pair_counts[k] * counts.n_triggers / (counts.n_a_slot * n_b_k)))
    return out


def write_histogram_csv(hist: CoincidenceHistogram, path) -> None:
    """Emit the histogram as CSV rows (bin_center_ps, count)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_center_ps,count\n")
        for center, count in zip(hist.bin_centers(), hist.counts):
            fh.write(f"{center:.1f},{int(count)}\n")


def write_peaks_csv(peaks, g2_values, path) -> None:
    """Emit per-peak totals as CSV rows (peak_offset, counts, g2)."""
    g2_map = dict(g2_values) if g2_values is not None else {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("peak_offset,counts,g2\n")
        for k, counts in peaks:
            g2 = g2_map.get(k)
            fh.write(f"{k},{counts},{'' if g2 is None else format(g2, '.12g')}\n")
