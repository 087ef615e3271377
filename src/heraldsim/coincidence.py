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
before any pair is counted.  A first-channel tag within ``range_ps`` plus
the period of the 64-bit time limits is refused with ``ParameterError``, as
the sums that bound its pairs would wrap.

Given a ``rep_period``, a chunk's tags split by the pulse grid: a tag is on
its channel's grid when its time less the channel's phase in the chunk (the
commonest phase of up to 64 sampled tags, ``_grid_phase``) is a whole number
of periods, and no earlier tag of the channel has its time, so that one
plane holds a channel's slots.  All on-grid pairs at slot offset i lie one
time difference apart, so each offset's count, a popcount of shifted slot
planes (the estimator's ``_planes`` and ``_shifted_counts`` below), goes
into that difference's bin.  The walk counts the other pairs: off-grid
first-channel tags against every partner, and off-grid partners against the
chunk's on-grid first-channel tags, walked from the partner's side, so no
pair counts twice.  Each walk takes at most ``_TAG_BLOCK`` leading tags at
once, however many off-grid partners a chunk holds.  Planes cost a pass over the occupied words per slot offset,
the walk a step per pair and its merges of the two channels; ``_grid_cost``
puts the first in walked pairs, and a chunk goes on planes only when that is
below the walk's cost (for tags spread evenly, times the sampled shares on
the grid).  So a dense stream goes on planes, and a sparse one, such as the
paper's operating point, walks.  The planes of a chunk span at most
``_SLOT_SPAN`` slots; a wider chunk walks.

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
This holds only when all herald slots share one phase modulo rep_period (the
alignment contract); a herald off that grid raises ``ParameterError``.  A
chunk spans at most ``_SLOT_SPAN`` slots, held as bit planes of 64 slots a
word (``_planes``): the herald slots, the heralded A slots and the in-window
B slots.  Where a slot holds further tags, their number is written in binary
digits, one weighted plane per digit, so a slot of c tags costs 1 + log2(c)
planes.  The counts at offset index i are the weighted popcounts of the
herald or A planes ANDed with the B planes shifted down by i slots
(``_shifted_counts``), at the herald words with B bits in reach: the work
grows with the occupied words, not the tags.  Those words are shifted a
piece at a time, so that no temporary exceeds ``_PLANE_BUDGET`` words
however many planes a chunk holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsembleError, ParameterError, UndefinedStatisticError
from .event_sim import CHANNEL_NAMES, EVENT_BUDGET, Channel, ExperimentConfig, TagStream, _rank

DEFAULT_BIN_WIDTH = 250
DEFAULT_RANGE = 100_000
DEFAULT_PEAK_HALFWIDTH = 1_000

_MAX_BINS = 1 << 27  # 1 GiB of int64 counts
_TAG_BLOCK = 1 << 16  # first-channel tags per chunk of the segment walk
_PAIR_BUDGET = EVENT_BUDGET >> 2  # pairs gathered at once in correlate, about 1 MB of temporaries
_SLOT_SPAN = 1 << 20  # pulse slots of a chunk's bit planes, 128 KiB a plane
_PLANE_BUDGET = EVENT_BUDGET << 1  # words of each shifted-plane temporary, 2 MiB
_WORD_COST = 0.5  # one plane word at one slot offset, in walked pairs
_GROUP_COST = 6_000  # the fixed cost of 64 slot offsets, in walked pairs
_MERGE_COST = 3.0  # the walk's merges less the split on the grid, in walked pairs per tag of the sparser channel
_CSV_ROWS = 1 << 14  # histogram rows that write_histogram_csv formats at once
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # the bit of each slot in its word


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


def _grid_phase(times: np.ndarray, rep: int) -> tuple[int, float]:
    """The commonest phase modulo ``rep`` of up to 64 tags spread over ``times``, and its share of them."""
    phases, hits = np.unique(times[:: times.size // 64 + 1] % rep, return_counts=True)
    top = int(np.argmax(hits))
    return int(phases[top]), int(hits[top]) / int(hits.sum())


def _grid_cost(n_a: int, n_slots: int, n_k: int) -> float:
    """What counting pairs on bit planes costs, in walked pairs.

    ``n_a`` first-channel tags over ``n_slots`` slots, and ``n_k`` slot
    offsets: each offset takes a pass over the words of 64 slots that hold a
    first-channel tag, and each 64 offsets a fixed cost.  Planes of more
    than ``_SLOT_SPAN`` slots in all cost without bound.
    """
    if n_slots + n_k > _SLOT_SPAN:
        return math.inf
    words = n_slots / 64 + 1
    occupied = -words * math.expm1(-n_a / words)  # expected words holding a tag
    return _WORD_COST * occupied * n_k + _GROUP_COST * -(-n_k // 64)


def _grid_phases(a: np.ndarray, b: np.ndarray, rep: int, range_ps: int):
    """``(phase_a, phase_b)`` of a chunk's tags when bit planes cost less than the walk, else None.

    The walk costs its pairs, estimated for tags spread evenly over the
    chunk, and its merges; only the shares of ``_grid_phase``'s samples on
    the grid count.  The differences that the planes take must fit 64 bits;
    ``correlate`` has checked the times.
    """
    width = int(a[-1]) - int(a[0])
    if not b.size or width + 2 * (range_ps + rep) >= 2**63:
        return None
    walked = a.size * b.size * 2 * range_ps / (width + 2 * range_ps) + _MERGE_COST * min(a.size, b.size)
    cost = _grid_cost(a.size, width // rep + 1, 2 * range_ps // rep + 1)
    if cost >= walked:  # even with every tag on the grid
        return None
    (phase_a, share_a), (phase_b, share_b) = _grid_phase(a, rep), _grid_phase(b, rep)
    return (phase_a, phase_b) if cost < walked * share_a * share_b else None


def _on_grid(times: np.ndarray, origin: int, rep: int):
    """``(slots, on, off)``: the tags at origin + slot * rep, their slots, and the other tags.

    A further tag on a slot is among the other tags, so one plane holds the slots.
    """
    slot, since = np.divmod(times - origin, rep)
    on = since == 0
    on[1:] &= times[1:] != times[:-1]
    if on.all():
        return slot, times, times[:0]
    return slot[on], times[on], times[~on]


def correlate(
    stream: TagStream,
    pair: tuple,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
    rep_period: int | None = None,
) -> CoincidenceHistogram:
    """Histogram of time differences t_b - t_a for a channel pair.

    With ``rep_period``, pairs of tags on a pulse grid of that period are
    counted on bit planes where that costs less than walking them; the
    counts do not change.  A ``pair[0]`` tag closer than ``range_ps`` plus
    ``rep_period`` to either 64-bit time limit raises ParameterError.
    """
    ch_a, ch_b = pair
    for ch in (ch_a, ch_b):
        if ch not in CHANNEL_NAMES:
            raise ParameterError(f"stream has no channel {ch!r}")
    if ch_a == ch_b:
        # every tag would pair with itself at zero delay
        raise ParameterError(f"a channel pair needs two different channels, got {CHANNEL_NAMES[ch_a]} twice")
    _check_binning(bin_width, range_ps)
    rep = rep_period
    if rep is not None and rep <= 0:
        raise ParameterError("rep_period must be > 0")
    n_bins = (2 * range_ps) // bin_width
    try:
        counts = np.zeros(n_bins, dtype=np.int64)
    except MemoryError:
        raise ParameterError(f"a histogram of {n_bins} bins cannot be allocated") from None
    ramp = np.arange(0)
    reach = range_ps + (rep or 0)  # the furthest a first-channel tag's sums reach
    for tags, near in _chunks(stream, ch_a, {ch_b: (-range_ps, range_ps)}):
        if int(tags[0]) - reach < -(2**63) or int(tags[-1]) + reach >= 2**63:
            edge = tags[0] if int(tags[0]) - reach < -(2**63) else tags[np.searchsorted(tags, 2**63 - reach)]
            raise ParameterError(f"{CHANNEL_NAMES[ch_a]} tag at {edge} ps lies within {reach} ps of the 64-bit "
                                 f"time limits, where its differences would overflow")
        b = near[ch_b]
        phases = None if rep is None else _grid_phases(tags, b, rep, range_ps)
        walks = [(tags, b)]  # (lead, partners): the pairs of each lead tag are walked
        if phases is not None:
            # A slot j counts periods from origin, the grid point at or before the
            # chunk's first tag.  On-grid A at slot j and B at slot j + i lie
            # least + i * rep apart, least being the first on-grid difference at
            # or above -range_ps, so offset i falls in one bin
            phase_a, phase_b = phases
            origin = int(tags[0]) - (int(tags[0]) - phase_a) % rep
            least = (phase_b - phase_a + range_ps) % rep - range_ps
            n_k = (range_ps - least - 1) // rep + 1  # the offsets whose difference is below range_ps
            # the tag whose phase was sampled is on the grid, so a_on is never empty
            a_slot, a_on, a_off = _on_grid(tags, origin, rep)
            b_slot, _, b_off = _on_grid(b, origin + least, rep)
            if n_k > 0:
                last = int(a_slot[-1])
                b_slot = b_slot[np.searchsorted(b_slot, 0) : np.searchsorted(b_slot, last + n_k)]
                n_words = (last + n_k) // 64 + 2
                on_grid = _shifted_counts(_planes(a_slot, n_words), _planes(b_slot, n_words), n_k)[0]
                np.add.at(counts, (least + range_ps + rep * np.arange(n_k)) // bin_width, on_grid)
            walks = [(a_off, b)]
            if b_off.size:
                # against this chunk's on-grid A, from the B side, as
                # t_b - t_a = (origin - t_a) - (origin - t_b), which stay inside 64 bits
                walks.append((origin - b_off[::-1], origin - a_on[::-1]))
        # at most _TAG_BLOCK lead tags at once, as the B side may hold more
        blocks = ((lead[lo : lo + _TAG_BLOCK], partners)
                  for lead, partners in walks for lo in range(0, lead.size, _TAG_BLOCK))
        for lead, partners in blocks:
            # pairs are numbered p = 0, 1, ... in tag order; pair p of tag i, with
            # bounds[i] <= p < bounds[i + 1], is partners[first[i] + p] once first is shifted
            first = _rank(lead - range_ps, partners)
            bounds = np.zeros(lead.size + 1, dtype=np.int64)
            np.cumsum(_rank(lead + range_ps, partners) - first, out=bounds[1:])
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
                tau = partners[index]
                tau -= np.repeat(lead[t0:t1] - range_ps, lens)
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


@dataclass(frozen=True)
class HeraldedCounts:
    """Raw counters behind the trigger-conditioned g2 estimator."""

    n_triggers: int
    n_a_slot: int  # HBT-A tags at heralded slots
    pair_counts: dict  # pulse offset -> (A at slot, B at slot + offset) pairs
    b_counts: dict  # pulse offset -> B tags at (heralded slot + offset)


def _planes(slots: np.ndarray, n_words: int) -> np.ndarray:
    """Bit planes of sorted slot indices, rows of ``n_words`` words of 64 slots.

    Plane 0 marks the occupied slots, and plane m >= 1 the slots whose count
    of further tags has bit m - 1 set; a slot's tags are the ``_weights`` of
    its planes summed.  So a slot of c tags costs 1 + log2(c) planes, and no
    slots give one empty plane.
    """
    groups = [slots]
    again = slots[1:] == slots[:-1]  # a further tag on the slot before
    if again.any():
        head = np.flatnonzero(np.concatenate(([True], ~again)))
        further = np.diff(head, append=slots.size) - 1
        groups = [slots[head]]
        groups += [slots[head[(further >> m) & 1 == 1]] for m in range(int(further.max()).bit_length())]
    planes = []
    for group in groups:
        if group.size > n_words:  # many slots a word: mark each in a byte and pack the bytes
            marks = np.zeros(n_words * 64, dtype=bool)
            marks[group] = True
            planes.append(np.packbits(marks, bitorder="little").view(np.uint64))
        else:  # adding the bits of distinct slots sets them
            planes.append(np.zeros(n_words, dtype=np.uint64))
            np.add.at(planes[-1], group >> 6, _BIT[group & 63])
    return np.stack(planes) if len(planes) > 1 else planes[0][None]


def _weights(planes: np.ndarray) -> np.ndarray:
    """The tags each plane of ``_planes`` stands for: 1, then 2**(m - 1) for plane m >= 1."""
    return np.left_shift(1, np.arange(-1, len(planes) - 1).clip(0))


def _shifted_counts(left: np.ndarray, b_planes: np.ndarray, n_k: int) -> np.ndarray:
    """counts[p, i] of the B tags at slot j + i, i < n_k, summed over the slots j set in left[p].

    Every bit of ``left`` is in left[0], and the B planes come from ``_planes``.  Shifted down by
    i = 64 q + r slots, word w of a B plane b is ``b[w + q] >> r | b[w + q + 1] << (64 - r)``, taken
    at the words of left[0] with B bits in reach, as many at once as keep each temporary within
    ``_PLANE_BUDGET`` words however many planes there are.
    """
    n = left.shape[1] - (n_k - 1) // 64 - 1
    piece = max(1, _PLANE_BUDGET // (64 * left.shape[0] * b_planes.shape[0]))
    counts = np.zeros((left.shape[0], n_k), dtype=np.int64)
    weights = _weights(b_planes)
    for i in range(0, n_k, 64):
        q, r = i >> 6, np.arange(min(64, n_k - i), dtype=np.uint64)[:, None]
        reach = np.flatnonzero(np.logical_and(left[0, :n], b_planes[0, q : q + n] | b_planes[0, q + 1 : q + 1 + n]))
        for at in np.split(reach, range(piece, reach.size, piece)):
            shifted = np.take(b_planes, at + q, axis=1)[:, None] >> r
            shifted |= np.take(b_planes, at + (q + 1), axis=1)[:, None] << (np.uint64(64) - r)
            pairs = np.bitwise_count(np.take(left, at, axis=1)[:, None, None] & shifted)
            counts[:, i : i + r.size] += weights @ pairs.sum(axis=3, dtype=np.int64)
    return counts


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
    totals = np.zeros((2, n_k), dtype=np.int64)  # B tags and (A, B) pairs at each offset
    n_a_slot = 0
    origin = None
    # a herald reaches the A tags on its slot, and the B tags from the start
    # of its first window to the end of the period of its last
    b_start = delay + lo + offsets.start * rep
    reach = {Channel.HBT_A: (delay, delay + 1), Channel.HBT_B: (b_start, b_start + n_k * rep)}
    for chunk, near in _chunks(stream, Channel.HERALD_TRIGGER, reach, _SLOT_SPAN * rep):
        first = int(chunk[0])
        origin = first if origin is None else origin
        # slot j of a chunk is the signal-arrival time first + delay + j * rep
        slot, phase = np.divmod(chunk - first, rep)
        if (first - origin) % rep or phase.any():
            off = first if (first - origin) % rep else int(chunk[np.argmax(phase != 0)])
            raise ParameterError(f"herald at {off} ps is off the pulse grid of the first herald at {origin} ps: "
                                 f"heralds must share one phase modulo rep_period {rep}")
        # a B tag counts at slot j + i when it falls in the window of offsets[i] of slot j:
        # b_slot counts whole periods from slot 0's first window, its remainder in that window
        n_words = (int(slot[-1]) + n_k) // 64 + 2
        b_slot, since = np.divmod(near[Channel.HBT_B] - (first + b_start), rep)
        b_planes = _planes(b_slot[since < hi - lo], n_words)
        heralds = _planes(slot, n_words)
        # A tags exactly on a heralded slot of this chunk
        a_slot, since = np.divmod(near[Channel.HBT_A] - (first + delay), rep)
        a_planes = _planes(a_slot[since == 0], n_words) & heralds[0]
        n_a_slot += int(_weights(a_planes) @ np.bitwise_count(a_planes).sum(axis=1, dtype=np.int64))
        counts = _shifted_counts(np.concatenate((heralds, a_planes)), b_planes, n_k)
        counts *= np.concatenate((_weights(heralds), _weights(a_planes)))[:, None]
        totals += np.add.reduceat(counts, [0, len(heralds)])  # the herald rows, then the A rows
    if origin is None:
        raise EmptyEnsembleError("stream contains no herald tags")
    return HeraldedCounts(
        n_triggers=stream.counts()[Channel.HERALD_TRIGGER],  # of the replay just walked
        n_a_slot=n_a_slot,
        pair_counts=dict(zip(offsets, totals[1].tolist())),
        b_counts=dict(zip(offsets, totals[0].tolist())),
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
    """Emit the histogram as CSV rows (bin_center_ps, count), ``_CSV_ROWS`` rows at a time."""
    centers = hist.bin_centers()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_center_ps,count\n")
        for lo in range(0, hist.n_bins, _CSV_ROWS):
            rows = zip(centers[lo : lo + _CSV_ROWS].tolist(), hist.counts[lo : lo + _CSV_ROWS].tolist())
            fh.write("".join(f"{center:.1f},{count}\n" for center, count in rows))


def write_peaks_csv(peaks, g2_values, path) -> None:
    """Emit per-peak totals as CSV rows (peak_offset, counts, g2)."""
    g2_map = dict(g2_values) if g2_values is not None else {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("peak_offset,counts,g2\n")
        for k, counts in peaks:
            g2 = g2_map.get(k)
            fh.write(f"{k},{counts},{'' if g2 is None else format(g2, '.12g')}\n")
