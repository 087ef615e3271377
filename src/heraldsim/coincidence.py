"""Offline analysis of time-tag streams.

Cross-correlation histograms are built with a sorted two-pointer sweep: for
each tag on the first channel only the second-channel tags inside the
histogram window are touched, so the cost is O(pairs in range), never
all-pairs.  Pulsed sources produce peaks at multiples of the repetition
period; ``integrate_peaks`` sums each peak and ``g2_tau`` normalizes the
peak rate by the singles rates,

    g2(tau) = (C_ab(tau) / T) * f_rep / ((C_a / T) * (C_b / T)),

the standard low-photon-number estimator (1 for uncorrelated light).

``heralded_g2`` implements the number-triggered variant used for the
feedforward runs: tags at the herald-correlated pulse slots are selected
and the trigger rate replaces ``f_rep``, so for each pulse offset d

    g2(d) = N(A at slot, B at slot + d) * N_triggers
            / (N(A at slot) * N(B at slot + d)).

At d = 0 this is the heralded g2(0); at other offsets it tends to 1 for
uncorrelated light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsembleError, ParameterError, UndefinedStatisticError
from .event_sim import Channel, ExperimentConfig, TagStream, _open_mask, merged_gate_intervals

DEFAULT_BIN_WIDTH = 250
DEFAULT_RANGE = 100_000
DEFAULT_PEAK_HALFWIDTH = 1_000

_CHUNK = 1 << 18


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

    @property
    def duration_seconds(self) -> float:
        return self.duration * 1e-12


def _check_binning(bin_width: int, range_ps: int) -> None:
    if bin_width <= 0 or range_ps <= 0:
        raise ParameterError("bin_width and range_ps must be > 0")
    if 2 * range_ps >= 2**63:
        raise ParameterError(f"range_ps {range_ps} must be below 2**62 so that time differences fit 64 bits")
    if (2 * range_ps) % bin_width:
        raise ParameterError(f"bin_width {bin_width} must divide the histogram span {2 * range_ps}")


def _correlate_times(a: np.ndarray, b: np.ndarray, bin_width: int, range_ps: int) -> np.ndarray:
    """Counts per bin of t_b - t_a; the binning must have passed _check_binning."""
    n_bins = (2 * range_ps) // bin_width
    try:
        counts = np.zeros(n_bins, dtype=np.int64)
    except (ValueError, MemoryError):  # numpy refuses the size, or the allocation fails
        raise ParameterError(f"a histogram of {n_bins} bins cannot be allocated") from None
    if a.size == 0 or b.size == 0:
        return counts
    for lo in range(0, a.size, _CHUNK):
        chunk = a[lo : lo + _CHUNK]
        left = np.searchsorted(b, chunk - range_ps, side="left")
        right = np.searchsorted(b, chunk + range_ps, side="left")
        lens = right - left
        total = int(lens.sum())
        if total == 0:
            continue
        starts = np.repeat(left, lens)
        offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        tau = b[starts + offsets] - np.repeat(chunk, lens)
        counts += np.bincount((tau + range_ps) // bin_width, minlength=n_bins)
    return counts


def correlate(
    stream: TagStream,
    pair: tuple,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
) -> CoincidenceHistogram:
    """Histogram of time differences t_b - t_a for a channel pair."""
    ch_a, ch_b = pair
    for ch in (ch_a, ch_b):
        if ch not in stream.channels:
            raise ParameterError(f"stream has no channel {ch!r}")
    _check_binning(bin_width, range_ps)
    a = stream.channels[ch_a]
    b = stream.channels[ch_b]
    counts = _correlate_times(a, b, bin_width, range_ps)
    return CoincidenceHistogram(
        bin_width=bin_width,
        range_ps=range_ps,
        counts=counts,
        channel_pair=(ch_a, ch_b),
        total_singles=(int(a.size), int(b.size)),
        duration=stream.duration,
    )


def _peak_offsets(range_ps: int, rep_period: int, peak_halfwidth: int) -> np.ndarray:
    k_min = math.ceil((-range_ps + peak_halfwidth) / rep_period)
    k_max = math.floor((range_ps - peak_halfwidth) / rep_period)
    return np.arange(k_min, k_max + 1)


def integrate_peaks(hist: CoincidenceHistogram, rep_period: int, peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH):
    """Sum counts in +-peak_halfwidth around each expected pulse peak.

    Returns a list of (pulse_offset, integrated_counts), covering every
    offset whose window fits inside the histogram range.
    """
    if rep_period <= 0 or rep_period % hist.bin_width:
        raise ParameterError("rep_period must be a positive multiple of the bin width")
    if peak_halfwidth < hist.bin_width // 2:
        raise ParameterError("peak_halfwidth must cover at least one bin")
    if 2 * peak_halfwidth > rep_period:
        raise ParameterError("peak windows overlap: need 2 * peak_halfwidth <= rep_period")
    centers = hist.bin_centers()
    out = []
    for k in _peak_offsets(hist.range_ps, rep_period, peak_halfwidth):
        lo = k * rep_period - peak_halfwidth
        hi = k * rep_period + peak_halfwidth
        sel = (centers >= lo) & (centers < hi)
        out.append((int(k), int(hist.counts[sel].sum())))
    return out


def g2_tau(
    hist: CoincidenceHistogram,
    rep_period: int,
    rep_rate: float,
    peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH,
):
    """Normalized correlation per pulse peak: list of (pulse_offset, g2)."""
    c_a, c_b = hist.total_singles
    if c_a == 0 or c_b == 0:
        raise UndefinedStatisticError("g2 is undefined with zero singles on a channel")
    if hist.duration <= 0:
        raise ParameterError("histogram carries no acquisition duration")
    if rep_rate <= 0:
        raise ParameterError("rep_rate must be > 0")
    duration_s = hist.duration_seconds
    norm = rep_rate * duration_s / (c_a * c_b)
    return [(k, counts * norm) for k, counts in integrate_peaks(hist, rep_period, peak_halfwidth)]


def _members(times: np.ndarray, sorted_reference: np.ndarray) -> np.ndarray:
    """Boolean mask of times that occur in the sorted reference array."""
    if sorted_reference.size == 0:
        return np.zeros(times.shape, dtype=bool)
    idx = np.searchsorted(sorted_reference, times)
    ok = idx < sorted_reference.size
    ok[ok] = sorted_reference[idx[ok]] == times[ok]
    return ok


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


def herald_conditioned_rates(stream: TagStream, config: ExperimentConfig):
    """Partition HBT tags by the reconstructed gate state of their pulse slot.

    Returns (open_rate, closed_rate, correlated_rate) in Hz.  The pulse slots
    are the signal-arrival times ``phase + j * rep_period`` inside the run,
    with ``phase`` the resolved signal delay modulo the period, and each tag
    belongs to its nearest slot.  A slot is open when its time lies inside a
    merged gate.  The slots of heralded pulses (herald time plus the signal
    delay) hold the correlated tags and belong to neither region.  Open and
    closed rates are tags per slot of their region times the repetition
    rate; the correlated rate is referred to the full run duration.
    """
    heralds = stream.channels[Channel.HERALD_TRIGGER]
    if heralds.size == 0:
        raise EmptyEnsembleError("stream contains no herald tags")
    rep = config.rep_period
    phase = config.resolved_signal_delay % rep
    duration = stream.duration
    n_slots = max(0, -((phase - duration) // rep))

    def slot_of(times):
        return (times - phase + rep // 2) // rep

    def slots_before(times):  # slots j in [0, n_slots) with phase + j * rep < times
        return np.clip(-((phase - times) // rep), 0, n_slots)

    starts, ends = merged_gate_intervals(heralds, config.latency, config.gate_length)
    n_open_slots = int(np.sum(slots_before(ends) - slots_before(starts)))
    heralded = np.unique(slot_of(heralds + config.resolved_signal_delay))
    heralded = heralded[(heralded >= 0) & (heralded < n_slots)]
    heralded_open = int(_open_mask(phase + heralded * rep, starts, ends).sum())
    open_slots = n_open_slots - heralded_open
    closed_slots = n_slots - n_open_slots - (heralded.size - heralded_open)

    tags = np.concatenate([stream.channels[Channel.HBT_A], stream.channels[Channel.HBT_B]])
    slot = slot_of(tags)
    slot = slot[(slot >= 0) & (slot < n_slots)]
    correlated = _members(slot, heralded)
    open_mask = _open_mask(phase + slot * rep, starts, ends) & ~correlated
    n_corr = int(correlated.sum())
    n_open = int(open_mask.sum())
    n_closed = int(slot.size - n_corr - n_open)

    slot_seconds = rep * 1e-12
    open_rate = n_open / (open_slots * slot_seconds) if open_slots > 0 else math.nan
    closed_rate = n_closed / (closed_slots * slot_seconds) if closed_slots > 0 else math.nan
    correlated_rate = n_corr / (duration * 1e-12) if duration > 0 else math.nan
    return open_rate, closed_rate, correlated_rate


@dataclass(frozen=True)
class HeraldedCounts:
    """Raw counters behind the trigger-conditioned g2 estimator."""

    n_triggers: int
    n_a_slot: int  # HBT-A tags at heralded slots
    pair_counts: dict  # pulse offset -> (A at slot, B at slot + offset) pairs
    b_counts: dict  # pulse offset -> B tags at (heralded slot + offset)


def heralded_coincidence_counts(
    stream: TagStream,
    config: ExperimentConfig,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
    peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH,
) -> HeraldedCounts:
    """Count triggers, slot-conditioned singles and slot pair coincidences.

    A pulse's signal-arrival slot is its herald time plus the resolved
    signal delay; tags on the two HBT channels are matched against those
    slots exactly (all tags are pulse-aligned).
    """
    _check_binning(bin_width, range_ps)
    heralds = stream.channels[Channel.HERALD_TRIGGER]
    if heralds.size == 0:
        raise EmptyEnsembleError("stream contains no herald tags")
    slots = heralds + config.resolved_signal_delay
    a = stream.channels[Channel.HBT_A]
    b = stream.channels[Channel.HBT_B]
    a_slot = a[_members(a, slots)]
    hist_kwargs = dict(bin_width=bin_width, range_ps=range_ps, duration=stream.duration)
    num_hist = CoincidenceHistogram(
        counts=_correlate_times(a_slot, b, bin_width, range_ps),
        channel_pair=(Channel.HBT_A, Channel.HBT_B),
        total_singles=(int(a_slot.size), int(b.size)),
        **hist_kwargs,
    )
    den_hist = CoincidenceHistogram(
        counts=_correlate_times(slots, b, bin_width, range_ps),
        channel_pair=(Channel.HERALD_TRIGGER, Channel.HBT_B),
        total_singles=(int(slots.size), int(b.size)),
        **hist_kwargs,
    )
    return HeraldedCounts(
        n_triggers=int(heralds.size),
        n_a_slot=int(a_slot.size),
        pair_counts=dict(integrate_peaks(num_hist, config.rep_period, peak_halfwidth)),
        b_counts=dict(integrate_peaks(den_hist, config.rep_period, peak_halfwidth)),
    )


def heralded_g2(
    stream: TagStream,
    config: ExperimentConfig,
    bin_width: int = DEFAULT_BIN_WIDTH,
    range_ps: int = DEFAULT_RANGE,
    peak_halfwidth: int = DEFAULT_PEAK_HALFWIDTH,
):
    """Trigger-conditioned g2 per pulse offset for a feedforward run.

    For each offset d,

        g2(d) = N(A at slot, B at slot + d) * N_triggers
                / (N(A at slot) * N(B at slot + d)),

    restricted to offsets with non-zero conditioned singles.  The offset-0
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
