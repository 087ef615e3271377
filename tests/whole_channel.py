"""Whole-channel references for the segment walk of ``heraldsim.coincidence``.

``correlate`` and ``heralded_coincidence_counts`` took whole channels before
they walked a stream's segments; these are those versions, which the
segment walk must reproduce exactly.  ``cut_stream`` hands out a stream's
channels as segments cut at given times, for tests that vary the cuts.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from heraldsim import Channel, EmptyEnsembleError, HeraldedCounts, ParameterError, TagStream
from heraldsim.coincidence import _check_binning, _peak_window
from heraldsim.event_sim import _rank

TAG_BLOCK = 1 << 16  # first-channel tags per binary search
PAIR_BUDGET = 1 << 17  # pairs gathered at once
SLOT_SPAN = 1 << 18  # pulse slots per chunk of the heralded estimator


def _check_on_grid(heralds: np.ndarray, origin: int, rep: int) -> None:
    """Raise ParameterError naming the first herald off the pulse grid through origin."""
    off_grid = np.flatnonzero((heralds - origin) % rep)
    if off_grid.size:
        raise ParameterError(
            f"herald at {int(heralds[off_grid[0]])} ps is off the pulse grid of the first herald at "
            f"{origin} ps: heralds must share one phase modulo rep_period {rep}"
        )


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and how often each occurs."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return values[new], np.diff(np.flatnonzero(new), append=values.size)


def _summed_rows(rows: np.ndarray, index: np.ndarray, largest: int) -> np.ndarray:
    """rows[index].sum(axis=0) in int64, for int32 rows with no entry above largest.

    Rows are gathered at most PAIR_BUDGET entries at a time, and few enough
    at a time that their int32 sum cannot overflow.
    """
    step = max(1, min(PAIR_BUDGET // max(1, rows.shape[1]), (2**31 - 1) // max(1, largest)))
    total = np.zeros(rows.shape[1], dtype=np.int64)
    for lo in range(0, index.size, step):
        total += np.einsum("ij->j", rows[index[lo : lo + step]])
    return total


def correlate_times(a: np.ndarray, b: np.ndarray, bin_width: int, range_ps: int,
                    tag_block: int = TAG_BLOCK, pair_budget: int = PAIR_BUDGET) -> np.ndarray:
    """Counts per bin of t_b - t_a over whole sorted channels, by blocks of a and pair windows."""
    _check_binning(bin_width, range_ps)
    n_bins = (2 * range_ps) // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for lo in range(0, a.size, tag_block):
        tags = a[lo : lo + tag_block]
        # both run bounds of every tag come from merges with the part of b
        # the block can reach
        offset = int(np.searchsorted(b, tags[0] - range_ps))
        reach = b[offset : np.searchsorted(b, tags[-1] + range_ps)]
        first = _rank(tags - range_ps, reach)
        # pairs are numbered p = 0, 1, ... in tag order; pair p of tag i, with
        # bounds[i] <= p < bounds[i + 1], is b[first[i] + p] once first is shifted
        bounds = np.zeros(tags.size + 1, dtype=np.int64)
        np.cumsum(_rank(tags + range_ps, reach) - first, out=bounds[1:])
        first += offset
        first -= bounds[:-1]
        total = int(bounds[-1])
        for p0 in range(0, total, pair_budget):
            p1 = min(p0 + pair_budget, total)
            t0 = int(np.searchsorted(bounds, p0, side="right")) - 1
            t1 = int(np.searchsorted(bounds, p1, side="left"))
            lens = np.diff(np.clip(bounds[t0 : t1 + 1], p0, p1))
            index = np.repeat(first[t0:t1] + p0, lens)
            index += np.arange(p1 - p0)
            tau = b[index]
            tau -= np.repeat(tags[t0:t1] - range_ps, lens)
            tau //= bin_width
            counts += np.bincount(tau, minlength=n_bins)
    return counts


def heralded_coincidence_counts(stream, config, bin_width, range_ps, peak_halfwidth,
                                slot_span: int = SLOT_SPAN) -> HeraldedCounts:
    """The pulse-grid counts over whole channels, ``slot_span`` slots at a time from each chunk's first herald."""
    _check_binning(bin_width, range_ps)
    rep = config.rep_period
    lo, hi, offsets = _peak_window(bin_width, range_ps, rep, peak_halfwidth)
    channels = stream.channels
    heralds = channels[Channel.HERALD_TRIGGER]
    if heralds.size == 0:
        raise EmptyEnsembleError("stream contains no herald tags")
    a = channels[Channel.HBT_A]
    b = channels[Channel.HBT_B]
    delay = config.resolved_signal_delay
    n_k = len(offsets)
    in_window = np.zeros(slot_span + n_k, dtype=np.int32)
    rows = sliding_window_view(in_window, n_k)
    heralded = np.zeros(slot_span, dtype=bool)
    pair_counts = np.zeros(n_k, dtype=np.int64)
    b_counts = np.zeros(n_k, dtype=np.int64)
    n_a_slot = 0
    origin = int(heralds[0])
    start = 0
    while start < heralds.size:
        first = int(heralds[start])
        stop = int(np.searchsorted(heralds, first + slot_span * rep, side="left"))
        chunk = heralds[start:stop]
        _check_on_grid(chunk, origin, rep)
        slot = (chunk - first) // rep
        last = int(slot[-1])
        arrival = first + delay
        # B tags from the start of slot 0's first window to the end of slot
        # `last`'s last window; b_slot counts whole periods from that start,
        # and the remainder must fall inside the window
        base = arrival + lo + offsets.start * rep
        since = b[np.searchsorted(b, base) : np.searchsorted(b, base + (last + n_k) * rep)] - base
        b_slot = since // rep
        b_slot, per_slot = _runs(b_slot[since - b_slot * rep < hi - lo])
        in_window[b_slot] = per_slot
        largest = int(per_slot.max(initial=0))
        b_counts += _summed_rows(rows, slot, largest)
        heralded[slot] = True
        since = a[np.searchsorted(a, arrival) : np.searchsorted(a, arrival + (last + 1) * rep)] - arrival
        a_slot = since // rep
        a_slot = a_slot[a_slot * rep == since]
        a_slot = a_slot[heralded[a_slot]]
        n_a_slot += a_slot.size
        pair_counts += _summed_rows(rows, a_slot, largest)
        heralded[slot] = False
        in_window[b_slot] = 0
        start = stop
    return HeraldedCounts(
        n_triggers=int(heralds.size),
        n_a_slot=n_a_slot,
        pair_counts=dict(zip(offsets, pair_counts.tolist())),
        b_counts=dict(zip(offsets, b_counts.tolist())),
    )


def cut_stream(stream: TagStream, cuts) -> TagStream:
    """The stream's channels handed out as segments cut at ``cuts``.

    Each cut is ``(time, ties)``: a channel's tags below ``time`` go before
    the cut, those above it after, and of its tags at ``time`` the first
    ``ties[channel id]`` go before.  So one segment may end at a time where
    the next begins, in one channel or across channels, and a cut that falls
    in a gap, or repeats, leaves an empty segment.
    """
    channels = stream.channels
    edges = []
    for time, ties in sorted(cuts, key=lambda cut: cut[0]):
        at = {}
        for ch, times in channels.items():
            left, right = np.searchsorted(times, time), np.searchsorted(times, time, side="right")
            at[ch] = int(min(left + ties[int(ch)], right))
        edges.append(at)
    for ch in Channel:  # a repeated cut takes at least the ties its twin took
        for before, after in zip(edges, edges[1:]):
            after[ch] = max(after[ch], before[ch])
    bounds = [dict.fromkeys(Channel, 0)] + edges + [{ch: times.size for ch, times in channels.items()}]
    segments = [{ch: channels[ch][lo[ch] : hi[ch]] for ch in Channel} for lo, hi in zip(bounds, bounds[1:])]
    last = -np.inf
    for segment in segments:  # the protocol the walk relies on
        assert all(times.size == 0 or times[0] >= last for times in segment.values())
        last = max([last] + [int(times[-1]) for times in segment.values() if times.size])
    return TagStream(None, stream.duration, lambda: iter(segments))
