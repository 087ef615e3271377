import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import (
    Channel,
    CoincidenceHistogram,
    EmptyEnsembleError,
    ExperimentConfig,
    HeraldSelection,
    HeraldedCounts,
    ParameterError,
    TagStream,
    UndefinedStatisticError,
    correlate,
    g2_tau,
    heralded_coincidence_counts,
    heralded_g2,
    integrate_peaks,
    isolated_times,
    run,
)
from heraldsim import coincidence
from heraldsim.coincidence import DEFAULT_BIN_WIDTH, DEFAULT_PEAK_HALFWIDTH, DEFAULT_RANGE
from whole_channel import correlate_times as whole_correlate_times
from whole_channel import cut_stream
from whole_channel import heralded_coincidence_counts as whole_heralded_counts

REP = 12_500


def make_stream(herald=(), hbt_a=(), hbt_b=(), duration=None):
    channels = {
        Channel.HERALD_TRIGGER: np.asarray(sorted(herald), dtype=np.int64),
        Channel.HBT_A: np.asarray(sorted(hbt_a), dtype=np.int64),
        Channel.HBT_B: np.asarray(sorted(hbt_b), dtype=np.int64),
    }
    if duration is None:
        tops = [arr[-1] for arr in channels.values() if arr.size]
        duration = (max(tops) + REP) if tops else REP
    return TagStream(channels=channels, duration=int(duration))


# Binnings that must raise ParameterError before any pair is counted.  The
# last two ask for 2**47 and 2**60 bins, which numpy fails to allocate or
# refuses outright, so neither touches memory.
BAD_BINNINGS = [
    (0, 100_000, "must be > 0"),
    (-250, 100_000, "must be > 0"),
    (250, 0, "must be > 0"),
    (300, 100_000, "must divide the histogram span 200000"),
    (2**62, 2**62, "must be below 2\\*\\*62"),
    (1, 2**46, "histogram of 140737488355328 bins cannot be allocated"),
    (1, 2**59, "cannot be allocated"),
]


class TestCorrelate:
    def test_single_pair_lands_in_zero_bin(self):
        stream = make_stream(hbt_a=[5_000], hbt_b=[5_000])
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        assert hist.counts.sum() == 1
        zero_bin = hist.range_ps // hist.bin_width  # bin [0, bin_width)
        assert hist.counts[zero_bin] == 1

    def test_pulse_spaced_tags_make_pulse_spaced_peaks(self):
        heralds = [0]
        tags = [k * REP for k in range(0, 8)]
        stream = make_stream(herald=heralds, hbt_a=tags)
        hist = correlate(stream, (Channel.HERALD_TRIGGER, Channel.HBT_A))
        nonzero_centers = hist.bin_centers()[hist.counts > 0]
        # edge ties bin upward, so each peak sits in the bin starting at k*REP
        assert np.all((nonzero_centers - hist.bin_width / 2) % REP == 0)
        assert hist.counts.sum() == 8

    def test_pair_metadata(self):
        stream = make_stream(hbt_a=[0, REP], hbt_b=[0], duration=10 * REP)
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        assert hist.total_singles == (2, 1)
        assert hist.duration == 10 * REP
        assert hist.channel_pair == (Channel.HBT_A, Channel.HBT_B)

    def test_window_is_half_open(self):
        stream = make_stream(hbt_a=[0], hbt_b=[100_000])
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B), range_ps=100_000)
        assert hist.counts.sum() == 0  # +range excluded
        hist = correlate(stream, (Channel.HBT_B, Channel.HBT_A), range_ps=100_000)
        assert hist.counts.sum() == 1  # -range included

    def test_flat_for_independent_poisson_streams(self):
        rng = np.random.default_rng(42)
        duration = int(2e11)  # 0.2 s
        rate_a, rate_b = 2e6, 3e6
        a = np.sort(rng.integers(0, duration, int(rate_a * duration * 1e-12)))
        b = np.sort(rng.integers(0, duration, int(rate_b * duration * 1e-12)))
        stream = make_stream(hbt_a=a, hbt_b=b, duration=duration)
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B), bin_width=1_000, range_ps=50_000)
        expected = rate_a * rate_b * 1_000e-12 * duration * 1e-12
        sigma = math.sqrt(expected)
        assert abs(hist.counts.mean() - expected) <= 3 * sigma / math.sqrt(hist.n_bins)
        assert np.all(np.abs(hist.counts - expected) <= 5 * sigma)

    def test_mirror_symmetry(self):
        # off-grid differences so no tie sits exactly on a bin edge
        rng = np.random.default_rng(3)
        a = np.unique(rng.integers(0, 10**9, 4_000)) * 250
        b = np.unique(rng.integers(0, 10**9, 4_000)) * 250 + 37
        stream = make_stream(hbt_a=a, hbt_b=b)
        ab = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        ba = correlate(stream, (Channel.HBT_B, Channel.HBT_A))
        np.testing.assert_array_equal(ab.counts, ba.counts[::-1])

    def test_conservation_against_brute_force(self):
        rng = np.random.default_rng(11)
        a = np.sort(rng.integers(0, 10**6, 300))
        b = np.sort(rng.integers(0, 10**6, 300))
        stream = make_stream(hbt_a=a, hbt_b=b)
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B), bin_width=250, range_ps=50_000)
        brute = sum(
            1
            for ta in a
            for tb in b
            if -50_000 <= tb - ta < 50_000
        )
        assert hist.counts.sum() == brute

    def test_bad_bin_width_rejected(self):
        stream = make_stream(hbt_a=[0], hbt_b=[0])
        with pytest.raises(ParameterError):
            correlate(stream, (Channel.HBT_A, Channel.HBT_B), bin_width=300, range_ps=100_000)

    @pytest.mark.parametrize("bin_width, range_ps, message", BAD_BINNINGS)
    def test_binning_checked_before_correlating(self, bin_width, range_ps, message):
        stream = make_stream(hbt_a=[0, 50_000], hbt_b=np.arange(0, 200_000, 12_500))
        with pytest.raises(ParameterError, match=message):
            correlate(stream, (Channel.HBT_A, Channel.HBT_B), bin_width=bin_width, range_ps=range_ps)


class TestIntegratePeaks:
    def test_flat_histogram_equal_peaks(self):
        counts = np.ones(800, dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=250,
            range_ps=100_000,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(100, 100),
            duration=10**9,
        )
        peaks = integrate_peaks(hist, REP, 1_000)
        values = [v for _, v in peaks]
        assert len(set(values)) == 1
        assert values[0] == 8  # 2 ns window / 250 ps bins

    def test_offsets_cover_range(self):
        counts = np.zeros(800, dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=250,
            range_ps=100_000,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(1, 1),
            duration=10**9,
        )
        offsets = [k for k, _ in integrate_peaks(hist, REP, 1_000)]
        assert offsets == list(range(-7, 8))

    def test_overlapping_windows_rejected(self):
        counts = np.zeros(800, dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=250,
            range_ps=100_000,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(1, 1),
            duration=10**9,
        )
        with pytest.raises(ParameterError):
            integrate_peaks(hist, REP, 7_000)

    def test_range_narrower_than_the_halfwidth_rejected(self):
        # [-500 ps, 500 ps) holds no +-1 ns window; the offset-0 window fits once the range reaches it
        counts = np.zeros(4, dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=250,
            range_ps=500,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(1, 1),
            duration=10**9,
        )
        with pytest.raises(ParameterError, match="no peak window fits"):
            integrate_peaks(hist, REP, 1_000)
        wide = dataclasses.replace(hist, range_ps=1_000, counts=np.ones(8, dtype=np.int64))
        assert integrate_peaks(wide, REP, 1_000) == [(0, 8)]

    def test_rep_period_must_align_with_bins(self):
        counts = np.zeros(800, dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=250,
            range_ps=100_000,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(1, 1),
            duration=10**9,
        )
        with pytest.raises(ParameterError):
            integrate_peaks(hist, 12_600, 1_000)


class TestG2Tau:
    def test_pulsed_bernoulli_streams_give_unity(self):
        # ~2e4 coincidences per peak, so the 0.05 band is ~7 sigma
        rng = np.random.default_rng(7)
        n_pulses = 2_000_000
        p = 0.1
        times = np.arange(n_pulses, dtype=np.int64) * REP
        a = times[rng.random(n_pulses) < p]
        b = times[rng.random(n_pulses) < p]
        stream = make_stream(hbt_a=a, hbt_b=b, duration=n_pulses * REP)
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        for offset, g2 in g2_tau(hist, REP):
            assert g2 == pytest.approx(1.0, abs=0.05), f"offset {offset}"

    def test_zero_singles_raise(self):
        stream = make_stream(hbt_a=[0], hbt_b=[])
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        with pytest.raises(UndefinedStatisticError):
            g2_tau(hist, REP)

    def test_normalised_at_one_over_the_period(self):
        counts = np.zeros(800, dtype=np.int64)
        counts[400] = 7  # offset 0
        counts[450] = 3  # offset 1
        duration = 123_456_789
        c_a, c_b = 40, 9
        hist = CoincidenceHistogram(bin_width=250, range_ps=100_000, counts=counts,
                                    channel_pair=(Channel.HBT_A, Channel.HBT_B), total_singles=(c_a, c_b),
                                    duration=duration)
        norm = (1e12 / REP) * (duration * 1e-12) / (c_a * c_b)
        g2 = dict(g2_tau(hist, REP, 1_000))
        assert g2 == {k: {0: 7, 1: 3}.get(k, 0) * norm for k in range(-7, 8)}


class TestIsolatedTimes:
    def test_keeps_only_separated(self):
        times = np.array([0, 100, 5_000, 20_000, 20_100, 40_000], dtype=np.int64)
        np.testing.assert_array_equal(isolated_times(times, 1_000), [5_000, 40_000])

    def test_single_tag_kept(self):
        np.testing.assert_array_equal(isolated_times(np.array([42]), 10**6), [42])


def reference_config(**overrides):
    base = dict(
        mean_pairs_per_pulse=0.0075,
        n_pulses=1_000,
        seed=0,
        herald_selection=HeraldSelection.at_least(1, 4),
        dark_rate=0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestHeraldedG2:
    def test_independent_slot_clicks_give_unity(self):
        # heralded slots with independent A/B click probability -> g2(0) = 1
        rng = np.random.default_rng(21)
        n_pulses = 2_000_000
        cfg = reference_config(n_pulses=n_pulses)
        herald_pulses = np.nonzero(rng.random(n_pulses) < 0.01)[0].astype(np.int64)
        heralds = herald_pulses * REP
        slots = heralds + 25_000
        a = slots[rng.random(slots.size) < 0.3]
        b = slots[rng.random(slots.size) < 0.3]
        stream = make_stream(herald=heralds, hbt_a=a, hbt_b=b, duration=n_pulses * REP)
        g2 = dict(heralded_g2(stream, cfg))
        assert g2[0] == pytest.approx(1.0, abs=0.05)

    def test_anticorrelated_slot_clicks_give_zero(self):
        rng = np.random.default_rng(22)
        n_pulses = 500_000
        cfg = reference_config(n_pulses=n_pulses)
        herald_pulses = np.nonzero(rng.random(n_pulses) < 0.01)[0].astype(np.int64)
        slots = herald_pulses * REP + 25_000
        go_a = rng.random(slots.size) < 0.5
        stream = make_stream(
            herald=herald_pulses * REP,
            hbt_a=slots[go_a],
            hbt_b=slots[~go_a],
            duration=n_pulses * REP,
        )
        g2 = dict(heralded_g2(stream, cfg))
        assert g2[0] == 0.0

    def test_uncorrelated_light_unity_at_nonzero_offsets(self):
        rng = np.random.default_rng(23)
        n_pulses = 2_000_000
        cfg = reference_config(n_pulses=n_pulses)
        herald_pulses = np.nonzero(rng.random(n_pulses) < 0.01)[0].astype(np.int64)
        times = np.arange(n_pulses, dtype=np.int64) * REP + 25_000
        a = times[rng.random(n_pulses) < 0.3]
        b = times[rng.random(n_pulses) < 0.3]
        stream = make_stream(herald=herald_pulses * REP, hbt_a=a, hbt_b=b, duration=n_pulses * REP)
        for offset, g2 in heralded_g2(stream, cfg):
            assert g2 == pytest.approx(1.0, abs=0.1), f"offset {offset}"

    def test_hand_built_channels_are_normalised(self):
        # a TagStream built by hand holds one int64 array per channel: lists
        # are converted, a missing channel is empty, and other keys are refused
        cfg = reference_config()
        slots = np.arange(0, 400_000, REP) + 25_000
        arrays = make_stream(herald=slots - 25_000, hbt_a=slots, hbt_b=slots[::2], duration=400_000)
        listed = TagStream(channels={Channel.HERALD_TRIGGER: (slots - 25_000).tolist(), Channel.HBT_A: slots.tolist(),
                                     Channel.HBT_B: slots[::2].tolist()}, duration=400_000)
        for ch in Channel:
            assert listed.channels[ch].dtype == np.int64
        assert heralded_g2(listed, cfg) == heralded_g2(arrays, cfg)
        no_b = TagStream(channels={Channel.HERALD_TRIGGER: slots - 25_000, Channel.HBT_A: slots}, duration=400_000)
        assert no_b.channels[Channel.HBT_B].dtype == np.int64 and no_b.channels[Channel.HBT_B].size == 0
        assert heralded_g2(no_b, cfg) == []
        with pytest.raises(ParameterError, match="must be Channel members"):
            TagStream(channels={"hbt_a": slots}, duration=400_000)

    @pytest.mark.parametrize("flipped", list(Channel))
    def test_hand_built_channel_in_falling_order_is_sorted(self, flipped):
        # a channel handed in with its times falling gave correlate no pairs
        # or a numpy error, and heralded_g2 an undefined statistic
        cfg = reference_config(mean_pairs_per_pulse=0.5, n_pulses=40_000, herald_selection=HeraldSelection.exactly(1))
        stream, _ = run(cfg)
        channels = dict(stream.channels)
        falling = channels[flipped][::-1]
        channels[flipped] = falling
        hand_built = TagStream(channels=channels, duration=stream.duration)
        np.testing.assert_array_equal(hand_built.channels[flipped], stream.channels[flipped])
        assert falling[0] > falling[-1]  # the caller's array is left as it was
        assert heralded_g2(hand_built, cfg) == heralded_g2(stream, cfg)
        for pair in ((Channel.HBT_A, Channel.HBT_B), (Channel.HERALD_TRIGGER, Channel.HBT_A)):
            np.testing.assert_array_equal(correlate(hand_built, pair).counts, correlate(stream, pair).counts)

    def test_no_heralds_raise(self):
        cfg = reference_config()
        with pytest.raises(EmptyEnsembleError):
            heralded_g2(make_stream(hbt_a=[0]), cfg)

    @pytest.mark.parametrize("bin_width, range_ps, message", BAD_BINNINGS)
    def test_binning_checked_before_correlating(self, bin_width, range_ps, message):
        slots = np.arange(0, 400_000, 12_500) + 25_000
        stream = make_stream(herald=slots - 25_000, hbt_a=slots, hbt_b=slots)
        with pytest.raises(ParameterError, match=message):
            heralded_g2(stream, reference_config(), bin_width=bin_width, range_ps=range_ps)

    def test_event_stream_dip_at_zero_unity_inside_gate(self):
        # single-click heralding on a simulated run: g2(0) dips near zero
        # while in-gate offsets stay at the uncorrelated level of 1
        from heraldsim import run

        cfg = reference_config(
            mean_pairs_per_pulse=0.1,
            n_pulses=4_000_000,
            seed=33,
            herald_selection=HeraldSelection.exactly(1),
        )
        stream, _ = run(cfg, threads=2)
        g2 = dict(heralded_g2(stream, cfg))
        assert g2[0] < 0.2
        for offset in range(1, 7):
            assert g2[offset] == pytest.approx(1.0, abs=0.1), f"offset {offset}"


# ---------------------------------------------------------------------------
# Reference implementations: the pair-histogram estimator and the tag-chunked
# correlator that the pulse-grid estimator and the pair-budgeted correlator
# replaced.  The fast paths must reproduce them exactly.


def reference_correlate_times(a, b, bin_width, range_ps):
    n_bins = (2 * range_ps) // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return counts
    for lo in range(0, a.size, 1 << 18):
        chunk = a[lo : lo + (1 << 18)]
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


def reference_integrate_peaks(counts, bin_width, range_ps, rep_period, peak_halfwidth):
    centers = -range_ps + (np.arange(counts.size) + 0.5) * bin_width
    k_min = math.ceil((-range_ps + peak_halfwidth) / rep_period)
    k_max = math.floor((range_ps - peak_halfwidth) / rep_period)
    out = []
    for k in range(k_min, k_max + 1):
        sel = (centers >= k * rep_period - peak_halfwidth) & (centers < k * rep_period + peak_halfwidth)
        out.append((k, int(counts[sel].sum())))
    return out


def reference_heralded_coincidence_counts(stream, config, bin_width, range_ps, peak_halfwidth):
    slots = stream.channels[Channel.HERALD_TRIGGER] + config.resolved_signal_delay
    a = stream.channels[Channel.HBT_A]
    b = stream.channels[Channel.HBT_B]
    idx = np.searchsorted(slots, a)
    at_slot = idx < slots.size
    at_slot[at_slot] = slots[idx[at_slot]] == a[at_slot]
    a_slot = a[at_slot]

    def peaks(times):
        counts = reference_correlate_times(times, b, bin_width, range_ps)
        return dict(reference_integrate_peaks(counts, bin_width, range_ps, config.rep_period, peak_halfwidth))

    return HeraldedCounts(
        n_triggers=int(slots.size),
        n_a_slot=int(a_slot.size),
        pair_counts=peaks(a_slot),
        b_counts=peaks(slots),
    )


@st.composite
def binnings(draw):
    """(bin_width, range_ps, rep_period, peak_halfwidth) that integrate_peaks accepts."""
    bin_width = draw(st.integers(1, 6))
    rep_period = bin_width * draw(st.integers(1, 6))
    half_bins = draw(st.integers(1, 12 * rep_period // bin_width).filter(lambda n: n * bin_width % 2 == 0))
    range_ps = half_bins * bin_width // 2  # odd multiples of bin_width / 2 included
    # up to 2 * halfwidth = period, and no wider than the range
    peak_halfwidth = draw(st.integers(bin_width // 2, min(rep_period // 2, range_ps)))
    return bin_width, range_ps, rep_period, peak_halfwidth


@st.composite
def grid_cases(draw):
    """A stream whose heralds share one phase, with A and B tags on and off the grid."""
    bin_width, range_ps, rep_period, peak_halfwidth = draw(binnings())
    signal_delay = draw(st.integers(0, 4 * rep_period))  # off the grid when not a multiple
    herald_phase = draw(st.integers(0, rep_period - 1))
    n_slots = 40
    slot_index = st.integers(0, n_slots)
    herald_slots = draw(st.lists(slot_index, min_size=1, max_size=30))  # duplicates allowed
    heralds = [herald_phase + j * rep_period for j in herald_slots]
    grid_start = herald_phase + signal_delay
    # slots reach from before the first herald's slot to past the run's end
    on_grid = st.builds(lambda j: grid_start + j * rep_period, st.integers(-6, n_slots + 6))
    anywhere = st.integers(max(0, grid_start - 6 * rep_period), grid_start + (n_slots + 6) * rep_period)
    at_herald = st.sampled_from([h + signal_delay for h in heralds])
    tag = st.one_of(at_herald, on_grid, anywhere)
    hbt_a = draw(st.lists(tag, max_size=40))
    hbt_b = draw(st.lists(tag, max_size=40))
    config = reference_config(rep_period=rep_period, signal_delay=signal_delay)
    stream = make_stream(herald=heralds, hbt_a=hbt_a, hbt_b=hbt_b)
    return stream, config, (bin_width, range_ps, peak_halfwidth)


class TestPulseGridEstimator:
    @given(grid_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_pair_histograms(self, case):
        stream, config, binning = case
        assert heralded_coincidence_counts(stream, config, *binning) == reference_heralded_coincidence_counts(
            stream, config, *binning
        )

    @pytest.mark.parametrize("span", [1, 2, 3, 7])
    @given(case=grid_cases())
    @settings(max_examples=80, deadline=None)
    def test_chunk_edges(self, span, case):
        stream, config, binning = case
        with mock.patch.object(coincidence, "_SLOT_SPAN", span):
            counts = heralded_coincidence_counts(stream, config, *binning)
        assert counts == reference_heralded_coincidence_counts(stream, config, *binning)

    def test_default_binning_on_simulated_run(self):
        cfg = reference_config(mean_pairs_per_pulse=0.5, n_pulses=200_000, seed=5,
                               herald_selection=HeraldSelection.exactly(1), dark_rate=1e5)
        stream, _ = run(cfg)
        binning = (DEFAULT_BIN_WIDTH, DEFAULT_RANGE, DEFAULT_PEAK_HALFWIDTH)
        with mock.patch.object(coincidence, "_SLOT_SPAN", 1_000):
            counts = heralded_coincidence_counts(stream, cfg, *binning)
        assert counts == reference_heralded_coincidence_counts(stream, cfg, *binning)
        assert counts.n_a_slot > 0

    def test_empty_hbt_channels(self):
        stream = make_stream(herald=[0, REP, 5 * REP])
        counts = heralded_coincidence_counts(stream, reference_config())
        assert counts.n_triggers == 3
        assert counts.n_a_slot == 0
        assert set(counts.pair_counts.values()) == {0}
        assert set(counts.b_counts.values()) == {0}
        assert sorted(counts.b_counts) == list(range(-7, 8))

    @pytest.mark.parametrize("span", [1, 3, 1 << 18])
    def test_herald_off_the_grid_named(self, span):
        heralds = [0, REP, 30 * REP, 30 * REP + 1, 31 * REP + 7, 40 * REP]
        stream = make_stream(herald=heralds, hbt_a=[25_000], hbt_b=[25_000])
        with mock.patch.object(coincidence, "_SLOT_SPAN", span), pytest.raises(
            ParameterError, match=f"herald at {30 * REP + 1} ps is off the pulse grid"
        ):
            heralded_coincidence_counts(stream, reference_config())


class TestPeakWindows:
    @given(binnings(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_integrate_peaks_matches_bin_centre_masks(self, binning, data):
        bin_width, range_ps, rep_period, peak_halfwidth = binning
        n_bins = 2 * range_ps // bin_width
        counts = np.asarray(data.draw(st.lists(st.integers(0, 50), min_size=n_bins, max_size=n_bins)), dtype=np.int64)
        hist = CoincidenceHistogram(
            bin_width=bin_width,
            range_ps=range_ps,
            counts=counts,
            channel_pair=(Channel.HBT_A, Channel.HBT_B),
            total_singles=(1, 1),
            duration=1,
        )
        assert integrate_peaks(hist, rep_period, peak_halfwidth) == reference_integrate_peaks(
            counts, bin_width, range_ps, rep_period, peak_halfwidth
        )


sorted_times = st.lists(st.integers(-200, 200), max_size=60).map(lambda v: np.asarray(sorted(v), dtype=np.int64))


def correlate_times(a, b, bin_width, range_ps):
    """correlate's counts for HBT-A tags ``a`` and HBT-B tags ``b``."""
    stream = make_stream(hbt_a=a, hbt_b=b)
    return correlate(stream, (Channel.HBT_A, Channel.HBT_B), bin_width, range_ps).counts


class TestPairBudget:
    @given(sorted_times, sorted_times, st.integers(1, 8), st.integers(1, 80))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, a, b, bin_width, half_range):
        range_ps = bin_width * half_range
        np.testing.assert_array_equal(
            correlate_times(a, b, bin_width, range_ps),
            reference_correlate_times(a, b, bin_width, range_ps),
        )

    @pytest.mark.parametrize("budget, block", [(1, 1), (2, 3), (3, 1), (5, 2), (7, 64)])
    @given(a=sorted_times, b=sorted_times, bin_width=st.integers(1, 8), half_range=st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_chunk_edges(self, budget, block, a, b, bin_width, half_range):
        # windows end inside one tag's run of pairs, and tag blocks split runs of equal tags
        range_ps = bin_width * half_range
        with mock.patch.object(coincidence, "_PAIR_BUDGET", budget), mock.patch.object(
            coincidence, "_TAG_BLOCK", block
        ):
            counts = correlate_times(a, b, bin_width, range_ps)
        np.testing.assert_array_equal(counts, reference_correlate_times(a, b, bin_width, range_ps))

    def test_peak_memory_bounded_at_wide_range(self):
        # at 10 us a mu = 0.5 stream has ~160 herald-A pairs per herald; the
        # gather buffers must stay within the pair budget, whatever the pair count
        cfg = reference_config(mean_pairs_per_pulse=0.5, n_pulses=40_000, seed=6,
                               herald_selection=HeraldSelection.exactly(1))
        stream, _ = run(cfg)
        tracemalloc.start()
        try:
            hist = correlate(stream, (Channel.HERALD_TRIGGER, Channel.HBT_A), range_ps=10_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() > 10 * coincidence._PAIR_BUDGET
        assert peak < 16 * 2**20


def cut_lists(lo, hi):
    """Cuts for ``cut_stream`` at times in [lo, hi], repeats allowed."""
    return st.lists(st.tuples(st.integers(lo, hi), st.tuples(*[st.integers(0, 3)] * len(Channel))), max_size=8)


def times_span(stream):
    tops = [times for times in stream.channels.values() if times.size]
    return (int(min(t[0] for t in tops)) - 2, int(max(t[-1] for t in tops)) + 2) if tops else (0, 1)


@st.composite
def cut_correlate_cases(draw):
    stream = make_stream(herald=draw(sorted_times), hbt_a=draw(sorted_times), hbt_b=draw(sorted_times))
    bin_width = draw(st.integers(1, 8))
    range_ps = bin_width * draw(st.integers(1, 80))
    return stream, draw(cut_lists(*times_span(stream))), bin_width, range_ps


@st.composite
def cut_grid_cases(draw):
    stream, config, binning = draw(grid_cases())
    return stream, config, binning, draw(cut_lists(*times_span(stream)))


NO_TIES = (0, 0, 0)


class TestSegmentWalk:
    """The walk over a stream's segments against the whole-channel analyses, over any cuts of the stream."""

    # a repeated cut leaves an empty segment; at 10 the herald and HBT-B tags
    # end one segment and the HBT-A tag begins the next; the cut at 6 falls
    # inside the window of the HBT-A tag at 0, between its partners 5 and 12
    @example(case=(make_stream(herald=[10], hbt_a=[0, 10], hbt_b=[5, 10, 12]),
                   [(6, NO_TIES), (6, NO_TIES), (10, (1, 0, 1))], 1, 8), block=1)
    @example(case=(make_stream(hbt_a=[3, 3, 3], hbt_b=[3, 3]), [(3, (0, 1, 1)), (3, (0, 2, 2))], 2, 4), block=2)
    @given(case=cut_correlate_cases(), block=st.sampled_from([1, 2, 3, 1 << 16]))
    @settings(max_examples=300, deadline=None)
    def test_correlate_matches_whole_channels(self, case, block):
        stream, cuts, bin_width, range_ps = case
        pair = (Channel.HBT_A, Channel.HBT_B)
        with mock.patch.object(coincidence, "_TAG_BLOCK", block):
            hist = correlate(cut_stream(stream, cuts), pair, bin_width, range_ps)
        channels = stream.channels
        expected = whole_correlate_times(channels[Channel.HBT_A], channels[Channel.HBT_B], bin_width, range_ps)
        np.testing.assert_array_equal(hist.counts, expected)
        assert hist.total_singles == (channels[Channel.HBT_A].size, channels[Channel.HBT_B].size)

    # the B windows of the herald at REP reach from -62.5 to 137.5 ns, and the
    # cuts at 30 and 60 ns fall inside them, one of them between two B tags
    @example(case=(make_stream(herald=[0, REP], hbt_a=[25_000, 37_500], hbt_b=[12_500, 37_500, 45_000, 75_000]),
                   reference_config(), (DEFAULT_BIN_WIDTH, DEFAULT_RANGE, DEFAULT_PEAK_HALFWIDTH),
                   [(30_000, NO_TIES), (37_500, (1, 0, 1)), (60_000, NO_TIES)]), block=1, span=1)
    @given(case=cut_grid_cases(), block=st.sampled_from([1, 2, 1 << 16]), span=st.sampled_from([1, 3, 1 << 18]))
    @settings(max_examples=300, deadline=None)
    def test_heralded_counts_match_whole_channels(self, case, block, span):
        stream, config, binning, cuts = case
        with mock.patch.object(coincidence, "_TAG_BLOCK", block), mock.patch.object(coincidence, "_SLOT_SPAN", span):
            counts = heralded_coincidence_counts(cut_stream(stream, cuts), config, *binning)
        assert counts == whole_heralded_counts(stream, config, *binning)

    def test_simulated_run_matches_whole_channels(self):
        # a run's segments end at its batch edges
        cfg = reference_config(mean_pairs_per_pulse=0.5, n_pulses=60_000, seed=8, dark_rate=1e6,
                               herald_selection=HeraldSelection.exactly(1))
        stream, _ = run(cfg, batch_size=7_000)
        channels = stream.channels
        for pair in ((Channel.HERALD_TRIGGER, Channel.HBT_A), (Channel.HBT_B, Channel.HBT_A)):
            np.testing.assert_array_equal(correlate(stream, pair).counts,
                                          whole_correlate_times(channels[pair[0]], channels[pair[1]],
                                                                DEFAULT_BIN_WIDTH, DEFAULT_RANGE))
        binning = (DEFAULT_BIN_WIDTH, DEFAULT_RANGE, DEFAULT_PEAK_HALFWIDTH)
        assert heralded_coincidence_counts(stream, cfg, *binning) == whole_heralded_counts(stream, cfg, *binning)
