import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import (
    Channel,
    ExperimentConfig,
    HeraldSelection,
    ParameterError,
    heralded_distribution,
    poissonian,
    reference_detection_matrix,
    required_n_max,
    run,
    thermal,
)
from heraldsim import event_sim
from heraldsim.event_sim import (
    CONFIG_KEYS,
    _Batch,
    _occupied_pulses,
    _on_ramp,
    _open_mask,
    _photon_numbers,
    _rank,
    _retrigger_filter,
    _simulate_batch,
    _with_darks,
    merged_gate_intervals,
)


def reference_retrigger_filter(herald_times, latency, gate_length):
    """The per-herald loop over numpy scalars that _retrigger_filter replaces."""
    kept = np.empty(herald_times.size, dtype=bool)
    starts: list = []
    ends: list = []
    p = 0
    run_max_end = -1
    for i, h in enumerate(herald_times):
        while p < len(starts) and starts[p] <= h:
            run_max_end = max(run_max_end, ends[p])
            p += 1
        accept = h >= run_max_end
        kept[i] = accept
        if accept:
            starts.append(h + latency)
            ends.append(h + latency + gate_length)
    return herald_times[kept]


def reference_merged_gate_intervals(herald_times, latency, gate_length):
    """The merge by running maximum of the gate ends that merged_gate_intervals replaces."""
    h = np.asarray(herald_times, dtype=np.int64)
    if h.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = h + latency
    ends = starts + gate_length
    run_end = np.maximum.accumulate(ends)
    new_interval = np.empty(h.size, dtype=bool)
    new_interval[0] = True
    new_interval[1:] = starts[1:] > run_end[:-1]
    seg_first = np.nonzero(new_interval)[0]
    seg_last = np.append(seg_first[1:], h.size) - 1
    return starts[seg_first], run_end[seg_last]


def reference_open_mask(times, starts, ends):
    """The per-time search into the gate starts that _open_mask replaces; any time order."""
    if starts.size == 0:
        return np.zeros(times.shape, dtype=bool)
    last_end = np.concatenate(([np.iinfo(np.int64).min], ends))
    return times < last_end[np.searchsorted(starts, times, side="right")]


def reference_ramp_factor(arrivals, open_gate, starts, rise_time):
    """The per-arrival search into the gate starts that _on_ramp replaces: 1 for closed arrivals."""
    pos = np.searchsorted(starts, arrivals, side="right") - 1
    factor = np.ones(arrivals.size)
    idx = np.nonzero(open_gate)[0]
    factor[idx] = np.clip((arrivals[idx] - starts[pos[idx]]) / rise_time, 0.0, 1.0)
    return factor


def reference_with_darks(signal, dark):
    """The concatenate-and-sort merge that _with_darks replaces."""
    tags = np.concatenate([signal, dark])
    tags.sort()
    return tags


def reference_simulate_batch(config, batch_index, start, size):
    """The per-pulse kernel that _simulate_batch replaces.

    It draws a pair count for every pulse, thins the idler and the signal
    with per-pulse binomials, and assigns pixels in a loop over surviving
    photon counts.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    n_pix = config.n_pixels
    mu = config.mean_pairs_per_pulse
    if mu == 0.0:
        n = np.zeros(size, dtype=np.int64)
    elif config.source_family == "poissonian":
        n = rng.poisson(mu, size)
    else:
        n = rng.geometric(1.0 / (1.0 + mu), size) - 1
    occ = np.nonzero(n)[0]
    nn = n[occ]

    surviving = rng.binomial(nn, config.idler_transmission)
    clicks = np.zeros(nn.size, dtype=np.int64)
    for count in np.unique(surviving):
        if count == 0:
            continue
        rows = np.nonzero(surviving == count)[0]
        pixels = rng.integers(0, n_pix, size=(rows.size, int(count)))
        masks = np.bitwise_or.reduce(1 << pixels, axis=1)
        clicks[rows] = np.bitwise_count(masks)
    upgrade = rng.random(nn.size)
    clicks += ((clicks >= 1) & (clicks <= n_pix - 1) & (upgrade < config.crosstalk)).astype(np.int64)

    click_hist = np.bincount(clicks, minlength=n_pix + 1)
    click_hist[0] += size - occ.size

    accept = np.zeros(n_pix + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    herald_occ = occ[accept[clicks]]
    if accept[0]:
        empty = np.setdiff1d(np.arange(size, dtype=np.int64), occ, assume_unique=True)
        herald_occ = np.sort(np.concatenate([herald_occ, empty]))
    herald_pulse = start + herald_occ.astype(np.int64)

    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    a_open = rng.binomial(nn, q_a)
    remaining = nn - a_open
    # sequential multinomial split; the min() guards float round-up past 1
    ratio = 0.0 if q_a >= 1.0 else min(1.0, q_b / (1.0 - q_a))
    b_open = rng.binomial(remaining, ratio)
    leak = config.leakage
    a_closed = rng.binomial(a_open, leak)
    b_closed = rng.binomial(b_open, leak)
    keep = (a_open + b_open) > 0
    cand_pulse = (start + occ[keep]).astype(np.int64)

    span = size * config.rep_period
    t0 = start * config.rep_period
    lam = config.dark_rate * span * 1e-12
    dark_a = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)
    dark_b = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)
    return _Batch(herald_pulse, cand_pulse, a_open[keep], a_closed[keep], b_open[keep], b_closed[keep],
                  click_hist, dark_a, dark_b)


def make_config(**overrides):
    base = dict(
        mean_pairs_per_pulse=0.05,
        n_pulses=200_000,
        seed=99,
        herald_selection=HeraldSelection.exactly(1),
        dark_rate=0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def gate_open(t, heralds, latency=23_000, gate_length=80_000):
    starts, ends = merged_gate_intervals(heralds, latency, gate_length)
    return bool(_open_mask(np.asarray([t], dtype=np.int64), starts, ends)[0])


class TestGateState:
    def test_just_after_latency_is_open(self):
        assert gate_open(23_000 + 1, [0])

    def test_gate_end_is_closed(self):
        assert not gate_open(23_000 + 80_000, [0])

    def test_gate_start_is_open(self):
        assert gate_open(23_000, [0])

    def test_before_latency_is_closed(self):
        assert not gate_open(22_999, [0])

    def test_overlapping_gates_merge(self):
        heralds = [0, 40_000]
        starts, ends = merged_gate_intervals(heralds, 23_000, 80_000)
        assert starts.tolist() == [23_000]
        assert ends.tolist() == [143_000]
        for t in (23_000, 100_000, 142_999):
            assert gate_open(t, heralds)
        assert not gate_open(143_000, heralds)

    def test_unsorted_heralds_rejected(self):
        with pytest.raises(ParameterError):
            merged_gate_intervals([100, 0], 23_000, 80_000)


herald_lists = st.lists(st.integers(0, 2_000), max_size=200).map(lambda v: np.asarray(sorted(v), dtype=np.int64))


class TestStitchMerges:
    @given(
        st.lists(st.integers(-50, 50), max_size=40).map(sorted),
        st.lists(st.integers(-40, 40), max_size=40).map(sorted),
    )
    @example([], [])
    @example([-99, 0, 0, 99], [0, 0, 0])  # keys below, at and above the values
    @example([1, 2], list(range(10)))  # more than twice as many values as keys
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_searchsorted(self, keys, values):
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(_rank(keys, values), np.searchsorted(values, keys, side="left"))

    @given(herald_lists, st.integers(0, 300), st.integers(0, 300))
    @example(np.asarray([0, 0, 5, 5, 5, 10, 10, 90]), 6, 0)  # zero-length gates
    @settings(max_examples=300, deadline=None)
    def test_merged_gate_intervals_match_reference(self, heralds, latency, gate_length):
        got = merged_gate_intervals(heralds, latency, gate_length)
        want = reference_merged_gate_intervals(heralds, latency, gate_length)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @given(herald_lists, st.lists(st.integers(-100, 2_500), max_size=200).map(sorted),
           st.integers(0, 300), st.integers(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_open_mask_matches_reference(self, heralds, times, latency, gate_length):
        times = np.asarray(times, dtype=np.int64)
        starts, ends = merged_gate_intervals(heralds, latency, gate_length)
        got = _open_mask(times, starts, ends)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, reference_open_mask(times, starts, ends))

    @given(herald_lists, st.lists(st.integers(-100, 2_500), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_dark_counts_merge_like_a_sort(self, signal, dark):
        dark = np.asarray(dark, dtype=np.int64)
        np.testing.assert_array_equal(_with_darks(signal, dark), reference_with_darks(signal, dark))


class TestDeterminism:
    def test_same_seed_same_streams(self):
        cfg = make_config()
        s1, r1 = run(cfg, threads=1)
        s2, r2 = run(cfg, threads=1)
        for ch in Channel:
            np.testing.assert_array_equal(s1.channels[ch], s2.channels[ch])
        assert r1.click_counts.tolist() == r2.click_counts.tolist()

    def test_thread_count_does_not_change_output(self):
        cfg = make_config(n_pulses=500_000, dark_rate=250.0)
        s1, _ = run(cfg, threads=1, batch_size=1 << 16)
        s3, _ = run(cfg, threads=3, batch_size=1 << 16)
        for ch in Channel:
            np.testing.assert_array_equal(s1.channels[ch], s3.channels[ch])

    def test_different_seed_differs(self):
        s1, _ = run(make_config(seed=1))
        s2, _ = run(make_config(seed=2))
        assert not np.array_equal(s1.channels[Channel.HBT_A], s2.channels[Channel.HBT_A])


class TestRunPhysics:
    def test_empty_run(self):
        stream, summary = run(make_config(mean_pairs_per_pulse=0.0, dark_rate=0.0))
        assert all(arr.size == 0 for arr in stream.channels.values())
        assert summary.click_counts[0] == summary.n_pulses

    def test_perfect_extinction_tags_inside_open_gates(self):
        cfg = make_config(extinction_db=math.inf, mean_pairs_per_pulse=0.02, n_pulses=300_000)
        stream, _ = run(cfg)
        heralds = stream.channels[Channel.HERALD_TRIGGER]
        starts, ends = merged_gate_intervals(heralds, cfg.latency, cfg.gate_length)
        for ch in (Channel.HBT_A, Channel.HBT_B):
            tags = stream.channels[ch]
            assert tags.size > 0
            pos = np.searchsorted(starts, tags, side="right") - 1
            assert np.all(pos >= 0)
            assert np.all(tags < ends[pos])

    def test_click_frequencies_match_detection_matrix(self):
        mu = 0.3
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=1_000_000)
        _, summary = run(cfg)
        det = reference_detection_matrix(required_n_max(mu))
        source = poissonian(mu, det.n_max)
        expected = source.probs @ det.entries
        freq = summary.click_counts / cfg.n_pulses
        sigma = np.sqrt(expected * (1 - expected) / cfg.n_pulses)
        assert np.all(np.abs(freq - expected) <= 3 * sigma + 1e-9)

    def test_herald_rate_matches_analytic_acceptance(self):
        mu = 0.1
        selection = HeraldSelection.exactly(2)
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=2_000_000, herald_selection=selection)
        _, summary = run(cfg)
        det = reference_detection_matrix(required_n_max(mu))
        _, acceptance = heralded_distribution(poissonian(mu, det.n_max), det, selection)
        sigma = math.sqrt(acceptance * (1 - acceptance) / cfg.n_pulses)
        assert abs(summary.heralds_accepted / cfg.n_pulses - acceptance) <= 3 * sigma

    def test_always_open_gate_total_rate(self):
        # heralding on every click outcome keeps the gate open for the whole
        # run, so the HBT rate is the thinned source rate
        mu = 0.005
        cfg = make_config(
            mean_pairs_per_pulse=mu,
            n_pulses=1_000_000,
            herald_selection=HeraldSelection(frozenset(range(5))),
            signal_transmission=0.8,
            hbt_efficiency=0.9,
        )
        stream, _ = run(cfg)
        expected = mu * 0.8 * 0.9 * cfg.n_pulses
        total = stream.channels[Channel.HBT_A].size + stream.channels[Channel.HBT_B].size
        assert abs(total - expected) <= 3 * math.sqrt(expected) + 3  # + collision allowance

    def test_one_tag_per_channel_per_pulse(self):
        cfg = make_config(mean_pairs_per_pulse=3.0, n_pulses=50_000,
                          herald_selection=HeraldSelection.at_least(1, 4))
        stream, _ = run(cfg)
        for ch in (Channel.HBT_A, Channel.HBT_B):
            tags = stream.channels[ch]
            assert np.all(np.diff(tags) > 0)

    def test_hbt_splitting_balance(self):
        cfg = make_config(mean_pairs_per_pulse=0.2, n_pulses=500_000, hbt_splitting=0.5,
                          herald_selection=HeraldSelection(frozenset(range(5))))
        stream, _ = run(cfg)
        n_a = stream.channels[Channel.HBT_A].size
        n_b = stream.channels[Channel.HBT_B].size
        assert abs(n_a - n_b) < 4 * math.sqrt(n_a + n_b)

    def test_dark_counts_scale_with_rate(self):
        cfg = make_config(mean_pairs_per_pulse=0.0, dark_rate=10_000.0, n_pulses=1_000_000)
        stream, _ = run(cfg)
        expected = 10_000.0 * cfg.duration * 1e-12
        for ch in (Channel.HBT_A, Channel.HBT_B):
            count = stream.channels[ch].size
            assert abs(count - expected) <= 4 * math.sqrt(expected)


class TestEdgeConfigurations:
    def test_mean_past_exp_underflow(self):
        # exp(-mu) underflows above mu ~ 745; every pulse then fires every
        # pixel and both HBT detectors
        cfg = make_config(mean_pairs_per_pulse=746.0, n_pulses=1_000, dark_rate=0.0,
                          herald_selection=HeraldSelection.at_least(1, 4))
        stream, summary = run(cfg)
        assert summary.heralds_accepted == cfg.n_pulses
        for ch in (Channel.HBT_A, Channel.HBT_B):
            assert stream.channels[ch].size == cfg.n_pulses

    def test_single_pixel_device(self):
        cfg = make_config(n_pixels=1, crosstalk=0.0,
                          herald_selection=HeraldSelection.exactly(1), n_pulses=100_000)
        _, summary = run(cfg)
        assert summary.click_counts.size == 2
        assert summary.click_counts.sum() == cfg.n_pulses

    def test_zero_click_heralding(self):
        # heralding on the empty outcome: acceptance is the no-click weight
        mu = 0.1
        selection = HeraldSelection(frozenset({0}), label="0")
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=500_000, herald_selection=selection)
        _, summary = run(cfg)
        det = reference_detection_matrix(required_n_max(mu))
        _, acceptance = heralded_distribution(poissonian(mu, det.n_max), det, selection)
        sigma = math.sqrt(acceptance * (1 - acceptance) / cfg.n_pulses)
        assert abs(summary.heralds_accepted / cfg.n_pulses - acceptance) <= 3 * sigma

    def test_thermal_family_herald_rate(self):
        from heraldsim import thermal

        mu = 0.2
        selection = HeraldSelection.exactly(1)
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=1_000_000,
                          source_family="thermal", herald_selection=selection)
        _, summary = run(cfg)
        det = reference_detection_matrix(60)
        _, acceptance = heralded_distribution(thermal(mu, 60), det, selection)
        sigma = math.sqrt(acceptance * (1 - acceptance) / cfg.n_pulses)
        assert abs(summary.heralds_accepted / cfg.n_pulses - acceptance) <= 3 * sigma

    def test_zero_length_gate_blocks_everything(self):
        cfg = make_config(gate_length=0, extinction_db=math.inf,
                          mean_pairs_per_pulse=0.1, n_pulses=100_000)
        stream, _ = run(cfg)
        assert stream.channels[Channel.HBT_A].size == 0
        assert stream.channels[Channel.HBT_B].size == 0

    def test_one_sided_splitter(self):
        cfg = make_config(hbt_splitting=1.0, mean_pairs_per_pulse=0.2, n_pulses=200_000,
                          herald_selection=HeraldSelection(frozenset(range(5))))
        stream, _ = run(cfg)
        assert stream.channels[Channel.HBT_A].size > 0
        assert stream.channels[Channel.HBT_B].size == 0

    @given(
        n_pulses=st.integers(1, 2_000),
        mu=st.sampled_from([0.05, 0.5, 3.0]),
        every_pulse=st.booleans(),
        signal_delay=st.sampled_from([None, 0, 7_300, 30_000, 1_000_000]),
        retrigger=st.sampled_from(["extend", "ignore"]),
        dark_rate=st.sampled_from([0.0, 1e8]),
        batch_size=st.sampled_from([13, 97, 1 << 20]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_heralds_below_duration_and_hbt_tags_below_the_delay_past_it(
        self, n_pulses, mu, every_pulse, signal_delay, retrigger, dark_rate, batch_size, seed
    ):
        # tag readers given a duration rely on this: heralds are pulse times,
        # and HBT tags lag their pulse by at most the signal delay
        selection = HeraldSelection(frozenset(range(5))) if every_pulse else HeraldSelection.exactly(1)
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=n_pulses, seed=seed, herald_selection=selection,
                          signal_delay=signal_delay, retrigger=retrigger, dark_rate=dark_rate,
                          extinction_db=3.0)
        stream, _ = run(cfg, batch_size=batch_size)
        assert stream.duration == n_pulses * cfg.rep_period
        heralds = stream.channels[Channel.HERALD_TRIGGER]
        assert np.all((heralds >= 0) & (heralds < stream.duration))
        if every_pulse:  # the first pulse is always kept, and with "extend" so is the last
            assert heralds[0] == 0
            assert retrigger == "ignore" or heralds[-1] == stream.duration - cfg.rep_period
        for ch in (Channel.HBT_A, Channel.HBT_B):
            tags = stream.channels[ch]
            assert np.all((tags >= 0) & (tags < stream.duration + cfg.resolved_signal_delay))


class TestRetrigger:
    def test_ignore_mode_drops_heralds_inside_open_gates(self):
        # herald every pulse: with 12.5 ns spacing and an 80 ns gate, the
        # trigger can re-arm only after each gate closes
        cfg = make_config(
            mean_pairs_per_pulse=50.0,
            n_pulses=64,
            idler_transmission=1.0,
            herald_selection=HeraldSelection.at_least(1, 4),
            retrigger="ignore",
        )
        stream, summary = run(cfg)
        heralds = stream.channels[Channel.HERALD_TRIGGER]
        assert summary.heralds_accepted == 64
        assert summary.heralds_emitted == heralds.size < 64
        # pulses 0 and 1 both precede the first gate opening (latency 23 ns)
        # and are accepted; their gates cover [23, 103) and [35.5, 115.5) ns,
        # so the next accepted herald is the pulse at 125 ns
        assert heralds[:4].tolist() == [0, 12_500, 125_000, 137_500]

    def test_filter_spans_chunks(self):
        heralds = np.sort(np.random.default_rng(3).integers(0, 10**9, 40_000)) // 12_500 * 12_500
        kept = _retrigger_filter(heralds, 23_000, 80_000)
        np.testing.assert_array_equal(kept, reference_retrigger_filter(heralds, 23_000, 80_000))
        assert 0 < kept.size < heralds.size

    @given(
        st.lists(st.integers(0, 2_000), max_size=200).map(sorted),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    @example([0, 0, 5, 5, 5, 10, 10, 90], 0, 10)  # shared times with no latency
    @example([0, 0, 5, 5, 5, 10, 10, 90], 6, 0)  # zero-length gates
    @settings(max_examples=300, deadline=None)
    def test_filter_matches_reference(self, times, latency, gate_length):
        # a small time range makes shared herald times and overlapping gates common
        heralds = np.asarray(times, dtype=np.int64)
        kept = _retrigger_filter(heralds, latency, gate_length)
        assert kept.dtype == np.int64
        np.testing.assert_array_equal(kept, reference_retrigger_filter(heralds, latency, gate_length))

    @pytest.mark.parametrize("block", [1, 2, 3])
    @given(herald_lists, st.integers(0, 300), st.integers(0, 300))
    @example(np.asarray([0, 0, 5, 5, 5, 10, 10, 90]), 0, 10)
    @example(np.asarray([0, 0, 5, 5, 5, 10, 10, 90]), 6, 0)
    @example(np.asarray([0, 10, 20, 30, 31]), 0, 5)  # a block opens where the last one's burst ends
    @settings(max_examples=150, deadline=None)
    def test_filter_block_edges(self, block, heralds, latency, gate_length):
        # blocks end inside bursts and inside the spans the bursts' gates block
        with mock.patch.object(event_sim, "_RETRIGGER_BLOCK", block):
            kept = _retrigger_filter(heralds, latency, gate_length)
        np.testing.assert_array_equal(kept, reference_retrigger_filter(heralds, latency, gate_length))

    def test_filter_peak_memory_bounded(self):
        # 2**20 heralds on a 12.5 ns grid with 40 % of the pulses heralded
        gaps = np.random.default_rng(8).geometric(0.4, 1 << 20)
        heralds = np.cumsum(gaps) * 12_500
        tracemalloc.start()
        try:
            kept = _retrigger_filter(heralds, 23_000, 80_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < kept.size < heralds.size
        assert peak < 16 * 2**20

    def test_extend_mode_keeps_all(self):
        cfg = make_config(
            mean_pairs_per_pulse=50.0,
            n_pulses=64,
            idler_transmission=1.0,
            herald_selection=HeraldSelection.at_least(1, 4),
        )
        _, summary = run(cfg)
        assert summary.heralds_emitted == summary.heralds_accepted == 64


class TestConfigValidation:
    def test_signal_delay_resolution(self):
        assert make_config().resolved_signal_delay == 25_000
        assert make_config(latency=12_500).resolved_signal_delay == 12_500
        assert make_config(signal_delay=30_000).resolved_signal_delay == 30_000

    def test_leakage(self):
        assert make_config().leakage == pytest.approx(10**-1.02)
        assert make_config(extinction_db=math.inf).leakage == 0.0

    def test_timestamp_overflow_rejected(self):
        cfg = make_config(n_pulses=2**51)
        with pytest.raises(ParameterError):
            run(cfg)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            make_config(idler_transmission=1.2)
        with pytest.raises(ParameterError):
            make_config(crosstalk=1.0)
        with pytest.raises(ParameterError):
            make_config(herald_selection=HeraldSelection.exactly(9))
        with pytest.raises(ParameterError):
            make_config(retrigger="bounce")
        with pytest.raises(ParameterError):
            make_config(seed=-1)

    @pytest.mark.parametrize(
        "field", ["rep_period", "latency", "gate_length", "gate_rise_time", "signal_delay", "n_pulses", "seed"]
    )
    @pytest.mark.parametrize("value", [12_500.5, 12_500.0, "12500", True])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            make_config(**{field: value})

    @pytest.mark.parametrize("field", [row.field for row in CONFIG_KEYS if row.kind == "float"])
    @pytest.mark.parametrize("value", ["0.5", True, None, 0.5j, np.bool_(True)])
    def test_float_fields_reject_non_reals(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            make_config(**{field: value})

    def test_float_fields_accept_numpy_floats(self):
        cfg = make_config(mean_pairs_per_pulse=np.float64(0.5), crosstalk=np.float32(0.25), dark_rate=np.int64(7),
                          extinction_db=20, n_pulses=0)
        values = (cfg.mean_pairs_per_pulse, cfg.crosstalk, cfg.dark_rate, cfg.extinction_db)
        assert all(type(v) is float for v in values)
        assert values == (0.5, 0.25, 7.0, 20.0)
        text = run(cfg)[1].as_text()
        assert "mean_pairs_per_pulse = 0.5\n" in text and "crosstalk = 0.25\n" in text

    @pytest.mark.parametrize("field, value", [("dark_rate", math.nan), ("dark_rate", math.inf),
                                              ("dark_rate", -1.0), ("extinction_db", math.nan),
                                              ("extinction_db", -math.inf)])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            make_config(**{field: value})

    def test_dark_rate_beyond_the_sampler_rejected(self):
        with pytest.raises(ParameterError, match="dark_rate 1e\\+300 gives more dark counts per batch"):
            run(make_config(dark_rate=1e300, n_pulses=1_000))
        # the bound is on the mean of one batch, and a run of no pulses draws nothing
        run(make_config(dark_rate=1e300, n_pulses=0))

    def test_integer_fields_accept_numpy_integers(self):
        cfg = make_config(rep_period=np.int64(12_500), n_pulses=np.uint32(1_000), seed=np.uint64(2**63),
                          latency=np.int32(23_000), signal_delay=np.int64(25_000))
        assert type(cfg.rep_period) is int and type(cfg.seed) is int and type(cfg.duration) is int
        assert cfg.duration == 12_500_000
        assert make_config(signal_delay=None).resolved_signal_delay == 25_000

    def test_summary_text_roundtrip_fields(self):
        _, summary = run(make_config(n_pulses=1_000))
        text = summary.as_text()
        assert "[run]" in text and "[counts]" in text and "[clicks]" in text
        assert f"seed = {summary.seed}" in text


class TestGateRiseTime:
    def test_ramp_thins_early_arrivals(self):
        # heralded photons arrive 2 ns after their own gate opens; with a
        # 4 ns ramp they see half transmission.  Isolated heralds only, so
        # no earlier merged gate hides the rising edge.
        from heraldsim import isolated_times

        base = dict(
            mean_pairs_per_pulse=0.05,
            n_pulses=400_000,
            seed=5,
            herald_selection=HeraldSelection.exactly(1),
            dark_rate=0.0,
            extinction_db=math.inf,
        )
        plain_stream, _ = run(ExperimentConfig(**base))
        ramp_stream, _ = run(ExperimentConfig(**base, gate_rise_time=4_000))
        heralds = plain_stream.channels[Channel.HERALD_TRIGGER]
        slots = isolated_times(heralds, 14 * 12_500) + 25_000

        def slot_tags(stream):
            total = 0
            for ch in (Channel.HBT_A, Channel.HBT_B):
                total += np.isin(stream.channels[ch], slots).sum()
            return int(total)

        n_plain = slot_tags(plain_stream)
        n_ramp = slot_tags(ramp_stream)
        assert n_plain > 3_000
        # small upward bias from multi-photon slots is absorbed by the band
        assert abs(n_ramp / n_plain - 0.5) < 0.03


    @given(herald_lists, st.lists(st.integers(-100, 2_500), max_size=200).map(sorted),
           st.integers(0, 300), st.integers(0, 300), st.integers(1, 600))
    @example(np.asarray([0, 10, 20, 500]), [40, 45, 55, 60, 200, 523, 530], 30, 25, 1_000)  # merged, rise > gate
    @settings(max_examples=300, deadline=None)
    def test_ramp_factors_match_reference(self, heralds, arrivals, latency, gate_length, rise_time):
        arrivals = np.asarray(arrivals, dtype=np.int64)
        starts, ends = merged_gate_intervals(heralds, latency, gate_length)
        open_gate = _open_mask(arrivals, starts, ends)
        want = reference_ramp_factor(arrivals, open_gate, starts, rise_time)
        index, factor = _on_ramp(arrivals, open_gate, starts, ends, rise_time)
        np.testing.assert_array_equal(index, np.flatnonzero(want < 1.0))
        np.testing.assert_array_equal(factor, want[want < 1.0])


def signal_patterns(batch, size):
    """Pulses per joint outcome (a_open > 0, b_open > 0, a_closed > 0, b_closed > 0) as 16 bins."""
    code = ((batch.a_open > 0) * 8 + (batch.b_open > 0) * 4
            + (batch.a_closed > 0) * 2 + (batch.b_closed > 0))
    hist = np.bincount(code, minlength=16)
    hist[0] += size - code.size
    return hist


def homogeneity_pvalue(x, y):
    """Two-sample chi-square p-value; bins with fewer than 20 counts in total are pooled."""
    from scipy.stats import chi2_contingency

    x, y = np.asarray(x), np.asarray(y)
    small = (x + y) < 20
    table = np.array([np.append(x[~small], x[small].sum()), np.append(y[~small], y[small].sum())])
    table = table[:, table.sum(axis=0) > 0]
    return chi2_contingency(table).pvalue


class TestBatchKernel:
    @pytest.mark.parametrize(
        "mu, family, size", [(0.0075, "poissonian", 1 << 21), (0.5, "poissonian", 1 << 19), (1.0, "thermal", 1 << 18)]
    )
    def test_matches_reference_kernel(self, mu, family, size):
        # a lossy signal arm, a leaky gate and strong crosstalk make every
        # joint signal outcome and every click count occur
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, seed=4242, crosstalk=0.1,
                          signal_transmission=0.8, hbt_splitting=0.4, extinction_db=6.0)
        batches = 2
        totals = {}
        for name, kernel, first_index in (("new", _simulate_batch, 0), ("reference", reference_simulate_batch, 100)):
            parts = [kernel(cfg, first_index + i, i * size, size) for i in range(batches)]
            totals[name] = (
                sum(part.click_hist for part in parts),
                sum(signal_patterns(part, size) for part in parts),
            )
        (new_clicks, new_signal), (ref_clicks, ref_signal) = totals["new"], totals["reference"]
        assert new_clicks.sum() == ref_clicks.sum() == batches * size
        assert homogeneity_pvalue(new_clicks, ref_clicks) > 1e-3
        assert homogeneity_pvalue(new_signal, ref_signal) > 1e-3

    @pytest.mark.parametrize("mu, family", [(0.0075, "poissonian"), (0.5, "poissonian"), (1.0, "thermal")])
    def test_occupancy_and_photon_numbers_follow_the_source_law(self, mu, family):
        from scipy.stats import chisquare

        size = 1 << 20
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family)
        rng = np.random.default_rng(7)
        source = poissonian(mu, 60) if family == "poissonian" else thermal(mu, 60)
        p_occ = 1.0 - source.probs[0]
        occ = _occupied_pulses(rng, p_occ, size)
        assert np.all(np.diff(occ) > 0) and occ[0] >= 0 and occ[-1] < size
        assert abs(occ.size - size * p_occ) <= 5 * math.sqrt(size * p_occ * (1 - p_occ))
        n = _photon_numbers(rng, cfg, 200_000)
        expected = source.probs[1:] / p_occ * n.size
        top = int(np.nonzero(expected >= 20)[0][-1]) + 1  # pool n > top into one bin
        observed = np.bincount(n, minlength=62)[1:]
        observed = np.append(observed[:top], observed[top:].sum())
        expected = np.append(expected[:top], expected[top:].sum())
        assert n.min() >= 1
        assert chisquare(observed, expected * observed.sum() / expected.sum()).pvalue > 1e-3

    @given(
        mu=st.sampled_from([0.0, 1e-300, 0.3, 50.0]),
        family=st.sampled_from(["poissonian", "thermal"]),
        t_idler=st.sampled_from([0.0, 0.7, 1.0]),
        extinction=st.sampled_from([0.0, 10.2, math.inf]),
        splitting=st.sampled_from([0.0, 0.5, 1.0]),
        n_pixels=st.sampled_from([1, 4, 16]),
        herald_zero=st.booleans(),
        size=st.sampled_from([1, 2, 37, 500]),
        batch_index=st.integers(0, 2**20),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_invariants(self, mu, family, t_idler, extinction, splitting, n_pixels, herald_zero, size,
                              batch_index):
        selection = HeraldSelection(frozenset({0, 1}) if herald_zero else frozenset({1}))
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, idler_transmission=t_idler,
                          extinction_db=extinction, hbt_splitting=splitting, n_pixels=n_pixels,
                          herald_selection=selection, signal_transmission=0.9, dark_rate=1e9)
        start = batch_index * size
        batch = _simulate_batch(cfg, batch_index, start, size)
        # the signal thresholds change no draw, so the same stream with every
        # photon sent to HBT A shows each occupied pulse and its photon number
        every = _simulate_batch(replace(cfg, signal_transmission=1.0, hbt_efficiency=1.0, hbt_splitting=1.0),
                                batch_index, start, size)
        occupied, photons = every.cand_pulse, every.a_open

        for name in ("herald_pulse", "cand_pulse", "dark_a", "dark_b"):
            assert getattr(batch, name).dtype == np.int64
        for name in ("a_open", "a_closed", "b_open", "b_closed"):
            assert getattr(batch, name).dtype == np.int32
        assert batch.click_hist.size == n_pixels + 1
        assert batch.click_hist.sum() == size
        assert np.all(batch.a_closed >= 0) and np.all(batch.b_closed >= 0)
        assert np.all(batch.a_closed <= batch.a_open) and np.all(batch.b_closed <= batch.b_open)
        assert np.all(batch.a_open + batch.b_open >= 1)
        assert np.all(np.diff(occupied) > 0) and np.all(photons >= 1)
        assert np.all((occupied >= start) & (occupied < start + size))
        assert np.all(np.isin(batch.cand_pulse, occupied))
        assert np.all(np.diff(batch.cand_pulse) > 0)
        assert np.all(batch.a_open + batch.b_open <= photons[np.searchsorted(occupied, batch.cand_pulse)])
        assert np.all(np.diff(batch.herald_pulse) > 0)
        assert np.all((batch.herald_pulse >= start) & (batch.herald_pulse < start + size))
        if herald_zero:  # every empty pulse is a herald
            empty = np.setdiff1d(np.arange(start, start + size), occupied)
            assert np.all(np.isin(empty, batch.herald_pulse))
        for dark in (batch.dark_a, batch.dark_b):
            assert np.all((dark >= start * cfg.rep_period) & (dark < (start + size) * cfg.rep_period))

        if mu == 1e-300:  # a pair turns up with probability size * 1e-300
            assert occupied.size == 0
        if mu == 0.0 or t_idler == 0.0:
            assert batch.click_hist[0] == size
        if t_idler == 1.0 and n_pixels == 1:
            assert batch.click_hist[1] == occupied.size
        if extinction == math.inf:
            assert not batch.a_closed.any() and not batch.b_closed.any()
        if extinction == 0.0:
            np.testing.assert_array_equal(batch.a_closed, batch.a_open)
            np.testing.assert_array_equal(batch.b_closed, batch.b_open)
        if splitting == 0.0:
            assert not batch.a_open.any()
        if splitting == 1.0:
            assert not batch.b_open.any()
