import itertools
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
    TagStream,
    detection_matrix,
    heralded_distribution,
    poissonian,
    reference_detection_matrix,
    required_n_max,
    run,
    thermal,
)
from heraldsim import event_sim, tagio
from heraldsim.event_sim import (
    _RAMP_STREAM_TAG,
    _SELECT_BLOCK,
    CONFIG_KEYS,
    _alias,
    _arm_law,
    _Batch,
    _draw_outcomes,
    _geometric,
    _occupied_pulses,
    _on_ramp,
    _open_mask,
    _orbit,
    _outcomes,
    _ramp_hbt,
    _rank,
    _retrigger_filter,
    _select,
    _simulate_batch,
    _with_darks,
    merged_gate_intervals,
)

import per_photon
from per_photon import PhotonBatch


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


def rank_retrigger_filter(herald_times, latency, gate_length):
    """The burst filter over herald times, ranked by merges, that _retrigger_filter replaces on the pulse grid."""
    if gate_length < latency:
        return reference_retrigger_filter(herald_times, latency, gate_length)
    n = herald_times.size
    steps = np.zeros(n + 1, dtype=np.int8)  # +1 at each burst's first herald, -1 past its last
    head = 0
    while head < n:
        block = herald_times[head : head + event_sim._RETRIGGER_BLOCK]
        last = np.maximum(np.arange(block.size), _rank(block + latency, block) - 1)
        reach = block[last] + latency + gate_length
        jump = np.append(np.maximum(last + 1, _rank(reach, block)), block.size)
        heads = _orbit(jump)
        steps[head + heads[:-1]] += 1
        steps[head + last[heads[:-1]] + 1] -= 1
        head += int(heads[-1])
        burst_end = max(head + 1, int(np.searchsorted(herald_times, herald_times[head] + latency)))
        steps[head] += 1
        steps[burst_end] -= 1
        blocked_until = int(herald_times[burst_end - 1]) + latency + gate_length
        head = max(burst_end, int(np.searchsorted(herald_times, blocked_until)))
    return herald_times[np.cumsum(steps[:-1], dtype=np.int8).view(bool)]


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
    """The per-pulse kernel that came before the per-photon one.

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
    photons = np.stack((a_closed[keep], a_open[keep], b_closed[keep], b_open[keep]))
    return PhotonBatch(herald_pulse, cand_pulse, clicks[keep], photons, click_hist, (dark_a, dark_b))


def reference_unsliced_batch(config, batch_index, start, size):
    """The per-photon kernel that draws every photon's uniforms in one call, which per_photon.simulate_batch slices."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    n_pix = config.n_pixels
    mu = config.mean_pairs_per_pulse
    p_occ = mu / (1.0 + mu) if config.source_family == "thermal" else -math.expm1(-mu)
    found = []
    last = -1
    while p_occ > 0.0 and last < size - 1:
        left = size - 1 - last
        expected = left * p_occ
        n = int(min(left, expected + 5.0 * math.sqrt(expected) + 16.0))
        pos = last + np.cumsum(_geometric(rng, p_occ, n, left + 1))
        found.append(pos[: np.searchsorted(pos, size)])
        last = int(pos[-1])
    occ = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    if config.source_family == "thermal":
        photons = _geometric(rng, 1.0 / (1.0 + mu), occ.size, 2**62)
    else:
        cdf = np.cumsum(poissonian(mu, max(1, required_n_max(mu))).probs[1:])
        x = rng.random(occ.size) * cdf[-1]
        photons = np.ones(occ.size, dtype=np.int64)
        for edge in cdf[:-1]:
            photons += x >= edge
    ends = np.cumsum(photons)
    first = ends - photons
    n_photons = int(ends[-1]) if ends.size else 0

    u = rng.random(n_photons)
    if config.idler_transmission > 0.0:
        u /= config.idler_transmission
        np.minimum(u, 1.0, out=u)
    else:
        u.fill(1.0)
    u *= n_pix
    pixel_bit = np.zeros(n_pix + 1, dtype=np.uint16)
    pixel_bit[:n_pix] = 1 << np.arange(n_pix)
    clicks = np.bitwise_count(np.bitwise_or.reduceat(pixel_bit[u.astype(np.uint8)], first))
    clicks += (clicks >= 1) & (clicks <= n_pix - 1) & (rng.random(clicks.size) < config.crosstalk)
    click_hist = np.bincount(clicks, minlength=n_pix + 1)
    click_hist[0] += size - occ.size
    accept = np.zeros(n_pix + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    herald_occ = occ[accept[clicks]]
    if accept[0]:
        empty = np.setdiff1d(np.arange(size, dtype=np.int64), occ, assume_unique=True)
        herald_occ = np.sort(np.concatenate([herald_occ, empty]))

    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    leak = config.leakage
    v = rng.random(n_photons)
    a_closed, a_open, below_b_closed, below_b_open = (
        np.diff(np.cumsum(v < threshold)[ends - 1], prepend=0)
        for threshold in (q_a * leak, q_a, q_a + q_b * leak, q_a + q_b)
    )
    keep = below_b_open > 0
    span = size * config.rep_period
    t0 = start * config.rep_period
    lam = config.dark_rate * span * 1e-12
    dark_a = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)
    dark_b = t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64)
    photons = np.stack((a_closed[keep], a_open[keep], below_b_closed[keep] - a_open[keep],
                        below_b_open[keep] - a_open[keep]))
    return PhotonBatch(start + herald_occ, start + occ[keep], clicks[keep], photons, click_hist, (dark_a, dark_b))


def reference_run(config, batch_size=event_sim.DEFAULT_BATCH_SIZE):
    """The whole-run stitching that run() does segment by segment.

    Every batch is drawn first, the batches are joined, and the gates are
    resolved once over the whole run.  Returns the channels and the
    counters of the run summary.
    """
    n_batches = max(1, -(-config.n_pulses // batch_size))
    table = event_sim._outcomes(config)
    parts = [
        _simulate_batch(config, table, i, i * batch_size, min(batch_size, config.n_pulses - i * batch_size))
        for i in range(n_batches)
    ]
    fields = list(zip(*parts))
    darks = tuple(np.concatenate(arm) for arm in zip(*fields.pop()))
    merged = _Batch(*(np.concatenate(field) for field in fields), darks)
    herald_times = merged.herald_pulse * config.rep_period
    arrivals = merged.cand_pulse * config.rep_period + config.resolved_signal_delay
    if config.retrigger == "ignore":
        herald_times = _retrigger_filter(merged.herald_pulse, config.rep_period, config.latency, config.gate_length)
        herald_times *= config.rep_period
    starts, ends = merged_gate_intervals(herald_times, config.latency, config.gate_length)
    open_gate, gate_counts = _open_mask(arrivals, starts, ends)
    # an arm clicks through an open gate in states 1 and 2, through a closed one in state 2
    states = np.divmod(merged.cand_entry % 9, 3)
    a, b = ((state >= 2 - open_gate) for state in states)
    if config.gate_rise_time > 0:
        partial, factor = _on_ramp(arrivals, open_gate, starts, gate_counts, config.gate_rise_time)
        ramp = [np.random.default_rng(np.random.SeedSequence((config.seed, _RAMP_STREAM_TAG, int(ch))))
                for ch in (Channel.HBT_A, Channel.HBT_B)]
        code = _ramp_hbt(config, merged.cand_entry[partial], factor, ramp)
        a[partial], b[partial] = code & 1, code >> 1
    channels = {
        Channel.HERALD_TRIGGER: herald_times,
        Channel.HBT_A: _with_darks(arrivals[a], merged.darks[0]),
        Channel.HBT_B: _with_darks(arrivals[b], merged.darks[1]),
    }
    counters = {
        "click_counts": merged.click_hist.reshape(n_batches, -1).sum(axis=0).tolist(),
        "heralds_accepted": merged.herald_pulse.size,
        "heralds_emitted": herald_times.size,
        "channel_counts": {ch: arr.size for ch, arr in channels.items()},
    }
    return channels, counters


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
    return bool(_open_mask(np.asarray([t], dtype=np.int64), starts, ends)[0][0])


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
        got, gate_counts = _open_mask(times, starts, ends)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, reference_open_mask(times, starts, ends))
        np.testing.assert_array_equal(gate_counts, np.searchsorted(times, ends) - np.searchsorted(times, starts))

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
        c1, c2 = s1.channels, s2.channels
        for ch in Channel:
            np.testing.assert_array_equal(c1[ch], c2[ch])
        assert r1.click_counts.tolist() == r2.click_counts.tolist()

    def test_thread_count_does_not_change_output(self):
        cfg = make_config(n_pulses=500_000, dark_rate=250.0)
        s1, _ = run(cfg, threads=1, batch_size=1 << 16)
        s3, _ = run(cfg, threads=3, batch_size=1 << 16)
        c1, c3 = s1.channels, s3.channels
        for ch in Channel:
            np.testing.assert_array_equal(c1[ch], c3[ch])

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
        channels = run(cfg)[0].channels
        heralds = channels[Channel.HERALD_TRIGGER]
        starts, ends = merged_gate_intervals(heralds, cfg.latency, cfg.gate_length)
        for ch in (Channel.HBT_A, Channel.HBT_B):
            tags = channels[ch]
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
        total = stream.counts()[Channel.HBT_A] + stream.counts()[Channel.HBT_B]
        assert abs(total - expected) <= 3 * math.sqrt(expected) + 3  # + collision allowance

    def test_one_tag_per_channel_per_pulse(self):
        cfg = make_config(mean_pairs_per_pulse=3.0, n_pulses=50_000,
                          herald_selection=HeraldSelection.at_least(1, 4))
        channels = run(cfg)[0].channels
        for ch in (Channel.HBT_A, Channel.HBT_B):
            assert np.all(np.diff(channels[ch]) > 0)

    def test_hbt_splitting_balance(self):
        cfg = make_config(mean_pairs_per_pulse=0.2, n_pulses=500_000, hbt_splitting=0.5,
                          herald_selection=HeraldSelection(frozenset(range(5))))
        stream, _ = run(cfg)
        n_a = stream.counts()[Channel.HBT_A]
        n_b = stream.counts()[Channel.HBT_B]
        assert abs(n_a - n_b) < 4 * math.sqrt(n_a + n_b)

    def test_dark_counts_scale_with_rate(self):
        cfg = make_config(mean_pairs_per_pulse=0.0, dark_rate=10_000.0, n_pulses=1_000_000)
        stream, _ = run(cfg)
        expected = 10_000.0 * cfg.duration * 1e-12
        for ch in (Channel.HBT_A, Channel.HBT_B):
            count = stream.counts()[ch]
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
            assert stream.counts()[ch] == cfg.n_pulses

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
        assert stream.counts()[Channel.HBT_A] == 0
        assert stream.counts()[Channel.HBT_B] == 0

    def test_one_sided_splitter(self):
        cfg = make_config(hbt_splitting=1.0, mean_pairs_per_pulse=0.2, n_pulses=200_000,
                          herald_selection=HeraldSelection(frozenset(range(5))))
        stream, _ = run(cfg)
        assert stream.counts()[Channel.HBT_A] > 0
        assert stream.counts()[Channel.HBT_B] == 0

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
        channels = stream.channels
        heralds = channels[Channel.HERALD_TRIGGER]
        assert np.all((heralds >= 0) & (heralds < stream.duration))
        if every_pulse:  # the first pulse is always kept, and with "extend" so is the last
            assert heralds[0] == 0
            assert retrigger == "ignore" or heralds[-1] == stream.duration - cfg.rep_period
        for ch in (Channel.HBT_A, Channel.HBT_B):
            tags = channels[ch]
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
        pulses = np.sort(np.random.default_rng(3).integers(0, 80_000, 40_000))
        kept = _retrigger_filter(pulses, 12_500, 23_000, 80_000) * 12_500
        np.testing.assert_array_equal(kept, reference_retrigger_filter(pulses * 12_500, 23_000, 80_000))
        np.testing.assert_array_equal(kept, rank_retrigger_filter(pulses * 12_500, 23_000, 80_000))
        assert 0 < kept.size < pulses.size

    @given(
        st.lists(st.integers(0, 2_000), max_size=200).map(sorted),
        st.integers(1, 40),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    @example([0, 0, 5, 5, 5, 10, 10, 90], 1, 0, 10)  # shared pulses with no latency
    @example([0, 0, 5, 5, 5, 10, 10, 90], 1, 6, 0)  # zero-length gates
    @example([0, 1, 2, 3, 5, 8, 9, 10, 11], 4, 0, 9)  # latency 0, a gate not a multiple of rep
    @example([0, 1, 2, 3, 5, 8, 9, 10, 11], 4, 8, 8)  # gate_length == latency, both multiples of rep
    @example([0, 1, 2, 3, 5, 8, 9, 10, 11], 4, 7, 7)  # gate_length == latency, neither a multiple
    @example([0, 1, 2, 3, 5, 8, 9, 10, 11], 4, 5, 3)  # a gate shorter than the latency
    @settings(max_examples=300, deadline=None)
    def test_filter_matches_reference(self, pulses, rep, latency, gate_length):
        # a small pulse range makes shared heralds and overlapping gates common
        pulses = np.asarray(pulses, dtype=np.int64)
        kept = _retrigger_filter(pulses, rep, latency, gate_length)
        assert kept.dtype == np.int64
        want = reference_retrigger_filter(pulses * rep, latency, gate_length)
        np.testing.assert_array_equal(kept * rep, want)
        np.testing.assert_array_equal(want, rank_retrigger_filter(pulses * rep, latency, gate_length))

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    @given(herald_lists, st.integers(1, 40), st.integers(0, 300), st.integers(0, 300), st.sampled_from([0, 4, 10**6]))
    @example(np.asarray([0, 0, 5, 5, 5, 10, 10, 90]), 1, 0, 10, 4)
    @example(np.asarray([0, 0, 5, 5, 5, 10, 10, 90]), 1, 6, 0, 4)
    @example(np.asarray([0, 10, 20, 30, 31]), 1, 0, 5, 4)  # a block opens where the last one's burst ends
    @example(np.asarray([0, 2, 3, 4, 6, 9, 12, 13]), 3, 7, 7, 0)  # gate_length == latency, not multiples of rep
    @settings(max_examples=150, deadline=None)
    def test_filter_block_edges(self, block, pulses, rep, latency, gate_length, grid_span):
        # blocks end inside bursts and inside the spans the bursts' gates
        # block; a block is ranked by merges (grid_span 0), by prefix counts
        # (10**6) or by either
        with mock.patch.object(event_sim, "_RETRIGGER_BLOCK", block), \
                mock.patch.object(event_sim, "_GRID_SPAN", grid_span):
            kept = _retrigger_filter(pulses, rep, latency, gate_length)
            np.testing.assert_array_equal(kept * rep, rank_retrigger_filter(pulses * rep, latency, gate_length))
        np.testing.assert_array_equal(kept * rep, reference_retrigger_filter(pulses * rep, latency, gate_length))

    def test_filter_peak_memory_bounded(self):
        # 2**20 heralds on a 12.5 ns grid with 40 % of the pulses heralded
        gaps = np.random.default_rng(8).geometric(0.4, 1 << 20)
        pulses = np.cumsum(gaps)
        tracemalloc.start()
        try:
            kept = _retrigger_filter(pulses, 12_500, 23_000, 80_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < kept.size < pulses.size
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("density", [0.002, 0.4])
    def test_filter_ranks_sparse_and_dense_blocks_alike(self, density):
        # a sparse herald grid is ranked by merges and a dense one by prefix
        # counts over its pulses; either way the heralds kept are the same
        pulses = np.flatnonzero(np.random.default_rng(9).random(1 << 18) < density)
        kept = _retrigger_filter(pulses, 12_500, 23_000, 80_000)
        for grid_span in (0, 10**9):
            with mock.patch.object(event_sim, "_GRID_SPAN", grid_span):
                np.testing.assert_array_equal(_retrigger_filter(pulses, 12_500, 23_000, 80_000), kept)
        np.testing.assert_array_equal(kept * 12_500, rank_retrigger_filter(pulses * 12_500, 23_000, 80_000))

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

    def test_batch_size_fits_int32_offsets(self):
        with pytest.raises(ParameterError, match="batch_size must be below 2\\*\\*31"):
            run(make_config(n_pulses=10), batch_size=2**31)

    def test_mean_beyond_the_photon_budget_rejected(self):
        # the table of pulse outcomes holds every photon number up to the
        # source law's cut, times the click counts and arm states; thermal
        # mu = 1e12 cuts near 2e13 photons
        with pytest.raises(ParameterError, match="expects more than 1048576 outcomes of a pulse, with 4 pixels"):
            run(make_config(mean_pairs_per_pulse=1e12, source_family="thermal", n_pulses=1))
        # the bound does not depend on the run or its batches
        with pytest.raises(ParameterError, match="with 16 pixels"):
            run(make_config(mean_pairs_per_pulse=400.0, source_family="thermal", n_pixels=16, n_pulses=0))
        fits = make_config(mean_pairs_per_pulse=128.0, source_family="thermal", n_pixels=16)
        assert 3e5 < _outcomes(fits).cut.size <= event_sim._TABLE_BUDGET
        # a pulse of thousands of photons costs one draw like any other
        stream, _ = run(make_config(mean_pairs_per_pulse=4096.0, n_pulses=10), batch_size=4)
        assert stream.counts()[Channel.HBT_A] == 10

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
            channels = stream.channels
            return int(sum(np.isin(channels[ch], slots).sum() for ch in (Channel.HBT_A, Channel.HBT_B)))

        n_plain = slot_tags(plain_stream)
        n_ramp = slot_tags(ramp_stream)
        assert n_plain > 3_000
        # small upward bias from multi-photon slots is absorbed by the band
        assert abs(n_ramp / n_plain - 0.5) < 0.03

    @pytest.mark.parametrize("n, factor", [(1, 0.35), (2, 0.0), (3, 0.35), (4, 0.9)])
    def test_ramp_clicks_follow_the_thinned_photons(self, n, factor):
        # every way n photons can go and pass the ramp, against _ramp_hbt fed
        # a grid of uniforms on each arm's stream, which is within 1 / grid of
        # each probability; dropping the link of B's click to A's is off by 0.013
        cfg = make_config(hbt_splitting=0.5, signal_transmission=0.8, extinction_db=6.0)
        q, leak = 0.4, cfg.leakage
        want = np.zeros((9, 4))  # per arm state pair, per A click + 2 * B click
        ways = [(1.0 - 2 * q, 0, 0)] + [(q * share * ramp, arm, state, passes) for arm in (1, 2)
                                          for state, share in ((2, leak), (1, 1.0 - leak))
                                          for passes, ramp in ((True, factor), (False, 1.0 - factor))]
        for photons in itertools.product(ways, repeat=n):
            states = [max((w[2] for w in photons if w[1] == arm), default=0) for arm in (1, 2)]
            clicks = [any(w[3] for w in photons if w[1] == arm) for arm in (1, 2)]
            want[3 * states[0] + states[1], clicks[0] + 2 * clicks[1]] += math.prod(w[0] for w in photons)
        grid = 256
        u = (np.arange(grid) + 0.5) / grid

        class Uniforms:
            def __init__(self, values):
                self.values = values

            def random(self, count):
                assert count == self.values.size
                return self.values

        for state in np.flatnonzero(want.sum(axis=1) > 0):
            entry = np.full(grid * grid, ((n - 1) * (cfg.n_pixels + 1)) * 9 + state)
            code = _ramp_hbt(cfg, entry, np.full(entry.size, factor), [Uniforms(np.repeat(u, grid)),
                                                                        Uniforms(np.tile(u, grid))])
            got = np.bincount(code, minlength=4) / entry.size
            np.testing.assert_allclose(got, want[state] / want[state].sum(), rtol=0, atol=1.0 / grid)


    @given(herald_lists, st.lists(st.integers(-100, 2_500), max_size=200).map(sorted),
           st.integers(0, 300), st.integers(0, 300), st.integers(1, 600))
    @example(np.asarray([0, 10, 20, 500]), [40, 45, 55, 60, 200, 523, 530], 30, 25, 1_000)  # merged, rise > gate
    @settings(max_examples=300, deadline=None)
    def test_ramp_factors_match_reference(self, heralds, arrivals, latency, gate_length, rise_time):
        arrivals = np.asarray(arrivals, dtype=np.int64)
        starts, ends = merged_gate_intervals(heralds, latency, gate_length)
        open_gate, gate_counts = _open_mask(arrivals, starts, ends)
        want = reference_ramp_factor(arrivals, open_gate, starts, rise_time)
        index, factor = _on_ramp(arrivals, open_gate, starts, gate_counts, rise_time)
        np.testing.assert_array_equal(index, np.flatnonzero(want < 1.0))
        np.testing.assert_array_equal(factor, want[want < 1.0])


def joint_law(click_hist, clicks, a_state, b_state):
    """Pulses per (clicks, A state, B state), at 9 * clicks + 3 * A state + B state, of a batch.

    An arm's state is 0 when no photon reaches it, 1 when none passes a
    closed gate and 2 when one does.  The batch's candidates carry their
    clicks and states, and every other pulse leaves both arms in state 0.
    """
    hist = np.bincount(9 * clicks + 3 * a_state + b_state, minlength=9 * click_hist.size).reshape(-1, 9)
    hist[:, 0] = click_hist - hist.sum(axis=1)
    return hist.ravel()


def photon_joint_law(batch):
    """``joint_law`` of a PhotonBatch."""
    a_closed, a_open, b_closed, b_open = batch.photons
    states = (np.where(closed > 0, 2, (open_ > 0).astype(np.int64)) for closed, open_ in
              ((a_closed, a_open), (b_closed, b_open)))
    return joint_law(batch.click_hist, batch.cand_clicks, *states)


def alias_joint_law(batch):
    """``joint_law`` of a _Batch."""
    clicks, state = np.divmod(batch.cand_entry % (9 * batch.click_hist.size), 9)
    return joint_law(batch.click_hist, clicks, state // 3, state % 3)


def photon_ramp_law(batch, factor, seed):
    """Candidates per (clicks, A click, B click), at 4 * clicks + 2 * B + A, when each photon at an arm passes
    with its candidate's ``factor``: the open counts thinned binomially."""
    rng = np.random.default_rng(seed)
    a, b = (rng.binomial(batch.photons[row], factor[: batch.cand_clicks.size]) > 0 for row in (1, 3))
    return np.bincount(4 * batch.cand_clicks + 2 * b + a, minlength=4 * batch.click_hist.size)


def alias_ramp_law(config, batch, factor, seed):
    """``photon_ramp_law`` of a _Batch, thinned by ``_ramp_hbt``."""
    ramp = [np.random.default_rng((seed, arm)) for arm in range(2)]
    code = _ramp_hbt(config, batch.cand_entry, factor[: batch.cand_entry.size], ramp)
    clicks = batch.cand_entry % (9 * batch.click_hist.size) // 9
    return np.bincount(4 * clicks + code, minlength=4 * batch.click_hist.size)


def homogeneity_pvalue(x, y):
    """Two-sample chi-square p-value; bins with fewer than 20 counts in total are pooled."""
    from scipy.stats import chi2_contingency

    x, y = np.asarray(x), np.asarray(y)
    small = (x + y) < 20
    table = np.array([np.append(x[~small], x[small].sum()), np.append(y[~small], y[small].sum())])
    table = table[:, table.sum(axis=0) > 0]
    return chi2_contingency(table).pvalue


def table_law(table):
    """The probability of each entry that an outcome table's alias arrays give."""
    size = table.cut.size
    prob = table.cut - np.arange(size)
    return (prob + np.bincount(table.alias, weights=1.0 - prob, minlength=size)) / size


def enumerated_arm_law(config, n, z_a=1.0, z_b=1.0):
    """E[z_a**a z_b**b; A state, B state | n] by summing over every way n photons can go; 5**n terms."""
    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    leak = config.leakage
    # per photon: lost, A through any gate, A through an open gate only, B the same
    ways = [(1.0 - q_a - q_b, 0, 0), (z_a * q_a * leak, 2, 0), (z_a * q_a * (1.0 - leak), 1, 0),
            (z_b * q_b * leak, 0, 2), (z_b * q_b * (1.0 - leak), 0, 1)]
    law = np.zeros(9)
    for photons in itertools.product(ways, repeat=n):
        a, b = (max((w[arm] for w in photons), default=0) for arm in (1, 2))
        law[3 * a + b] += math.prod(w[0] for w in photons)
    return law


def signal_counts(v, first, thresholds, sparse):
    """per_photon.signal_counts of pulses 7, 8, ... into a fresh block, whose columns past the pulses kept must
    stay untouched."""
    out = np.full((1 + len(thresholds), first.size + 1), -1, dtype=np.int32)
    k = per_photon.signal_counts(v, first, np.arange(7, 7 + first.size, dtype=np.int32), thresholds, sparse,
                                 list(out))
    assert np.all(out[:, k:] == -1)
    return out[0, :k], out[1:, :k]


@st.composite
def signal_slices(draw):
    """A photon slice: photons per pulse, their uniforms and four nested thresholds, all on a coarse grid."""
    grid = st.sampled_from([i / 20 for i in range(20)])
    photons = draw(st.lists(st.one_of(st.just(1), st.integers(1, 40)), min_size=1, max_size=40))
    v = draw(st.lists(grid, min_size=sum(photons), max_size=sum(photons)))
    thresholds = tuple(sorted(draw(st.lists(grid, min_size=4, max_size=4))))
    return photons, v, thresholds


def four_threshold_counts(v, first, pulses, thresholds):
    """The pulses with a uniform below the top threshold and their counts below each threshold, pulse by pulse."""
    segment = np.repeat(np.arange(first.size), np.diff(first, append=v.size))
    counts = np.array([np.bincount(segment[v < t], minlength=first.size) for t in thresholds])
    keep = counts[-1] > 0
    return pulses[keep], counts[:, keep]


#: Uniforms on both sides of the thresholds of splittings 0, 0.3, 0.5 and 1, and the largest below 1.
LOSSLESS_UNIFORMS = st.sampled_from([0.0, 0.1, 0.29, 0.3, 0.31, 0.5, 0.7, 0.9, float(np.nextafter(1.0, 0.0))])


class TestFastPaths:
    @given(
        photons=st.lists(st.integers(1, 12), min_size=1, max_size=40),
        uniforms=st.data(),
        leak=st.sampled_from([0.0, 1.0]),
        splitting=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_lossless_shortcut_matches_four_thresholds(self, photons, uniforms, leak, splitting):
        q_a, q_b = splitting, 1.0 - splitting
        thresholds = (q_a * leak, q_a, q_a + q_b * leak, q_a + q_b)
        assert thresholds[-1] >= 1.0  # the shortcut is the path taken
        v = np.asarray(uniforms.draw(st.lists(LOSSLESS_UNIFORMS, min_size=sum(photons), max_size=sum(photons))))
        first = np.cumsum([0, *photons[:-1]])
        want_pulses, want_counts = four_threshold_counts(v, first, np.arange(7, 7 + first.size), thresholds)
        pulses, counts = signal_counts(v, first, thresholds, sparse=False)
        np.testing.assert_array_equal(pulses, want_pulses)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(counts[-1], photons)  # every pulse is kept, with all its photons

    @given(
        length=st.sampled_from([0, 1, _SELECT_BLOCK - 1, _SELECT_BLOCK, _SELECT_BLOCK + 1, 3 * _SELECT_BLOCK]),
        mask=st.sampled_from(["random", "none", "all"]),
        dtype=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_selection_matches_boolean_indexing(self, length, mask, dtype, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-(2**31), 2**31, length).astype(dtype)
        chosen = {"random": rng.random(length) < rng.random(), "none": np.zeros(length, dtype=bool),
                  "all": np.ones(length, dtype=bool)}[mask]
        got = _select(chosen, values)
        assert got.dtype == values.dtype
        np.testing.assert_array_equal(got, values[chosen])

    @given(
        edges=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=30).map(sorted),
        x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        at_edge=st.one_of(st.none(), st.integers(0, 29)),
    )
    @example(edges=[0.25, 0.5, 0.75], x=[0.1, 0.5], at_edge=None)  # the largest x equal to an edge
    @example(edges=[0.25, 0.5, 0.5, 0.75], x=[0.5], at_edge=None)  # and to repeated edges
    @example(edges=[0.25], x=[0.1], at_edge=None)  # below every edge
    @settings(max_examples=300, deadline=None)
    def test_bounded_edge_search_matches_every_edge(self, edges, x, at_edge):
        edges, x = np.asarray(edges, dtype=float), np.asarray(x)
        if edges.size and at_edge is not None:  # make the largest x one of the edges
            x = np.append(x, edges[at_edge % edges.size])
            x[x > x[-1]] = x[-1]
        want = np.ones(x.size, dtype=np.int64)
        for edge in edges:
            want += x >= edge
        got = np.ones(x.size, dtype=np.int64)
        per_photon.count_edges(x, edges, got)
        np.testing.assert_array_equal(got, want)


class TestOutcomeTable:
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)), min_size=1, max_size=300)
           .filter(lambda w: sum(w) > 0))
    @example([1.0])
    @example([0.0, 0.0, 5.0])
    @example([1e6] + [1e-9] * 299)  # one entry holds the mass: most rounds give it a deficit
    @example([1.0, 3.0] * 150)
    @settings(max_examples=300, deadline=None)
    def test_alias_table_holds_the_weights(self, weights):
        p = np.asarray(weights)
        cut, alias = _alias(p)
        prob = cut - np.arange(p.size)
        assert alias.dtype == np.int32 and np.all((alias >= 0) & (alias < p.size))
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        got = (prob + np.bincount(alias, weights=1.0 - prob, minlength=p.size)) / p.size
        np.testing.assert_allclose(got, p / p.sum(), rtol=0, atol=1e-12)
        assert np.all(got[p == 0] == 0.0)

    @pytest.mark.parametrize("family", ["poissonian", "thermal"])
    @pytest.mark.parametrize("splitting, extinction, efficiency", [(0.4, 6.0, 0.8), (0.0, 0.0, 1.0),
                                                                   (1.0, math.inf, 0.3), (0.5, 10.2, 0.0)])
    def test_table_is_the_product_of_the_per_pulse_laws(self, family, splitting, extinction, efficiency):
        cfg = make_config(mean_pairs_per_pulse=0.5, source_family=family, hbt_splitting=splitting,
                          extinction_db=extinction, hbt_efficiency=efficiency, crosstalk=0.1, n_pixels=3,
                          herald_selection=HeraldSelection.exactly(2))
        table = _outcomes(cfg)
        law = table_law(table).reshape(-1, 4, 9)
        n_max = law.shape[0]
        source = {"poissonian": poissonian, "thermal": thermal}[family](0.5, n_max).probs
        det = detection_matrix(cfg.idler_transmission, 3, 0.1, n_max).entries
        for n in range(1, 6):
            want = source[n] / source[1:].sum() * det[n][:, None] * enumerated_arm_law(cfg, n)[None, :]
            np.testing.assert_allclose(law[n - 1], want, rtol=1e-9, atol=1e-15)
        # p_occ is the uncut law's, the cut moves less than TAIL_MASS_TOL of the mass
        assert table.p_occ == pytest.approx(1.0 - source[0], rel=1e-8)
        assert table.heralded.reshape(-1, 4, 9)[:, 2].all() and table.heralded.sum() == n_max * 9
        a, b = np.divmod(np.arange(9), 3)
        np.testing.assert_array_equal(table.candidate.reshape(-1, 9), np.broadcast_to(a + b > 0, (n_max * 4, 9)))

    @given(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.sampled_from([0.0, 3.0, 30.0, math.inf]),
           st.sampled_from([0.0, 0.7, 1.0]), st.sampled_from([1.0, 0.0, 0.25, 0.9]), st.sampled_from([1.0, 0.6]))
    @settings(max_examples=100, deadline=None)
    def test_arm_law_sums_over_every_photon(self, splitting, extinction, transmission, z_a, z_b):
        cfg = make_config(hbt_splitting=splitting, extinction_db=extinction, signal_transmission=transmission)
        for n in range(6):
            got = _arm_law(cfg, n, np.arange(9), z_a, z_b)
            np.testing.assert_allclose(got, enumerated_arm_law(cfg, n, z_a, z_b), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("mu, family", [(0.5, "poissonian"), (1.0, "thermal")])
    def test_draws_follow_the_table(self, mu, family):
        from scipy.stats import chisquare

        table = _outcomes(make_config(mean_pairs_per_pulse=mu, source_family=family, crosstalk=0.1,
                                      extinction_db=6.0, signal_transmission=0.8))
        entry = _draw_outcomes(np.random.default_rng(5), table, 1 << 20)
        assert entry.dtype == np.int32
        expected = table_law(table) * entry.size
        observed = np.bincount(entry, minlength=expected.size)
        assert np.all(observed[expected == 0] == 0)
        pool = expected < 20
        observed = np.append(observed[~pool], observed[pool].sum())
        expected = np.append(expected[~pool], expected[pool].sum())
        assert chisquare(observed, expected).pvalue > 1e-3


class TestBatchKernel:
    @given(
        size=st.integers(0, 3_000),
        mu=st.sampled_from([0.0, 0.01, 0.5, 3.0]),
        family=st.sampled_from(["poissonian", "thermal"]),
        selection=st.sampled_from(["1", "0", "2+"]),
        t_idler=st.sampled_from([0.0, 0.7]),
        piece=st.sampled_from([1, 3, 7, 1 << 16]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_slices_match_unsliced_draws(self, size, mu, family, selection, t_idler, piece, seed):
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, seed=seed, dark_rate=1e7,
                          herald_selection=HeraldSelection.parse(selection, 4), idler_transmission=t_idler,
                          extinction_db=5.0, hbt_splitting=0.3)
        expected = reference_unsliced_batch(cfg, 3, 5_000, size)
        with mock.patch.object(per_photon, "_SLICE", piece):
            got = per_photon.simulate_batch(cfg, 3, 5_000, size)
        for field, want, have in zip(PhotonBatch._fields, expected, got):
            if field == "darks":
                for want_arm, have_arm in zip(want, have, strict=True):
                    np.testing.assert_array_equal(have_arm, want_arm, err_msg=field)
            else:
                np.testing.assert_array_equal(have, want, err_msg=field)

    @given(signal_slices(), st.sampled_from([0.0, 0.3, 1.0]))
    @example(([1, 1, 1], [0.1, 0.5, 0.9], (0.1, 0.25, 0.5, 0.75)), 0.0)  # thresholds at uniforms
    @example(([3, 1, 2], [0.95] * 6, (0.1, 0.25, 0.5, 0.75)), 0.0)  # no candidates
    @example(([2, 1], [0.0, 0.2, 0.4], (0.0, 0.0, 0.0, 0.0)), 0.3)  # q_a + q_b = 0
    @settings(max_examples=300, deadline=None)
    def test_candidate_reduction_matches_per_photon(self, slice_, q_top):
        photons, v, thresholds = slice_
        if q_top:  # q_a + q_b reaches the top: every photon, or most, is a candidate
            thresholds = (*thresholds[:3], max(thresholds[2], q_top))
        v = np.asarray(v)
        first = np.cumsum([0, *photons[:-1]])
        (want_pulses, want_counts), (pulses, counts) = (signal_counts(v, first, thresholds, sparse)
                                                        for sparse in (False, True))
        np.testing.assert_array_equal(pulses, want_pulses)
        np.testing.assert_array_equal(counts, want_counts)
        # the top row counts the candidates, and every pulse with one is listed
        assert np.all(counts[-1] >= 1)
        assert counts[-1].sum() == np.count_nonzero(v < thresholds[-1])

    @pytest.mark.parametrize("efficiency", [0.0, 0.1, 0.6, 1.0])
    @pytest.mark.parametrize("mu, family", [(0.5, "poissonian"), (1.0, "thermal"), (4.0, "thermal")])
    def test_signal_paths_give_the_same_batch(self, efficiency, mu, family):
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, hbt_efficiency=efficiency,
                          extinction_db=6.0, hbt_splitting=0.4, seed=11)
        batches = []
        for share in (0.0, 2.0):  # every photon reduced, then only the candidates
            with mock.patch.object(per_photon, "_SPARSE_SIGNAL", share), mock.patch.object(per_photon, "_SLICE", 1 << 10):
                batches.append(per_photon.simulate_batch(cfg, 2, 70_000, 20_000))
        every_photon, candidates = batches
        for name in ("herald_pulse", "cand_pulse", "cand_clicks", "photons", "click_hist"):
            np.testing.assert_array_equal(getattr(candidates, name), getattr(every_photon, name), err_msg=name)
        assert (candidates.cand_pulse.size > 0) == (efficiency > 0)

    @given(
        size=st.integers(0, 3_000),
        mu=st.sampled_from([0.0, 0.01, 0.5, 3.0]),
        family=st.sampled_from(["poissonian", "thermal"]),
        selection=st.sampled_from(["1", "0", "2+"]),
        piece=st.sampled_from([1, 3, 7]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_alias_draws_do_not_depend_on_the_slice(self, size, mu, family, selection, piece, seed):
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, seed=seed, dark_rate=1e7,
                          herald_selection=HeraldSelection.parse(selection, 4), extinction_db=5.0, hbt_splitting=0.3)
        table = _outcomes(cfg)
        with mock.patch.object(event_sim, "_SLICE", 1 << 30):
            expected = _simulate_batch(cfg, table, 3, 5_000, size)
        with mock.patch.object(event_sim, "_SLICE", piece):
            got = _simulate_batch(cfg, table, 3, 5_000, size)
        for field, want, have in zip(_Batch._fields, expected, got):
            if field == "darks":
                for want_arm, have_arm in zip(want, have, strict=True):
                    np.testing.assert_array_equal(have_arm, want_arm, err_msg=field)
            else:
                np.testing.assert_array_equal(have, want, err_msg=field)

    def test_dense_batch_working_set(self):
        # the run's memory is set by one batch's working set: 11.0 MB here,
        # bounded with a 1 MB margin; the per-photon kernel held 20 MB, and
        # 37 MB when it drew every photon's uniforms at once
        cfg = make_config(mean_pairs_per_pulse=0.5, seed=3)
        table = _outcomes(cfg)
        tracemalloc.start()
        try:
            batch = _simulate_batch(cfg, table, 0, 0, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.herald_pulse.size > 200_000
        assert peak < 12e6

    @pytest.mark.parametrize(
        "mu, family, size", [(0.0075, "poissonian", 1 << 21), (0.5, "poissonian", 1 << 19), (1.0, "thermal", 1 << 18)]
    )
    def test_matches_reference_kernel(self, mu, family, size):
        # a lossy signal arm, a leaky gate and strong crosstalk make every
        # joint outcome and every click count occur
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family, seed=4242, crosstalk=0.1,
                          signal_transmission=0.8, hbt_splitting=0.4, extinction_db=6.0)
        table = _outcomes(cfg)
        factor = np.random.default_rng(9).random(size)  # a ramp's transmission, one per candidate
        batches = 2
        laws = dict.fromkeys(["alias", "per-photon", "per-pulse"], 0)
        ramp_laws = dict.fromkeys(["alias", "per-photon"], 0)
        for i in range(batches):
            batch = _simulate_batch(cfg, table, i, i * size, size)
            laws["alias"] += alias_joint_law(batch)
            ramp_laws["alias"] += alias_ramp_law(cfg, batch, factor, i)
            batch = per_photon.simulate_batch(cfg, 100 + i, i * size, size)
            laws["per-photon"] += photon_joint_law(batch)
            ramp_laws["per-photon"] += photon_ramp_law(batch, factor, i)
            laws["per-pulse"] += photon_joint_law(reference_simulate_batch(cfg, 200 + i, i * size, size))
        assert all(law.sum() == batches * size for law in laws.values())
        assert all(law.min() >= 0 for law in laws.values())
        # (clicks, A state, B state) are drawn jointly, so their joint law is compared
        assert homogeneity_pvalue(laws["alias"], laws["per-photon"]) > 1e-3
        assert homogeneity_pvalue(laws["alias"], laws["per-pulse"]) > 1e-3
        # every pair of arm states turns up among the occupied pulses
        assert laws["alias"].reshape(-1, 9)[1:].sum(axis=0).all()
        # on a gate's ramp: (clicks, A click, B click) of the candidates
        assert homogeneity_pvalue(ramp_laws["alias"], ramp_laws["per-photon"]) > 1e-3

    @pytest.mark.parametrize("mu, family", [(0.0075, "poissonian"), (0.5, "poissonian"), (1.0, "thermal")])
    def test_occupancy_and_photon_numbers_follow_the_source_law(self, mu, family):
        from scipy.stats import chisquare

        size = 1 << 20
        cfg = make_config(mean_pairs_per_pulse=mu, source_family=family)
        table = _outcomes(cfg)
        rng = np.random.default_rng(7)
        source = poissonian(mu, 60) if family == "poissonian" else thermal(mu, 60)
        p_occ = 1.0 - source.probs[0]
        occ = _occupied_pulses(rng, p_occ, size)
        assert np.all(np.diff(occ) > 0) and occ[0] >= 0 and occ[-1] < size
        assert abs(occ.size - size * p_occ) <= 5 * math.sqrt(size * p_occ * (1 - p_occ))
        n = _draw_outcomes(rng, table, 200_000) // (9 * (cfg.n_pixels + 1)) + 1
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
        batch = _simulate_batch(cfg, _outcomes(cfg), batch_index, start, size)
        # the signal arm changes no draw before the outcomes', so the same
        # stream with every photon sent to HBT A shows each occupied pulse
        every_cfg = replace(cfg, signal_transmission=1.0, hbt_efficiency=1.0, hbt_splitting=1.0)
        occupied = _simulate_batch(every_cfg, _outcomes(every_cfg), batch_index, start, size).cand_pulse
        a, b = np.divmod(batch.cand_entry % 9, 3)

        for name in ("herald_pulse", "cand_pulse"):
            assert getattr(batch, name).dtype == np.int64
        assert len(batch.darks) == 2 and all(dark.dtype == np.int64 for dark in batch.darks)
        assert batch.cand_entry.dtype == np.int32 and batch.cand_entry.shape == batch.cand_pulse.shape
        assert batch.click_hist.size == n_pixels + 1
        assert batch.click_hist.sum() == size
        assert np.all(a + b >= 1)
        assert np.all(np.diff(occupied) > 0)
        assert np.all((occupied >= start) & (occupied < start + size))
        assert np.all(np.isin(batch.cand_pulse, occupied))
        assert np.all(np.diff(batch.cand_pulse) > 0)
        assert np.all(np.diff(batch.herald_pulse) > 0)
        assert np.all((batch.herald_pulse >= start) & (batch.herald_pulse < start + size))
        if herald_zero:  # every empty pulse is a herald
            empty = np.setdiff1d(np.arange(start, start + size), occupied)
            assert np.all(np.isin(empty, batch.herald_pulse))
        for dark in batch.darks:
            assert np.all((dark >= start * cfg.rep_period) & (dark < (start + size) * cfg.rep_period))

        if mu == 1e-300:  # a pair turns up with probability size * 1e-300
            assert occupied.size == 0
        if mu == 0.0 or t_idler == 0.0:
            assert batch.click_hist[0] == size
        if t_idler == 1.0 and n_pixels == 1:
            assert batch.click_hist[1] == occupied.size
        if extinction == math.inf:  # no photon passes a closed gate
            assert not np.any(a == 2) and not np.any(b == 2)
        if extinction == 0.0:  # every photon does
            assert not np.any(a == 1) and not np.any(b == 1)
        if splitting == 0.0:
            assert not a.any()
        if splitting == 1.0:
            assert not b.any()


def assert_same_segments(got, expected):
    got = list(got)
    assert len(got) == len(expected)
    for segment, want in zip(got, expected):
        assert set(segment) == set(want)
        for ch in want:
            np.testing.assert_array_equal(segment[ch], want[ch])


class TestSegmentedRun:
    @given(
        n_pulses=st.integers(0, 600),
        batch_size=st.integers(1, 64),
        mu=st.sampled_from([0.05, 0.5, 2.0]),
        selection=st.sampled_from(["1", "1+", "0", "any"]),
        # latency and gate length: gates longer and shorter than the latency
        gate=st.sampled_from([(23_000, 80_000), (60_000, 30_000), (0, 12_500), (40_000, 40_000)]),
        delay_spans=st.one_of(st.none(), st.integers(0, 5)),
        retrigger=st.sampled_from(["extend", "ignore"]),
        dark_rate=st.sampled_from([0.0, 3e7]),
        gate_rise_time=st.sampled_from([0, 6_000, 150_000]),
        threads=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32),
    )
    # gates that touch at a batch edge merge, and the ramp counts from the merged start
    @example(n_pulses=200, batch_size=10, mu=2.0, selection="any", gate=(0, 12_500), delay_spans=0,
             retrigger="extend", dark_rate=0.0, gate_rise_time=6_000, threads=1, seed=3_000)
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_run_stitching(self, n_pulses, batch_size, mu, selection, gate, delay_spans, retrigger,
                                         dark_rate, gate_rise_time, threads, seed):
        latency, gate_length = gate
        # a signal delay of up to five batch spans, plus a part of a period
        signal_delay = None if delay_spans is None else delay_spans * batch_size * 12_500 + seed % 12_500
        cfg = make_config(mean_pairs_per_pulse=mu, n_pulses=n_pulses, seed=seed,
                          herald_selection=HeraldSelection.parse(selection, 4), latency=latency,
                          gate_length=gate_length, signal_delay=signal_delay, retrigger=retrigger,
                          dark_rate=dark_rate, gate_rise_time=gate_rise_time, extinction_db=3.0)
        channels, counters = reference_run(cfg, batch_size)
        stream, summary = run(cfg, threads=threads, batch_size=batch_size)
        # what the tag writers take on trust: every segment holds every
        # channel as sorted int64 times, over disjoint, ascending spans of time
        segments = list(stream.segments())
        end = None  # the latest time of the segments so far
        for segment in segments:
            assert set(segment) == set(Channel)
            assert all(times.dtype == np.int64 for times in segment.values())
            spans = [(times[0], times[-1]) for times in segment.values() if times.size]
            if spans:
                assert end is None or min(lo for lo, _ in spans) > end
                end = max(hi for _, hi in spans)
        for ch in Channel:
            joined = np.concatenate([segment[ch] for segment in segments])
            # sorted when joined, so sorted in every segment
            assert np.all(joined[1:] >= joined[:-1])
            np.testing.assert_array_equal(joined, channels[ch])
        assert summary.click_counts.tolist() == counters["click_counts"]
        assert summary.heralds_accepted == counters["heralds_accepted"]
        assert summary.heralds_emitted == counters["heralds_emitted"]
        assert summary.channel_counts == counters["channel_counts"]

    def test_stream_reads_in_any_order(self, tmp_path):
        cfg = make_config(mean_pairs_per_pulse=0.5, n_pulses=5_000, dark_rate=1e6)
        whole, _ = run(cfg, batch_size=1_000)
        segments = list(whole.segments())
        assert len(segments) == 5
        joined = {ch: np.concatenate([segment[ch] for segment in segments]) for ch in Channel}
        # segments taken by a writer, then the channels, then the segments again
        stream, summary = run(cfg, batch_size=1_000)
        tagio.write_binary(stream, tmp_path / "first.tags")
        assert summary.channel_counts == stream.counts() == whole.counts()
        for ch in Channel:
            np.testing.assert_array_equal(stream.channels[ch], joined[ch])
        tagio.write_binary(stream, tmp_path / "second.tags")
        # the summary read first: its counters come from a draw of their own,
        # and the segments from a fresh one
        held, held_summary = run(cfg, batch_size=1_000)
        assert held_summary.heralds_emitted == summary.heralds_emitted
        assert_same_segments(held.segments(), segments)
        # the run written segment by segment is the file of its joined channels
        for write, name in ((tagio.write_binary, "tags"), (tagio.write_csv, "csv")):
            write(held, tmp_path / f"run.{name}")
            write(TagStream(channels=joined, duration=held.duration), tmp_path / f"joined.{name}")
            assert (tmp_path / f"run.{name}").read_bytes() == (tmp_path / f"joined.{name}").read_bytes()
        first = (tmp_path / "first.tags").read_bytes()
        assert first == (tmp_path / "second.tags").read_bytes() == (tmp_path / "run.tags").read_bytes()

    def test_summary_read_during_a_take(self):
        cfg = make_config(mean_pairs_per_pulse=0.5, n_pulses=5_000, dark_rate=1e6, gate_rise_time=6_000)
        plain, plain_summary = run(cfg, batch_size=1_000)
        expected = list(plain.segments())
        # one segment taken, the summary read, then the take finished
        stream, summary = run(cfg, batch_size=1_000)
        segments = stream.segments()
        first = next(segments)
        assert summary.heralds_emitted == plain_summary.heralds_emitted
        assert_same_segments(itertools.chain([first], segments), expected)
        assert summary.click_counts.tolist() == plain_summary.click_counts.tolist()
        assert summary.heralds_accepted == plain_summary.heralds_accepted
        assert summary.channel_counts == plain_summary.channel_counts == stream.counts()

    def test_summary_read_first_holds_no_run(self):
        cfg = ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=4_000_000, seed=3,
                               herald_selection=HeraldSelection.exactly(1))
        tracemalloc.start()
        try:
            stream, summary = run(cfg)
            assert summary.heralds_emitted > 1_000_000
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the drawn segments are dropped: 23 MB of them stayed held when the
        # stream kept what no one had taken
        assert held < 4e6


@given(
    n=st.lists(st.integers(0, 40), min_size=1, max_size=60),
    seed=st.integers(0, 2**32),
    cuts=st.lists(st.integers(0, 60), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_binomial_over_consecutive_slices_matches_one_call(n, seed, cuts):
    # the ramp thinning draws a run's binomials segment by segment
    n = np.array(n)
    p = np.random.default_rng(seed).random(n.size)
    whole = np.random.default_rng(seed).binomial(n, p)
    rng = np.random.default_rng(seed)
    edges = [0, *sorted(min(c, n.size) for c in cuts), n.size]
    sliced = np.concatenate([rng.binomial(n[lo:hi], p[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])])
    np.testing.assert_array_equal(sliced, whole)
