import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import (
    Channel,
    ExperimentConfig,
    HeraldSelection,
    ParameterError,
    extinction_to_visibility,
    gate_state,
    heralded_distribution,
    modulator_transmission,
    poissonian,
    reference_detection_matrix,
    required_n_max,
    run,
)
from heraldsim.event_sim import _retrigger_filter, merged_gate_intervals


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


class TestGateState:
    CONFIG = make_config(n_pulses=10)

    def test_just_after_latency_is_open(self):
        assert gate_state(23_000 + 1, [0], self.CONFIG) == "open"

    def test_gate_end_is_closed(self):
        assert gate_state(23_000 + 80_000, [0], self.CONFIG) == "closed"

    def test_gate_start_is_open(self):
        assert gate_state(23_000, [0], self.CONFIG) == "open"

    def test_before_latency_is_closed(self):
        assert gate_state(22_999, [0], self.CONFIG) == "closed"

    def test_overlapping_gates_merge(self):
        heralds = [0, 40_000]
        starts, ends = merged_gate_intervals(heralds, 23_000, 80_000)
        assert starts.tolist() == [23_000]
        assert ends.tolist() == [143_000]
        for t in (23_000, 100_000, 142_999):
            assert gate_state(t, heralds, self.CONFIG) == "open"
        assert gate_state(143_000, heralds, self.CONFIG) == "closed"

    def test_unsorted_heralds_rejected(self):
        with pytest.raises(ParameterError):
            gate_state(0, [100, 0], self.CONFIG)


class TestModulatorTransmission:
    def test_ideal_interferometer(self):
        assert modulator_transmission(3.82, 3.82, visibility=1.0) == pytest.approx(1.0, abs=1e-12)
        assert modulator_transmission(0.0, 3.82, visibility=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_sets_extinction(self):
        vis = extinction_to_visibility(10.2)
        assert vis == pytest.approx((1 - 10**-1.02) / (1 + 10**-1.02), rel=1e-12)
        t_min = modulator_transmission(0.0, 3.82, visibility=vis)
        t_max = modulator_transmission(3.82, 3.82, visibility=vis)
        assert t_max == pytest.approx(1.0, abs=1e-12)
        assert t_min / t_max == pytest.approx(10**-1.02, rel=1e-9)

    def test_periodic_in_two_v_pi(self):
        v = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(
            modulator_transmission(v + 2 * 3.82, 3.82, 0.9),
            modulator_transmission(v, 3.82, 0.9),
            atol=1e-12,
        )


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
