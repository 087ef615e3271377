"""Every herald x HBT A and herald x HBT B peak of a simulated run against its expected count.

The expectation comes from the per-pulse laws alone, not from any draw, so
it checks the stitched histogram whatever the random stream.  Pulses are
independent, and with ``retrigger = "extend"`` and no gate ramp, the pair
count of peak k holds the heralds of pulse p with a click of the arm at
pulse p + d, d = k - signal_delay / rep_period, and the arm's dark counts
in the window of the peak around each herald.  Let R be the pulse offsets
whose arrival a herald's own gate covers.  Per pulse pair the count at
HBT A has the mean

* d = 0: P(herald, A | open)
* d in R, d != 0: P(herald) P(A | open)
* otherwise: P(herald) times the A rate of a pulse whose own herald opens
  its gate, and which the other |R| - 1 pulses that could cover it leave
  closed with probability (1 - P(herald))**(|R| - 1)

with P(herald, A | gate) = sum_n p(n) P_sel(n) (1 - (1 - q)**n), P_sel from
``detection_matrix``, and q = q_a for an open gate and q_a * leakage for a
closed one.  A photon reaches HBT A with q_a = signal_transmission *
hbt_efficiency * hbt_splitting; the law of HBT B is the same with
1 - hbt_splitting in place of hbt_splitting.  The dark counts add a flat
background to every peak: the emitted heralds times ``dark_rate`` times the
width of the peak window.
"""

import math

import numpy as np
import pytest

from heraldsim import (
    Channel,
    ExperimentConfig,
    HeraldSelection,
    correlate,
    detection_matrix,
    integrate_peaks,
    poissonian,
    run,
)
from heraldsim.coincidence import DEFAULT_BIN_WIDTH, DEFAULT_PEAK_HALFWIDTH, DEFAULT_RANGE, _peak_window

#: Largest |observed - expected| / sqrt(expected) a peak may show.  Over
#: seeds 1 to 20 of each of the five configurations below, the largest of
#: a run's 30 values, 15 peaks at A and 15 at B, ranged from 1.4 to 3.7
#: (medians 2.2 to 2.5).  Before B was checked, the largest of a seed's 45
#: A values over the first three configurations ranged from 1.6 to 3.7
#: (median 2.5) with the alias kernel, and from 1.7 to 3.6 (median 2.4) with
#: the per-photon kernel before it.
Z_LIMIT = 5.0


def expected_peaks(config: ExperimentConfig, offsets, heralds: int, arm: Channel = Channel.HBT_A) -> dict:
    """Expected pair count of each herald x ``arm`` peak offset, given the number of emitted heralds."""
    rep = config.rep_period
    delay = config.resolved_signal_delay
    assert delay % rep == 0
    covered = [d for d in range(-64, 64) if config.latency <= d * rep + delay < config.latency + config.gate_length]
    assert 0 in covered  # a herald's gate covers its own arrival

    source = poissonian(config.mean_pairs_per_pulse).probs
    n = np.arange(source.size)
    det = detection_matrix(config.idler_transmission, config.n_pixels, config.crosstalk, source.size - 1)
    p_sel = det.entries[:, sorted(config.herald_selection.accepted_clicks)].sum(axis=1)
    share = config.hbt_splitting if arm == Channel.HBT_A else 1.0 - config.hbt_splitting
    q_a = config.signal_transmission * config.hbt_efficiency * share  # the arm's share of a photon

    def p_a(q, weight=1.0):
        return float(np.sum(source * weight * (1.0 - (1.0 - q) ** n)))

    p_h = float(source @ p_sel)
    rates = {}
    for gate, q in (("open", q_a), ("closed", q_a * config.leakage)):
        rates[gate] = (p_a(q, p_sel), p_a(q))  # P(herald, A | gate), P(A | gate)
    w = (1.0 - p_h) ** (len(covered) - 1)
    (ha_open, a_open), (ha_closed, a_closed) = rates["open"], rates["closed"]
    mixture = ha_open + (1.0 - w) * (a_open - ha_open) + w * (a_closed - ha_closed)
    lo, hi, _ = _peak_window(DEFAULT_BIN_WIDTH, DEFAULT_RANGE, rep, DEFAULT_PEAK_HALFWIDTH)
    darks = heralds * config.dark_rate * (hi - lo) * 1e-12
    expected = {}
    for k in offsets:
        d = k - delay // rep
        per_pulse = ha_open if d == 0 else p_h * (a_open if d in covered else mixture)
        expected[k] = (config.n_pulses - abs(d)) * per_pulse + darks
    return expected


def assert_peaks_match(config: ExperimentConfig) -> None:
    """Every herald x HBT A and B peak of a run of ``config`` lies within ``Z_LIMIT`` of its expected count."""
    stream, summary = run(config, threads=1)
    for arm in (Channel.HBT_A, Channel.HBT_B):
        peaks = integrate_peaks(correlate(stream, (Channel.HERALD_TRIGGER, arm)), config.rep_period)
        expected = expected_peaks(config, [k for k, _ in peaks], summary.heralds_emitted, arm)
        assert len(peaks) == 15
        z = {k: (count - expected[k]) / math.sqrt(expected[k]) for k, count in peaks}
        assert max(map(abs, z.values())) < Z_LIMIT, (arm.name, {k: round(v, 2) for k, v in z.items()})


@pytest.mark.parametrize(
    "mu, selection, n_pulses, seed",
    [(0.1, HeraldSelection.at_least(1, 4), 10_000_000, 51),
     (0.5, HeraldSelection.exactly(1), 5_000_000, 52),
     (0.02, HeraldSelection.exactly(2), 20_000_000, 53)],
)
def test_every_peak_matches_the_per_pulse_laws(mu, selection, n_pulses, seed):
    assert_peaks_match(ExperimentConfig(mean_pairs_per_pulse=mu, n_pulses=n_pulses, seed=seed,
                                        herald_selection=selection, dark_rate=0.0))


def test_arms_take_their_own_share_of_the_photons():
    # a 30/70 splitter: A's peaks are 3/7 of B's near zero delay, so an arm
    # that took the other's share would miss by tens of standard deviations
    assert_peaks_match(ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=5_000_000, seed=55,
                                        herald_selection=HeraldSelection.exactly(1), hbt_splitting=0.3,
                                        dark_rate=0.0))


def test_dark_counts_add_a_flat_background():
    # a 10 %-efficient HBT arm keeps the peaks low, so the darks add 8.1 to
    # 12.7 standard deviations to each of them
    assert_peaks_match(ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=4_000_000, seed=54,
                                        herald_selection=HeraldSelection.exactly(1), hbt_efficiency=0.1,
                                        dark_rate=1e6))
