"""Every herald x HBT A peak of a simulated run against its expected count.

The expectation comes from the per-pulse laws alone, not from any draw, so
it checks the stitched histogram whatever the random stream.  Pulses are
independent, and with ``retrigger = "extend"``, no dark counts and no gate
ramp, the pair count of peak k holds the heralds of pulse p with an A click
of pulse p + d, d = k - signal_delay / rep_period.  Let R be the pulse
offsets whose arrival a herald's own gate covers.  Per pulse pair the count
has the mean

* d = 0: P(herald, A | open)
* d in R, d != 0: P(herald) P(A | open)
* otherwise: P(herald) times the A rate of a pulse whose own herald opens
  its gate, and which the other |R| - 1 pulses that could cover it leave
  closed with probability (1 - P(herald))**(|R| - 1)

with P(herald, A | gate) = sum_n p(n) P_sel(n) (1 - (1 - q)**n), P_sel from
``detection_matrix``, and q = q_a for an open gate and q_a * leakage for a
closed one.
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

#: Largest |observed - expected| / sqrt(expected) a peak may show.  Over
#: seeds 1 to 20 of the three configurations below, the largest of a seed's
#: 45 values ranged from 1.6 to 3.7 (median 2.5) with the alias kernel, and
#: from 1.7 to 3.6 (median 2.4) with the per-photon kernel before it.
Z_LIMIT = 5.0


def expected_peaks(config: ExperimentConfig, offsets) -> dict:
    """Expected pair count of each herald x HBT A peak offset."""
    rep = config.rep_period
    delay = config.resolved_signal_delay
    assert delay % rep == 0
    covered = [d for d in range(-64, 64) if config.latency <= d * rep + delay < config.latency + config.gate_length]
    assert 0 in covered  # a herald's gate covers its own arrival

    source = poissonian(config.mean_pairs_per_pulse).probs
    n = np.arange(source.size)
    det = detection_matrix(config.idler_transmission, config.n_pixels, config.crosstalk, source.size - 1)
    p_sel = det.entries[:, sorted(config.herald_selection.accepted_clicks)].sum(axis=1)
    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting

    def p_a(q, weight=1.0):
        return float(np.sum(source * weight * (1.0 - (1.0 - q) ** n)))

    p_h = float(source @ p_sel)
    rates = {}
    for gate, q in (("open", q_a), ("closed", q_a * config.leakage)):
        rates[gate] = (p_a(q, p_sel), p_a(q))  # P(herald, A | gate), P(A | gate)
    w = (1.0 - p_h) ** (len(covered) - 1)
    (ha_open, a_open), (ha_closed, a_closed) = rates["open"], rates["closed"]
    mixture = ha_open + (1.0 - w) * (a_open - ha_open) + w * (a_closed - ha_closed)
    expected = {}
    for k in offsets:
        d = k - delay // rep
        per_pulse = ha_open if d == 0 else p_h * (a_open if d in covered else mixture)
        expected[k] = (config.n_pulses - abs(d)) * per_pulse
    return expected


@pytest.mark.parametrize(
    "mu, selection, n_pulses, seed",
    [(0.1, HeraldSelection.at_least(1, 4), 10_000_000, 51),
     (0.5, HeraldSelection.exactly(1), 5_000_000, 52),
     (0.02, HeraldSelection.exactly(2), 20_000_000, 53)],
)
def test_every_peak_matches_the_per_pulse_laws(mu, selection, n_pulses, seed):
    config = ExperimentConfig(mean_pairs_per_pulse=mu, n_pulses=n_pulses, seed=seed, herald_selection=selection,
                              dark_rate=0.0)
    stream, _ = run(config, threads=1)
    peaks = integrate_peaks(correlate(stream, (Channel.HERALD_TRIGGER, Channel.HBT_A)), config.rep_period)
    expected = expected_peaks(config, [k for k, _ in peaks])
    assert len(peaks) == 15
    z = {k: (count - expected[k]) / math.sqrt(expected[k]) for k, count in peaks}
    assert max(map(abs, z.values())) < Z_LIMIT, {k: round(v, 2) for k, v in z.items()}
