"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  Criterion 3c checks the direction of the crosstalk effect on the
low-brightness two-click g2(0): crosstalk lowers it, because crosstalk turns
single photons into false two-click heralds, which outnumber genuine pairs
at small mean photon number and leave the heralded state almost pure |1>.
The test docstring carries the calculation.
"""

import contextlib
import math
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from heraldsim import (
    AmplitudeModel,
    Channel,
    DetectionMatrix,
    ExperimentConfig,
    HeraldSelection,
    TagStream,
    correlate,
    detection_matrix,
    g2_tau,
    g2_zero,
    genuine_two_click_fraction,
    heralded_coincidence_counts,
    heralded_distribution,
    integrate_peaks,
    isolated_times,
    poissonian,
    reference_detection_matrix,
    required_n_max,
    run,
    threshold_sweep,
)
from heraldsim import event_sim
from heraldsim.discriminator import click_number_rates, count_plateaus
from heraldsim.tagio import write_binary

REP = 12_500

# Published response of the reference 4-pixel configuration (transmission
# 0.7, crosstalk 0.025), printed to three decimals; 55 entries.
REFERENCE_TABLE = np.array(
    [
        [1.000, 0.000, 0.000, 0.000, 0.000],
        [0.300, 0.682, 0.017, 0.000, 0.000],
        [0.090, 0.529, 0.372, 0.009, 0.000],
        [0.027, 0.313, 0.519, 0.139, 0.003],
        [0.008, 0.167, 0.500, 0.295, 0.030],
        [0.002, 0.085, 0.412, 0.417, 0.084],
        [0.001, 0.042, 0.312, 0.487, 0.158],
        [0.000, 0.020, 0.225, 0.510, 0.245],
        [0.000, 0.010, 0.157, 0.498, 0.335],
        [0.000, 0.005, 0.107, 0.465, 0.423],
        [0.000, 0.002, 0.072, 0.421, 0.505],
    ]
)
TABLE_ATOL = 5e-4 + 1e-9  # printed rounding half-unit plus float slack


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_reference_table_via_cli(tmp_path):
    """matrix subcommand reproduces all 55 published entries within 5e-4, <1 s."""
    with criterion("1 detection-matrix table"):
        out = tmp_path / "matrix.csv"
        t0 = time.perf_counter()
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "heraldsim",
                "matrix",
                "--transmission",
                "0.7",
                "--pixels",
                "4",
                "--crosstalk",
                "0.025",
                "--nmax",
                "10",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - t0
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().splitlines()
        values = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert values.shape == (11, 5)
        np.testing.assert_allclose(values, REFERENCE_TABLE, atol=TABLE_ATOL)
        assert elapsed < 1.0, f"matrix subcommand took {elapsed:.2f}s"


def test_criterion_2_genuine_two_click_fraction():
    """63%/37% decomposition of the published operating point."""
    with criterion("2 crosstalk decomposition"):
        fraction = genuine_two_click_fraction(825_000, 56_000, 0.025)
        assert 0.60 <= fraction <= 0.66


class TestCriterion3HeraldedLimits:
    """Heralded-statistics limits; total runtime budget 5 s."""

    N_MAX = 25

    def ideal(self):
        return DetectionMatrix(entries=np.eye(self.N_MAX + 1))

    def test_3a_ideal_detector_limits(self):
        with criterion("3a ideal-detector g2 limits"):
            source = poissonian(0.2, self.N_MAX)
            dist, _ = heralded_distribution(source, self.ideal(), HeraldSelection.exactly(1))
            assert g2_zero(dist) == 0.0
            dist, _ = heralded_distribution(source, self.ideal(), HeraldSelection.exactly(2))
            assert g2_zero(dist) == pytest.approx(0.5, abs=1e-9)

    def test_3b_reference_without_crosstalk_low_mu(self):
        with criterion("3b crosstalk-free two-click limit"):
            det = detection_matrix(0.7, 4, 0.0, self.N_MAX)
            dist, _ = heralded_distribution(
                poissonian(1e-4, self.N_MAX), det, HeraldSelection.exactly(2)
            )
            assert g2_zero(dist) == pytest.approx(0.5, abs=1e-3)

    def test_3c_crosstalk_direction_at_low_mu(self):
        """Crosstalk lowers the low-brightness two-click g2(0), to a closed form.

        Crosstalk eps gives the two-click column eps times the single-click
        column, so one photon gives two clicks with D12 = T * eps; row n = 1
        of the published table (0.017) is this entry.  Two photons give two
        clicks with D22 = T^2 [(1 - eps)(1 - 1/N) + eps/N] + 2T(1 - T) eps.
        At mean photon number mu, neglecting n >= 3, the heralded state has
        p(2)/p(1) = r = (mu/2) D22 / D12: false single-photon heralds
        outnumber genuine pairs by 1/r ~ 940 at mu = 1e-4, so

            g2(0) = 2r(1 + r) / (1 + 2r)^2 ~ 2.1e-3,

        far below the crosstalk-free 0.5.  The neglected n = 3 term changes
        g2(0) by a relative O(mu), about 1.4e-4 here.
        """
        with criterion("3c crosstalk direction at low mu"):
            T, eps, n_pix, mu = 0.7, 0.025, 4, 1e-4
            det_eps = detection_matrix(T, n_pix, eps, self.N_MAX)
            det_0 = detection_matrix(T, n_pix, 0.0, self.N_MAX)
            source = poissonian(mu, self.N_MAX)
            sel = HeraldSelection.exactly(2)
            g2_eps = g2_zero(heralded_distribution(source, det_eps, sel)[0])
            g2_0 = g2_zero(heralded_distribution(source, det_0, sel)[0])

            d12 = T * eps
            d22 = T**2 * ((1 - eps) * (1 - 1 / n_pix) + eps / n_pix) + 2 * T * (1 - T) * eps
            r = (mu / 2) * d22 / d12
            g2_closed = 2 * r * (1 + r) / (1 + 2 * r) ** 2

            assert g2_0 == pytest.approx(0.5, abs=1e-3)
            assert g2_eps < g2_0, (
                f"crosstalk g2(0)={g2_eps:.4g} is not below the "
                f"crosstalk-free value {g2_0:.4g}"
            )
            assert g2_eps == pytest.approx(g2_closed, rel=1e-3)

    def test_3d_single_click_monotone(self):
        with criterion("3d single-click g2 monotone in brightness"):
            from heraldsim import default_mean_grid, g2_sweep

            t0 = time.perf_counter()
            grid = default_mean_grid()
            det = reference_detection_matrix(required_n_max(grid[-1]))
            g2s = [g2 for _, g2, _ in g2_sweep(det, HeraldSelection.exactly(1), grid)]
            assert np.all(np.diff(g2s) >= 0)
            assert time.perf_counter() - t0 < 5.0


# (mu, selection, hbt_efficiency): efficiency is lowered with brightness to
# stay in the low-photon-number regime where the pairwise click estimator
# converges to the photon-number g2.
EQUIVALENCE_CONFIGS = [
    (0.0075, 1, 1.0, 101),
    (0.0075, 2, 1.0, 102),
    (0.1, 1, 0.1, 103),
    (0.1, 2, 0.1, 104),
    (0.5, 1, 0.05, 105),
    (0.5, 2, 0.05, 106),
]


@pytest.mark.parametrize("mu,sel,efficiency,seed", EQUIVALENCE_CONFIGS)
def test_criterion_4_analytic_monte_carlo_equivalence(mu, sel, efficiency, seed):
    """Event-level g2(0) matches the analytic heralded g2(0) within 3 sigma."""
    with criterion(f"4 analytic-vs-MC g2(0) mu={mu} sel={sel}"):
        t0 = time.perf_counter()
        selection = HeraldSelection.exactly(sel)
        config = ExperimentConfig(
            mean_pairs_per_pulse=mu,
            n_pulses=10_000_000,
            seed=seed,
            herald_selection=selection,
            hbt_efficiency=efficiency,
            dark_rate=0.0,
        )
        stream, _ = run(config, threads=2)
        counts = heralded_coincidence_counts(stream, config)
        n_ab = counts.pair_counts[0]
        n_b = counts.b_counts[0]
        assert n_ab > 0, "no zero-delay coincidences collected"
        g2_mc = n_ab * counts.n_triggers / (counts.n_a_slot * n_b)

        det = reference_detection_matrix(required_n_max(mu))
        dist, _ = heralded_distribution(poissonian(mu, det.n_max), det, selection)
        g2_an = g2_zero(dist)

        sigma_rel = math.sqrt(1 / n_ab + 1 / counts.n_triggers + 1 / counts.n_a_slot + 1 / n_b)
        tolerance = 3 * sigma_rel * g2_mc
        elapsed = time.perf_counter() - t0
        assert abs(g2_mc - g2_an) <= tolerance, (
            f"MC {g2_mc:.4f} vs analytic {g2_an:.4f}, 3 sigma {tolerance:.4f}"
        )
        assert elapsed < 60.0, f"configuration took {elapsed:.1f}s"


def test_criterion_5_suppression_ratio_and_peak_ordering():
    """Closed/open peak ratio within 0.3 dB of -10.2 dB; correlated > open > closed."""
    with criterion("5 gate suppression ratio"):
        t0 = time.perf_counter()
        config = ExperimentConfig(
            mean_pairs_per_pulse=0.0075,
            n_pulses=400_000_000,
            seed=2024,
            herald_selection=HeraldSelection.at_least(1, 4),
        )
        stream, _ = run(config, threads=4)
        channels = stream.channels
        # post-select triggers with no neighbour inside the analysis span so
        # no foreign gate contaminates the closed peaks of the histogram
        heralds = isolated_times(channels[Channel.HERALD_TRIGGER], 16 * REP)
        isolated = TagStream(
            channels={
                Channel.HERALD_TRIGGER: heralds,
                Channel.HBT_A: channels[Channel.HBT_A],
                Channel.HBT_B: channels[Channel.HBT_B],
            },
            duration=stream.duration,
        )
        hist = correlate(isolated, (Channel.HERALD_TRIGGER, Channel.HBT_A))
        peaks = dict(integrate_peaks(hist, REP))
        # signal photons arrive two pulses after their herald; the gate
        # [23, 103) ns spans arrival offsets 2..8, of which 3..7 fit in range
        correlated = peaks[2]
        open_peaks = [peaks[k] for k in range(3, 8)]
        closed_peaks = [peaks[k] for k in list(range(-7, 2))]
        assert correlated > max(open_peaks) > min(open_peaks) > max(closed_peaks)
        ratio = np.mean(closed_peaks) / np.mean(open_peaks)
        ratio_db = 10 * math.log10(ratio)
        elapsed = time.perf_counter() - t0
        assert abs(ratio_db - (-10.2)) <= 0.3, f"suppression {ratio_db:.2f} dB"
        assert elapsed < 600.0, f"run took {elapsed:.1f}s"


def test_criterion_6_g2_estimator_sanity():
    """Independent pulsed Poisson streams give g2 = 1.00 +- 0.05 at every offset."""
    with criterion("6 uncorrelated g2 estimator"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(606)
        n_pulses = 20_000_000
        p = 0.05  # 1e6 tags per stream
        times = np.arange(n_pulses, dtype=np.int64) * REP
        a = times[rng.random(n_pulses) < p]
        b = times[rng.random(n_pulses) < p]
        assert min(a.size, b.size) >= 990_000
        stream = TagStream(
            channels={
                Channel.HERALD_TRIGGER: np.empty(0, dtype=np.int64),
                Channel.HBT_A: a,
                Channel.HBT_B: b,
            },
            duration=n_pulses * REP,
        )
        hist = correlate(stream, (Channel.HBT_A, Channel.HBT_B))
        results = g2_tau(hist, REP)
        for offset, g2 in results:
            assert abs(g2 - 1.0) <= 0.05, f"offset {offset}: g2={g2:.3f}"
        assert time.perf_counter() - t0 < 10.0


class TestCriterion7DeterminismAndThroughput:
    def test_7a_byte_identical_across_thread_counts(self, tmp_path):
        with criterion("7a seed determinism across thread counts"):
            config = ExperimentConfig(
                mean_pairs_per_pulse=0.05,
                n_pulses=4_000_000,
                seed=777,
                herald_selection=HeraldSelection.exactly(1),
                dark_rate=100.0,
            )
            paths = []
            for threads in (1, 4):
                with mock.patch.object(event_sim, "_batch_pulses", lambda config, table: 1 << 18):
                    stream, _ = run(config, threads=threads)
                path = tmp_path / f"run_t{threads}.bin"
                write_binary(stream, path)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_7b_throughput_floor(self):
        with criterion("7b event-core throughput"):
            config = ExperimentConfig(
                mean_pairs_per_pulse=0.0075,
                n_pulses=40_000_000,
                seed=1,
                herald_selection=HeraldSelection.at_least(1, 4),
            )
            t0 = time.perf_counter()
            run(config)[0].counters()
            rate = config.n_pulses / (time.perf_counter() - t0)
            assert rate >= 1e7, f"single-core throughput {rate/1e6:.1f} M pulses/s"


def test_criterion_8_discriminator_plateaus():
    """Monotone threshold surfaces with one plateau per occupied click level."""
    with criterion("8 discriminator plateaus"):
        det = reference_detection_matrix(20)
        source = poissonian(1.0, 20)
        model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.005)  # 5% of unit
        lows = np.arange(0.04, 0.46, 0.005)
        highs = np.array([0.18, 0.28, 0.38, math.inf])
        surface = threshold_sweep(source, det, model, 80e6, lows, highs)
        assert np.all(np.diff(surface, axis=0) <= 1e-9 * surface.max())
        assert np.all(np.diff(surface, axis=1) >= -1e-9 * surface.max())
        q = click_number_rates(source, det)
        occupied = int(np.sum(q[1:] > 1e-9))
        assert count_plateaus(surface[:, -1]) == occupied
