import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from heraldsim import (
    DetectionMatrix,
    EmptyEnsembleError,
    HeraldSelection,
    InconsistentRatesError,
    ParameterError,
    default_mean_grid,
    g2_sweep,
    g2_zero,
    genuine_two_click_fraction,
    heralded_distribution,
    poissonian,
    reference_detection_matrix,
    required_n_max,
    thermal,
)
from heraldsim.feedforward import write_sweep_csv


def identity_detector(n_max: int) -> DetectionMatrix:
    """Perfect photon-number resolution: click count == created number."""
    return DetectionMatrix(entries=np.eye(n_max + 1))


def enumerated_click_probs(n: int, transmission: float, n_pixels: int, eps: float) -> np.ndarray:
    """P(k clicks | n created), by exhaustive enumeration of the event tree.

    Independent of the matrix composition path: loops over survivor counts
    with binomial weights, over every pixel assignment, and over the
    crosstalk branch.
    """
    probs = np.zeros(n_pixels + 2)
    for j in range(n + 1):
        w_surv = stats.binom.pmf(j, n, transmission)
        for assignment in itertools.product(range(n_pixels), repeat=j):
            w = w_surv / n_pixels**j
            k = len(set(assignment))
            if 1 <= k <= n_pixels - 1:
                probs[k] += w * (1 - eps)
                probs[k + 1] += w * eps
            else:
                probs[k] += w
    assert probs[n_pixels + 1] == 0.0
    return probs[: n_pixels + 1]


class TestHeraldedDistribution:
    def test_perfect_heralding_single(self):
        source = poissonian(0.4, 12)
        dist, acceptance = heralded_distribution(source, identity_detector(12), HeraldSelection.exactly(1))
        assert g2_zero(dist) == 0.0
        assert dist.probs[1] == 1.0
        assert acceptance == pytest.approx(source.probs[1], rel=1e-12)

    def test_perfect_heralding_double(self):
        dist, _ = heralded_distribution(poissonian(0.4, 12), identity_detector(12), HeraldSelection.exactly(2))
        assert g2_zero(dist) == pytest.approx(0.5, abs=1e-12)

    def test_full_click_set_returns_source(self):
        det = reference_detection_matrix(15)
        source = poissonian(0.3, 15)
        dist, acceptance = heralded_distribution(source, det, HeraldSelection(frozenset(range(5))))
        np.testing.assert_allclose(dist.probs, source.probs, rtol=1e-12)
        assert acceptance == pytest.approx(1.0, abs=1e-12)

    def test_acceptance_partition_sums_to_one(self):
        det = reference_detection_matrix(20)
        source = poissonian(0.7, 20)
        total = 0.0
        for k in range(5):
            _, acceptance = heralded_distribution(source, det, HeraldSelection.exactly(k))
            total += acceptance
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_acceptance_raises(self):
        from heraldsim import renormalize

        det = reference_detection_matrix(4)
        source = renormalize([0.9, 0.1, 0.0, 0.0, 0.0])  # never enough photons for 4 clicks
        with pytest.raises(EmptyEnsembleError):
            heralded_distribution(source, det, HeraldSelection.exactly(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            heralded_distribution(poissonian(0.1, 5), reference_detection_matrix(10), HeraldSelection.exactly(1))

    def test_selection_beyond_pixels(self):
        with pytest.raises(ParameterError):
            heralded_distribution(poissonian(0.1, 10), reference_detection_matrix(10), HeraldSelection.exactly(9))

    def test_matches_event_enumeration_oracle(self):
        # full cross-check of the conditioning pipeline against exhaustive
        # enumeration, at the reference configuration and mu = 1e-4
        mu, n_cut = 1e-4, 6
        det = reference_detection_matrix(n_cut)
        source = poissonian(mu, n_cut)
        selection = HeraldSelection.exactly(2)
        dist, acceptance = heralded_distribution(source, det, selection)

        weights = np.zeros(n_cut + 1)
        for n in range(n_cut + 1):
            clicks = enumerated_click_probs(n, 0.7, 4, 0.025)
            weights[n] = source.probs[n] * clicks[2]
        expected = weights / weights.sum()
        np.testing.assert_allclose(dist.probs, expected, rtol=1e-10)
        assert acceptance == pytest.approx(weights.sum(), rel=1e-10)

        # with crosstalk, false single-photon heralds dominate the two-click
        # selection at small mean photon number, so g2(0) collapses towards 0
        assert g2_zero(dist) == pytest.approx(g2_zero(expected), rel=1e-10)
        assert g2_zero(dist) < 0.01


class TestG2Sweep:
    def test_single_click_low_mu_is_tiny(self):
        det = reference_detection_matrix(required_n_max(1e-4) + 10)
        rows = g2_sweep(det, HeraldSelection.exactly(1), [1e-6, 1e-4])
        assert rows[0][1] < 1e-3
        assert rows[1][1] < 1e-3

    def test_single_click_monotone_over_default_grid(self):
        grid = default_mean_grid()
        det = reference_detection_matrix(required_n_max(grid[-1]))
        g2s = [g2 for _, g2, _ in g2_sweep(det, HeraldSelection.exactly(1), grid)]
        assert np.all(np.diff(g2s) >= 0)

    def test_two_click_no_crosstalk_low_mu_limit(self):
        from heraldsim import detection_matrix

        det = detection_matrix(0.7, 4, 0.0, 25)
        rows = g2_sweep(det, HeraldSelection.exactly(2), [1e-4])
        assert rows[0][1] == pytest.approx(0.5, abs=1e-3)

    def test_two_click_g2_exceeds_half_at_high_brightness(self):
        # with heavy loss, bright-source two-click heralds come mostly from
        # higher photon numbers, so g2(0) sits above 0.5 and keeps rising
        det = reference_detection_matrix(required_n_max(2.0))
        rows = g2_sweep(det, HeraldSelection.exactly(2), [0.5, 1.0, 2.0])
        g2s = [g2 for _, g2, _ in rows]
        assert all(g2 > 0.5 for g2 in g2s)
        assert np.all(np.diff(g2s) > 0)

    def test_thermal_exceeds_poissonian_for_single_click(self):
        det = reference_detection_matrix(60)
        for mu in (0.05, 0.2):
            (_, g2_p, _), = g2_sweep(det, HeraldSelection.exactly(1), [mu], "poissonian")
            (_, g2_t, _), = g2_sweep(det, HeraldSelection.exactly(1), [mu], "thermal")
            assert g2_t >= g2_p

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_mean_grid_needs_a_point(self, n_points):
        with pytest.raises(ParameterError, match=f"n_points must be >= 1, got {n_points}"):
            default_mean_grid(n_points)

    def test_acceptance_column_positive_and_bounded(self):
        det = reference_detection_matrix(30)
        rows = g2_sweep(det, HeraldSelection.exactly(1), default_mean_grid(10))
        for _, _, acceptance in rows:
            assert 0.0 < acceptance < 1.0

    def test_unsorted_means_rejected(self):
        det = reference_detection_matrix(10)
        with pytest.raises(ParameterError):
            g2_sweep(det, HeraldSelection.exactly(1), [0.1, 0.01])

    def test_csv_output(self, tmp_path):
        det = reference_detection_matrix(20)
        selection = HeraldSelection.exactly(2)
        rows = g2_sweep(det, selection, [0.01, 0.1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, selection, "poissonian", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mean,g2,acceptance,selection_label,family"
        assert len(lines) == 3
        assert lines[1].endswith("2,poissonian")


class TestHeraldSelection:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            HeraldSelection(frozenset())

    def test_parse_forms(self):
        assert HeraldSelection.parse("2", 4).accepted_clicks == frozenset({2})
        assert HeraldSelection.parse("1,2", 4).accepted_clicks == frozenset({1, 2})
        assert HeraldSelection.parse("3+", 4).accepted_clicks == frozenset({3, 4})
        assert HeraldSelection.parse("any", 4).accepted_clicks == frozenset({1, 2, 3, 4})

    @staticmethod
    def parse_refusal(text: str, pixels: int) -> str:
        """What ``HeraldSelection.parse`` refuses, in a child that caps its own
        address space, so that a list of gigabytes fails as a MemoryError
        rather than exhausting the host."""
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from heraldsim import HeraldSelection, ParameterError\n"
                 "try:\n"
                 f"    HeraldSelection.parse({text!r}, {pixels})\n"
                 "except ParameterError as exc:\n"
                 "    sys.exit(f'refused: {exc}')\n")
        return subprocess.run([sys.executable, "-c", child], capture_output=True, text=True).stderr.strip()

    @pytest.mark.parametrize("text, pixels", [("any", 10**8), ("2+", 10**8), ("any", 2**63)])
    def test_pixel_count_checked_before_the_set(self, text, pixels):
        # `k+` lists every click count from k to the pixel count, which at
        # 1e8 pixels takes gigabytes
        assert self.parse_refusal(text, pixels) == \
            f"refused: {pixels} pixels give more click counts than a detection matrix can hold"

    @pytest.mark.parametrize("text, pixels, message", [
        ("-100000000+", 4, "'-100000000+' lists more than 1048576 click counts of 4 pixels"),
        ("any", 2**24 - 1, f"'1+' lists more than {2**20} click counts of {2**24 - 1} pixels"),
    ])
    def test_listed_click_counts_checked_before_the_set(self, text, pixels, message):
        # 1e8 and 1.7e7 click counts, where a detection matrix of one row
        # holds 2**24 - 1 pixels
        assert self.parse_refusal(text, pixels) == f"refused: {message}"

    def test_composite_selection(self):
        # "more than 1 click AND NOT 2 clicks" on a 4-pixel device
        sel = HeraldSelection(frozenset({3, 4}), label="2+ and not 2")
        assert sel.accepted_clicks == frozenset({3, 4})


class TestGenuineTwoClickFraction:
    def test_published_operating_point(self):
        fraction = genuine_two_click_fraction(825_000, 56_000, 0.025)
        assert 0.60 <= fraction <= 0.66
        assert fraction == pytest.approx(1 - (825_000 * 0.025 / 0.975) / 56_000, rel=1e-12)

    def test_no_crosstalk_is_all_genuine(self):
        assert genuine_two_click_fraction(825_000, 56_000, 0.0) == 1.0

    def test_boundary_all_crosstalk(self):
        single = 100_000.0
        eps = 0.02
        double = single * eps / (1 - eps)
        assert genuine_two_click_fraction(single, double, eps) == pytest.approx(0.0, abs=1e-12)

    def test_inconsistent_rates_raise(self):
        with pytest.raises(InconsistentRatesError):
            genuine_two_click_fraction(1_000_000, 1_000, 0.025)
