import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from heraldsim import ParameterError, detection_matrix, reference_detection_matrix
from heraldsim import detector_model
from heraldsim.detector_model import write_matrix_csv

# Published response table of the reference 4-pixel configuration
# (transmission 0.7, crosstalk 0.025), printed to three decimals.
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

# Printed values carry +-5e-4 rounding; the extra 1e-9 is float slack for
# differences that sit exactly on the half-unit boundary.
TABLE_ATOL = 5e-4 + 1e-9


def reference_loss_matrix(transmission: float, n_max: int) -> np.ndarray:
    """Binomial thinning matrix; entries[i][j] = P(j transmitted | i incident)."""
    t = float(transmission)
    entries = np.zeros((n_max + 1, n_max + 1))
    entries[0, 0] = 1.0
    for i in range(1, n_max + 1):
        entries[i, 1 : i + 1] = t * entries[i - 1, 0:i]
        entries[i, 0 : i + 1] += (1.0 - t) * entries[i - 1, 0 : i + 1]
    return entries


def reference_click_povm(n_pixels: int, n_max: int) -> np.ndarray:
    """P(k clicks | n photons at the array) by inclusion-exclusion,
    C(N, k) * sum_{j=0..k} (-1)**j C(k, j) ((k - j) / N)**n.

    The alternating sum cancels badly past about 8 pixels; keep to small arrays.
    """
    entries = np.zeros((n_max + 1, n_pixels + 1))
    n = np.arange(n_max + 1)
    for k in range(0, n_pixels + 1):
        acc = np.zeros(n_max + 1)
        for j in range(0, k + 1):
            # 0**0 == 1 covers the n = 0, k = 0 outcome.
            acc += (-1.0) ** j * math.comb(k, j) * ((k - j) / n_pixels) ** n
        entries[:, k] = math.comb(n_pixels, k) * acc
    return np.clip(entries, 0.0, 1.0)


def reference_apply_crosstalk(povm: np.ndarray, crosstalk: float) -> np.ndarray:
    """Shift a fraction ``crosstalk`` of each click outcome 1..N-1 one outcome upward."""
    n_pix = povm.shape[1] - 1
    entries = povm.copy()
    entries[:, 1:n_pix] *= 1.0 - crosstalk
    entries[:, 2 : n_pix + 1] += crosstalk * povm[:, 1:n_pix]
    return entries


def exact_detection_matrix(transmission: float, n_pixels: int, crosstalk: float, n_max: int) -> list:
    """The detection matrix in rational arithmetic, from the float inputs' exact values."""
    t, eps = Fraction(transmission), Fraction(crosstalk)
    row = [Fraction(1)] + [Fraction(0)] * n_pixels
    rows = [row]
    for _ in range(n_max):
        nxt = [Fraction(0)] * (n_pixels + 1)
        for k, p in enumerate(row):
            nxt[k] += p * (1 - t + t * Fraction(k, n_pixels))
            if k < n_pixels:
                nxt[k + 1] += p * t * Fraction(n_pixels - k, n_pixels)
        row = nxt
        rows.append(row)
    out = []
    for row in rows:
        shifted = list(row)
        for k in range(1, n_pixels):
            shifted[k] -= eps * row[k]
            shifted[k + 1] += eps * row[k]
        out.append(shifted)
    return out


def brute_force_clicks(n_photons: int, n_pixels: int) -> np.ndarray:
    """Exact click distribution by enumerating all pixel assignments."""
    counts = np.zeros(n_pixels + 1)
    for assignment in itertools.product(range(n_pixels), repeat=n_photons):
        counts[len(set(assignment))] += 1
    return counts / n_pixels**n_photons


class TestLossMatrix:
    """The binomial loss oracle, and the transmission half of ``detection_matrix``."""

    def test_unit_transmission_is_identity(self):
        np.testing.assert_array_equal(reference_loss_matrix(1.0, 6), np.eye(7))

    def test_zero_transmission(self):
        entries = detection_matrix(0.0, 4, 0.1, 5).entries
        np.testing.assert_array_equal(entries[:, 0], np.ones(6))

    def test_row_two_at_70_percent(self):
        entries = reference_loss_matrix(0.7, 4)
        np.testing.assert_allclose(entries[2, :3], [0.09, 0.42, 0.49], atol=1e-12)

    def test_matches_scipy_binomial(self):
        entries = reference_loss_matrix(0.37, 9)
        for i in range(10):
            np.testing.assert_allclose(
                entries[i, : i + 1], stats.binom.pmf(np.arange(i + 1), i, 0.37), atol=1e-12
            )

    def test_one_pixel_is_binomial(self):
        # one pixel fires when any photon survives; crosstalk has no upper outcome to feed
        n = np.arange(16)
        entries = detection_matrix(0.37, 1, 0.3, 15).entries
        np.testing.assert_allclose(entries[:, 0], stats.binom.pmf(0, n, 0.37), rtol=1e-13)
        np.testing.assert_allclose(entries[:, 1], stats.binom.sf(0, n, 0.37), rtol=1e-13)

    def test_upper_triangle_zero(self):
        entries = reference_loss_matrix(0.5, 6)
        assert np.all(entries[np.triu_indices(7, k=1)] == 0.0)

    def test_domain_errors(self):
        for transmission in (1.5, -0.1, math.nan):
            with pytest.raises(ParameterError, match="transmission must lie in"):
                detection_matrix(transmission, 4, 0.025, 4)


class TestClickPovm:
    """The click response of the array: ``detection_matrix`` at unit transmission and no crosstalk."""

    def test_single_photon_single_click(self):
        entries = detection_matrix(1.0, 4, 0.0, 3).entries
        assert entries[1, 1] == 1.0

    def test_two_photons_four_pixels(self):
        entries = detection_matrix(1.0, 4, 0.0, 3).entries
        assert entries[2, 1] == pytest.approx(0.25, abs=1e-15)
        assert entries[2, 2] == pytest.approx(0.75, abs=1e-15)

    def test_three_photons_four_pixels(self):
        entries = detection_matrix(1.0, 4, 0.0, 3).entries
        np.testing.assert_allclose(entries[3, 1:4], [1 / 16, 9 / 16, 6 / 16], atol=1e-15)

    @pytest.mark.parametrize("n_pixels", [2, 3, 4, 5])
    def test_brute_force_enumeration(self, n_pixels):
        entries = detection_matrix(1.0, n_pixels, 0.0, 6).entries
        for n in range(7):
            np.testing.assert_allclose(entries[n], brute_force_clicks(n, n_pixels), atol=1e-15)

    def test_support_limited_by_photons_and_pixels(self):
        entries = detection_matrix(0.7, 4, 0.0, 8).entries
        for n in range(9):
            for k in range(5):
                if k > min(n, 4):
                    assert entries[n, k] == 0.0


class TestApplyCrosstalk:
    """The crosstalk shift, on hand-worked rows of the lossless 4-pixel array."""

    def test_zero_is_identity(self):
        entries = detection_matrix(0.7, 4, 0.0, 6).entries
        np.testing.assert_allclose(entries, reference_loss_matrix(0.7, 6) @ reference_click_povm(4, 6), atol=1e-15)

    def test_single_click_row(self):
        entries = detection_matrix(1.0, 4, 0.025, 1).entries
        np.testing.assert_allclose(entries[1], [0.0, 0.975, 0.025, 0.0, 0.0], atol=1e-15)

    def test_hand_worked_row(self):
        # two photons: 1/4 one click, 3/4 two clicks before crosstalk
        entries = detection_matrix(1.0, 4, 0.025, 2).entries
        np.testing.assert_allclose(entries[2], [0.0, 0.24375, 0.7375, 0.01875, 0.0], atol=1e-15)

    def test_top_outcome_receives_but_never_donates(self):
        # four photons: 4, 84, 144 and 24 of the 256 assignments fire 1, 2, 3 and 4 pixels
        entries = detection_matrix(1.0, 4, 0.1, 4).entries
        expected = np.array([0.0, 0.9 * 4, 0.9 * 84 + 0.1 * 4, 0.9 * 144 + 0.1 * 84, 24 + 0.1 * 144]) / 256
        np.testing.assert_allclose(entries[4], expected, atol=1e-15)

    def test_eps_one_rejected(self):
        with pytest.raises(ParameterError, match="crosstalk probability must lie in"):
            detection_matrix(0.7, 4, 1.0, 3)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 8), st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_row_sums_preserved(self, transmission, n_pixels, eps):
        entries = detection_matrix(transmission, n_pixels, eps, 20).entries
        np.testing.assert_allclose(entries.sum(axis=1), 1.0, rtol=0, atol=1e-13)


class TestDetectionMatrix:
    def test_reference_rows_match_published_table(self):
        entries = reference_detection_matrix(10).entries
        for n in (1, 2, 10):
            np.testing.assert_allclose(entries[n], REFERENCE_TABLE[n], atol=TABLE_ATOL)

    def test_vacuum_row(self):
        entries = reference_detection_matrix(10).entries
        np.testing.assert_array_equal(entries[0], [1, 0, 0, 0, 0])

    def test_rows_stochastic(self):
        entries = detection_matrix(0.31, 4, 0.07, 25).entries
        np.testing.assert_allclose(entries.sum(axis=1), 1.0, atol=1e-10)

    def test_lossless_no_crosstalk_equals_bare_povm(self):
        det = detection_matrix(1.0, 4, 0.0, 12)
        np.testing.assert_allclose(det.entries, reference_click_povm(4, 12), atol=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(1, 8),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_product(self, transmission, n_pixels, eps, n_max):
        expected = reference_loss_matrix(transmission, n_max) @ reference_apply_crosstalk(
            reference_click_povm(n_pixels, n_max), eps
        )
        entries = detection_matrix(transmission, n_pixels, eps, n_max).entries
        np.testing.assert_allclose(entries, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_pixels, n_max", [(12, 30), (24, 40), (64, 80)])
    def test_many_pixels_rows_sum_to_one(self, n_pixels, n_max):
        # inclusion-exclusion lost these rows to cancellation
        entries = detection_matrix(0.7, n_pixels, 0.025, n_max).entries
        np.testing.assert_allclose(entries.sum(axis=1), 1.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_pixels, n_max", [(12, 30), (24, 40)])
    def test_matches_exact_arithmetic(self, n_pixels, n_max):
        exact = np.array([[float(p) for p in row] for row in exact_detection_matrix(0.7, n_pixels, 0.025, n_max)])
        entries = detection_matrix(0.7, n_pixels, 0.025, n_max).entries
        np.testing.assert_allclose(entries, exact, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_pixels, n_max", [(2**40, 10), (4, 2**40)])
    def test_oversized_matrix_refused_before_allocation(self, n_pixels, n_max):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="entries cannot be allocated"):
                detection_matrix(0.7, n_pixels, 0.025, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    def test_monte_carlo_oracle(self):
        # sample the physical process directly: binomial survival, uniform
        # pixel assignment, per-event crosstalk upgrade
        rng = np.random.default_rng(123)
        t, eps, n_pixels = 0.7, 0.025, 4
        det = detection_matrix(t, n_pixels, eps, 10)
        samples = 1_000_000
        for n in (1, 2, 3, 5, 10):
            survivors = rng.binomial(n, t, samples)
            clicks = np.zeros(samples, dtype=int)
            for count in range(1, n + 1):
                rows = np.nonzero(survivors == count)[0]
                if rows.size == 0:
                    continue
                pixels = rng.integers(0, n_pixels, size=(rows.size, count))
                masks = np.bitwise_or.reduce(1 << pixels, axis=1)
                clicks[rows] = [bin(m).count("1") for m in masks]
            upgrade = (clicks >= 1) & (clicks <= 3) & (rng.random(samples) < eps)
            clicks = clicks + upgrade
            freq = np.bincount(clicks, minlength=n_pixels + 1) / samples
            sigma = np.sqrt(det.entries[n] * (1 - det.entries[n]) / samples)
            assert np.all(np.abs(freq - det.entries[n]) <= 3 * sigma + 1e-9)

    @pytest.mark.parametrize("piece", [1, 2, 3, 1 << 12])
    @pytest.mark.parametrize("n_pixels, n_max", [(1, 0), (4, 10), (6, 2)])
    def test_csv_pieces_match_whole_rows(self, tmp_path, monkeypatch, piece, n_pixels, n_max):
        det = detection_matrix(0.7, n_pixels, 0.025, n_max)
        monkeypatch.setattr(detector_model, "_CSV_PIECE", piece)
        write_matrix_csv(det, tmp_path / "pieces.csv")
        # the writer that joined each row's text whole
        whole = "n," + ",".join(str(k) for k in range(n_pixels + 1)) + "\n"
        whole += "".join(str(i) + "," + ",".join(format(v, ".12g") for v in row) + "\n"
                         for i, row in enumerate(det.entries))
        assert (tmp_path / "pieces.csv").read_bytes() == whole.encode()

    def test_csv_writer_holds_a_piece_of_a_row(self, tmp_path):
        """A row of 2**18 entries is written a piece at a time: under 2 MiB traced,
        where joining the row's text whole took about 70 bytes an entry."""
        det = detection_matrix(0.7, (1 << 18) - 1, 0.025, 0)
        tracemalloc.start()
        try:
            write_matrix_csv(det, tmp_path / "wide.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_csv_export(self, tmp_path):
        det = reference_detection_matrix(4)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(det, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,0,1,2,3,4"
        data = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_allclose(data, det.entries, rtol=1e-10)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_all_rows_stochastic_property(transmission, n_pixels):
    det = detection_matrix(transmission, n_pixels, 0.02, 12)
    np.testing.assert_allclose(det.entries.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(det.entries >= -1e-12)
