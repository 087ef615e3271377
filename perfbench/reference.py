"""Independent reference for the benchmark's output checks.

Nothing here imports ``heraldsim``.  The expected values are derived from
the physical model the README documents, and the tag files are parsed from
the README's wire format:

(a) click histogram and herald acceptance from the source law, binomial
    idler loss, the pixel-occupancy click law and the crosstalk shift
    k -> k + 1 for 1 <= k <= N - 1;
(b) the heralded g2(0) as the expectation of the click estimator,
    E_h[P_AB] / (E_h[P_A] E_h[P_B]), over the heralded photon-number law;
(c) g2(d) = 1 for d != 0, because distinct pulses are independent;
(d) the tag file read back by this module equals ``read_tags``, is in time
    order and matches the ``[counts]`` section of the run summary;
(e) the ``analyze`` peak counts equal a direct count of herald-HBT-A pairs
    inside each peak window, and the g2 column equals
    counts * rep_rate * duration / (C_a * C_b).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

Z_LIMIT = 5.0
N_MAX = 80  # photon-number cutoff; the truncated tail is checked below

MAGIC = b"HSIMTAGS"
HEADER_BYTES = 16
RECORD_BYTES = 12
CHANNEL_IDS = {"herald_trigger": 0, "hbt_a": 1, "hbt_b": 2}
HERALD, HBT_A, HBT_B = 0, 1, 2

# analyze defaults the benchmark relies on: 250 ps bins over +-100 ns,
# peak windows of +-1 ns
HIST_RANGE_PS = 100_000
PEAK_HALFWIDTH_PS = 1_000


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Model:
    """The numbers of one workload config, read from the benchmark's own table."""

    mu: float
    family: str
    transmission: float
    pixels: int
    crosstalk: float
    selection: frozenset
    q_a: float
    q_b: float
    rep_period: int
    latency: int

    @classmethod
    def from_workload(cls, workload) -> "Model":
        get = workload.setting
        pixels = int(get("idler", "pixels"))
        signal = float(get("signal", "transmission")) * float(get("signal", "hbt_efficiency"))
        split = float(get("signal", "hbt_splitting"))
        return cls(
            mu=float(get("source", "mean_pairs_per_pulse")),
            family=get("source", "family"),
            transmission=float(get("idler", "transmission")),
            pixels=pixels,
            crosstalk=float(get("idler", "crosstalk")),
            selection=parse_selection(get("idler", "selection"), pixels),
            q_a=signal * split,
            q_b=signal * (1.0 - split),
            rep_period=int(get("source", "rep_period")),
            latency=int(get("modulator", "latency")),
        )

    @property
    def signal_delay(self) -> int:
        """Smallest whole number of pulse periods that is at least the latency."""
        return -(-self.latency // self.rep_period) * self.rep_period


def parse_selection(text: str, pixels: int) -> frozenset:
    text = text.strip().lower()
    if text == "any":
        return frozenset(range(1, pixels + 1))
    if text.endswith("+"):
        return frozenset(range(int(text[:-1]), pixels + 1))
    return frozenset(int(tok) for tok in text.split(","))


# ----------------------------------------------------------------------
# analytic model


def photon_law(model: Model) -> np.ndarray:
    """p(n) of the pair number per pulse for n = 0..N_MAX."""
    n = np.arange(N_MAX + 1)
    mu = model.mu
    if model.family == "poissonian":
        lgam = np.array([math.lgamma(k + 1) for k in n])
        p = np.exp(-mu + n * math.log(mu) - lgam)
    elif model.family == "thermal":
        p = mu**n / (1.0 + mu) ** (n + 1)
    else:
        raise ValueError(f"unknown family {model.family!r}")
    if 1.0 - p.sum() > 1e-12:
        raise ValueError("photon-number cutoff too low")
    return p


def clicks_given_pairs(model: Model) -> np.ndarray:
    """C[n, c]: probability of c idler clicks given n pairs."""
    T, N, eps = model.transmission, model.pixels, model.crosstalk
    n = np.arange(N_MAX + 1)
    loss = np.array([[math.comb(i, m) * T**m * (1 - T) ** (i - m) if m <= i else 0.0
                      for m in n] for i in n])
    # m photons on N uniform pixels light exactly k of them (surjections
    # onto a k-subset, by inclusion-exclusion)
    occupancy = np.zeros((N_MAX + 1, N + 1))
    occupancy[0, 0] = 1.0
    for m in n[1:]:
        for k in range(1, N + 1):
            onto = sum((-1) ** j * math.comb(k, j) * ((k - j) / N) ** m for j in range(k + 1))
            occupancy[m, k] = math.comb(N, k) * onto
    shift = np.eye(N + 1)
    for k in range(1, N):
        shift[k, k] = 1.0 - eps
        shift[k, k + 1] = eps
    return loss @ occupancy @ shift


def click_law(model: Model) -> np.ndarray:
    """Per-pulse probability of 0..N idler clicks."""
    return photon_law(model) @ clicks_given_pairs(model)


def heralded_g2_zero(model: Model) -> float:
    """E_h[P_AB] / (E_h[P_A] E_h[P_B]) over the heralded photon-number law."""
    n = np.arange(N_MAX + 1)
    herald = clicks_given_pairs(model)[:, sorted(model.selection)].sum(axis=1)
    h = photon_law(model) * herald
    h /= h.sum()
    miss_a = (1 - model.q_a) ** n
    miss_b = (1 - model.q_b) ** n
    p_a = h @ (1 - miss_a)
    p_b = h @ (1 - miss_b)
    p_ab = h @ (1 - miss_a - miss_b + (1 - model.q_a - model.q_b) ** n)
    return float(p_ab / (p_a * p_b))


# ----------------------------------------------------------------------
# file readers


def read_tag_file(path: str) -> tuple:
    """(channel ids, timestamps) in file order, from either wire format."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] == MAGIC:
        if int.from_bytes(data[8:12], "little") != 1 or int.from_bytes(data[12:16], "little") != 0:
            raise ValueError("bad binary header")
        payload = np.frombuffer(data, dtype=np.uint8, offset=HEADER_BYTES)
        if payload.size % RECORD_BYTES:
            raise ValueError("truncated record payload")
        rows = payload.reshape(-1, RECORD_BYTES)
        if rows[:, 1:4].any():
            raise ValueError("non-zero padding bytes")
        times = np.ascontiguousarray(rows[:, 4:]).view("<u8").ravel()
        if times.size and int(times.max()) >= 2**63:
            raise ValueError("timestamp out of int64 range")
        return rows[:, 0].astype(np.int64), times.astype(np.int64)
    lines = data.decode("utf-8").splitlines()
    if lines[0] != "channel,timestamp_ps":
        raise ValueError("bad CSV header")
    codes, times = [], []
    for line in lines[1:]:
        name, stamp = line.split(",")
        codes.append(CHANNEL_IDS[name])
        times.append(int(stamp))
    return np.array(codes, dtype=np.int64), np.array(times, dtype=np.int64)


def read_peaks(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(int(r["peak_offset"]), int(r["counts"]), float(r["g2"])) for r in csv.DictReader(fh)]


# ----------------------------------------------------------------------
# checks


def _z_check(name: str, observed: float, expected: float, sigma: float) -> Check:
    if sigma == 0.0:
        return Check(name, observed == expected, f"observed {observed}, expected exactly {expected}")
    z = (observed - expected) / sigma
    return Check(name, abs(z) <= Z_LIMIT, f"observed {observed:.6g}, expected {expected:.6g}, z = {z:+.2f}")


def check_summary(model: Model, pulses: int, summary: dict) -> list:
    """(a): [clicks] entries and heralds_accepted within 5 sigma of the model."""
    law = click_law(model)
    out = []
    for k, p in enumerate(law):
        observed = int(summary["clicks"][f"k{k}"])
        out.append(_z_check(f"a.clicks.k{k}", observed, pulses * p, math.sqrt(pulses * p * (1 - p))))
    p_sel = float(law[sorted(model.selection)].sum())
    out.append(_z_check("a.heralds_accepted", int(summary["run"]["heralds_accepted"]),
                        pulses * p_sel, math.sqrt(pulses * p_sel * (1 - p_sel))))
    return out


def _hits(tags: np.ndarray, points: np.ndarray) -> int:
    """How many of the points carry a tag at exactly that time (tags sorted)."""
    if tags.size == 0:
        return 0
    idx = np.minimum(np.searchsorted(tags, points), tags.size - 1)
    return int(np.count_nonzero(tags[idx] == points))


def check_heralded_g2(model: Model, codes: np.ndarray, times: np.ndarray, g2: dict) -> list:
    """(b) g2(0) against the click-estimator expectation; (c) g2(d != 0) against 1.

    sigma follows acceptance check 4: the relative error
    sqrt(1/N_AB + 1/N_t + 1/N_A + 1/N_B), with N_AB taken as the count the
    null hypothesis expects, so that an empty peak still has a finite sigma.
    """
    slots = times[codes == HERALD] + model.signal_delay
    a = np.sort(times[codes == HBT_A])
    b = np.sort(times[codes == HBT_B])
    n_t = slots.size
    n_a = _hits(a, slots)
    out = []
    for d, value in sorted(g2.items()):
        n_b = _hits(b, slots + d * model.rep_period)
        expected = heralded_g2_zero(model) if d == 0 else 1.0
        n_ab = expected * n_a * n_b / n_t
        sigma = expected * math.sqrt(1 / n_ab + 1 / n_t + 1 / n_a + 1 / n_b) if n_ab > 0 else math.inf
        out.append(_z_check("b.g2_0" if d == 0 else f"c.g2_{d:+d}", value, expected, sigma))
    if 0 not in g2:
        out.append(Check("b.g2_0", False, "heralded_g2 returned no offset-0 entry"))
    return out


def check_tag_file(codes: np.ndarray, times: np.ndarray, read_back, summary: dict) -> list:
    """(d): own parse equals read_tags, records in time order, counts match the summary."""
    order_ok = bool(np.all((np.diff(times) > 0) | ((np.diff(times) == 0) & (np.diff(codes) >= 0))))
    out = [Check("d.time_order", order_ok, f"{times.size} records")]
    for name, ch in CHANNEL_IDS.items():
        mine = times[codes == ch]
        theirs = np.asarray(read_back[ch])
        out.append(Check(f"d.read_tags.{name}", mine.size == theirs.size and bool(np.array_equal(mine, theirs)),
                         f"{mine.size} vs {theirs.size} tags"))
        expected = int(summary["counts"][name])
        out.append(Check(f"d.counts.{name}", mine.size == expected, f"{mine.size} in file, {expected} in summary"))
    return out


def check_peaks(model: Model, codes: np.ndarray, times: np.ndarray, duration_ps: int, peaks: list) -> list:
    """(e): herald -> HBT-A peak counts and their g2 normalisation."""
    heralds = times[codes == HERALD]
    a = np.sort(times[codes == HBT_A])
    period, hw = model.rep_period, PEAK_HALFWIDTH_PS
    offsets = range(math.ceil((-HIST_RANGE_PS + hw) / period), math.floor((HIST_RANGE_PS - hw) / period) + 1)
    out = [Check("e.offsets", [k for k, _, _ in peaks] == list(offsets), f"{len(peaks)} peaks")]
    norm = (1e12 / period) * (duration_ps * 1e-12) / (heralds.size * a.size)
    for k, counts, g2 in peaks:
        centre = heralds + k * period
        mine = int((np.searchsorted(a, centre + hw) - np.searchsorted(a, centre - hw)).sum())
        out.append(Check(f"e.counts_{k:+d}", counts == mine, f"{counts} in file, {mine} counted"))
        out.append(Check(f"e.g2_{k:+d}", math.isclose(g2, counts * norm, rel_tol=1e-9, abs_tol=1e-15),
                         f"{g2!r} in file, {counts * norm!r} expected"))
    return out
