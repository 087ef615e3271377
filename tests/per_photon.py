"""The per-photon batch kernel that the alias draw of ``event_sim`` replaced, kept as a reference.

It draws the occupied pulses as ``event_sim`` does, then their pair numbers,
and then uniforms for every photon: an idler photon survives with u < T and
lands on pixel floor(N u / T), and crosstalk may raise the click count by
one; a signal photon's uniform v reaches HBT A below q_a, and passes a
closed gate too below q_a * leak, and HBT B the same in [q_a, q_a + q_b).
The signal arm has three paths, which give the same counts from the same
draws: every photon reduced, only the candidate photons (v below q_a + q_b)
reduced, and a lossless arm, q_a + q_b = 1, whose pulses are all kept.
"""

import math
from typing import NamedTuple

import numpy as np

from heraldsim.event_sim import ExperimentConfig, _geometric, _occupied_pulses, _select
from heraldsim.photon_stats import poissonian, required_n_max

#: Photons, or occupied pulses, a batch reduces at a time.
_SLICE = 1 << 16

#: Share of photons, q_a + q_b, below which the signal arm reduces only the
#: photons that reach a detector rather than every photon.
_SPARSE_SIGNAL = 1 / 3


class PhotonBatch(NamedTuple):
    """A batch in photon counts, from this kernel or another reference kernel."""

    herald_pulse: np.ndarray  # int64 pulses whose click outcome is accepted
    cand_pulse: np.ndarray  # int64 pulses with a signal photon at HBT A or B through an open gate
    cand_clicks: np.ndarray  # idler click count of each candidate
    # (4, candidates) photons of each candidate, one row per channel and gate
    # state: A closed, A open, B closed, B open
    photons: np.ndarray
    click_hist: np.ndarray  # int64 pulses per idler click outcome 0..n_pixels
    darks: tuple  # int64 dark-count times at HBT A and at HBT B


def photon_numbers(rng: np.random.Generator, config: ExperimentConfig, count: int) -> np.ndarray:
    """Pair numbers of occupied pulses: the source law conditioned on n >= 1."""
    mu = config.mean_pairs_per_pulse
    n = np.ones(count, dtype=np.int64)
    if config.source_family == "thermal":
        # no memory holds 2**62 photons, so the clip changes no run that can finish
        for lo in range(0, count, _SLICE):
            n[lo : lo + _SLICE] = _geometric(rng, 1.0 / (1.0 + mu), min(_SLICE, count - lo), 2**62)
        return n
    # inversion by sequential search on the table cut where the tail mass
    # falls below photon_stats.TAIL_MASS_TOL
    cdf = np.cumsum(poissonian(mu, max(1, required_n_max(mu))).probs[1:])
    for lo in range(0, count, _SLICE):
        x = rng.random(min(_SLICE, count - lo)) * cdf[-1]
        count_edges(x, cdf[:-1], n[lo : lo + _SLICE])
    return n


def count_edges(x: np.ndarray, edges: np.ndarray, out: np.ndarray) -> None:
    """Add to ``out`` the number of the sorted ``edges`` at or below each of the non-empty ``x``.

    An edge above ``x.max()`` adds nothing, so the search stops at the last
    edge at or below it.
    """
    for edge in edges[: np.searchsorted(edges, x.max(), "right")]:
        out += x >= edge


def segment_counts(flags: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Number of set flags in each segment; segment i ends at index last[i]."""
    totals = np.cumsum(flags, dtype=np.int32)[last]
    return np.diff(totals, prepend=np.int32(0))


def signal_counts(v: np.ndarray, first: np.ndarray, pulses: np.ndarray, thresholds: tuple, sparse: bool,
                  out: list) -> int:
    """Reduce a photon slice to its pulses with a uniform below the top threshold; returns how many there are.

    ``v`` holds the slice's per-photon uniforms, ``first`` the index of each
    pulse's first photon and ``pulses`` the pulses themselves.  The rows of
    ``out`` take, from their start, the pulses kept and then their uniforms
    below each threshold.  With ``sparse`` only the photons below the top
    threshold are reduced, each found in its pulse by a search into
    ``first``; otherwise every photon is.  A top threshold of 1 or more is
    above every uniform, so then every pulse is kept and its top count is
    its photon number.
    """
    if sparse:
        index = np.flatnonzero(v < thresholds[-1])
        pulse = np.searchsorted(first, index, "right") - 1
        v = v[index]
        # where each pulse's candidates start, and past the last one's
        edges = np.flatnonzero(np.diff(pulse, prepend=-1, append=first.size))
        k = edges.size - 1
        np.take(pulses, pulse[edges[:-1]], out=out[0][:k])
        for row, threshold in zip(out[1:], thresholds[:-1]):
            row[:k] = segment_counts(v < threshold, edges[1:] - 1)
        out[-1][:k] = np.diff(edges)
        return k
    last = np.append(first[1:], v.size) - 1
    counts = [segment_counts(v < threshold, last) for threshold in thresholds[:-1]]
    if thresholds[-1] >= 1.0:
        k = first.size
        for row, values in zip(out, [pulses, *counts, np.diff(first, append=v.size)]):
            row[:k] = values
        return k
    counts.append(segment_counts(v < thresholds[-1], last))
    keep = counts[-1] > 0
    k = int(np.count_nonzero(keep))
    for row, values in zip(out, [pulses, *counts]):
        np.compress(keep, values, out=row[:k])
    return k


def photon_slices(ends: np.ndarray):
    """Photon slices of about ``_SLICE``, cut at pulse boundaries.

    ``ends`` holds the photon index past each pulse's last photon.  Yields
    the slice's pulses as (first, past the last), its photon count and the
    index of each pulse's first photon within the slice.
    """
    cuts = np.searchsorted(ends, np.arange(_SLICE, ends[-1] if ends.size else 0, _SLICE), side="right")
    cuts = np.unique(np.concatenate(([0], cuts, [ends.size])))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        base = int(ends[lo - 1]) if lo else 0
        first = np.empty(hi - lo, dtype=np.int64)
        first[0] = 0
        np.subtract(ends[lo : hi - 1], base, out=first[1:])
        yield lo, hi, int(ends[hi - 1]) - base, first


def simulate_batch(config: ExperimentConfig, batch_index: int, start: int, size: int) -> PhotonBatch:
    """All random draws for pulses [start, start + size); no gate logic here.

    Photons are laid out contiguously per occupied pulse, and every occupied
    pulse holds at least one, so no segment is empty.  The per-photon draws
    are taken and reduced one photon slice at a time, in photon order, so
    the working set is set by the occupied pulses, not the photons.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    n_pix = config.n_pixels
    mu = config.mean_pairs_per_pulse
    p_occ = mu / (1.0 + mu) if config.source_family == "thermal" else -math.expm1(-mu)
    occ = _occupied_pulses(rng, p_occ, size)
    ends = np.cumsum(photon_numbers(rng, config, occ.size))

    # idler arm: a photon survives iff u < T, and then u / T is uniform on
    # [0, 1) and picks its pixel; index n_pix marks a lost photon
    t_idler = config.idler_transmission
    pixel_bit = np.zeros(n_pix + 1, dtype=np.uint16)
    pixel_bit[:n_pix] = 1 << np.arange(n_pix)
    fired = np.empty(occ.size, dtype=np.uint16)
    for lo, hi, n_photons, first in photon_slices(ends):
        u = rng.random(n_photons)
        if t_idler > 0.0:
            u /= t_idler
            np.minimum(u, 1.0, out=u)
        else:
            u.fill(1.0)
        u *= n_pix
        fired[lo:hi] = np.bitwise_or.reduceat(pixel_bit[u.astype(np.uint8)], first)
    clicks = np.bitwise_count(fired)
    del fired
    for lo in range(0, clicks.size, _SLICE):
        part = clicks[lo : lo + _SLICE]
        part += (part >= 1) & (part <= n_pix - 1) & (rng.random(part.size) < config.crosstalk)

    click_hist = np.bincount(clicks, minlength=n_pix + 1)
    click_hist[0] += size - occ.size

    # signal arm, counted for both gate outcomes; the stitch pass picks one.
    # v < q_a reaches A, and given that v / q_a is uniform, so v < q_a * leak
    # also passes a closed gate; B takes [q_a, q_a + q_b) the same way.
    q_a = config.signal_transmission * config.hbt_efficiency * config.hbt_splitting
    q_b = config.signal_transmission * config.hbt_efficiency * (1.0 - config.hbt_splitting)
    leak = config.leakage
    thresholds = (q_a * leak, q_a, q_a + q_b * leak, q_a + q_b)
    sparse = thresholds[-1] < _SPARSE_SIGNAL
    # candidates (pulses with a photon below q_a + q_b) and their photons
    # below each threshold, for the candidates found so far
    cand = np.empty(occ.size, dtype=np.int32)
    below = np.empty((4, occ.size), dtype=np.int32)
    n_cand = 0
    for lo, hi, n_photons, first in photon_slices(ends):
        v = rng.random(n_photons)
        rows = [cand[n_cand:], *below[:, n_cand:]]
        n_cand += signal_counts(v, first, occ[lo:hi], thresholds, sparse, rows)
    del ends
    cand_pulse = cand[:n_cand].astype(np.int64)
    cand_pulse += start
    del cand
    # the B thresholds count the photons at A too
    photons = below[:, :n_cand]
    photons[2:] -= photons[1]

    # the heralds draw nothing, so they are picked after the signal arm;
    # held through its slices, they would raise the batch's peak memory
    accept = np.zeros(n_pix + 1, dtype=bool)
    accept[list(config.herald_selection.accepted_clicks)] = True
    herald_occ = _select(accept[clicks], occ)
    cand_clicks = clicks[np.searchsorted(occ, cand_pulse - start)]
    del clicks
    if accept[0]:
        empty = np.setdiff1d(np.arange(size, dtype=np.int32), occ, assume_unique=True)
        herald_occ = np.sort(np.concatenate([herald_occ, empty]))
    herald_pulse = herald_occ.astype(np.int64)
    herald_pulse += start
    del herald_occ

    # dark counts over this batch's time span, A's drawn first
    span = size * config.rep_period
    t0 = start * config.rep_period
    lam = config.dark_rate * span * 1e-12
    darks = tuple(t0 + rng.integers(0, span, rng.poisson(lam), dtype=np.int64) for _ in range(2))
    return PhotonBatch(herald_pulse, cand_pulse, cand_clicks, photons, click_hist, darks)
