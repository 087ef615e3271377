"""Command-line front end.

Subcommands map one-to-one onto the library: ``matrix`` builds detection
matrices, ``sweep`` runs heralded-g2 brightness sweeps, ``simulate`` runs
the event-level Monte Carlo and writes a tag file, ``analyze`` correlates a
tag file, and ``thresholds`` produces discriminator count-rate surfaces.

Every invocation also writes ``<out>.manifest.json`` recording the tool
version, the configuration, the seed and the SHA-256 digest of each emitted
file; re-running the same configuration and seed reproduces the outputs
byte for byte.  A manifest's ``config`` holds every argument of the command
but ``--out``, with the values the command resolved in place of the given
ones: ``nmax`` and the ``selection`` label of ``sweep``, ``nmax`` of
``thresholds``, and the ``duration`` that normalised ``g2`` of ``analyze``,
whose pulse rate is 1 / ``--rep-period``.  The ``simulate`` config file
takes the sections and keys of ``event_sim.CONFIG_KEYS``, and its manifest's
``config`` is ``ExperimentConfig.resolved()``, whose ``seed`` is the
manifest's ``seed``.

Parameter ranges, integer ones included, are checked by the library, whose
errors end the command with exit code 2, as does a config file that
``configparser`` or UTF-8 decoding refuses; its values are read as written.

Durations accept ``ps`` and ``ns`` suffixes (bare numbers are picoseconds).
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .coincidence import (DEFAULT_BIN_WIDTH, DEFAULT_PEAK_HALFWIDTH, DEFAULT_RANGE, _check_binning, _peak_window,
                          correlate, g2_tau, integrate_peaks, write_histogram_csv, write_peaks_csv)
from .detector_model import (REFERENCE_CROSSTALK, REFERENCE_N_PIXELS, REFERENCE_TRANSMISSION, detection_matrix,
                             write_matrix_csv)
from .discriminator import _MAX_SURFACE, AmplitudeModel, threshold_sweep, write_surface_csv
from .errors import HeraldsimError, ParameterError
from .event_sim import CHANNELS_BY_NAME, CONFIG_KEYS, Channel, ExperimentConfig, _check_pixels, run
from .feedforward import (DEFAULT_MEAN_GRID_POINTS, DEFAULT_MEAN_GRID_RANGE, HeraldSelection, default_mean_grid,
                          g2_sweep, write_sweep_csv)
from .photon_stats import FAMILIES, required_n_max
from .tagio import read_tags, write_binary, write_csv

_PS_PER_UNIT = {"ps": 1, "ns": 1000}


def parse_duration(text: str) -> int:
    """'250ps', '12.5ns' or a bare picosecond count -> integer ps."""
    raw = str(text).strip().lower()
    unit = "ps"
    for suffix in _PS_PER_UNIT:
        if raw.endswith(suffix):
            unit = suffix
            raw = raw[: -len(suffix)]
            break
    try:
        value = float(raw) * _PS_PER_UNIT[unit]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"bad duration {text!r}")
    if value >= 2**63:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}: 2**63 ps or more does not fit 64 bits")
    if abs(value - round(value)) > 1e-6 or value < 0:
        raise argparse.ArgumentTypeError(f"duration {text!r} is not a whole number of picoseconds")
    return int(round(value))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(primary_out: str, command: str, config: dict, outputs: dict, started: str) -> None:
    """Write ``<primary_out>.manifest.json``; ``outputs`` maps each output to its digest, or to None to read it back."""
    manifest = {
        "tool": "heraldsim",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": {path: f"sha256:{digest or _sha256(path)}" for path, digest in outputs.items()},
    }
    with open(primary_out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# simulate: config file handling


_PARSERS = {"float": float, "int": int, "ps": parse_duration, "str": str}
_ROW_BY_KEY = {(row.section, row.key): row for row in CONFIG_KEYS}


def _selection(text: str, kwargs: dict) -> HeraldSelection:
    """Parse a herald selection for the configured pixel count, else the dataclass default.

    The count is checked first: ``k+`` lists every count from k to it.
    """
    return HeraldSelection.parse(text, _check_pixels(kwargs.get("n_pixels", ExperimentConfig.n_pixels)))


def load_config_file(path: str) -> dict:
    """Read the flat sectioned key-value config file into constructor kwargs."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ParameterError(f"cannot read config file {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser spreads its messages over lines
        raise ParameterError(f"malformed config file {path!r}: {detail}") from exc
    kwargs: dict = {}
    selection_text = None
    for section in parser.sections():
        for key, raw in parser.items(section):
            row = _ROW_BY_KEY.get((section, key))
            if row is None:
                raise ParameterError(f"{path}: unknown config key [{section}] {key}")
            if row.kind == "selection":
                selection_text = raw  # its meaning depends on the pixel count
                continue
            try:
                kwargs[row.field] = _PARSERS[row.kind](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"{path}: bad value for [{section}] {key}: {raw!r}") from exc
    if selection_text is not None:
        kwargs["herald_selection"] = _selection(selection_text, kwargs)
    return kwargs


# ----------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the --out path,
# writes its outputs and returns (manifest config, {output path: its
# SHA-256 digest, or None where the command has none})


def _inputs(args, **resolved) -> dict:
    """A manifest's config: every parsed argument but dispatch and ``--out``, overlaid with resolved values."""
    config = {key: value for key, value in vars(args).items() if key not in ("func", "command", "out")}
    config.update(resolved)
    return config


def _nmax(args, mu: float) -> int:
    """``--nmax``, else a cutoff that holds the source's tail at mean ``mu``."""
    return args.nmax if args.nmax is not None else max(10, required_n_max(mu, args.family))


def _cmd_matrix(args, out: str) -> tuple[dict, dict]:
    matrix = detection_matrix(args.transmission, args.pixels, args.crosstalk, args.nmax)
    write_matrix_csv(matrix, out)
    print(f"wrote {out}")
    return _inputs(args), {out: None}


def _cmd_sweep(args, out: str) -> tuple[dict, dict]:
    means = default_mean_grid(args.points, args.mu_min, args.mu_max)
    n_max = _nmax(args, args.mu_max)
    det = detection_matrix(args.transmission, args.pixels, args.crosstalk, n_max)
    selection = HeraldSelection.parse(args.selection, args.pixels)
    rows = g2_sweep(det, selection, means, args.family)
    write_sweep_csv(rows, selection, args.family, out)
    print(f"wrote {out}")
    return _inputs(args, nmax=n_max, selection=selection.label), {out: None}


def _cmd_simulate(args, out: str) -> tuple[dict, dict]:
    kwargs = load_config_file(args.config) if args.config else {}
    if args.mu is not None:
        kwargs["mean_pairs_per_pulse"] = args.mu
    if args.pulses is not None:
        kwargs["n_pulses"] = args.pulses
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.selection is not None:
        kwargs["herald_selection"] = _selection(args.selection, kwargs)
    missing = [k for k in ("mean_pairs_per_pulse", "n_pulses", "seed") if k not in kwargs]
    if missing:
        raise ParameterError(f"missing required simulate parameters: {', '.join(missing)}")
    config = ExperimentConfig(**kwargs)
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    stream, summary = run(config, threads=threads)
    digest = write_csv(stream, out) if out.endswith(".csv") else write_binary(stream, out)
    summary_path = out + ".summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary.as_text())
    print(f"wrote {out} ({sum(stream.counts().values())} tags)")
    return config.resolved(), {out: digest, summary_path: None}


def _parse_pair(text: str) -> tuple:
    try:
        name_a, name_b = (tok.strip().lower() for tok in text.split(","))
        return CHANNELS_BY_NAME[name_a], CHANNELS_BY_NAME[name_b]
    except (ValueError, KeyError) as exc:
        names = ", ".join(CHANNELS_BY_NAME)
        raise argparse.ArgumentTypeError(f"bad channel pair {text!r}; channels: {names}") from exc


def _cmd_analyze(args, out: str) -> tuple[dict, dict]:
    # refuse a binning with no peak window before the tag file is read
    _check_binning(args.bin, args.range)
    _peak_window(args.bin, args.range, args.rep_period, args.halfwidth)
    stream = read_tags(args.tags, duration=args.duration)
    hist = correlate(stream, args.pair, bin_width=args.bin, range_ps=args.range)
    peaks = integrate_peaks(hist, args.rep_period, args.halfwidth)
    g2 = g2_tau(hist, args.rep_period, args.halfwidth)
    hist_path = out + ".hist.csv"
    peaks_path = out + ".peaks.csv"
    write_histogram_csv(hist, hist_path)
    write_peaks_csv(peaks, g2, peaks_path)
    print(f"wrote {hist_path} and {peaks_path}")
    return _inputs(args, duration=stream.duration), {hist_path: None, peaks_path: None}


def _threshold_grid(args, name: str) -> np.ndarray:
    """The ``--<name>-steps`` thresholds from ``--<name>-min`` to ``--<name>-max``; no bounds give ``[inf]``."""
    lo, hi, steps = (getattr(args, f"{name}_{end}") for end in ("min", "max", "steps"))
    if steps < 1:
        raise ParameterError(f"--{name}-steps must be >= 1, got {steps}")
    if steps > _MAX_SURFACE:  # a longer grid makes a larger surface than threshold_sweep takes
        raise ParameterError(f"--{name}-steps must be <= {_MAX_SURFACE}, got {steps}")
    if lo is None and hi is None:
        return np.asarray([np.inf])
    for end, value, other in (("min", lo, "max"), ("max", hi, "min")):
        if value is None:
            raise ParameterError(f"--{name}-{other} needs --{name}-{end}")
        if math.isinf(value):
            raise ParameterError(f"--{name}-{end} must be finite, got {value}")
    return np.linspace(lo, hi, steps)


def _cmd_thresholds(args, out: str) -> tuple[dict, dict]:
    n_max = _nmax(args, args.mu)
    det = detection_matrix(args.transmission, args.pixels, args.crosstalk, n_max)
    source = FAMILIES[args.family](args.mu, n_max)
    model = AmplitudeModel(
        unit_amplitude=args.unit_amplitude,
        noise_sigma=args.noise_sigma,
        baseline=args.baseline,
    )
    low_grid = _threshold_grid(args, "low")
    high_grid = _threshold_grid(args, "high")
    surface = threshold_sweep(source, det, model, args.rep_rate, low_grid, high_grid)
    write_surface_csv(low_grid, high_grid, surface, out)
    print(f"wrote {out}")
    return _inputs(args, nmax=n_max), {out: None}


def _add_detector_args(sub, nmax_default=None):
    sub.add_argument("--transmission", type=float, default=REFERENCE_TRANSMISSION,
                     help="source-to-detector transmission in [0, 1]")
    sub.add_argument("--pixels", type=int, default=REFERENCE_N_PIXELS, help="number of detector pixels")
    sub.add_argument("--crosstalk", type=float, default=REFERENCE_CROSSTALK, help="crosstalk probability in [0, 1)")
    sub.add_argument("--nmax", type=int, default=nmax_default, help="incident photon-number cutoff")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Photon-number feedforward simulator and time-tag analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"heraldsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="build a detection matrix and write it as CSV")
    _add_detector_args(p, nmax_default=10)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("sweep", help="heralded g2(0) vs mean photon number")
    _add_detector_args(p)
    p.add_argument("--selection", required=True, help="accepted clicks, e.g. '1', '1,2', '2+', 'any'")
    p.add_argument("--family", choices=FAMILIES, default="poissonian")
    p.add_argument("--mu-min", type=float, default=DEFAULT_MEAN_GRID_RANGE[0])
    p.add_argument("--mu-max", type=float, default=DEFAULT_MEAN_GRID_RANGE[1])
    p.add_argument("--points", type=int, default=DEFAULT_MEAN_GRID_POINTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run the event-level Monte Carlo")
    p.add_argument("--config", help="sectioned key-value config file")
    p.add_argument("--mu", type=float, help="mean pairs per pulse (overrides config)")
    p.add_argument("--pulses", type=int, help="number of pulses (overrides config)")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--selection", help="herald selection (overrides config)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: the CPU count); "
                        "output is independent of this value")
    p.add_argument("--out", required=True, help="tag file (.csv for text, binary otherwise)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="correlate a tag file and integrate pulse peaks")
    p.add_argument("--tags", required=True, help="tag file written by simulate")
    p.add_argument("--pair", type=_parse_pair, default=(Channel.HBT_A, Channel.HBT_B),
                   help="channel pair, e.g. 'herald_trigger,hbt_a' (default 'hbt_a,hbt_b')")
    p.add_argument("--bin", type=parse_duration, default=DEFAULT_BIN_WIDTH, help="histogram bin width")
    p.add_argument("--range", type=parse_duration, default=DEFAULT_RANGE, help="histogram half range")
    p.add_argument("--rep-period", type=parse_duration, default=ExperimentConfig.rep_period)
    p.add_argument("--halfwidth", type=parse_duration, default=DEFAULT_PEAK_HALFWIDTH,
                   help="peak integration half width")
    p.add_argument("--duration", type=parse_duration, default=None,
                   help="acquisition duration override (ps)")
    p.add_argument("--out", required=True, help="output prefix for .hist.csv and .peaks.csv")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("thresholds", help="discriminator threshold-sweep count-rate surface")
    _add_detector_args(p)
    p.add_argument("--mu", type=float, default=1.0, help="mean photon number of the source")
    p.add_argument("--family", choices=FAMILIES, default="poissonian")
    p.add_argument("--unit-amplitude", type=float, default=0.1, help="volts per fired pixel")
    p.add_argument("--noise-sigma", type=float, default=0.005, help="Gaussian height noise (volts)")
    p.add_argument("--baseline", type=float, default=0.0)
    p.add_argument("--rep-rate", type=float, default=80e6, help="pulse rate in Hz")
    p.add_argument("--low-min", type=float, default=0.04)
    p.add_argument("--low-max", type=float, default=0.46)
    p.add_argument("--low-steps", type=int, default=85)
    p.add_argument("--high-min", type=float, default=None)
    p.add_argument("--high-max", type=float, default=None)
    p.add_argument("--high-steps", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_thresholds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = _utc_now()
    try:
        config, outputs = args.func(args, args.out)
        _write_manifest(args.out, args.command, config, outputs, started)
    except (HeraldsimError, OSError) as exc:
        print(f"heraldsim {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
