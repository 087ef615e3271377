import argparse
import configparser
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heraldsim import ExperimentConfig, HeraldSelection, cli
from heraldsim.cli import build_parser, main, parse_duration
from heraldsim.event_sim import CONFIG_KEYS
from heraldsim.photon_stats import required_n_max
from heraldsim.tagio import read_binary, read_tags


def invoke(*args, **kwargs):
    """Run the CLI in-process; returns (exit_code, capsys-free)."""
    return main([str(a) for a in args])


def invoke_subprocess(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "heraldsim", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestParseDuration:
    def test_units(self):
        assert parse_duration("250ps") == 250
        assert parse_duration("12.5ns") == 12_500
        assert parse_duration("80ns") == 80_000
        assert parse_duration("12500") == 12_500

    def test_fractional_ps_rejected(self):
        with pytest.raises(Exception):
            parse_duration("0.3ps")

    @pytest.mark.parametrize("text", ["inf", "nan", "infns", "-inf", "NaNps", "1e400"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="bad duration"):
            parse_duration(text)

    def test_past_int64_rejected(self):
        assert parse_duration("9223372036854774784") == 2**63 - 1024  # the largest float below 2**63
        for text in ("9223372036854775808", "9223372036854775807", "1e30", "9300000000000000ns"):
            with pytest.raises(argparse.ArgumentTypeError, match="2\\*\\*63 ps or more"):
                parse_duration(text)


class TestMatrixCommand:
    def test_reference_table(self, tmp_path):
        out = tmp_path / "matrix.csv"
        code = invoke("matrix", "--transmission", 0.7, "--pixels", 4,
                      "--crosstalk", 0.025, "--nmax", 10, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,0,1,2,3,4"
        row1 = [float(v) for v in lines[2].split(",")[1:]]
        np.testing.assert_allclose(row1, [0.300, 0.682, 0.017, 0.0, 0.0], atol=5.001e-4)

    def test_invalid_transmission_exit_code(self, tmp_path, capsys):
        result = invoke_subprocess("matrix", "--transmission", 1.5, "--out", "x.csv")
        assert result.returncode == 2
        assert "transmission" in result.stderr or "[0, 1]" in result.stderr
        # the library's range checks serve every command with detector arguments
        required = {"matrix": (), "sweep": ("--selection", "1"), "thresholds": ()}
        for command, extra in required.items():
            for args, name in ((("--transmission", "1.5"), "transmission"), (("--transmission", "nan"), "transmission"),
                               (("--crosstalk", "1.0"), "crosstalk")):
                assert invoke(command, *extra, *args, "--out", tmp_path / "x.csv") == 2, (command, args)
                assert f"heraldsim {command}: error: {name}" in capsys.readouterr().err

    def test_manifest_digests(self, tmp_path):
        out = tmp_path / "matrix.csv"
        assert invoke("matrix", "--out", out) == 0
        manifest = json.loads((tmp_path / "matrix.csv.manifest.json").read_text())
        assert manifest["tool"] == "heraldsim"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out)] == f"sha256:{digest}"


class TestSweepCommand:
    def test_two_click_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = invoke("sweep", "--selection", "2", "--points", 8, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mean,g2,acceptance,selection_label,family"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        assert all(r[3] == "2" and r[4] == "poissonian" for r in rows)

    def test_low_mu_single_click_is_tiny(self, tmp_path):
        out = tmp_path / "sweep.csv"
        invoke("sweep", "--selection", "1", "--mu-min", 1e-6, "--mu-max", 1e-4,
               "--points", 3, "--out", out)
        g2s = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        assert all(g2 < 1e-3 for g2 in g2s)

    def test_empty_selection_rejected(self, tmp_path):
        result = invoke_subprocess("sweep", "--selection", "", "--out", tmp_path / "s.csv")
        assert result.returncode == 2


class TestSimulateCommand:
    CONFIG = """
[source]
mean_pairs_per_pulse = 0.02
family = poissonian
rep_period = 12.5ns

[idler]
transmission = 0.7
pixels = 4
crosstalk = 0.025
selection = 1

[modulator]
latency = 23ns
gate_length = 80ns
extinction_db = 10.2

[signal]
transmission = 1.0
hbt_splitting = 0.5
hbt_efficiency = 1.0
dark_rate = 100

[run]
pulses = 100000
seed = 31415
"""

    def write_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(self.CONFIG)
        return path

    def test_run_and_outputs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.tags"
        assert invoke("simulate", "--config", cfg, "--out", out) == 0
        assert out.exists()
        summary = (tmp_path / "run.tags.summary.txt").read_text()
        assert "seed = 31415" in summary
        manifest = json.loads((tmp_path / "run.tags.manifest.json").read_text())
        assert manifest["seed"] == 31415
        assert manifest["config"]["herald_selection"] == "1"

    def test_seed_reproducibility_across_threads(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a.tags", tmp_path / "b.tags"
        invoke("simulate", "--config", cfg, "--out", out1, "--threads", 1)
        invoke("simulate", "--config", cfg, "--out", out2, "--threads", 4)
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_mu_zero_dark_empty_stream(self, tmp_path):
        out = tmp_path / "empty.tags"
        code = invoke("simulate", "--mu", 0, "--pulses", 1_000, "--seed", 1, "--out", out)
        assert code == 0
        stream = read_binary(out)
        assert all(arr.size == 0 for arr in stream.channels.values())

    def test_missing_parameters_exit_code(self, tmp_path):
        result = invoke_subprocess("simulate", "--out", tmp_path / "x.tags")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "setting, bad",
        [("rep_period = 12.5ns", "rep_period = infns"), ("latency = 23ns", "latency = nan"),
         ("gate_length = 80ns", "gate_length = inf")],
    )
    def test_non_finite_config_time_exit_code(self, tmp_path, capsys, setting, bad):
        assert setting in self.CONFIG
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace(setting, bad))
        assert invoke("simulate", "--config", cfg, "--out", tmp_path / "x.tags") == 2
        assert "bad value for [" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, bad, message",
        [("dark_rate = 100", "dark_rate = nan", "dark_rate must be finite"),
         ("dark_rate = 100", "dark_rate = inf", "dark_rate must be finite"),
         ("dark_rate = 100", "dark_rate = 1e300", "dark_rate 1e+300 gives more dark counts per batch"),
         ("extinction_db = 10.2", "extinction_db = nan", "extinction_db must be >= 0, got nan")],
    )
    def test_non_finite_setting_exit_code(self, tmp_path, setting, bad, message):
        assert setting in self.CONFIG
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace(setting, bad))
        result = invoke_subprocess("simulate", "--config", cfg, "--out", tmp_path / "x.tags")
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    def test_perfect_extinction(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("extinction_db = 10.2", "extinction_db = inf"))
        out = tmp_path / "x.tags"
        assert invoke("simulate", "--config", cfg, "--pulses", 1_000, "--out", out) == 0
        assert "extinction_db = inf\n" in (tmp_path / "x.tags.summary.txt").read_text()

    @pytest.mark.parametrize("signal_delay", [None, np.int64(30_000)])
    def test_summary_and_manifest_echo_resolved_config(self, tmp_path, monkeypatch, signal_delay):
        kwargs = dict(
            mean_pairs_per_pulse=np.float64(0.3), n_pulses=np.int64(5_000), seed=np.uint64(2**63 + 7),
            rep_period=np.int32(10_000), source_family="thermal", idler_transmission=np.float64(0.6),
            n_pixels=np.int64(3), crosstalk=0.01, herald_selection=HeraldSelection.parse("1,2", 3),
            latency=np.int64(15_000), gate_length=40_000, extinction_db=20.0, signal_transmission=0.9,
            hbt_splitting=0.4, hbt_efficiency=0.8, dark_rate=50.0, signal_delay=signal_delay,
            retrigger="ignore", gate_rise_time=np.int16(2_000),
        )
        default = ExperimentConfig(mean_pairs_per_pulse=0.0075, n_pulses=10_000_000, seed=12345)
        resolved = ExperimentConfig(**kwargs).resolved()
        assert all(value != default.resolved()[field] for field, value in resolved.items())
        assert list(resolved) == [row.field for row in CONFIG_KEYS]
        assert resolved["herald_selection"] == "1,2"
        assert resolved["signal_delay"] == (20_000 if signal_delay is None else 30_000)

        monkeypatch.setattr(cli, "load_config_file", lambda path: dict(kwargs))
        out = tmp_path / "run.tags"
        assert invoke("simulate", "--config", "run.ini", "--threads", 1, "--out", out) == 0
        summary = configparser.ConfigParser()
        summary.read(tmp_path / "run.tags.summary.txt")
        config_rows = [row for row in CONFIG_KEYS if row.section != "run"]
        assert dict(summary["config"]) == {row.field: str(resolved[row.field]) for row in config_rows}
        assert summary["run"]["pulses"] == str(resolved["n_pulses"])
        assert summary["run"]["seed"] == str(resolved["seed"])
        manifest = json.loads((tmp_path / "run.tags.manifest.json").read_text())
        assert manifest["config"] == resolved

    def test_csv_output_extension(self, tmp_path):
        out = tmp_path / "run.csv"
        invoke("simulate", "--mu", 0.05, "--pulses", 10_000, "--seed", 2, "--out", out)
        assert out.read_text().startswith("channel,timestamp_ps")


def test_readme_config_block_names_every_key(tmp_path):
    """The README's example config holds every key of the table, each at its default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    assert keys == {(row.section, row.key) for row in CONFIG_KEYS}
    kwargs = cli.load_config_file(str(path))
    assert set(kwargs) == {row.field for row in CONFIG_KEYS}
    config = ExperimentConfig(**kwargs)
    default = ExperimentConfig(config.mean_pairs_per_pulse, config.n_pulses, config.seed)
    assert config.resolved() == default.resolved()


def test_tag_io_goes_through_cli_names(tmp_path, monkeypatch):
    """`perfbench --trace 1` wraps these names of heraldsim.cli, so simulate
    and analyze must call the simulator, the tag writers and reader and the
    analysis steps through them."""
    calls = []

    def shown(value):  # paths and numbers as given, anything else by type
        return value if isinstance(value, (str, int, float)) else type(value).__name__

    def recording(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls.append((name, tuple(map(shown, args)), {k: shown(v) for k, v in kwargs.items()}))
            return real(*args, **kwargs)

        return call

    names = ("run", "write_binary", "write_csv", "read_tags", "correlate", "integrate_peaks", "g2_tau",
             "write_histogram_csv", "write_peaks_csv")
    for name in names:
        monkeypatch.setattr(cli, name, recording(name))
    tags, csv = str(tmp_path / "run.tags"), str(tmp_path / "run.csv")
    analysis = str(tmp_path / "analysis")
    for out in (tags, csv):
        assert invoke("simulate", "--mu", 0.05, "--pulses", 2_000, "--seed", 2, "--threads", 1, "--out", out) == 0
        assert invoke("analyze", "--tags", out, "--pair", "herald_trigger,hbt_a", "--duration", 25_000_000,
                      "--out", analysis) == 0
    analysis_calls = [
        ("correlate", ("TagStream", "tuple"), {"bin_width": 250, "range_ps": 100_000}),
        ("integrate_peaks", ("CoincidenceHistogram", 12_500, 1_000), {}),
        ("g2_tau", ("CoincidenceHistogram", 12_500, 80_000_000.0, 1_000), {}),
        ("write_histogram_csv", ("CoincidenceHistogram", analysis + ".hist.csv"), {}),
        ("write_peaks_csv", ("list", "list", analysis + ".peaks.csv"), {}),
    ]
    assert calls == [
        ("run", ("ExperimentConfig",), {"threads": 1}),
        ("write_binary", ("TagStream", tags), {}),
        ("read_tags", (tags,), {"duration": 25_000_000}),
        *analysis_calls,
        ("run", ("ExperimentConfig",), {"threads": 1}),
        ("write_csv", ("TagStream", csv), {}),
        ("read_tags", (csv,), {"duration": 25_000_000}),
        *analysis_calls,
    ]


@pytest.fixture(scope="module")
def small_tags(tmp_path_factory):
    tags = tmp_path_factory.mktemp("analyze") / "run.tags"
    assert invoke("simulate", "--mu", 0.05, "--pulses", 20_000, "--seed", 5, "--threads", 1, "--out", tags) == 0
    return tags


class TestAnalyzeCommand:
    def test_histogram_and_peaks(self, tmp_path):
        tags = tmp_path / "run.tags"
        invoke("simulate", "--mu", 0.05, "--pulses", 200_000, "--seed", 5,
               "--selection", "1", "--out", tags)
        out = tmp_path / "analysis"
        code = invoke("analyze", "--tags", tags, "--pair", "herald_trigger,hbt_a", "--out", out)
        assert code == 0
        hist_lines = (tmp_path / "analysis.hist.csv").read_text().strip().splitlines()
        assert hist_lines[0] == "bin_center_ps,count"
        assert len(hist_lines) == 801
        peak_lines = (tmp_path / "analysis.peaks.csv").read_text().strip().splitlines()
        assert peak_lines[0] == "peak_offset,counts,g2"
        peaks = {int(l.split(",")[0]): int(l.split(",")[1]) for l in peak_lines[1:]}
        # correlated photons arrive two pulses after their herald
        assert peaks[2] == max(peaks.values())

    def test_missing_file_exit_code(self, tmp_path):
        result = invoke_subprocess("analyze", "--tags", tmp_path / "nope.bin", "--out", tmp_path / "x")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--bin", "0"), "bin_width and range_ps must be > 0"),
            (("--bin", "300"), "must divide the histogram span"),
            (("--bin", "1e30"), "bad duration '1e30'"),
            (("--range", "1e30"), "bad duration '1e30'"),
            (("--bin", "1", "--range", str(2**62)), "must be below 2**62"),
            # 2**47 and 2**60 bins: numpy fails the allocation or refuses the size
            (("--bin", "1", "--range", str(2**46)), "bins cannot be allocated"),
            (("--bin", "1", "--range", str(2**59)), "bins cannot be allocated"),
        ],
    )
    def test_bad_binning_exit_code(self, small_tags, tmp_path, args, message):
        result = invoke_subprocess("analyze", "--tags", small_tags, "--pair", "herald_trigger,hbt_a",
                                   *args, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("option", ["--bin", "--range", "--duration"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_duration_exit_code(self, tmp_path, option, value):
        result = invoke_subprocess("analyze", "--tags", tmp_path / "t.tags", option, value,
                                   "--out", tmp_path / "x")
        assert result.returncode == 2
        assert "bad duration" in result.stderr
        assert "Traceback" not in result.stderr

    def test_duration_inside_the_run_exit_code(self, small_tags, tmp_path, capsys):
        """A 1 ns acquisition ends before the last herald of a 20 000-pulse run."""
        assert invoke("analyze", "--tags", small_tags, "--duration", 1000, "--out", tmp_path / "x") == 2
        assert "duration 1000 ps must exceed the last herald" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestThresholdsCommand:
    def test_surface_csv(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = invoke("thresholds", "--mu", 1.0, "--low-steps", 20, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "low,high,rate_hz"
        rates = [float(l.split(",")[2]) for l in lines[1:]]
        assert len(rates) == 20
        assert all(np.diff(rates) <= 1e-6 * max(rates))

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--high-min", "0.15"), "--high-min needs --high-max"),
            (("--high-max", "0.3"), "--high-max needs --high-min"),
            (("--low-max", "inf"), "--low-max must be finite, got inf"),
            (("--high-min", "0.15", "--high-max", "inf", "--high-steps", "3"), "--high-max must be finite, got inf"),
        ],
    )
    def test_grid_bounds_exit_code(self, tmp_path, capsys, args, message):
        """A lone high bound or an infinite bound exits 2 naming the flag, before numpy builds a grid."""
        assert invoke("thresholds", *args, "--out", tmp_path / "x") == 2
        assert f"heraldsim thresholds: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEnvironmentOverrides:
    def test_outdir_redirects_relative_paths(self, tmp_path, monkeypatch):
        import os

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HERALDSIM_OUTDIR", str(tmp_path / "results"))
        assert invoke("matrix", "--out", "m.csv") == 0
        assert (tmp_path / "results" / "m.csv").exists()

    def test_threads_env_not_an_integer(self, tmp_path):
        env = {**os.environ, "HERALDSIM_THREADS": "abc"}
        result = invoke_subprocess("simulate", "--mu", 0.01, "--pulses", 1_000, "--seed", 3,
                                   "--out", tmp_path / "t.tags", env=env)
        assert result.returncode == 2
        assert "HERALDSIM_THREADS must be an integer" in result.stderr
        assert "Traceback" not in result.stderr
        # an explicit --threads and commands that run no threads ignore it
        result = invoke_subprocess("simulate", "--mu", 0.01, "--pulses", 1_000, "--seed", 3,
                                   "--threads", 1, "--out", tmp_path / "t.tags", env=env)
        assert result.returncode == 0
        assert invoke_subprocess("matrix", "--out", tmp_path / "m.csv", env=env).returncode == 0

    def test_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERALDSIM_THREADS", "2")
        out = tmp_path / "t.tags"
        assert invoke("simulate", "--mu", 0.01, "--pulses", 10_000, "--seed", 3, "--out", out) == 0
        assert out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("analyze", "--pair", "herald_trigger,hbt_a", "--rep-rate", "nan"), "rep_rate must be finite and > 0"),
        (("thresholds", "--rep-rate", "nan"), "rep_rate must be finite and > 0"),
        (("thresholds", "--noise-sigma", "nan"), "noise_sigma must be finite"),
        (("thresholds", "--baseline", "inf"), "baseline must be finite"),
        (("thresholds", "--low-min", "nan"), "threshold grids must not hold NaN"),
        (("sweep", "--selection", "1", "--mu-min", "nan"), "grid bounds must satisfy 0 < low < high"),
    ],
)
def test_non_finite_argument_exit_code(small_tags, tmp_path, capsys, args, message):
    """The library refuses non-finite numbers, so the command exits 2 and writes nothing."""
    command, *rest = args
    if command == "analyze":
        rest = ["--tags", small_tags, *rest]
    assert invoke(command, *rest, "--out", tmp_path / "x") == 2
    assert f"heraldsim {command}: error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _manifest(out) -> dict:
    return json.loads(Path(f"{out}.manifest.json").read_text())


def _resolved(args) -> dict:
    """What each command works out beyond its arguments, from the library."""
    if args.command == "sweep":
        return {"nmax": max(10, required_n_max(args.mu_max, args.family)),
                "selection": HeraldSelection.parse(args.selection, args.pixels).label}
    if args.command == "thresholds":
        return {"nmax": max(10, required_n_max(args.mu, args.family))}
    if args.command == "analyze":
        return {"rep_rate": 1e12 / args.rep_period, "duration": read_tags(args.tags).duration}
    return {}


@pytest.mark.parametrize(
    "args",
    [
        ("matrix", "--nmax", "6"),
        ("sweep", "--selection", "1,2", "--family", "thermal", "--points", "4"),
        ("simulate", "--mu", "0.05", "--pulses", "2000", "--seed", "9", "--threads", "1"),
        ("analyze", "--pair", "herald_trigger,hbt_a", "--bin", "500ps"),
        ("thresholds", "--mu", "0.5", "--low-steps", "7", "--high-min", "0.15", "--high-max", "0.35"),
    ],
    ids=lambda args: args[0],
)
def test_manifest_config_is_the_arguments_and_resolved_values(small_tags, tmp_path, args):
    command, *rest = args
    if command == "analyze":
        rest = ["--tags", str(small_tags), *rest]
    out = str(tmp_path / "out")
    argv = [command, *rest, "--out", out]
    assert invoke(*argv) == 0
    manifest = _manifest(out)
    parsed = build_parser().parse_args(argv)
    if command == "simulate":
        expected = ExperimentConfig(mean_pairs_per_pulse=0.05, n_pulses=2000, seed=9).resolved()
        assert manifest["seed"] == 9
    else:
        given = {key: value for key, value in vars(parsed).items() if key not in ("func", "command", "out")}
        expected = json.loads(json.dumps({**given, **_resolved(parsed)}))
        assert manifest["seed"] is None
    assert manifest["config"] == expected
    assert manifest["command"] == command


def test_thresholds_manifest_records_the_grid(tmp_path):
    configs = []
    for steps in (5, 6):
        out = tmp_path / f"surface{steps}.csv"
        assert invoke("thresholds", "--low-steps", steps, "--out", out) == 0
        configs.append(_manifest(out)["config"])
    assert configs[0] != configs[1]
    assert (configs[0]["low_steps"], configs[1]["low_steps"]) == (5, 6)
    grid = {"low_min": 0.04, "low_max": 0.46, "high_min": None, "high_max": None, "high_steps": 1}
    assert {key: configs[0][key] for key in grid} == grid


def test_analyze_manifest_records_the_duration(small_tags, tmp_path):
    """The duration that normalised g2: as given, else the last tag plus one."""
    stream = read_binary(small_tags)
    last = max(int(times[-1]) for times in stream.channels.values() if times.size)
    g2 = {}
    for given, recorded in ((None, last + 1), (10**12, 10**12)):
        extra = () if given is None else ("--duration", given)
        out = tmp_path / f"analysis{given}"
        assert invoke("analyze", "--tags", small_tags, "--pair", "herald_trigger,hbt_a", *extra, "--out", out) == 0
        assert _manifest(out)["config"]["duration"] == recorded
        g2[given] = (tmp_path / f"analysis{given}.peaks.csv").read_text()
    assert g2[None] != g2[10**12]
