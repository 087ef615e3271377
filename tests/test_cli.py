import argparse
import configparser
import hashlib
import json
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


def invoke_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "heraldsim", *map(str, args)], capture_output=True, text=True)


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

    @pytest.mark.parametrize("pixels, nmax", [(12, 30), (24, 40)])
    def test_many_pixels_exit_code(self, tmp_path, pixels, nmax):
        out = tmp_path / "matrix.csv"
        assert invoke("matrix", "--pixels", pixels, "--nmax", nmax, "--out", out) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert rows.shape == (nmax + 1, pixels + 1)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("matrix", "--pixels", "1000000000000", "--nmax", "10"), "entries cannot be allocated"),
            (("thresholds", "--family", "thermal", "--mu", "1e17"), "no adequate truncation found for mean=1e+17"),
        ],
    )
    def test_oversized_request_exit_code(self, tmp_path, args, message):
        result = invoke_subprocess(*args, "--out", tmp_path / "x.csv")
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("name", ["run.tags", "run.csv"])
    def test_manifest_digests_are_those_of_the_files(self, tmp_path, name):
        # the tag writers hash what they write, and the summary is read back
        out = tmp_path / name
        assert invoke("simulate", "--config", self.write_config(tmp_path), "--out", out) == 0
        outputs = json.loads((tmp_path / f"{name}.manifest.json").read_text())["outputs"]
        files = (out, tmp_path / f"{name}.summary.txt")
        assert outputs == {str(path): f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}" for path in files}

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

    @pytest.mark.parametrize(
        "text",
        [b"[run]\npulses = 1\npulses = 2\n", b"pulses = 1\n", b"[run]\npulses\n", b"[run]\nseed = 1 \xff\n"],
        ids=["duplicate key", "no section header", "key without value", "not utf-8"],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(text)
        assert invoke("simulate", "--config", cfg, "--out", tmp_path / "x.tags") == 2
        err = capsys.readouterr().err
        assert f"heraldsim simulate: error: malformed config file {str(cfg)!r}: " in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_mean_beyond_the_photon_budget_exit_code(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("mean_pairs_per_pulse = 0.02", "mean_pairs_per_pulse = 1e12")
                       .replace("family = poissonian", "family = thermal"))
        result = invoke_subprocess("simulate", "--config", cfg, "--pulses", 1, "--out", tmp_path / "x.tags")
        assert result.returncode == 2
        assert "mean_pairs_per_pulse 1000000000000.0 expects more than" in result.stderr
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("pixels", ["100000000", str(2**63)])
    @pytest.mark.parametrize("selection", ["any", "2+"])
    def test_pixel_count_checked_before_the_selection(self, tmp_path, pixels, selection):
        # `k+` lists every click count from k to the pixel count, which at
        # 1e8 pixels takes gigabytes; the child caps its own address space,
        # so such a list fails as a MemoryError rather than exhausting the host
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("pixels = 4", f"pixels = {pixels}")
                       .replace("selection = 1", f"selection = {selection}"))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from heraldsim.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        result = subprocess.run([sys.executable, "-c", child, "simulate", "--config", str(cfg),
                                 "--out", str(tmp_path / "x.tags")], capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert "n_pixels must lie in 1..16" in result.stderr
        assert list(tmp_path.iterdir()) == [cfg]

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
        ("g2_tau", ("CoincidenceHistogram", 12_500, 1_000), {}),
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


def test_simulate_memory_does_not_grow_with_the_run(tmp_path):
    """simulate writes the run segment by segment, so eight times the pulses
    hold about the same memory."""
    peaks = {}
    for pulses in (1_000_000, 8_000_000):
        script = ("import resource, sys; from heraldsim.cli import main; "
                  "rc = main(sys.argv[1:]); "
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")
        result = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--mu", "0.5", "--selection", "1", "--pulses", str(pulses),
             "--seed", "3", "--threads", "1", "--out", str(tmp_path / "dense.tags")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        peaks[pulses] = int(result.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert peaks[8_000_000] - peaks[1_000_000] <= 10, peaks


# Configs whose `simulate` outputs pin the random stream: a dense run, one
# with the opening ramp, the ignore policy and dark counts, and the sparse
# signal arm of a thermal source behind a 10 %-efficient HBT arm under the
# ignore policy, each over two batches.
PINNED_CONFIGS = {
    "dense": "[source]\nmean_pairs_per_pulse = 0.5\n[idler]\nselection = 1\n",
    "ramp-ignore-dark": "[source]\nmean_pairs_per_pulse = 0.5\n[idler]\nselection = 1\n"
                        "[modulator]\nretrigger = ignore\ngate_rise_time = 5000\n[signal]\ndark_rate = 1e6\n",
    "thermal-ignore-sparse": "[source]\nmean_pairs_per_pulse = 1.0\nfamily = thermal\n[idler]\nselection = any\n"
                             "[modulator]\nretrigger = ignore\n[signal]\nhbt_efficiency = 0.1\n",
}

#: SHA-256 of the tag file and of the run summary, per config and tag format;
#: the summary does not depend on the format.
DENSE_SUMMARY = "093d83b3371c982ea3857d229298bd51c86b3c699ed2c770175683709fe53c66"
RAMP_SUMMARY = "bb9123a028fb3b99d1911378aac6b3e4a7f9f38720b04e8e5d74a1c6421adf2b"
SPARSE_SUMMARY = "adfba44d8eeee4099eee4d69a418da773f7e1596b115d749984d0cea00119755"
PINNED_DIGESTS = {
    ("dense", ".tags"): ("df2589cdad59ede783391dfa04b8cf699df7027267d079bd850c857d9bb62732", DENSE_SUMMARY),
    ("dense", ".csv"): ("dc96db5f3c75dc4a91291dbc6be14299f6943a83e143571d62d9850bea989c7e", DENSE_SUMMARY),
    ("ramp-ignore-dark", ".tags"): ("172d73d52a2de3a76049f2078473647800dcd2552e09235e25895ca62ae57a83", RAMP_SUMMARY),
    ("ramp-ignore-dark", ".csv"): ("b038b9fdd237e57126a75e6783c15407c66b3e7eae25d55b643d4d9e7439fb38", RAMP_SUMMARY),
    ("thermal-ignore-sparse", ".tags"): ("dbb981818d8fe51b228595097da4432924e5d9fca1b16de7d3396eede78ef41e",
                                        SPARSE_SUMMARY),
    ("thermal-ignore-sparse", ".csv"): ("29106702574dd74ce32d4a2477f03677fe725f07ab34424aa600ca3dfc98e802",
                                       SPARSE_SUMMARY),
}

#: SHA-256 of `analyze --pair herald_trigger,hbt_a` outputs (hist.csv, peaks.csv)
#: for each config's tag file, read in either format with the duration it infers.
PINNED_ANALYSIS = {
    "dense": ("bcf0d7368dd51d2e7cf0dba4c15322e105939174c67701a90b553b53cff1abb3",
              "aa38f75c3c599238ed2163f1311730a9ff366e33757c91672e0e78ca8e9d3af0"),
    "ramp-ignore-dark": ("cef956b5bf5c40d7122043ea4c0b25809675126084537110be337f2c1a466a1b",
                         "a9f1a6d731cb8d05523b3b1f1fd943189c7febdea48bea1c3fc58687feef2279"),
    "thermal-ignore-sparse": ("0407c5f389a8b14dafbac1a299b3c2ba0421c3eabd87e81504a105904fd644f1",
                              "c2f8337f090588636d865eb8577cf1f11347828969316e55b9cebe050a89f6ad"),
}


@pytest.mark.parametrize("name, suffix", list(PINNED_DIGESTS))
def test_simulate_outputs_are_pinned(tmp_path, name, suffix):
    """A seed gives the same files for any thread count and from one version of the code to the next,
    and so does `analyze` of them."""
    config = tmp_path / "run.ini"
    config.write_text(PINNED_CONFIGS[name] + "[run]\npulses = 1100000\nseed = 3\n")
    for threads in (1, 2):
        out = tmp_path / f"t{threads}{suffix}"
        assert invoke("simulate", "--config", config, "--threads", threads, "--out", out) == 0
        got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, Path(f"{out}.summary.txt")))
        assert got == PINNED_DIGESTS[name, suffix], (
            f"simulate --threads {threads} of {name!r} wrote {suffix} and summary digests {got}; if the random "
            "stream or the file format changed on purpose, update PINNED_DIGESTS and announce it in CHANGES.md")
    analysis = tmp_path / "analysis"
    assert invoke("analyze", "--tags", tmp_path / f"t1{suffix}", "--pair", "herald_trigger,hbt_a",
                  "--out", analysis) == 0
    outputs = (Path(f"{analysis}.hist.csv"), Path(f"{analysis}.peaks.csv"))
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs)
    assert got == PINNED_ANALYSIS[name], f"analyze of {name!r} {suffix} wrote hist and peaks digests {got}"


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

    def test_range_narrower_than_the_peak_window_exit_code(self, small_tags, tmp_path, capsys):
        """A 500 ps range holds no +-1 ns peak window, so no peak table can be written."""
        assert invoke("analyze", "--tags", small_tags, "--pair", "herald_trigger,hbt_a",
                      "--range", "500ps", "--halfwidth", "1ns", "--out", tmp_path / "x") == 2
        assert "no peak window fits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_peak_window_checked_before_the_tag_file(self, tmp_path, capsys):
        assert invoke("analyze", "--tags", tmp_path / "missing.tags", "--range", "500ps", "--halfwidth", "1ns",
                      "--out", tmp_path / "x") == 2
        assert "no peak window fits" in capsys.readouterr().err

    def test_pair_of_one_channel_exit_code(self, small_tags, tmp_path, capsys):
        """Every tag would pair with itself at zero delay."""
        assert invoke("analyze", "--tags", small_tags, "--pair", "hbt_a,hbt_a", "--out", tmp_path / "x") == 2
        assert "two different channels, got hbt_a twice" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "args, message",
    [
        (("thresholds", "--rep-rate", "nan"), "rep_rate must be finite and > 0"),
        (("thresholds", "--rep-rate", "inf"), "rep_rate must be finite and > 0"),
        (("thresholds", "--noise-sigma", "nan"), "noise_sigma must be finite"),
        (("thresholds", "--baseline", "inf"), "baseline must be finite"),
        (("thresholds", "--low-min", "nan"), "threshold grids must not hold NaN"),
        (("sweep", "--selection", "1", "--mu-min", "nan"), "grid bounds must satisfy 0 < low < high"),
        (("matrix", "--pixels", "0"), "n_pixels must be >= 1, got 0"),
        (("matrix", "--nmax", "-1"), "n_max must be >= 0, got -1"),
        (("sweep", "--selection", "1", "--points", "0"), "n_points must be >= 1, got 0"),
        (("sweep", "--selection", "1", "--points", "-2"), "n_points must be >= 1, got -2"),
        (("simulate", "--mu", "0.1", "--pulses", "-1", "--seed", "1"), "n_pulses must be >= 0"),
        (("simulate", "--mu", "0.1", "--pulses", "10", "--seed", "-1"), "seed must be an unsigned 64-bit integer"),
        (("simulate", "--mu", "0.1", "--pulses", "10", "--seed", "1", "--threads", "0"), "threads must be >= 1"),
        (("thresholds", "--low-steps", "-1"), "--low-steps must be >= 1, got -1"),
        (("thresholds", "--high-steps", "0"), "--high-steps must be >= 1, got 0"),
    ],
)
def test_non_finite_argument_exit_code(tmp_path, capsys, args, message):
    """The library refuses non-finite numbers and out-of-range integers, so the command exits 2 and writes nothing."""
    command, *rest = args
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
        return {"duration": read_tags(args.tags).duration}
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
