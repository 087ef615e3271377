import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from heraldsim.cli import main, parse_duration


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

    def test_invalid_transmission_exit_code(self):
        result = invoke_subprocess("matrix", "--transmission", 1.5, "--out", "x.csv")
        assert result.returncode == 2
        assert "transmission" in result.stderr or "[0, 1]" in result.stderr

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
        from heraldsim.tagio import read_binary

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

    def test_csv_output_extension(self, tmp_path):
        out = tmp_path / "run.csv"
        invoke("simulate", "--mu", 0.05, "--pulses", 10_000, "--seed", 2, "--out", out)
        assert out.read_text().startswith("channel,timestamp_ps")


def test_tag_io_goes_through_cli_names(tmp_path, monkeypatch):
    """`perfbench --trace 1` wraps these three names of heraldsim.cli, so
    simulate and analyze must call the tag writers and reader through them."""
    import heraldsim.cli as cli

    calls = []

    def recording(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            # the stream by type, paths as given
            calls.append((name, tuple(a if isinstance(a, str) else type(a).__name__ for a in args), kwargs))
            return real(*args, **kwargs)

        return call

    for name in ("write_binary", "write_csv", "read_tags"):
        monkeypatch.setattr(cli, name, recording(name))
    tags, csv = str(tmp_path / "run.tags"), str(tmp_path / "run.csv")
    for out in (tags, csv):
        assert invoke("simulate", "--mu", 0.05, "--pulses", 2_000, "--seed", 2, "--threads", 1, "--out", out) == 0
        assert invoke("analyze", "--tags", out, "--pair", "herald_trigger,hbt_a", "--duration", 25_000_000,
                      "--out", tmp_path / "analysis") == 0
    assert calls == [
        ("write_binary", ("TagStream", tags), {}),
        ("read_tags", (tags,), {"duration": 25_000_000}),
        ("write_csv", ("TagStream", csv), {}),
        ("read_tags", (csv,), {"duration": 25_000_000}),
    ]


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

    @pytest.fixture(scope="class")
    def small_tags(self, tmp_path_factory):
        tags = tmp_path_factory.mktemp("analyze") / "run.tags"
        assert invoke("simulate", "--mu", 0.05, "--pulses", 20_000, "--seed", 5, "--threads", 1,
                      "--out", tags) == 0
        return tags

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
