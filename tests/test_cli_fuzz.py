"""Fuzz the command line over generated ``simulate`` config files and generated flags of every subcommand.

Values lean toward valid ones, so most examples run a command to its end,
and mix in huge integers, C0 controls and Unicode whitespace, duplicate
and unknown keys and sections, bytes that are not UTF-8, large pixel
counts under ``any`` and ``k+`` selections, and means past the table of
pulse outcomes.  Every command runs in process through ``cli.main`` and
must exit 0 or 2 without raising.  No example asks for more than 2 000
pulses or more than 4 threads, and the accepted grids, binnings and pixel
counts stay small, so each example is cheap.

The examples run in one child process that caps its own address space, so
an allocation that runs away fails as a MemoryError instead of exhausting
the host.  A plain pytest run takes them derandomized, so the same examples
each time; ``pytest --hypothesis-profile=fuzz`` takes the many more examples
of the ``fuzz`` profile at random.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import traceback
import warnings
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

# past the range of every size a command takes; noise holds no digits, so
# that it spells no large size either
HUGE = [2**63 - 1, 2**63, 2**64, 10**30, 2**70]
PADS = ["\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "\x85", "\xa0", "\u2003", "\u3000", "\ufeff"]
NOISE = [chr(c) for c in range(1, 0x20) if chr(c) not in "\n\r"] + PADS + list("%=:[];#\\()+-., enps")


class Values(NamedTuple):
    """The texts of one setting: good ones, and bad ones."""

    good: st.SearchStrategy
    bad: st.SearchStrategy


def values(good=(), odd=(), ints=st.nothing(), signs=(1, -1)) -> Values:
    """``good`` texts or ``ints``; the bad ones are mostly ``odd`` texts and
    huge integers of the given signs, else a good one padded with controls
    or Unicode whitespace, or noise."""
    good = st.one_of(st.sampled_from(good) if good else st.nothing(), ints.map(str))
    odd = st.sampled_from(odd) if odd else st.nothing()
    huge = st.sampled_from([str(sign * n) for n in HUGE for sign in signs])
    pad = st.sampled_from(PADS)
    return Values(good, st.one_of(odd, huge, odd, huge, st.builds("{}{}{}".format, pad, good, pad),
                                  st.text(st.sampled_from(NOISE), max_size=10)))


@st.composite
def some_of(draw, settings: dict, odds: int):
    """``(name, text)`` for each setting present, which is ``odds`` times as
    likely as not; at most two of them take bad texts."""
    names = [name for name in settings if draw(st.integers(0, odds)) < odds]
    bad = draw(st.lists(st.sampled_from(names), max_size=2)) if names else []
    return [(name, draw(settings[name].bad if name in bad else settings[name].good)) for name in names]


fraction = values(["0", "0.5", "0.7", "1", "1.0", "0.025", "0.1"], ["-0.1", "1.5", "nan", "inf", "1e-300"])
crosstalk = values(["0", "0.025", "0.1", "0.5"], ["1", "-0.1", "nan", "inf"])
mean = values(["0", "0.0075", "0.02", "0.5", "1", "3"], ["-1", "nan", "inf", "16", "1e12", "1e17", "1e300"])
pixels = values(odd=["0", "-1", str(2**24), str(10**8), str(2**63)], ints=st.integers(1, 16))
selection = values(["1", "2", "1,2", "2+", "3+", "0+", "any", "ANY", " any "],
                   ["17", "+", "", "1,,2", "-1", "-100000000+", "100000000+", f"{2**63}+", "1e3"])
family = values(["poissonian", "thermal"], ["Thermal", "gaussian", ""])
pulses = values(odd=["-1", "2e3"], ints=st.integers(0, 2_000), signs=(-1,))
seed = values(odd=["-1", str(2**64)], ints=st.integers(0, 2**64 - 1))
threads = values(odd=["0", "-1"], ints=st.integers(1, 4), signs=(-1,))
# the good times keep a run of 2 000 pulses, its dark counts and its histograms small
period = values(["12.5ns", "12500", "25ns", "250"], ["0", "-1", "7", "infns", "nan", "1e30", "12.5us", "0.3ps"])
delay = values(["0", "23ns", "5ns", "80ns", "12.5ns", "100ns", "7300", "1000000"], ["-1", "1e30", "0.3ps", "nan"])
dark_rate = values(["0", "100", "1e6", "1e9"], ["1e14", "1e300", "-1", "nan", "inf"])

#: Each config key's texts, by (section, key).
CONFIG_VALUES = {
    ("source", "mean_pairs_per_pulse"): mean, ("source", "family"): family, ("source", "rep_period"): period,
    ("idler", "transmission"): fraction, ("idler", "pixels"): pixels, ("idler", "crosstalk"): crosstalk,
    ("idler", "selection"): selection, ("modulator", "latency"): delay, ("modulator", "gate_length"): delay,
    ("modulator", "extinction_db"): values(["10.2", "0", "3", "30", "inf"], ["-1", "nan"]),
    ("signal", "transmission"): fraction, ("signal", "hbt_splitting"): fraction,
    ("signal", "hbt_efficiency"): fraction, ("signal", "dark_rate"): dark_rate, ("signal", "signal_delay"): delay,
    ("modulator", "retrigger"): values(["extend", "ignore"], ["Extend", "both", ""]),
    ("modulator", "gate_rise_time"): delay, ("run", "pulses"): pulses, ("run", "seed"): seed,
}
STRAY_LINES = ["[extra]", "[DEFAULT]", "[Source]", "[run", "= 1", "pixels", "foo = 1", "Pixels = 2",
               "  indented = 2", "# comment", "; comment", "[idler]", "[run]", "pulses = 10"]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def config_files(draw):
    """The bytes of a config file: most keys in their sections, sometimes
    stray, duplicate and unknown lines, and sometimes bytes that are not UTF-8."""
    sections = {}
    for (section, key), text in draw(some_of(CONFIG_VALUES, 7)):
        sections.setdefault(section, []).append(f"{key} = {text}")
    lines = [line for section, rows in sections.items() for line in [f"[{section}]", *rows]]
    for _ in range(draw(st.integers(0, 5)) // 3):
        stray = draw(st.one_of(st.sampled_from(STRAY_LINES), st.sampled_from(lines or STRAY_LINES)))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def flags(**settings):
    """A command's flags, each given or left out, sometimes one twice, and sometimes an unknown flag."""
    def argv(chosen, twice, unknown):
        args = [arg for flag, text in chosen for arg in (f"--{flag.replace('_', '-')}", text)]
        return args + args[:2] * twice + ["--no-such-flag"] * unknown

    return st.builds(argv, some_of(settings, 3), st.booleans(), st.integers(0, 19).map(lambda n: n == 19))


detector = {"transmission": fraction, "pixels": pixels, "crosstalk": crosstalk,
            "nmax": values(["10", "30"], ["-1", str(2**24), str(10**8)], st.integers(0, 40))}
grid_steps = values(["85"], ["0", "-1", "20000", "1000000000"], st.integers(1, 40))
threshold = values(["0", "0.04", "0.15", "0.35", "0.46", "1"], ["-1", "nan", "inf", "1e308"])
COMMANDS = {
    "matrix": flags(**detector),
    "sweep": flags(**detector, selection=selection, family=family, mu_min=values(["1e-4", "1e-3", "0.01"], ["0", "-1", "nan", "1", "1e300"]),
                   mu_max=values(["0.5", "1", "3"], ["0", "1e-5", "inf", "1e17", "1e300"]),
                   points=values(["30", "8"], ["0", "-2", "1000000000"], st.integers(1, 40))),
    "simulate": flags(mu=mean, pulses=pulses, seed=seed, selection=selection, threads=threads),
    "analyze": flags(
        pair=values(["herald_trigger,hbt_a", "hbt_a,hbt_b", "hbt_b,herald_trigger", "HBT_A , hbt_b"],
                    ["hbt_a,hbt_a", "x,y", "", "hbt_a", "hbt_a,hbt_b,hbt_a"]),
        bin=values(["250ps", "250", "500", "1ns", "12.5ns", "10"], ["0", "-5", "3", "0.5ps", "infns", "1e30"]),
        range=values(["100ns", "100000", "25ns", "50ns"], ["0", "-1", "1e30", str(2**62), str(2**62 - 1)]),
        rep_period=period,
        halfwidth=values(["1ns", "1000", "125", "6250", "6.25ns"], ["0", "7ns", "-1", "1e30"]),
        duration=values(["5000000", "25000000"], ["0", "1", "-1", "1e30", str(2**63 - 1)])),
    "thresholds": flags(
        **detector, mu=mean, family=family,
        unit_amplitude=values(["0.1", "1"], ["0", "-0.1", "1e308", "nan"]),
        noise_sigma=values(["0.005", "0", "1"], ["-1", "1e308", "inf"]),
        baseline=values(["0", "0.5", "-1"], ["1e308", "inf"]),
        rep_rate=values(["80e6", "1"], ["0", "-1", "1e308", "inf"]),
        low_min=threshold, low_max=threshold, low_steps=grid_steps,
        high_min=threshold, high_max=threshold, high_steps=grid_steps),
}

#: Commands, each with a config file or none, in which the fuzz pushes one
#: size, ``{}``, far up: each of them must be refused before it allocates.
SIZED = [
    (None, ["sweep", "--selection", "1", "--points", "{}"]),
    (None, ["sweep", "--selection", "any", "--nmax", "0", "--pixels", "{}"]),
    (None, ["sweep", "--selection=-{}+"]),
    (None, ["thresholds", "--low-steps", "{}"]),
    (None, ["thresholds", "--low-min", "0", "--low-max", "1", "--high-min", "0", "--high-max", "1",
            "--low-steps", "{}", "--high-steps", "{}"]),
    ("[signal]\ndark_rate = {}\n", ["simulate", "--mu", "0.5"]),
    ("[idler]\npixels = {}\nselection = 2+\n", ["simulate", "--mu", "0.5"]),
    ("[source]\nmean_pairs_per_pulse = {}\nfamily = thermal\n", ["simulate"]),
]
LARGE = [10**9, 2**31, 2**63 - 1, 2**63, 10**30]


def test_cli_exits_cleanly_on_generated_configs_and_flags():
    child = subprocess.run([sys.executable, __file__, settings.get_current_profile_name()],
                           capture_output=True, text=True, timeout=3_600)
    assert child.returncode == 0, child.stdout[-6_000:] + child.stderr[-6_000:]


def _fuzz(profile: str, stack: contextlib.ExitStack) -> None:
    from heraldsim import ExperimentConfig, HeraldSelection, cli, run, tagio

    import conftest  # noqa: F401  (registers the fuzz profile)

    # a plain run takes a fixed set of examples, the fuzz profile its own number at random
    fixed = {} if profile == "fuzz" else {"derandomize": True, "max_examples": 150}
    chosen = settings(settings.get_profile(profile), database=None, deadline=None,
                      suppress_health_check=list(HealthCheck), **fixed)
    work = stack.enter_context(tempfile.TemporaryDirectory(prefix="cli-fuzz-"))
    config, out = os.path.join(work, "run.ini"), os.path.join(work, "out")
    stream, _ = run(ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=400, seed=5,
                                     herald_selection=HeraldSelection.exactly(1)))
    tag_files = [os.path.join(work, "small.tags"), os.path.join(work, "small.csv")]
    tagio.write_binary(stream, tag_files[0])
    tagio.write_csv(stream, tag_files[1])

    def exit_code(argv) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the flags
                code = exc.code
        assert code in (0, 2), err.getvalue()

    # the dark counts of 2 000 pulses at 1e14 per second, a percent sign, a
    # negative `k+`, a pixel count past a listed selection
    @chosen
    @example(data=b"[signal]\ndark_rate = 1e14\n[run]\npulses = 2000\nseed = 1\n",
             argv=["--mu", "0.02", "--threads", "1"])
    @example(data=b"[source]\nmean_pairs_per_pulse = 5%\n[run]\npulses = 10\nseed = 1\n", argv=[])
    @example(data=b"[idler]\nselection = -100000000+\n[run]\npulses = 10\nseed = 1\n", argv=["--mu", "0.5"])
    @example(data=b"[idler]\npixels = 100000000\nselection = any\n", argv=["--mu", "0.5", "--pulses", "10",
                                                                            "--seed", "1"])
    @given(data=config_files(), argv=COMMANDS["simulate"])
    def config_file(data, argv):
        with open(config, "wb") as fh:
            fh.write(data)
        if "--threads" not in argv:
            argv = argv + ["--threads", "1"]  # the default is the CPU count
        exit_code(["simulate", "--config", config, *argv, "--out", out + ".tags"])

    # the grids of 1e9 means, 1e9 thresholds and 20000 x 20000 threshold
    # pairs, and `k+` selections that list more click counts than they may
    @chosen
    @example(case=("sweep", ["--selection", "1", "--points", "1000000000"]), tags=0)
    @example(case=("thresholds", ["--low-steps", "1000000000"]), tags=0)
    @example(case=("thresholds", ["--low-min", "0", "--low-max", "1", "--high-min", "0", "--high-max", "1",
                                  "--low-steps", "20000", "--high-steps", "20000"]), tags=0)
    @example(case=("sweep", ["--selection", "any", "--pixels", str(2**20 + 4), "--nmax", "0"]), tags=0)
    @example(case=("sweep", ["--selection=-100000000+"]), tags=0)
    @given(case=st.sampled_from(sorted(COMMANDS)).flatmap(lambda name: st.tuples(st.just(name), COMMANDS[name])),
           tags=st.integers(0, 2))
    def command_flags(case, tags):
        command, argv = case
        required = {"sweep": ["--selection", "1"], "analyze": ["--tags", (tag_files + [config])[tags]],
                    "simulate": ["--threads", "1"]}.get(command, [])
        exit_code([command, *required, *argv, "--out", out + ".csv"])

    @chosen
    @given(case=st.sampled_from(SIZED), size=st.sampled_from(LARGE))
    def sizes(case, size):
        text, argv = case
        if text is not None:
            with open(config, "w") as fh:
                fh.write(text.format(size) + "[run]\npulses = 2000\nseed = 1\n")
            argv = argv + ["--config", config, "--threads", "1"]
        exit_code([arg.format(size) for arg in argv] + ["--out", out + ".csv"])

    config_file()
    command_flags()
    sizes()


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    # numpy's overflow and invalid-value warnings count as failures, as in the test suite
    warnings.filterwarnings("error", category=RuntimeWarning)
    try:
        with contextlib.ExitStack() as stack:
            _fuzz(sys.argv[1], stack)
    except BaseException:  # noqa: BLE001 - report the falsifying example and its traceback
        traceback.print_exc()
        sys.exit(1)
