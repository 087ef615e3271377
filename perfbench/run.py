"""Benchmark of the user's path: simulate -> tag file -> analyze -> heralded g2.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 50 --trace 0

One process runs one workload (see ``workloads.py``).  A pass, the timed
unit, calls through ``heraldsim.cli.main`` inside this process:

1. ``simulate --config <workload .ini> --threads 1 --out <tag file>``
2. ``analyze --tags <file> --pair herald_trigger,hbt_a --duration <run> --out ...``
3. ``heraldsim.tagio.read_tags`` followed by ``heraldsim.heralded_g2``

One untimed warm-up pass comes first; timed passes repeat until
``--seconds`` have passed, and each of them must reproduce the warm-up's
outputs.  With ``--trace 0`` the run reports the end-to-end metrics, and
after every second pass it launches ``python -m heraldsim --version`` to
time interpreter set-up.  With ``--trace 1`` every second timed pass records
spans around the calls into each module (``spans.py``) and the run reports
the per-layer metrics.  The warm-up pass's outputs are then checked against
the benchmark's own reference (``reference.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation and check passed.  Without ``src/heraldsim`` in the
checkout the run stops at once with exit code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference
from spans import COUNTERS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

MIN_TIMED_PASSES = 6
SETUP_EVERY = 2  # timed passes between two set-up launches


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def read_summary(path: str) -> configparser.ConfigParser:
    """The ``[section]`` / ``key = value`` run summary that ``simulate`` writes."""
    summary = configparser.ConfigParser(interpolation=None)
    summary.read(path, encoding="utf-8")
    return summary


def import_heraldsim():
    """Import the checkout's own heraldsim from ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "heraldsim", "__init__.py")):
        raise SystemExit(f"perfbench: no heraldsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import heraldsim
    import heraldsim.cli
    import heraldsim.tagio

    if not os.path.abspath(heraldsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported heraldsim from {heraldsim.__file__}, not {SRC}")
    return heraldsim


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Bench:
    def __init__(self, hs, workload, seed: int, workdir: str, ledger: Ledger):
        self.hs = hs
        self.workload = workload
        self.workdir = workdir
        self.ledger = ledger
        self.ini = os.path.join(workdir, "workload.ini")
        with open(self.ini, "w", encoding="utf-8") as fh:
            fh.write(workload.ini_text(seed))
        self.config = hs.ExperimentConfig(**hs.cli.load_config_file(self.ini))
        self.duration = str(workload.duration_ps)
        self.read_tags = hs.tagio.read_tags
        self.heralded_g2 = hs.heralded_g2

    def paths(self, name: str) -> dict:
        prefix = os.path.join(self.workdir, name)
        tags = prefix + self.workload.tag_suffix
        return {"prefix": prefix, "tags": tags, "summary": tags + ".summary.txt", "peaks": prefix + ".peaks.csv"}

    def run_pass(self, name: str, tracer: Tracer | None = None) -> dict:
        """One pass; returns its step timings and the heralded g2 list."""
        p = self.paths(name)
        span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
        read_tags, heralded_g2 = self.read_tags, self.heralded_g2
        if tracer:
            read_tags = tracer.wrap("tagio.read", read_tags, COUNTERS["read_tags"])
            heralded_g2 = tracer.wrap("coincidence.heralded_g2", heralded_g2, COUNTERS["heralded_g2"])
        cli = self.hs.cli
        with contextlib.redirect_stdout(io.StringIO()), (tracer.patched(cli) if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            with span("cli.simulate"):
                rc_sim = cli.main(["simulate", "--config", self.ini, "--threads", "1", "--out", p["tags"]])
            t1 = time.perf_counter()
            with span("cli.analyze"):
                rc_ana = cli.main(["analyze", "--tags", p["tags"], "--pair", "herald_trigger,hbt_a",
                                   "--duration", self.duration, "--out", p["prefix"]])
            with span("pass.heralded_g2"):
                g2 = heralded_g2(read_tags(p["tags"], duration=int(self.duration)), self.config)
            t2 = time.perf_counter()
        self.ledger.record(rc_sim == 0, f"{name}: simulate exited {rc_sim}")
        self.ledger.record(rc_ana == 0, f"{name}: analyze exited {rc_ana}")
        self.ledger.record(bool(g2), f"{name}: heralded_g2 returned no offsets")
        return {"simulate_s": t1 - t0, "analyze_s": t2 - t1, "total_s": t2 - t0, "g2": g2}

    def same_outputs(self, name: str, warm: dict, timed: dict) -> None:
        """A timed pass must reproduce the warm-up pass's summary, peaks and g2."""
        same = timed["g2"] == warm["g2"]
        for key in ("summary", "peaks"):
            with open(self.paths("warm")[key], "rb") as a, open(self.paths(name)[key], "rb") as b:
                same = same and a.read() == b.read()
        self.ledger.record(same, f"{name}: outputs differ from the warm-up pass")

    def check_warm_outputs(self, warm: dict) -> None:
        """Checks (a)-(e) on the warm-up pass's files, against reference.py."""
        p = self.paths("warm")
        model = reference.Model.from_workload(self.workload)
        summary = read_summary(p["summary"])
        codes, times = reference.read_tag_file(p["tags"])
        read_back = self.read_tags(p["tags"], duration=int(self.duration)).channels
        checks = (
            reference.check_summary(model, self.workload.pulses, summary)
            + reference.check_heralded_g2(model, codes, times, dict(warm["g2"]))
            + reference.check_tag_file(codes, times, read_back, summary)
            + reference.check_peaks(model, codes, times, self.workload.duration_ps, reference.read_peaks(p["peaks"]))
        )
        for check in checks:
            print(f"perfbench: check {check.name} {'ok' if check.ok else 'FAILED'}: {check.detail}", file=sys.stderr)
            self.ledger.record(check.ok, f"check {check.name}: {check.detail}")

    def records(self) -> int:
        counts = read_summary(self.paths("warm")["summary"])["counts"]
        return sum(int(v) for v in counts.values())


def time_setup(hs, ledger: Ledger) -> float:
    """Wall time of a fresh ``python -m heraldsim --version``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heraldsim", "--version"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    ledger.record(proc.returncode == 0 and proc.stdout.strip() == f"heraldsim {hs.__version__}",
                  f"setup launch exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return elapsed


def measure(hs, args, workdir: str, ledger: Ledger) -> dict:
    workload = WORKLOADS[args.workload]
    bench = Bench(hs, workload, args.seed, workdir, ledger)
    tracer = Tracer() if args.trace else None
    warm = bench.run_pass("warm")
    if ledger.failures:
        return {}

    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.pass_id = index
        timing = bench.run_pass("pass", tracer if trace_this else None)
        (traced if trace_this else untraced).append(timing)
        bench.same_outputs("pass", warm, timing)
        index += 1
        if tracer is None and index % SETUP_EVERY == 0:
            setup.append(time_setup(hs, ledger))
        if ledger.failures:
            return {}
        if time.perf_counter() - start >= args.seconds and index >= MIN_TIMED_PASSES:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.check_warm_outputs(warm)

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    if tracer is None:
        records = bench.records()
        return {
            "setup_s": statistics.median(setup),
            "time_to_g2_s": median(untraced, "total_s"),
            "simulate_pulses_per_s": statistics.median(workload.pulses / t["simulate_s"] for t in untraced),
            "analyze_tags_per_s": statistics.median(records / t["analyze_s"] for t in untraced),
            "peak_rss_mb": rss_mb,
        }
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = median(traced, "total_s") - median(untraced, "total_s")
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed, "passes": index})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    hs = import_heraldsim()
    units = declared_units(args.trace)
    ledger = Ledger()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        metrics = measure(hs, args, workdir, ledger)
    except Exception:  # noqa: BLE001 - a crash is reported as a failed operation
        traceback.print_exc()
        ledger.record(False, "benchmark raised")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics:
        ledger.record(set(metrics) == set(units), f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    for failure in ledger.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    correct = not ledger.failures
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
