"""Spans around the calls into each heraldsim module, recorded from outside.

The program has no spans of its own yet, so the benchmark wraps the public
functions that ``heraldsim.cli`` calls (the names it imports) and the two
functions a pass calls directly.  Each span keeps its name, start, end,
parent span and pass, plus the work counts read off the call's arguments or
result.  Spans stay in memory and are written out when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

# heraldsim.cli attribute -> layer span name
CLI_CALLS = {
    "run": "event_sim.run",
    "write_binary": "tagio.write",
    "write_csv": "tagio.write",
    "read_tags": "tagio.read",
    "correlate": "coincidence.correlate",
    "integrate_peaks": "coincidence.peaks",
    "g2_tau": "coincidence.peaks",
    "write_histogram_csv": "coincidence.peaks",
    "write_peaks_csv": "coincidence.peaks",
}


def _run_counts(args, kwargs, result):
    _, summary = result
    return {"pulses": summary.n_pulses, "heralds_accepted": summary.heralds_accepted,
            "heralds_emitted": summary.heralds_emitted}


def _write_counts(args, kwargs, result):
    stream, path = args
    return {"bytes": os.path.getsize(path), "records": sum(stream.counts().values())}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "run": _run_counts,
    "write_binary": _write_counts,
    "write_csv": _write_counts,
    "read_tags": _read_counts,
    "correlate": lambda args, kwargs, hist: {"pairs": int(hist.counts.sum())},
    "heralded_g2": lambda args, kwargs, result: {"triggers": int(args[0].channels[0].size)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "pass": self.pass_id, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, layer: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"].update(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, cli):
        """Route heraldsim.cli's calls through spans for the duration of the block."""
        saved = {name: getattr(cli, name) for name in CLI_CALLS}
        try:
            for name, layer in CLI_CALLS.items():
                setattr(cli, name, self.wrap(layer, saved[name], COUNTERS.get(name)))
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer figures of every traced pass, as medians over passes."""
        by_pass: dict = {}
        for index, span in enumerate(self.spans):
            by_pass.setdefault(span["pass"], []).append(index)
        rows = [self._pass_metrics(indices) for indices in by_pass.values()]
        return {name: statistics.median(row[name] for row in rows) for name in rows[0]}

    def _pass_metrics(self, indices: list) -> dict:
        spans = self.spans
        duration = {i: spans[i]["end"] - spans[i]["start"] for i in indices}
        children: dict = {}
        for i in indices:
            children.setdefault(spans[i]["parent"], []).append(i)

        def self_time(i):
            return duration[i] - sum(duration[c] for c in children.get(i, ()))

        def named(name):
            return [i for i in indices if spans[i]["name"] == name]

        def total(name):
            return sum(duration[i] for i in named(name))

        def count(name, key):
            return sum(spans[i]["counts"][key] for i in named(name))

        sim = named("event_sim.run")[0]
        run_s = duration[sim]
        accepted = spans[sim]["counts"]["heralds_accepted"]
        emitted = spans[sim]["counts"]["heralds_emitted"]
        write_s, read_s = total("tagio.write"), total("tagio.read")
        file_mb = count("tagio.write", "bytes") / 1e6
        correlate_s = total("coincidence.correlate")
        pairs = count("coincidence.correlate", "pairs")
        return {
            "cli.simulate_self_s": self_time(named("cli.simulate")[0]),
            "cli.analyze_self_s": self_time(named("cli.analyze")[0]),
            "event_sim.run_s": run_s,
            "event_sim.pulses_per_s": spans[sim]["counts"]["pulses"] / run_s,
            "event_sim.heralds_accepted": accepted,
            "event_sim.heralds_emitted": emitted,
            "event_sim.herald_keep_ratio": emitted / accepted,
            "tagio.write_s": write_s,
            "tagio.read_s": read_s,
            "tagio.write_mb_per_s": file_mb / write_s,
            "tagio.read_mb_per_s": count("tagio.read", "bytes") / 1e6 / read_s,
            "tagio.file_mb": file_mb,
            "tagio.records": count("tagio.write", "records"),
            "coincidence.correlate_s": correlate_s,
            "coincidence.correlate_pairs": pairs,
            "coincidence.correlate_pairs_per_s": pairs / correlate_s,
            "coincidence.peaks_s": total("coincidence.peaks"),
            "coincidence.heralded_g2_s": total("coincidence.heralded_g2"),
            "coincidence.heralded_triggers": count("coincidence.heralded_g2", "triggers"),
        }
