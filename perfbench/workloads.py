"""Workload definitions: one simulate config per operating point.

Each workload spells out every config value it relies on, so the same
numbers feed both the ``.ini`` file handed to ``heraldsim simulate`` and the
benchmark's independent reference model (``reference.py``).  Values not
named by a workload are the README defaults listed in ``DEFAULTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: README defaults: 12.5 ns period, 23 ns latency, 80 ns gate, 10.2 dB
#: extinction, 100 Hz dark rate, T = 0.7, 4 pixels, crosstalk 0.025.
DEFAULTS = {
    ("source", "rep_period"): "12500",
    ("idler", "transmission"): "0.7",
    ("idler", "pixels"): "4",
    ("idler", "crosstalk"): "0.025",
    ("modulator", "latency"): "23000",
    ("modulator", "gate_length"): "80000",
    ("modulator", "extinction_db"): "10.2",
    ("signal", "transmission"): "1.0",
    ("signal", "hbt_splitting"): "0.5",
    ("signal", "hbt_efficiency"): "1.0",
    ("signal", "dark_rate"): "100",
}


@dataclass(frozen=True)
class Workload:
    name: str
    pulses: int
    tag_suffix: str  # ".tags" for the binary format, ".csv" for CSV
    values: dict = field(default_factory=dict)

    def setting(self, section: str, key: str) -> str:
        return self.values.get((section, key), DEFAULTS.get((section, key)))

    def ini_text(self, seed: int) -> str:
        merged = {**DEFAULTS, **self.values, ("run", "pulses"): str(self.pulses), ("run", "seed"): str(seed)}
        lines = []
        for section in ("source", "idler", "modulator", "signal", "run"):
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for (sec, key), value in merged.items() if sec == section]
            lines.append("")
        return "\n".join(lines)

    @property
    def duration_ps(self) -> int:
        return self.pulses * int(self.setting("source", "rep_period"))


# Pulse counts keep one pass near one second on a 2-core host, so a run of
# tens of seconds holds enough passes for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper",
            pulses=20_000_000,
            tag_suffix=".tags",
            values={
                ("source", "mean_pairs_per_pulse"): "0.0075",
                ("source", "family"): "poissonian",
                ("idler", "selection"): "1+",
                ("modulator", "retrigger"): "extend",
            },
        ),
        Workload(
            "dense",
            pulses=2_000_000,
            tag_suffix=".tags",
            values={
                ("source", "mean_pairs_per_pulse"): "0.5",
                ("source", "family"): "poissonian",
                ("idler", "selection"): "1",
                ("modulator", "retrigger"): "extend",
            },
        ),
        Workload(
            "ignore-csv",
            pulses=500_000,
            tag_suffix=".csv",
            values={
                ("source", "mean_pairs_per_pulse"): "1.0",
                ("source", "family"): "thermal",
                ("idler", "selection"): "any",
                ("modulator", "retrigger"): "ignore",
                ("signal", "hbt_efficiency"): "0.1",
            },
        ),
    )
}
