"""Sample bookkeeping for the benchmark: the ledger every flow writes
into, the percentile helper, and the metric tables the final JSON line
is built from.

The metric tables are read from ``BENCHMARK.json`` so the declaration
and the emitted names cannot drift apart.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

#: a reported tail must leave at least this many samples beyond it
TAIL_MARGIN = 10


def declared_metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` table of ``BENCHMARK.json``."""
    with open(DECLARATION, "r", encoding="utf-8") as handle:
        return json.load(handle)[kind]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile that refuses to report a tail with fewer
    than ``TAIL_MARGIN`` samples beyond it (so p90 needs 100 samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < TAIL_MARGIN:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples leaves "
            f"{len(ordered) - rank} beyond it; need {TAIL_MARGIN}")
    return ordered[rank - 1]


@dataclass
class Ledger:
    """Operations, failures, timing samples and sums of one run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    #: sample lists, e.g. ``check_ms`` or ``verdict_ms.interp``
    samples: dict = field(default_factory=dict)
    #: running sums, e.g. ``instr_wall.compiled`` or ``schedules``
    sums: Counter = field(default_factory=Counter)
    #: host-speed probes taken through the units (raw ms)
    probes: list = field(default_factory=list)

    def op(self, problem=None) -> None:
        """Counts one operation; ``problem`` (a string) marks it failed."""
        self.attempted += 1
        if problem:
            self.failures.append(problem)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def mark(self) -> tuple:
        """Where the samples and wall-time sums stand now."""
        return ({name: len(values)
                 for name, values in self.samples.items()},
                {key: value for key, value in self.sums.items()
                 if "wall" in key})

    def rescale(self, mark: tuple, slow: float) -> None:
        """Divides every time recorded since ``mark`` (all samples,
        and the sums whose key names a wall time) by ``slow``."""
        lengths, walls = mark
        for name, values in self.samples.items():
            for i in range(lengths.get(name, 0), len(values)):
                values[i] /= slow
        for key in list(self.sums):
            if "wall" in key:
                before = walls.get(key, 0.0)
                self.sums[key] = before + (self.sums[key] - before) / slow

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(ledger: Ledger, setup_s: float, peak_rss_mb: float
               ) -> dict:
    """Every end-to-end metric value, keyed by its declared name.  The
    recorded times are already scaled to the reference host speed (see
    :mod:`hostspeed`)."""
    sums, samples = ledger.sums, ledger.samples
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "schedules_per_s": ratio(sums["schedules"],
                                       sums["campaign_wall"]),
              "races_found_frac": ratio(sums["races_matched"],
                                        sums["races_injected"])}
    for backend in ("interp", "compiled"):
        values[f"steps_per_s.{backend}"] = ratio(
            sums[f"instr_steps.{backend}"],
            sums[f"instr_wall.{backend}"])
        values[f"wall_ratio.{backend}"] = ratio(
            sums[f"instr_wall.{backend}"], sums[f"base_wall.{backend}"])
        for pct in (50, 90):
            values[f"verdict_ms.{backend}.p{pct}"] = percentile(
                samples[f"verdict_ms.{backend}"], pct)
    for pct in (50, 90):
        values[f"check_ms.p{pct}"] = percentile(samples["check_ms"], pct)
    return values


def host_line(ledger: Ledger) -> str:
    probes = ledger.probes
    return (f"host probe median {statistics.median(probes):.4f} ms, "
            f"range {min(probes):.4f}-{max(probes):.4f} ms over "
            f"{len(probes)} probes; times above are scaled unit by "
            f"unit to the reference {hostspeed.REFERENCE_MS} ms")


def sample_counts(ledger: Ledger) -> dict:
    """How many samples stand behind each end-to-end metric."""
    sums, samples = ledger.sums, ledger.samples
    counts = {"schedules_per_s": sums["schedules"],
              "races_found_frac": sums["races_injected"],
              "check_ms.p50": len(samples.get("check_ms", ())),
              "check_ms.p90": len(samples.get("check_ms", ()))}
    for backend in ("interp", "compiled"):
        runs = sums[f"instr_runs.{backend}"]
        counts[f"steps_per_s.{backend}"] = runs
        counts[f"wall_ratio.{backend}"] = runs
        for pct in (50, 90):
            counts[f"verdict_ms.{backend}.p{pct}"] = len(
                samples.get(f"verdict_ms.{backend}", ()))
    return counts


def render(table: list[dict], values: dict, counts: dict) -> list[str]:
    """Human-readable lines: name, value, unit and sample count."""
    lines = []
    for metric in table:
        name = metric["name"]
        n = counts.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        lines.append(f"{name:<28} {values[name]:>14.6g} "
                     f"{metric['unit']}{suffix}")
    return lines


def result_line(table: list[dict], values: dict, ledger: Ledger) -> str:
    """The final JSON line: exactly the declared metrics, with units."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}
    return json.dumps({"correct": ledger.failed == 0,
                       "attempted": ledger.attempted,
                       "failed": ledger.failed, "metrics": metrics})
