"""Schedules are pinned: seed + policy -> the same run, forever.

``schedule_golden.json`` records, for a few fixed-shape generated
programs, every (program, policy, seed, backend) run's context-switch
trace hash, step count, ``context_switches`` and report keys.  The
backend-vs-backend identity suites only prove the two executors agree;
a change to the scheduler that shifts every schedule alike passes them.
This suite holds both executors to the recorded runs instead.

Regenerate (only when a schedule change is intended, and say so)::

    PYTHONPATH=src python tests/runtime/test_schedule_golden.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import pytest

from repro.fuzz.gen import generate_scenario
from repro.fuzz.scenarios import ScenarioSpec
from repro.runtime.interp import BACKENDS, run_checked
from repro.sharc.checker import check_source

GOLDEN = os.path.join(os.path.dirname(__file__), "schedule_golden.json")
SCHEMA = "sharc-schedule-golden/1"
#: ``pct:3:200`` puts PCT's change points inside these short runs, so
#: its demotions fire; plain ``pct`` samples them over 4000 items
POLICIES = ("random", "pct", "pct:3:200", "pb", "round-robin", "serial")
SEEDS = range(10)
#: one program per topology, racy and race-free, small enough that the
#: whole grid runs in seconds; the shape is fixed so the golden does not
#: depend on a generator draw
SPECS = {
    "fork-join-barrier": ScenarioSpec(
        "fork-join", "barrier-phased", n_workers=3, n_items=3,
        array_len=8, rounds=2, race_kinds=("write-write",), gen_seed=11),
    "pipeline-lock": ScenarioSpec(
        "pipeline", "lock-protected", n_workers=2, n_items=3,
        array_len=8, gen_seed=12),
    "pool-transfer": ScenarioSpec(
        "worker-pool", "ownership-transfer", n_workers=3, n_items=3,
        array_len=8, race_kinds=("lock-elision",), gen_seed=13),
    "scatter-lock": ScenarioSpec(
        "scatter-gather", "lock-protected", n_workers=2, n_items=2,
        array_len=8, gen_seed=14),
}


def trace_hash(trace) -> str:
    text = json.dumps([list(entry) for entry in trace])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(checked, policy: str, seed: int, backend: str) -> dict:
    result = run_checked(checked, seed=seed, policy=policy,
                         backend=backend, record_trace=True)
    assert not result.timeout and result.error is None \
        and result.deadlock is None, (policy, seed, backend)
    return {"trace": trace_hash(result.trace),
            "steps": result.stats.steps_total,
            "context_switches": result.stats.context_switches,
            "reports": sorted(result.report_counts)}


def key(label: str, policy: str, seed: int, backend: str) -> str:
    return f"{label} {policy} {seed} {backend}"


def generate() -> dict:
    """Every run of the grid, keyed by :func:`key`."""
    runs = {}
    for label, spec in SPECS.items():
        checked = check_source(generate_scenario(spec).source,
                               f"{label}.c")
        assert checked.ok, checked.render_diagnostics()
        for policy in POLICIES:
            for seed in SEEDS:
                for backend in BACKENDS:
                    runs[key(label, policy, seed, backend)] = record(
                        checked, policy, seed, backend)
    return runs


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["schema"] == SCHEMA
    return payload["runs"]


@pytest.mark.parametrize("label", sorted(SPECS))
@pytest.mark.parametrize("policy", POLICIES)
def test_runs_match_golden(golden, label, policy):
    checked = check_source(generate_scenario(SPECS[label]).source,
                           f"{label}.c")
    mismatched = []
    for seed in SEEDS:
        for backend in BACKENDS:
            name = key(label, policy, seed, backend)
            if record(checked, policy, seed, backend) != golden[name]:
                mismatched.append(name)
    assert not mismatched, mismatched


def test_golden_covers_the_grid(golden):
    assert len(golden) == (len(SPECS) * len(POLICIES) * len(SEEDS)
                           * len(BACKENDS))
    # The grid exercises real interleaving: schedules differ by seed.
    traces = {run["trace"] for name, run in golden.items()
              if " random " in name}
    assert len(traces) > len(SPECS)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {os.path.basename(GOLDEN)}")
    args = parser.parse_args()
    runs = generate()
    # one run per line, so a diff of the golden names the runs it moved
    payload = (f'{{"schema": "{SCHEMA}", "runs": {{\n' + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(runs[name], sort_keys=True)}"
        for name in sorted(runs)) + "\n}}\n")
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        print(payload, end="")
