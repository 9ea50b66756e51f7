"""Traced runs are identical across backends, event for event.

The other identity suites compare steps, schedules and reports; this one
also compares what only a traced run produces: every bus event (category,
name, thread, timestamp, duration and payload) and the provenance
``hist(...)`` lines of conflict reports.  Those are emitted from inside
the dynamic check, on every one of its branches — the single-threaded
fast path, the three guarded discharges (checkelim elision, locked(l)
refinement, interval cover), the range-batched and full checks, and the
conflict path — so any drift between what the two backends run at a
check site shows up here.  Every ablation switch is covered on and off.
"""

import functools

import pytest

from tests.conftest import check_ok
from tests.runtime.test_absint_identity import RACY as AI_PROGRAM
from tests.runtime.test_checkelim_identity import RACY as ELIM_PROGRAM
from tests.runtime.test_compiled_backend import RACY as GATE_PROGRAM
from tests.runtime.test_lockset_identity import MIXED as LOCKSET_PROGRAM
from repro.obs import TraceConfig
from repro.obs.sitestats import SITE_FIELDS
from repro.runtime.interp import run_checked

PROGRAMS = {
    "checkelim": ELIM_PROGRAM,
    "lockset": LOCKSET_PROGRAM,
    "absint": AI_PROGRAM,
    "gate": GATE_PROGRAM,
}

#: every ablation switch on, then each one off
FLAGS = {
    "all-on": {},
    "no-checkelim": {"checkelim": False},
    "no-lockset": {"lockset": False},
    "no-absint": {"absint": False},
}

RUNS = [(seed, policy) for seed in range(4)
        for policy in ("random", "pct", "pb")]


@functools.lru_cache(maxsize=None)
def _checked(program: str):
    return check_ok(PROGRAMS[program])


def _traced(program: str, flags: str, seed: int, policy: str,
            backend: str):
    return run_checked(_checked(program), seed=seed, policy=policy,
                       backend=backend, trace=TraceConfig(),
                       **FLAGS[flags])


def _events(result) -> list:
    return [(e.cat, e.name, e.tid, e.ts, e.dur, e.args)
            for e in result.events]


@pytest.mark.parametrize("flags", FLAGS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_traced_runs_are_identical_across_backends(program, flags):
    for seed, policy in RUNS:
        interp = _traced(program, flags, seed, policy, "interp")
        compiled = _traced(program, flags, seed, policy, "compiled")
        assert interp.events, "traced run recorded no events"
        assert _events(interp) == _events(compiled), (seed, policy)
        assert [r.render() for r in interp.reports] == \
            [r.render() for r in compiled.reports], (seed, policy)
        assert interp.stats.sites == compiled.stats.sites


def test_the_programs_reach_every_check_branch():
    """The comparison above is only as strong as the branches it
    reaches: together the programs take every path through the check,
    and their conflict reports carry provenance lines."""
    totals = dict.fromkeys(SITE_FIELDS, 0)
    hist_lines = 0
    for program in PROGRAMS:
        for seed, policy in RUNS:
            result = _traced(program, "all-on", seed, policy, "interp")
            for counters in result.stats.sites.values():
                for field, count in zip(SITE_FIELDS, counters):
                    totals[field] += count
            hist_lines += sum("hist(" in r.render()
                              for r in result.reports)
    for field in ("solo", "full", "range", "elided", "locked", "ai",
                  "conflicts"):
        assert totals[field] > 0, field
    assert hist_lines > 0
