"""Traced runs are identical across backends, event for event.

The other identity suites compare steps, schedules and reports; this one
also compares what only a traced run produces: every bus event (category,
name, thread, timestamp, duration and payload) and the provenance
``hist(...)`` lines of conflict reports.  Those are emitted from inside
the dynamic check, on every one of its branches — the single-threaded
fast path, the guarded discharges (checkelim elision, locked(l)
refinement), the range-batched and full checks, and the conflict path —
so any drift between what the two backends run at a
check site shows up here.  Every ablation switch is covered on and off.
"""

import functools

import pytest

from tests.conftest import check_ok
from tests.runtime.test_checkelim_identity import RACY as ELIM_PROGRAM
from tests.runtime.test_compiled_backend import RACY as GATE_PROGRAM
from tests.runtime.test_lockset_identity import MIXED as LOCKSET_PROGRAM
from repro.obs import TraceConfig
from repro.obs.sitestats import SITE_FIELDS
from repro.runtime.interp import run_checked

# Re-checks of `shared` across a call and of adjacent `buf` granules:
# covers checkelim does not see, so these run as full checks.
CALLS_PROGRAM = """
int shared = 0;
int buf[32];
int pump() { int y; y = 2; return y; }
void *w(void *a) {
  int i; int x;
  for (i = 0; i < 16; i++) {
    x = shared;
    pump();
    shared = x + shared;
    buf[0] = buf[0] + 1;
    buf[1] = buf[1] + buf[0];
  }
  return NULL;
}
int main() {
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""

PROGRAMS = {
    "checkelim": ELIM_PROGRAM,
    "lockset": LOCKSET_PROGRAM,
    "calls": CALLS_PROGRAM,
    "gate": GATE_PROGRAM,
}

#: every ablation switch on, then each one off, then both off
FLAGS = {
    "all-on": {},
    "no-checkelim": {"checkelim": False},
    "no-lockset": {"lockset": False},
    "all-off": {"checkelim": False, "lockset": False},
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
    for field in ("solo", "full", "range", "elided", "locked",
                  "conflicts"):
        assert totals[field] > 0, field
    assert hist_lines > 0


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_discharge_events_name_the_pass(backend):
    """Both discharges share one code path; the pass that earned the
    mark survives as the event label, one label per discharged check."""
    for program in ("checkelim", "lockset"):
        for seed, policy in RUNS:
            result = _traced(program, "all-on", seed, policy, backend)
            checks = [e.args for e in result.events if e.cat == "check"
                      and e.name in ("chkread", "chkwrite")]
            elided = [a for a in checks if a.get("elided")]
            locked = [a for a in checks if a.get("locked")]
            assert len(elided) == result.stats.checks_elided
            assert len(locked) == result.stats.checks_locked_refined
            assert not any(a.get("elided") and a.get("locked")
                           for a in checks)
            assert all(a["hit"] and not a["conflict"]
                       for a in elided + locked)
    assert _traced("checkelim", "all-on", 0, "random",
                   backend).stats.checks_elided > 0
    assert _traced("lockset", "all-on", 0, "random",
                   backend).stats.checks_locked_refined > 0
