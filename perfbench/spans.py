"""Tracing for the per-layer run: timing wrappers at the program's
public calls and a ``setitimer(ITIMER_PROF)`` sampler for the runtime.

Passes are timed by wrapping the functions under the names their
callers look them up by (``repro.sharc.checker.analyze_absint``...),
never by re-implementing ``check_program``: a pass dropped from the
default pipeline then shows 0 calls and no time.  Each span records
its name, start, end and parent; a parent's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import signal
import statistics
import time
import weakref
from collections import Counter
from typing import Optional

import repro.compile.backend as backend_mod
import repro.compile.closures as closures_mod
import repro.explore.campaign as campaign_mod
import repro.runtime.interp as interp_mod
import repro.sharc.checker as checker_mod

#: (module, attribute, span name).  Static passes under the names
#: ``check_source`` / ``check_program`` call them by; compile under
#: both names it is called by (the executor and the campaign warm-up).
WRAPPED = (
    (checker_mod, "check_source", "sharc.check"),
    (checker_mod, "parse_program", "cfront.parse"),
    (checker_mod, "infer_program", "sharc.infer"),
    (checker_mod, "typecheck_program", "sharc.typecheck"),
    (checker_mod, "mark_rc_writes", "sharc.rc"),
    (checker_mod, "mark_elisions", "sharc.checkelim"),
    (checker_mod, "analyze_locksets", "sharc.lockset"),
    (checker_mod, "analyze_absint", "sharc.absint"),
    (closures_mod, "compile_program", "compile"),
    (backend_mod, "compile_program", "compile"),
    (interp_mod, "run_checked", "runtime.run_checked"),
    (interp_mod, "make_interp", "runtime.setup"),
    (interp_mod.Interp, "run", "runtime.run"),
    (campaign_mod, "run_schedule", "explore.schedule"),
)

SHARC_PASSES = ("infer", "typecheck", "rc", "checkelim", "lockset",
                "absint")

RUNTIME_BUCKETS = ("scheduler", "shadow", "addrspace", "refcount",
                   "locks", "builtins", "interp")
SHARES = ("generated",) + RUNTIME_BUCKETS + ("other",)

_REPRO = os.path.dirname(os.path.abspath(checker_mod.__file__))
_REPRO = os.path.dirname(_REPRO) + os.sep
_RUNTIME = os.path.join(_REPRO, "runtime") + os.sep
_COMPILE = os.path.join(_REPRO, "compile") + os.sep


def bucket_of(filename: str) -> Optional[str]:
    """The runtime layer a code object belongs to, or None when it is
    not the program's code (standard library, the benchmark)."""
    if filename.startswith("<sharc-compiled:") or \
            filename.startswith(_COMPILE):
        return "generated"
    if filename.startswith(_RUNTIME):
        module = os.path.basename(filename)[:-3]
        return module if module in RUNTIME_BUCKETS else "other"
    if filename.startswith(_REPRO):
        return "other"
    return None


class Sampler:
    """Profiling-timer sampler.  Only samples taken while some
    ``Interp.run`` is on the stack are bucketed; the interrupted frame
    is attributed to the innermost frame that is the program's own
    code, so a standard-library helper counts toward its caller."""

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.depth = 0
        self.counts: Counter = Counter()

    def _handler(self, signum, frame) -> None:
        if not self.depth:
            return
        while frame is not None:
            bucket = bucket_of(frame.f_code.co_filename)
            if bucket is not None:
                self.counts[bucket] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def site_marks(checked) -> tuple:
    """A checked program's discharge marks: checkelim, lockset,
    absint."""
    elim, ai = checked.elim_stats, checked.absint_result.stats
    return (elim.elided + elim.ranges,
            checked.lockset_result.refined_sites,
            ai.ai_elided + ai.ai_ranges)


def tiers(compiled) -> tuple:
    """A compiled program's functions by tier: codegen, closures,
    fallback."""
    kinds = [f.tier for f in compiled.funcs.values()]
    return (kinds.count("codegen"), kinds.count("closures"),
            len(compiled.failed))


class Recorder:
    """Keeps every span in memory: ``(name, start, end, parent, self,
    info)``, where ``info`` is what the metric code needs from the
    call's arguments or result.  It keeps figures, not the program's
    objects: holding every checked or compiled program of a long traced
    run would make each garbage collection rescan them."""

    def __init__(self, sampler: Optional[Sampler] = None) -> None:
        self.spans: list = []
        self.sampler = sampler
        self._stack: list = []  # [span index, child seconds]
        self._saved: list = []
        #: ``site_marks`` of each distinct checked program handed to
        #: ``make_interp``
        self.marks: list = []
        self._seen: dict = {}  # id -> weak reference to the program

    def _info(self, name: str, args, result):
        if name == "sharc.check":
            return len(result.lockset_result.race_keys)
        if name == "sharc.absint":
            return result.rounds
        if name == "compile":
            return tiers(result)
        if name == "runtime.setup":
            checked = args[0]
            seen = self._seen.get(id(checked))
            if seen is None or seen() is not checked:
                self._seen[id(checked)] = weakref.ref(checked)
                self.marks.append(site_marks(checked))
        if name == "runtime.run":
            return result.stats if args[0].instrument else None
        return None

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fresh = None
            if name == "compile":
                fresh = getattr(args[0].program, "_sharc_compiled",
                                None) is None
            sampler = recorder.sampler
            if name == "runtime.run" and sampler is not None:
                sampler.depth += 1
            parent = recorder._stack[-1][0] if recorder._stack else None
            index = len(recorder.spans)
            recorder.spans.append(None)
            recorder._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = recorder._stack.pop()
                if recorder._stack:
                    recorder._stack[-1][1] += end - start
                if name == "runtime.run" and sampler is not None:
                    sampler.depth -= 1
            # A compile served from the per-program cache is kept apart,
            # so compile figures describe real compilations only.
            recorder.spans[index] = (
                "compile.cached" if fresh is False else name, start, end,
                parent, end - start - child,
                recorder._info(name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        if self.sampler is not None:
            self.sampler.start()

    def uninstall(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- queries -----------------------------------------------------------

    def of(self, name: str) -> list:
        return [s for s in self.spans if s is not None and s[0] == name]

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        spans = self.of(name)
        if not spans:
            return 0.0
        total = sum(s[4] if self_time else s[2] - s[1] for s in spans)
        return total / len(spans) * 1e3


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(rec: Recorder, campaigns: list,
              overhead: float) -> dict:
    """Every per-layer metric from one traced pass.  A layer the pass
    never entered reads 0 with 0 calls."""
    m: dict = {}
    m["cfront.parse_ms"] = rec.mean_ms("cfront.parse")
    m["cfront.parse_calls"] = rec.calls("cfront.parse")
    for p in SHARC_PASSES:
        m[f"sharc.{p}_ms"] = rec.mean_ms(f"sharc.{p}")
    m["sharc.other_ms"] = rec.mean_ms("sharc.check", self_time=True)
    m["sharc.absint_rounds"] = _mean(s[5] for s in rec.of("sharc.absint"))
    m["sharc.static_races"] = _mean(s[5] for s in rec.of("sharc.check"))
    for i, kind in enumerate(("elide", "locked", "ai")):
        m[f"sharc.sites_{kind}"] = _mean(t[i] for t in rec.marks)

    compiles = rec.of("compile")
    m["compile.compile_ms"] = rec.mean_ms("compile", self_time=True)
    for i, tier in enumerate(("codegen", "closures", "fallback")):
        m[f"compile.funcs_{tier}"] = _mean(s[5][i] for s in compiles)

    m["runtime.setup_ms"] = rec.mean_ms("runtime.setup", self_time=True)
    m["runtime.run_ms"] = rec.mean_ms("runtime.run")
    stats = [s[5] for s in rec.of("runtime.run") if s[5] is not None]
    m["runtime.steps"] = _mean(s.steps_total for s in stats)
    m["runtime.checks_full"] = _mean(s.checks_full for s in stats)
    m["runtime.checks_range"] = _mean(s.checks_range for s in stats)
    m["runtime.checks_discharged"] = _mean(
        s.checks_elided + s.checks_locked_refined + s.checks_ai_elided
        for s in stats)
    updates = sum(s.shadow_updates for s in stats)
    m["runtime.fastpath_rate"] = (
        sum(s.shadow_fastpath_hits for s in stats) / updates
        if updates else 0.0)
    m["runtime.rc_writes"] = _mean(s.rc_writes for s in stats)
    m["runtime.lock_acquisitions"] = _mean(s.lock_acquisitions
                                           for s in stats)
    m["runtime.context_switches"] = _mean(s.context_switches
                                          for s in stats)
    counts = rec.sampler.counts if rec.sampler else Counter()
    samples = sum(counts.values())
    m["runtime.samples"] = samples
    for share in SHARES:
        m[f"runtime.share.{share}"] = (counts[share] / samples
                                       if samples else 0.0)

    schedules = rec.of("explore.schedule")
    m["explore.schedule_ms"] = (
        statistics.median(s[2] - s[1] for s in schedules) * 1e3
        if schedules else 0.0)
    m["explore.schedules"] = sum(c["schedules"] for c in campaigns)
    m["explore.distinct_ratio"] = (
        sum(c["distinct"] for c in campaigns) / m["explore.schedules"]
        if m["explore.schedules"] else 0.0)
    # Campaign wall not spent in a schedule, a check or a compile: the
    # engine's own bookkeeping (leases, folds, corpus, horizon probes).
    busy = sum(s[2] - s[1] for s in schedules) + sum(
        s[2] - s[1] for s in rec.spans if s is not None
        and s[3] is None and s[0] in ("sharc.check", "compile"))
    m["explore.engine_ms"] = (
        (sum(c["wall"] for c in campaigns) - busy) / len(campaigns) * 1e3
        if campaigns else 0.0)
    m["trace.overhead"] = overhead
    return m
