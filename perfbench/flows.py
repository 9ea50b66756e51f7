"""The three user flows the benchmark times, their inputs, and the
checks of every output against a reference the code under test does
not produce.

- ``table1``: the 12 Table 1 model variants, checked and compiled once
  in set-up, then run uninstrumented and instrumented under both
  backends.  Reference: ``ci/analyze_golden.json`` for the static race
  keys, "annotated variants report nothing", and interp/compiled
  agreement.
- ``oneshot``: small generated programs taken from source text to a
  verdict (fresh check, then one run), once per backend.  Reference:
  each scenario's :class:`~repro.fuzz.scenarios.ScenarioOracle` and
  interp/compiled agreement.
- ``explore``: ``run_campaign`` over generated scenarios, each campaign
  in a fresh directory with the process caches emptied.  Reference: the
  scenario oracles, scored per schedule.

Every call into the program goes through a module attribute
(``checker.check_source``, ``runtime.run_checked``...) so the timing
wrappers of :mod:`spans` see it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.bench.workloads import all_workloads
from repro.compile import closures
from repro.explore import driver
from repro.explore.campaign import (
    CampaignConfig, CampaignTarget, run_campaign,
)
from repro.explore.queue import WorkQueue
from repro.fuzz.gen import generate_scenario, sample_specs
from repro.fuzz.scenarios import SUPPORTED_FAMILIES
from repro.runtime import interp as runtime
from repro.sharc import checker

import hostspeed
from results import ROOT, Ledger

FLOWS = ("table1", "oneshot", "explore")
BACKENDS = ("interp", "compiled")
GOLDEN = os.path.join(ROOT, "ci", "analyze_golden.json")

#: generated programs per one-shot pass: 8 per scenario family, so a
#: pass has at least 100 verdicts per backend and p90 keeps 10 beyond it
ONESHOT_PROGRAMS = 104
#: the knobs that set a generated program's size.  The one-shot
#: programs take theirs from one fixed draw, dealt out among each
#: family's programs by the seed: p90 is set by the largest programs.
#: Over 20 seeds the p90 source length ranged 163-201 lines with
#: seed-drawn sizes, 175-181 with dealt ones.
SHAPE_KNOBS = ("n_workers", "n_items", "array_len", "rounds", "density")
SHAPE_SEED = 0
#: campaign targets: a few programs of fixed shape, one from every
#: other scenario family so all four topologies appear.  The cost of a
#: schedule grows with a program's shape, so seed-drawn shapes would
#: make ``schedules_per_s`` mostly a measure of the seed's draw.
EXPLORE_FAMILIES = SUPPORTED_FAMILIES[::2]
EXPLORE_SHAPE = {"n_workers": 3, "n_items": 4, "array_len": 16,
                 "rounds": 2}
SHARD_SIZE = 8
#: one shard per (target, policy) cell, then seven more rounds' worth
#: handed out by the coverage-guided picker: thousands of schedules of
#: a few programs, so per-schedule set-up and bookkeeping outweigh the
#: one check and compile per target
CAMPAIGN_BUDGET = len(EXPLORE_FAMILIES) * 3 * SHARD_SIZE * 8
#: timed operations between host probes: every Table 1 run and one-shot
#: verdict, every other folded campaign shard (a probe costs about 3 ms,
#: two shards about 40 ms)
PROBE_EVERY = {"table1": 1, "oneshot": 1, "explore": 2}
#: campaigns per pass: one is too few to average out the host
PASS_CAMPAIGNS = 2


def derive(seed: int, *parts) -> int:
    """A sub-seed that depends only on ``seed`` and ``parts``."""
    key = ":".join(str(p) for p in (seed,) + parts)
    return random.Random(key).randrange(1 << 30)


@dataclass
class Variant:
    workload: object
    annotated: bool
    checked: object

    @property
    def label(self) -> str:
        kind = "annotated" if self.annotated else "unannotated"
        return f"{self.workload.name}.{kind}"


@dataclass
class Inputs:
    seed: int
    variants: list
    oneshot: list
    targets: list
    scenarios: dict


def oneshot_specs(seed: int) -> list:
    """``sample_specs`` from the seed, with the sizes of a fixed draw
    shuffled among the programs of each family."""
    specs = sample_specs(random.Random(derive(seed, "oneshot")),
                         ONESHOT_PROGRAMS)
    shapes = sample_specs(random.Random(SHAPE_SEED), ONESHOT_PROGRAMS)
    deal = random.Random(derive(seed, "shapes"))
    families = len(SUPPORTED_FAMILIES)
    for family in range(families):
        slots = range(family, ONESHOT_PROGRAMS, families)
        for slot, source in zip(slots, deal.sample(slots, len(slots))):
            specs[slot] = dataclasses.replace(specs[slot], **{
                knob: getattr(shapes[source], knob)
                for knob in SHAPE_KNOBS})
    return specs


def generate_inputs(seed: int) -> tuple[list, list]:
    """The seeded generated programs: one-shot scenarios and campaign
    scenarios.  Same seed, same sources."""
    oneshot = [generate_scenario(spec) for spec in oneshot_specs(seed)]
    explore = [generate_scenario(dataclasses.replace(spec, **EXPLORE_SHAPE))
               for spec in sample_specs(
                   random.Random(derive(seed, "explore")),
                   len(EXPLORE_FAMILIES), families=EXPLORE_FAMILIES)]
    return oneshot, explore


def setup(seed: int, ledger: Ledger, monitor=None) -> Inputs:
    """Generates the inputs and checks + compiles every Table 1 variant,
    verifying its static race keys against the golden file; calls
    ``monitor`` after each variant."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = json.load(handle)["races"]
    oneshot, explore = generate_inputs(seed)
    variants = []
    for workload in all_workloads():
        for annotated in (True, False):
            source = (workload.annotated_source if annotated
                      else workload.unannotated_source)
            checked = checker.check_source(source, f"{workload.name}.c")
            variant = Variant(workload, annotated, checked)
            expected = golden[f"workloads/{variant.label}.c"]
            if not checked.ok:
                ledger.op(f"{variant.label}: static check failed")
                continue
            closures.compile_program(checked)
            keys = checked.lockset_result.race_keys
            ledger.op(None if keys == expected else
                      f"{variant.label}: static races {keys} != golden "
                      f"{expected}")
            variants.append(variant)
            if monitor is not None:
                monitor()
    targets = [CampaignTarget(label=f"t{i:02d}", source=s.source,
                              filename=s.filename)
               for i, s in enumerate(explore)]
    scenarios = {t.label: s for t, s in zip(targets, explore)}
    return Inputs(seed, variants, oneshot, targets, scenarios)


def settle() -> None:
    """Collects the garbage earlier operations left, so a collection
    the next timed operation triggers deals with its own objects only."""
    gc.collect()


# -- output checks -------------------------------------------------------------


def run_problem(result) -> str | None:
    if result.error:
        return f"runtime error: {result.error}"
    if result.deadlock:
        return f"deadlock: {result.deadlock}"
    if result.timeout:
        return "timeout"
    return None


def signature(result) -> tuple:
    """What both backends must agree on, run for run."""
    return (result.stats.steps_total, sorted(result.report_counts),
            result.output, result.exit_code)


def oracle_problem(scenario, keys) -> str | None:
    """A report no injected race accounts for (on a race-free scenario,
    any report at all)."""
    unexpected = scenario.oracle.unexpected_keys(list(keys))
    if unexpected:
        return f"{scenario.filename}: unexpected reports {unexpected}"
    return None


# -- the flows -----------------------------------------------------------------


def table1_variant(inputs: Inputs, ledger: Ledger, index: int,
                   monitor) -> None:
    """One variant, uninstrumented then instrumented, under both
    backends, calling ``monitor`` after each run.  Unit ``index`` runs
    variant ``index % 12`` in round ``index // 12``; a round shares one
    scheduler seed."""
    rnd, which = divmod(index, len(inputs.variants))
    variant = inputs.variants[which]
    workload = variant.workload
    seed = derive(inputs.seed, "table1", rnd)
    sums = ledger.sums
    sigs = {}
    for backend in BACKENDS:
        for instrument in (False, True):
            world = workload.world_factory()
            settle()
            start = time.perf_counter()
            result = runtime.run_checked(
                variant.checked, seed=seed, world=world,
                instrument=instrument, policy=workload.policy,
                max_steps=workload.max_steps, backend=backend)
            wall = time.perf_counter() - start
            if instrument:
                sums[f"instr_wall.{backend}"] += wall
                sums[f"instr_steps.{backend}"] += result.stats.steps_total
                sums[f"instr_runs.{backend}"] += 1
            else:
                sums[f"base_wall.{backend}"] += wall
            problem = run_problem(result)
            if not problem and instrument and variant.annotated \
                    and result.reports:
                problem = (f"annotated variant reported "
                           f"{sorted(result.report_counts)}")
            sigs[backend, instrument] = signature(result)
            if not problem and backend != BACKENDS[0] and \
                    sigs[backend, instrument] != \
                    sigs[BACKENDS[0], instrument]:
                problem = "backends disagree"
            ledger.op(problem and f"table1 {variant.label} seed={seed} "
                      f"{backend} instrument={instrument}: {problem}")
            monitor()


def oneshot_program(inputs: Inputs, ledger: Ledger, index: int,
                    monitor) -> None:
    """One generated program to a verdict under each backend, each
    verdict from a freshly checked program (nothing cached); calls
    ``monitor`` after each verdict."""
    scenario = inputs.oneshot[index % len(inputs.oneshot)]
    seed = derive(inputs.seed, "oneshot", index)
    sigs = {}
    for backend in BACKENDS:
        settle()
        start = time.perf_counter()
        checked = checker.check_source(scenario.source, scenario.filename)
        checked_at = time.perf_counter()
        result = None
        if checked.ok:
            result = runtime.run_checked(checked, seed=seed,
                                         backend=backend)
        done = time.perf_counter()
        ledger.sample("check_ms", (checked_at - start) * 1e3)
        ledger.sample(f"verdict_ms.{backend}", (done - start) * 1e3)
        if result is None:
            problem = "static check failed"
        else:
            sigs[backend] = signature(result)
            problem = (run_problem(result)
                       or oracle_problem(scenario, result.report_counts))
            if not problem and backend != BACKENDS[0] and \
                    sigs[backend] != sigs.get(BACKENDS[0]):
                problem = "backends disagree"
        ledger.op(problem and f"oneshot {scenario.filename} seed={seed} "
                  f"{backend}: {problem}")
        monitor()


def campaign(inputs: Inputs, ledger: Ledger, rep: int, workdir: str,
             monitor) -> dict:
    """One campaign in a fresh directory, with the per-process check
    and PCT horizon caches emptied first so nothing carries over from
    an earlier repetition; ``monitor`` is its progress hook.  Returns
    the campaign's own figures."""
    targets = inputs.targets
    driver._CHECK_CACHE.clear()
    driver._HORIZON_CACHE.clear()
    os.makedirs(workdir, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
    try:
        config = CampaignConfig(budget=CAMPAIGN_BUDGET,
                                shard_size=SHARD_SIZE, jobs=1,
                                seed_start=derive(inputs.seed, "explore",
                                                  rep))
        settle()
        start = time.perf_counter()
        summary = run_campaign(targets, directory, config=config,
                               progress=monitor)
        wall = time.perf_counter() - start - monitor.spent
        queue = WorkQueue(directory)
        shards = [(lease["label"], queue.load_shard(lease["shard"]))
                  for lease in queue.completed()]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    keys_seen: dict = {t.label: set() for t in targets}
    for label, payload in shards:
        scenario = inputs.scenarios[label]
        for row in payload["rows"]:
            keys = row.get("keys", ())
            keys_seen[label].update(keys)
            problem = (row.get("error")
                       or ("deadlock" if row.get("deadlock") else None)
                       or ("timeout" if row.get("timeout") else None)
                       or oracle_problem(scenario, keys))
            ledger.op(problem and f"explore {label} {payload['policy']} "
                      f"seed={row['seed']}: {problem}")
    if not summary.complete:
        ledger.op(f"explore campaign {rep} did not complete")
    sums = ledger.sums
    sums["schedules"] += summary.schedules
    sums["campaign_wall"] += wall
    for label in keys_seen:
        scenario = inputs.scenarios[label]
        sums["races_injected"] += len(scenario.oracle.races)
        sums["races_matched"] += len(
            scenario.oracle.matched_races(sorted(keys_seen[label])))
    return {"wall": wall, "schedules": summary.schedules,
            "distinct": summary.distinct_traces}


class Session:
    """Runs flow units; each flow keeps its own cursor, so a fresh
    session repeats exactly the same inputs."""

    def __init__(self, inputs: Inputs, ledger: Ledger, workdir: str):
        self.inputs = inputs
        self.ledger = ledger
        self.workdir = workdir
        self.cursor = {flow: 0 for flow in FLOWS}
        self.campaigns: list = []

    def unit(self, flow: str) -> None:
        """One unit: a Table 1 variant, one one-shot program, or one
        campaign, its recorded times scaled by the host's slowdown
        through it."""
        index = self.cursor[flow]
        self.cursor[flow] += 1
        ledger = self.ledger
        mark = ledger.mark()
        monitor = hostspeed.Monitor(PROBE_EVERY[flow])
        if flow == "table1":
            table1_variant(self.inputs, ledger, index, monitor)
        elif flow == "oneshot":
            oneshot_program(self.inputs, ledger, index, monitor)
        else:
            self.campaigns.append(campaign(
                self.inputs, ledger, index, self.workdir, monitor))
        ledger.probes.extend(monitor.probes)
        ledger.rescale(mark, monitor.slowdown())

    def pass_units(self, flow: str) -> int:
        """The units of one pass of a flow: every Table 1 variant,
        every generated program, ``PASS_CAMPAIGNS`` campaigns."""
        return {"table1": len(self.inputs.variants),
                "oneshot": len(self.inputs.oneshot),
                "explore": PASS_CAMPAIGNS}[flow]

    def at_round_boundary(self, flow: str) -> bool:
        """True when the flow has run whole rounds, so its input mix is
        the same whatever the run length: all 12 Table 1 variants at a
        scheduler seed.  Every one-shot program is a draw from the same
        distribution, and a campaign covers every target."""
        return flow != "table1" or \
            self.cursor[flow] % len(self.inputs.variants) == 0

    def all_passes(self) -> None:
        """One pass of every flow, their units spread evenly over the
        run so a slow spell of the host does not land on one flow."""
        order = sorted(((i + 0.5) / n, flow)
                       for flow in FLOWS
                       for n in [self.pass_units(flow)]
                       for i in range(n))
        for _, flow in order:
            self.unit(flow)
