"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import flows  # noqa: E402
import hostspeed  # noqa: E402
import results  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrinks every flow to seconds of work: two Table 1 models, a
    handful of generated programs, a tiny campaign.  The p90 tail needs
    100 samples, so the one-shot pass still makes 104 verdicts per
    backend by cycling the few programs."""
    from repro.bench.workloads import get_workload

    monkeypatch.setattr(flows, "all_workloads", lambda: [
        get_workload("aget"), get_workload("dillo")])
    monkeypatch.setattr(flows, "ONESHOT_PROGRAMS", 13)
    monkeypatch.setattr(flows, "EXPLORE_FAMILIES",
                        flows.EXPLORE_FAMILIES[:3])
    monkeypatch.setattr(flows, "CAMPAIGN_BUDGET", 3 * 3 * 4)
    monkeypatch.setattr(flows, "SHARD_SIZE", 4)
    monkeypatch.setattr(flows.Session, "pass_units", _pass_units)
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))


def _pass_units(self, flow):
    return {"table1": len(self.inputs.variants), "oneshot": 104,
            "explore": 1}[flow]


def _args(workload, trace=0, seconds=0.0):
    return argparse.Namespace(workload=workload, seed=5, seconds=seconds,
                              trace=trace)


def _last_json(lines):
    return json.loads(lines[-1])


# -- declaration ---------------------------------------------------------------


def test_declared_names_and_units_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        decl = json.load(f)
    names = [w["name"] for w in decl["workloads"]]
    names += [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in decl["end_to_end"] + decl["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
    assert [w["name"] for w in decl["workloads"]] == list(flows.FLOWS)
    setup = [m for m in decl["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert all(m["bound"] <= 0.25 for m in decl["end_to_end"])


@pytest.mark.parametrize("workload", flows.FLOWS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(small,
                                                          workload):
    ledger = results.Ledger()
    inputs = flows.setup(5, ledger)
    out = _last_json(run.untraced(_args(workload), inputs, ledger, 1.0))
    table = results.declared_metrics("end_to_end")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert sorted(out["metrics"]) == sorted(m["name"] for m in table)
    for metric in table:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", flows.FLOWS)
def test_every_per_layer_metric_is_emitted_in_the_traced_run(small,
                                                             workload):
    ledger = results.Ledger()
    inputs = flows.setup(5, ledger)
    out = _last_json(run.traced(_args(workload, trace=1), inputs,
                                ledger))
    table = results.declared_metrics("per_layer")
    assert out["correct"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in table)
    for metric in table:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["runtime.steps"] > 0 and m["runtime.run_ms"] > 0
    shares = sum(m[f"runtime.share.{s}"] for s in spans.SHARES)
    assert m["runtime.samples"] == 0 or shares == pytest.approx(1.0)
    if workload == "table1":
        # Checked and compiled in set-up: no static work in the timed
        # region.
        assert m["cfront.parse_calls"] == 0
        assert m["compile.compile_ms"] == 0
        assert m["explore.schedules"] == 0
    elif workload == "oneshot":
        assert m["cfront.parse_calls"] == 2 * 104
        assert m["sharc.absint_ms"] > 0 and m["compile.compile_ms"] > 0
        assert m["explore.schedules"] == 0
    else:
        assert m["explore.schedules"] > 0
        assert m["explore.schedule_ms"] > 0
        assert 0 < m["explore.distinct_ratio"] <= 1


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_sources_other_seed_other_sources():
    def sources(seed):
        oneshot, explore = flows.generate_inputs(seed)
        return [s.source for s in oneshot + explore]

    assert sources(7) == sources(7)
    assert sources(7) != sources(8)
    assert flows.derive(7, "table1", 0) == flows.derive(7, "table1", 0)
    assert flows.derive(7, "table1", 0) != flows.derive(8, "table1", 0)


def test_generated_programs_cover_every_family_racy_and_race_free():
    from repro.fuzz.scenarios import SUPPORTED_FAMILIES

    oneshot, _ = flows.generate_inputs(3)
    assert len(oneshot) >= 100
    assert {(s.spec.topology, s.spec.idiom) for s in oneshot} == \
        set(SUPPORTED_FAMILIES)
    assert {s.spec.racy for s in oneshot} == {True, False}


def test_every_seed_deals_out_the_same_oneshot_sizes():
    def sizes(seed):
        shapes = {}
        for spec in flows.oneshot_specs(seed):
            family = (spec.topology, spec.idiom)
            shapes.setdefault(family, []).append(
                tuple(getattr(spec, knob) for knob in flows.SHAPE_KNOBS))
        return shapes

    first, second = sizes(7), sizes(8)
    assert {f: sorted(s) for f, s in first.items()} == \
        {f: sorted(s) for f, s in second.items()}
    assert first != second


# -- failures ------------------------------------------------------------------


def test_injected_run_failure_raises_failed_frac(monkeypatch):
    oneshot, _ = flows.generate_inputs(3)
    inputs = flows.Inputs(3, [], oneshot[:2], [], {})
    clean = results.Ledger()
    for index in range(2):
        flows.oneshot_program(inputs, clean, index, hostspeed.Monitor())
    assert clean.failed_frac == 0 and clean.attempted == 4

    real = flows.runtime.run_checked

    def broken(checked, **kwargs):
        result = real(checked, **kwargs)
        if kwargs.get("backend") == "compiled":
            result.error = "injected"
        return result

    monkeypatch.setattr(flows.runtime, "run_checked", broken)
    hurt = results.Ledger()
    for index in range(2):
        flows.oneshot_program(inputs, hurt, index, hostspeed.Monitor())
    assert hurt.attempted == 4 and hurt.failed == 2
    assert hurt.failed_frac == 0.5
    line = json.loads(results.result_line([], {}, hurt))
    assert line["correct"] is False and line["failed"] == 2


def test_backend_disagreement_is_a_failure(monkeypatch):
    oneshot, _ = flows.generate_inputs(3)
    inputs = flows.Inputs(3, [], oneshot[:1], [], {})
    real = flows.runtime.run_checked

    def skewed(checked, **kwargs):
        result = real(checked, **kwargs)
        if kwargs.get("backend") == "compiled":
            result.output += "x"
        return result

    monkeypatch.setattr(flows.runtime, "run_checked", skewed)
    ledger = results.Ledger()
    flows.oneshot_program(inputs, ledger, 0, hostspeed.Monitor())
    assert ledger.failed == 1 and "disagree" in ledger.failures[0]


# -- percentiles ---------------------------------------------------------------


def test_percentile_keeps_ten_samples_beyond_the_tail():
    assert results.percentile(range(1, 101), 90) == 90
    assert results.percentile(range(1, 101), 50) == 50
    with pytest.raises(ValueError):
        results.percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        results.percentile(range(1, 20), 50)
    values = list(range(1, 201))
    p90 = results.percentile(values, 90)
    assert sum(v > p90 for v in values) >= results.TAIL_MARGIN


# -- host speed ----------------------------------------------------------------


def test_rescale_divides_only_what_a_unit_recorded():
    ledger = results.Ledger()
    ledger.sample("check_ms", 10.0)
    ledger.sums.update({"instr_wall.interp": 1.0, "instr_steps.interp": 7})
    mark = ledger.mark()
    ledger.sample("check_ms", 10.0)
    ledger.sample("verdict_ms.interp", 30.0)
    ledger.sums.update({"instr_wall.interp": 2.0, "instr_steps.interp": 9,
                        "campaign_wall": 4.0})
    ledger.rescale(mark, 2.0)
    # the host ran at half the reference speed during the unit: its
    # times halve, earlier times and counts stay as recorded
    assert ledger.samples == {"check_ms": [10.0, 5.0],
                              "verdict_ms.interp": [15.0]}
    assert ledger.sums["instr_wall.interp"] == 2.0
    assert ledger.sums["campaign_wall"] == 2.0
    assert ledger.sums["instr_steps.interp"] == 16


def test_every_unit_probes_the_host_after_each_timed_operation():
    oneshot, _ = flows.generate_inputs(3)
    inputs = flows.Inputs(3, [], oneshot[:2], [], {})
    ledger = results.Ledger()
    session = flows.Session(inputs, ledger, ".")
    for _ in range(3):
        session.unit("oneshot")
    # per unit: one probe at the start, one after each backend's verdict
    assert len(ledger.probes) == 9 and min(ledger.probes) > 0
    assert len(ledger.samples["check_ms"]) == 6


def test_monitor_probes_every_nth_call_and_keeps_its_cost():
    monitor = hostspeed.Monitor(every=2)
    for _ in range(5):
        monitor()
    # one probe at the start, then one on calls 2 and 4
    assert len(monitor.probes) == 3 and monitor.spent > 0
    assert monitor.slowdown() == pytest.approx(
        sum(monitor.probes) / 3 / hostspeed.REFERENCE_MS)


def test_probe_ignores_the_programs_heap():
    import gc

    assert hostspeed.probe_ms() > 0
    gc.enable()
    hostspeed.probe_ms()
    assert gc.isenabled()


# -- caches and spans ----------------------------------------------------------


def _calls_per_repetition(body, reps=(0, 1)):
    counts = []
    for rep in reps:
        rec = spans.Recorder()
        with rec:
            body(rep)
        counts.append((rec.calls("sharc.check"), rec.calls("compile")))
    return counts


def test_campaign_repetitions_make_the_same_check_and_compile_calls(
        small, tmp_path):
    ledger = results.Ledger()
    _, explore = flows.generate_inputs(4)
    inputs = flows.Inputs(4, [], [], [], {})
    inputs.targets = [flows.CampaignTarget(label=f"t{i}", source=s.source,
                                           filename=s.filename)
                      for i, s in enumerate(explore)]
    inputs.scenarios = dict(zip((t.label for t in inputs.targets),
                                explore))
    counts = _calls_per_repetition(
        lambda rep: flows.campaign(inputs, ledger, rep, str(tmp_path),
                                   hostspeed.Monitor()))
    assert counts[0] == counts[1] == (len(explore), len(explore))
    assert ledger.failed == 0


def test_oneshot_verdicts_check_and_compile_afresh():
    oneshot, _ = flows.generate_inputs(3)
    inputs = flows.Inputs(3, [], oneshot[:1], [], {})
    ledger = results.Ledger()
    counts = _calls_per_repetition(
        lambda rep: flows.oneshot_program(inputs, ledger, 0,
                                          hostspeed.Monitor()))
    # one check per backend verdict, one compile for the compiled one
    assert counts == [(2, 1), (2, 1)]


def test_setup_repetitions_check_and_compile_every_variant(small):
    ledger = results.Ledger()
    counts = _calls_per_repetition(lambda rep: flows.setup(5, ledger))
    assert counts == [(4, 4), (4, 4)]
    assert ledger.failed == 0 and ledger.attempted == 8


def test_child_spans_never_exceed_their_parent():
    oneshot, _ = flows.generate_inputs(3)
    inputs = flows.Inputs(3, [], oneshot[:2], [], {})
    rec = spans.Recorder()
    with rec:
        for index in range(2):
            flows.oneshot_program(inputs, results.Ledger(), index,
                                  hostspeed.Monitor())
    children: dict = {}
    for span in rec.spans:
        if span[3] is not None:
            children[span[3]] = children.get(span[3], 0.0) + \
                span[2] - span[1]
    assert children
    for parent, covered in children.items():
        name, start, end, _, self_time, _ = rec.spans[parent]
        assert covered <= end - start
        assert self_time == pytest.approx(end - start - covered)
    assert rec.calls("sharc.absint") == rec.calls("sharc.check") == 4


def test_wrappers_are_removed_after_the_traced_pass():
    originals = [getattr(owner, attr) for owner, attr, _ in spans.WRAPPED]
    with spans.Recorder(spans.Sampler()):
        pass
    assert [getattr(owner, attr)
            for owner, attr, _ in spans.WRAPPED] == originals


def test_sampler_buckets_by_module():
    runtime_dir = os.path.dirname(flows.runtime.__file__)
    assert spans.bucket_of("<sharc-compiled:main>") == "generated"
    for name in spans.RUNTIME_BUCKETS:
        path = os.path.join(runtime_dir, f"{name}.py")
        assert spans.bucket_of(path) == name
    assert spans.bucket_of(os.path.join(runtime_dir, "stats.py")) \
        == "other"
    assert spans.bucket_of(os.__file__) is None


# -- the command ---------------------------------------------------------------


def test_command_fails_without_program_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
