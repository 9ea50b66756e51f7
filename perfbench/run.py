"""SharC reproduction benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1|oneshot|explore \\
        --seed N --seconds S --trace 0|1

Every run executes one pass of each of the three flows (see
:mod:`flows`), their units interleaved, then repeats the named
workload's flow in whole rounds until ``--seconds`` of measurement have
passed: every end-to-end metric is measured on every run, and the named
flow gets the extra samples.  With ``--trace 1`` only the named flow runs, each
unit twice over the same inputs: untraced, then with the timing
wrappers and the runtime sampler of :mod:`spans` installed.  The run
prints the per-layer metrics and the tracing overhead (traced ÷
untraced wall of the same work, minus one).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list each
metric with its unit and sample count, and any failed operation.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "oneshot", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(seed: int, ledger):
    """Imports once, then the per-run set-up ``SETUP_REPEATS`` times
    from empty caches; returns the last inputs and the set-up time,
    scaled to the reference host speed like every other time."""
    import flows

    imported = time.perf_counter() - STARTED
    times, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        monitor = flows.hostspeed.Monitor()
        start = time.perf_counter()
        inputs = flows.setup(seed, ledger, monitor)
        took = time.perf_counter() - start - monitor.spent
        ledger.probes.extend(monitor.probes)
        slowdowns.append(monitor.slowdown())
        times.append(took / slowdowns[-1])
    return inputs, imported / slowdowns[0] + statistics.median(times)


def untraced(args, inputs, ledger, setup_s: float) -> list:
    import flows
    import results

    session = flows.Session(inputs, ledger, WORKDIR)
    start = time.perf_counter()
    session.all_passes()
    while time.perf_counter() - start < args.seconds or \
            not session.at_round_boundary(args.workload):
        session.unit(args.workload)
    table = results.declared_metrics("end_to_end")
    values = results.end_to_end(ledger, setup_s, peak_rss_mb())
    lines = results.render(table, values, results.sample_counts(ledger))
    lines.append(results.host_line(ledger))
    lines.append(f"measured {time.perf_counter() - start:.1f} s; "
                 f"units per flow {session.cursor}")
    return lines + [results.result_line(table, values, ledger)]


def traced(args, inputs, ledger) -> list:
    """Runs each unit of the named flow twice over the same inputs,
    untraced and traced, so a slow spell of the host hits both sides
    alike and the ratio of their walls is the tracing overhead."""
    import flows
    import results
    import spans

    plain = flows.Session(inputs, ledger, WORKDIR)
    session = flows.Session(inputs, ledger, WORKDIR)
    recorder = spans.Recorder(spans.Sampler())
    minimum = plain.pass_units(args.workload)
    base_wall = wall = 0.0
    start = time.perf_counter()
    while plain.cursor[args.workload] < minimum or \
            time.perf_counter() - start < args.seconds or \
            not plain.at_round_boundary(args.workload):
        # Alternate which side goes first, so neither always runs
        # second on the same inputs.
        order = (False, True) if plain.cursor[args.workload] % 2 \
            else (True, False)
        for with_trace in order:
            if with_trace:
                with recorder:
                    began = time.perf_counter()
                    session.unit(args.workload)
                    wall += time.perf_counter() - began
            else:
                began = time.perf_counter()
                plain.unit(args.workload)
                base_wall += time.perf_counter() - began
    values = spans.per_layer(recorder, session.campaigns,
                             wall / base_wall - 1.0)
    values["host.probe_ms"] = statistics.median(ledger.probes)
    table = results.declared_metrics("per_layer")
    lines = results.render(table, values, {})
    lines.append(f"{session.cursor[args.workload]} {args.workload} "
                 f"unit(s) each side: {base_wall:.2f} s untraced, "
                 f"{wall:.2f} s traced")
    return lines + [results.result_line(table, values, ledger)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import results

    ledger = results.Ledger()
    try:
        inputs, setup_s = timed_setup(args.seed, ledger)
        # The inputs live for the whole run: frozen, they are not
        # rescanned by the collections the timed operations trigger.
        gc.collect()
        gc.freeze()
        if args.trace:
            lines = traced(args, inputs, ledger)
        else:
            lines = untraced(args, inputs, ledger, setup_s)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for problem in ledger.failures[:20]:
        print(f"FAILED: {problem}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
