"""Host-speed probe.

The speed of a shared host drifts by a quarter or more over minutes
(other tenants, frequency changes), which swamps run-to-run differences
in the program's own wall times.  The probe is a fixed piece of
interpreter work shaped like the program's hot paths — build a tree of
small objects, walk it with dict updates — timed between the timed
operations of each unit.  The times a unit records are scaled by the
host's slowdown through that unit (the mean of its probes, relative to
``REFERENCE_MS``), so a unit run in a slow spell and one run in a fast
spell compare like with like.  A single probe misjudges the host often
(the probes of one run ranged from 0.56 to 1.4 times their median), so
the mean is taken over every probe in the unit, not over the two at its
ends.  The
probe runs none of the program's code, so a change to the program moves
the scaled figures as much as the raw ones; the raw probe median is
reported as ``host.probe_ms`` in the traced run and printed with every
run.
"""

from __future__ import annotations

import gc
import statistics
import time

#: the probe's wall time on the reference host speed, in ms
REFERENCE_MS = 3.0


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind, kids, value):
        self.kind = kind
        self.kids = kids
        self.value = value


def _build(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node("leaf", [], index)
    return _Node(f"n{index % 7}",
                 [_build(depth - 1, index * 3 + j) for j in range(3)],
                 index)


def _walk(node: _Node, env: dict) -> int:
    total = env.get(node.kind, 0) + node.value
    env[node.kind] = total & 0xFFFF
    for kid in node.kids:
        total += _walk(kid, env)
    return total


def probe_ms() -> float:
    """One probe, with the cyclic collector paused so the program's
    heap size cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        env: dict = {}
        for tree in range(2):
            _walk(_build(6, tree), env)
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Monitor:
    """The probes of one unit: one at the start, then one on every
    ``every``-th call, made after each timed operation (or from a
    campaign's per-shard progress hook).  The time the probes took is
    kept in ``spent`` so a caller timing the whole unit can take it
    out."""

    def __init__(self, every: int = 1):
        self.every = every
        self.calls = 0
        self.spent = 0.0
        self.probes = [probe_ms()]

    def __call__(self, *_progress) -> None:
        self.calls += 1
        if self.calls % self.every == 0:
            start = time.perf_counter()
            self.probes.append(probe_ms())
            self.spent += time.perf_counter() - start

    def slowdown(self) -> float:
        """How much slower than the reference the host ran through the
        unit."""
        return statistics.mean(self.probes) / REFERENCE_MS
