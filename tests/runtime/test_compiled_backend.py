"""The compiled backend's soundness gate: ``backend="compiled"`` vs
``backend="interp"`` must be *bit-identical* by seed — same step counts,
same context-switch trace, same reports, same output — across seeds and
scheduling policies.  Only wall time may differ.

This holds by construction: the compiled executor subclasses the
tree-walker and overrides nothing but how function bodies produce their
scheduler items (generated source instead of AST dispatch); scheduler,
shadow memory, the dynamic check, lock table, RC scheme, RNG streams,
and tracing are the inherited machinery, shared verbatim.
These tests keep the construction honest.
"""

import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import check_ok
from repro.explore.driver import run_schedule
from repro.runtime.interp import (
    BACKENDS, Interp, make_interp, resolve_backend, run_checked,
)

#: exercises locks, arrays, a sharing cast, helper calls, and a race —
#: the paths where compiled and interpreted execution could plausibly
#: diverge
RACY = """
mutex lk;
int locked(lk) total = 0;
int shared = 0;
int buf[32];
int bump(int v) { return v + 1; }
void *w(void *a) {
  int i; int x;
  for (i = 0; i < 12; i++) {
    x = shared;
    shared = bump(x) + buf[i];
    buf[i] = buf[i] + 1;
    mutexLock(&lk); total = total + 1; mutexUnlock(&lk);
  }
  return NULL;
}
int main() {
  int *a = malloc(4);
  int private *p = SCAST(int private *, a);
  *p = 7;
  free(p);
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""

POLICIES = ["random", "round-robin", "pct", "pb"]


def _run(checked, seed, policy, backend):
    return run_checked(checked, seed=seed, policy=policy,
                       backend=backend, record_trace=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_backends_are_bit_identical(seed, policy):
    checked = check_ok(RACY)
    interp = _run(checked, seed, policy, "interp")
    compiled = _run(checked, seed, policy, "compiled")
    assert interp.stats.steps_total == compiled.stats.steps_total
    assert interp.trace == compiled.trace  # every switch, in order
    assert interp.report_counts == compiled.report_counts
    assert [r.render() for r in interp.reports] == \
        [r.render() for r in compiled.reports]
    assert interp.output == compiled.output
    assert (interp.deadlock, interp.error, interp.timeout,
            interp.exit_code) == \
        (compiled.deadlock, compiled.error, compiled.timeout,
         compiled.exit_code)
    # The checks themselves are discharged identically too.
    assert interp.stats.accesses_dynamic == compiled.stats.accesses_dynamic
    assert interp.stats.shadow_updates == compiled.stats.shadow_updates


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_explore_outcomes_are_identical(seed, policy):
    """The ``sharc explore`` path (trace hash included) can't tell the
    two backends apart either."""
    interp = run_schedule(RACY, "t.c", seed, policy, backend="interp")
    compiled = run_schedule(RACY, "t.c", seed, policy,
                            backend="compiled")
    assert interp.trace_hash == compiled.trace_hash
    assert interp.report_keys == compiled.report_keys
    assert (interp.steps, interp.switches, interp.deadlock,
            interp.error) == \
        (compiled.steps, compiled.switches, compiled.deadlock,
         compiled.error)


class TestBackendResolution:
    def test_default_is_the_tree_walker(self, monkeypatch):
        monkeypatch.delenv("SHARC_BACKEND", raising=False)
        assert resolve_backend(None) == "interp"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("SHARC_BACKEND", "compiled")
        assert resolve_backend("interp") == "interp"

    def test_env_var_fills_in_none(self, monkeypatch):
        # This is how CI runs the whole tier-1 suite compiled.
        monkeypatch.setenv("SHARC_BACKEND", "compiled")
        assert resolve_backend(None) == "compiled"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("jit")

    def test_make_interp_dispatches(self):
        from repro.compile import CompiledInterp

        checked = check_ok(RACY)
        assert type(make_interp(checked, backend="interp")) is Interp
        assert isinstance(make_interp(checked, backend="compiled"),
                          CompiledInterp)
        assert set(BACKENDS) == {"interp", "compiled"}


def _compile_gate_sources() -> list:
    """A ``pytest.param(source, id=name)`` for every program the compile
    gate covers:
    the gate program, both variants of each Table 1 workload model,
    ``examples/*.c``, and the committed fuzz corpus's programs."""
    from repro.bench.workloads import all_workloads

    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    sources = [("RACY", RACY)]
    for workload in all_workloads():
        sources.append((f"{workload.name}-annotated",
                        workload.annotated_source))
        sources.append((f"{workload.name}-unannotated",
                        workload.unannotated_source))
    for path in sorted(glob.glob(os.path.join(root, "examples", "*.c"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((os.path.basename(path), handle.read()))
    corpus = os.path.join(root, "tests", "fuzz", "corpus")
    for path in sorted(glob.glob(os.path.join(corpus, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((os.path.basename(path),
                            json.load(handle)["source"]))
    return [pytest.param(source, id=name) for name, source in sources]


class TestCompilationArtifact:
    def test_compile_is_cached_per_program(self):
        # One compile serves every seed/policy run of the program.
        checked = check_ok(RACY)
        first = make_interp(checked, backend="compiled")
        second = make_interp(checked, backend="compiled")
        assert first.compiled is second.compiled

    def test_all_functions_compile_on_the_gate_program(self):
        checked = check_ok(RACY)
        compiled = make_interp(checked, backend="compiled").compiled
        assert set(compiled.funcs) >= {"main", "w", "bump"}

    @pytest.mark.parametrize("source", _compile_gate_sources())
    def test_every_function_compiles_to_generated_code(self, source):
        # No silent fallback: a codegen regression would otherwise drop
        # functions to the tree-walker, bit-identically and unnoticed.
        checked = check_ok(source)
        compiled = make_interp(checked, backend="compiled").compiled
        assert compiled.failed == {}
        defined = {f.name for f in checked.program.functions()
                   if f.body is not None}
        assert set(compiled.funcs) == defined
        assert {f.tier for f in compiled.funcs.values()} == {"codegen"}

    def test_compiled_run_is_actually_faster_on_a_hot_loop(self):
        # Not a benchmark — just a smoke check that the backend isn't
        # silently falling back to tree-walking everything.  A generous
        # 1.2x floor keeps this immune to host jitter; the real 3-5x
        # gate lives in the bench canary.
        source = """
        int acc = 0;
        int main() {
          int i;
          for (i = 0; i < 60000; i++)
            acc = acc + i;
          return 0;
        }
        """
        checked = check_ok(source)
        # Warm both paths (first compiled run pays the compile).
        run_checked(checked, seed=1, backend="compiled")
        interp = run_checked(checked, seed=1, backend="interp")
        compiled = run_checked(checked, seed=1, backend="compiled")
        assert interp.stats.steps_total == compiled.stats.steps_total
        assert (compiled.stats.steps_per_sec
                > 1.2 * interp.stats.steps_per_sec)


class TestBenchBackendInvariance:
    def test_run_workload_metrics_match_across_backends(self):
        from repro.bench.harness import run_workload
        from repro.bench.workloads import all_workloads

        workload = {w.name: w for w in all_workloads()}["aget"]
        interp = run_workload(workload, backend="interp")
        compiled = run_workload(workload, backend="compiled")
        assert interp.sharc_steps == compiled.sharc_steps
        assert interp.base_steps == compiled.base_steps
        assert interp.reports == compiled.reports
        assert interp.time_overhead == compiled.time_overhead
        assert interp.mem_overhead == compiled.mem_overhead
        assert interp.backend == "interp"
        assert compiled.backend == "compiled"
        assert interp.interp_steps_per_sec > 0
        assert interp.compiled_steps_per_sec == 0.0
        assert compiled.compiled_steps_per_sec > 0
        assert compiled.interp_steps_per_sec == 0.0
