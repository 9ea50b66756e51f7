"""Tests for the thread-modular abstract interpreter
(:mod:`repro.sharc.absint` + ``domains`` + ``interference``).

Three load-bearing properties:

- **termination**: the interference fixpoint (widening at loop heads)
  stabilises on every Table 1 workload variant and every fuzz scenario
  family — an analysis that spins is worse than none;
- **analysis only**: the pass places no runtime marks, so its
  discharge census stays 0;
- **refutation**: per-context index intervals refute static lockset
  races on partitioned arrays, with witness bounds, and confirm the
  overlapping control.
"""

import pytest

from tests.conftest import check_ok

SIX_WORKLOADS = ("pfscan", "aget", "pbzip2", "dillo", "fftw", "stunnel")


def _prog(body: str, extra: str = "") -> str:
    return f"""
    int g = 0;
    int buf[64];
    {extra}
    void *w(void *a) {{
      int x; int i;
      {body}
      return NULL;
    }}
    int main() {{
      int t1 = thread_create(w, NULL);
      int t2 = thread_create(w, NULL);
      thread_join(t1); thread_join(t2);
      return 0;
    }}
    """


class TestFixpointTermination:
    @pytest.mark.parametrize("name", SIX_WORKLOADS)
    @pytest.mark.parametrize("variant", ["annotated", "unannotated"])
    def test_workloads_terminate(self, name, variant):
        from repro.bench.workloads import get_workload

        workload = get_workload(name)
        source = (workload.annotated_source if variant == "annotated"
                  else workload.unannotated_source)
        ai = check_ok(source, f"{name}.c").absint_result
        assert ai.terminated, f"{name}/{variant} did not stabilise"
        assert 1 <= ai.rounds <= 12

    def test_fuzz_scenario_families_terminate(self):
        from repro.fuzz.gen import generate_scenario
        from repro.fuzz.scenarios import (RACE_KINDS,
                                          SUPPORTED_FAMILIES,
                                          ScenarioSpec)

        for topology, idiom in SUPPORTED_FAMILIES:
            for race_kinds in ((), RACE_KINDS):
                scenario = generate_scenario(
                    ScenarioSpec(topology=topology, idiom=idiom,
                                 race_kinds=race_kinds, gen_seed=11))
                ai = check_ok(scenario.source,
                              scenario.filename).absint_result
                assert ai.terminated, scenario.filename

    def test_widening_bounds_an_unbounded_loop(self):
        # No constant bound exists: only widening can stabilise this.
        ai = check_ok(_prog(
            "while (g < x) { g = g + 1; }")).absint_result
        assert ai.terminated


class TestAnalysisOnly:
    def test_access_info_has_no_interval_marks(self):
        from dataclasses import fields

        from repro.sharc.typecheck import AccessInfo

        names = {f.name for f in fields(AccessInfo)}
        assert {"elide", "range_walk", "lockset_refined"} <= names
        assert not any(name.startswith("ai") for name in names)

    @pytest.mark.parametrize("name", SIX_WORKLOADS)
    @pytest.mark.parametrize("variant", ["annotated", "unannotated"])
    def test_discharge_census_is_empty(self, variant, name):
        from repro.bench.workloads import get_workload

        workload = get_workload(name)
        checked = check_ok(getattr(workload, f"{variant}_source"),
                           f"{name}.c")
        stats = checked.absint_result.stats
        assert stats.ai_elided == 0 and stats.ai_ranges == 0


PARTITIONED = """
int buf[64];
void *lowhalf(void *a) {
  int i;
  for (i = 0; i < 32; i++) buf[i] = buf[i] + 1;
  return NULL;
}
void *highhalf(void *a) {
  int i;
  for (i = 32; i < 64; i++) buf[i] = buf[i] + 1;
  return NULL;
}
int main() {
  int t1 = thread_create(lowhalf, NULL);
  int t2 = thread_create(highhalf, NULL);
  thread_join(t1); thread_join(t2);
  return 0;
}
"""


class TestRefutation:
    def test_partitioned_array_race_is_interval_refuted(self):
        """The lockset pass reports the classic partitioned-array
        false positive; disjoint per-thread index intervals refute it
        with witness bounds."""
        checked = check_ok(PARTITIONED, "part.c")
        assert checked.lockset_result.race_keys \
            == ["static-race buf@5"]
        verdicts = checked.absint_result.verdicts
        assert [v.verdict for v in verdicts] == ["interval-refuted"]
        assert verdicts[0].witness == {"lowhalf": [0, 31],
                                       "highhalf": [32, 63]}
        assert checked.absint_result.refuted == 1
        assert checked.absint_result.confirmed == 0

    def test_overlapping_ranges_are_confirmed(self):
        source = PARTITIONED.replace("for (i = 32; i < 64; i++)",
                                     "for (i = 0; i < 64; i++)")
        checked = check_ok(source, "part2.c")
        verdicts = checked.absint_result.verdicts
        assert [v.verdict for v in verdicts] == ["interval-confirmed"]
        assert checked.absint_result.refuted == 0

    def test_verdicts_serialize_with_location_and_line(self):
        checked = check_ok(PARTITIONED, "part.c")
        d = checked.absint_result.verdicts[0].as_dict()
        assert d["location"] == "buf"
        assert d["line"] == 5  # the lowhalf write, like the race key
        assert d["verdict"] == "interval-refuted"
        assert d["witness"]

    def test_continue_path_does_not_widen_the_index(self):
        """The path after ``continue`` is dead: the if-join keeps the
        fall-through state alone, so ``j = 40`` never reaches the
        ``buf[j]`` write and the partition still refutes."""
        source = PARTITIONED.replace(
            "  for (i = 0; i < 32; i++) buf[i] = buf[i] + 1;",
            "  int j;\n"
            "  for (i = 0; i < 32; i++) {\n"
            "    j = i;\n"
            "    if (i == 7) { j = 40; continue; }\n"
            "    buf[j] = buf[j] + 1;\n"
            "  }", 1)
        checked = check_ok(source, "part3.c")
        verdicts = checked.absint_result.verdicts
        assert [v.verdict for v in verdicts] == ["interval-refuted"]
        assert verdicts[0].witness["lowhalf"] == [0, 31]

    def test_break_path_does_not_widen_the_index(self):
        """Likewise after ``break``: the bail-out path's ``j = 40``
        leaves the loop without reaching the write."""
        source = PARTITIONED.replace(
            "  for (i = 0; i < 32; i++) buf[i] = buf[i] + 1;",
            "  int j;\n"
            "  for (i = 0; i < 32; i++) {\n"
            "    j = i;\n"
            "    if (i == 7) { j = 40; break; }\n"
            "    buf[j] = buf[j] + 1;\n"
            "  }", 1)
        checked = check_ok(source, "part4.c")
        verdicts = checked.absint_result.verdicts
        assert [v.verdict for v in verdicts] == ["interval-refuted"]
        assert verdicts[0].witness["lowhalf"] == [0, 31]

    def test_refutation_never_drops_the_diagnostic(self):
        """Verdicts decorate the lockset findings; the static-race
        diagnostic itself must survive (the refutation is advisory —
        it has no soundness guarantee to stand on)."""
        checked = check_ok(PARTITIONED, "part.c")
        assert checked.lockset_result.races
