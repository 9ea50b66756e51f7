"""Unit tests for the metrics (repro.runtime.stats)."""

import pytest

from repro.runtime.stats import RunStats, time_overhead


class TestPctDynamic:
    def test_zero_accesses(self):
        assert RunStats().pct_dynamic == 0.0

    def test_fraction(self):
        stats = RunStats(accesses_total=200, accesses_dynamic=80)
        assert stats.pct_dynamic == 0.4


class TestMemoryOverhead:
    def test_zero_data(self):
        assert RunStats().memory_overhead() == 0.0

    def test_byte_ratio(self):
        stats = RunStats(data_bytes=1000, shadow_bytes=50, rc_bytes=30)
        assert stats.memory_overhead() == 0.08

    def test_metadata_pages(self):
        stats = RunStats(pages_shadow=2, pages_rc=3)
        assert stats.metadata_pages == 5


class TestTimeOverhead:
    def test_zero_base(self):
        assert time_overhead(RunStats(), RunStats(steps_total=10)) == 0.0

    def test_relative(self):
        base = RunStats(steps_total=1000)
        inst = RunStats(steps_total=1120)
        assert abs(time_overhead(base, inst) - 0.12) < 1e-9

    def test_negative_possible(self):
        # instrumented may be (spuriously) faster on tiny runs
        base = RunStats(steps_total=100)
        inst = RunStats(steps_total=90)
        assert time_overhead(base, inst) < 0


class TestStepsPerSec:
    def test_zero_wall(self):
        assert RunStats(steps_total=100).steps_per_sec == 0.0

    def test_negative_wall_guarded(self):
        # A corrupt / backwards clock must not produce a negative rate.
        assert RunStats(steps_total=100,
                        wall_seconds=-0.5).steps_per_sec == 0.0

    def test_rate(self):
        stats = RunStats(steps_total=100, wall_seconds=0.5)
        assert stats.steps_per_sec == 200.0


class TestCheckFastpathRate:
    def test_zero_updates(self):
        assert RunStats().check_fastpath_rate == 0.0
        assert RunStats(shadow_fastpath_hits=3,
                        shadow_updates=-1).check_fastpath_rate == 0.0

    def test_fraction(self):
        stats = RunStats(shadow_updates=40, shadow_fastpath_hits=10)
        assert stats.check_fastpath_rate == 0.25


def _walked_share(stats: RunStats) -> float:
    walked = stats.checks_full + stats.checks_range
    return walked / (walked + stats.checks_elided
                     + stats.checks_locked_refined)


# `shared` is re-read with no yield in between (checkelim elides the
# second read); `counter` is consistently locked but not annotated
# (the lockset pass refines it to locked(lk)).
BOTH_DISCHARGES = """
mutex lk;
int counter = 0;
int shared = 0;
void *w(void *a) {
  int i; int x;
  for (i = 0; i < 10; i++) {
    mutexLock(&lk);
    counter = counter + 1;
    mutexUnlock(&lk);
    x = shared;
    x = x + shared;
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


class TestDischargeShares:
    """The elided and locked shares divide by the same total: every
    check past the solo test, walked or discharged."""

    def test_shares_partition_the_checks(self):
        stats = RunStats(checks_full=49, checks_range=1,
                         checks_elided=20, checks_locked_refined=10)
        assert stats.checks_elided_pct == 0.25
        assert stats.checks_locked_pct == 0.125
        assert _walked_share(stats) == 0.625

    def test_no_checks(self):
        assert RunStats().checks_elided_pct == 0.0
        assert RunStats().checks_locked_pct == 0.0

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_program_with_both_discharges(self, backend):
        from tests.conftest import check_ok
        from repro.runtime.interp import run_checked

        checked = check_ok(BOTH_DISCHARGES)
        for seed in range(3):
            stats = run_checked(checked, seed=seed,
                                backend=backend).stats
            assert stats.checks_elided > 0
            assert stats.checks_locked_refined > 0
            assert stats.checks_elided_pct + stats.checks_locked_pct \
                + _walked_share(stats) == pytest.approx(1.0)


class TestGuardUniformity:
    """Every ratio treats a zero *or negative* denominator as 0.0."""

    def test_negative_denominators(self):
        stats = RunStats(accesses_total=-5, accesses_dynamic=2,
                         data_bytes=-100, shadow_bytes=10)
        assert stats.pct_dynamic == 0.0
        assert stats.memory_overhead() == 0.0
        base = RunStats(steps_total=-10)
        assert time_overhead(base, RunStats(steps_total=10)) == 0.0


def test_summary_renders_key_numbers():
    stats = RunStats(steps_total=42, steps_checks=7, steps_rc=3,
                     accesses_total=10, accesses_dynamic=5,
                     pages_program=2, pages_shadow=1, pages_rc=1)
    text = stats.summary()
    assert "steps=42" in text
    assert "50.0%" in text
