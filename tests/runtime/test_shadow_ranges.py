"""Tests for ``ShadowMemory.granules`` and the range-batched check APIs
(``chkread_range`` / ``chkwrite_range`` / the ``range_threshold``
delegation), plus the ``recheck`` guard consumed by the static check
eliminator.

The load-bearing property: the range walk is *semantically identical* to
the scalar walk — same conflict, same slow count, same bitmap, ``last``,
cache, and counter effects — so routing a check through either path can
never change a run's reports, step counts, or scheduling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import Loc
from repro.runtime.shadow import GRANULE_SHIFT, ShadowMemory

LOC = Loc("t.c", 1)
G = 1 << GRANULE_SHIFT  # granule size in bytes


class TestGranules:
    def test_zero_size_access_still_touches_one_granule(self):
        # A zero-byte access (empty struct, zero-length memcpy) is
        # checked as if it read one byte: sharing bugs don't vanish
        # because sizeof said 0.
        assert list(ShadowMemory.granules(0x100, 0)) == [0x10]
        assert list(ShadowMemory.granules(0x100, 1)) == [0x10]

    def test_intra_granule_access_is_one_granule(self):
        assert list(ShadowMemory.granules(0x100, G)) == [0x10]
        assert list(ShadowMemory.granules(0x10F, 1)) == [0x10]

    def test_straddling_a_granule_boundary(self):
        # 4 bytes starting 2 before the boundary cover two granules.
        assert list(ShadowMemory.granules(0x10E, 4)) == [0x10, 0x11]

    def test_exact_multi_granule_span(self):
        assert list(ShadowMemory.granules(0x100, 4 * G)) == \
            [0x10, 0x11, 0x12, 0x13]

    def test_one_past_the_span_is_excluded(self):
        assert 0x11 not in ShadowMemory.granules(0x100, G)


class TestRangeAPIs:
    def test_range_degenerates_to_single_granule(self):
        a, b = ShadowMemory(nbytes=1), ShadowMemory(nbytes=1)
        got = a.chkread_range(0x100, 4, 1, "x", LOC)
        want = b.chkread(0x100, 4, 1, "x", LOC)
        assert got == want
        assert a.bits == b.bits

    def test_range_write_sets_writer_bit_on_every_granule(self):
        shadow = ShadowMemory(nbytes=1)
        conflict, slow = shadow.chkwrite_range(0x100, 4 * G, 2, "buf",
                                               LOC)
        assert conflict is None and slow == 4
        assert shadow.bits == {g: (1 << 2) | 1
                               for g in range(0x10, 0x14)}

    def test_range_read_reports_foreign_writer(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.chkwrite(0x120, 4, 2, "buf[2]", Loc("t.c", 9))
        conflict, _ = shadow.chkread_range(0x100, 4 * G, 1, "buf", LOC)
        assert conflict is not None
        assert conflict.tid == 2 and conflict.is_write
        assert conflict.loc.line == 9

    def test_repeat_range_takes_the_cache_fast_path(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.chkread_range(0x100, 4 * G, 1, "buf", LOC)
        walks = shadow.range_calls
        _, slow = shadow.chkread_range(0x100, 4 * G, 1, "buf", LOC)
        assert slow == 0
        assert shadow.range_calls == walks  # cache hit: no walk at all

    def test_scalar_checks_delegate_above_the_threshold(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.range_threshold = 2
        shadow.chkread(0x100, 4 * G, 1, "buf", LOC)
        assert shadow.range_calls == 1
        shadow.chkread(0x200, G, 1, "x", LOC)  # below threshold
        assert shadow.range_calls == 1


class TestRecheck:
    def test_recheck_misses_on_a_cold_cache(self):
        shadow = ShadowMemory(nbytes=1)
        assert not shadow.recheck(0x100, 4, 1, False)

    def test_recheck_hits_after_the_same_check(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.chkread(0x100, 4, 1, "x", LOC)
        updates = shadow.updates
        assert shadow.recheck(0x100, 4, 1, False)
        assert shadow.updates == updates + 1  # same accounting as a hit

    def test_recheck_misses_after_foreign_shadow_mutation(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.chkread(0x100, 4, 1, "x", LOC)
        shadow.chkread(0x200, 4, 2, "y", LOC)  # bumps the version
        assert not shadow.recheck(0x100, 4, 1, False)

    def test_read_cache_does_not_authorize_a_write(self):
        shadow = ShadowMemory(nbytes=1)
        shadow.chkread(0x100, 4, 1, "x", LOC)
        assert not shadow.recheck(0x100, 4, 1, True)
        shadow.chkwrite(0x100, 4, 1, "x", LOC)
        assert shadow.recheck(0x100, 4, 1, True)
        assert shadow.recheck(0x100, 4, 1, False)  # write covers reads


def _state(shadow):
    return (shadow.updates, shadow.fastpath_hits, dict(shadow.last),
            dict(shadow.last_writer), dict(shadow._cache),
            shadow._version)


class TestRecheckLocked:
    """``recheck_locked`` starts with ``recheck`` itself: on a cache hit
    it has exactly the guard's effects and nothing more."""

    @pytest.mark.parametrize("is_write", [False, True])
    def test_cache_hit_has_exactly_the_recheck_effects(self, is_write):
        shadows = [ShadowMemory(nbytes=1), ShadowMemory(nbytes=1)]
        for shadow in shadows:
            shadow.chkwrite(0x100, 2 * G, 1, "x", LOC)
        assert shadows[0].recheck(0x100, 2 * G, 1, is_write)
        assert shadows[1].recheck_locked(0x100, 2 * G, 1, is_write,
                                         "y", Loc("t.c", 9))
        assert _state(shadows[0]) == _state(shadows[1])
        # a hit records no new last access: "y" at line 9 never lands
        assert all(acc.lvalue == "x" for acc in shadows[1].last.values())

    def test_miss_replays_the_full_check_instead(self):
        """After a foreign mutation the cache misses; the bitmap probe
        then charges the same effects the full check would have."""
        guarded, full = ShadowMemory(nbytes=1), ShadowMemory(nbytes=1)
        for shadow in (guarded, full):
            shadow.chkwrite(0x100, 4, 1, "x", LOC)
            shadow.chkread(0x200, 4, 2, "y", LOC)  # bumps the version
        assert not guarded.recheck(0x100, 4, 1, False)
        assert guarded.recheck_locked(0x100, 4, 1, False, "x", LOC)
        assert full.chkread(0x100, 4, 1, "x", LOC) == (None, 0)
        assert (guarded.updates, guarded.last, guarded.last_writer,
                guarded._cache) \
            == (full.updates, full.last, full.last_writer, full._cache)


def _key(conflict):
    return (None if conflict is None
            else (conflict.tid, conflict.is_write, conflict.lvalue))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["r", "w"]),
                          st.integers(min_value=1, max_value=7),
                          st.integers(min_value=0, max_value=40),
                          st.integers(min_value=0, max_value=4 * G)),
                max_size=30))
def test_range_walk_equivalent_to_scalar_walk(ops):
    """Property: the same access sequence routed through the range walk
    (threshold 1) and the scalar walk (threshold effectively infinite)
    produces identical conflicts, slow counts, bitmaps, and counters —
    the soundness bedrock of the batching optimisation."""
    ranged = ShadowMemory(nbytes=1)
    ranged.range_threshold = 1
    scalar = ShadowMemory(nbytes=1)
    scalar.range_threshold = 1 << 60
    for kind, tid, slot, size in ops:
        addr = 0x100 + slot * 8  # deliberately granule-unaligned
        check_a = ranged.chkwrite if kind == "w" else ranged.chkread
        check_b = scalar.chkwrite if kind == "w" else scalar.chkread
        conflict_a, slow_a = check_a(addr, size, tid, "x", LOC)
        conflict_b, slow_b = check_b(addr, size, tid, "x", LOC)
        assert _key(conflict_a) == _key(conflict_b)
        assert slow_a == slow_b
    assert ranged.bits == scalar.bits
    assert ranged.updates == scalar.updates
    assert ranged.fastpath_hits == scalar.fastpath_hits
    assert {g: _key(a) for g, a in ranged.last.items()} == \
        {g: _key(a) for g, a in scalar.last.items()}
    assert {g: _key(a) for g, a in ranged.last_writer.items()} == \
        {g: _key(a) for g, a in scalar.last_writer.items()}
