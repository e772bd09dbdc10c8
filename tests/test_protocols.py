"""Unit and property tests for the transition rules."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from popcountlab import protocols
from popcountlab.protocols import (
    SINK_NAME,
    FlipBst,
    GrosBst,
    NameOverflow,
    TimeOptBst,
    flip_step,
    gros_bst_step,
    gros_mobile_step,
    gros_term,
    phase_threshold,
    timeopt_step,
)


class TestPhaseThreshold:
    def test_small_counts_share_the_base_threshold(self):
        assert phase_threshold(0) == 6.0
        assert phase_threshold(1) == 6.0

    def test_formula_from_two(self):
        assert phase_threshold(2) == 6.0 * (2 * math.log(2) + 1.0)
        assert phase_threshold(5) == 6.0 * (5 * math.log(5) + 1.0)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_nondecreasing(self, converted):
        assert phase_threshold(converted) <= phase_threshold(converted + 1)


class TestBstRecords:
    def test_estimate_is_derived_from_the_counters(self):
        assert FlipBst(c0=2, c1=3).c == 5
        assert TimeOptBst(c0=1, c1=4, cnt=2, phase=1).c == 5
        for record in (FlipBst, TimeOptBst):
            with pytest.raises(TypeError):
                record(c0=1, c1=1, c=3)


class TestFlipStep:
    def test_mints_credit_on_fresh_mark(self):
        bst, mark = flip_step(FlipBst(), 0)
        assert (bst, mark) == (FlipBst(c0=0, c1=1), 1)

    def test_moves_credit_when_available(self):
        bst, mark = flip_step(FlipBst(c0=2, c1=1), 0)
        assert (bst, mark) == (FlipBst(c0=1, c1=2), 1)
        bst, mark = flip_step(FlipBst(c0=2, c1=1), 1)
        assert (bst, mark) == (FlipBst(c0=3, c1=0), 0)

    def test_two_agent_trace(self):
        # all-zero pair seen alternately: 0 -> 1 -> 0 -> 1 keeps c at 1
        bst = FlipBst()
        marks = [0, 0]
        for i in (0, 0, 0, 0):
            bst, marks[i] = flip_step(bst, marks[i])
        assert bst.c == 1
        # seeing both agents while all-same then flipping all reaches c = 2
        bst = FlipBst()
        marks = [0, 0]
        for i in (0, 1, 0, 1):
            bst, marks[i] = flip_step(bst, marks[i])
        assert bst.c == 2 and marks == [0, 0]

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=1),
    )
    def test_always_flips_and_never_shrinks(self, c0, c1, mark):
        before = FlipBst(c0=c0, c1=c1)
        after, new_mark = flip_step(before, mark)
        assert new_mark == 1 - mark
        assert after.c >= before.c
        assert after.c == after.c0 + after.c1

    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
        st.sampled_from([0, 1, True]),
    )
    def test_memoized_rule_is_the_rule(self, c0, c1, mark):
        rule = protocols._flip_counters
        assert flip_step(FlipBst(c0=c0, c1=c1), mark) == rule.__wrapped__(c0, c1, mark)
        assert rule(c0, c1, mark) == rule.__wrapped__(c0, c1, mark)

    def test_memo_stays_bounded(self):
        for c0 in range(70):
            for c1 in range(70):
                flip_step(FlipBst(c0=c0, c1=c1), 0)
        info = protocols._flip_counters.cache_info()
        assert info.maxsize == 4096 and info.currsize <= 4096


def _timeopt_states():
    return st.builds(
        lambda c0, c1, cnt, phase: TimeOptBst(
            c0=c0, c1=c1, cnt=cnt, phase=phase
        ),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=1),
    )


def _timeopt_reference(bst, mark):
    """The phased rule with its conversion written through flip_step on a
    FlipBst record, which the rule's int-keyed conversion must equal."""
    c0, c1, cnt, phase = bst.c0, bst.c1, bst.cnt, bst.phase
    if mark == phase:
        counters, mark = flip_step(FlipBst(c0, c1), mark)
        return TimeOptBst(counters.c0, counters.c1, cnt=0, phase=phase), mark
    converted = c1 if phase == 0 else c0
    remaining = c0 if phase == 0 else c1
    if cnt >= phase_threshold(converted):
        return TimeOptBst(c0, c1, cnt=0, phase=1 - phase), mark
    if remaining == 0:
        cnt += 1
    return TimeOptBst(c0, c1, cnt=cnt, phase=phase), mark


class TestTimeOptStep:
    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=1),
        st.sampled_from([0, 1, True]),
    )
    def test_conversion_is_flips_rule(self, c0, c1, cnt, phase, mark):
        bst = TimeOptBst(c0=c0, c1=c1, cnt=cnt, phase=phase)
        assert timeopt_step(bst, mark) == _timeopt_reference(bst, mark)

    def test_conversion_resets_streak_and_flips_mark(self):
        bst, mark = timeopt_step(TimeOptBst(cnt=3), 0)
        assert mark == 1
        assert bst == TimeOptBst(c0=0, c1=1, cnt=0, phase=0)

    def test_conversion_moves_credit_when_available(self):
        before = TimeOptBst(c0=2, c1=1, cnt=0, phase=0)
        bst, mark = timeopt_step(before, 0)
        assert (bst.c0, bst.c1, bst.c, mark) == (1, 2, 3, 1)

    def test_opposite_mark_is_null_while_credit_remains(self):
        before = TimeOptBst(c0=2, c1=1, cnt=0, phase=0)
        bst, mark = timeopt_step(before, 1)
        assert (bst, mark) == (before, 1)

    def test_opposite_mark_extends_streak_when_drained(self):
        before = TimeOptBst(c0=0, c1=3, cnt=0, phase=0)
        bst, mark = timeopt_step(before, 1)
        assert (bst, mark) == (TimeOptBst(c0=0, c1=3, cnt=1, phase=0), 1)

    def test_phase_flips_at_threshold(self):
        # converted = c1 = 1 in phase 0, so the threshold is 6
        before = TimeOptBst(c0=0, c1=1, cnt=6, phase=0)
        bst, mark = timeopt_step(before, 1)
        assert (bst.phase, bst.cnt, mark) == (1, 0, 1)
        below = TimeOptBst(c0=0, c1=1, cnt=5, phase=0)
        bst, mark = timeopt_step(below, 1)
        assert (bst, mark) == (TimeOptBst(c0=0, c1=1, cnt=6, phase=0), 1)

    def test_phase_one_mirrors_phase_zero(self):
        # phase 1 converts mark-1 agents back to 0, draining c1 into c0
        before = TimeOptBst(c0=0, c1=1, cnt=0, phase=1)
        bst, mark = timeopt_step(before, 1)
        assert (bst.c0, bst.c1, mark, bst.phase) == (1, 0, 0, 1)

    @given(_timeopt_states(), st.integers(min_value=0, max_value=1))
    def test_estimate_never_shrinks(self, before, mark):
        after, new_mark = timeopt_step(before, mark)
        assert after.c >= before.c
        assert after.c == after.c0 + after.c1
        assert new_mark in (0, 1)

    @given(_timeopt_states(), st.integers(min_value=0, max_value=1))
    def test_only_phase_marks_convert(self, before, mark):
        after, new_mark = timeopt_step(before, mark)
        if mark == before.phase:
            assert new_mark == 1 - mark and after.cnt == 0
        else:
            assert new_mark == mark and after.c == before.c


class TestGrosTerm:
    def test_matches_recursive_expansion(self):
        seq = []
        for m in range(1, 7):
            seq = seq + [m] + seq
        assert [gros_term(k) for k in range(1, len(seq) + 1)] == seq

    def test_prefix(self):
        assert [gros_term(k) for k in range(1, 9)] == [1, 2, 1, 3, 1, 2, 1, 4]

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            gros_term(0)

    @given(st.integers(min_value=1, max_value=2 ** 40))
    def test_trailing_zero_form(self, k):
        expected = 1
        while k % (2 ** expected) == 0:
            expected += 1
        assert gros_term(k) == expected


class TestGrosBstStep:
    def test_names_sink_with_next_term(self):
        bst, name = gros_bst_step(GrosBst(k=1, bound=4), SINK_NAME)
        assert (bst, name) == (GrosBst(k=2, bound=4), 1)
        bst, name = gros_bst_step(bst, SINK_NAME)
        assert (bst, name) == (GrosBst(k=3, bound=4), 2)

    def test_named_agent_is_null(self):
        before = GrosBst(k=5, bound=4)
        assert gros_bst_step(before, 2) == (before, 2)

    def test_overflow_when_term_exceeds_names(self):
        # k = 4 produces term 3, too large for names {1, 2}
        with pytest.raises(NameOverflow):
            gros_bst_step(GrosBst(k=4, bound=3), SINK_NAME)

    def test_bound_edge_still_fits(self):
        bst, name = gros_bst_step(GrosBst(k=4, bound=4), SINK_NAME)
        assert (bst.k, name) == (5, 3)


class TestGrosMobileStep:
    def test_homonyms_collapse_to_sinks(self):
        assert gros_mobile_step(3, 3) == (SINK_NAME, SINK_NAME)

    def test_sink_pair_is_null(self):
        assert gros_mobile_step(SINK_NAME, SINK_NAME) == (SINK_NAME, SINK_NAME)

    def test_distinct_names_are_null(self):
        assert gros_mobile_step(1, 2) == (1, 2)
        assert gros_mobile_step(SINK_NAME, 2) == (SINK_NAME, 2)

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
    def test_symmetric(self, s1, s2):
        a, b = gros_mobile_step(s1, s2)
        c, d = gros_mobile_step(s2, s1)
        assert (a, b) == (d, c)
