"""Reference engine semantics: pair validation, null-by-default, silence,
stop conditions, and run metrics."""

import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcountlab import engine, protocols
from popcountlab.engine import (
    BST,
    Configuration,
    InvalidPair,
    InvariantViolation,
    StopCondition,
    StopKind,
    TagMismatch,
    UNBOUNDED,
    apply_interaction,
    default_budget,
    initial_configuration,
    resolve_limits,
    run,
)
from popcountlab.protocols import (
    FlipBst,
    GrosBst,
    ProtocolId,
    TimeOptBst,
    flip_step,
    gros_term,
)
from popcountlab.schedulers import BstOnlyScheduler, make_scheduler, SchedulerKind


class ScriptedScheduler:
    """Hands out the given pairs in order."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.drawn = 0

    def next_pair(self, config):
        self.drawn += 1
        return self.pairs[self.drawn - 1]


class TestConfiguration:
    def test_initial_defaults(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 1, 0])
        assert config.bst == FlipBst(c0=0, c1=0)
        assert config.n == 3

    def test_naming_bound_defaults_to_n_plus_one(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 0])
        assert config.bst == GrosBst(k=1, bound=3)
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 0], bound=9)
        assert config.bst.bound == 9

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            initial_configuration(ProtocolId.FLIP, [])

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            initial_configuration(ProtocolId.TIME_OPT, [0, 2])

    @pytest.mark.parametrize("bst", [FlipBst(), TimeOptBst()])
    @pytest.mark.parametrize("mark", [2, -1, 0.5, None, [0]])
    def test_each_non_bit_is_rejected_with_the_same_error(self, bst, mark):
        with pytest.raises(ValueError, match=r"^marks must all be 0 or 1$") as error:
            Configuration(bst, (0, mark))
        assert error.type is ValueError

    def test_accepts_bools_as_bits(self):
        # True == 1, as `value in (0, 1)` has it
        assert Configuration(FlipBst(), (True, 0)).mobiles == (1, 0)

    @pytest.mark.parametrize("name", [-1, 3])
    def test_names_outside_bound_are_reported(self, name):
        text = rf"^name {name} outside \[0, 3\) state space$"
        with pytest.raises(ValueError, match=text) as error:
            Configuration(GrosBst(bound=3), (0, name))
        assert error.type is ValueError

    def test_rejects_names_outside_bound(self):
        with pytest.raises(ValueError):
            initial_configuration(ProtocolId.GROS_NAMING, [0, 3], bound=3)
        with pytest.raises(ValueError):
            initial_configuration(ProtocolId.GROS_NAMING, [0, -1])


# one record of each protocol, with mobiles from its state space
_STARTS = [
    (FlipBst(c0=2, c1=1), (0, 1, 1)),
    (TimeOptBst(c0=1, c1=3, cnt=4, phase=1), (1, 1, 0, 1)),
    (GrosBst(k=5, bound=9), (0, 3, 8)),
]
_STATES = [bst for bst, _ in _STARTS] + [Configuration(*start) for start in _STARTS]


class TestSlottedStates:
    @pytest.mark.parametrize("bst, mobiles", _STARTS)
    def test_a_successor_is_the_configuration(self, bst, mobiles):
        built = engine._successor(bst, mobiles)
        assert type(built) is Configuration
        assert built == Configuration(bst, mobiles)
        assert hash(built) == hash(Configuration(bst, mobiles))

    @pytest.mark.parametrize("state", _STATES)
    def test_no_instance_has_a_dict(self, state):
        assert not hasattr(state, "__dict__")

    @pytest.mark.parametrize("state", _STATES)
    def test_fields_stay_frozen(self, state):
        field = dataclasses.fields(state)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, field, getattr(state, field))

    @pytest.mark.parametrize("state", _STATES)
    def test_copies_are_equal(self, state):
        for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert copied == state and hash(copied) == hash(state)


# the text of a name one past the last of bound 3 (n = 2)
NAME_3_OUTSIDE = r"^name 3 outside \[0, 3\) state space$"


class TestApplyInteraction:
    def test_bst_must_come_first(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        with pytest.raises(InvalidPair):
            apply_interaction(ProtocolId.FLIP, config, (0, BST))

    def test_rejects_out_of_range_and_self_pairs(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        for pair in ((BST, 2), (BST, -2), (0, 0), (0, 5), (7, 1)):
            with pytest.raises(InvalidPair):
                apply_interaction(ProtocolId.FLIP, config, pair)
        for pair in (None, (0,), (BST, 0, 1)):
            with pytest.raises(InvalidPair) as caught:
                apply_interaction(ProtocolId.FLIP, config, pair)
            assert str(caught.value) == f"pair must have two participants, got {pair!r}"

    def test_rejects_wrong_protocol(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        with pytest.raises(TagMismatch):
            apply_interaction(ProtocolId.GROS_NAMING, config, (BST, 0))

    def test_tag_is_checked_before_the_pair(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        for pair in ((0, 0), (5,), None):
            with pytest.raises(TagMismatch):
                apply_interaction(ProtocolId.GROS_NAMING, config, pair)

    @pytest.mark.parametrize("through_run", [False, True], ids=["apply", "run"])
    @pytest.mark.parametrize("mark", [2, -1, 0.5, None, [0]])
    def test_a_rule_that_leaves_the_bits_fails(self, through_run, mark):
        # every successor is checked like a configuration built by hand
        bad = (FlipBst, lambda bst, old: (flip_step(bst, old)[0], mark))
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        stop = StopCondition(StopKind.COUNT_REACHES_N)
        with mock.patch.dict(engine._PROTOCOLS, {ProtocolId.FLIP: bad}):
            with pytest.raises(ValueError, match=r"^marks must all be 0 or 1$"):
                if through_run:
                    run(ProtocolId.FLIP, scheduler, config, stop)
                else:
                    apply_interaction(ProtocolId.FLIP, config, (BST, 0))

    def test_a_rule_that_writes_true_passes(self):
        # True == 1, as construction accepts it
        def as_bool(bst, old):
            bst, mark = flip_step(bst, old)
            return bst, mark == 1

        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        stop = StopCondition(StopKind.COUNT_REACHES_N)
        bools = (FlipBst, as_bool)
        with mock.patch.dict(engine._PROTOCOLS, {ProtocolId.FLIP: bools}):
            after, _, _ = apply_interaction(ProtocolId.FLIP, config, (BST, 0))
            _, record = run(ProtocolId.FLIP, scheduler, config, stop)
        assert after.mobiles == (True, 0)
        assert record.converged

    @pytest.mark.parametrize("through_run", [False, True], ids=["apply", "run"])
    def test_a_base_station_rule_that_leaves_the_names_fails(self, through_run):
        # the named agent gets the bound itself, one past the last name
        bad = (GrosBst, lambda bst, name: (bst, bst.bound))
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 0])
        stop = StopCondition(StopKind.COUNT_REACHES_N)
        with mock.patch.dict(engine._PROTOCOLS, {ProtocolId.GROS_NAMING: bad}):
            with pytest.raises(ValueError, match=NAME_3_OUTSIDE):
                if through_run:
                    scheduler = make_scheduler(SchedulerKind.ROUND_ROBIN)
                    run(ProtocolId.GROS_NAMING, scheduler, config, stop)
                else:
                    apply_interaction(ProtocolId.GROS_NAMING, config, (BST, 0))

    @pytest.mark.parametrize("through_run", [False, True], ids=["apply", "run"])
    @pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
    def test_a_mobile_rule_that_leaves_the_names_fails(self, through_run, side):
        # a homonym pair where one side gets the bound, one past the last name
        def bad(s1, s2):
            return (3, s2) if side == 0 else (s1, 3)

        config = initial_configuration(ProtocolId.GROS_NAMING, [1, 1])
        stop = StopCondition(StopKind.COUNT_REACHES_N)
        with mock.patch.object(protocols, "gros_mobile_step", bad):
            with pytest.raises(ValueError, match=NAME_3_OUTSIDE):
                if through_run:
                    scheduler = make_scheduler(SchedulerKind.ROUND_ROBIN)
                    run(ProtocolId.GROS_NAMING, scheduler, config, stop)
                else:
                    apply_interaction(ProtocolId.GROS_NAMING, config, (0, 1))

    def test_null_returns_the_same_object(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 1])
        after, non_null, with_bst = apply_interaction(ProtocolId.FLIP, config, (0, 1))
        assert after is config and not non_null and not with_bst

    def test_flip_meeting_is_always_non_null(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 1])
        after, non_null, with_bst = apply_interaction(ProtocolId.FLIP, config, (BST, 0))
        assert non_null and with_bst
        assert after.mobiles == (1, 1)
        assert after.bst.c == 1
        assert config.mobiles == (0, 1)  # input untouched

    def test_homonym_collision_in_either_order(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [2, 0, 2], bound=4)
        for pair in ((0, 2), (2, 0)):
            after, non_null, with_bst = apply_interaction(
                ProtocolId.GROS_NAMING, config, pair
            )
            assert non_null and not with_bst
            assert after.mobiles == (0, 0, 0)

    def test_naming_advances_the_sequence(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 0])
        after, _, _ = apply_interaction(ProtocolId.GROS_NAMING, config, (BST, 1))
        assert after.mobiles == (0, 1)
        assert after.bst.k == 2


def _brute_force_silent(protocol, config):
    n = config.n
    pairs = [(BST, i) for i in range(n)]
    pairs += [(i, j) for i in range(n) for j in range(i + 1, n)]
    return not any(apply_interaction(protocol, config, p)[1] for p in pairs)


class TestIsSilent:
    @given(
        st.integers(2, 7).flatmap(
            lambda bound: st.tuples(
                st.just(bound),
                st.lists(st.integers(0, bound - 1), min_size=1, max_size=6),
                st.integers(1, 64),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_for_naming(self, case):
        bound, names, k = case
        assume(gros_term(k) <= bound - 1)  # keep the brute force overflow-free
        config = Configuration(
            bst=GrosBst(k=k, bound=bound), mobiles=tuple(names)
        )
        silent = _brute_force_silent(ProtocolId.GROS_NAMING, config)
        # the engine stops a naming run when its count of names reaches n
        assert (engine._count(config) == config.n) == silent


class TestStopAndLimits:
    def test_max_interactions_needs_a_bound(self):
        with pytest.raises(ValueError):
            StopCondition(StopKind.MAX_INTERACTIONS)
        with pytest.raises(ValueError):
            StopCondition(StopKind.COUNT_REACHES_N, bound=0)

    def test_resolve_forms(self):
        stop = StopCondition(StopKind.MAX_INTERACTIONS, 50)
        assert resolve_limits(ProtocolId.FLIP, 4, stop) == (UNBOUNDED, 50)
        stop = StopCondition(StopKind.COUNT_REACHES_N, 70)
        assert resolve_limits(ProtocolId.FLIP, 4, stop) == (UNBOUNDED, 70)
        budget, cap = resolve_limits(
            ProtocolId.FLIP, 4, StopCondition(StopKind.COUNT_REACHES_N)
        )
        assert budget == default_budget(ProtocolId.FLIP, 4)
        assert cap == 64 + 8 * 5 * budget

    def test_default_budgets(self):
        assert default_budget(ProtocolId.FLIP, 3) == 64 * 16
        assert default_budget(ProtocolId.FLIP, 4) == 64 * 32
        assert default_budget(ProtocolId.GROS_NAMING, 4) == 16 * 16
        assert default_budget(ProtocolId.TIME_OPT, 8) == math.ceil(
            64 * 8 * math.log(9)
        )

    def test_huge_population_budget_avoids_exact_sums(self):
        assert default_budget(ProtocolId.FLIP, 100) == 64 * 2 ** 101


class TestFlipWalk:
    @settings(max_examples=100, deadline=None)
    @given(
        marks=st.integers(1, 10).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
        ),
        zeros=st.booleans(),
        kind=st.sampled_from([SchedulerKind.BST_ONLY, SchedulerKind.UNIFORM_PAIR]),
        seed=st.integers(0, 2 ** 32),
    )
    def test_flip_counters_follow_the_count_of_ones(self, marks, zeros, kind, seed):
        # From zeroed counters c1 is the count of ones less the fewest so
        # far and c0 the most so far less the count, so c is the spread of
        # the ones walk.  From all zeros the fewest is 0: c1 is the count
        # and c the most so far, which oracle.flip_hitting_law rests on.
        if zeros:
            marks = [0] * len(marks)
        config = initial_configuration(ProtocolId.FLIP, marks)
        scheduler = make_scheduler(kind, seed)
        most = fewest = sum(marks)
        for _ in range(400):
            pair = scheduler.next_pair(config)
            config, _, _ = apply_interaction(ProtocolId.FLIP, config, pair)
            ones = sum(config.mobiles)
            most, fewest = max(most, ones), min(fewest, ones)
            assert (config.bst.c1, config.bst.c0) == (ones - fewest, most - ones)


class TestStructureCheck:
    def test_the_predicate_is_each_form_it_replaced(self):
        # the forms _step_bits, _block_flip and the flip lanes wrote out,
        # on every count of ones and every pair of seen flags at n <= 6
        for n in range(1, 7):
            full = (1 << n) - 1
            cases = [
                (ones, zero_seen, one_seen)
                for ones in range(n + 1)
                for zero_seen in (False, True)
                for one_seen in (False, True)
            ]
            for ones, zero_seen, one_seen in cases:
                seen = {v for v, s in ((0, zero_seen), (n, one_seen)) if s}
                scalar = 0 < ones < n or n - ones not in seen
                final = (1 << ones) - 1  # marks with `ones` bits set
                opposite_seen = zero_seen if final == full else one_seen
                block = final not in (0, full) or not opposite_seen
                got = engine._structure_broken(n, ones, zero_seen, one_seen)
                assert got == scalar == block
            ones, zero_seen, one_seen = (np.array(c) for c in zip(*cases))
            lanes = ((ones != 0) & (ones != n)) | ~np.where(
                ones == n, zero_seen, one_seen
            )
            got = engine._structure_broken(n, ones, zero_seen, one_seen)
            assert got.dtype == bool and (got == lanes).all()


class TestOptimality:
    @settings(max_examples=200, deadline=None)
    @given(
        protocol=st.sampled_from([ProtocolId.FLIP, ProtocolId.TIME_OPT]),
        marks=st.integers(1, 10).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
        ),
        seed=st.integers(0, 2 ** 32),
    )
    def test_the_count_never_passes_the_agents_met(self, protocol, marks, seed):
        # The paper's optimality argument, run by run: the base station
        # counts an agent only by meeting it, so from zeroed counters its
        # count is at every step at most the distinct agents it has met.
        config = initial_configuration(protocol, marks)
        scheduler = BstOnlyScheduler(seed)
        met = set()
        for _ in range(20_000):
            pair = scheduler.next_pair(config)
            config, _, _ = apply_interaction(protocol, config, pair)
            met.add(pair[1])
            assert config.bst.c <= len(met)
            if config.bst.c == len(marks):
                break


class TestRun:
    def test_adversarial_naming_from_all_sinks(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 0, 0])
        scheduler = make_scheduler(SchedulerKind.WEAK_ADVERSARIAL)
        final, record = run(
            ProtocolId.GROS_NAMING, scheduler, config, StopCondition(StopKind.COUNT_REACHES_N)
        )
        assert record.converged
        assert record.converged_at_non_null == 6
        assert final.mobiles == (3, 2, 1)
        assert record.final_c == 3

    def test_adversarial_naming_from_worst_start(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [0, 1, 2])
        scheduler = make_scheduler(SchedulerKind.WEAK_ADVERSARIAL)
        _, record = run(
            ProtocolId.GROS_NAMING, scheduler, config, StopCondition(StopKind.COUNT_REACHES_N)
        )
        assert record.converged_at_non_null == 10  # 3 * 2^(n-1) - 2 at n = 3
        assert record.final_c == 3

    def test_max_interactions_runs_to_the_bound(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=5)
        _, record = run(
            ProtocolId.FLIP,
            scheduler,
            config,
            StopCondition(StopKind.MAX_INTERACTIONS, 50),
        )
        assert record.total_interactions == 50
        # convergence is still recorded the first time the estimate hits n
        assert record.converged
        assert record.converged_at_bst_interaction < 50
        assert record.final_c == 2

    def test_explicit_cap_truncates(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 6)
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=1)
        _, record = run(
            ProtocolId.FLIP,
            scheduler,
            config,
            StopCondition(StopKind.COUNT_REACHES_N, 2),
        )
        assert record.truncated
        assert record.total_interactions == 2
        assert record.converged_at_bst_interaction is None

    def test_phase_flips_are_counted(self):
        config = initial_configuration(ProtocolId.TIME_OPT, [1, 1])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=3)
        _, record = run(
            ProtocolId.TIME_OPT,
            scheduler,
            config,
            StopCondition(StopKind.COUNT_REACHES_N),
        )
        # an all-one start in phase 0 cannot convert anyone before flipping
        assert record.converged
        assert record.phase_flips >= 1

    def test_flip_runs_report_no_phase_flips(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        _, record = run(
            ProtocolId.FLIP, scheduler, config, StopCondition(StopKind.COUNT_REACHES_N)
        )
        assert record.phase_flips is None

    def test_inconsistent_counters_are_detected(self):
        config = Configuration(
            bst=FlipBst(c0=0, c1=5), mobiles=(0, 0)
        )
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        with pytest.raises(InvariantViolation):
            run(
                ProtocolId.FLIP,
                scheduler,
                config,
                StopCondition(StopKind.MAX_INTERACTIONS, 10),
            )

    @pytest.mark.parametrize(
        "bst,first,non_null,text",
        [
            pytest.param(
                TimeOptBst(c1=3), (0, 1), False,
                "counters c0=0 c1=3 invalid with 2/2 ones",
                id="estimate-null-mobile-pair",
            ),
            pytest.param(
                TimeOptBst(c1=3), (BST, 0), True,
                "counters c0=0 c1=3 invalid with 2/2 ones",
                id="estimate-non-null",
            ),
            pytest.param(
                TimeOptBst(c0=1), (BST, 0), False,
                "counters c0=1 c1=0 invalid with 2/2 ones",
                id="counters-null-bst-meeting",
            ),
        ],
    )
    def test_an_invalid_start_fails_at_the_first_step(self, bst, first, non_null, text):
        # null steps after the first go unchecked; the first checks the start
        config = Configuration(bst, (1, 1))
        assert apply_interaction(ProtocolId.TIME_OPT, config, first)[1] is non_null
        scheduler = ScriptedScheduler([first, (0, 1), (BST, 0)])
        with pytest.raises(InvariantViolation, match=f"^{text}$"):
            run(
                ProtocolId.TIME_OPT,
                scheduler,
                config,
                StopCondition(StopKind.MAX_INTERACTIONS, 3),
            )
        assert scheduler.drawn == 1

    def test_checks_can_be_disabled(self):
        config = Configuration(
            bst=FlipBst(c0=0, c1=5), mobiles=(0, 0)
        )
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        _, record = run(
            ProtocolId.FLIP,
            scheduler,
            config,
            StopCondition(StopKind.MAX_INTERACTIONS, 10),
            check_invariants=False,
        )
        assert record.total_interactions == 10

    def test_naming_under_bst_only_is_rejected_before_the_loop(self):
        # bst-only scheduling never pairs two mobiles: the homonyms of
        # [1, 1, 0, 0] would stay until the cap
        config = initial_configuration(ProtocolId.GROS_NAMING, [1, 1, 0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        with pytest.raises(ValueError, match="adversarial, uniform or roundrobin"):
            run(
                ProtocolId.GROS_NAMING,
                scheduler,
                config,
                StopCondition(StopKind.COUNT_REACHES_N),
            )
        assert scheduler.rng.random() == make_scheduler(
            SchedulerKind.BST_ONLY, seed=0
        ).rng.random()  # nothing was drawn
