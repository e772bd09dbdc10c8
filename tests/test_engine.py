"""Reference engine semantics: pair validation, null-by-default, silence,
stop conditions, and run metrics."""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcountlab import engine
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
from popcountlab.schedulers import make_scheduler, SchedulerKind


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
    def test_a_rule_that_leaves_the_bits_fails(self, through_run):
        # every successor is checked like a configuration built by hand
        bad = (FlipBst, lambda bst, mark: (flip_step(bst, mark)[0], 2))
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        scheduler = make_scheduler(SchedulerKind.BST_ONLY, seed=0)
        stop = StopCondition(StopKind.COUNT_REACHES_N)
        with mock.patch.dict(engine._PROTOCOLS, {ProtocolId.FLIP: bad}):
            with pytest.raises(ValueError, match=r"^marks must all be 0 or 1$"):
                if through_run:
                    run(ProtocolId.FLIP, scheduler, config, stop)
                else:
                    apply_interaction(ProtocolId.FLIP, config, (BST, 0))

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
        assert resolve_limits(ProtocolId.FLIP, 4, stop) == (UNBOUNDED, 50, False)
        stop = StopCondition(StopKind.COUNT_REACHES_N, 70)
        assert resolve_limits(ProtocolId.FLIP, 4, stop) == (UNBOUNDED, 70, True)
        budget, cap, halt = resolve_limits(
            ProtocolId.FLIP, 4, StopCondition(StopKind.COUNT_REACHES_N)
        )
        assert halt and budget == default_budget(ProtocolId.FLIP, 4)
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
