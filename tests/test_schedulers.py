"""Scheduler contracts: documented stream consumption, fairness shapes,
and the adversarial schedule's selection rules."""

import gc
import math
import resource
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from popcountlab import kernels
from popcountlab.engine import BST, initial_configuration
from popcountlab.protocols import ProtocolId
from popcountlab.schedulers import (
    READ_AHEAD,
    BstOnlyScheduler,
    IncompatibleProtocol,
    RoundRobinScheduler,
    SchedulerKind,
    UniformPairScheduler,
    WeakAdversarialScheduler,
    make_scheduler,
)


def test_batched_draws_match_single_draws():
    # the kernels rely on this numpy property to replay scheduler streams
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    assert a.random(64).tolist() == [b.random() for _ in range(64)]


class TestBstOnly:
    def test_pairs_alternate_only_the_mobile(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 5)
        scheduler = BstOnlyScheduler(seed=0)
        pairs = [scheduler.next_pair(config) for _ in range(100)]
        assert all(a == BST and 0 <= b < 5 for a, b in pairs)

    def test_uniform_over_mobiles(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 8)
        scheduler = BstOnlyScheduler(seed=2024)
        draws = 200000
        counts = np.zeros(8, dtype=int)
        for _ in range(draws):
            counts[scheduler.next_pair(config)[1]] += 1
        assert stats.chisquare(counts).pvalue > 1e-6

    def test_seed_reproducibility(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 4)
        a = BstOnlyScheduler(seed=9)
        b = BstOnlyScheduler(seed=9)
        assert [a.next_pair(config) for _ in range(50)] == [
            b.next_pair(config) for _ in range(50)
        ]

    def test_consumes_one_double_per_draw(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 6)
        scheduler = BstOnlyScheduler(seed=77)
        replay = np.random.default_rng(77)
        # 1000 draws cross several READ_AHEAD block refills
        for _ in range(1000):
            assert scheduler.next_pair(config) == (BST, int(replay.random() * 6))


class TestUniformPair:
    def test_consumes_two_doubles_per_draw(self):
        n = 5
        config = initial_configuration(ProtocolId.FLIP, [0] * n)
        scheduler = UniformPairScheduler(seed=31)
        replay = np.random.default_rng(31)
        for _ in range(500):
            first = int(replay.random() * (n + 1))
            second = int(replay.random() * n)
            if second >= first:
                second += 1
            if first == n:
                expected = (BST, second)
            elif second == n:
                expected = (BST, first)
            else:
                expected = (min(first, second), max(first, second))
            assert scheduler.next_pair(config) == expected

    def test_pair_shapes(self):
        config = initial_configuration(ProtocolId.FLIP, [0] * 4)
        scheduler = UniformPairScheduler(seed=8)
        for _ in range(300):
            a, b = scheduler.next_pair(config)
            if a == BST:
                assert 0 <= b < 4
            else:
                assert 0 <= a < b < 4

    def test_uniform_over_all_pairs(self):
        n = 4
        config = initial_configuration(ProtocolId.FLIP, [0] * n)
        scheduler = UniformPairScheduler(seed=515)
        pairs = [(BST, i) for i in range(n)] + [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        index = {pair: k for k, pair in enumerate(pairs)}
        counts = np.zeros(len(pairs), dtype=int)
        for _ in range(100000):
            counts[index[scheduler.next_pair(config)]] += 1
        assert stats.chisquare(counts).pvalue > 1e-6


class TestRoundRobin:
    def test_every_window_covers_every_pair_once(self):
        n = 4
        config = initial_configuration(ProtocolId.FLIP, [0] * n)
        scheduler = RoundRobinScheduler()
        window = n + n * (n - 1) // 2
        draws = [scheduler.next_pair(config) for _ in range(3 * window)]
        for offset in range(2 * window):
            chunk = draws[offset : offset + window]
            assert len(set(chunk)) == window

    def test_resets_when_population_changes(self):
        scheduler = RoundRobinScheduler()
        small = initial_configuration(ProtocolId.FLIP, [0] * 2)
        big = initial_configuration(ProtocolId.FLIP, [0] * 3)
        assert scheduler.next_pair(small) == (BST, 0)
        assert scheduler.next_pair(big) == (BST, 0)
        assert scheduler.next_pair(big) == (BST, 1)

    @given(
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=0, max_value=40),
    )
    def test_pairs_are_the_kernels_cycle(self, n, before, drawn_before):
        # a scheduler that served another population first restarts at the
        # cycle's first pair, one that served this one reads on; 3P + 5
        # draws cross the cycle's end three times
        scheduler = RoundRobinScheduler()
        other = initial_configuration(ProtocolId.FLIP, [0] * before)
        for _ in range(drawn_before):
            scheduler.next_pair(other)
        config = initial_configuration(ProtocolId.FLIP, [0] * n)
        draws = 3 * (n * (n + 1) // 2) + 5
        start = drawn_before if before == n else 0
        first, second = kernels._roundrobin_pairs(None, n, start, draws)
        expected = [
            (BST if a == n else a, b) for a, b in zip(first.tolist(), second.tolist())
        ]
        assert [scheduler.next_pair(config) for _ in range(draws)] == expected

    def test_bounded_engine_run_at_large_n_ends_at_once(self):
        # the cycle at n = 10^6 holds 5 * 10^11 pairs; a bounded run draws
        # only the pairs it uses.  The address-space limit makes a run that
        # lists the cycle fail at once rather than fill memory
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        code = (
            "from popcountlab import engine\n"
            "from popcountlab.engine import StopCondition, StopKind\n"
            "from popcountlab.protocols import ProtocolId\n"
            "from popcountlab.schedulers import RoundRobinScheduler\n"
            "config = engine.initial_configuration(ProtocolId.FLIP, [0] * 10**6)\n"
            "stop = StopCondition(StopKind.MAX_INTERACTIONS, 5)\n"
            "_, record = engine.run(ProtocolId.FLIP, RoundRobinScheduler(), config, stop)\n"
            "print(record.total_interactions, record.final_c)\n"
        )
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, preexec_fn=limit, timeout=60,
        )
        assert time.perf_counter() - started < 2
        assert (result.returncode, result.stdout, result.stderr) == (0, "5 5\n", "")


class TestWeakAdversarial:
    def test_serves_the_lowest_sink_first(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [1, 0, 0], bound=4)
        assert WeakAdversarialScheduler().next_pair(config) == (BST, 1)

    def test_collides_the_lowest_homonym_pair(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [1, 2, 2, 1], bound=5)
        assert WeakAdversarialScheduler().next_pair(config) == (0, 3)

    def test_silent_configurations_get_a_null_pair(self):
        config = initial_configuration(ProtocolId.GROS_NAMING, [1, 2, 3], bound=4)
        assert WeakAdversarialScheduler().next_pair(config) == (BST, 0)

    def test_rejects_bit_configurations(self):
        config = initial_configuration(ProtocolId.FLIP, [0, 0])
        with pytest.raises(IncompatibleProtocol):
            WeakAdversarialScheduler().next_pair(config)


def test_make_scheduler_kinds():
    assert isinstance(make_scheduler(SchedulerKind.UNIFORM_PAIR), UniformPairScheduler)
    assert isinstance(make_scheduler(SchedulerKind.BST_ONLY), BstOnlyScheduler)
    assert isinstance(make_scheduler(SchedulerKind.ROUND_ROBIN), RoundRobinScheduler)
    assert isinstance(
        make_scheduler(SchedulerKind.WEAK_ADVERSARIAL), WeakAdversarialScheduler
    )


@pytest.mark.parametrize(
    "kind", [SchedulerKind.BST_ONLY, SchedulerKind.UNIFORM_PAIR], ids=["bst", "uniform"]
)
def test_a_dropped_scheduler_is_freed_without_the_cycle_collector(kind):
    # a scheduler and its read-ahead stream form no reference cycle
    config = initial_configuration(ProtocolId.FLIP, [0] * 3)
    scheduler = make_scheduler(kind, 5)
    scheduler.next_pair(config)
    ref = weakref.ref(scheduler)
    gc.disable()
    try:
        del scheduler
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "kind, doubles_per_draw",
    [(SchedulerKind.BST_ONLY, 1), (SchedulerKind.UNIFORM_PAIR, 2)],
    ids=["bst", "uniform"],
)
def test_make_scheduler_accepts_a_generator(kind, doubles_per_draw):
    # 600 draws take several READ_AHEAD blocks, so refills are crossed
    config = initial_configuration(ProtocolId.FLIP, [0] * 3)
    rng = np.random.default_rng(4)
    shared = make_scheduler(kind, rng)
    fresh = make_scheduler(kind, 4)
    draws = 600
    assert [shared.next_pair(config) for _ in range(draws)] == [
        fresh.next_pair(config) for _ in range(draws)
    ]
    # the shared generator has advanced past the doubles used, to the end
    # of the last block read
    read = math.ceil(draws * doubles_per_draw / READ_AHEAD) * READ_AHEAD
    assert rng.random() == np.random.default_rng(4).random(read + 1)[-1]
