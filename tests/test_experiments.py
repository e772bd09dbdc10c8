"""Batch harness: kernel/engine replay equality, seeded determinism,
parallel equivalence, and the adversarial worst-case sweep."""

import concurrent.futures
import hashlib
import itertools
import math
import os
import re
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from popcountlab import engine, experiments, kernels, oracle, protocols

from popcountlab.engine import (
    InvariantViolation,
    RecordRow,
    RunRecord,
    StopCondition,
    StopKind,
    resolve_limits,
)
from popcountlab.experiments import (
    AllTrialsTruncated,
    InitPolicy,
    TrialBatchSpec,
    derive_seed,
    estimate_allflip_probability,
    initial_mobiles,
    resolve_threads,
    run_batch,
    run_trial,
    subset_start,
    summarize,
    sweep_n,
    sweep_worst_unnamed,
    trial_rng,
    worst_unnamed_start,
)
from popcountlab.oracle import Intractable
from popcountlab.protocols import NameOverflow, ProtocolId
from popcountlab.schedulers import SchedulerKind, WeakAdversarialScheduler

REPLAY_CASES = [
    (ProtocolId.FLIP, SchedulerKind.BST_ONLY, InitPolicy.ALL_ZERO),
    (ProtocolId.FLIP, SchedulerKind.UNIFORM_PAIR, InitPolicy.UNIFORM_RANDOM_MARKS),
    (ProtocolId.TIME_OPT, SchedulerKind.BST_ONLY, InitPolicy.UNIFORM_RANDOM_MARKS),
    (ProtocolId.TIME_OPT, SchedulerKind.UNIFORM_PAIR, InitPolicy.ALL_ZERO),
    (ProtocolId.TIME_OPT, SchedulerKind.UNIFORM_PAIR, InitPolicy.ALL_ONE),
    (ProtocolId.GROS_NAMING, SchedulerKind.WEAK_ADVERSARIAL, InitPolicy.ALL_ZERO),
    (
        ProtocolId.GROS_NAMING,
        SchedulerKind.WEAK_ADVERSARIAL,
        InitPolicy.WORST_CASE_UNNAMED,
    ),
    (ProtocolId.GROS_NAMING, SchedulerKind.UNIFORM_PAIR, InitPolicy.ALL_ZERO),
    (ProtocolId.GROS_NAMING, SchedulerKind.ROUND_ROBIN, InitPolicy.WORST_CASE_UNNAMED),
    (ProtocolId.FLIP, SchedulerKind.ROUND_ROBIN, InitPolicy.ALL_ZERO),
    (ProtocolId.TIME_OPT, SchedulerKind.ROUND_ROBIN, InitPolicy.UNIFORM_RANDOM_MARKS),
]

PAIR_SCHEDULERS = [
    SchedulerKind.WEAK_ADVERSARIAL,
    SchedulerKind.UNIFORM_PAIR,
    SchedulerKind.ROUND_ROBIN,
]
BIT_SCHEDULERS = [
    SchedulerKind.BST_ONLY,
    SchedulerKind.UNIFORM_PAIR,
    SchedulerKind.ROUND_ROBIN,
]

TRUNCATION_BOUNDS = (1, 3, 17, 100)

# Each example of the lane property tests reruns its trials one at a time
# as the reference, so shrinking a failure takes minutes: they report the
# failing example as drawn.
NO_SHRINK = tuple(p for p in settings.default.phases if p is not Phase.shrink)


class _Doubles:
    """A generator stand-in serving a fixed sequence of doubles in order."""

    def __init__(self, values):
        self.values = values
        self.taken = 0

    def random(self, size=None):
        lo = self.taken
        self.taken += 1 if size is None else size
        return self.values[lo] if size is None else self.values[lo : self.taken]


class TestReplayEquality:
    @pytest.mark.parametrize("protocol,scheduler,init", REPLAY_CASES)
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_kernel_equals_engine(self, protocol, scheduler, init, n):
        spec = TrialBatchSpec(
            protocol=protocol, n=n, trials=3, scheduler=scheduler, init=init, seed=13
        )
        for index in range(3):
            fast = run_trial(spec, index)
            reference = run_trial(spec, index, force_engine=True)
            assert fast == reference

    @pytest.mark.parametrize(
        "protocol,scheduler,init,n,bound",
        [
            pytest.param(
                ProtocolId.FLIP,
                SchedulerKind.UNIFORM_PAIR,
                InitPolicy.ALL_ZERO,
                9,
                bound,
                id=str(bound),
            )
            for bound in TRUNCATION_BOUNDS
        ]
        + [
            pytest.param(
                ProtocolId.GROS_NAMING,
                scheduler,
                init,
                n,
                bound,
                id=f"gros-{scheduler.value}-{init.value}-n{n}-{bound}",
            )
            for scheduler in PAIR_SCHEDULERS
            for init in (InitPolicy.ALL_ZERO, InitPolicy.WORST_CASE_UNNAMED)
            for n in (1, 2, 5, 7)
            for bound in TRUNCATION_BOUNDS
        ],
    )
    def test_truncated_runs_replay_too(self, protocol, scheduler, init, n, bound):
        spec = TrialBatchSpec(
            protocol=protocol,
            n=n,
            trials=2,
            scheduler=scheduler,
            init=init,
            seed=5,
            stop=StopCondition(StopKind.COUNT_REACHES_N, bound),
        )
        for index in range(2):
            assert run_trial(spec, index) == run_trial(spec, index, force_engine=True)

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_bit_kernels_replay_as_a_property(self, data):
        # Caps sit on both sides of the 32-, 1024-, 2048- and 4096-draw block
        # edges (flip from n = kernels.FLIP_BLOCK_MIN_N takes the block
        # kernel under every scheduler, in blocks of 1024 draws at n = 9 and
        # 2048 at n = 10 under bst), of the largest uniform-pair block (8000
        # pairs), of the drawn n's uniform-pair blocks for either protocol,
        # of its phased bst block and of its round-robin block of whole
        # cycles; the default stop is only affordable on the engine for
        # small n.
        protocol = data.draw(st.sampled_from([ProtocolId.FLIP, ProtocolId.TIME_OPT]))
        scheduler = data.draw(st.sampled_from(BIT_SCHEDULERS))
        ns = st.integers(1, 40)
        if protocol is ProtocolId.TIME_OPT and scheduler is SchedulerKind.BST_ONLY:
            # and either side of the phased block kernel's cut-off, where
            # only caps of at most 8193 interactions keep the engine
            # affordable
            cut = kernels.TIMEOPT_BLOCK_MIN_N
            ns |= st.sampled_from([cut - 1, cut, cut + 1, 256])
        n = data.draw(ns)
        marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bounds = [1, 31, 32, 33, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096,
                  4097, 7999, 8000, 8001, 8191, 8192, 8193]
        budget = resolve_limits(protocol, n, StopCondition(StopKind.COUNT_REACHES_N, 1))[0]
        for block in (
            kernels._flip_uniform_block(n, budget),
            kernels._timeopt_uniform_block(n, budget),
            kernels._timeopt_bst_block(n, budget),
            kernels._cycles(n),
        ):
            bounds += [block - 1, block, block + 1]
        if n > 40:
            bounds = [b for b in bounds if b <= 8193]
        bound = data.draw(st.sampled_from(bounds + [None] if n <= 6 else bounds))
        stop = None if bound is None else StopCondition(StopKind.COUNT_REACHES_N, bound)
        spec = TrialBatchSpec(
            protocol=protocol,
            n=n,
            trials=1,
            scheduler=scheduler,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=tuple(marks),
            seed=data.draw(st.integers(0, 2 ** 32)),
            stop=stop,
            check_invariants=data.draw(st.booleans()),
        )
        assert run_trial(spec, 0) == run_trial(spec, 0, force_engine=True)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_naming_kernel_replays_from_any_start(self, data):
        # name bounds below n + 1 can overflow: both routes must raise alike
        scheduler = data.draw(st.sampled_from(PAIR_SCHEDULERS))
        n = data.draw(st.integers(1, 8))
        bound = data.draw(st.integers(1, n + 2))
        names = data.draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n))
        cap = data.draw(st.sampled_from([None, 1, 7, 50]))
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING,
            n=n,
            trials=1,
            scheduler=scheduler,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=tuple(names),
            bound=bound,
            seed=data.draw(st.integers(0, 2 ** 32)),
            stop=None if cap is None else StopCondition(StopKind.COUNT_REACHES_N, cap),
        )
        outcomes = []
        for force_engine in (False, True):
            try:
                outcomes.append(run_trial(spec, 0, force_engine=force_engine))
            except NameOverflow as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_wide_name_bound_leaves_every_naming_record(self, data):
        # the naming loop counts only the names its start and its cap allow
        scheduler = data.draw(st.sampled_from(PAIR_SCHEDULERS))
        n = data.draw(st.integers(1, 8))
        names = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        cap = data.draw(st.sampled_from([None, 1, 7, 50]))
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING,
            n=n,
            trials=1,
            scheduler=scheduler,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=tuple(names),
            seed=data.draw(st.integers(0, 2 ** 32)),
            stop=None if cap is None else StopCondition(StopKind.COUNT_REACHES_N, cap),
        )
        assert run_trial(replace(spec, bound=10**9), 0) == run_trial(spec, 0)

    @pytest.mark.parametrize("scheduler", PAIR_SCHEDULERS)
    def test_a_naming_run_stops_at_its_metric_budget(self, monkeypatch, scheduler):
        def limits(protocol, n, stop):
            return 3, resolve_limits(protocol, n, stop)[1]

        monkeypatch.setattr(experiments, "resolve_limits", limits)
        monkeypatch.setattr(engine, "resolve_limits", limits)
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING, n=6, trials=4, scheduler=scheduler, seed=5
        )
        for index in range(4):
            record = run_trial(spec, index)
            assert record.non_null_transitions == 3 and not record.converged
            assert record == run_trial(spec, index, force_engine=True)

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_a_planted_fault_reads_alike_on_the_engine_and_the_kernels(self, data):
        # Streak thresholds of 0 once an agent is converted flip a phase at
        # its first miss after a conversion: with credit left whenever the
        # phase opened with two credits or more.  Both routes must fail at
        # the same trials with the same text.
        threshold = protocols.phase_threshold

        def planted(converted):
            return 0.0 if converted else threshold(converted)

        def ceilings(m):
            return np.ceil([planted(c) for c in range(m + 1)]).astype(np.int64)

        n = data.draw(st.integers(1, 12))
        scheduler = data.draw(st.sampled_from(BIT_SCHEDULERS))
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=n,
            trials=8,
            scheduler=scheduler,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=data.draw(st.integers(0, 2 ** 32)),
        )
        faults = 0
        with mock.patch.object(
            protocols, "phase_threshold", planted
        ), mock.patch.object(kernels, "_phase_ceilings", ceilings):
            for index in range(spec.trials):
                outcomes = []
                for force_engine in (False, True):
                    try:
                        outcomes.append(run_trial(spec, index, force_engine))
                    except InvariantViolation as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
                faults += isinstance(outcomes[0], str)
        # under random pairs from five agents up, 97% of trials or more
        # fault (round-robin faults from some starts only)
        assert faults or n < 5 or scheduler is SchedulerKind.ROUND_ROBIN

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_kernel_records_do_not_depend_on_block_size(self, data):
        # a block only buffers draws: its length must not show in the record
        protocol, step = data.draw(
            st.sampled_from(
                [(ProtocolId.FLIP, partial(kernels._step_bits, True)),
                 (ProtocolId.FLIP, kernels._block_flip),
                 (ProtocolId.TIME_OPT, partial(kernels._step_bits, False)),
                 (ProtocolId.TIME_OPT, kernels._block_phased)]
            )
        )
        draw = data.draw(
            st.sampled_from(
                [kernels._bst_draw, kernels._uniform_draw, kernels._roundrobin_draw]
            )
        )
        n = data.draw(st.integers(1, 12))
        marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        # under round-robin, flip from most mixed starts runs its whole
        # budget, 2^(n+7) meetings, with a draw call per interaction at size 1
        natural = draw is not kernels._roundrobin_draw or n <= 6
        cap = data.draw(st.sampled_from([None, 1, 31, 33] if natural else [1, 31, 33]))
        stop = StopCondition(StopKind.COUNT_REACHES_N, cap)
        limits = resolve_limits(protocol, n, stop)[:2]
        seed = data.draw(st.integers(0, 2 ** 32))
        # and the uniform-pair blocks (at most 8000 pairs, and by n) and
        # the phased bst block
        sizes = [1, 3, 32, 4096, 8000, 16384]
        sizes += [
            kernels._flip_uniform_block(n, limits[0]),
            kernels._timeopt_uniform_block(n, limits[0]),
            kernels._timeopt_bst_block(n, limits[0]),
        ]
        # each kernel steps its own copy of the marks
        records = [
            step(draw, size, n, list(marks), trial_rng(seed, 0), *limits, True)
            for size in sizes
        ]
        assert records[1:] == records[:-1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_naming_records_do_not_depend_on_block_size(self, data):
        pairs = data.draw(
            st.sampled_from([kernels._uniform_pairs, kernels._roundrobin_pairs])
        )
        n = data.draw(st.integers(1, 8))
        bound = data.draw(st.integers(1, n + 2))
        names = data.draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n))
        cap = data.draw(st.sampled_from([None, 1, 31, 33]))
        stop = StopCondition(StopKind.COUNT_REACHES_N, cap)
        limits = resolve_limits(ProtocolId.GROS_NAMING, n, stop)[:2]
        seed = data.draw(st.integers(0, 2 ** 32))
        outcomes = []
        # blocks grow from 256 pairs: at 1000 they stop growing partway
        for size in (1, 3, 32, 1000, 4096):
            source = partial(kernels._blocks, pairs, size, trial_rng(seed, 0))
            try:
                outcomes.append(kernels._step_gros(source, names, bound, *limits))
            except NameOverflow as exc:
                outcomes.append(str(exc))
        assert outcomes[1:] == outcomes[:-1]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_uniform_draw_is_the_base_station_filter_of_the_pairs(self, data):
        # Doubles a few ulps either side of the cuts, u*(n+1) >= n near
        # n/(n+1) and v*n >= n-1 near (n-1)/n, and of the largest double
        # below 1, mixed with uniform ones.
        n = data.draw(
            st.one_of(
                st.integers(1, 2 ** 20),
                st.sampled_from([2 ** j - 1 for j in range(1, 21)]),
                st.sampled_from([2 ** j for j in range(21)]),
            )
        )
        k = data.draw(st.sampled_from([1, 3, 31, 4096, 16384]))
        near = []
        for x in (n / (n + 1), (n - 1) / n, 1 - 2.0 ** -53):
            for _ in range(4):
                x = np.nextafter(x, 0.0)
            for _ in range(9):
                near.append(x)
                x = np.nextafter(x, 1.0)
        near = np.array([x for x in near if 0.0 <= x < 1.0])
        pick = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        edge = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        doubles = np.where(
            pick.random(2 * k + 1) < edge,
            pick.choice(near, 2 * k + 1),
            pick.random(2 * k + 1),
        )
        start = data.draw(st.integers(0, 2 ** 40))

        steps, mobiles = kernels._uniform_draw(_Doubles(doubles), n, start, k)
        source = _Doubles(doubles)
        first, second = kernels._uniform_pairs(source, n, start, k)
        events = np.flatnonzero((first == n) | (second == n))
        assert np.array_equal(steps, events + (start + 1))
        assert mobiles.dtype == np.int64
        assert np.array_equal(
            mobiles, np.where(first[events] == n, second[events], first[events])
        )
        # exactly 2k doubles were taken: the next one is the same
        drawn = _Doubles(doubles)
        kernels._uniform_draw(drawn, n, start, k)
        assert drawn.random() == source.random() == doubles[2 * k]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_block_flip_equals_the_scalar_loop(self, data):
        # budgets and caps on both sides of the block edges, or the natural
        # limits where the run stays affordable; round-robin blocks are one
        # cycle or whole cycles holding some 4096 meetings
        draw = data.draw(
            st.sampled_from(
                [kernels._bst_draw, kernels._uniform_draw, kernels._roundrobin_draw]
            )
        )
        n = data.draw(st.integers(1, kernels.FLIP_MAX_N))
        marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        edges = [1, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097]
        cycles = kernels._cycles(n)
        budget = data.draw(st.sampled_from(edges + [None]))
        caps = edges + [cycles - 1, cycles, cycles + 1]
        cap = data.draw(
            st.sampled_from(caps + [None] if budget is not None or n <= 12 else caps)
        )
        natural = resolve_limits(ProtocolId.FLIP, n, experiments.NATURAL_STOP)
        limits = (
            natural[0] if budget is None else budget,
            natural[1] if cap is None else cap,
        )
        if draw is kernels._roundrobin_draw:
            sizes = [n * (n + 1) // 2, cycles]
        else:
            sizes = [32, 64, 4096, min(4096, 2 << n)]
        size = data.draw(st.sampled_from(sizes))
        seed = data.draw(st.integers(0, 2 ** 32))
        check = data.draw(st.booleans())
        scalar, block = (
            step(draw, size, n, list(marks), trial_rng(seed, 0), *limits, check)
            for step in (partial(kernels._step_bits, True), kernels._block_flip)
        )
        assert block == scalar
        assert all(type(v) in (int, type(None)) for v in vars(block).values())

    def test_block_flip_reads_the_structure_from_the_marks(self, monkeypatch):
        # A prefix OR in place of the prefix XOR never flips a mark back:
        # every meeting then counts as one with a 0-mark, so c1 reaches n at
        # the n-th meeting with every counter check passing, while the marks
        # are not all equal.  Only the structure check can see that.
        class OrForXor:
            bitwise_xor = np.bitwise_or

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(kernels, "np", OrForXor())
        with pytest.raises(InvariantViolation, match="all-same/all-opposite"):
            kernels.simulate_flip_bst(12, [0] * 12, trial_rng(3, 0), 10 ** 6, 10 ** 7)

    @pytest.mark.parametrize("value", [2, -1])
    def test_block_flip_raises_the_scalar_loops_counter_message(self, value):
        # The first agent's mark reads as 1 in the bit mask and in the scalar
        # loop's test, but as `value` in the count of ones, so the count is
        # off on both paths alike and the counters outgrow it.  (A plain 2
        # would set the mask's next bit.)
        class Mark(int):
            def __lshift__(self, i):
                return 1 << i

        n = 10
        marks = [Mark(value)] + [0] * (n - 1)
        limits = resolve_limits(ProtocolId.FLIP, n, experiments.NATURAL_STOP)[:2]
        errors, records = [], []
        for step in (partial(kernels._step_bits, True), kernels._block_flip):
            run = partial(step, kernels._bst_draw, 64, n)
            with pytest.raises(InvariantViolation, match="^counters ") as caught:
                run(list(marks), trial_rng(5, 0), *limits, True)
            errors.append(str(caught.value))
            records.append(run(list(marks), trial_rng(5, 0), *limits, False))
        assert errors[0] == errors[1]
        assert records[0] == records[1]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_block_phased_equals_the_scalar_loop(self, data):
        # n weighted toward the cut-off; budgets and caps on both sides of
        # the drawn block's edges, or the natural limits where few draws
        # hold the run
        draw = data.draw(
            st.sampled_from(
                [kernels._bst_draw, kernels._uniform_draw, kernels._roundrobin_draw]
            )
        )
        cut = kernels.TIMEOPT_BLOCK_MIN_N
        n = data.draw(
            st.integers(1, 256)
            | st.integers(cut - 8, cut + 8)
            | st.sampled_from([cut - 1, cut, cut + 1, 256])
        )
        start = data.draw(st.sampled_from(["zeros", "ones", "random", "explicit"]))
        if start == "explicit":
            marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        elif start == "random":
            pick = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
            marks = pick.integers(0, 2, n).tolist()
        else:
            marks = [int(start == "ones")] * n
        natural = resolve_limits(ProtocolId.TIME_OPT, n, experiments.NATURAL_STOP)
        chosen = kernels._timeopt_bst_block(n, natural[0])
        size = data.draw(st.sampled_from([1, 3, 32, chosen - 1, chosen, chosen + 1]))
        edges = [1, 31, 32, 33, size - 1, size, size + 1, 2 * size + 1]
        edges = [e for e in edges if e > 0]
        affordable = size >= chosen - 1 or n <= 8
        budget = data.draw(st.sampled_from(edges + [None] if affordable else edges))
        cap = data.draw(st.sampled_from(edges + [None] if affordable else edges))
        limits = (
            natural[0] if budget is None else budget,
            natural[1] if cap is None else cap,
        )
        seed = data.draw(st.integers(0, 2 ** 32))
        check = data.draw(st.booleans())
        scalar, block = (
            step(draw, size, n, list(marks), trial_rng(seed, 0), *limits, check)
            for step in (partial(kernels._step_bits, False), kernels._block_phased)
        )
        assert block == scalar
        assert all(type(v) in (int, type(None)) for v in vars(block).values())

    @pytest.mark.parametrize(
        "start,zero_thresholds,message",
        [
            pytest.param(
                lambda n: [0] * n, True, "phase flipped with", id="flip-with-credit"
            ),
            pytest.param(
                lambda n: [2] + [0] * (n - 1), False, "counters", id="ones-too-high"
            ),
            pytest.param(
                lambda n: [-1] + [1] * (n - 1), False, "counters", id="ones-too-low"
            ),
        ],
    )
    def test_block_phased_raises_the_scalar_loops_messages(
        self, monkeypatch, start, zero_thresholds, message
    ):
        # Streak thresholds of 0 once an agent is converted flip a phase at
        # its first miss after a hit, with credit left or not.  A mark
        # outside 0/1 puts the count of ones off by one, so the last
        # conversion of a phase finds more credit than agents.
        n = kernels.TIMEOPT_BLOCK_MIN_N
        ceilings = kernels._phase_ceilings(n)
        if zero_thresholds:
            ceilings = np.concatenate((ceilings[:1], np.zeros(n, np.int64)))
        monkeypatch.setattr(kernels, "_phase_ceilings", lambda m: ceilings)
        limits = resolve_limits(ProtocolId.TIME_OPT, n, experiments.NATURAL_STOP)[:2]
        scalar = partial(kernels._step_bits, False, kernels._bst_draw, 32)
        errors, records = [], []
        for step in (scalar, kernels.simulate_timeopt_bst):
            with pytest.raises(InvariantViolation, match=message) as caught:
                step(n, start(n), trial_rng(5, 0), *limits, True)
            errors.append(str(caught.value))
            records.append(step(n, start(n), trial_rng(5, 0), *limits, False))
        assert errors[0] == errors[1]
        assert records[0] == records[1]

    def test_flip_runs_build_no_streak_table(self, monkeypatch):
        # flip converts at every meeting: a table of n thresholds would only
        # cost time and memory at large n
        built = []
        monkeypatch.setattr(kernels, "_phase_ceilings", built.append)
        bounded = StopCondition(StopKind.COUNT_REACHES_N, 500)
        for scheduler, n in itertools.product(BIT_SCHEDULERS, [1, 5, 12, 100]):
            spec = TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=n,
                trials=4,
                scheduler=scheduler,
                init=InitPolicy.UNIFORM_RANDOM_MARKS,
                seed=n,
                stop=bounded if n > kernels.FLIP_MAX_N else None,
            )
            for index in range(spec.trials):
                run_trial(spec, index)
        assert built == []

    def test_a_bounded_phased_run_builds_at_most_cap_plus_one_thresholds(
        self, monkeypatch
    ):
        # a run converts at most one agent per meeting, so a run capped far
        # below n reads no threshold past its cap
        table = kernels._phase_ceilings
        sizes = []

        def spied(m):
            sizes.append(len(table(m)))
            return table(m)

        monkeypatch.setattr(kernels, "_phase_ceilings", spied)
        cap = 50
        for scheduler in BIT_SCHEDULERS:
            spec = TrialBatchSpec(
                protocol=ProtocolId.TIME_OPT,
                n=100_000,
                trials=1,
                scheduler=scheduler,
                init=InitPolicy.UNIFORM_RANDOM_MARKS,
                seed=5,
                stop=StopCondition(StopKind.COUNT_REACHES_N, cap),
            )
            assert run_trial(spec, 0).truncated
        assert len(sizes) == len(BIT_SCHEDULERS)
        assert max(sizes) <= cap + 1


class TestSeeding:
    def test_derive_seed_is_frozen(self):
        assert derive_seed(0, 1) == 4881901421217228719
        assert derive_seed(42) == 11465652750463011511

    def test_trial_rng_depends_only_on_seed_and_index(self):
        a = trial_rng(7, 3).random(8).tolist()
        b = trial_rng(7, 3).random(8).tolist()
        c = trial_rng(7, 4).random(8).tolist()
        assert a == b
        assert a != c

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 200),
        index=st.sampled_from([0, 1023, 1024, 1025, 2 ** 32 - 1, 2 ** 32, 2 ** 40])
        | st.integers(0, 2 ** 32 - 1)
        | st.integers(0, 2 ** 64),
    )
    def test_trial_rng_is_numpys_child_stream(self, seed, index):
        assert_numpy_child_stream(seed, index)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 200),
        block=st.sampled_from([0, 1, 2 ** 22 - 1]) | st.integers(0, 2 ** 22 - 1),
        rows=st.lists(
            st.sampled_from([0, 1, 1023]) | st.integers(0, 1023),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        k=st.integers(1, 64),
    )
    def test_lane_mirror_is_pcg64(self, seed, block, rows, k):
        # block 2^22 - 1, row 1023 is trial index 2^32 - 1
        lanes = experiments._PCG64Lanes(experiments._seed_block(seed, block)[rows])
        drawn = np.array([lanes.random() for _ in range(k)]).T
        for row, doubles, hi, lo in zip(rows, drawn, lanes.hi, lanes.lo):
            rng = trial_rng(seed, block * 1024 + row)
            assert doubles.tolist() == rng.random(k).tolist()
            assert int(hi) << 64 | int(lo) == rng.bit_generator.state["state"]["state"]

    def test_child_streams_survive_cache_eviction(self):
        held = experiments._seed_block.cache_info().maxsize
        for index in (0, 1500, 1, 1500, 0):
            for seed in range(held + 3):
                assert_numpy_child_stream(seed * 2 ** 61 + 5, index)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-(2 ** 70), 2 ** 40)])
    def test_negative_seed_or_index_raises(self, seed, index):
        with pytest.raises(ValueError):
            trial_rng(seed, index)

    def test_seed_words_serve_only_pcg64(self):
        words = trial_rng(3, 4).bit_generator.seed_seq
        with pytest.raises(ValueError):
            words.generate_state(8)

    def test_random_marks_consume_n_doubles(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP,
            n=6,
            trials=1,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=21,
        )
        rng = trial_rng(21, 0)
        marks = initial_mobiles(spec, rng)
        replay = trial_rng(21, 0)
        assert marks == [int(u * 2) for u in replay.random(6)]


def assert_numpy_child_stream(seed: int, index: int):
    ours = trial_rng(seed, index)
    ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.random(64).tolist() == ref.random(64).tolist()


def records_digest(records) -> str:
    """sha256 over every RunRecord field in trial order, the way the
    benchmark fingerprints a batch."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(tuple(vars(record).values())).encode())
    return digest.hexdigest()


class TestGoldenRecords:
    """Records frozen by hash: a speed-up that changes a random stream
    fails here, not only in the benchmark."""

    def test_timeopt_bst_random_marks(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=2,
            trials=2000,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=5,
        )
        assert records_digest(run_batch(spec, threads=1).records) == (
            "4fbf4cd24b2ee880084035cdc033ba08fa628378990812f04f788c59fd6797ad"
        )

    def test_flip_uniform(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP,
            n=5,
            trials=300,
            scheduler=SchedulerKind.UNIFORM_PAIR,
            seed=6,
        )
        assert records_digest(run_batch(spec, threads=1).records) == (
            "acec9e2f008a4b6c916ef984c89be29368ea2473a1387ac4d8911b1f118de8c9"
        )

    def test_flip_bst_lanes(self):
        # two whole seed blocks, both stepped as lanes
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=6, trials=2048, seed=9)
        assert experiments._takes_lanes(spec)
        assert records_digest(run_batch(spec, threads=1).records) == (
            "993f6dd8feca82dfc9c1a8734300d05a6ab0458c9f219c69966af1dd30c5717b"
        )

    @pytest.mark.parametrize(
        "protocol,n,trials,scheduler,init,vector,seed,expected",
        [
            pytest.param(
                ProtocolId.GROS_NAMING, 6, 200, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.ALL_ZERO, None, 11,
                "9ffbccf1e6ff05466bcdb92986aaf8bc9941175d2a2b20115fc3c385ac601726",
                id="gros-uniform-zeros",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 6, 200, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.WORST_CASE_UNNAMED, None, 12,
                "7795282b26f9f76d29580d36405169789a566ebe89c8778f1837b045c282dafa",
                id="gros-uniform-worst",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 10, 2, SchedulerKind.ROUND_ROBIN,
                InitPolicy.WORST_CASE_UNNAMED, None, 13,
                "25b127ea673a1b4b72048fb21258a89168431a9904fc6dd7958b5f90a6e71998",
                id="gros-roundrobin-worst",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 8, 1, SchedulerKind.ROUND_ROBIN,
                InitPolicy.EXPLICIT_VECTOR, (3, 0, 3, 1, 7, 0, 1, 2), 14,
                "026f2786b9c774614abf0a3fda0dbe4af0b03f1523aeb7ffa27a341d06d70b73",
                id="gros-roundrobin-vector",
            ),
            pytest.param(
                ProtocolId.TIME_OPT, 32, 20, SchedulerKind.ROUND_ROBIN,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, 15,
                "4b799b10ec4280eb24726ab02ca0d33116c626ce88691ac9fe58b9e5cb3ff119",
                id="timeopt-roundrobin-random",
            ),
            pytest.param(
                ProtocolId.FLIP, 5, 3, SchedulerKind.ROUND_ROBIN,
                InitPolicy.ALL_ZERO, None, 16,
                "52c8a61b86daca4d2398c379a6c95404d40299318dec264a7c155b2b656a5220",
                id="flip-roundrobin-zeros",
            ),
            # 25 of the 40 trials are truncated at the budget
            pytest.param(
                ProtocolId.FLIP, 5, 40, SchedulerKind.ROUND_ROBIN,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, 17,
                "7008020b266623850cf916ff38d7cac242561f1552d2646fe2ac99fa5e7490c2",
                id="flip-roundrobin-random",
            ),
        ],
    )
    def test_pairings_that_took_the_engine(
        self, protocol, n, trials, scheduler, init, vector, seed, expected
    ):
        # hashes taken while these pairings still ran through engine.run
        spec = TrialBatchSpec(
            protocol=protocol,
            n=n,
            trials=trials,
            scheduler=scheduler,
            init=init,
            vector=vector,
            seed=seed,
        )
        assert records_digest(run_batch(spec, threads=1).records) == expected

    @pytest.mark.parametrize(
        "n,trials,seed,expected",
        [
            pytest.param(
                256, 12, 31,
                "e5ef20390db58c4c92c40d5ae93313a0daa30e86d8b64d14f4285dd4da2d3e29",
                id="n256",
            ),
            # a whole seed block
            pytest.param(
                128, 1024, 32,
                "c0e05fd1d03be133f0c402becf0b01b5138340934b8539cb7fb62b095c696acf",
                id="n128-seed-block",
            ),
        ],
    )
    def test_timeopt_bst_block_kernel(self, n, trials, seed, expected):
        # hashes taken while these batches stepped one meeting at a time
        # and as lanes
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=n,
            trials=trials,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=seed,
        )
        assert n >= kernels.TIMEOPT_BLOCK_MIN_N
        assert records_digest(run_batch(spec, threads=1).records) == expected

    def test_first_phase_verdicts(self):
        # the per-trial verdicts behind estimate_allflip_probability(2, 2000, 7)
        verdicts = [
            kernels.simulate_timeopt_first_phase(2, trial_rng(7, i)) for i in range(2000)
        ]
        assert hashlib.sha256(bytes(verdicts)).hexdigest() == (
            "4b602938e363ba20cc5340a216d10d7deb1f3c2f3897a6e7789ed8f5c728e05f"
        )
        assert estimate_allflip_probability(2, 2000, 7) == sum(verdicts) / 2000 == 0.992

    @pytest.mark.parametrize(
        "protocol,n,trials,scheduler,init,stop,check,expected",
        [
            pytest.param(
                ProtocolId.FLIP, 6, 40, SchedulerKind.BST_ONLY,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, True,
                "57cf030ce2904487940be3a8209f775c537ab36f7fb86e61f6e05b373075fa09",
                id="flip-bst",
            ),
            pytest.param(
                ProtocolId.FLIP, 5, 30, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.ALL_ZERO, None, True,
                "e8d74f6024dffc2fd007ba49e4e1cc7d72bd2a45fc4c7d0d1fab0026600430b1",
                id="flip-uniform",
            ),
            pytest.param(
                ProtocolId.FLIP, 4, 12, SchedulerKind.ROUND_ROBIN,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, True,
                "061e5971b6bac73a5527eadb2087b02ffebfa39dc8a574b67e1e4feb8f9e3566",
                id="flip-roundrobin",
            ),
            pytest.param(
                ProtocolId.TIME_OPT, 16, 20, SchedulerKind.BST_ONLY,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, True,
                "8ddf72407d06b451103833d9790f417dd30744e3592efea72691459e8656dbf9",
                id="timeopt-bst",
            ),
            pytest.param(
                ProtocolId.TIME_OPT, 12, 10, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, True,
                "621e6844d5d95b4f5e8fae77c682b0eb523f0e359881cfdede6dc49781b91731",
                id="timeopt-uniform",
            ),
            pytest.param(
                ProtocolId.TIME_OPT, 10, 4, SchedulerKind.ROUND_ROBIN,
                InitPolicy.ALL_ONE, None, True,
                "c76d5c656829177f57967747a19976100b024100e0c0db1697298ed780c59630",
                id="timeopt-roundrobin",
            ),
            # the checks change no record: timeopt-bst's hash
            pytest.param(
                ProtocolId.TIME_OPT, 16, 20, SchedulerKind.BST_ONLY,
                InitPolicy.UNIFORM_RANDOM_MARKS, None, False,
                "8ddf72407d06b451103833d9790f417dd30744e3592efea72691459e8656dbf9",
                id="timeopt-bst-unchecked",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 6, 30, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.WORST_CASE_UNNAMED, None, True,
                "d6d174afb2a060d9e2eb6c55e36404a3c65e4a9affa2b3e0fa71d110a348ad0b",
                id="gros-uniform",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 7, 3, SchedulerKind.ROUND_ROBIN,
                InitPolicy.WORST_CASE_UNNAMED, None, True,
                "a8e15a07919258c93049616d1439aa5d3a6924bfbcc4cfa9755f010bdf98a0a4",
                id="gros-roundrobin",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 7, 2, SchedulerKind.WEAK_ADVERSARIAL,
                InitPolicy.WORST_CASE_UNNAMED, None, True,
                "210dfb0923f8a48680247cda41b3f464f2ddc157ae26c098a6ee6c069b0884f2",
                id="gros-adversarial",
            ),
            # MAX_INTERACTIONS runs only on the engine
            pytest.param(
                ProtocolId.FLIP, 5, 20, SchedulerKind.BST_ONLY,
                InitPolicy.UNIFORM_RANDOM_MARKS,
                StopCondition(StopKind.MAX_INTERACTIONS, 300), True,
                "4c1acfaf2637f0c39e32b384bf54ee6864e653b723502924cd80ae7e3d8a356d",
                id="flip-bst-max-interactions",
            ),
            pytest.param(
                ProtocolId.TIME_OPT, 8, 10, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.UNIFORM_RANDOM_MARKS,
                StopCondition(StopKind.MAX_INTERACTIONS, 2000), True,
                "148e71ace462ffa0644e3cf0054cfbd78352d109240a708ad18e9c28719c533b",
                id="timeopt-uniform-max-interactions",
            ),
            pytest.param(
                ProtocolId.GROS_NAMING, 5, 10, SchedulerKind.UNIFORM_PAIR,
                InitPolicy.ALL_ZERO,
                StopCondition(StopKind.MAX_INTERACTIONS, 200), True,
                "781292290fa7098f9c18ed780c266de1735e55370a0eb6c024bfe142286da463",
                id="gros-uniform-max-interactions",
            ),
        ],
    )
    def test_engine(self, protocol, n, trials, scheduler, init, stop, check, expected):
        # hashes taken before the engine's step was made cheaper
        spec = TrialBatchSpec(
            protocol=protocol,
            n=n,
            trials=trials,
            scheduler=scheduler,
            init=init,
            stop=stop,
            check_invariants=check,
            seed=40 + n,
        )
        records = [run_trial(spec, i, force_engine=True) for i in range(trials)]
        if protocol is ProtocolId.TIME_OPT:
            assert sum(record.phase_flips for record in records) > 0
        assert records_digest(records) == expected


BIT_STARTS = [
    InitPolicy.ALL_ZERO,
    InitPolicy.ALL_ONE,
    InitPolicy.UNIFORM_RANDOM_MARKS,
    InitPolicy.EXPLICIT_VECTOR,
]


def _spied_lane_batch(monkeypatch, spec):
    """A one-worker run_batch of `spec`, not yet called, and the two lists
    it fills: the texts its lane kernel raised, and the trials it ran one
    at a time."""
    lanes, cut = experiments._LANE_KERNELS[spec.protocol]
    lane_errors, rerun = [], []

    def spied_lanes(*args):
        try:
            return lanes(*args)
        except InvariantViolation as exc:
            lane_errors.append(str(exc))
            raise

    def spied_rng(seed, index):
        rerun.append(index)
        return trial_rng(seed, index)

    monkeypatch.setitem(experiments._LANE_KERNELS, spec.protocol, (spied_lanes, cut))
    monkeypatch.setattr(experiments, "trial_rng", spied_rng)
    return partial(run_batch, spec, threads=1), lane_errors, rerun


class TestLanes:
    """Large BST-only bit batches step their trials as lanes; the records
    must be run_trial's, trial for trial."""

    @settings(max_examples=120, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_lanes_equal_trial_by_trial(self, data):
        protocol = data.draw(st.sampled_from([ProtocolId.FLIP, ProtocolId.TIME_OPT]))
        n = data.draw(st.integers(1, 14))
        init = data.draw(st.sampled_from(BIT_STARTS))
        vector = None
        if init is InitPolicy.EXPLICIT_VECTOR:
            marks = st.lists(st.integers(0, 1), min_size=n, max_size=n)
            vector = tuple(data.draw(marks))
        spec = TrialBatchSpec(
            protocol=protocol,
            n=n,
            trials=1,
            init=init,
            vector=vector,
            seed=data.draw(st.integers(0, 2 ** 64)),
            check_invariants=data.draw(st.booleans()),
        )
        # the real cut-offs where trials are cheap; for long flip trials
        # cut-offs of a few lanes, and from n = 11 stepping stops as soon
        # as fewer lanes than the cut-off are live
        if protocol is ProtocolId.FLIP and n > 6:
            min_trials = data.draw(st.integers(2, 8))
            min_live = data.draw(st.integers(1, min_trials)) if n <= 10 else min_trials
            most = 2 * min_trials + 2
        else:
            min_trials = experiments._LANE_MIN_TRIALS
            min_live = kernels._LANE_MIN_LIVE
            most = 2 * min_trials + 40
        size = data.draw(
            st.sampled_from([min_trials - 1, min_trials, most]) | st.integers(1, most)
        )
        # the range's trials before a seed-block edge inside a chunk, or
        # before a chunk edge: none, all, or some
        before = data.draw(
            st.sampled_from([0, size, min_trials, size - min_trials])
            | st.integers(0, size)
        )
        edge = data.draw(st.sampled_from([1024, experiments._CHUNK]))
        lo = max(0, edge * data.draw(st.integers(1, 3)) - before)
        # flip steps as lanes, and its trials one meeting at a time, to n = 14
        flip_lanes = {ProtocolId.FLIP: (kernels.flip_bst_lanes, 15)}
        with (
            mock.patch.object(experiments, "_LANE_MIN_TRIALS", min_trials),
            mock.patch.object(kernels, "_LANE_MIN_LIVE", min_live),
            mock.patch.dict(experiments._LANE_KERNELS, flip_lanes),
            mock.patch.object(kernels, "FLIP_BLOCK_MIN_N", 15),
        ):
            lanes = experiments._records(experiments._run_range(spec, lo, lo + size))
        assert lanes == [run_trial(spec, i) for i in range(lo, lo + size)]
        fields = [v for record in lanes for v in vars(record).values()]
        assert all(type(v) in (int, type(None)) for v in fields)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_lane_kernels_stop_at_the_budget_like_the_scalar_kernels(self, data):
        # natural budgets are far beyond any lane's run: cut them short
        lanes, scalar = data.draw(
            st.sampled_from(
                [(kernels.flip_bst_lanes, kernels.simulate_flip_bst),
                 (kernels.timeopt_bst_lanes, kernels.simulate_timeopt_bst)]
            )
        )
        n = data.draw(st.integers(1, 8))
        rows = data.draw(st.integers(1, 40))
        marks = np.array(
            data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=rows, max_size=rows))
        )
        budget = data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 2 ** 64))
        check = data.draw(st.booleans())
        stream = experiments._PCG64Lanes(experiments._seed_block(seed, 0)[:rows])
        with mock.patch.object(kernels, "_LANE_MIN_LIVE", 1):
            got = experiments._records(lanes(n, marks.copy(), stream, budget))
        assert got == [
            scalar(n, [int(m) for m in row], trial_rng(seed, i), budget, 2 * budget, check)
            for i, row in enumerate(marks)
        ]

    def test_which_batches_take_lanes(self):
        # either bit protocol below its block kernel's cut-off
        largest = kernels.FLIP_BLOCK_MIN_N - 1
        base = TrialBatchSpec(protocol=ProtocolId.FLIP, n=largest, trials=1, seed=3)
        assert experiments._takes_lanes(base)
        phased = replace(
            base, protocol=ProtocolId.TIME_OPT, n=kernels.TIMEOPT_BLOCK_MIN_N - 1
        )
        assert experiments._takes_lanes(phased)
        for spec in [
            replace(base, n=largest + 1),
            replace(phased, n=kernels.TIMEOPT_BLOCK_MIN_N),
            replace(base, scheduler=SchedulerKind.UNIFORM_PAIR),
            replace(base, stop=StopCondition(StopKind.COUNT_REACHES_N, 99)),
        ]:
            assert not experiments._takes_lanes(spec)

    def test_no_lane_share_ends_above_index_2_to_the_32(self, monkeypatch):
        # trial indices from 2^32 hash two spawn words, which the seed
        # blocks do not cover: only the share below the edge takes lanes
        edge = 1 << 32
        spec = TrialBatchSpec(protocol=ProtocolId.TIME_OPT, n=3, trials=1, seed=12)
        lanes = kernels.timeopt_bst_lanes
        shares = []

        def spied_lanes(n, marks, stream, *rest):
            shares.append(stream.lo.copy())
            return lanes(n, marks, stream, *rest)

        cut = kernels.TIMEOPT_BLOCK_MIN_N
        monkeypatch.setattr(
            experiments, "_LANE_KERNELS", {ProtocolId.TIME_OPT: (spied_lanes, cut)}
        )
        monkeypatch.setattr(kernels, "_LANE_MIN_LIVE", 1)
        with mock.patch.object(experiments, "_LANE_MIN_TRIALS", 4):
            got = experiments._records(experiments._run_range(spec, edge - 6, edge + 6))
        assert got == [run_trial(spec, i) for i in range(edge - 6, edge + 6)]
        below = experiments._seed_block(spec.seed, edge // 1024 - 1)[-6:]
        assert len(shares) == 1
        assert (shares[0] == experiments._PCG64Lanes(below).lo).all()

    def test_a_batch_steps_a_chunk_of_seed_blocks_at_a_time(self, monkeypatch):
        lanes = kernels.flip_bst_lanes
        sizes = []

        def spied_lanes(n, marks, stream, *rest):
            sizes.append(len(marks))
            return lanes(n, marks, stream, *rest)

        cut = kernels.FLIP_BLOCK_MIN_N
        monkeypatch.setattr(
            experiments, "_LANE_KERNELS", {ProtocolId.FLIP: (spied_lanes, cut)}
        )
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=3, trials=10000, seed=14)
        records = run_batch(spec, threads=1).records
        assert sizes == [8192, 1808]
        assert records == [run_trial(spec, i) for i in range(spec.trials)]

    def test_the_trials_lanes_leave_find_their_seed_blocks_cached(self, monkeypatch):
        # a chunk hashes each of its seed blocks once, scalar reruns included
        rerun = []

        def spied_rng(seed, index):
            rerun.append(index)
            return trial_rng(seed, index)

        monkeypatch.setattr(experiments, "trial_rng", spied_rng)
        monkeypatch.setattr(kernels, "_LANE_MIN_LIVE", 4096)
        spec = TrialBatchSpec(protocol=ProtocolId.TIME_OPT, n=6, trials=1, seed=15)
        experiments._seed_block.cache_clear()
        experiments._run_range(spec, 0, experiments._CHUNK)
        assert {index // 1024 for index in rerun} == set(range(8))
        assert experiments._seed_block.cache_info().misses == 8

    def test_pool_ranges_are_whole_seed_blocks_where_trials_take_lanes(
        self, monkeypatch
    ):
        ranges = []

        class InProcess:  # the pool's interface, run here so the ranges show
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, *args):
                ranges.extend(zip(args[1], args[2]))
                return map(fn, *args)

        # run_batch imports the pool class where it uses it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        bst, uniform = SchedulerKind.BST_ONLY, SchedulerKind.UNIFORM_PAIR
        for n, scheduler, trials, expected in [
            (4, bst, 4000, [(0, 2048), (2048, 4000)]),  # a range for each worker
            (1, bst, 20000, [(0, 8192), (8192, 16384), (16384, 20000)]),  # a chunk at most
            # no lanes: four ranges a worker, whatever the seed blocks
            (10, uniform, 30, [(lo, min(lo + 4, 30)) for lo in range(0, 30, 4)]),
        ]:
            ranges.clear()
            spec = TrialBatchSpec(
                protocol=ProtocolId.FLIP, n=n, trials=trials, scheduler=scheduler, seed=3
            )
            assert run_batch(spec, threads=2).records == run_batch(spec, threads=1).records
            assert ranges == expected

    def test_worker_count_does_not_change_lane_records(self):
        # two worker ranges of five seed blocks each, the second across a
        # chunk edge and ending in part of a block
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=2,
            trials=9 * 1024 + 700,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=23,
        )
        one, two = run_batch(spec, threads=1), run_batch(spec, threads=2)
        assert one == two
        assert one.records == two.records
        assert one.columns.dtype == two.columns.dtype == np.int16

    def test_batch_results_compare_by_value(self):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=3, trials=20, seed=5)
        one, again = run_batch(spec), run_batch(spec)
        assert one == again and one.columns is not again.columns
        assert one != run_batch(replace(spec, seed=6))
        # the same spec and summary, the trials in another order
        assert one != replace(one, columns=one.columns[:, ::-1])
        assert one != one.records

    def test_lane_batches_build_no_records_until_asked(self, monkeypatch):
        # only the trials the lanes leave to run_trial become RunRecords
        # while the batch runs; trial_rng is called once per such trial
        built, rerun = [], []
        init = RunRecord.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def spied_rng(seed, index):
            rerun.append(index)
            return trial_rng(seed, index)

        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=2,
            trials=4096,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=31,
        )
        assert experiments._takes_lanes(spec)
        monkeypatch.setattr(RunRecord, "__init__", counted_init)
        monkeypatch.setattr(experiments, "trial_rng", spied_rng)
        result = run_batch(spec, threads=1)
        assert 0 < len(built) == len(rerun) < 2 * kernels._LANE_MIN_LIVE
        monkeypatch.undo()
        assert result.records == [run_trial(spec, i) for i in range(spec.trials)]
        assert result.records is result.records

    def test_a_replaced_run_trial_sees_every_trial(self, monkeypatch):
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP, n=2, trials=experiments._LANE_MIN_TRIALS, seed=8
        )
        seen = []

        def spied(spec, index):
            seen.append(index)
            return run_trial(spec, index)

        monkeypatch.setattr(experiments, "run_trial", spied)
        run_batch(spec, threads=1)
        assert seen == list(range(spec.trials))

    def test_a_lane_violation_reruns_the_chunk_trial_by_trial(self, monkeypatch):
        # a streak threshold of 0 once one agent is converted flips some
        # phases with credit left, on both paths
        monkeypatch.setattr(
            kernels,
            "_phase_ceilings",
            lambda n: np.array([0 if c == 1 else 6 for c in range(n + 1)]),
        )
        spec = TrialBatchSpec(protocol=ProtocolId.TIME_OPT, n=3, trials=1024, seed=4)
        failures = []
        for index in range(spec.trials):
            try:
                run_trial(spec, index)
            except InvariantViolation as exc:
                failures.append((index, str(exc)))
        lowest, message = failures[0]
        assert lowest > 0
        batch, lane_errors, rerun = _spied_lane_batch(monkeypatch, spec)
        with pytest.raises(InvariantViolation) as caught:
            batch()
        assert str(caught.value) == message
        assert len(lane_errors) == 1 and lane_errors[0] != message
        assert rerun == list(range(lowest + 1))


def _always_broken(n, first, *rest):
    """A predicate stand-in that fails everywhere, over ints and arrays."""
    return first == first


def _structure_text(n):
    return f"flip converged without the all-same/all-opposite structure: {n}/{n} ones"


class TestForcedChecks:
    """With a predicate forced to fail, every loop that reads it raises its
    own text, and the batch harness reruns a faulted lane share trial by
    trial."""

    @staticmethod
    def _lanes_raise(lanes, n):
        stream = experiments._PCG64Lanes(experiments._seed_block(3, 0)[:40])
        with pytest.raises(InvariantViolation) as caught:
            lanes(n, np.zeros((40, n), dtype=bool), stream, 1000)
        return str(caught.value)

    def test_a_forced_structure_check_raises_in_every_flip_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "_structure_broken", _always_broken)
        monkeypatch.setattr(kernels, "_LANE_MIN_LIVE", 1)
        for n in (4, kernels.FLIP_BLOCK_MIN_N):  # _step_bits, then _block_flip
            limits = resolve_limits(ProtocolId.FLIP, n, experiments.NATURAL_STOP)
            with pytest.raises(InvariantViolation) as caught:
                kernels.simulate_flip_bst(n, [0] * n, trial_rng(3, 0), *limits)
            assert str(caught.value) == _structure_text(n)
        assert self._lanes_raise(kernels.flip_bst_lanes, 4) == kernels.LANE_FAULT

    def test_a_forced_counter_check_raises_in_every_loop_that_reads_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_counters_broken", _always_broken)
        monkeypatch.setattr(kernels, "_LANE_MIN_LIVE", 1)
        # the block kernels, at the first meeting: a 0-mark turned to 1
        for protocol, scalar, n in [
            (ProtocolId.FLIP, kernels.simulate_flip_bst, kernels.FLIP_BLOCK_MIN_N),
            (
                ProtocolId.TIME_OPT,
                kernels.simulate_timeopt_bst,
                kernels.TIMEOPT_BLOCK_MIN_N,
            ),
        ]:
            limits = resolve_limits(protocol, n, experiments.NATURAL_STOP)
            with pytest.raises(InvariantViolation) as caught:
                scalar(n, [0] * n, trial_rng(3, 0), *limits)
            assert str(caught.value) == f"counters c0=0 c1=1 invalid with 1/{n} ones"
        for lanes in (kernels.flip_bst_lanes, kernels.timeopt_bst_lanes):
            assert self._lanes_raise(lanes, 4) == kernels.LANE_FAULT

    def test_a_flip_batch_reruns_a_forced_structure_fault_trial_by_trial(
        self, monkeypatch
    ):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=3, trials=1024, seed=3)
        assert experiments._takes_lanes(spec)
        monkeypatch.setattr(kernels, "_structure_broken", _always_broken)
        batch, lane_errors, rerun = _spied_lane_batch(monkeypatch, spec)
        with pytest.raises(InvariantViolation) as caught:
            batch()
        assert str(caught.value) == _structure_text(3)
        assert lane_errors == [kernels.LANE_FAULT]
        assert rerun == [0]

    def test_a_phased_batch_keeps_its_records_under_a_forced_counter_check(
        self, monkeypatch
    ):
        # _step_bits writes the counter check inline, so the trial-by-trial
        # rerun passes where the lanes fault
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT, n=3, trials=1024,
            init=InitPolicy.UNIFORM_RANDOM_MARKS, seed=3,
        )
        assert experiments._takes_lanes(spec)
        clean = run_batch(spec, threads=1)
        monkeypatch.setattr(kernels, "_counters_broken", _always_broken)
        batch, lane_errors, rerun = _spied_lane_batch(monkeypatch, spec)
        assert batch().records == clean.records
        assert lane_errors == [kernels.LANE_FAULT]
        assert rerun == list(range(spec.trials))


class _SameDoubles(_Doubles):
    """A lanes stream giving every row the same fixed doubles in order."""

    def __init__(self, values, rows):
        super().__init__(values)
        self.rows = rows

    def random(self):
        return np.full(self.rows, super().random())

    def keep(self, rows):
        self.rows = len(rows)


def longest_first_phase(n):
    """The doubles of the longest first phase at n agents: each conversion
    (agent n - 1, unconverted until the last) followed by the most misses
    (agent 0) its count of ones allows, then the miss that flips."""
    ceilings = kernels._phase_ceilings(n)
    doubles = []
    for ones in range(1, n + 1):
        doubles += [(n - 0.5) / n] + [0.0] * int(ceilings[ones])
    return np.array(doubles + [0.0])


class TestFirstPhaseBound:
    """No first phase outlives _first_phase_length(n) meetings; one that
    does has broken an invariant, on the scalar kernel and on the lanes."""

    @pytest.mark.parametrize("n,length", [(1, 8), (2, 24), (8, 416), (20, 3328)])
    def test_the_longest_first_phase_ends_at_the_bound(self, n, length):
        doubles = longest_first_phase(n)
        assert len(doubles) == kernels._first_phase_length(n) == length
        rng = _Doubles(doubles)
        assert kernels.simulate_timeopt_first_phase(n, rng) is True
        assert rng.taken == length
        stream = _SameDoubles(doubles, 3)
        assert kernels.timeopt_first_phase_lanes(n, stream, 3).tolist() == [1, 1, 1]
        assert stream.taken == length

    @pytest.mark.parametrize("n", [1, 2, 8, 20])
    def test_a_run_past_the_bound_breaks_an_invariant(self, monkeypatch, n):
        length = kernels._first_phase_length(n)
        monkeypatch.setattr(kernels, "_first_phase_length", lambda m: length - 1)
        doubles = longest_first_phase(n)
        with pytest.raises(
            InvariantViolation, match=f"^first phase still running after {length - 1} "
        ):
            kernels.simulate_timeopt_first_phase(n, _Doubles(doubles))
        with pytest.raises(InvariantViolation, match=f"^{kernels.LANE_FAULT}$"):
            kernels.timeopt_first_phase_lanes(n, _SameDoubles(doubles, 3), 3)


class TestFirstPhaseLanes:
    """The first-phase estimate steps its seed blocks as lanes; the
    verdicts must be the scalar kernel's, trial for trial."""

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_lane_verdicts_equal_the_scalar_kernel(self, data):
        n = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2 ** 64))
        # cut-offs of a few lanes keep the scalar reference cheap at n = 40
        min_trials = data.draw(st.integers(1, 16))
        size = data.draw(
            st.sampled_from([min_trials - 1, min_trials, 40]) | st.integers(1, 40)
        )
        # the range's trials before a seed-block edge inside a chunk, or
        # before a chunk edge: none, all, or some
        before = data.draw(
            st.sampled_from([0, size, min_trials]) | st.integers(0, size)
        )
        edge = data.draw(st.sampled_from([1024, experiments._CHUNK]))
        lo = max(0, edge * data.draw(st.integers(1, 3)) - before)
        with mock.patch.object(experiments, "_LANE_MIN_TRIALS", min_trials):
            verdicts = experiments._first_phase_range(n, seed, lo, lo + size).tolist()
        assert verdicts == [
            kernels.simulate_timeopt_first_phase(n, trial_rng(seed, i))
            for i in range(lo, lo + size)
        ]

    @pytest.mark.parametrize(
        "n,trials,hits", [(2, 10000, 9927), (3, 5000, 4989), (5, 3000, 2999)]
    )
    def test_hit_counts_are_frozen(self, n, trials, hits):
        # the allflip-probability check's seeds at verify seed 42
        seed = derive_seed(42, 5, n)
        # verdicts are int8: the builtin sum would add them in int8
        assert int(experiments._first_phase_range(n, seed, 0, trials).sum()) == hits
        assert estimate_allflip_probability(n, trials, seed) == hits / trials

    def test_an_estimate_steps_a_chunk_of_seed_blocks_at_a_time(self, monkeypatch):
        lanes = kernels.timeopt_first_phase_lanes
        sizes = []

        def spied_lanes(n, stream, size):
            sizes.append(size)
            return lanes(n, stream, size)

        monkeypatch.setattr(kernels, "timeopt_first_phase_lanes", spied_lanes)
        # the frozen hit count of 10000 first phases at n = 2
        assert estimate_allflip_probability(2, 10000, derive_seed(42, 5, 2)) == 0.9927
        assert sizes == [8192, 1808]

    def test_no_lane_share_ends_above_index_2_to_the_32(self, monkeypatch):
        edge, n, seed = 1 << 32, 5, 13
        lanes = kernels.timeopt_first_phase_lanes
        shares = []

        def spied_lanes(n, stream, size):
            shares.append(stream.lo.copy())
            return lanes(n, stream, size)

        monkeypatch.setattr(kernels, "timeopt_first_phase_lanes", spied_lanes)
        monkeypatch.setattr(experiments, "_LANE_MIN_TRIALS", 4)
        got = experiments._first_phase_range(n, seed, edge - 6, edge + 6).tolist()
        assert got == [
            kernels.simulate_timeopt_first_phase(n, trial_rng(seed, i))
            for i in range(edge - 6, edge + 6)
        ]
        below = experiments._seed_block(seed, edge // 1024 - 1)[-6:]
        assert len(shares) == 1
        assert (shares[0] == experiments._PCG64Lanes(below).lo).all()

    @pytest.mark.parametrize(
        "n,trials,seed,message",
        [
            (2, 0, 1, "trials must be >= 1"),
            (0, 10, 1, "n must be >= 1"),
            (2, 10, -1, "seed must be an integer >= 0, got -1"),
            (2, 10, 1.5, "seed must be an integer >= 0, got 1.5"),
        ],
    )
    def test_estimate_checks_its_inputs(self, n, trials, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_allflip_probability(n, trials, seed)

    def test_a_numpy_integer_seed_takes_the_lanes(self, monkeypatch):
        lanes = kernels.timeopt_first_phase_lanes
        calls = []

        def spied_lanes(*args):
            calls.append(args[2])
            return lanes(*args)

        monkeypatch.setattr(kernels, "timeopt_first_phase_lanes", spied_lanes)
        p = estimate_allflip_probability(2, 1024, np.uint64(7))
        assert calls == [1024]
        assert p == estimate_allflip_probability(2, 1024, 7)

    def test_a_replaced_first_phase_kernel_sees_every_trial(self, monkeypatch):
        scalar = kernels.simulate_timeopt_first_phase
        seen = []

        def spied(n, rng):
            seen.append(rng.bit_generator.state)
            return scalar(n, rng)

        monkeypatch.setattr(kernels, "simulate_timeopt_first_phase", spied)
        assert estimate_allflip_probability(2, 2048, 8) == sum(
            scalar(2, trial_rng(8, i)) for i in range(2048)
        ) / 2048
        assert seen == [trial_rng(8, i).bit_generator.state for i in range(2048)]

    def test_a_lane_violation_raises_the_scalar_kernels_message(self, monkeypatch):
        # doubles below 1e-3 read as 1.5 on both paths: an agent index of n
        # or more is a conversion too many once every agent is converted
        def corrupt(doubles):
            return np.where(doubles < 1e-3, 1.5, doubles)

        class CorruptRng:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size=None):
                return corrupt(self.rng.random(size))

        n, trials, seed = 2, 1024, 3
        failures = []
        for index in range(trials):
            try:
                rng = CorruptRng(trial_rng(seed, index))
                kernels.simulate_timeopt_first_phase(n, rng)
            except InvariantViolation as exc:
                failures.append((index, str(exc)))
        lowest, message = failures[0]
        assert lowest > 0
        lane_errors, rerun = [], []
        lanes = kernels.timeopt_first_phase_lanes
        draw = experiments._PCG64Lanes.random

        def spied_lanes(*args):
            try:
                return lanes(*args)
            except InvariantViolation as exc:
                lane_errors.append(str(exc))
                raise

        def spied_rng(seed, index):
            rerun.append(index)
            return CorruptRng(trial_rng(seed, index))

        monkeypatch.setattr(kernels, "timeopt_first_phase_lanes", spied_lanes)
        monkeypatch.setattr(
            experiments._PCG64Lanes, "random", lambda stream: corrupt(draw(stream))
        )
        monkeypatch.setattr(experiments, "trial_rng", spied_rng)
        with pytest.raises(InvariantViolation) as caught:
            estimate_allflip_probability(n, trials, seed)
        assert str(caught.value) == message
        assert len(lane_errors) == 1 and lane_errors[0] != message
        assert rerun == list(range(lowest + 1))


class TestBatch:
    def test_import_loads_no_process_pool(self):
        # run_batch imports its pool where it uses one, so a one-worker run
        # does not pay for loading it
        code = (
            "import sys, popcountlab; "
            "pools = {'multiprocessing', 'concurrent.futures'}; "
            "print(sorted(pools & set(sys.modules)))"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_batches_are_deterministic(self):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=4, trials=16, seed=11)
        assert run_batch(spec).records == run_batch(spec).records

    def test_worker_count_does_not_change_records(self):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=4, trials=16, seed=11)
        serial = run_batch(spec, threads=1)
        parallel = run_batch(spec, threads=2)
        assert serial.records == parallel.records
        assert serial.summary == parallel.summary

    @pytest.mark.parametrize(
        "protocol,n,stop,dtype",
        [
            # total cap 3448
            (ProtocolId.TIME_OPT, 2, None, np.int16),
            (ProtocolId.FLIP, 4, StopCondition(StopKind.COUNT_REACHES_N, 100), np.int8),
            # total cap about 1.9 * 10^8
            (ProtocolId.TIME_OPT, 256, None, np.int32),
            # total cap about 2.3 * 10^10
            (ProtocolId.FLIP, 20, None, np.int64),
            (ProtocolId.FLIP, 4, StopCondition(StopKind.MAX_INTERACTIONS, 2**40), np.int64),
        ],
    )
    def test_columns_take_the_narrowest_type_the_limits_allow(
        self, protocol, n, stop, dtype
    ):
        spec = TrialBatchSpec(protocol=protocol, n=n, trials=1, stop=stop)
        assert experiments._column_type(spec) is dtype
        total_cap = resolve_limits(protocol, n, spec.resolved_stop())[1]
        assert np.iinfo(dtype).max >= total_cap
        if dtype is not np.int8:
            narrower = experiments._COLUMN_TYPES[experiments._COLUMN_TYPES.index(dtype) - 1]
            assert np.iinfo(narrower).max < total_cap

    def test_thread_resolution(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.delenv("POPCOUNT_THREADS", raising=False)
        assert resolve_threads(None) == 1
        assert resolve_threads(5) == min(5, cpus)
        monkeypatch.setenv("POPCOUNT_THREADS", "3")
        assert resolve_threads(None) == min(3, cpus)
        for clamped in ("0", "-2"):
            monkeypatch.setenv("POPCOUNT_THREADS", clamped)
            assert resolve_threads(None) == 1
        # a pool starts every worker at once: never more than the CPUs;
        # only resolved here, no pool is started
        for huge in ("5000", str(10 ** 30)):
            monkeypatch.setenv("POPCOUNT_THREADS", huge)
            assert resolve_threads(None) == cpus
            assert resolve_threads(int(huge)) == cpus
        monkeypatch.setenv("POPCOUNT_THREADS", "abc")
        with pytest.raises(ValueError, match="POPCOUNT_THREADS.*'abc'"):
            resolve_threads(None)

    def test_all_truncated_raises(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP,
            n=12,
            trials=4,
            seed=0,
            stop=StopCondition(StopKind.COUNT_REACHES_N, 5),
        )
        with pytest.raises(AllTrialsTruncated):
            run_batch(spec)

    def test_single_trial_summary_has_zero_spread(self):
        record = run_trial(
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=3, trials=1, seed=2), 0
        )
        summary = summarize([record])
        assert summary.bst_interactions.stddev == 0.0
        assert summary.bst_interactions.standard_error == 0.0
        assert summary.trials == 1 and summary.truncated == 0

    def test_sweep_n_is_deterministic(self):
        base = TrialBatchSpec(protocol=ProtocolId.FLIP, n=2, trials=20, seed=3)
        once = sweep_n(base, [2, 4])
        again = sweep_n(base, [2, 4])
        assert once == again
        assert [n for n, _ in once] == [2, 4]


class TestSummaries:
    """_metric_stats from exact integer sums: statistics' floats."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 2 ** 80), min_size=1, max_size=300)
        | st.builds(lambda v, k: [v] * k, st.integers(0, 2 ** 80), st.integers(1, 300))
    )
    # from 2^53 a value is not exact as a double, and fmean sums the doubles
    @example(values=[2 ** 53 + 1] * 3)
    def test_metric_stats_are_the_statistics_modules(self, values):
        got = experiments._metric_stats(values)
        stddev = statistics.stdev(values) if len(values) > 1 else 0.0
        assert got.mean == statistics.fmean(values)
        assert got.stddev == stddev
        assert got.standard_error == stddev / math.sqrt(len(values))
        assert (got.min, got.max) == (min(values), max(values))

    # shrinking a failure here took 147 s, against 5 s to find it
    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_column_summary_is_the_record_summary(self, data):
        # squares of values up to 2^40 pass int64, so Python ints take the
        # sums, and from 2^53 fmean no longer sums exact doubles; smaller
        # values keep the sums in int64
        top = data.draw(st.sampled_from([3, 2 ** 20, 2 ** 40, 2 ** 62]))
        value = st.integers(0, top)
        record = st.builds(
            lambda total, bst, nn, conv, final, flips: RunRecord(
                total, bst, nn, conv and bst, conv and nn, final, flips
            ),
            value,
            value,
            value,
            st.sampled_from([None, True]),
            value,
            st.none() | value,
        )
        records = data.draw(
            st.lists(record, min_size=1, max_size=1)
            | st.lists(record, min_size=1, max_size=60)
        )
        columns = experiments._columns(records)
        assert experiments._records(columns) == records
        converged = [r for r in records if r.converged]
        if not converged:
            message = f"^none of the {len(records)} trials converged within budget$"
            for results in (records, columns):
                with pytest.raises(AllTrialsTruncated, match=message):
                    summarize(results)
            return
        got = summarize(columns)
        assert got == summarize(records)
        assert got.trials == len(converged)
        assert got.truncated == len(records) - len(converged)
        for stats_, field in [
            (got.bst_interactions, "converged_at_bst_interaction"),
            (got.total_interactions, "total_interactions"),
            (got.non_null_transitions, "converged_at_non_null"),
        ]:
            values = [getattr(r, field) for r in converged]
            stddev = statistics.stdev(values) if len(values) > 1 else 0.0
            assert stats_.mean == statistics.fmean(values)
            assert stats_.stddev == stddev
            assert (stats_.min, stats_.max) == (min(values), max(values))

    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_summaries_do_not_depend_on_column_width(self, data):
        # int64 columns within a narrow type's range, with its extremes, -1
        # fields and truncated trials; repeated trials take the sums of
        # squares past the narrow type, through int64 and through Python ints
        dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int32]))
        info = np.iinfo(dtype)
        top = data.draw(st.sampled_from([info.max, math.isqrt(info.max) + 1]))
        value = st.sampled_from([info.min, info.max, -1, 0]) | st.integers(
            max(info.min, -top), top
        )
        width = data.draw(st.integers(1, 12))
        row = st.lists(value, min_size=width, max_size=width)
        rows = st.lists(row, min_size=len(RecordRow), max_size=len(RecordRow))
        columns = np.array(data.draw(rows), dtype=np.int64)
        flags = st.lists(st.booleans(), min_size=width, max_size=width)
        truncated = np.array(data.draw(flags))
        columns[RecordRow.converged_at_bst_interaction, truncated] = -1
        columns[RecordRow.converged_at_non_null, truncated] = -1
        columns = np.tile(columns, data.draw(st.sampled_from([1, 3, 5000])))
        narrow = columns.astype(dtype)
        assert np.array_equal(narrow, columns)
        try:
            wide = summarize(columns)
        except AllTrialsTruncated as exc:
            with pytest.raises(AllTrialsTruncated, match=f"^{re.escape(str(exc))}$"):
                summarize(narrow)
            return
        assert summarize(narrow) == wide

    def test_every_four_value_sample_from_1_to_11(self):
        for values in itertools.product(range(1, 12), repeat=4):
            stddev = experiments._metric_stats(list(values)).stddev
            assert stddev == statistics.stdev(values)
        # a sample whose stdev Python 3.10's statistics rounded differently
        assert experiments._metric_stats([1, 1, 2, 8]).stddev == 3.3665016461206925


class TestSpecValidation:
    def test_population_and_trials(self):
        with pytest.raises(ValueError):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=0, trials=1)
        with pytest.raises(ValueError):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=1, trials=0)

    def test_vector_rules(self):
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=3,
                trials=1,
                init=InitPolicy.EXPLICIT_VECTOR,
                vector=(0, 1),
            )
        with pytest.raises(ValueError):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=2, trials=1, vector=(0, 1))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        with pytest.raises(ValueError, match=f"seed .*{seed!r}"):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=2, trials=1, seed=seed)

    def test_numpy_integer_seed_is_stored_as_int_and_takes_lanes(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT, n=2, trials=1024, seed=np.uint64(7)
        )
        assert type(spec.seed) is int
        assert experiments._takes_lanes(spec)
        plain = replace(spec, seed=7)
        assert run_batch(spec, threads=1).records == run_batch(plain, threads=1).records

    def test_protocol_pairings(self):
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=2,
                trials=1,
                init=InitPolicy.WORST_CASE_UNNAMED,
            )
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.GROS_NAMING,
                n=2,
                trials=1,
                scheduler=SchedulerKind.ROUND_ROBIN,
                init=InitPolicy.UNIFORM_RANDOM_MARKS,
            )
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=2,
                trials=1,
                scheduler=SchedulerKind.WEAK_ADVERSARIAL,
            )
        with pytest.raises(ValueError):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=2, trials=1, bound=5)
        with pytest.raises(ValueError, match="pairs mobiles"):
            TrialBatchSpec(protocol=ProtocolId.GROS_NAMING, n=2, trials=1)

    @pytest.mark.parametrize("scheduler", BIT_SCHEDULERS, ids=lambda s: s.value)
    def test_flip_above_63_agents_needs_a_bound(self, scheduler):
        # above 63 agents flip steps one meeting at a time, and with no
        # bound a run from mixed marks can last its whole 64 * 2^65 budget
        big = kernels.FLIP_MAX_N + 1
        with pytest.raises(ValueError, match="n > 63 needs a bound .* 64 \\* 2\\^65"):
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=big, trials=1, scheduler=scheduler)
        for stop in (
            StopCondition(StopKind.COUNT_REACHES_N, 1000),
            StopCondition(StopKind.MAX_INTERACTIONS, 50),
        ):
            bounded = TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=big,
                trials=1,
                scheduler=scheduler,
                init=InitPolicy.UNIFORM_RANDOM_MARKS,
                stop=stop,
            )
            assert run_trial(bounded, 0) == run_trial(bounded, 0, force_engine=True)
            assert run_trial(bounded, 0).total_interactions == stop.bound
        if scheduler is SchedulerKind.ROUND_ROBIN:
            # from zeros the first n meetings, one cycle's opening, converge
            zeros = TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=big,
                trials=1,
                scheduler=scheduler,
                stop=StopCondition(StopKind.COUNT_REACHES_N, 1000),
            )
            assert run_trial(zeros, 0).converged_at_bst_interaction == big
        TrialBatchSpec(protocol=ProtocolId.FLIP, n=big - 1, trials=1, scheduler=scheduler)
        TrialBatchSpec(protocol=ProtocolId.TIME_OPT, n=big, trials=1, scheduler=scheduler)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundrobin_flip_converges_only_from_two_blocks_of_marks(self, n):
        # Every cycle flips every mark.  Exactly the 2n starts 0^a 1^b and
        # 1^a 0^b converge; every other start runs its whole budget, which
        # is why flip above FLIP_MAX_N needs a bound under round-robin too.
        budget, cap = resolve_limits(ProtocolId.FLIP, n, experiments.NATURAL_STOP)
        blocks = {
            tuple([x] * a + [1 - x] * (n - a)) for x in (0, 1) for a in range(n + 1)
        }
        assert len(blocks) == 2 * n
        for marks in itertools.product((0, 1), repeat=n):
            record = kernels.simulate_flip(
                SchedulerKind.ROUND_ROBIN, n, list(marks), None, budget, cap
            )
            if marks in blocks:
                assert record.converged_at_bst_interaction is not None
            else:
                assert record.converged_at_bst_interaction is None
                assert record.bst_interactions == budget == 64 << (n + 1)

    def test_initial_values_must_fit_the_state_space(self):
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.GROS_NAMING,
                n=2,
                trials=1,
                scheduler=SchedulerKind.WEAK_ADVERSARIAL,
                init=InitPolicy.EXPLICIT_VECTOR,
                vector=(0, 9),
            )
        with pytest.raises(ValueError):
            TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=2,
                trials=1,
                init=InitPolicy.EXPLICIT_VECTOR,
                vector=(0, 2),
            )


class TestAdversarialNaming:
    def test_frozen_worst_case_runs(self):
        for n, expected in ((3, 10), (4, 22)):
            spec = TrialBatchSpec(
                protocol=ProtocolId.GROS_NAMING,
                n=n,
                trials=1,
                scheduler=SchedulerKind.WEAK_ADVERSARIAL,
                init=InitPolicy.WORST_CASE_UNNAMED,
            )
            record = run_trial(spec, 0)
            assert record.converged_at_non_null == expected

    def test_frozen_all_sinks_run(self):
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING,
            n=3,
            trials=1,
            scheduler=SchedulerKind.WEAK_ADVERSARIAL,
        )
        record = run_trial(spec, 0)
        assert record.converged_at_non_null == 6
        assert record.final_c == 3

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sweep_matches_the_doubling_formula(self, n):
        sweep = sweep_worst_unnamed(n)
        assert sweep.worst_non_null == oracle.gros_worst_case(n)
        assert sweep.worst_start == frozenset(range(1, n))
        assert sweep.starts_checked == 2 ** n - 1

    def test_sweep_validation(self):
        with pytest.raises(Intractable):
            sweep_worst_unnamed(17)

    def test_a_start_that_never_reaches_silence_fails_the_sweep(self, monkeypatch):
        # three interactions cannot name three agents that all start as sinks
        monkeypatch.setattr(experiments, "resolve_limits", lambda *args: (3, 3))
        with pytest.raises(AllTrialsTruncated) as caught:
            sweep_worst_unnamed(3)
        assert str(caught.value) == "start mask 0x0 did not reach silence within budget"

    def test_the_non_null_count_depends_only_on_the_state(self):
        # Every pair can meet, so the states (sorted names, next index k)
        # that the rules reach are those any schedule reaches.  All
        # successors of each state agree on the non-null count to silence,
        # so every schedule makes one count from a start, and the worst
        # start of all, homonym starts included, is gros_worst_case(n).
        for n, states in zip(range(1, 6), [3, 13, 62, 319, 1754]):
            to_silence = {}

            def count(names, k):
                if (names, k) not in to_silence:
                    bst = protocols.GrosBst(k=k, bound=n + 1)
                    after = set()
                    for i, name in enumerate(names):
                        new_bst, new = protocols.gros_bst_step(bst, name)
                        if new != name:
                            after.add((names[:i] + (new,) + names[i + 1 :], new_bst.k))
                        for j in range(i + 1, n):
                            pair = protocols.gros_mobile_step(name, names[j])
                            if pair != (name, names[j]):
                                rest = names[:i] + names[i + 1 : j] + names[j + 1 :]
                                after.add((rest + pair, k))
                    counts = {1 + count(tuple(sorted(s)), j) for s, j in after}
                    assert len(counts) <= 1, (names, k)
                    to_silence[names, k] = counts.pop() if counts else 0
                return to_silence[names, k]

            starts = list(itertools.product(range(n + 1), repeat=n))
            expected = [count(tuple(sorted(start)), 1) for start in starts]
            assert len(to_silence) == states
            assert max(expected) == oracle.gros_worst_case(n)
            limits = resolve_limits(ProtocolId.GROS_NAMING, n, experiments.NATURAL_STOP)
            for index, (start, want) in enumerate(zip(starts, expected)):
                rng = trial_rng(n, index)
                for scheduler in PAIR_SCHEDULERS:
                    record, _ = kernels.simulate_gros(scheduler, start, n + 1, rng, *limits)
                    assert record.converged_at_non_null == want, start

    def test_every_swept_start_keeps_its_record_and_names(self):
        # sha256 over repr((record fields, final names)) of every start the
        # sweep enumerates at n = 1-9, in sweep order
        digest = hashlib.sha256()
        for n in range(1, 10):
            limits = resolve_limits(ProtocolId.GROS_NAMING, n, experiments.NATURAL_STOP)
            for mask in range(2 ** n - 1):
                record, names = kernels.simulate_gros_adversarial(
                    subset_start(n, mask), n + 1, *limits
                )
                digest.update(repr((tuple(vars(record).values()), names)).encode())
        assert digest.hexdigest() == (
            "97be44a88b93e383a068e14149f3adc16532664c366d7ef65c8d6211a9405a02"
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_pair_source_is_the_schedulers_schedule(self, data):
        # step for step, with engine.BST as index n, until silence, a name
        # overflow or the cap
        n = data.draw(st.integers(1, 8))
        bound = data.draw(st.integers(1, n + 2))
        names = data.draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n))
        stop = StopCondition(
            StopKind.COUNT_REACHES_N, data.draw(st.sampled_from([None, 1, 2, 5, 31]))
        )
        limits = resolve_limits(ProtocolId.GROS_NAMING, n, stop)
        kernel_pairs, engine_pairs = [], []

        def source(names, counts):
            for pair in kernels._adversary(names, counts):
                kernel_pairs.append(pair)
                yield pair

        class Recording(WeakAdversarialScheduler):
            def next_pair(self, config):
                a, b = super().next_pair(config)
                engine_pairs.append((n if a == engine.BST else a, b))
                return a, b

        config = engine.initial_configuration(ProtocolId.GROS_NAMING, names, bound=bound)
        try:
            kernel = kernels._step_gros(source, names, bound, *limits)
        except NameOverflow as exc:
            kernel = str(exc)
        try:
            final, record = engine.run(ProtocolId.GROS_NAMING, Recording(), config, stop)
            reference = record, list(final.mobiles)
        except NameOverflow as exc:
            reference = str(exc)
        assert kernel_pairs == engine_pairs
        assert kernel == reference

    def test_worst_start_shape(self):
        assert worst_unnamed_start(4) == [0, 1, 2, 3]

    def test_subset_start_names_the_mask_bits(self):
        assert subset_start(4, 0b0101) == [1, 3, 0, 0]
        assert subset_start(3, 0) == [0, 0, 0]
        assert subset_start(3, 0b111) == [1, 2, 3]


class TestNamingSilenceCheck:
    # With a tally blind to homonyms, a naming loop takes a start or a
    # run with a shared name for silence; each loop checks the names
    # themselves before it reports a run as silent.
    @pytest.mark.parametrize("scheduler", PAIR_SCHEDULERS)
    @pytest.mark.parametrize(
        "start,left",
        [((1, 1, 2, 3), r"\[1, 1, 2, 3\]"), ((0, 2, 2, 3), r"\[.*\]")],
        ids=["silent-start", "run"],
    )
    def test_a_blind_name_tally_breaks_the_silence_check(
        self, monkeypatch, scheduler, start, left
    ):
        real_tally = kernels._name_tally

        def blind_tally(names, size):
            return real_tally(names, size)[0], 0

        monkeypatch.setattr(kernels, "_name_tally", blind_tally)
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING,
            n=4,
            trials=1,
            scheduler=scheduler,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=start,
        )
        message = rf"^silent run left names {left} \(want 4 distinct non-sink\)$"
        with pytest.raises(InvariantViolation, match=message):
            run_trial(spec, 0)


class TestStatisticalCrossChecks:
    @pytest.mark.parametrize(
        "n,seed,trials",
        [
            (2, 31, 20000),
            (3, 31, 20000),
            (4, 31, 20000),
            # the batch whose mean fails flip-mean-vs-exact at z = -4.2 in
            # `verify --level fast --seed 9`
            (4, derive_seed(9, 2, 4), 4000),
            (6, 31, 20000),
            (8, 31, 20000),
        ],
    )
    def test_flip_meeting_counts_follow_the_exact_law(self, n, seed, trials):
        # each horizon leaves a tail below 1e-6 beyond it, and a mean within
        # 1e-6 of the closed form
        law = oracle.flip_hitting_law(n, {6: 2000, 8: 7000}.get(n, 400))
        assert 1 - sum(law) < 1e-6
        mean = sum(t * p for t, p in enumerate(law))
        assert abs(mean - oracle.flip_expected_closed_form(n)) < 1e-6
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=n, trials=trials, seed=seed)
        times = Counter(r.converged_at_bst_interaction for r in run_batch(spec).records)
        assert all(law[t] > 0 for t in times if t < len(law))
        # pool consecutive times into bins expecting at least 5 trials each;
        # the last bin takes the tail beyond the horizon
        observed, expected = [], []
        seen = want = 0
        for t, p in enumerate(law):
            seen += times[t]
            want += trials * float(p)
            if want >= 5:
                observed.append(seen)
                expected.append(want)
                seen = want = 0
        observed[-1] += trials - sum(observed)
        expected[-1] = trials - sum(expected[:-1])
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        pvalue = stats.chi2.sf(chi2, len(observed) - 1)
        assert 1e-4 < pvalue < 1 - 1e-4, (chi2, len(observed) - 1)

    def test_allflip_estimate_is_reproducible_and_near_exact(self):
        # failing the first phase from all zeros at n = 2 takes seven
        # consecutive converted draws, so the success probability is 1 - 2^-7
        p = estimate_allflip_probability(2, 3000, seed=99)
        assert p == estimate_allflip_probability(2, 3000, seed=99)
        exact = 1 - 2.0 ** -7
        se = math.sqrt(exact * (1 - exact) / 3000)
        assert abs(p - exact) <= 4 * se

    @pytest.mark.parametrize("n", [2, 3])
    def test_allflip_estimate_matches_the_exact_first_phase(self, n):
        trials = 100_000
        exact = float(oracle.first_phase_full_conversion(n))
        freq = estimate_allflip_probability(n, trials, seed=derive_seed(61, n))
        z = (freq - exact) / math.sqrt(exact * (1 - exact) / trials)
        assert abs(z) < 4, (freq, exact, z)

    def test_all_same_start_beats_mixed_start_for_flip(self):
        # from an all-same pair the expectation is 4 meetings; a split pair
        # must first coalesce and averages 5
        zeros = run_batch(
            TrialBatchSpec(protocol=ProtocolId.FLIP, n=2, trials=3000, seed=17)
        ).summary.bst_interactions
        mixed = run_batch(
            TrialBatchSpec(
                protocol=ProtocolId.FLIP,
                n=2,
                trials=3000,
                seed=18,
                init=InitPolicy.EXPLICIT_VECTOR,
                vector=(0, 1),
            )
        ).summary.bst_interactions
        assert zeros.mean + 3 * zeros.standard_error < mixed.mean - 3 * mixed.standard_error

    def test_uniform_pair_flip_totals_match_walds_identity(self):
        # n = 10 runs through the block kernel; the reference is exact
        n, trials = 10, 3000
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP,
            n=n,
            trials=trials,
            scheduler=SchedulerKind.UNIFORM_PAIR,
            seed=derive_seed(71, n),
        )
        total = run_batch(spec).summary.total_interactions
        exact = float(oracle.flip_uniform_total_expected(n))
        z = (total.mean - exact) / total.standard_error
        assert abs(z) < 4, (total.mean, exact, z)

    @pytest.mark.parametrize(
        "n,ones",
        [(n, None) for n in (5, 6, 7, 8)] + [(6, k) for k in range(7)] + [(8, 8)],
    )
    def test_phased_means_match_the_exact_solve(self, n, ones):
        # BST-only batches, stepped as lanes, from random marks or from a
        # vector whose first `ones` agents carry mark 1
        if ones is None:
            start = dict(init=InitPolicy.UNIFORM_RANDOM_MARKS, seed=derive_seed(73, n))
        else:
            vector = (1,) * ones + (0,) * (n - ones)
            start = dict(
                init=InitPolicy.EXPLICIT_VECTOR, vector=vector, seed=derive_seed(73, n, ones)
            )
        spec = TrialBatchSpec(protocol=ProtocolId.TIME_OPT, n=n, trials=4096, **start)
        bst = run_batch(spec).summary.bst_interactions
        exact = float(oracle.timeopt_exact_expected(n, ones))
        z = (bst.mean - exact) / bst.standard_error
        assert abs(z) < 4, (bst.mean, exact, z)

    def test_uniform_pair_phased_totals_match_walds_identity(self):
        n, trials = 6, 3000
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=n,
            trials=trials,
            scheduler=SchedulerKind.UNIFORM_PAIR,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=derive_seed(79, n),
        )
        total = run_batch(spec).summary.total_interactions
        exact = float(oracle.timeopt_uniform_total_expected(n))
        z = (total.mean - exact) / total.standard_error
        assert abs(z) < 4, (total.mean, exact, z)

    def test_uniform_pair_interaction_overhead(self):
        # a pair involves the base station with probability 2 / (n + 1), so
        # total interactions run near (n + 1) / 2 per base-station meeting
        n = 16
        summary = run_batch(
            TrialBatchSpec(
                protocol=ProtocolId.TIME_OPT,
                n=n,
                trials=200,
                scheduler=SchedulerKind.UNIFORM_PAIR,
                seed=23,
            )
        ).summary
        ratio = summary.total_interactions.mean / summary.bst_interactions.mean
        assert abs(ratio - (n + 1) / 2) < 0.1 * (n + 1) / 2
