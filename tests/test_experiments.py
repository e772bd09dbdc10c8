"""Batch harness: kernel/engine replay equality, seeded determinism,
parallel equivalence, and the adversarial worst-case sweep."""

import hashlib
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from popcountlab import experiments, kernels, oracle

from popcountlab.engine import (
    InvariantViolation,
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
from popcountlab.schedulers import SchedulerKind

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
]

TRUNCATION_BOUNDS = (1, 3, 17, 100)


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
                SchedulerKind.WEAK_ADVERSARIAL,
                init,
                n,
                bound,
                id=f"gros-{init.value}-n{n}-{bound}",
            )
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
        # Caps sit on both sides of the 32- and 4096-draw block edges; the
        # default stop is only affordable on the engine for small n.
        protocol = data.draw(st.sampled_from([ProtocolId.FLIP, ProtocolId.TIME_OPT]))
        scheduler = data.draw(
            st.sampled_from([SchedulerKind.BST_ONLY, SchedulerKind.UNIFORM_PAIR])
        )
        n = data.draw(st.integers(1, 40))
        marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bounds = [1, 31, 32, 33, 4095, 4096, 4097, 8191, 8192, 8193]
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
        n = data.draw(st.integers(1, 8))
        bound = data.draw(st.integers(1, n + 2))
        names = data.draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n))
        cap = data.draw(st.sampled_from([None, 1, 7, 50]))
        spec = TrialBatchSpec(
            protocol=ProtocolId.GROS_NAMING,
            n=n,
            trials=1,
            scheduler=SchedulerKind.WEAK_ADVERSARIAL,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=tuple(names),
            bound=bound,
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
    def test_bit_kernel_records_do_not_depend_on_block_size(self, data):
        # a block only buffers draws: its length must not show in the record
        protocol, step = data.draw(
            st.sampled_from(
                [(ProtocolId.FLIP, kernels._step_flip),
                 (ProtocolId.TIME_OPT, kernels._step_timeopt)]
            )
        )
        draw = data.draw(st.sampled_from([kernels._bst_draw, kernels._uniform_draw]))
        n = data.draw(st.integers(1, 12))
        marks = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        cap = data.draw(st.sampled_from([None, 1, 31, 33]))
        stop = StopCondition(StopKind.COUNT_REACHES_N, cap)
        limits = resolve_limits(protocol, n, stop)[:2]
        seed = data.draw(st.integers(0, 2 ** 32))
        records = [
            step(draw, size, n, marks, trial_rng(seed, 0), *limits, True)
            for size in (1, 3, 32, 4096)
        ]
        assert records[1:] == records[:-1]


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

    def test_first_phase_verdicts(self):
        # the per-trial verdicts behind estimate_allflip_probability(2, 2000, 7)
        verdicts = [
            kernels.simulate_timeopt_first_phase(2, trial_rng(7, i)) for i in range(2000)
        ]
        assert hashlib.sha256(bytes(verdicts)).hexdigest() == (
            "4b602938e363ba20cc5340a216d10d7deb1f3c2f3897a6e7789ed8f5c728e05f"
        )
        assert estimate_allflip_probability(2, 2000, 7) == sum(verdicts) / 2000 == 0.992


BIT_STARTS = [
    InitPolicy.ALL_ZERO,
    InitPolicy.ALL_ONE,
    InitPolicy.UNIFORM_RANDOM_MARKS,
    InitPolicy.EXPLICIT_VECTOR,
]


class TestLanes:
    """Large BST-only bit batches step their trials as lanes; the records
    must be run_trial's, trial for trial."""

    @settings(max_examples=120, deadline=None)
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
            min_live = experiments._LANE_MIN_LIVE
            most = 2 * min_trials + 40
        size = data.draw(
            st.sampled_from([min_trials - 1, min_trials, most]) | st.integers(1, most)
        )
        # the range's trials before a seed-block edge: none, all, or some
        before = data.draw(
            st.sampled_from([0, size, min_trials, size - min_trials])
            | st.integers(0, size)
        )
        lo = max(0, 1024 * data.draw(st.integers(1, 3)) - before)
        with mock.patch.multiple(
            experiments,
            _LANE_MIN_TRIALS=min_trials,
            _LANE_MIN_LIVE=min_live,
            _FLIP_LANE_MAX_N=14,
        ):
            lanes = experiments._run_range(spec, lo, lo + size)
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
        got = lanes(n, marks.copy(), stream, budget, 1, check)
        assert got == [
            scalar(n, [int(m) for m in row], trial_rng(seed, i), budget, 2 * budget, check)
            for i, row in enumerate(marks)
        ]

    def test_which_batches_take_lanes(self):
        base = TrialBatchSpec(protocol=ProtocolId.FLIP, n=10, trials=1, seed=3)
        assert experiments._takes_lanes(base, 1 << 32)
        phased = replace(base, protocol=ProtocolId.TIME_OPT, n=64)
        assert experiments._takes_lanes(phased, 1024)
        for spec, hi in [
            (replace(base, n=11), 1024),
            (replace(base, scheduler=SchedulerKind.UNIFORM_PAIR), 1024),
            (replace(base, stop=StopCondition(StopKind.COUNT_REACHES_N, 99)), 1024),
            (replace(base, seed=-1), 1024),
            (base, (1 << 32) + 1),
        ]:
            assert not experiments._takes_lanes(spec, hi)

    def test_worker_count_does_not_change_lane_records(self):
        # each of the 8 worker ranges is one whole seed block of lanes
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=2,
            trials=8 * 1024,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=23,
        )
        assert run_batch(spec, threads=1).records == run_batch(spec, threads=2).records

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
            "_phase_thresholds",
            lambda n: tuple(0.0 if c == 1 else 6.0 for c in range(n + 1)),
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
        lane_errors, rerun = [], []
        lanes = kernels.timeopt_bst_lanes

        def spied_lanes(*args):
            try:
                return lanes(*args)
            except InvariantViolation as exc:
                lane_errors.append(str(exc))
                raise

        def spied_rng(seed, index):
            rerun.append(index)
            return trial_rng(seed, index)

        monkeypatch.setattr(
            experiments, "_LANE_KERNELS", {ProtocolId.TIME_OPT: spied_lanes}
        )
        monkeypatch.setattr(experiments, "trial_rng", spied_rng)
        with pytest.raises(InvariantViolation) as caught:
            run_batch(spec, threads=1)
        assert str(caught.value) == message
        assert len(lane_errors) == 1 and lane_errors[0] != message
        assert rerun == list(range(lowest + 1))


class TestBatch:
    def test_batches_are_deterministic(self):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=4, trials=16, seed=11)
        assert run_batch(spec).records == run_batch(spec).records

    def test_worker_count_does_not_change_records(self):
        spec = TrialBatchSpec(protocol=ProtocolId.FLIP, n=4, trials=16, seed=11)
        serial = run_batch(spec, threads=1)
        parallel = run_batch(spec, threads=2)
        assert serial.records == parallel.records
        assert serial.summary == parallel.summary

    def test_thread_resolution(self, monkeypatch):
        monkeypatch.delenv("POPCOUNT_THREADS", raising=False)
        assert resolve_threads(None) == 1
        assert resolve_threads(5) == 5
        monkeypatch.setenv("POPCOUNT_THREADS", "3")
        assert resolve_threads(None) == 3
        for clamped in ("0", "-2"):
            monkeypatch.setenv("POPCOUNT_THREADS", clamped)
            assert resolve_threads(None) == 1
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

    def test_worst_start_shape(self):
        assert worst_unnamed_start(4) == [0, 1, 2, 3]

    def test_subset_start_names_the_mask_bits(self):
        assert subset_start(4, 0b0101) == [1, 3, 0, 0]
        assert subset_start(3, 0) == [0, 0, 0]
        assert subset_start(3, 0b111) == [1, 2, 3]


def flip_hitting_law(n: int, horizon: int) -> list[Fraction]:
    """P(T = t) for t < horizon, where T counts the flip protocol's
    base-station meetings from all zeros until c = n.

    A DP over (ones, c0, c1) that keeps integer path counts, each step
    weighting a move by the number of agents carrying the drawn mark.
    """
    paths = {(0, 0, 0): 1}
    law = [Fraction(0)]
    for t in range(1, horizon):
        after: dict = {}
        hits = 0
        for (ones, c0, c1), count in paths.items():
            for state, ways in (
                ((ones - 1, c0 + 1, max(c1 - 1, 0)), ones),
                ((ones + 1, max(c0 - 1, 0), c1 + 1), n - ones),
            ):
                if state[1] + state[2] == n:
                    hits += count * ways
                elif ways:
                    after[state] = after.get(state, 0) + count * ways
        paths = after
        law.append(Fraction(hits, n ** t))
    return law


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
        ],
    )
    def test_flip_meeting_counts_follow_the_exact_law(self, n, seed, trials):
        law = flip_hitting_law(n, 400)
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
