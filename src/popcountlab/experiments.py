"""Monte-Carlo batches, parameter sweeps, and the statistical summaries
behind the convergence-time claims.

Trials are seeded by spawning children of the batch seed (one per trial
index), so results are reproducible for any worker count and any subset of
trials can be rerun in isolation.  Trial i's generator is bit for bit
default_rng(SeedSequence(seed, spawn_key=(i,))), but its seed words are
built 1024 trial indices at a time: numpy's SeedSequence(seed) supplies the
pool, and a mirror of SeedSequence's last hash steps mixes in each spawn
word and hashes the output with numpy, so a trial pays only for PCG64's
setup.

run_trial sends every run that stops at its count reaching n through its
protocol's kernel entry, which takes the scheduler (kernels.simulate_flip,
simulate_timeopt, simulate_gros).  engine.run, the reference, takes
force_engine and StopKind.MAX_INTERACTIONS.

Large BST-only batches of the phased protocol below
kernels.TIMEOPT_BLOCK_MIN_N agents, and of flip below kernels.FLIP_BLOCK_MIN_N,
step up to a chunk of eight seed blocks of trials together as lanes
(kernels.*_lanes), drawing from a numpy mirror of PCG64 seeded from the same
words; their records equal run_trial's.  The first-phase estimate steps its
trials the same way, with verdicts equal to the scalar first-phase kernel's.
One runner, _by_seed_block, cuts both at chunk edges and sends what lanes
cannot finish back one trial at a time.

A batch keeps its results as integer columns, one row per RunRecord field
and one column per trial (None as -1): lanes write them without building a
RunRecord, summarize reads them, and pool workers send them back.  Their
type is the narrowest signed one that the batch's limits allow
(_column_type): int16 for the phased protocol at n = 2, so a million
trials take 14 MB, not 56.  A BatchResult builds its records only when
they are read.
"""

import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from enum import Enum, unique
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import kernels, oracle
from .engine import (
    NAMING_NEEDS_PAIRS,
    NULLABLE_ROWS,
    PENDING,
    InvariantViolation,
    RecordRow,
    RunRecord,
    StopCondition,
    StopKind,
    initial_configuration,
    resolve_limits,
    run,
)
from .protocols import SINK_NAME, ProtocolId
from .schedulers import SchedulerKind, make_scheduler


@unique
class InitPolicy(Enum):
    """Initial mobile states, keyed by their CLI names."""

    ALL_ZERO = "zeros"
    ALL_ONE = "ones"
    UNIFORM_RANDOM_MARKS = "random"
    WORST_CASE_UNNAMED = "worst"
    EXPLICIT_VECTOR = "vector"


class AllTrialsTruncated(RuntimeError):
    """Every trial of a batch hit its interaction cap without converging."""


def _checked_batch(n: int, trials: int, seed) -> int:
    """Checks a batch's population, trial count and seed; returns the seed
    as an int (numpy integers included)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return value


# Every run halts when its count reaches n, within the default budget.
NATURAL_STOP = StopCondition(StopKind.COUNT_REACHES_N)


@dataclass(frozen=True)
class TrialBatchSpec:
    """Everything needed to reproduce a batch of independent runs."""

    protocol: ProtocolId
    n: int
    trials: int
    scheduler: SchedulerKind = SchedulerKind.BST_ONLY
    init: InitPolicy = InitPolicy.ALL_ZERO
    seed: int = 0
    vector: tuple[int, ...] | None = None
    bound: int | None = None
    stop: StopCondition | None = None
    check_invariants: bool = True

    def __post_init__(self):
        seed = _checked_batch(self.n, self.trials, self.seed)
        object.__setattr__(self, "seed", seed)
        for what, size in (("n", self.n), ("the name bound p", self.bound or 0)):
            if size > sys.maxsize:
                raise ValueError(f"{what} = {size} is past the list size limit, {sys.maxsize}")
        gros = self.protocol is ProtocolId.GROS_NAMING
        if self.init is InitPolicy.EXPLICIT_VECTOR:
            if self.vector is None or len(self.vector) != self.n:
                raise ValueError("explicit init needs a vector of length n")
        elif self.vector is not None:
            raise ValueError("vector only makes sense with the explicit init")
        if self.init is InitPolicy.WORST_CASE_UNNAMED and not gros:
            raise ValueError("the worst-unnamed init is naming-protocol only")
        if self.init is InitPolicy.UNIFORM_RANDOM_MARKS and gros:
            raise ValueError("random marks only apply to the bit protocols")
        if self.scheduler is SchedulerKind.WEAK_ADVERSARIAL and not gros:
            raise ValueError("the adversarial scheduler is naming-protocol only")
        if self.scheduler is SchedulerKind.BST_ONLY and gros:
            raise ValueError(NAMING_NEEDS_PAIRS)
        if self.bound is not None and not gros:
            raise ValueError("the name bound only applies to the naming protocol")
        if (
            self.protocol is ProtocolId.FLIP
            and self.n > kernels.FLIP_MAX_N
            and self.resolved_stop().bound is None
        ):
            raise ValueError(
                f"flip with n > {kernels.FLIP_MAX_N} needs a bound "
                "(--max-interactions): a run to the natural stop can take its "
                f"whole budget of 64 * 2^{self.n + 1} meetings"
            )
        if self.init in (InitPolicy.WORST_CASE_UNNAMED, InitPolicy.EXPLICIT_VECTOR):
            # a fixed start is every trial's start: check its state space once
            initial_configuration(
                self.protocol,
                initial_mobiles(self, None),
                bound=self.resolved_bound if gros else None,
            )

    @property
    def resolved_bound(self) -> int:
        return self.bound if self.bound is not None else self.n + 1

    def resolved_stop(self) -> StopCondition:
        return self.stop if self.stop is not None else NATURAL_STOP


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stddev: float
    standard_error: float
    min: int
    max: int


@dataclass(frozen=True)
class Summary:
    """Convergence-time statistics over the converged trials of a batch."""

    bst_interactions: MetricStats
    total_interactions: MetricStats
    non_null_transitions: MetricStats
    trials: int
    truncated: int


_FIELDS = operator.attrgetter(*RecordRow.__members__)


def _column(record: RunRecord) -> list[int]:
    """One trial's column (see engine.RecordRow)."""
    return [-1 if v is None else v for v in _FIELDS(record)]


def _columns(records: list[RunRecord]) -> np.ndarray:
    """The columns of `records`, one per record."""
    rows = len(RecordRow)
    return np.array(list(map(_column, records)), dtype=np.int64).reshape(-1, rows).T


def _records(columns: np.ndarray) -> list[RunRecord]:
    """The RunRecords of `columns`, with Python ints and None."""
    rows = columns.tolist()
    for f in NULLABLE_ROWS:
        if np.count_nonzero(columns[f] < 0):
            rows[f] = [None if v < 0 else v for v in rows[f]]
    return list(map(RunRecord, *rows))


@dataclass(frozen=True, eq=False)
class BatchResult:
    """A batch's summary and its trials' results as columns (see
    engine.RecordRow); the RunRecords are built when first read.  Two
    results are equal when their specs, summaries and columns are."""

    spec: TrialBatchSpec
    summary: Summary
    columns: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, BatchResult):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.summary == other.summary
            and np.array_equal(self.columns, other.columns)
        )

    @cached_property
    def records(self) -> list[RunRecord]:
        return _records(self.columns)


def derive_seed(base: int, *key: int) -> int:
    """A 64-bit child seed, stable in (base, key)."""
    words = np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


# The last steps of numpy's SeedSequence hash (numpy/random/bit_generator.pyx),
# mirrored so trial_rng can seed PCG64 without building a SeedSequence per
# trial: numpy supplies the pool, the mirror mixes in the spawn word and
# hashes the output.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_BLOCK = 1024  # trial indices whose seed words are hashed at once
_CHUNK = 8 * _BLOCK  # trial indices stepped as lanes at once: whole seed blocks


def _hash_steps(hash_const: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiplier) pairs of `count` successive hash steps, one row
    each; they do not depend on the data hashed."""
    steps = []
    for _ in range(count):
        nxt = hash_const * mult & _MASK32
        steps.append((hash_const, nxt))
        hash_const = nxt
    return np.array(steps, dtype=np.uint32)


# generate_state(4, uint64): 8 words, word j hashes pool word j % 4
_OUTPUT_XORS, _OUTPUT_MULTS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE).T


# a chunk's blocks, so the trials its lanes leave to trial_rng hit the cache
@lru_cache(maxsize=_CHUNK // _BLOCK)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """PCG64's 4 uint64 seed words for trials block*_BLOCK .. +_BLOCK-1 of
    `seed`, one row per trial (indices below 2^32: one spawn word).

    The seed's w 32-bit words, zero-padded to the pool size, lead the
    entropy, so SeedSequence(seed).pool is the pool before the spawn word;
    its mix took 4 * max(4, w) hash steps and the spawn word takes the next 4.
    """
    pool = np.random.SeedSequence(seed).pool
    width = max(_POOL_SIZE, (max(seed.bit_length(), 1) + 31) // 32)
    xors, mults = _hash_steps(_INIT_A, _MULT_A, 4 * width + 4)[-4:].T
    index = np.arange(_BLOCK, dtype=np.uint32) + np.uint32(block * _BLOCK)
    spawn = (index[:, None] ^ xors) * mults
    spawn ^= spawn >> 16
    mixed = pool * np.uint32(_MIX_MULT_L) - np.uint32(_MIX_MULT_R) * spawn
    mixed ^= mixed >> 16
    state = (np.concatenate((mixed, mixed), axis=1) ^ _OUTPUT_XORS) * _OUTPUT_MULTS
    state ^= state >> 16
    words = state.view(np.uint64)
    words.flags.writeable = False  # cached: shared by every later call
    return words


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG stepped before each
# output, XSL-RR output, doubles (x >> 11) * 2**-53, mirrored in uint64
# limbs so that many trials' streams step together in numpy.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64 = np.uint64
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & (1 << 64) - 1)
_MULT_LO_LOW, _MULT_LO_HIGH = _U64(_PCG_MULT & _MASK32), _U64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = _U64(_MASK32)
_1, _11, _32, _58, _63, _64 = map(_U64, (1, 11, 32, 58, 63, 64))


class _PCG64Lanes:
    """One PCG64 stream per lane, stepped together: lane r draws the
    doubles of Generator(PCG64(words[r])), bit for bit.

    `words` are PCG64's 4 uint64 seed words per lane (rows of _seed_block):
    the first two make the initial state, the last two the stream.  The
    128-bit state and increment are kept as (high, low) uint64 limbs.
    """

    def __init__(self, words: np.ndarray):
        w = words.T
        self.inc_hi = (w[2] << _1) | (w[3] >> _63)
        self.inc_lo = (w[3] << _1) | _1
        # numpy's seeding: state = inc + seed, then one LCG step
        self.lo = self.inc_lo + w[1]
        self.hi = self.inc_hi + w[0] + (self.lo < w[1])
        self._step()

    def _step(self):
        """state = state * multiplier + inc (mod 2^128)."""
        hi, lo = self.hi, self.lo
        # the high word of lo * _MULT_LO, from 32-bit halves
        lo_low, lo_high = lo & _LOW32, lo >> _32
        mid = lo_high * _MULT_LO_LOW + (lo_low * _MULT_LO_LOW >> _32)
        mid2 = lo_low * _MULT_LO_HIGH + (mid & _LOW32)
        carry = lo_high * _MULT_LO_HIGH + (mid >> _32) + (mid2 >> _32)
        new_lo = lo * _MULT_LO + self.inc_lo
        self.hi = hi * _MULT_LO + lo * _MULT_HI + carry + self.inc_hi
        self.hi += new_lo < self.inc_lo
        self.lo = new_lo

    def random(self) -> np.ndarray:
        """The next double of every lane."""
        self._step()
        x = self.hi ^ self.lo
        rot = self.hi >> _58
        x = (x >> rot) | (x << (_64 - rot))  # numpy shifts by 64 give 0
        return (x >> _11).astype(np.float64) * 2.0**-53

    def keep(self, lanes: np.ndarray):
        """Drop every lane not in `lanes` (indices, in order)."""
        self.hi, self.lo = self.hi[lanes], self.lo[lanes]
        self.inc_hi, self.inc_lo = self.inc_hi[lanes], self.inc_lo[lanes]


class _TrialWords(ISeedSequence):
    """Precomputed seed words standing in for a SeedSequence: PCG64 asks
    for exactly 4 uint64 words, and nothing else is served."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's 4 uint64 seed words are available")
        return self.words


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of trial `index`: an independent child stream, bit for
    bit default_rng(SeedSequence(seed, spawn_key=(index,)))."""
    one_word_key = type(index) is int and 0 <= index < 1 << 32
    if one_word_key and type(seed) is int and seed >= 0:
        words = _seed_block(seed, index // _BLOCK)[index % _BLOCK]
        return Generator(PCG64(_TrialWords(words)))
    # larger indices hash two spawn-key words; other seed types and negative
    # values get numpy's own handling
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def subset_start(n: int, mask: int) -> list[int]:
    """A partially named start: the names b + 1 of the set bits b of `mask`,
    in increasing order, then sinks for the remaining agents."""
    names = [b + 1 for b in range(n) if mask >> b & 1]
    return names + [SINK_NAME] * (n - len(names))


def worst_unnamed_start(n: int) -> list[int]:
    """The unnamed start maximizing the adversarial naming run: one sink
    agent plus the named set {1, .., n-1} (see sweep_worst_unnamed)."""
    return list(range(n))


def initial_mobiles(spec: TrialBatchSpec, rng: np.random.Generator) -> list[int]:
    """Initial marks or names for one trial; may consume rng (n doubles for
    random marks, mark = floor(2u)).  Fixed starts were checked against the
    state space when the spec was built."""
    if spec.init is InitPolicy.ALL_ZERO:
        return [0] * spec.n
    if spec.init is InitPolicy.ALL_ONE:
        return [1] * spec.n
    if spec.init is InitPolicy.UNIFORM_RANDOM_MARKS:
        return [int(u * 2) for u in rng.random(spec.n)]
    if spec.init is InitPolicy.WORST_CASE_UNNAMED:
        return worst_unnamed_start(spec.n)
    return list(spec.vector)


def exact_mean(spec: TrialBatchSpec) -> Fraction | int | None:
    """The exact expectation of the batch's mean where an oracle covers the
    batch's start and scheduler, else None.

    Under uniform pairs the base-station meetings follow the BST-only law,
    so the bit protocols' values hold for bst_mean under both schedulers.
    """
    # a bounded batch's mean covers only the trials that converged in time
    if spec.resolved_stop().bound is not None:
        return None
    if spec.protocol is ProtocolId.GROS_NAMING:
        adversarial = spec.scheduler is SchedulerKind.WEAK_ADVERSARIAL
        worst = adversarial and spec.init is InitPolicy.WORST_CASE_UNNAMED
        return oracle.gros_worst_case(spec.n) if worst else None
    if spec.scheduler not in (SchedulerKind.BST_ONLY, SchedulerKind.UNIFORM_PAIR):
        return None
    # the start's count of mark-1 agents; None for random marks, which the
    # phased oracle mixes over
    random_marks = spec.init is InitPolicy.UNIFORM_RANDOM_MARKS
    ones = None if random_marks else sum(initial_mobiles(spec, None))
    if spec.protocol is ProtocolId.FLIP:
        return oracle.flip_expected_closed_form(spec.n) if ones in (0, spec.n) else None
    try:
        return oracle.timeopt_exact_expected(spec.n, ones)
    except oracle.Intractable:
        return None


def run_trial(spec: TrialBatchSpec, index: int, force_engine: bool = False) -> RunRecord:
    """One seeded trial, through the kernel of its protocol and scheduler,
    or through the reference engine under StopKind.MAX_INTERACTIONS.

    force_engine routes through the reference engine too; both paths
    consume the trial's random stream identically and must produce the same
    record (the tests rely on exactly that).
    """
    rng = trial_rng(spec.seed, index)
    mobiles = initial_mobiles(spec, rng)
    stop = spec.resolved_stop()
    protocol = spec.protocol

    if not force_engine and stop.kind is not StopKind.MAX_INTERACTIONS:
        limits = resolve_limits(protocol, spec.n, stop)
        if protocol is ProtocolId.GROS_NAMING:
            bound = spec.resolved_bound
            return kernels.simulate_gros(spec.scheduler, mobiles, bound, rng, *limits)[0]
        flip = protocol is ProtocolId.FLIP
        kernel = kernels.simulate_flip if flip else kernels.simulate_timeopt
        return kernel(spec.scheduler, spec.n, mobiles, rng, *limits, spec.check_invariants)

    bound = spec.resolved_bound if protocol is ProtocolId.GROS_NAMING else None
    config = initial_configuration(protocol, mobiles, bound=bound)
    scheduler = make_scheduler(spec.scheduler, rng)
    _, record = run(protocol, scheduler, config, stop, spec.check_invariants)
    return record


_OWN_RUN_TRIAL = run_trial  # see _takes_lanes


# Each bit protocol's lane kernel, and its block kernel's cut-off: from
# there a protocol's trials beat lanes (flip's run length has a long,
# nearly memoryless tail: lanes spend most steps on a few long runs).
_LANE_KERNELS = {
    ProtocolId.FLIP: (kernels.flip_bst_lanes, kernels.FLIP_BLOCK_MIN_N),
    ProtocolId.TIME_OPT: (kernels.timeopt_bst_lanes, kernels.TIMEOPT_BLOCK_MIN_N),
}
# A lane step makes some 60 numpy calls, whatever the number of lanes: as
# long as 200-300 steps of a scalar kernel.  On a 2-core x86-64 machine a
# chunk of long trials (flip at n = 8-12, the phased protocol at n = 16-64)
# lost to the scalar kernels at 512 lanes, broke even at 768 and won at
# 1024; trials of a few steps win from 64 lanes.  First phases (about 45
# numpy calls a step) at n = 8-64 lost at 256 lanes, and at n = 64 at 512
# too, and won from 768 (0.5-0.75 of the scalar time), all measured when
# a lane chunk was one 1024-trial seed block.
_LANE_MIN_TRIALS = 768


def _takes_lanes(spec: TrialBatchSpec) -> bool:
    """Whether this spec's trials can be stepped as lanes.

    Lanes bypass run_trial, so a run_trial replaced from outside (a tracer
    or a test spy, observing each trial) keeps getting every trial.
    """
    return (
        run_trial is _OWN_RUN_TRIAL
        and spec.protocol in _LANE_KERNELS
        and spec.n < _LANE_KERNELS[spec.protocol][1]
        and spec.scheduler is SchedulerKind.BST_ONLY
        and spec.resolved_stop() == NATURAL_STOP
    )


def _by_seed_block(seed: int, lo: int, hi: int, lanes, scalar, rows: int, dtype):
    """Trials lo..hi-1 of `seed` as a (rows, hi - lo) array of `dtype`, one
    column per trial, cut at multiples of _CHUNK (2^32 among them).  A
    share of at least _LANE_MIN_TRIALS trials that ends at or below index
    2^32 (one spawn word) goes to `lanes(stream, size)` unless `lanes` is
    None; every other trial, each column the lanes leave PENDING in row 0,
    and every trial of a share in which a lane broke an invariant go to
    `scalar(index)`, which gives the trial's column and raises at the
    lowest failing trial.  Results depend only on (seed, index).
    """
    out = np.empty((rows, hi - lo), dtype=dtype)
    first = lo
    while lo < hi:
        end = min(hi, (lo // _CHUNK + 1) * _CHUNK)
        share = out[:, lo - first : end - first]
        share[0] = PENDING
        if lanes is not None and end - lo >= _LANE_MIN_TRIALS and end <= 1 << 32:
            blocks = range(lo // _BLOCK, (end - 1) // _BLOCK + 1)
            words = np.concatenate([_seed_block(seed, b) for b in blocks])
            start = lo % _BLOCK
            try:
                share[:] = lanes(_PCG64Lanes(words[start : start + end - lo]), end - lo)
            except InvariantViolation:
                pass  # every trial of the share runs again below
        (left,) = (share[0] == PENDING).nonzero()
        if len(left):
            # a value outside `dtype` raises OverflowError here
            results = [scalar(lo + i) for i in left.tolist()]
            share[:, left] = np.array(results, dtype=dtype).T
        lo = end
    return out


def _lane_chunk(spec: TrialBatchSpec, stream: _PCG64Lanes, size: int) -> np.ndarray:
    """`size` trials of `spec` stepped as lanes on `stream`: run_trial's
    records as columns, PENDING for each lane still running when stepping
    stopped.  Lanes always check: a lane fault sends the share back through
    run_trial (see _by_seed_block), which honours spec.check_invariants."""
    if spec.init is InitPolicy.UNIFORM_RANDOM_MARKS:
        # initial_mobiles' floor(2u), on the lanes' first n doubles
        marks = np.stack([stream.random() for _ in range(spec.n)], axis=1) >= 0.5
    else:
        marks = np.tile(np.array(initial_mobiles(spec, None), dtype=bool), (size, 1))
    budget = min(resolve_limits(spec.protocol, spec.n, NATURAL_STOP))
    return _LANE_KERNELS[spec.protocol][0](spec.n, marks, stream, budget)


_COLUMN_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _column_type(spec: TrialBatchSpec) -> type:
    """The narrowest signed integer type that holds the batch's columns:
    no field of a trial exceeds the total cap, which bounds every count of
    interactions, or n, which bounds final_c; -1 (None) and PENDING fit
    every type.  A cap past int64's range gets int64: no run gets that far."""
    total_cap = resolve_limits(spec.protocol, spec.n, spec.resolved_stop())[1]
    top = max(total_cap, spec.n)
    return next((t for t in _COLUMN_TYPES if top <= np.iinfo(t).max), np.int64)


def _run_range(spec: TrialBatchSpec, lo: int, hi: int) -> np.ndarray:
    """The columns of trials lo..hi-1 of a batch, as lanes where the spec
    allows."""
    lanes = partial(_lane_chunk, spec) if _takes_lanes(spec) else None
    return _by_seed_block(
        spec.seed,
        lo,
        hi,
        lanes,
        lambda i: _column(run_trial(spec, i)),
        len(RecordRow),
        _column_type(spec),
    )


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, for ints num >= 0 and den > 0.

    The integer root of num/den, scaled by 4^k to at least 55 bits, is
    rounded to odd (its last bit set when inexact); rounding that to a
    double gives the exact root's nearest double.
    """
    k = max(0, (den.bit_length() - num.bit_length() + 111) // 2 + 1)
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    root |= root * root * den != scaled
    return root / (1 << k)


def _metric_stats(values) -> MetricStats:
    """fmean, stdev, min and max of `values` (ints, or an integer array):
    the same floats as statistics.fmean and statistics.stdev, the stdev from
    exact integer sums.  The sums are taken in int64 while they cannot
    overflow, whatever the array's type, and in Python ints otherwise."""
    n = len(values)
    if isinstance(values, np.ndarray):
        low, high = int(values.min()), int(values.max())
        small = max(high, -low) ** 2 * n < 1 << 63  # no sum can overflow
        if not small:
            values = values.tolist()
    else:
        low, high, small = min(values), max(values), False
    if small:
        # every value is below 2^32, exact as a double, so math.fsum would
        # round the exact sum once, as float() does.  Both sums accumulate
        # in int64 with no int64 copy; a narrow array's own `values @ values`
        # would wrap
        total = int(values.sum(dtype=np.int64))
        squares = int(np.einsum("i,i->", values, values, dtype=np.int64))
        mean = float(total) / n
    else:
        # math.fsum rounds each value to a double first, which from 2^53
        # is not the exact sum's rounding
        total, squares = sum(values), sum(map(operator.mul, values, values))
        mean = math.fsum(values) / n
    stddev = 0.0
    if n > 1:
        stddev = _sqrt_of_ratio(n * squares - total * total, n * (n - 1))
    return MetricStats(
        mean=mean,
        stddev=stddev,
        standard_error=stddev / math.sqrt(n),
        min=low,
        max=high,
    )


def summarize(results) -> Summary:
    """Convergence-time statistics of a batch's columns (see
    engine.RecordRow) or of a list of RunRecords; raises AllTrialsTruncated
    if nothing converged, since means over an empty set would be
    meaningless."""
    columns = results if isinstance(results, np.ndarray) else _columns(results)
    total = columns[RecordRow.total_interactions]
    bst = columns[RecordRow.converged_at_bst_interaction]
    non_null = columns[RecordRow.converged_at_non_null]
    converged = bst >= 0
    count = int(np.count_nonzero(converged))
    if not count:
        raise AllTrialsTruncated(
            f"none of the {len(bst)} trials converged within budget"
        )
    if count < len(bst):
        total, bst, non_null = total[converged], bst[converged], non_null[converged]
    return Summary(
        bst_interactions=_metric_stats(bst),
        total_interactions=_metric_stats(total),
        non_null_transitions=_metric_stats(non_null),
        trials=count,
        truncated=len(converged) - count,
    )


def resolve_threads(threads: int | None) -> int:
    """Worker processes for batch loops: POPCOUNT_THREADS, default 1, at
    least 1 and at most the CPU count (a process pool starts all its
    workers at once)."""
    if threads is None:
        text = os.environ.get("POPCOUNT_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ValueError(
                f"POPCOUNT_THREADS must be an integer, got {text!r}"
            ) from None
    return max(1, min(threads, os.cpu_count() or 1))


def run_batch(spec: TrialBatchSpec, threads: int | None = None) -> BatchResult:
    """Run spec.trials independent seeded trials and summarize them.

    The per-trial seed split makes the result identical for every worker
    count; workers only change wall-clock time.
    """
    threads = resolve_threads(threads)
    if threads > 1 and spec.trials >= 2 * threads:
        # allocated first, so that a batch too large to hold fails at once
        columns = np.empty((len(RecordRow), spec.trials), dtype=_column_type(spec))
        if _takes_lanes(spec):
            # whole seed blocks, so each range can take lanes; at most a
            # chunk, and a range for every worker where there are blocks enough
            blocks = -(-spec.trials // _BLOCK)
            step = _BLOCK * min(_CHUNK // _BLOCK, max(1, blocks // threads))
        else:
            step = -(-spec.trials // (threads * 4))
        ranges = [
            (lo, min(lo + step, spec.trials)) for lo in range(0, spec.trials, step)
        ]
        # imported here: concurrent.futures.process loads multiprocessing,
        # which one-worker runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(_run_range, *zip(*((spec, lo, hi) for lo, hi in ranges)))
            for (lo, hi), chunk in zip(ranges, chunks):
                columns[:, lo:hi] = chunk
    else:
        columns = _run_range(spec, 0, spec.trials)
    return BatchResult(spec=spec, summary=summarize(columns), columns=columns)


def sweep_n(base: TrialBatchSpec, n_values) -> list[tuple[int, Summary]]:
    """run_batch across population sizes, one derived seed per size."""
    out = []
    for n in n_values:
        spec = replace(base, n=n, seed=derive_seed(base.seed, n))
        out.append((n, run_batch(spec).summary))
    return out


_OWN_FIRST_PHASE = kernels.simulate_timeopt_first_phase  # see _first_phase_range


def _first_phase_range(n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """First-phase verdicts of trials lo..hi-1, 1 for True and 0 for False
    in an int8 array, as lanes where the range allows (see _by_seed_block).

    Lanes bypass the scalar kernel, so they are off while it is replaced
    from outside (a tracer observing each first phase).
    """
    scalar = kernels.simulate_timeopt_first_phase
    own = scalar is _OWN_FIRST_PHASE
    lanes = partial(kernels.timeopt_first_phase_lanes, n) if own else None
    verdicts = _by_seed_block(
        seed, lo, hi, lanes, lambda i: scalar(n, trial_rng(seed, i)), 1, np.int8
    )
    return verdicts[0]


def estimate_allflip_probability(n: int, trials: int, seed: int) -> float:
    """Fraction of first phases (all-zero start) that convert every agent
    before flipping."""
    seed = _checked_batch(n, trials, seed)
    return int(_first_phase_range(n, seed, 0, trials).sum()) / trials


@dataclass(frozen=True)
class WorstUnnamedSweep:
    """Result of exhausting all unnamed starts of the adversarial schedule."""

    worst_start: frozenset[int]
    worst_non_null: int
    starts_checked: int


def sweep_worst_unnamed(n: int) -> WorstUnnamedSweep:
    """Adversarially schedule every configuration with at least one sink
    agent and distinct names otherwise, and report the one maximizing
    non-null transitions until silence.

    Starts are the 2^n - 1 proper subsets S of {1, .., n}: the agents carry
    the names of S plus sinks, under the name bound n + 1.  Each run must
    end silent with n distinct names; a start that fails to do so raises
    instead of being scored.
    """
    if not 1 <= n <= 16:
        raise oracle.Intractable(f"enumerating 2^{n} starts is out of range")
    limits = resolve_limits(ProtocolId.GROS_NAMING, n, NATURAL_STOP)
    worst_names = []
    worst = -1
    for mask in range(2 ** n - 1):
        names = subset_start(n, mask)
        record, _ = kernels.simulate_gros_adversarial(names, n + 1, *limits)
        if not record.converged:
            raise AllTrialsTruncated(
                f"start mask {mask:#x} did not reach silence within budget"
            )
        if record.non_null_transitions > worst:
            worst = record.non_null_transitions
            worst_names = names
    return WorstUnnamedSweep(
        worst_start=frozenset(worst_names) - {SINK_NAME},
        worst_non_null=worst,
        starts_checked=2 ** n - 1,
    )
