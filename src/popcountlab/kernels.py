"""Tight per-protocol simulation loops used by the batch harness.

Each protocol has one entry taking its schedule, a SchedulerKind
(simulate_flip, simulate_timeopt, simulate_gros), and each schedule's
source is named once, in one of two tables.  The bit protocols read an
event source from _EVENTS, `draw(rng, n, start, k)`, returning the
(step, mobile) base-station events of interactions start+1..start+k as a
sequence of steps and an int64 array of mobile indices:

- _bst_draw: every interaction meets the base station, one double each;
- _uniform_draw: uniform pairs, two doubles each; mobile/mobile pairs
  cannot change a bit configuration, so only base-station pairs are kept:
  a cut on the scaled doubles finds them, and only they become indices;
  each draw is sized by the meetings it should hold (_uniform_block);
- _roundrobin_draw: the scheduler's fixed cycle, no doubles.

A random source consumes doubles in exactly the scheduler's documented
order (batched numpy draws yield the same stream as single draws).  Both
bit protocols share one stepping loop (_step_bits), applying the
base-station rule and invariant checks to those events one at a time:
flip is the phased rule in which every meeting converts.  Flip at
FLIP_BLOCK_MIN_N..FLIP_MAX_N agents under every scheduler instead works out
a whole block of events in numpy (_block_flip): the marks are the bits of
one int64, updated by a prefix XOR, and both counters are Lindley
recursions of one running sum.  The phased protocol under BST-only
scheduling from TIMEOPT_BLOCK_MIN_N agents works out a block too
(_block_phased): within a phase an agent converts at its first meeting
while it carries the phase's mark, so a phase's conversions are the first
occurrences in one pass over the block, and between two conversions only
the streak or the null count moves.  Each entry picks the loop and the
block size from the schedule and n.  So a kernel run and an engine run
seeded identically produce identical RunRecords; the tests pin that down,
and the engine stays the reference.

The naming protocol has one stepping loop over every pair, mobile/mobile
pairs included (_step_gros), fed by a pair source: those of _PAIRS drawn
as they are read, in blocks that grow with the run (_blocks), the
round-robin ones worked out from their positions in the cycle
(_roundrobin_pairs), or the adversarial schedule, which reads the live
names (_adversary).

All kernels take the limits produced by engine.resolve_limits and halt at
their protocol's convergence predicate.  A bit kernel consumes its list of
marks: the scalar loop steps it in place.  Every phased kernel reads its
streak thresholds from one table of their integer ceilings
(_phase_ceilings), as long as the run can read; flip reads none.  The
checks are the engine's: every scalar, block and lane loop tests the
engine's predicates, save that _step_bits writes the counter predicate out
inline (a call per meeting cost flip_bst some 8%), and every scalar and
block loop raises the engine's texts.

The lane kernels step many BST-only trials together and give each trial
the record its scalar kernel gives, as one int64 column of its fields
(None as -1): one lane loop draws the agents, writes their marks back,
writes each finished lane's column and compacts the rows (_compact, shared
with the first-phase lanes), and each protocol supplies its per-row state
and a step applying its rule and checks.
No RunRecord is built; a lane still running when stepping stops reads
PENDING.  The first phase of the phased protocol has its own lane kernel,
giving each lane the verdict simulate_timeopt_first_phase gives on its
stream, in an int64 array: none outlives _first_phase_length(n).  Lanes
always check and raise one text, LANE_FAULT; the batch harness then runs
the share again trial by trial, where the scalar kernel names the fault.
"""

import itertools
from functools import lru_cache, partial

import numpy as np

from .engine import PENDING, InvariantViolation, RecordRow, RunRecord, SchedulerKind
from .engine import _counter_error, _counters_broken, _credit_error, _silence_broken
from .engine import _silence_error, _structure_broken, _structure_error
from .protocols import NameOverflow, phase_threshold


def _batch_size(limit: int) -> int:
    """Buffer length for pre-drawn doubles, small when runs are short."""
    return max(32, min(4096, int(limit) >> 5))


@lru_cache(maxsize=64)
def _phase_ceilings(n: int) -> np.ndarray:
    """ceil(phase_threshold(c)) for c = 0..n, the streak thresholds of every
    phased kernel: an integer streak reaches a threshold exactly when it
    reaches its ceiling, and a run over n agents converts at most n of them
    per phase, and at most one per meeting, so a run capped at fewer
    interactions than agents reads no further than its cap.  The scalar
    loops read it as a list of ints."""
    ceilings = np.ceil([phase_threshold(c) for c in range(n + 1)]).astype(np.int64)
    ceilings.flags.writeable = False  # cached: shared by every later call
    return ceilings


def _check_block(n, c_start, c, c0, c1, ones):
    """Raise _counter_error at the first of a block's meetings that fails
    the counter check, where _step_bits raises it; c_start is c before it."""
    bad = _counters_broken(n, c, np.concatenate(([c_start], c[:-1])), c0, c1, ones)
    if bad.any():
        t = int(bad.argmax())
        raise _counter_error(n, c0[t], c1[t], ones[t])


def _bst_draw(rng, n, start, k):
    """BST-only events: every interaction meets the base station, one
    double per draw, index = floor(u * n)."""
    mobiles = (rng.random(k) * n).astype(np.int64)
    return range(start + 1, start + k + 1), mobiles


def _uniform_pairs(rng, n, start, k):
    """The uniform pairs (first, second) of interactions start+1..start+k:
    two doubles per draw, in scheduler order; index n is the base station."""
    buf = rng.random(2 * k)
    first = (buf[0::2] * (n + 1)).astype(np.int64)
    second = (buf[1::2] * n).astype(np.int64)
    second += second >= first
    return first, second


def _uniform_draw(rng, n, start, k):
    """Uniform-pair events: only the pairs that include the base station,
    found from the scaled doubles, with only those pairs made indices.

    With a = u*(n+1) and b = v*n as in _uniform_pairs, first = floor(a) and
    second = floor(b) + (floor(b) >= first).  Both products stay below their
    factor (1 - 2^-53 times an integer m >= 1 rounds below m), so first <= n
    and floor(b) <= n - 1.  Hence first == n iff a >= n, and then the mobile
    is floor(b), which is below first.  second == n iff floor(b) == n - 1
    and first <= n - 1, that is iff b >= n - 1 and first < n, and then the
    mobile is floor(a).  So the event mask is (a >= n) | (b >= n - 1).
    """
    buf = rng.random(2 * k)
    a = buf[0::2] * (n + 1)
    b = buf[1::2] * n
    first_bst = a >= n
    events = np.flatnonzero(first_bst | (b >= n - 1))
    mobiles = np.where(first_bst[events], b[events], a[events]).astype(np.int64)
    return events + (start + 1), mobiles


def _uniform_block(events, n):
    """Uniform pairs per draw that hold about `events` base-station
    meetings, each pair meeting it with probability 2/(n+1).

    At most 8000 pairs, whose doubles take 125 KB: below glibc's 128 KiB
    mmap and trim thresholds every draw reuses the heap, above them that
    depends on the heap's layout.  On a 2-core x86-64 machine the 30
    phased trials at n = 256 of the benchmark's kernel-loops passes took
    78,000-144,000 minor page faults and 0.56-0.84 s with 16384-pair
    draws, against 0-19 and 0.44-0.58 s with 8000 (getrusage, twelve
    passes each)."""
    return max(32, min(8000, events * (n + 1) // 2))


def _flip_uniform_block(n, metric_budget):
    """Pairs per flip draw: 2^n meetings, about the mean run, at most 4096.
    On a 2-core x86-64 machine (medians of three runs, each the best of
    five), 150 trials from zeros took 65 / 49 / 46 / 52 ms with 2^(n-1) /
    2^n / 2^(n+1) / 4096 meetings per draw at n = 9, and 73 / 52 / 49 /
    65 ms at n = 10, where the last two both draw 8000 pairs: within the
    host's noise, 2^n and 2^(n+1) tie."""
    return _uniform_block(min(4096, 1 << n, metric_budget), n)


def _timeopt_uniform_block(n, metric_budget):
    """Pairs per phased-protocol draw: 256 meetings.  A draw's fixed cost
    is some ten numpy calls, and the phased run, about n ln n meetings,
    ends part way into its last draw.  On a 2-core x86-64 machine (three
    runs, best of 3-5), single trials from random marks were fastest at
    256-512 pairs per draw at n = 8, 2048 at n = 16, 2048-8000 at n = 32
    and 4096-16384 at n = 64-256: about 250 meetings from n = 16 up, to
    the 8000-pair cap.  16384-pair draws that reuse their memory took
    0.7-0.95 of the time at n = 256; _uniform_block has those that do not."""
    return _uniform_block(min(256, metric_budget), n)


def _timeopt_bst_block(n, metric_budget):
    """Draws per block of the phased protocol's block kernel: 32n, at most
    16000 doubles (125 KB, see _uniform_block), and no more than the
    budget.  A pass costs some 30 numpy calls and O(n) work whatever its
    length; a run from random marks, 19n-30n meetings at n = 64-512 with
    one phase flip, takes two passes when one block holds it.  On a 2-core
    x86-64 machine single trials from random marks (best of three rounds)
    took 0.21 / 0.14 / 0.16 ms with blocks of 16n / 32n / 64n draws at
    n = 64, 0.18 / 0.14 / 0.17 ms at n = 128, 0.25 / 0.20 / 0.25 ms at
    n = 256 and 0.32 / 0.28 / 0.27 ms at n = 512."""
    return min(16000, 32 * n, metric_budget)


def _roundrobin_draw(rng, n, start, k):
    """Round-robin events: the cycle of P = n(n+1)/2 pairs opens with the
    base station meeting mobiles 0..n-1, so interaction t meets mobile
    (t-1) mod P when that is below n.  No doubles are consumed."""
    pairs = n * (n + 1) // 2
    cycles = np.arange(start // pairs, (start + k - 1) // pairs + 1)
    slots = (cycles[:, None] * pairs + np.arange(n)).ravel()
    slots = slots[(slots >= start) & (slots < start + k)]
    return slots + 1, slots % pairs


@lru_cache(maxsize=64)
def _row_starts(n):
    """Where each row of RoundRobinScheduler's cycle starts: row 0 is the
    base station's pairs (n, 0..n-1), row r >= 1 mobile r-1's pairs
    (r-1, r..n-1).  O(n): the cycle of n(n+1)/2 pairs is never built."""
    rows = np.arange(n, dtype=np.int64)
    starts = n + (rows - 1) * (2 * n - rows) // 2
    starts[0] = 0
    starts.flags.writeable = False  # cached: shared by every later call
    return starts


def _roundrobin_pairs(rng, n, start, k):
    """The round-robin pairs of interactions start+1..start+k: the fixed
    cycle from position start mod P, each pair worked out from its slot
    and its row, found among the row starts.  No doubles are consumed."""
    starts = _row_starts(n)
    slots = np.arange(start, start + k, dtype=np.int64) % (n * (n + 1) // 2)
    rows = np.searchsorted(starts[1:], slots, side="right")
    return np.where(rows, rows - 1, n), slots - starts[rows] + rows


def _cycles(n):
    """Whole round-robin cycles of n(n+1)/2 interactions, enough for some
    4096 of the n base-station meetings a cycle holds."""
    return n * (n + 1) // 2 * max(1, 4096 // n)


def _step_bits(flip, draw, size, n, marks, rng, metric_budget, total_cap, check):
    """Flip if `flip` is set, else the phased protocol, over the events of
    `draw`, `size` draws per block.  Under flip every meeting converts the
    drawn agent; null meetings, the only ones that change nothing, are
    phased misses with credit left on the phase's mark.  Stops at
    convergence, after metric_budget base-station meetings, or after
    total_cap interactions, whichever comes first.  Consumes `marks`."""
    ones = sum(marks)
    # only the phased rule reads streak thresholds
    ceilings = () if flip else _phase_ceilings(min(n, total_cap)).tolist()
    c0 = c1 = c = cnt = phase = 0
    bst_count = nulls = 0
    conv = conv_nn = None
    flips = None if flip else 0  # flip has no phases
    seen = {ones}  # flip's structure check: the start's count of ones, each 0 or n
    total = total_cap
    for start in range(0, total_cap, size):
        steps, mobiles = draw(rng, n, start, min(size, total_cap - start))
        for j, i in enumerate(mobiles.tolist()):
            bst_count += 1
            mark = marks[i]
            if flip or mark == phase:
                cnt = 0
                if mark:
                    if c1:
                        c1 -= 1
                    marks[i] = 0
                    c0 += 1
                    ones -= 1
                else:
                    if c0:
                        c0 -= 1
                    marks[i] = 1
                    c1 += 1
                    ones += 1
                new_c = c0 + c1
                if check and (new_c < c or new_c > n or c1 > ones or c0 > n - ones):
                    raise _counter_error(n, c0, c1, ones)
                c = new_c
                if c == n:
                    if flip and check and _structure_broken(n, ones, 0 in seen, n in seen):
                        raise _structure_error(n, ones)
                    conv, conv_nn = bst_count, bst_count - nulls
                    break
                if flip and not 0 < ones < n:
                    seen.add(ones)
            else:
                converted = c1 if phase == 0 else c0
                remaining = c0 if phase == 0 else c1
                if cnt >= ceilings[converted]:
                    if check and remaining != 0:
                        raise _credit_error(remaining)
                    cnt = 0
                    phase = 1 - phase
                    flips += 1
                elif remaining == 0:
                    cnt += 1
                else:
                    nulls += 1
            if bst_count >= metric_budget:
                break
        else:
            continue
        # the inner loop stopped the run at its j-th event
        total = int(steps[j])
        break
    return RunRecord(total, bst_count, bst_count - nulls, conv, conv_nn, c, flips)


def _block_flip(draw, size, n, marks, rng, metric_budget, total_cap, check):
    """_step_bits's flip record, worked out `size` draws at a time.

    Every meeting flips the drawn agent's mark.  With the marks as the bits
    of one int64 (so n <= 63), a prefix XOR of the drawn agents' bits gives
    the marks after every meeting.  Let X = +1 for a meeting with a 0-mark,
    -1 with a 1-mark, and S its running sum from the block's start: then
    ones = ones_0 + S, and the counters are Lindley recursions, c1 rising
    on X = +1 and falling to a floor of 0 on X = -1, c0 the mirror image:
        c1 = S - min(-c1_0, min_{s<=t} S_s)
        c0 = max(c0_0, max_{s<=t} S_s) - S
    Each invariant check is one compare over the block's meetings up to
    the one that stops the run.  The structure at convergence is read from
    the marks themselves, not from S.
    """
    mask = sum(m << i for i, m in enumerate(marks))
    full = (1 << n) - 1
    ones = sum(marks)
    c0 = c1 = c = 0
    bst_count = 0
    conv = None
    zero_seen, one_seen = mask == 0, mask == full
    total = total_cap
    for start in range(0, total_cap, size):
        steps, mobiles = draw(rng, n, start, min(size, total_cap - start))
        mobiles = mobiles[: metric_budget - bst_count]
        if not len(mobiles):
            continue
        after = np.bitwise_xor.accumulate(np.left_shift(1, mobiles)) ^ mask
        s = np.cumsum(2 * (np.right_shift(after, mobiles) & 1) - 1)
        c1s = s - np.minimum(np.minimum.accumulate(s), -c1)
        c0s = np.maximum(np.maximum.accumulate(s), c0) - s
        cs = c0s + c1s
        hits = np.flatnonzero(cs == n)
        converged = len(hits) > 0
        end = int(hits[0]) + 1 if converged else len(mobiles)
        if check:
            _check_block(n, c, cs[:end], c0s[:end], c1s[:end], s[:end] + ones)
            zero_seen |= bool((after[:end] == 0).any())
            one_seen |= bool((after[:end] == full).any())
            marked = int(after[end - 1]).bit_count()
            if converged and _structure_broken(n, marked, zero_seen, one_seen):
                raise _structure_error(n, marked)
        bst_count += end
        c = int(cs[end - 1])
        if converged or bst_count >= metric_budget:
            conv = bst_count if converged else None
            total = int(steps[end - 1])
            break
        c0, c1 = int(c0s[-1]), int(c1s[-1])
        ones += int(s[-1])
        mask = int(after[-1])
    return RunRecord(total, bst_count, bst_count, conv, conv, c)


def _block_phased(draw, size, n, marks, rng, metric_budget, total_cap, check):
    """_step_bits's phased record, worked out `size` draws at a time.

    Within a phase an agent converts only at its first meeting while it
    carries the phase's mark, so one pass over the rest of a block finds
    the phase's hits as first occurrences (np.minimum.at applies every
    index in turn).  Let rem be the credit on the phase's mark and cvt the
    converted credit when a pass starts.  Before hit j, rem is
    max(rem - j, 0) and cvt is cvt + j; the misses before it (gap j) are
    null while credit is left and extend the streak once none is.  The
    streak carried into gap 0 is the block's or the phase's, and is 0 after
    a hit.  The phase flips at the first miss that finds the streak at
    ceil(T(cvt + j)) or more: in a streak gap at miss ceil(T) - streak + 1
    (at least 1), in a null gap, whose streak does not grow, only at its
    first.  After hit j, c = max(c, cvt + j + 1), so the run converges at
    hit n - cvt - 1.  A pass stops at the earlier of the flip and
    convergence, else at the block's end; the next pass starts after the
    flip.  Each invariant check is one compare over a pass's hits up to
    its stop.
    """
    ceilings = _phase_ceilings(min(n, total_cap))
    marks = np.array(marks)
    ones = int(marks.sum())
    phase = rem = cvt = cnt = 0  # rem: the credit on the phase's mark
    bst_count = nulls = flips = 0
    total = total_cap
    for start in range(0, total_cap, size):
        steps, mobiles = draw(rng, n, start, min(size, total_cap - start))
        mobiles = mobiles[: metric_budget - bst_count]
        length = len(mobiles)
        positions = np.arange(length)  # a pass works in block positions
        pos = 0
        while pos < length:
            first = np.full(n, length)
            np.minimum.at(first, mobiles[pos:], positions[pos:])
            hits = np.sort(first[marks == phase])[: n - cvt]
            hit_count = int(np.searchsorted(hits, length))
            converged = hit_count == n - cvt
            # gap j: the misses from starts[j] up to hit j, or to the end
            ends = hits[:hit_count]
            if not converged:
                ends = np.append(ends, length)
            starts = np.concatenate(([pos], ends[:-1] + 1))
            gaps = ends - starts
            # the misses each gap needs before the one that flips
            need = ceilings[cvt : cvt + len(ends)].copy()
            need[0] -= cnt
            if rem:
                # a null gap's streak does not grow: it flips at its first
                # miss or not at all
                held = need[:rem]
                held[held > 0] = length
            np.maximum(need, 0, out=need)
            flip = np.flatnonzero(gaps > need)
            flipped = len(flip) > 0
            if flipped:
                hit_count = int(flip[0])
                stop = int(starts[hit_count] + need[hit_count]) + 1
                passed = hit_count  # gaps passed whole
            elif converged:
                stop = int(ends[-1]) + 1
                passed = hit_count
            else:
                stop = length
                passed = hit_count + 1
                # the last gap's streak carries into the next block
                cnt = (0 if hit_count else cnt) + (
                    int(gaps[-1]) if hit_count >= rem else 0
                )
            nulls += int(gaps[: min(passed, rem)].sum())
            if check and hit_count:
                k = np.arange(1, hit_count + 1)
                left = np.maximum(rem - k, 0)
                c0s, c1s = (cvt + k, left) if phase else (left, cvt + k)
                ones_k = ones - k if phase else ones + k
                _check_block(n, rem + cvt, c0s + c1s, c0s, c1s, ones_k)
            marks[mobiles[hits[:hit_count]]] = 1 - phase
            ones += -hit_count if phase else hit_count
            rem, cvt = max(rem - hit_count, 0), cvt + hit_count
            bst_count += stop - pos
            pos = stop
            if converged and not flipped:
                nn = bst_count - nulls
                return RunRecord(
                    int(steps[stop - 1]), bst_count, nn, bst_count, nn, n, flips
                )
            if flipped:
                if check and rem:
                    raise _credit_error(rem)
                rem, cvt = cvt, rem
                phase = 1 - phase
                cnt = 0
                flips += 1
        if bst_count >= metric_budget:
            total = int(steps[length - 1])
            break
    return RunRecord(total, bst_count, bst_count - nulls, None, None, rem + cvt, flips)


# Flip from this many agents is worked out a block of meetings at a time
# (_block_flip), under every scheduler and for every trial.  Below it a
# trial steps one meeting at a time (_step_bits), and large BST-only
# batches step as lanes (experiments._takes_lanes).  A numpy pass over a
# block costs some 25 calls, as long as 100-200 scalar meetings, so short
# runs lose.  On a 2-core x86-64 machine, BST-only single trials from
# random marks took 0.51 of _step_bits's time at n = 9, 0.33 at n = 10 and
# 0.21 at n = 12, but 0.89 at n = 8 and 1.69 at n = 7 (best of 5 x 300).
# A 1024-trial BST-only batch took 0.67 of the lanes' time at n = 9 and
# 1.16 at n = 8.
FLIP_BLOCK_MIN_N = 9
# The block kernel holds the marks as the bits of one int64; above this
# flip steps one meeting at a time, and only with a bound (TrialBatchSpec).
FLIP_MAX_N = 63
# The phased protocol under BST-only scheduling from this many agents is
# worked out a block of draws at a time (_block_phased); below it a trial
# steps one meeting at a time, and large batches step as lanes.  On a
# 2-core x86-64 machine (medians of five alternating rounds), single trials
# from random marks took 0.70 of _step_bits's time at n = 48, 0.44-0.54 at
# n = 64 and 0.16 at n = 256, and a 1024-trial batch took 1.15 of the
# lanes' time at n = 48, 0.94-0.98 at n = 64, 0.55 at n = 128 and 0.36 at
# n = 256.
TIMEOPT_BLOCK_MIN_N = 64

# Each schedule's source: the base-station events of the bit protocols and
# the pairs of the naming protocol (the adversary reads the live names).
_EVENTS = {
    SchedulerKind.BST_ONLY: _bst_draw,
    SchedulerKind.UNIFORM_PAIR: _uniform_draw,
    SchedulerKind.ROUND_ROBIN: _roundrobin_draw,
}
_PAIRS = {
    SchedulerKind.UNIFORM_PAIR: _uniform_pairs,
    SchedulerKind.ROUND_ROBIN: _roundrobin_pairs,
}


def simulate_flip(scheduler, n, marks, rng, metric_budget, total_cap, check=True):
    """Flip protocol under `scheduler`: BST-only (1 double/step), uniform
    pairs (2 doubles/step) or round-robin (no doubles, in blocks of whole
    cycles holding some 4096 meetings)."""
    block = FLIP_BLOCK_MIN_N <= n <= FLIP_MAX_N
    if scheduler is SchedulerKind.UNIFORM_PAIR:
        size = _flip_uniform_block(n, metric_budget)
    elif scheduler is SchedulerKind.ROUND_ROBIN:
        size = _cycles(n)
    elif block:
        # blocks of 2^(n+1) draws, about twice the mean run, were fastest
        size = min(4096, 2 << n)
    else:
        size = _batch_size(min(metric_budget, total_cap))
    step = _block_flip if block else partial(_step_bits, True)
    return step(_EVENTS[scheduler], size, n, marks, rng, metric_budget, total_cap, check)


def simulate_timeopt(scheduler, n, marks, rng, metric_budget, total_cap, check=True):
    """Phased protocol under `scheduler`, drawing as simulate_flip does."""
    step = partial(_step_bits, False)
    if scheduler is SchedulerKind.UNIFORM_PAIR:
        size = _timeopt_uniform_block(n, metric_budget)
    elif scheduler is SchedulerKind.ROUND_ROBIN:
        size = _cycles(n)
    elif n >= TIMEOPT_BLOCK_MIN_N:
        size, step = _timeopt_bst_block(n, metric_budget), _block_phased
    else:
        size = _batch_size(min(metric_budget, total_cap))
    return step(_EVENTS[scheduler], size, n, marks, rng, metric_budget, total_cap, check)


# the entries with one schedule filled in, as the callers outside read them
simulate_flip_bst = partial(simulate_flip, SchedulerKind.BST_ONLY)
simulate_flip_uniform = partial(simulate_flip, SchedulerKind.UNIFORM_PAIR)
simulate_timeopt_bst = partial(simulate_timeopt, SchedulerKind.BST_ONLY)
simulate_timeopt_uniform = partial(simulate_timeopt, SchedulerKind.UNIFORM_PAIR)


LANE_FAULT = "a lane broke an invariant"
_LANE_MIN_LIVE = 32  # lane stepping stops once fewer lanes are left


def _compact(stream, running, rows):
    """How many rows are running, and `rows`, arrays of one entry per row,
    cut with the stream to the running rows once at most half of them run.
    Finished lanes keep stepping, unread, until then: few distinct array
    sizes keep the allocator from fragmenting."""
    count = np.count_nonzero(running)
    if 2 * count <= len(running):
        keep = np.flatnonzero(running)
        stream.keep(keep)
        rows = [a[keep] for a in rows]
    return count, rows


def _lanes(protocol, n, marks, stream, budget):
    """A bit protocol under base-station-only scheduling, one trial per
    lane, all lanes stepped together.

    `marks` is a C-contiguous (lanes, n) bool array, consumed;
    `stream.random()` gives the next double of every row and
    `stream.keep(rows)` drops the others.  A lane stops at convergence or
    after `budget` meetings, with the record the protocol's scalar BST-only
    kernel gives on its stream.  Returns the lanes' columns (see
    engine.RecordRow): column r holds lane r's record.  Once
    fewer than _LANE_MIN_LIVE lanes are left, stepping stops and those
    lanes' columns read PENDING in row 0.  Raises
    InvariantViolation(LANE_FAULT) if a lane breaks an invariant.

    `protocol(n, marks)` gives the rows' state, int64 arrays led by
    c, the null meetings and the phase flips (-1 where the protocol has no
    phases), and `meet(mark, state, running)`, which applies the rule and
    checks to the drawn agents and returns their new marks, the running
    rows that converged and the new state.  Rows are compacted as
    _compact says; the marks stay in place, found by each row's offset.
    """
    columns = np.empty((len(RecordRow), len(marks)), dtype=np.int64)
    columns[0] = PENDING
    live = np.arange(len(marks))  # the lane of each row
    offsets = live * n  # each row's first mark in marks.ravel()
    running = np.ones(len(marks), dtype=bool)  # rows whose trial goes on
    count = len(marks)
    state, meet = protocol(n, marks)
    flat = marks.ravel()
    step = 0

    def finish(rows, converged):  # at convergence, or at the budget
        (rows,) = rows.nonzero()
        block = np.empty((len(RecordRow), len(rows)), dtype=np.int64)
        nn = step - state[1][rows]
        block[RecordRow.total_interactions] = step
        block[RecordRow.bst_interactions] = step
        block[RecordRow.non_null_transitions] = nn
        block[RecordRow.converged_at_bst_interaction] = step if converged else -1
        block[RecordRow.converged_at_non_null] = nn if converged else -1
        block[RecordRow.final_c] = state[0][rows]
        block[RecordRow.phase_flips] = state[2][rows]
        columns[:, live[rows]] = block

    while count >= _LANE_MIN_LIVE and step < budget:
        step += 1
        cell = offsets + (stream.random() * n).astype(np.int64)
        flat[cell], done, state = meet(flat[cell], state, running)
        # on a bool array, np.count_nonzero is a cheaper any() than .any()
        if np.count_nonzero(done):
            finish(done, True)
            running &= ~done
            count, (live, offsets, running, *state) = _compact(
                stream, running, (live, offsets, running, *state)
            )
        if step == budget:
            finish(running, False)
    return columns


def _flip_lanes(n, marks):
    """Flip's lane state and step (see _lanes).  After c, the null meetings
    (none: every meeting flips a mark) and the phase flips (-1, for None:
    flip has no phases), a row keeps c0, c1, its count of ones and whether
    all-zero and all-one marks were seen."""
    ones = marks.sum(axis=1)
    c, null, c0, c1 = np.zeros((4, len(ones)), ones.dtype)
    flips = np.full(len(ones), -1, ones.dtype)

    def meet(one, state, running):
        c, null, flips, c0, c1, ones, zero_seen, one_seen = state
        zero = ~one
        c1 = c1 + zero - (one & (c1 > 0))
        c0 = c0 + one - (zero & (c0 > 0))
        ones = ones + zero - one
        new_c = c0 + c1
        done = (new_c == n) & running
        bad = _counters_broken(n, new_c, c, c0, c1, ones)
        if np.count_nonzero(done):
            bad |= done & _structure_broken(n, ones, zero_seen, one_seen)
        if np.count_nonzero(bad & running):
            raise InvariantViolation(LANE_FAULT)
        zero_seen |= ones == 0
        one_seen |= ones == n
        state = new_c, null, flips, c0, c1, ones, zero_seen, one_seen
        return zero, done, state

    return (c, null, flips, c0, c1, ones, ones == 0, ones == n), meet


def _timeopt_lanes(n, marks):
    """The phased protocol's lane state and step (see _lanes).  After c,
    the null meetings and the phase flips, counters are relative to each
    row's phase: `rem` is the credit on the phase's own mark (c0 in phase
    0), `cvt` the credit on the converted mark, `cnt` the streak, `turned`
    the agents carrying the converted mark.  A flip swaps the roles, so
    (rem, cvt, turned) meet the counter check as (c0, c1, ones) do."""
    ceilings = _phase_ceilings(n)
    turned = marks.sum(axis=1)
    c, null, flips, rem, cvt, cnt = np.zeros((6, len(turned)), turned.dtype)
    phase = np.zeros(len(turned), dtype=bool)

    def meet(mark, state, running):
        c, null, flips, rem, cvt, cnt, turned, phase = state
        hit = mark == phase
        miss = ~hit
        flip = miss & (cnt >= ceilings[cvt])
        idle = miss & ~flip
        streak = idle & (rem == 0)  # the rest of idle is null
        rem = rem - (hit & (rem > 0))
        cvt = cvt + hit
        turned = turned + hit
        cnt = (cnt + streak) * miss
        null = null + (idle ^ streak)
        if np.count_nonzero(flip):
            if np.count_nonzero(flip & (rem != 0) & running):
                raise InvariantViolation(LANE_FAULT)
            cnt = cnt * ~flip
            flips = flips + flip
            swap = (cvt - rem) * flip
            rem, cvt = rem + swap, cvt - swap
            turned = np.where(flip, n - turned, turned)
            phase = phase ^ flip
        new_c = rem + cvt
        if np.count_nonzero(_counters_broken(n, new_c, c, rem, cvt, turned) & running):
            raise InvariantViolation(LANE_FAULT)
        done = (new_c == n) & running
        state = new_c, null, flips, rem, cvt, cnt, turned, phase
        return mark ^ hit, done, state

    return (c, null, flips, rem, cvt, cnt, turned, phase), meet


# one lane per trial, each lane's record simulate_flip_bst's or
# simulate_timeopt_bst's on its stream
flip_bst_lanes = partial(_lanes, _flip_lanes)
timeopt_bst_lanes = partial(_lanes, _timeopt_lanes)


def _name_tally(names, size):
    """Agents per name 0..size-1, sinks included, and the count of
    non-sink names held by two or more agents: the state the naming loop
    keeps."""
    counts = [0] * size
    for v in names:
        counts[v] += 1
    return counts, sum(c >= 2 for c in counts[1:])


def _blocks(draw, size, rng, names, counts):
    """A pair source of _step_gros that reads nothing of the names: the
    pairs of `draw`, drawn a block at a time as they are read, the first
    block min(256, size) pairs and each next one twice as long, up to
    `size`.  simulate_gros passes 4096, or the cap when that is fewer.
    A uniform trial at n = 6 from zeros reads some 560 pairs: it took
    100-102 us with growing blocks against 160-164 us with 4096-pair ones,
    and a round-robin one 56-59 us against 114-115 us (best of five rounds
    of 1000, 2-core x86-64).  Chained in C: a generator yielding each pair
    made naming trials 5-30% slower there."""
    n = len(names)

    def blocks():
        start, k = 0, min(256, size)
        while True:
            yield draw(rng, n, start, k)
            start += k
            k = min(2 * k, size)

    return itertools.chain.from_iterable(zip(a.tolist(), b.tolist()) for a, b in blocks())


def _adversary(names, counts):
    """WeakAdversarialScheduler's pairs, read from the live names and
    counts: every sink in index order, then per collision the lowest
    homonym pair (i, j), followed by (n, i) and (n, j).  Exact, since
    naming a sink makes no sink and a collision makes exactly the sinks
    i < j; _step_gros reads no pair past silence."""
    n = len(names)
    for i, name in enumerate(names):
        if not name:
            yield n, i
    while True:
        # a plain loop: with a generator-expression scan the naming sweep
        # at n = 2-12 took about 1.45x as long (2-core x86-64)
        for i, name in enumerate(names):
            if counts[name] >= 2:
                break
        j = names.index(name, i + 1)
        yield i, j
        yield n, i
        yield n, j


def _step_gros(pairs, names, bound, metric_budget, total_cap):
    """Naming protocol over the pairs of the pair source `pairs(names,
    counts)`, which may read the live names and per-name counts; index n
    stands for the base station.

    Per-name counts and the count of names held twice or more tell
    silence.  Stops where engine.run does: at silence (a silent start
    converges at 0 and reads no pair), after metric_budget non-null
    transitions, or after total_cap interactions.  Every run it reports
    silent is checked to hold n distinct non-sink names.  Returns the
    record and the final names.

    The k-th name handed out is at most k.bit_length(), and a run hands
    out at most total_cap names, so the counts run to the larger of the
    start's largest name and (total_cap + 1).bit_length(), capped by the
    bound, past which NameOverflow is raised first: a run costs what its
    start and its cap allow, whatever p."""
    names = list(names)
    n = len(names)
    top = max(max(names, default=0), (total_cap + 1).bit_length())
    counts, homonyms = _name_tally(names, min(bound, top + 1))
    k = 1
    total = bst_count = non_null = 0
    conv = None if counts[0] or homonyms else 0
    steps = itertools.islice(pairs(names, counts), total_cap if conv is None else 0)
    for total, (a, b) in enumerate(steps, 1):
        if a == n or b == n:
            bst_count += 1
            i = a + b - n  # the pair's mobile
            if names[i]:
                continue
            term = (k & -k).bit_length()
            if term > bound - 1:
                raise NameOverflow.at(term, k, bound)
            k += 1
            names[i] = term
            counts[0] -= 1
            counts[term] += 1
            homonyms += counts[term] == 2
        else:
            name = names[a]
            if name != names[b] or not name:
                continue
            names[a] = names[b] = 0
            counts[0] += 2
            counts[name] -= 2
            homonyms -= counts[name] < 2
        non_null += 1
        if not counts[0] and not homonyms:
            conv = bst_count
            break
        if non_null >= metric_budget:
            break
    if conv is not None and _silence_broken(names):
        raise _silence_error(names)
    record = RunRecord(
        total_interactions=total,
        bst_interactions=bst_count,
        non_null_transitions=non_null,
        converged_at_bst_interaction=conv,
        converged_at_non_null=None if conv is None else non_null,
        final_c=sum(c > 0 for c in counts[1:]),
    )
    return record, names


def simulate_gros(scheduler, names, bound, rng, metric_budget, total_cap):
    """Naming protocol under `scheduler`: uniform pairs (2 doubles/step)
    or round-robin pairs (no doubles), a block at a time, or the
    deterministic adversarial schedule, every step non-null.  Returns the
    run record and the final names; the silence check runs in every
    naming run."""
    if scheduler is SchedulerKind.WEAK_ADVERSARIAL:
        pairs = _adversary
    else:
        pairs = partial(_blocks, _PAIRS[scheduler], min(4096, total_cap), rng)
    return _step_gros(pairs, names, bound, metric_budget, total_cap)


def simulate_gros_adversarial(names, bound, metric_budget, total_cap, check=True):
    """simulate_gros under the adversarial schedule, whatever `check` says."""
    return simulate_gros(
        SchedulerKind.WEAK_ADVERSARIAL, names, bound, None, metric_budget, total_cap
    )


@lru_cache(maxsize=64)
def _first_phase_length(n):
    """The longest first phase, in meetings: n conversions, after the k-th
    of them ceil(phase_threshold(k)) misses in a row, and the flipping miss."""
    return n + 1 + int(_phase_ceilings(n)[1:].sum())


def simulate_timeopt_first_phase(n, rng):
    """Run the phased protocol's first phase from an all-zero population
    until the phase flips; True iff every agent was converted by then.
    Every conversion credits c1, so the count of ones stands for c1; a draw
    of n or more (a corrupt stream) converts one agent too many, and a run
    past _first_phase_length(n): both raise InvariantViolation."""
    length = _first_phase_length(n)
    ceilings = _phase_ceilings(n).tolist()
    ones = cnt = 0
    size = min(4096, max(32, 8 * n))
    for start in range(0, length, size):
        # the drawn index only matters through its mark: the `ones`
        # converted agents can be taken to be indices 0..ones-1
        for i in _bst_draw(rng, n, start, min(size, length - start))[1].tolist():
            if i < ones:
                if cnt >= ceilings[ones]:
                    return ones == n
                cnt += 1  # no unconverted credit exists in the first phase
            else:
                cnt = 0
                ones += 1
                if ones > n:
                    raise InvariantViolation(
                        f"first phase converted {ones} of {n} agents"
                    )
    raise InvariantViolation(f"first phase still running after {length} meetings")


def timeopt_first_phase_lanes(n, stream, lanes):
    """simulate_timeopt_first_phase on `lanes` streams, one per lane, all
    lanes stepped together: `stream.random()` gives the next double of
    every row and `stream.keep(rows)` drops the others.

    Returns an int64 array of each lane's verdict, 1 for True and 0 for
    False.  Raises InvariantViolation(LANE_FAULT) if a lane breaks an
    invariant, running past _first_phase_length(n) included.  Rows are
    compacted as _compact says.
    """
    ceilings = _phase_ceilings(n)
    verdicts = np.empty(lanes, dtype=np.int64)
    live = np.arange(lanes)  # the lane of each row
    running = np.ones(lanes, dtype=bool)
    ones, cnt = np.zeros((2, lanes), dtype=np.int64)
    for _ in range(_first_phase_length(n)):
        # converted agents taken as indices 0..ones-1, as in the scalar kernel
        hit = (stream.random() * n).astype(np.int64) < ones
        done = hit & (cnt >= ceilings[ones]) & running
        cnt = (cnt + 1) * hit
        ones = ones + ~hit
        if np.count_nonzero((ones > n) & running):
            raise InvariantViolation(LANE_FAULT)
        if np.count_nonzero(done):
            verdicts[live[done]] = ones[done] == n
            running &= ~done
            count, (live, running, ones, cnt) = _compact(
                stream, running, (live, running, ones, cnt)
            )
            if not count:
                return verdicts
    raise InvariantViolation(LANE_FAULT)
