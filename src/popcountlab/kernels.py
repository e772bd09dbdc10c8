"""Tight per-protocol simulation loops used by the batch harness.

The bit kernels are event source x transition.  Each random scheduler has a
draw function, `draw(rng, n, start, k)`, returning the (step, mobile)
base-station events of interactions start+1..start+k; it consumes random
doubles in exactly the scheduler's documented order (batched numpy draws
yield the same stream as single draws).  Each bit protocol has one stepping
loop applying its base-station rule and invariant checks to those events.
So a kernel run and an engine run seeded identically produce identical
RunRecords; the tests pin that down, and the engine stays the reference.
The uniform-pair source classifies whole blocks of pairs with numpy:
mobile/mobile pairs cannot change a bit configuration.

All kernels take the limits produced by engine.resolve_limits and halt at
their protocol's convergence predicate.  The phased protocol's streak
thresholds are protocols.phase_threshold's values, tabled once per n.

The lane kernels step many BST-only trials together, one numpy operation
per rule for all live lanes, and give each trial the record its scalar
kernel gives.
"""

from functools import lru_cache

import numpy as np

from .engine import InvariantViolation, RunRecord
from .protocols import NameOverflow, phase_threshold


def _batch_size(limit: int) -> int:
    """Buffer length for pre-drawn doubles, small when runs are short."""
    if limit >= 1 << 17:
        return 4096
    return max(32, int(limit) >> 5)


@lru_cache(maxsize=64)
def _phase_thresholds(n: int) -> tuple[float, ...]:
    """phase_threshold(c) for c = 0..n: a run over n agents converts at
    most n of them per phase."""
    return tuple(phase_threshold(c) for c in range(n + 1))


def _bst_draw(rng, n, start, k):
    """BST-only events: every interaction meets the base station, one
    double per draw, index = floor(u * n)."""
    mobiles = (rng.random(k) * n).astype(np.int64).tolist()
    return zip(range(start + 1, start + k + 1), mobiles)


def _uniform_draw(rng, n, start, k):
    """Uniform-pair events: two doubles per draw, in scheduler order; only
    the pairs that include the base station (index n) are returned."""
    buf = rng.random(2 * k)
    first = (buf[0::2] * (n + 1)).astype(np.int64)
    second = (buf[1::2] * n).astype(np.int64)
    second += second >= first
    events = np.flatnonzero((first == n) | (second == n))
    mobiles = np.where(first[events] == n, second[events], first[events])
    return zip((events + (start + 1)).tolist(), mobiles.tolist())


def _step_flip(draw, size, n, marks, rng, metric_budget, total_cap, check):
    """Flip protocol over the events of `draw`, `size` draws per block.

    Stops at convergence, after metric_budget base-station meetings, or
    after total_cap interactions, whichever comes first.
    """
    marks = list(marks)
    ones = sum(marks)
    c0 = c1 = c = 0
    bst_count = 0
    conv = None
    all_zero_seen = ones == 0
    all_one_seen = ones == n
    total = total_cap
    for start in range(0, total_cap, size):
        for step, i in draw(rng, n, start, min(size, total_cap - start)):
            bst_count += 1
            if marks[i]:
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
                raise InvariantViolation(
                    f"flip counters c0={c0} c1={c1} invalid with {ones}/{n} ones"
                )
            c = new_c
            if c == n:
                if check:
                    opposite_seen = all_zero_seen if ones == n else all_one_seen
                    if ones not in (0, n) or not opposite_seen:
                        raise InvariantViolation(
                            "flip converged without the all-same/all-opposite "
                            f"structure: {ones}/{n} ones"
                        )
                conv = bst_count
                break
            if ones == 0:
                all_zero_seen = True
            elif ones == n:
                all_one_seen = True
            if bst_count >= metric_budget:
                break
        else:
            continue
        # the inner loop stopped the run at `step`
        total = step
        break
    return RunRecord(
        total_interactions=total,
        bst_interactions=bst_count,
        non_null_transitions=bst_count,
        converged_at_bst_interaction=conv,
        converged_at_non_null=conv,
        final_c=c,
    )


def _step_timeopt(draw, size, n, marks, rng, metric_budget, total_cap, check):
    """Phased protocol over the events of `draw`, `size` draws per block,
    with the stopping rules of _step_flip."""
    marks = list(marks)
    ones = sum(marks)
    thresholds = _phase_thresholds(n)
    c0 = c1 = c = cnt = phase = 0
    bst_count = non_null = flips = 0
    conv = None
    conv_nn = None
    total = total_cap
    for start in range(0, total_cap, size):
        for step, i in draw(rng, n, start, min(size, total_cap - start)):
            bst_count += 1
            mark = marks[i]
            if mark == phase:
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
                non_null += 1
                new_c = c0 + c1
                if check and (new_c < c or new_c > n or c1 > ones or c0 > n - ones):
                    raise InvariantViolation(
                        f"counters c0={c0} c1={c1} invalid with {ones}/{n} ones"
                    )
                c = new_c
                if c == n:
                    conv, conv_nn = bst_count, non_null
                    break
            else:
                converted = c1 if phase == 0 else c0
                remaining = c0 if phase == 0 else c1
                if cnt >= thresholds[converted]:
                    if check and remaining != 0:
                        raise InvariantViolation(
                            f"phase flipped with {remaining} unconverted credits"
                        )
                    cnt = 0
                    phase = 1 - phase
                    flips += 1
                    non_null += 1
                elif remaining == 0:
                    cnt += 1
                    non_null += 1
            if bst_count >= metric_budget:
                break
        else:
            continue
        # the inner loop stopped the run at `step`
        total = step
        break
    return RunRecord(
        total_interactions=total,
        bst_interactions=bst_count,
        non_null_transitions=non_null,
        converged_at_bst_interaction=conv,
        converged_at_non_null=conv_nn,
        final_c=c,
        phase_flips=flips,
    )


def simulate_flip_bst(n, marks, rng, metric_budget, total_cap, check=True):
    """Flip protocol under base-station-only scheduling (1 double/step)."""
    size = _batch_size(min(metric_budget, total_cap))
    return _step_flip(_bst_draw, size, n, marks, rng, metric_budget, total_cap, check)


def simulate_timeopt_bst(n, marks, rng, metric_budget, total_cap, check=True):
    """Phased protocol under base-station-only scheduling (1 double/step)."""
    size = _batch_size(min(metric_budget, total_cap))
    return _step_timeopt(
        _bst_draw, size, n, marks, rng, metric_budget, total_cap, check
    )


def simulate_flip_uniform(n, marks, rng, metric_budget, total_cap, check=True):
    """Flip protocol under uniform-pair scheduling (2 doubles/step)."""
    return _step_flip(
        _uniform_draw, 4096, n, marks, rng, metric_budget, total_cap, check
    )


def simulate_timeopt_uniform(n, marks, rng, metric_budget, total_cap, check=True):
    """Phased protocol under uniform-pair scheduling (2 doubles/step)."""
    return _step_timeopt(
        _uniform_draw, 4096, n, marks, rng, metric_budget, total_cap, check
    )


def flip_bst_lanes(n, marks, stream, budget, min_live, check=True):
    """Flip protocol under base-station-only scheduling, one trial per lane,
    all lanes stepped together.

    `marks` is a C-contiguous (lanes, n) bool array, consumed;
    `stream.random()` gives the next double of every row and
    `stream.keep(rows)` drops the others.  A lane stops at convergence or
    after `budget` meetings, with the record simulate_flip_bst gives on its
    stream.  Once fewer than `min_live` lanes are left, stepping stops and
    those lanes get None.  Raises InvariantViolation if a lane breaks an
    invariant.

    Finished lanes keep stepping, unread, until at most half the rows are
    live; then the rows are compacted.  Few distinct array sizes keep the
    allocator from fragmenting.
    """
    records = [None] * len(marks)
    live = np.arange(len(marks))  # the lane of each row
    offsets = live * n  # each row's first mark in marks.ravel()
    running = np.ones(len(marks), dtype=bool)  # rows whose trial goes on
    count = len(marks)
    ones = marks.sum(axis=1)
    c0 = np.zeros_like(ones)
    c1 = np.zeros_like(ones)
    c = c0
    zero_seen, one_seen = ones == 0, ones == n
    flat = marks.ravel()
    step = 0
    while count >= min_live and step < budget:
        step += 1
        cell = offsets + (stream.random() * n).astype(np.int64)
        one = flat[cell]
        zero = ~one
        flat[cell] = zero
        c1 = c1 + zero - (one & (c1 > 0))
        c0 = c0 + one - (zero & (c0 > 0))
        ones = ones + zero - one
        new_c = c0 + c1
        done = (new_c == n) & running
        if check:
            bad = (new_c < c) | (new_c > n) | (c1 > ones) | (c0 > n - ones)
            if done.any():
                # converged: all marks equal, and all were opposite before
                opposite_seen = np.where(ones == n, zero_seen, one_seen)
                bad |= done & (((ones != 0) & (ones != n)) | ~opposite_seen)
            if (bad & running).any():
                raise InvariantViolation(
                    f"a flip lane broke an invariant at step {step}"
                )
            zero_seen |= ones == 0
            one_seen |= ones == n
        c = new_c
        if step == budget:
            for lane, final in zip(live[running].tolist(), c[running].tolist()):
                conv = step if final == n else None
                records[lane] = RunRecord(step, step, step, conv, conv, final)
            break
        if done.any():
            for lane in live[done].tolist():
                records[lane] = RunRecord(step, step, step, step, step, n)
            running &= ~done
            count = np.count_nonzero(running)
            if 2 * count <= len(live):
                keep = np.flatnonzero(running)
                state = (live, running, marks, ones, c0, c1, c, zero_seen, one_seen)
                live, running, marks, ones, c0, c1, c, zero_seen, one_seen = (
                    a[keep] for a in state
                )
                flat = marks.ravel()
                offsets = np.arange(0, len(live) * n, n)
                stream.keep(keep)
    return records


def timeopt_bst_lanes(n, marks, stream, budget, min_live, check=True):
    """Phased protocol under base-station-only scheduling, lanes stepped
    together as in flip_bst_lanes, with simulate_timeopt_bst's records.

    Counters are kept relative to each lane's phase: `rem` is the credit
    on the phase's own mark (c0 in phase 0), `cvt` the credit on the
    converted mark, `unconv` the agents still carrying the phase's mark.
    A phase flip swaps the roles.
    """
    records = [None] * len(marks)
    live = np.arange(len(marks))
    offsets = live * n
    running = np.ones(len(marks), dtype=bool)
    count = len(marks)
    thresholds = np.array(_phase_thresholds(n))
    phase = np.zeros(len(marks), dtype=bool)
    unconv = n - marks.sum(axis=1)
    rem = np.zeros_like(unconv)
    cvt = np.zeros_like(unconv)
    cnt = np.zeros_like(unconv)
    non_null = np.zeros_like(unconv)
    flips = np.zeros_like(unconv)
    flat = marks.ravel()
    step = 0
    while count >= min_live and step < budget:
        step += 1
        cell = offsets + (stream.random() * n).astype(np.int64)
        mark = flat[cell]
        hit = mark == phase
        flat[cell] = mark ^ hit
        miss = ~hit
        flip = miss & (cnt >= thresholds[cvt])
        streak = miss & (rem == 0) & ~flip
        c = rem + cvt
        rem = rem - (hit & (rem > 0))
        cvt = cvt + hit
        unconv = unconv - hit
        cnt = (cnt + streak) * miss
        non_null = non_null + (hit | flip | streak)
        if flip.any():
            if check and (flip & (rem != 0) & running).any():
                raise InvariantViolation(
                    f"a phased lane flipped with credit at step {step}"
                )
            cnt = cnt * ~flip
            flips = flips + flip
            swap = (cvt - rem) * flip
            rem, cvt = rem + swap, cvt - swap
            unconv = np.where(flip, n - unconv, unconv)
            phase = phase ^ flip
        new_c = rem + cvt
        if check:
            bad = (new_c < c) | (new_c > n) | (rem > unconv) | (cvt > n - unconv)
            if (bad & running).any():
                raise InvariantViolation(
                    f"a phased lane broke an invariant at step {step}"
                )
        done = (new_c == n) & running
        if step == budget:
            for lane, final, nn, fl in zip(
                live[running].tolist(),
                new_c[running].tolist(),
                non_null[running].tolist(),
                flips[running].tolist(),
            ):
                conv, conv_nn = (step, nn) if final == n else (None, None)
                records[lane] = RunRecord(step, step, nn, conv, conv_nn, final, fl)
            break
        if done.any():
            for lane, nn, fl in zip(
                live[done].tolist(), non_null[done].tolist(), flips[done].tolist()
            ):
                records[lane] = RunRecord(step, step, nn, step, nn, n, fl)
            running &= ~done
            count = np.count_nonzero(running)
            if 2 * count <= len(live):
                keep = np.flatnonzero(running)
                state = (
                    live, running, marks, phase, unconv, rem, cvt, cnt, non_null, flips
                )
                live, running, marks, phase, unconv, rem, cvt, cnt, non_null, flips = (
                    a[keep] for a in state
                )
                flat = marks.ravel()
                offsets = np.arange(0, len(live) * n, n)
                stream.keep(keep)
    return records


def simulate_gros_adversarial(names, bound, metric_budget, total_cap, check=True):
    """Naming protocol under the deterministic adversarial schedule.

    Serves the lowest-indexed sink agent to the base station, else collides
    the lowest-indexed homonym pair, and stops at silence.  Every step is
    non-null.  Returns the run record and the final name vector.
    """
    names = list(names)
    n = len(names)
    counts = [0] * bound  # agents per name, sinks included
    for v in names:
        counts[v] += 1
    homonyms = sum(c >= 2 for c in counts[1:])  # names held by two or more
    k = 1
    total = bst_count = 0
    conv_bst = conv_nn = None
    while True:
        if not counts[0] and not homonyms:
            conv_bst, conv_nn = bst_count, total
            break
        if total >= metric_budget or total >= total_cap:
            break
        if counts[0]:
            i = names.index(0)
            term = (k & -k).bit_length()
            if term > bound - 1:
                raise NameOverflow(
                    f"naming term {term} at index {k} does not fit below bound {bound}"
                )
            k += 1
            names[i] = term
            counts[0] -= 1
            counts[term] += 1
            homonyms += counts[term] == 2
            bst_count += 1
        else:
            i = next(i for i, v in enumerate(names) if counts[v] >= 2)
            name = names[i]
            j = names.index(name, i + 1)
            names[i] = names[j] = 0
            counts[0] += 2
            counts[name] -= 2
            homonyms -= counts[name] < 2
        total += 1
    distinct = len({v for v in names if v})
    if check and conv_bst is not None and (distinct != n or 0 in names):
        raise InvariantViolation(
            f"silent run left names {names} (want {n} distinct non-sink)"
        )
    record = RunRecord(
        total_interactions=total,
        bst_interactions=bst_count,
        non_null_transitions=total,
        converged_at_bst_interaction=conv_bst,
        converged_at_non_null=conv_nn,
        final_c=distinct,
    )
    return record, names


def simulate_timeopt_first_phase(n, rng, check=True):
    """Run the phased protocol's first phase from an all-zero population
    until the phase flips; True iff every agent was converted by then."""
    cap = 1 << 24 if n < 1024 else 1 << 40
    thresholds = _phase_thresholds(n)
    ones = c1 = cnt = 0
    size = min(4096, max(32, 8 * n))
    for start in range(0, cap, size):
        # the drawn index only matters through its mark: the `ones`
        # converted agents can be taken to be indices 0..ones-1
        for _, i in _bst_draw(rng, n, start, min(size, cap - start)):
            if i < ones:
                if cnt >= thresholds[c1]:
                    return ones == n
                cnt += 1  # no unconverted credit exists in the first phase
            else:
                cnt = 0
                c1 += 1
                ones += 1
                if check and (ones > n or c1 != ones):
                    raise InvariantViolation(
                        f"first phase counted {c1} conversions over {ones}/{n} ones"
                    )
    raise RuntimeError(f"first phase still running after {cap} meetings")
