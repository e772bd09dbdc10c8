"""Exact reference values the simulations are checked against.

Everything here is computed in exact rational arithmetic (stdlib Fraction);
floats appear only when callers convert for reporting.  Where a value has a
closed form, an independent route to the same number is also provided (a
solved recurrence, a brute-force expansion, a linear-system solve) so tests
can compare the two without trusting either side.
"""

from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb

from .protocols import TimeOptBst, gros_term, phase_threshold, timeopt_step

# Largest population for which the exact phased-protocol expectation is
# solved; beyond this the lumped chain grows too fast to be worth it (on a
# 2-core x86-64 machine the solve took 0.09 s at n = 5 and 1.7 s at n = 8,
# about 2.7 times as long for each agent added).
EXACT_TIMEOPT_MAX_N = 8

# gros_sequence materializes 2^m - 1 terms; keep it to list sizes that are
# obviously fine in memory.
_MAX_SEQUENCE_DEPTH = 22


class Intractable(ValueError):
    """The requested exact computation is out of the supported range."""


def flip_expected_closed_form(n: int) -> Fraction:
    """Expected base-station interactions for the flip protocol to turn an
    all-same-mark population of n agents into the all-opposite one:

        2^(n-1) * sum_{k=0}^{n-1} 1 / C(n-1, k)
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return Fraction(2) ** (n - 1) * sum(
        Fraction(1, comb(n - 1, k)) for k in range(n)
    )


def flip_hitting_times(n: int) -> list[Fraction]:
    """Exact hitting times t_0..t_n of the mark-flipping walk on {0, .., n}.

    t_k is the expected number of steps to reach state 0 when k agents
    still carry the old mark, each step flipping a uniformly random agent
    except that state n - 1 is entered from n deterministically:

        t_0 = 0
        t_k = 1 + (k/n) t_{k-1} + ((n-k)/n) t_{k+1}    (1 <= k <= n-1)
        t_n = 1 + t_{n-1}

    The differences u_k = t_k - t_{k-1} follow a first-order recurrence,
    solved in one backward pass, independently of the closed form:

        u_n = 1,    k u_k = n + (n-k) u_{k+1},    t_k = u_1 + .. + u_k
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    steps = [Fraction(1)]  # u_n, u_{n-1}, .., u_1
    for k in range(n - 1, 0, -1):
        steps.append((n + (n - k) * steps[-1]) / k)
    return [Fraction(0), *accumulate(reversed(steps))]


def flip_expected_recurrence(n: int) -> Fraction:
    """The flip expectation from the solved recurrence; must equal the
    closed form for every n."""
    return flip_hitting_times(n)[n]


def flip_uniform_total_expected(n: int) -> Fraction:
    """Expected total interactions for the flip protocol under uniform-pair
    scheduling, from an all-same-mark start: E[bst] * (n + 1) / 2.

    Each uniform draw includes the base station with probability
    2 / (n + 1), independently of the agent it meets, so the draws up to
    each base-station meeting are i.i.d. geometric with mean (n + 1) / 2,
    and Wald's identity multiplies the expected meetings
    (flip_expected_closed_form) by that mean.
    """
    return flip_expected_closed_form(n) * Fraction(n + 1, 2)


def flip_hitting_law(n: int, horizon: int) -> list[Fraction]:
    """P(T = t) for t < horizon, where T counts the flip protocol's
    base-station meetings from all zeros until c = n, under uniform agent
    choice per meeting.

    A DP over (ones, c0, c1) that keeps integer path counts, each step
    weighting a move by the number of agents carrying the drawn mark; its
    mean over an unbounded horizon is flip_expected_closed_form(n).
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
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


def gros_sequence(depth: int) -> list[int]:
    """Brute-force expansion of the naming sequence.

    U_1 = (1) and U_m = U_{m-1}, m, U_{m-1}; the expansion is the
    independent check for the closed-form gros_term.
    """
    if depth < 1:
        raise ValueError(f"expansion depth must be >= 1, got {depth}")
    if depth > _MAX_SEQUENCE_DEPTH:
        raise Intractable(
            f"expansion of depth {depth} has {2 ** depth - 1} terms"
        )
    seq: list[int] = []
    for m in range(1, depth + 1):
        seq = seq + [m] + seq
    return seq


def gros_length(depth: int) -> int:
    """Number of terms of the depth-m naming sequence: 2^m - 1."""
    if depth < 1:
        raise ValueError(f"expansion depth must be >= 1, got {depth}")
    return 2 ** depth - 1


def gros_worst_case(n: int) -> int:
    """Most non-null transitions the naming protocol makes under the
    adversarial weakly fair schedule, over every partially named start of
    n agents: 3 * 2^(n-1) - 2.  experiments.sweep_worst_unnamed is the
    independent route, by enumeration."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return 3 * 2 ** (n - 1) - 2


def harmonic_bound(n: int) -> Fraction:
    """n * H_n, the floor on expected interactions for any counting protocol
    in which the base station must meet every agent at least once."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return n * sum(Fraction(1, l) for l in range(1, n + 1))


def timeopt_exact_expected(n: int, initial_ones: int | None = None) -> Fraction:
    """Exact expected base-station interactions for the phased protocol to
    reach estimate c = n, under uniform agent choice per interaction.

    Starts from zeroed counters in phase 0.  With initial_ones=None the
    initial marks are independent fair bits and the result averages the
    2^n mark vectors with binomial weights; otherwise it conditions on the
    given number of mark-1 agents.

    The interaction sequence only depends on the drawn agent's mark, so the
    chain is lumped to (ones, c0, c1, cnt, phase) and solved exactly by
    state elimination.  Only n <= EXACT_TIMEOPT_MAX_N is supported; the
    lumped space grows too quickly after that.
    """
    if not 1 <= n <= EXACT_TIMEOPT_MAX_N:
        raise Intractable(
            f"exact solve supports 1 <= n <= {EXACT_TIMEOPT_MAX_N}, got {n}"
        )
    if initial_ones is None:
        weights = {
            (k, 0, 0, 0, 0): Fraction(comb(n, k), 2 ** n) for k in range(n + 1)
        }
    else:
        if not 0 <= initial_ones <= n:
            raise ValueError(f"initial_ones must be in [0, {n}]")
        weights = {(initial_ones, 0, 0, 0, 0): Fraction(1)}
    return _expected_absorption_steps(n, weights)


def timeopt_uniform_total_expected(n: int, initial_ones: int | None = None) -> Fraction:
    """Expected total interactions for the phased protocol under uniform-pair
    scheduling: timeopt_exact_expected(n, initial_ones) * (n + 1) / 2, by
    Wald's identity as in flip_uniform_total_expected."""
    return timeopt_exact_expected(n, initial_ones) * Fraction(n + 1, 2)


def first_phase_full_conversion(n: int) -> Fraction:
    """Exact probability that the phased protocol's first phase, from an
    all-zero start with uniform agent choice, converts every agent before
    it flips:

        prod_{k=1}^{n-1} (1 - (k/n)^(m_k)),  m_k = ceil(T_k) + 1

    With k agents converted and threshold T_k = phase_threshold(k), the
    phase flips on the m_k-th meeting in a row with a converted agent; a
    meeting with an unconverted agent converts it and resets the streak.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    out = Fraction(1)
    for k in range(1, n):
        out *= 1 - Fraction(k, n) ** (ceil(phase_threshold(k)) + 1)
    return out


def _lumped_successors(n, state):
    """Transitions of the lumped chain: draw a mark-1 agent with probability
    ones/n, a mark-0 agent otherwise, and apply the base-station rule."""
    ones, c0, c1, cnt, phase = state
    bst = TimeOptBst(c0=c0, c1=c1, cnt=cnt, phase=phase)
    out = []
    for mark, count in ((1, ones), (0, n - ones)):
        if count == 0:
            continue
        nxt, new_mark = timeopt_step(bst, mark)
        succ = (ones - mark + new_mark, nxt.c0, nxt.c1, nxt.cnt, nxt.phase)
        out.append((Fraction(count, n), succ))
    return out


def _expected_absorption_steps(n, start_weights):
    """Expected steps to absorption (c reaches n) from a weighted mixture of
    start states, by exact state elimination.

    Every transient state costs one step; transitions into absorbing states
    are dropped since the remaining expectation there is zero.  cnt is
    intrinsically bounded (it only grows while below the current phase
    threshold), so the reachable transient set is finite without any cap.
    """
    absorbed = lambda s: s[1] + s[2] >= n

    trans: dict = {}
    queue = deque(s for s in start_weights if not absorbed(s))
    seen = set(queue)
    while queue:
        state = queue.popleft()
        row: dict = {}
        for prob, succ in _lumped_successors(n, state):
            if absorbed(succ):
                continue
            row[succ] = row.get(succ, Fraction(0)) + prob
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
        trans[state] = row

    start = object()  # virtual source, eliminated last
    trans[start] = {s: w for s, w in start_weights.items() if not absorbed(s)}
    cost = {s: Fraction(1) for s in trans}
    cost[start] = Fraction(0)

    preds: dict = {s: set() for s in trans}
    for state, row in trans.items():
        for succ in row:
            preds[succ].add(state)

    # Eliminate transient states one at a time, cheapest fill-in first.
    remaining = set(trans) - {start}
    while remaining:
        state = min(
            remaining, key=lambda s: len(preds[s]) * len(trans[s])
        )
        remaining.discard(state)
        row = trans.pop(state)
        self_prob = row.pop(state, None)
        if self_prob is not None:
            preds[state].discard(state)
            scale = 1 / (1 - self_prob)
            cost[state] *= scale
            row = {succ: prob * scale for succ, prob in row.items()}
        for succ in row:
            preds[succ].discard(state)
        for pred in preds.pop(state):
            weight = trans[pred].pop(state)
            cost[pred] += weight * cost[state]
            pred_row = trans[pred]
            for succ, prob in row.items():
                pred_row[succ] = pred_row.get(succ, Fraction(0)) + weight * prob
                preds[succ].add(pred)

    assert not trans[start], "elimination left unresolved successors"
    return cost[start]
