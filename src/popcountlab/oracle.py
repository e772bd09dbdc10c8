"""Exact reference values the simulations are checked against.

Everything here is computed in exact rational arithmetic (stdlib Fraction);
floats appear only when callers convert for reporting.  Where a value has a
closed form, an independent route to the same number is also provided (a
solved recurrence, a brute-force expansion) so tests can compare the two
without trusting either side.  Flip's values ride the walk of its count
of ones from all zeros.  The phased protocol's mean has one route, a
recurrence over streaks; tests check it against the exact values a state
elimination over its full chain once gave, pinned for every start at
n <= EXACT_TIMEOPT_MAX_N, and against Monte Carlo means.
"""

from fractions import Fraction
from itertools import accumulate
from math import ceil, comb

from .protocols import gros_term, phase_threshold

# Largest population for which the exact phased-protocol expectation is
# solved.  Solving costs little past it (on a 2-core x86-64 machine, 3 ms at
# n = 8, 0.05 s at n = 13 and 0.19 s at n = 16), but the value's numerator
# has 4762 digits at n = 13, past the 4300 that Python prints by default, so
# the range stays where every output prints it today.
EXACT_TIMEOPT_MAX_N = 8

# gros_sequence materializes 2^m - 1 terms; keep it to list sizes that are
# obviously fine in memory.
_MAX_SEQUENCE_DEPTH = 22


class Intractable(ValueError):
    """The requested exact computation is out of the supported range."""


def flip_expected_closed_form(n: int) -> Fraction:
    """Expected base-station interactions for the flip protocol to turn an
    all-same-mark population of n agents into the all-opposite one:

        (n/2) * sum_{k=1}^{n} 2^k / k  =  2^(n-1) * sum_{k=0}^{n-1} 1 / C(n-1, k)

    by sum_{k=0}^{m} 1/C(m, k) = (m+1)/2^(m+1) * sum_{j=1}^{m+1} 2^j/j.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return Fraction(n, 2) * sum(Fraction(2 ** k, k) for k in range(1, n + 1))


def _flip_tail_sums(n: int):
    """Yield (D_k, W_k) for k = n down to 1, one integer backward sweep of
    flip_hitting_times' recurrence: D_k = (n-1)!/(k-1)!, P_k = u_k D_k and
    W_k = D_k (u_k + .. + u_n), so that

        D_n = P_n = W_n = 1,    D_k = k D_{k+1},
        P_k = n D_{k+1} + (n-k) P_{k+1},    W_k = P_k + k W_{k+1}
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    d = p = w = 1
    yield d, w
    for k in range(n - 1, 0, -1):
        d, p = k * d, n * d + (n - k) * p
        w = p + k * w
        yield d, w


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

    so t_n = W_1/D_1 and t_k = t_n - W_{k+1}/D_{k+1} (see _flip_tail_sums).
    """
    tails = list(_flip_tail_sums(n))  # k = n..1
    t_n = Fraction(tails[-1][1], tails[-1][0])
    return [t_n - Fraction(w, d) for d, w in reversed(tails)] + [t_n]


def flip_expected_recurrence(n: int) -> Fraction:
    """The flip expectation t_n from the solved recurrence, W_1/D_1 of one
    sweep without the list; must equal the closed form for every n."""
    for d, w in _flip_tail_sums(n):
        pass
    return Fraction(w, d)


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

    From all zeros c1 is the count of ones and c0 the most ones so far less
    the count, so c first reaches n when the count does.  A first-passage
    DP over the counts 0..n-1 keeps integer path counts, each step weighting
    a move by the agents carrying the drawn mark; its mean over an
    unbounded horizon is flip_expected_closed_form(n).
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    paths = [1] + [0] * (n - 1)  # by count of ones, before it first reaches n
    law = [Fraction(0)]
    for t in range(1, horizon):
        # n - 1 ones reach n through the one agent still carrying a 0
        law.append(Fraction(paths[-1], n ** t))
        # k ones come up from k - 1 and down from k + 1
        padded = [0, *paths, 0]
        paths = [(n - k + 1) * padded[k] + (k + 1) * padded[k + 2] for k in range(n)]
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
    adversarial weakly fair schedule, over every start of n agents,
    homonym starts included: 3 * 2^(n-1) - 2.  experiments.sweep_worst_unnamed
    is the independent route, by enumeration."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return 3 * 2 ** (n - 1) - 2


def harmonic_bound(n: int) -> Fraction:
    """n * H_n, the floor on expected interactions for any counting protocol
    in which the base station must meet every agent at least once."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    return n * sum(Fraction(1, l) for l in range(1, n + 1))


def _streak_length(converted: int) -> int:
    """Meetings in a row with converted agents, once no credit is left to
    convert, that flip the phase: the streak counts up to
    ceil(phase_threshold(converted)) and the next such meeting flips."""
    return ceil(phase_threshold(converted)) + 1


def timeopt_exact_expected(n: int, initial_ones: int | None = None) -> Fraction:
    """Exact expected base-station interactions for the phased protocol to
    reach estimate c = n, under uniform agent choice per interaction.

    Starts from zeroed counters in phase 0.  With initial_ones=None the
    initial marks are independent fair bits and the result averages the
    2^n mark vectors with binomial weights; otherwise it conditions on the
    given number of mark-1 agents.

    Solved by one recurrence over streaks.  In phase b, S(u, c) is the
    expectation when u agents carry mark b, c credits sit on the other mark,
    none on mark b, and the streak is 0.  The streak is a run of misses,
    each with probability q = (n - u)/n.  It flips the phase at miss
    m = _streak_length(c), with probability q^m, and otherwise ends in a
    conversion, which leads to S(u - 1, c + 1); its expected length is
    (1 - q^m)/(1 - q), or m when u = 0.  A flip is followed by c credited
    conversions, which take n (H_(n-u) - H_(n-u-c)) meetings on average
    and lead to S(n - u - c, c).  So each layer c pairs u with n - u - c in
    a 2x2 system, solved from c = n - 1 down to 0 with layer n worth 0.  A
    start with k ones is S(n - k, 0).
    """
    if not 1 <= n <= EXACT_TIMEOPT_MAX_N:
        raise Intractable(
            f"exact solve supports 1 <= n <= {EXACT_TIMEOPT_MAX_N}, got {n}"
        )
    if initial_ones is not None and not 0 <= initial_ones <= n:
        raise ValueError(f"initial_ones must be in [0, {n}]")
    harmonic = [Fraction(0), *accumulate(Fraction(1, l) for l in range(1, n + 1))]
    layer = [Fraction(0)]  # S(u, c + 1) for u = 0..n - c - 1, while c is solved
    for c in range(n - 1, -1, -1):
        m = _streak_length(c)
        flip, rest = [], []  # q^m, and S(u, c) less q^m S(n - u - c, c)
        for u in range(n - c + 1):
            q = Fraction(n - u, n)
            p = q ** m
            streak = (1 - p) / (1 - q) if u else Fraction(m)
            refill = n * (harmonic[n - u] - harmonic[n - u - c])
            flip.append(p)
            rest.append(streak + p * refill + (1 - p) * (layer[u - 1] if u else 0))
        # S(u) = rest_u + flip_u S(v) and S(v) = rest_v + flip_v S(u), with
        # v = n - u - c; where u = v this still gives rest_u / (1 - flip_u)
        layer = [
            (rest[u] + flip[u] * rest[v]) / (1 - flip[u] * flip[v])
            for u, v in enumerate(reversed(range(n - c + 1)))
        ]
    if initial_ones is not None:
        return layer[n - initial_ones]
    return sum(Fraction(comb(n, k), 2 ** n) * layer[n - k] for k in range(n + 1))


def timeopt_uniform_total_expected(n: int, initial_ones: int | None = None) -> Fraction:
    """Expected total interactions for the phased protocol under uniform-pair
    scheduling: timeopt_exact_expected(n, initial_ones) * (n + 1) / 2, by
    Wald's identity as in flip_uniform_total_expected."""
    return timeopt_exact_expected(n, initial_ones) * Fraction(n + 1, 2)


def first_phase_full_conversion(n: int) -> Fraction:
    """Exact probability that the phased protocol's first phase, from an
    all-zero start with uniform agent choice, converts every agent before
    it flips:

        prod_{k=1}^{n-1} (1 - (k/n)^(m_k)),  m_k = _streak_length(k)

    With k agents converted, the phase flips on the m_k-th meeting in a row
    with a converted agent; a meeting with an unconverted agent converts it
    and resets the streak.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    out = Fraction(1)
    for k in range(1, n):
        out *= 1 - Fraction(k, n) ** _streak_length(k)
    return out
