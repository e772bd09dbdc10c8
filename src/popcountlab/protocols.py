"""Transition rules for the three base-station counting protocols.

Every rule is a pure function over small immutable records.  Each protocol
has one rule for base-station/mobile interactions; the naming protocol also
has a symmetric rule for mobile/mobile interactions.  State pairs without an
explicit rule are null transitions by default.  The engine enforces that
convention, so the functions here only spell out the non-default behaviour.

The records are frozen dataclasses with slots: equal and hashable by value,
with no per-instance __dict__.  Flip's rule and the phased threshold are
memoized on plain ints: a run over n agents reaches at most (n + 1)(n + 2)
flip inputs (c0, c1, mark), so the engine's flip steps and the phased
conversions reuse the records built before instead of building one per
meeting, and a lookup hashes ints, not a record.
"""

import math
from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache


@unique
class ProtocolId(Enum):
    """Built-in protocols, keyed by their CLI names."""

    TIME_OPT = "timeopt"
    FLIP = "flip"
    GROS_NAMING = "gros"


# The unique sink name for the naming protocol.  The base station names any
# sink agent it meets; two sink agents never change state.
SINK_NAME = 0


class NameOverflow(ValueError):
    """The naming sequence produced a name outside {1, .., bound-1}.

    In a run this means the population is larger than the configured state
    bound allows, so counting by naming cannot proceed.
    """

    @classmethod
    def at(cls, term: int, k: int, bound: int) -> "NameOverflow":
        """The error for term `term`, handed out at sequence index k."""
        return cls(f"naming term {term} at index {k} does not fit below bound {bound}")


@dataclass(frozen=True, slots=True)
class FlipBst:
    """Base-station counters for the one-bit flip protocol.

    c0 and c1 count agents the base station believes carry mark 0 and 1.
    The population estimate c is derived, always c0 + c1, never stored.
    The estimate never decreases and equals n exactly when every agent has
    been seen while the whole population carried one mark and then flipped
    to the other.
    """

    c0: int = 0
    c1: int = 0

    @property
    def c(self) -> int:
        return self.c0 + self.c1


@dataclass(frozen=True, slots=True)
class TimeOptBst:
    """Base-station state for the phased counting protocol.

    Counting proceeds in phases.  During phase b the base station converts
    every mark-b agent it meets to mark 1-b, moving one unit of credit from
    c_b to c_{1-b} when available (minting a new unit otherwise).  cnt is the
    current streak of fruitless meetings, those with already-converted agents
    while unconverted credit remains; a long enough streak is evidence the
    phase is exhausted and flips it.  The population estimate c is derived,
    always c0 + c1, never stored.
    """

    c0: int = 0
    c1: int = 0
    cnt: int = 0
    phase: int = 0

    @property
    def c(self) -> int:
        return self.c0 + self.c1


@dataclass(frozen=True, slots=True)
class GrosBst:
    """Base-station state for the weak-fairness naming protocol.

    k is the 1-based index of the next term of the naming sequence.  Names
    live in {1, .., bound-1}; SINK_NAME marks unnamed agents.  The population
    size is recovered as the number of distinct names once the run is silent.
    """

    k: int = 1
    bound: int = 2


@lru_cache(maxsize=4096)  # pure; timeopt_step asks at every meeting it misses
def phase_threshold(converted: int) -> float:
    """Streak length that ends a phase: 6 * (c*ln(c) + 1), with 0*ln(0) = 0.

    `converted` is the number of agents already converted in the current
    phase.  The constant 6 makes a premature flip (one that would strand
    unconverted agents) unlikely enough that the per-phase failure
    probability stays summable as phases grow.
    """
    if converted < 2:
        return 6.0
    return 6.0 * (converted * math.log(converted) + 1.0)


@lru_cache(maxsize=4096)  # pure; the engine's flip run asks at every meeting
def _flip_counters(c0: int, c1: int, mark: int) -> tuple[FlipBst, int]:
    """Flip's rule on the counters (c0, c1) and the agent's mark: the
    successor record, shared between calls (safe, it is frozen), and the
    agent's new mark."""
    if mark == 0:
        if c0 > 0:
            c0 -= 1
        mark = 1
        c1 += 1
    else:
        if c1 > 0:
            c1 -= 1
        mark = 0
        c0 += 1
    return FlipBst(c0=c0, c1=c1), mark


def flip_step(bst: FlipBst, mark: int) -> tuple[FlipBst, int]:
    """One base-station interaction of the flip protocol.

    The agent's mark always flips.  One unit of credit moves from the
    counter of the old mark when available; otherwise a new unit is minted
    on the new mark's counter, growing the estimate c.

    The rule is _flip_counters, memoized on plain ints.  Keyed on the
    record instead, each lookup called the dataclass's Python-level
    __hash__ (and __eq__ when equal records were different objects): with
    Configuration slotted too, the engine's flip step from zeros at n = 8
    took 1.79-1.99 us against 2.26-2.49 us keyed on the record (best of
    7 x 150 trials, in 11 of 14 interleaved rounds, 2-core x86-64).
    """
    return _flip_counters(bst.c0, bst.c1, mark)


def timeopt_step(bst: TimeOptBst, mark: int) -> tuple[TimeOptBst, int]:
    """One base-station interaction of the phased protocol.

    Returns the successor base-station state and the agent's new mark.
    Meeting a mark equal to the current phase converts the agent through
    flip's memoized rule on the counters, and resets the streak.  Meeting
    the opposite mark either flips the phase (streak long enough), extends
    the streak (no credit left to convert), or does nothing.
    """
    c0, c1, cnt, phase = bst.c0, bst.c1, bst.cnt, bst.phase
    if mark == phase:
        counters, mark = _flip_counters(c0, c1, mark)
        return TimeOptBst(counters.c0, counters.c1, cnt=0, phase=phase), mark
    converted = c1 if phase == 0 else c0
    remaining = c0 if phase == 0 else c1
    if cnt >= phase_threshold(converted):
        cnt = 0
        phase = 1 - phase
    elif remaining == 0:
        cnt += 1
    return TimeOptBst(c0=c0, c1=c1, cnt=cnt, phase=phase), mark


def gros_term(k: int) -> int:
    """k-th term of the binary ruler sequence: one plus the number of
    trailing zeros in k's binary representation (k >= 1).

    This is the order in which the naming protocol hands out names.  Its
    defining recurrence is U_1 = (1), U_m = U_{m-1}, m, U_{m-1}; the closed
    form here is checked against a brute-force expansion in the oracle
    module's tests.
    """
    if k < 1:
        raise ValueError(f"sequence index must be >= 1, got {k}")
    return (k & -k).bit_length()


def gros_bst_step(bst: GrosBst, name: int) -> tuple[GrosBst, int]:
    """One base-station interaction of the naming protocol.

    Sink agents receive the next term of the naming sequence; named agents
    are left alone (null transition).  Raises NameOverflow when the next
    term does not fit the state bound.
    """
    if name != SINK_NAME:
        return bst, name
    term = gros_term(bst.k)
    if term > bst.bound - 1:
        raise NameOverflow.at(term, bst.k, bst.bound)
    return GrosBst(k=bst.k + 1, bound=bst.bound), term


def gros_mobile_step(s1: int, s2: int) -> tuple[int, int]:
    """Symmetric mobile/mobile rule of the naming protocol.

    Two agents sharing a non-sink name both fall back to the sink, so the
    base station can rename them apart later.  Every other pair is null,
    including two sink agents.
    """
    if s1 == s2 and s1 != SINK_NAME:
        return SINK_NAME, SINK_NAME
    return s1, s2
