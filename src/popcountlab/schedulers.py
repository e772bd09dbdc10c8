"""Interaction-pair selection under each fairness regime.

Seeded schedulers draw from a numpy PCG64 generator and document exactly how
many doubles each draw consumes, in stream order, so the batch kernels can
reproduce their streams without going through the engine.  They read ahead:
the doubles come READ_AHEAD at a time, the first block at the first draw, so
a generator shared with a scheduler has advanced past the doubles its draws
used.  Of the deterministic schedulers, round-robin reads its cycle from a
generator and the adversary keeps no state.
"""

from enum import Enum, unique

import numpy as np

from .engine import BST, Configuration
from .protocols import SINK_NAME, GrosBst

# Identifier of the random stream: numpy's PCG64 behind default_rng.
RNG_ALGORITHM = "numpy-pcg64"
# Doubles a seeded scheduler takes from its generator in one call.
READ_AHEAD = 256


class IncompatibleProtocol(ValueError):
    """The scheduler cannot serve configurations of this protocol."""


@unique
class SchedulerKind(Enum):
    """Built-in schedulers, keyed by their CLI names."""

    UNIFORM_PAIR = "uniform"
    BST_ONLY = "bst"
    ROUND_ROBIN = "roundrobin"
    WEAK_ADVERSARIAL = "adversarial"


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class Scheduler:
    """Base interface: next_pair(config) -> (a, b) with the base station
    first in its pairs and mobile pairs in ascending index order."""

    kind: SchedulerKind

    def next_pair(self, config: Configuration) -> tuple[int, int]:
        raise NotImplementedError


def _read_ahead(rng: np.random.Generator):
    """The doubles of `rng`, one rng.random(READ_AHEAD) call per block, in
    the order one-at-a-time draws would give them; as a generator it draws
    nothing before its first next()."""
    while True:
        yield from rng.random(READ_AHEAD).tolist()


class _SeededScheduler(Scheduler):
    """A scheduler drawing its doubles from `rng` through _read_ahead."""

    def __init__(self, seed=0):
        self.rng = _as_generator(seed)
        # the stream holds rng, not self: with no reference cycle a finished
        # run's scheduler and its block are freed at once, not at the next
        # cycle collection (peak RSS rose about 1 MB when they waited)
        self._doubles = _read_ahead(self.rng)


class BstOnlyScheduler(_SeededScheduler):
    """Every interaction involves the base station; the mobile is uniform.

    Consumes one double u per draw: index = floor(u * n).
    """

    kind = SchedulerKind.BST_ONLY

    def next_pair(self, config: Configuration) -> tuple[int, int]:
        return (BST, int(next(self._doubles) * len(config.mobiles)))


class UniformPairScheduler(_SeededScheduler):
    """Uniform over all C(n+1, 2) unordered pairs among the n mobiles plus
    the base station.

    Consumes two doubles per draw: the first picks one participant among
    n + 1 (index n encodes the base station), the second one of the
    remaining n, skipping the first pick.
    """

    kind = SchedulerKind.UNIFORM_PAIR

    def next_pair(self, config: Configuration) -> tuple[int, int]:
        n = len(config.mobiles)
        doubles = self._doubles
        first = int(next(doubles) * (n + 1))
        second = int(next(doubles) * n)
        if second >= first:
            second += 1
        if first == n:
            return (BST, second)
        if second == n:
            return (BST, first)
        return (first, second) if first < second else (second, first)


def _roundrobin_cycle(n: int):
    """RoundRobinScheduler's cycle over n mobiles, repeated without end:
    the base station's pairs (BST, 0..n-1), then each mobile i's pairs
    (i, i+1..n-1).  O(1) memory: the n(n+1)/2 pairs are never listed."""
    while True:
        for i in range(n):
            yield (BST, i)
        for i in range(n):
            for j in range(i + 1, n):
                yield (i, j)


class RoundRobinScheduler(Scheduler):
    """Cycles through all pairs in a fixed order, a weak-fairness witness:
    any window of C(n+1, 2) consecutive draws contains every pair once.
    The cycle is read from a generator, restarted at its first pair when
    n changes, so a bounded run at any n costs only the pairs it draws."""

    kind = SchedulerKind.ROUND_ROBIN

    def __init__(self):
        self._n = 0
        self._pairs = iter(())

    def next_pair(self, config: Configuration) -> tuple[int, int]:
        n = len(config.mobiles)
        if n != self._n:
            self._n = n
            self._pairs = _roundrobin_cycle(n)
        return next(self._pairs)


class WeakAdversarialScheduler(Scheduler):
    """The schedule behind the naming protocol's exponential lower bound.

    Deterministic and weakly fair: it serves the lowest-indexed sink agent
    to the base station first; failing that it collides the lowest-indexed
    homonym pair; once the configuration is silent it keeps emitting
    (BST, 0), which stays null.  Only meaningful for name configurations.
    """

    kind = SchedulerKind.WEAK_ADVERSARIAL

    def next_pair(self, config: Configuration) -> tuple[int, int]:
        if not isinstance(config.bst, GrosBst):
            raise IncompatibleProtocol(
                "the adversarial scheduler only serves the naming protocol"
            )
        names = config.mobiles
        for i, name in enumerate(names):
            if name == SINK_NAME:
                return (BST, i)
        counts: dict[int, int] = {}
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        for i, name in enumerate(names):
            if counts[name] >= 2:
                j = next(k for k in range(i + 1, config.n) if names[k] == name)
                return (i, j)
        return (BST, 0)


def make_scheduler(kind: SchedulerKind, seed=0) -> Scheduler:
    """Build a scheduler; `seed` is ignored by the deterministic ones."""
    if kind is SchedulerKind.UNIFORM_PAIR:
        return UniformPairScheduler(seed)
    if kind is SchedulerKind.BST_ONLY:
        return BstOnlyScheduler(seed)
    if kind is SchedulerKind.ROUND_ROBIN:
        return RoundRobinScheduler()
    return WeakAdversarialScheduler()
