"""Deterministic interaction engine.

Applies single protocol transitions to scheduler-chosen pairs, tracks run
metrics, and drives executions to a stopping condition.  This is the
reference implementation: it favours clarity over speed, and the batch
kernels are tested against it step for step.  The bit protocols' invariant
checks and their texts live here once, and the kernels raise them too.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum, unique
from functools import lru_cache
from typing import get_args

from . import protocols
from .protocols import FlipBst, GrosBst, ProtocolId, TimeOptBst

# Identifier of the base station inside an interaction pair.  Mobile agents
# are addressed by their index in Configuration.mobiles.
BST = -1

BstState = FlipBst | TimeOptBst | GrosBst


class InvalidPair(ValueError):
    """The pair does not address two distinct participants of the run."""


class TagMismatch(TypeError):
    """Protocol and configuration disagree on the mobile state space."""


class InvariantViolation(RuntimeError):
    """A run produced a state forbidden by the protocol's invariants."""


def _counters_broken(n, c, before, c0, c1, ones):
    """The counter check, over ints or arrays, true where it fails: c =
    c0 + c1 fell below `before`, its value one meeting earlier, or passed
    n; c1 exceeds `ones`, the agents carrying mark 1, or c0 the agents
    carrying mark 0.  (With c = c0 + c1, c > n implies one of the last
    two.)"""
    return (c < before) | (c > n) | (c1 > ones) | (c0 > n - ones)


def _counter_error(n, c0, c1, ones):
    """The error of a failed counter check."""
    return InvariantViolation(f"counters c0={c0} c1={c1} invalid with {ones}/{n} ones")


def _credit_error(remaining):
    """The error of a phase that flipped with credit left on its mark."""
    return InvariantViolation(f"phase flipped with {remaining} unconverted credits")


def _structure_error(n, ones):
    """The error of a flip run that converged without every mark equal, or
    without the population having carried the opposite mark before."""
    return InvariantViolation(
        f"flip converged without the all-same/all-opposite structure: {ones}/{n} ones"
    )


# Each protocol's base-station record type and base-station rule.  The
# record type also fixes the mobiles' state space (see Configuration).
_PROTOCOLS = {
    ProtocolId.TIME_OPT: (TimeOptBst, protocols.timeopt_step),
    ProtocolId.FLIP: (FlipBst, protocols.flip_step),
    ProtocolId.GROS_NAMING: (GrosBst, protocols.gros_bst_step),
}


@dataclass(frozen=True)
class Configuration:
    """One global state: the base station plus n >= 1 mobile agents.

    The base station's type fixes the mobiles' state space: names in
    [0, bound) under a GrosBst, marks 0 or 1 under the bit protocols'
    records.  Mobiles are stored as raw ints; they are anonymous, the index
    only serves scheduling.
    """

    bst: BstState
    mobiles: tuple[int, ...]

    def __post_init__(self):
        mobiles = self.mobiles
        if len(mobiles) < 1:
            raise ValueError("a configuration needs at least one mobile agent")
        if isinstance(self.bst, GrosBst):
            bound = self.bst.bound
            for value in mobiles:
                if not 0 <= value < bound:
                    raise ValueError(
                        f"name {value} outside [0, {bound}) state space"
                    )
        # `value in (0, 1)` for every mark, counted at C speed
        elif len(mobiles) - mobiles.count(0) - mobiles.count(1):
            raise ValueError("marks must all be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.mobiles)


def initial_configuration(
    protocol: ProtocolId, mobiles, bound: int | None = None
) -> Configuration:
    """Fresh-start configuration: zeroed counters, phase 0, next name index 1.

    `bound` sizes the naming protocol's state space and defaults to n + 1,
    the smallest value that can name the whole population.
    """
    mobiles = tuple(mobiles)
    bst_type = _PROTOCOLS[protocol][0]
    if bst_type is GrosBst:
        bst = GrosBst(bound=len(mobiles) + 1 if bound is None else bound)
    else:
        bst = bst_type()
    return Configuration(bst=bst, mobiles=mobiles)


def _check_pair(n: int, pair) -> tuple[int, int]:
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise InvalidPair(f"pair must have two participants, got {pair!r}")
    if b == BST:
        raise InvalidPair("the base station must be the first participant")
    if not 0 <= b < n:
        raise InvalidPair(f"mobile index {b} out of range for n={n}")
    if a == BST:
        return a, b
    if not 0 <= a < n:
        raise InvalidPair(f"mobile index {a} out of range for n={n}")
    if a == b:
        raise InvalidPair(f"an agent cannot interact with itself (index {a})")
    return a, b


def _bst_rule(protocol: ProtocolId, config: Configuration):
    """The protocol's base-station rule, once the configuration's base
    station is checked to be the protocol's record type."""
    bst_type, rule = _PROTOCOLS[protocol]
    if not isinstance(config.bst, bst_type):
        raise TagMismatch(
            f"{protocol.value} cannot run on a configuration "
            f"with {type(config.bst).__name__} base station"
        )
    return rule


def apply_interaction(
    protocol: ProtocolId, config: Configuration, pair
) -> tuple[Configuration, bool, bool]:
    """Apply one interaction; returns (successor, was_non_null, involved_bst).

    The input configuration is never modified.  Pairs with no explicit rule
    leave the configuration unchanged and count as null.  The base station
    must be the first participant of its pairs; mobile/mobile pairs may come
    in either order since those rules are symmetric.
    """
    return _apply(protocol, _bst_rule(protocol, config), config, pair)


def _apply(protocol: ProtocolId, bst_rule, config: Configuration, pair):
    """apply_interaction with the base-station rule already resolved."""
    mobiles = config.mobiles
    a, b = _check_pair(len(mobiles), pair)

    if a == BST:
        value = mobiles[b]
        bst, new_value = bst_rule(config.bst, value)
        if new_value == value and bst == config.bst:
            return config, False, True
        new_mobiles = mobiles[:b] + (new_value,) + mobiles[b + 1 :]
        return Configuration(bst, new_mobiles), True, True

    if protocol is ProtocolId.GROS_NAMING:
        s1, s2 = protocols.gros_mobile_step(mobiles[a], mobiles[b])
        if (s1, s2) == (mobiles[a], mobiles[b]):
            return config, False, False
        items = list(mobiles)
        items[a], items[b] = s1, s2
        return Configuration(config.bst, tuple(items)), True, False

    # The bit protocols have no mobile/mobile rule.
    return config, False, False


@unique
class StopKind(Enum):
    COUNT_REACHES_N = "count"
    MAX_INTERACTIONS = "max-interactions"


@dataclass(frozen=True)
class StopCondition:
    """When to stop a run.

    Every protocol's run is done when its count reaches n (see
    RunRecord.final_c); for naming that is exactly silence.
    COUNT_REACHES_N halts there; `bound`, when given, truncates at that
    many total interactions instead of the protocol's default safety
    budget.  MAX_INTERACTIONS runs for exactly `bound` interactions (then
    required), still recording the first time the count reached n.
    """

    kind: StopKind
    bound: int | None = None

    def __post_init__(self):
        if self.kind is StopKind.MAX_INTERACTIONS and self.bound is None:
            raise ValueError("MAX_INTERACTIONS needs a bound")
        if self.bound is not None and self.bound < 1:
            raise ValueError("bound must be positive when given")


@dataclass
class RunRecord:
    """Metrics of one run.

    final_c is the run's count: the base station's population estimate for
    the bit protocols and the number of distinct non-sink names for the
    naming protocol.  The converged_at_* fields are None when the stop
    condition truncated the run before the count reached n.
    """

    total_interactions: int
    bst_interactions: int
    non_null_transitions: int
    converged_at_bst_interaction: int | None
    converged_at_non_null: int | None
    final_c: int
    phase_flips: int | None = None

    @property
    def converged(self) -> bool:
        return self.converged_at_bst_interaction is not None

    @property
    def truncated(self) -> bool:
        return not self.converged


# A batch's results as columns: one int64 row per RunRecord field, in field
# order, and one column per trial, with None stored as -1.  While a lane's
# trial is unfinished its column reads PENDING in row 0; no field of a
# finished trial is below -1.
RecordRow = IntEnum(
    "RecordRow", [(f.name, i) for i, f in enumerate(fields(RunRecord))]
)
NULLABLE_ROWS = tuple(
    RecordRow[f.name] for f in fields(RunRecord) if type(None) in get_args(f.type)
)
PENDING = -2


def default_budget(protocol: ProtocolId, n: int) -> int:
    """Safety budget in the protocol's own work metric: base-station
    meetings for the bit protocols, non-null transitions for naming.

    Flip converges in 2^(n-1) * sum_k 1/C(n-1, k) < 2^(n+1) base-station
    meetings on average, the phased protocol in O(n log n), and the
    adversarially scheduled naming protocol within 2 * 2^n non-null
    transitions; each budget leaves more than an order of magnitude of
    headroom.
    """
    if protocol is ProtocolId.FLIP:
        return 64 * 2 ** (n + 1)
    if protocol is ProtocolId.TIME_OPT:
        return math.ceil(64 * n * math.log(n + 1))
    return 16 * 2 ** n


# Stand-in for "no limit" that still allows integer comparison in loops.
UNBOUNDED = 1 << 127


@lru_cache(maxsize=256)
def resolve_limits(
    protocol: ProtocolId, n: int, stop: StopCondition
) -> tuple[int, int, bool]:
    """Turn a stop condition into loop limits.

    Returns (metric_budget, total_cap, halt_on_predicate).  The metric
    budget counts base-station meetings for the bit protocols and non-null
    transitions for naming; the total cap counts all interactions and is
    the hard safety net against schedulers that starve the metric.
    Memoized: every trial of a batch asks for the same limits.
    """
    if stop.kind is StopKind.MAX_INTERACTIONS:
        return UNBOUNDED, stop.bound, False
    if stop.bound is not None:
        return UNBOUNDED, stop.bound, True
    budget = default_budget(protocol, n)
    if protocol is ProtocolId.GROS_NAMING:
        total_cap = 64 + 8 * (n + 1) ** 2 * budget
    else:
        total_cap = 64 + 8 * (n + 1) * budget
    return budget, total_cap, True


# bst-only scheduling never pairs two mobiles, so naming homonyms would
# stay forever
NAMING_NEEDS_PAIRS = (
    "the naming protocol needs a scheduler that pairs mobiles: "
    "adversarial, uniform or roundrobin"
)


def _count(config: Configuration) -> int:
    """The run's count: the base station's estimate under the bit
    protocols, the number of distinct non-sink names under naming, where
    n of them for n agents means the configuration is silent."""
    if isinstance(config.bst, GrosBst):
        return len(set(config.mobiles) - {protocols.SINK_NAME})
    return config.bst.c


def run(
    protocol: ProtocolId,
    scheduler,
    config: Configuration,
    stop: StopCondition,
    check_invariants: bool = True,
) -> tuple[Configuration, RunRecord]:
    """Drive a single run to its stopping condition.

    The scheduler picks each interaction pair; the engine applies it,
    updates metrics, optionally checks protocol invariants, and halts per
    `stop`.  Returns the final configuration and the metrics record.
    """
    bst_rule = _bst_rule(protocol, config)
    from .schedulers import SchedulerKind  # schedulers imports this module

    kind = getattr(scheduler, "kind", None)
    if protocol is ProtocolId.GROS_NAMING and kind is SchedulerKind.BST_ONLY:
        raise ValueError(NAMING_NEEDS_PAIRS)
    n = config.n
    bit = protocol is not ProtocolId.GROS_NAMING
    metric_budget, total_cap, halt_on_predicate = resolve_limits(protocol, n, stop)

    total = bst_count = non_null = 0
    conv_bst: int | None = None
    conv_nn: int | None = None
    phase_flips = 0 if protocol is ProtocolId.TIME_OPT else None

    if _count(config) == n:
        conv_bst, conv_nn = 0, 0

    while (
        total < total_cap
        and (bst_count if bit else non_null) < metric_budget
        and not (halt_on_predicate and conv_bst is not None)
    ):
        prev_bst = config.bst
        pair = scheduler.next_pair(config)
        config, was_non_null, with_bst = _apply(protocol, bst_rule, config, pair)
        total += 1
        bst_count += with_bst
        non_null += was_non_null
        # a null step leaves the configuration the previous step checked;
        # the first step checks the starting one
        if not was_non_null and total > 1:
            continue

        if check_invariants and bit:
            bst, ones = config.bst, sum(config.mobiles)
            if _counters_broken(n, bst.c, prev_bst.c, bst.c0, bst.c1, ones):
                raise _counter_error(n, bst.c0, bst.c1, ones)
        if protocol is ProtocolId.TIME_OPT and config.bst.phase != prev_bst.phase:
            phase_flips += 1
            stranded = prev_bst.c0 if prev_bst.phase == 0 else prev_bst.c1
            if check_invariants and stranded != 0:
                raise _credit_error(stranded)

        if conv_bst is None and _count(config) == n:
            conv_bst, conv_nn = bst_count, non_null

    record = RunRecord(
        total_interactions=total,
        bst_interactions=bst_count,
        non_null_transitions=non_null,
        converged_at_bst_interaction=conv_bst,
        converged_at_non_null=conv_nn,
        final_c=_count(config),
        phase_flips=phase_flips,
    )
    return config, record
