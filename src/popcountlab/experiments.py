"""Monte-Carlo batches, parameter sweeps, and the statistical summaries
behind the convergence-time claims.

Trials are seeded by spawning children of the batch seed (one per trial
index), so results are reproducible for any worker count and any subset of
trials can be rerun in isolation.
"""

import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum, unique

import numpy as np

from . import kernels
from .engine import (
    RunRecord,
    StopCondition,
    StopKind,
    UNBOUNDED,
    initial_configuration,
    resolve_limits,
    run,
)
from .oracle import Intractable
from .protocols import ProtocolId
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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
        if self.bound is not None and not gros:
            raise ValueError("the name bound only applies to the naming protocol")

    @property
    def resolved_bound(self) -> int:
        return self.bound if self.bound is not None else self.n + 1

    def resolved_stop(self) -> StopCondition:
        if self.stop is not None:
            return self.stop
        if self.protocol is ProtocolId.GROS_NAMING:
            return StopCondition(StopKind.SILENCE)
        return StopCondition(StopKind.COUNT_REACHES_N)


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


@dataclass(frozen=True)
class BatchResult:
    spec: TrialBatchSpec
    summary: Summary
    records: list[RunRecord]


def derive_seed(base: int, *key: int) -> int:
    """A 64-bit child seed, stable in (base, key)."""
    words = np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of trial `index`: an independent child stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def worst_unnamed_start(n: int) -> list[int]:
    """The unnamed start maximizing the adversarial naming run: one sink
    agent plus the named set {1, .., n-1} (see sweep_worst_unnamed)."""
    return list(range(n))


def initial_mobiles(spec: TrialBatchSpec, rng: np.random.Generator) -> list[int]:
    """Initial marks or names for one trial; may consume rng (n doubles for
    random marks, mark = floor(2u))."""
    if spec.init is InitPolicy.ALL_ZERO:
        return [0] * spec.n
    if spec.init is InitPolicy.ALL_ONE:
        return [1] * spec.n
    if spec.init is InitPolicy.UNIFORM_RANDOM_MARKS:
        return [int(u * 2) for u in rng.random(spec.n)]
    if spec.init is InitPolicy.WORST_CASE_UNNAMED:
        mobiles = worst_unnamed_start(spec.n)
    else:
        mobiles = list(spec.vector)
    if spec.protocol is ProtocolId.GROS_NAMING:
        bound = spec.resolved_bound
        bad = [v for v in mobiles if not 0 <= v < bound]
        if bad:
            raise ValueError(f"names {bad} outside the [0, {bound}) state space")
    else:
        bad = [v for v in mobiles if v not in (0, 1)]
        if bad:
            raise ValueError(f"marks {bad} are not bits")
    return mobiles


_KERNELS = {
    (ProtocolId.FLIP, SchedulerKind.BST_ONLY): kernels.simulate_flip_bst,
    (ProtocolId.FLIP, SchedulerKind.UNIFORM_PAIR): kernels.simulate_flip_uniform,
    (ProtocolId.TIME_OPT, SchedulerKind.BST_ONLY): kernels.simulate_timeopt_bst,
    (ProtocolId.TIME_OPT, SchedulerKind.UNIFORM_PAIR): kernels.simulate_timeopt_uniform,
}


def run_trial(spec: TrialBatchSpec, index: int, force_engine: bool = False) -> RunRecord:
    """One seeded trial, through a kernel when one matches the spec.

    force_engine routes through the reference engine instead; both paths
    consume the trial's random stream identically and must produce the same
    record (the tests rely on exactly that).
    """
    rng = trial_rng(spec.seed, index)
    mobiles = initial_mobiles(spec, rng)
    stop = spec.resolved_stop()
    protocol = spec.protocol

    if not force_engine and stop.kind is not StopKind.MAX_INTERACTIONS:
        limits = resolve_limits(protocol, spec.n, stop)[:2]
        if protocol is ProtocolId.GROS_NAMING:
            if spec.scheduler is SchedulerKind.WEAK_ADVERSARIAL:
                record, _ = kernels.simulate_gros_adversarial(
                    mobiles, spec.resolved_bound, *limits, spec.check_invariants
                )
                return record
        else:
            kernel = _KERNELS.get((protocol, spec.scheduler))
            if kernel is not None:
                return kernel(
                    spec.n, mobiles, rng, *limits, spec.check_invariants
                )

    bound = spec.resolved_bound if protocol is ProtocolId.GROS_NAMING else None
    config = initial_configuration(protocol, mobiles, bound=bound)
    scheduler = make_scheduler(spec.scheduler, rng)
    _, record = run(protocol, scheduler, config, stop, spec.check_invariants)
    return record


def _run_range(spec: TrialBatchSpec, lo: int, hi: int) -> list[RunRecord]:
    return [run_trial(spec, i) for i in range(lo, hi)]


def _metric_stats(values: list[int]) -> MetricStats:
    mean = statistics.fmean(values)
    stddev = statistics.stdev(values) if len(values) > 1 else 0.0
    return MetricStats(
        mean=mean,
        stddev=stddev,
        standard_error=stddev / math.sqrt(len(values)),
        min=min(values),
        max=max(values),
    )


def summarize(records: list[RunRecord]) -> Summary:
    """Convergence-time statistics; raises AllTrialsTruncated if nothing
    converged, since means over an empty set would be meaningless."""
    converged = [r for r in records if r.converged]
    if not converged:
        raise AllTrialsTruncated(
            f"none of the {len(records)} trials converged within budget"
        )
    return Summary(
        bst_interactions=_metric_stats(
            [r.converged_at_bst_interaction for r in converged]
        ),
        total_interactions=_metric_stats([r.total_interactions for r in converged]),
        non_null_transitions=_metric_stats(
            [r.converged_at_non_null for r in converged]
        ),
        trials=len(converged),
        truncated=len(records) - len(converged),
    )


def resolve_threads(threads: int | None) -> int:
    """Worker processes for batch loops: POPCOUNT_THREADS, default 1."""
    if threads is not None:
        return max(1, threads)
    text = os.environ.get("POPCOUNT_THREADS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise ValueError(
            f"POPCOUNT_THREADS must be an integer, got {text!r}"
        ) from None


def run_batch(spec: TrialBatchSpec, threads: int | None = None) -> BatchResult:
    """Run spec.trials independent seeded trials and summarize them.

    The per-trial seed split makes the result identical for every worker
    count; workers only change wall-clock time.
    """
    threads = resolve_threads(threads)
    if threads > 1 and spec.trials >= 2 * threads:
        edges = np.linspace(0, spec.trials, threads * 4 + 1, dtype=int)
        ranges = [
            (int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if lo < hi
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(_run_range, *zip(*((spec, lo, hi) for lo, hi in ranges)))
            records = [record for chunk in chunks for record in chunk]
    else:
        records = _run_range(spec, 0, spec.trials)
    return BatchResult(spec=spec, summary=summarize(records), records=records)


def sweep_n(base: TrialBatchSpec, n_values) -> list[tuple[int, Summary]]:
    """run_batch across population sizes, one derived seed per size."""
    out = []
    for n in n_values:
        spec = replace(base, n=n, seed=derive_seed(base.seed, n))
        out.append((n, run_batch(spec).summary))
    return out


def estimate_allflip_probability(n: int, trials: int, seed: int) -> float:
    """Fraction of first phases (all-zero start) that convert every agent
    before flipping."""
    hits = 0
    for index in range(trials):
        hits += kernels.simulate_timeopt_first_phase(n, trial_rng(seed, index))
    return hits / trials


@dataclass(frozen=True)
class WorstUnnamedSweep:
    """Result of exhausting all unnamed starts of the adversarial schedule."""

    worst_start: frozenset[int]
    worst_non_null: int
    starts_checked: int


def sweep_worst_unnamed(n: int, bound: int) -> WorstUnnamedSweep:
    """Adversarially schedule every configuration with at least one sink
    agent and distinct names otherwise, and report the one maximizing
    non-null transitions until silence.

    Starts are the 2^n - 1 proper subsets S of {1, .., n}: the agents carry
    the names of S plus sinks.  Each run must end silent with n distinct
    names; a start that fails to do so raises instead of being scored.
    """
    if not 1 <= n <= 16:
        raise Intractable(f"enumerating 2^{n} starts is out of range")
    if bound != n + 1:
        raise ValueError(f"the sweep needs bound = n + 1, got {bound}")
    metric_budget = 16 * 2 ** n
    worst_mask = 0
    worst = -1
    for mask in range(2 ** n - 1):
        names = [b + 1 for b in range(n) if (mask >> b) & 1]
        names += [0] * (n - len(names))
        record, _ = kernels.simulate_gros_adversarial(
            names, bound, metric_budget, UNBOUNDED, check=True
        )
        if not record.converged:
            raise AllTrialsTruncated(
                f"start mask {mask:#x} did not reach silence within budget"
            )
        if record.non_null_transitions > worst:
            worst = record.non_null_transitions
            worst_mask = mask
    start = frozenset(b + 1 for b in range(n) if (worst_mask >> b) & 1)
    return WorstUnnamedSweep(
        worst_start=start, worst_non_null=worst, starts_checked=2 ** n - 1
    )
