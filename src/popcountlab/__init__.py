"""Simulation and verification laboratory for exact population counting
with a base station.

Three protocols over anonymous mobile agents and one distinguishable base
station: a phased counter that needs O(n log n) interactions with the base
station, a one-bit counter that needs about 2^n, and a naming protocol that
counts under weak fairness.  Exact expectations come from independent
oracles, simulation from seeded schedulers and vectorized batch kernels,
and the two sides are checked against each other by the acceptance suite.
"""

from .engine import (
    BST,
    Configuration,
    InvalidPair,
    InvariantViolation,
    RunRecord,
    StopCondition,
    StopKind,
    TagMismatch,
    apply_interaction,
    default_budget,
    initial_configuration,
    run,
)
from .experiments import (
    AllTrialsTruncated,
    BatchResult,
    InitPolicy,
    MetricStats,
    Summary,
    TrialBatchSpec,
    WorstUnnamedSweep,
    derive_seed,
    estimate_allflip_probability,
    run_batch,
    run_trial,
    sweep_n,
    sweep_worst_unnamed,
    worst_unnamed_start,
)
from .oracle import (
    EXACT_TIMEOPT_MAX_N,
    Intractable,
    flip_expected_closed_form,
    flip_expected_recurrence,
    gros_length,
    gros_sequence,
    harmonic_bound,
    timeopt_exact_expected,
)
from .protocols import (
    SINK_NAME,
    FlipBst,
    GrosBst,
    NameOverflow,
    ProtocolId,
    TimeOptBst,
    gros_term,
    phase_threshold,
)
from .schedulers import (
    RNG_ALGORITHM,
    IncompatibleProtocol,
    Scheduler,
    SchedulerKind,
    make_scheduler,
)

__version__ = "0.1.0"
