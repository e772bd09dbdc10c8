"""Statistical acceptance checks for the whole laboratory.

Each check reproduces one headline property of the protocols at desk scale:
exact oracle identities, measured means against exact expectations, scaling
laws, worst-case schedules, and invariant instrumentation.  The CLI `verify`
command and the acceptance test suite both run these, at a quick or a full
parameter level; every check is deterministic in (level, seed).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, oracle
from .engine import InvariantViolation, resolve_limits
from .experiments import (
    NATURAL_STOP,
    AllTrialsTruncated,
    InitPolicy,
    TrialBatchSpec,
    derive_seed,
    estimate_allflip_probability,
    exact_mean,
    run_batch,
    subset_start,
    sweep_n,
    sweep_worst_unnamed,
    worst_unnamed_start,
)
from .protocols import ProtocolId
from .schedulers import SchedulerKind

CHECK_NAMES = (
    "oracle-identity",
    "flip-mean-vs-exact",
    "timeopt-convergence-scaling",
    "timeopt-harmonic-floor",
    "allflip-probability",
    "run-invariants",
    "timeopt-exact-vs-montecarlo",
    "adversarial-worst-case-range",
    "naming-sequence",
    "terminal-naming",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AcceptanceParams:
    """Workload sizes for one verification level."""

    identity_max_n: int
    flip_ns: tuple[int, ...]
    flip_trials_small: int  # population sizes up to 8
    flip_trials_large: int
    flip_extra_ns: tuple[int, ...]  # added coverage at reduced trials
    flip_extra_trials: int
    timeopt_ns: tuple[int, ...]
    timeopt_trials: int
    harmonic_ns: tuple[int, ...]
    allflip_ns: tuple[int, ...]
    allflip_trials: int
    exact_ns: tuple[int, ...]
    exact_trials: int
    gros_ns: tuple[int, ...]
    gros_spot_ns: tuple[int, ...]  # single worst-start runs, no enumeration
    sequence_expansion_depth: int
    sequence_length_max: int
    sequence_prefix_max: int


PARAMS = {
    "full": AcceptanceParams(
        identity_max_n=64,
        flip_ns=tuple(range(2, 13)),
        flip_trials_small=30000,
        flip_trials_large=10000,
        flip_extra_ns=(13, 14),
        flip_extra_trials=2000,
        timeopt_ns=(8, 16, 32, 64, 128, 256),
        timeopt_trials=1000,
        harmonic_ns=(16, 64, 256),
        allflip_ns=(2, 8, 32),
        allflip_trials=100000,
        exact_ns=(1, 2),
        exact_trials=1000000,
        gros_ns=tuple(range(2, 13)),
        gros_spot_ns=(16,),
        sequence_expansion_depth=6,
        sequence_length_max=30,
        sequence_prefix_max=10,
    ),
    "fast": AcceptanceParams(
        identity_max_n=32,
        flip_ns=(2, 4, 6, 8),
        flip_trials_small=4000,
        flip_trials_large=4000,
        flip_extra_ns=(),
        flip_extra_trials=0,
        timeopt_ns=(8, 16, 32, 64),
        timeopt_trials=200,
        harmonic_ns=(16, 64),
        allflip_ns=(2, 8),
        allflip_trials=10000,
        exact_ns=(1, 2),
        exact_trials=100000,
        gros_ns=(2, 4, 6, 8),
        gros_spot_ns=(),
        sequence_expansion_depth=6,
        sequence_length_max=20,
        sequence_prefix_max=8,
    ),
}


class _RunFailed(Exception):
    """A run inside a check raised; the message says where and why."""


@dataclass
class _Instrumentation:
    """Counts every instrumented run so the invariant check can report how
    much evidence backs it, and keeps every run failure by its kind."""

    trials: int = 0
    violations: list = field(default_factory=list)
    truncations: list = field(default_factory=list)

    def run(self, where: str, trials: int, fn, *args):
        """fn(*args), counted as `trials` instrumented runs.  A run that
        raises is recorded and fails the check that made it."""
        try:
            out = fn(*args)
        except (InvariantViolation, AllTrialsTruncated) as exc:
            truncated = isinstance(exc, AllTrialsTruncated)
            failures = self.truncations if truncated else self.violations
            failures.append(f"{where}: {exc}")
            raise _RunFailed(failures[-1]) from exc
        self.trials += trials
        return out


def _adversarial_run(inst, where, trials, start):
    """One adversarial naming run from `start` at bound n + 1: (record,
    final names)."""
    n = len(start)
    limits = resolve_limits(ProtocolId.GROS_NAMING, n, NATURAL_STOP)
    return inst.run(
        where, trials, kernels.simulate_gros_adversarial, start, n + 1, *limits
    )


# Every check takes (params, seed, inst, shared) and returns (passed,
# detail); `shared` carries the data a later check reads from an earlier one.


def _check_oracle_identity(params, seed, inst, shared):
    top = params.identity_max_n
    for n in range(1, top + 1):
        if oracle.flip_expected_closed_form(n) != oracle.flip_expected_recurrence(n):
            return False, f"closed form and recurrence differ at n={n}"
    return True, f"closed form equals solved recurrence for n=1..{top}"


def _check_flip_mean(params, seed, inst, shared):
    worst_ratio = 0.0
    worst_n = params.flip_ns[0]
    sizes = [(n, params.flip_trials_small if n <= 8 else params.flip_trials_large)
             for n in params.flip_ns]
    sizes += [(n, params.flip_extra_trials) for n in params.flip_extra_ns]
    for n, trials in sizes:
        spec = TrialBatchSpec(
            protocol=ProtocolId.FLIP,
            n=n,
            trials=trials,
            scheduler=SchedulerKind.BST_ONLY,
            init=InitPolicy.ALL_ZERO,
            seed=derive_seed(seed, 2, n),
        )
        stats = inst.run(
            f"flip n={n}", trials, run_batch, spec
        ).summary.bst_interactions
        expected = float(exact_mean(spec))
        tolerance = max(3 * stats.standard_error, 0.02 * expected)
        ratio = abs(stats.mean - expected) / tolerance
        if ratio > worst_ratio:
            worst_ratio, worst_n = ratio, n
    return (
        worst_ratio <= 1.0,
        f"worst deviation {worst_ratio:.3f} of tolerance (n={worst_n}, "
        f"{len(sizes)} sizes, tolerance max(3SE, 2%))",
    )


def _check_timeopt_scaling(params, seed, inst, shared):
    base = TrialBatchSpec(
        protocol=ProtocolId.TIME_OPT,
        n=params.timeopt_ns[0],
        trials=params.timeopt_trials,
        scheduler=SchedulerKind.BST_ONLY,
        init=InitPolicy.UNIFORM_RANDOM_MARKS,
        seed=derive_seed(seed, 3),
    )
    trials = params.timeopt_trials * len(params.timeopt_ns)
    summaries = dict(
        inst.run("timeopt sweep", trials, sweep_n, base, params.timeopt_ns)
    )
    shared["summaries"] = summaries
    truncated = sum(s.truncated for s in summaries.values())
    ratios = []
    for small, big in zip(params.timeopt_ns, params.timeopt_ns[1:]):
        if big == 2 * small:
            ratios.append(
                summaries[big].bst_interactions.mean
                / summaries[small].bst_interactions.mean
            )
    ratios_ok = all(1.8 <= r <= 2.7 for r in ratios)
    passed = truncated == 0 and ratios_ok
    shown = ", ".join(f"{r:.2f}" for r in ratios)
    detail = (
        f"{params.timeopt_trials} trials converged at every n in "
        f"{params.timeopt_ns}; doubling ratios [{shown}] in [1.8, 2.7]"
        if passed
        else f"truncated={truncated}, doubling ratios [{shown}]"
    )
    return passed, detail


def _check_harmonic_floor(params, seed, inst, shared):
    summaries = shared.get("summaries")
    if not summaries:
        return False, "no sweep data (see scaling check)"
    margins = {}
    for n in params.harmonic_ns:
        stats = summaries[n].bst_interactions
        floor = float(oracle.harmonic_bound(n))
        margins[n] = stats.mean - (floor - 3 * stats.standard_error)
    worst_n = min(margins, key=margins.get)
    return (
        margins[worst_n] >= 0.0,
        f"mean BST interactions clear n*H_n - 3SE at n in {params.harmonic_ns}; "
        f"smallest margin {margins[worst_n]:.1f} at n={worst_n}",
    )


def _check_allflip(params, seed, inst, shared):
    lows = {}
    for n in params.allflip_ns:
        freq = inst.run(
            f"first phase n={n}",
            params.allflip_trials,
            estimate_allflip_probability,
            n,
            params.allflip_trials,
            derive_seed(seed, 5, n),
        )
        se = math.sqrt(freq * (1 - freq) / params.allflip_trials)
        lows[n] = freq - (0.5 - 3 * se)
    worst_n = min(lows, key=lows.get)
    return (
        all(v >= 0 for v in lows.values()),
        f"full-conversion frequency >= 1/2 - 3SE at n in {params.allflip_ns}; "
        f"smallest slack {lows[worst_n]:.4f} at n={worst_n}",
    )


def _check_exact_vs_mc(params, seed, inst, shared):
    gaps = []
    for n in params.exact_ns:
        spec = TrialBatchSpec(
            protocol=ProtocolId.TIME_OPT,
            n=n,
            trials=params.exact_trials,
            scheduler=SchedulerKind.BST_ONLY,
            init=InitPolicy.UNIFORM_RANDOM_MARKS,
            seed=derive_seed(seed, 7, n),
        )
        # keep only the summary, so that one batch's columns are freed
        # before the next batch is run; no RunRecord is built
        stats = inst.run(
            f"exact-vs-mc n={n}", params.exact_trials, run_batch, spec
        ).summary.bst_interactions
        expected = float(exact_mean(spec))
        gaps.append((n, abs(stats.mean - expected) / stats.standard_error))
    shown = ", ".join(f"n={n}: {g:.2f}SE" for n, g in gaps)
    return (
        all(g <= 3.0 for _, g in gaps),
        f"measured means vs exact expectations: {shown} "
        f"({params.exact_trials} trials each)",
    )


def _check_worst_case_range(params, seed, inst, shared):
    sweeps = {
        n: inst.run(f"worst-unnamed sweep n={n}", 2 ** n - 1, sweep_worst_unnamed, n)
        for n in params.gros_ns
    }
    bad = [
        n
        for n, sw in sweeps.items()
        if not 2 ** n - 1 <= sw.worst_non_null <= 2 * 2 ** n
    ]
    # enumerating starts beyond the swept sizes is out of budget; run the
    # analytic worst start alone there and hold it to the same range
    spots = {}
    for n in params.gros_spot_ns:
        start = worst_unnamed_start(n)
        record, _ = _adversarial_run(inst, f"worst spot n={n}", 1, start)
        spots[n] = record.converged_at_non_null
        if record.truncated or not 2 ** n - 1 <= spots[n] <= 2 * 2 ** n:
            bad.append(n)
    shared["sweeps"] = sweeps
    top = max(params.gros_ns)
    spot_note = "".join(
        f"; worst start at n={n}: {count}" for n, count in spots.items()
    )
    detail = (
        f"worst run inside [2^n - 1, 2^(n+1)] for n in {params.gros_ns}; "
        f"at n={top}: {sweeps[top].worst_non_null} vs floor {2 ** top - 1}"
        + spot_note
        if not bad
        else f"worst run outside range at n in {bad}"
    )
    return not bad, detail


def _check_naming_sequence(params, seed, inst, shared):
    expansion = oracle.gros_sequence(params.sequence_expansion_depth)
    for k, term in enumerate(expansion, start=1):
        if oracle.gros_term(k) != term:
            return False, f"ruler term {k} mismatch"
    length = 0
    for depth in range(1, params.sequence_length_max + 1):
        # U_m = U_(m-1), m, U_(m-1): L_m = 2 L_(m-1) + 1 from L_1 = 1
        length = 2 * length + 1
        if oracle.gros_length(depth) != length:
            return False, f"length mismatch at depth {depth}"
        if depth <= 14 and len(oracle.gros_sequence(depth)) != oracle.gros_length(depth):
            return False, f"expansion length mismatch at {depth}"
    for depth in range(1, params.sequence_prefix_max + 1):
        seq = oracle.gros_sequence(depth)
        for name_value in range(1, depth + 1):
            if seq.count(name_value) != 2 ** (depth - name_value):
                return False, f"name {name_value} multiplicity wrong at depth {depth}"
    return (
        True,
        f"terms k<={len(expansion)}, lengths to depth "
        f"{params.sequence_length_max}, multiplicities to depth "
        f"{params.sequence_prefix_max} all match",
    )


def _check_terminal_naming(params, seed, inst, shared):
    spot_runs = 0
    for n in params.gros_ns:
        rng = np.random.default_rng(derive_seed(seed, 10, n))
        starts = [subset_start(n, 0), worst_unnamed_start(n)]
        starts += [subset_start(n, int(rng.integers(0, 2 ** n - 1))) for _ in range(3)]
        for start in starts:
            # spot checks of runs already counted by the sweeps: not counted
            record, final = _adversarial_run(inst, f"terminal n={n}", 0, start)
            named = [v for v in final if v != 0]
            if not record.converged or len(set(named)) != n or len(named) != n:
                return False, f"run from {start} ended with names {final}"
            spot_runs += 1
    swept = sum(sw.starts_checked for sw in shared.get("sweeps", {}).values())
    return (
        True,
        f"{spot_runs} spot-checked runs ended with n distinct names "
        f"({swept} sweep runs verified in-kernel)",
    )


def _check_invariants(params, seed, inst, shared):
    kinds = (("violations", inst.violations), ("truncated batches", inst.truncations))
    found = "; ".join(f"{len(f)} {kind}, first: {f[0]}" for kind, f in kinds if f)
    if found:
        return False, found
    return True, f"zero violations across {inst.trials} instrumented runs"


# check name -> check, in run order: run-invariants comes last so that it
# sees every run
_CHECKS = {
    "oracle-identity": _check_oracle_identity,
    "flip-mean-vs-exact": _check_flip_mean,
    "timeopt-convergence-scaling": _check_timeopt_scaling,
    "timeopt-harmonic-floor": _check_harmonic_floor,
    "allflip-probability": _check_allflip,
    "timeopt-exact-vs-montecarlo": _check_exact_vs_mc,
    "adversarial-worst-case-range": _check_worst_case_range,
    "naming-sequence": _check_naming_sequence,
    "terminal-naming": _check_terminal_naming,
    "run-invariants": _check_invariants,
}


def run_all(level: str, seed: int) -> list[CheckResult]:
    """All acceptance checks at the given level, in report order.  A run
    that raises fails its check and counts under run-invariants."""
    if level not in PARAMS:
        raise ValueError(f"unknown level {level!r}, pick one of {sorted(PARAMS)}")
    params = PARAMS[level]
    inst = _Instrumentation()
    shared = {}
    results = {}
    for name, check in _CHECKS.items():
        try:
            passed, detail = check(params, seed, inst, shared)
        except _RunFailed as exc:
            passed, detail = False, str(exc)
        results[name] = CheckResult(name, passed, detail)
    return [results[name] for name in CHECK_NAMES]


def format_report(results: list[CheckResult], level: str, seed: int) -> str:
    """Fixed-width report; deterministic in (level, seed) by construction
    (no timestamps, machine names, or timings)."""
    width = max(len(r.name) for r in results) + 2
    lines = [f"acceptance checks  level={level}  seed={seed}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}{status:<6}{r.detail}")
    good = sum(r.passed for r in results)
    lines.append(f"{'overall':<{width}}{'PASS' if good == len(results) else 'FAIL':<6}"
                 f"{good}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
