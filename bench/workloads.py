"""The benchmark's workloads: inputs made from a seed, one pass each, checks.

A pass is the unit that is timed.  It is a list of operations: a batch of
seeded trials, or one check of `popcountlab verify`.  Each operation gets a
digest so two passes can be compared operation by operation; a pass
fingerprint covers all of them (sha256 over every RunRecord field in trial
order, or over the verify report bytes).
"""

import hashlib
import io
import random
import re
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from popcountlab import acceptance, cli, experiments
from popcountlab.experiments import InitPolicy, TrialBatchSpec, derive_seed
from popcountlab.protocols import ProtocolId
from popcountlab.schedulers import SchedulerKind

FLIP, TIMEOPT, GROS = ProtocolId.FLIP, ProtocolId.TIME_OPT, ProtocolId.GROS_NAMING
BST, UNIFORM, ROUND_ROBIN = (
    SchedulerKind.BST_ONLY,
    SchedulerKind.UNIFORM_PAIR,
    SchedulerKind.ROUND_ROBIN,
)
ZEROS, RANDOM = InitPolicy.ALL_ZERO, InitPolicy.UNIFORM_RANDOM_MARKS

# Several fast-level checks compare a Monte-Carlo mean with an exact value
# at 3 standard errors, and some seeds FAIL: seed 9 fails flip-mean-vs-exact
# at n=4 (see README.md).  verify-fast takes its seed from this pool, where
# every seed PASSes at the commit that added the benchmark; a FAIL then
# means the results changed.
VERIFY_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 42)

# The engine replays about 0.1 M interactions/s, so replays are capped by
# simulated interactions: about a second per pass whatever the workload.
REPLAY_INTERACTIONS = 60_000
REPLAY_TRIAL_MAX = 20_000


@dataclass(frozen=True)
class Batch:
    spec: TrialBatchSpec
    force_engine: bool = False


@dataclass
class PassResult:
    digests: list  # one per operation; None where the operation raised
    failed: int  # operations that raised or reported FAIL
    fingerprint: str
    trials: int
    records: list | None = None  # per batch, for the replay check


def record_fields(record) -> tuple:
    return tuple(vars(record).values())


def _batches(seed: int, tag: int, rows, smoke: bool) -> list[Batch]:
    """Batches from (protocol, n, trials, batches, scheduler, init,
    force_engine) rows; each batch seed derives from the workload seed."""
    out = []
    for row, (protocol, n, trials, count, scheduler, init, force) in enumerate(rows):
        for index in range(1 if smoke else count):
            spec = TrialBatchSpec(
                protocol=protocol,
                n=n,
                trials=max(1, trials // 10) if smoke else trials,
                scheduler=scheduler,
                init=init,
                seed=derive_seed(seed, tag, row, index),
            )
            out.append(Batch(spec, force))
    return out


class BatchWorkload:
    """Batches of seeded trials, run through `experiments.run_batch` with
    one worker (or trial by trial through `run_trial(..., force_engine=True)`)."""

    verify_seed = None

    def __init__(self, batches: list[Batch]):
        self.batches = batches

    def prepared(self):
        return nullcontext()

    def _records(self, batch: Batch):
        spec = batch.spec
        if batch.force_engine:
            records = [
                experiments.run_trial(spec, i, force_engine=True)
                for i in range(spec.trials)
            ]
            experiments.summarize(records)
            return records
        return experiments.run_batch(spec, threads=1).records

    def run_pass(self) -> PassResult:
        results = []
        for batch in self.batches:
            try:
                results.append(self._records(batch))
            except Exception:  # one failed batch must not end the run
                traceback.print_exc()
                results.append(None)
        return self.result(results)

    def result(self, results) -> PassResult:
        whole = hashlib.sha256()
        digests = []
        for records in results:
            if records is None:
                digests.append(None)
                continue
            part = hashlib.sha256()
            for record in records:
                text = repr(record_fields(record)).encode()
                part.update(text)
                whole.update(text)
            digests.append(part.hexdigest())
        return PassResult(
            digests=digests,
            failed=digests.count(None),
            fingerprint=whole.hexdigest(),
            trials=sum(batch.spec.trials for batch in self.batches),
            records=results,
        )

    def replay(self, result: PassResult, seed: int) -> tuple[int, int, int]:
        """Rerun a sample of trials in isolation on the other path (the
        engine, or the kernel for force_engine batches) and compare records.

        Each batch replays at least its cheapest trial, unless even that is
        longer than REPLAY_TRIAL_MAX interactions.  Returns (batches
        replayed, batches with a mismatch, trials replayed).
        """
        pick = random.Random(seed)
        share = REPLAY_INTERACTIONS / len(self.batches)
        attempted = failed = replayed = 0
        for batch, records in zip(self.batches, result.records):
            if records is None:
                continue
            costs = [record.total_interactions for record in records]
            if min(costs) > REPLAY_TRIAL_MAX:
                continue
            budget = max(share, min(costs))
            chosen = []
            for i in pick.sample(range(len(records)), len(records)):
                if costs[i] <= budget:
                    chosen.append(i)
                    budget -= costs[i]
            attempted += 1
            replayed += len(chosen)
            try:
                same = all(
                    record_fields(
                        experiments.run_trial(
                            batch.spec, i, force_engine=not batch.force_engine
                        )
                    )
                    == record_fields(records[i])
                    for i in chosen
                )
            except Exception:
                traceback.print_exc()
                same = False
            failed += not same
        return attempted, failed, replayed

    def pool_speedup(self) -> tuple[float, bool]:
        """The whole pass as one batch at 1 and at 2 workers: (wall at 1 /
        wall at 2, whether both gave the same records)."""
        trials = sum(batch.spec.trials for batch in self.batches)
        spec = replace(self.batches[0].spec, trials=trials)
        start = perf_counter()
        one = experiments.run_batch(spec, threads=1).records
        middle = perf_counter()
        two = experiments.run_batch(spec, threads=2).records
        end = perf_counter()
        same = list(map(record_fields, one)) == list(map(record_fields, two))
        return (middle - start) / (end - middle), same


_REPORT_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")
_INSTRUMENTED = re.compile(r"across (\d+) instrumented runs")

# A verify level small enough for the smoke mode; every check still runs.
SMOKE_PARAMS = replace(
    acceptance.PARAMS["fast"],
    identity_max_n=8,
    flip_ns=(2, 4),
    flip_trials_small=400,
    flip_trials_large=400,
    timeopt_ns=(8, 16),
    timeopt_trials=40,
    harmonic_ns=(16,),
    allflip_ns=(2,),
    allflip_trials=500,
    exact_trials=2000,
    gros_ns=(2, 4),
    sequence_expansion_depth=4,
    sequence_length_max=8,
    sequence_prefix_max=4,
)


class VerifyWorkload:
    """`popcountlab verify --level fast --seed S` through `cli.main`."""

    def __init__(self, seed: int, smoke: bool):
        self.verify_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
        self.level = "smoke" if smoke else "fast"

    @contextmanager
    def prepared(self):
        """Make the smoke level known to `verify` while the workload runs."""
        if self.level != "smoke":
            yield
            return
        acceptance.PARAMS["smoke"] = SMOKE_PARAMS
        try:
            yield
        finally:
            del acceptance.PARAMS["smoke"]

    def run_pass(self) -> PassResult:
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                cli.main(["verify", "--level", self.level, "--seed", str(self.verify_seed)])
        except Exception:
            traceback.print_exc()
        report = out.getvalue()
        lines = [m for m in map(_REPORT_LINE.match, report.splitlines()) if m]
        checks = [m for m in lines if m.group(1) != "overall"]
        digests = [hashlib.sha256(m.string.encode()).hexdigest() for m in checks]
        missing = len(acceptance.CHECK_NAMES) - len(checks)
        digests += [None] * max(0, missing)
        runs = _INSTRUMENTED.search(report)
        return PassResult(
            digests=digests,
            failed=sum(m.group(2) == "FAIL" for m in checks) + max(0, missing),
            fingerprint=hashlib.sha256(report.encode()).hexdigest(),
            trials=int(runs.group(1)) if runs else 0,
        )

    def replay(self, result: PassResult, seed: int) -> tuple[int, int, int]:
        return 0, 0, 0  # the traced pass reruns the whole report instead


def trial_overhead(seed: int, smoke: bool) -> BatchWorkload:
    # timeopt-exact-vs-montecarlo's shape: n=2 trials are almost all fixed cost
    rows = [(TIMEOPT, 2, 1000, 40, BST, RANDOM, False)]
    return BatchWorkload(_batches(seed, 1, rows, smoke))


def kernel_loops(seed: int, smoke: bool) -> BatchWorkload:
    # sizes where each bit kernel's loop dominates its fixed cost
    rows = [
        (FLIP, 12, 30, 10, BST, ZEROS, False),
        (TIMEOPT, 256, 12, 10, BST, RANDOM, False),
        (FLIP, 10, 60, 10, UNIFORM, ZEROS, False),
        (TIMEOPT, 256, 3, 10, UNIFORM, RANDOM, False),
    ]
    return BatchWorkload(_batches(seed, 2, rows, smoke))


def engine_reference(seed: int, smoke: bool) -> BatchWorkload:
    # runs no kernel serves, plus flip forced through the engine
    rows = [
        (GROS, 6, 10, 10, UNIFORM, ZEROS, False),
        (TIMEOPT, 32, 2, 10, ROUND_ROBIN, RANDOM, False),
        (FLIP, 8, 15, 10, BST, ZEROS, True),
    ]
    batches = _batches(seed, 3, rows, smoke)
    # round-robin naming is deterministic from its start, so each start is
    # its own one-trial batch; starts are drawn like terminal-naming's: the
    # names of a random proper subset of {1, .., n}, sinks for the rest
    n = 8
    masks = np.random.default_rng(derive_seed(seed, 3, len(rows)))
    for index in range(2 if smoke else 12):
        mask = int(masks.integers(0, 2 ** n - 1))
        named = [b + 1 for b in range(n) if (mask >> b) & 1]
        vector = tuple(named + [0] * (n - len(named)))
        spec = TrialBatchSpec(
            protocol=GROS,
            n=n,
            trials=1,
            scheduler=ROUND_ROBIN,
            init=InitPolicy.EXPLICIT_VECTOR,
            vector=vector,
            seed=derive_seed(seed, 3, len(rows), index),
        )
        batches.append(Batch(spec))
    return BatchWorkload(batches)


WORKLOADS = {
    "trial-overhead": trial_overhead,
    "kernel-loops": kernel_loops,
    "engine-reference": engine_reference,
    "verify-fast": VerifyWorkload,
}
