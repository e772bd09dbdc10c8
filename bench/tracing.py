"""Per-layer tracing for the benchmark, recorded from outside the package.

The package carries no tracing of its own, so every span is taken here,
around calls into one module of popcountlab:

- a trial is rebuilt from the steps of `experiments.run_trial`
  (trial_rng -> initial_mobiles -> resolve_limits -> kernels.simulate_*, or
  initial_configuration -> make_scheduler -> engine.run), each step a span;
- the scheduler handed to `engine.run` sits behind a timing proxy, so the
  engine's self time excludes pair selection;
- the names `acceptance` imports (run_batch, sweep_n,
  estimate_allflip_probability, sweep_worst_unnamed, kernels, oracle) and
  `acceptance.run_all` and `cli.main` are swapped for timed wrappers while
  a traced pass runs, and restored afterwards.

Spans are aggregated by name as they close (calls, inclusive time, time in
child spans); a span's self time is its inclusive time minus its children.
"""

import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import log
from time import perf_counter

from popcountlab import acceptance, cli, engine, experiments, kernels, oracle, schedulers
from popcountlab.acceptance import run_all
from popcountlab.cli import main
from popcountlab.engine import StopKind
from popcountlab.experiments import (
    estimate_allflip_probability,
    initial_mobiles,
    run_batch,
    summarize,
    sweep_n,
    sweep_worst_unnamed,
    trial_rng,
)
from popcountlab.protocols import ProtocolId
from popcountlab.schedulers import SchedulerKind

_P, _S = ProtocolId, SchedulerKind
BIT_KERNELS = {
    (_P.FLIP, _S.BST_ONLY): ("flip_bst", kernels.simulate_flip_bst),
    (_P.TIME_OPT, _S.BST_ONLY): ("timeopt_bst", kernels.simulate_timeopt_bst),
    (_P.FLIP, _S.UNIFORM_PAIR): ("flip_uniform", kernels.simulate_flip_uniform),
    (_P.TIME_OPT, _S.UNIFORM_PAIR): ("timeopt_uniform", kernels.simulate_timeopt_uniform),
}
KERNEL_NAMES = tuple(name for name, _ in BIT_KERNELS.values())
ACCEPTANCE_STEPS = ("run_batch", "sweep_n", "allflip", "sweep_worst_unnamed", "gros_spot")


class Tracer:
    """Nested spans aggregated by name, plus work counters per name."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.work = defaultdict(Counter)
        self._open: list[float] = []  # child time of each open span

    def call(self, name, fn, *args, **kwargs):
        self._open.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.calls[name] += 1
            self.total[name] += elapsed
            self.child[name] += self._open.pop()
            if self._open:
                self._open[-1] += elapsed

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_s(self, name) -> float:
        return self.total[name] - self.child[name]

    def mean_us(self, name) -> float:
        calls = self.calls[name]
        return self.total[name] / calls * 1e6 if calls else 0.0

    def rate(self, name, counter) -> float:
        elapsed = self.total[name]
        return self.work[name][counter] / elapsed if elapsed else 0.0


class TimedScheduler:
    """Scheduler proxy: every next_pair is a child span of engine.run."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.kind = inner.kind
        self._call = tracer.call

    def next_pair(self, config):
        return self._call("schedulers.next_pair", self.inner.next_pair, config)


class _RecordingRng:
    """Hands out the wrapped generator's draws and keeps them for replay."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def random(self, size=None):
        values = self._rng.random(size)
        self.draws.append(values)
        return values


def first_phase_meetings(n: int, draws) -> tuple[int, bool]:
    """Meetings a first phase used, counted on its recorded draws.

    The first-phase kernel returns only its verdict; this recount follows
    the phased rule over the same doubles (index = floor(u * n), converted
    agents taken as indices 0..ones-1) and also returns the verdict so the
    two can be compared.
    """
    ones = cnt = meetings = 0
    for block in draws:
        for u in block.tolist():
            meetings += 1
            if int(u * n) < ones:
                threshold = 6.0 if ones < 2 else 6.0 * (ones * log(ones) + 1.0)
                if cnt >= threshold:
                    return meetings, ones == n
                cnt += 1
            else:
                cnt = 0
                ones += 1
    raise ValueError(f"first phase at n={n} did not end within its recorded draws")


class _KernelsView:
    """`kernels` as one caller sees it: some functions replaced."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(kernels, name)


class _OracleView:
    """`oracle` with every function call counted as an `oracle` span."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(oracle, name)
        if inspect.isfunction(value):
            return self._tracer.wrap("oracle", value)
        return value


class Instrumentation:
    """One traced pass: a Tracer and the wrappers that feed it."""

    def __init__(self):
        self.tracer = Tracer()
        self.first_phases = []  # (n, recorded draws, kernel verdict)

    # -- the decomposed trial ------------------------------------------------

    def trial(self, spec, index, force_engine=False):
        """experiments.run_trial, rebuilt from its steps with a span on each."""
        call = self.tracer.call
        rng = call("experiments.trial_rng", trial_rng, spec.seed, index)
        mobiles = call("experiments.initial_mobiles", initial_mobiles, spec, rng)
        stop = spec.resolved_stop()
        protocol = spec.protocol
        if not force_engine and stop.kind is not StopKind.MAX_INTERACTIONS:
            limits = call(
                "experiments.resolve_limits",
                engine.resolve_limits,
                protocol,
                spec.n,
                stop,
            )[:2]
            if protocol is ProtocolId.GROS_NAMING:
                if spec.scheduler is SchedulerKind.WEAK_ADVERSARIAL:
                    record, _ = self.gros_adversarial(
                        mobiles, spec.resolved_bound, *limits, spec.check_invariants
                    )
                    return record
            elif (protocol, spec.scheduler) in BIT_KERNELS:
                name, kernel = BIT_KERNELS[protocol, spec.scheduler]
                record = call(
                    f"kernels.{name}",
                    kernel,
                    spec.n,
                    mobiles,
                    rng,
                    *limits,
                    spec.check_invariants,
                )
                self._count(f"kernels.{name}", record)
                return record
        bound = spec.resolved_bound if protocol is ProtocolId.GROS_NAMING else None
        config = engine.initial_configuration(protocol, mobiles, bound=bound)
        scheduler = TimedScheduler(
            schedulers.make_scheduler(spec.scheduler, rng), self.tracer
        )
        _, record = call(
            "engine.run", engine.run, protocol, scheduler, config, stop,
            spec.check_invariants,
        )
        self._count("engine.run", record)
        return record

    def _count(self, name, record):
        work = self.tracer.work[name]
        work["interactions"] += record.total_interactions
        work["bst_events"] += record.bst_interactions
        work["transitions"] += record.non_null_transitions

    # -- kernels reached outside run_trial -----------------------------------

    def gros_adversarial(self, *args, **kwargs):
        result = self.tracer.call(
            "kernels.gros_adversarial",
            kernels.simulate_gros_adversarial,
            *args,
            **kwargs,
        )
        self._count("kernels.gros_adversarial", result[0])
        return result

    def first_phase(self, n, rng, *args, **kwargs):
        recording = _RecordingRng(rng)
        verdict = self.tracer.call(
            "kernels.first_phase",
            kernels.simulate_timeopt_first_phase,
            n,
            recording,
            *args,
            **kwargs,
        )
        self.first_phases.append((n, recording.draws, verdict))
        return verdict

    def count_first_phases(self) -> int:
        """Recount the recorded first phases; returns how many disagreed
        with the kernel's verdict."""
        mismatches = 0
        work = self.tracer.work["kernels.first_phase"]
        for n, draws, verdict in self.first_phases:
            meetings, recount = first_phase_meetings(n, draws)
            work["interactions"] += meetings
            work["bst_events"] += meetings
            mismatches += recount != verdict
        self.first_phases.clear()
        return mismatches

    # -- patching --------------------------------------------------------------

    @contextmanager
    def patched(self):
        """Route the package's own calls through the wrappers while active."""
        wrap = self.tracer.wrap
        swaps = [
            (experiments, "run_trial", self.trial),
            (experiments, "trial_rng", wrap("experiments.trial_rng", trial_rng)),
            (experiments, "summarize", wrap("experiments.summarize", summarize)),
            (
                experiments,
                "kernels",
                _KernelsView(
                    simulate_gros_adversarial=self.gros_adversarial,
                    simulate_timeopt_first_phase=self.first_phase,
                ),
            ),
            (
                acceptance,
                "kernels",
                _KernelsView(
                    simulate_gros_adversarial=wrap(
                        "acceptance.gros_spot", self.gros_adversarial
                    )
                ),
            ),
            (acceptance, "oracle", _OracleView(self.tracer)),
            (acceptance, "run_batch", wrap("acceptance.run_batch", run_batch)),
            (acceptance, "sweep_n", wrap("acceptance.sweep_n", sweep_n)),
            (
                acceptance,
                "estimate_allflip_probability",
                wrap("acceptance.allflip", estimate_allflip_probability),
            ),
            (
                acceptance,
                "sweep_worst_unnamed",
                wrap("acceptance.sweep_worst_unnamed", sweep_worst_unnamed),
            ),
            (acceptance, "run_all", wrap("acceptance.run_all", run_all)),
            (cli, "main", wrap("cli.main", main)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
        try:
            for module, name, value in swaps:
                setattr(module, name, value)
            yield self
        finally:
            for module, name, value in saved:
                setattr(module, name, value)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Layers the pass never entered read 0.
    """
    t = tracer
    steps = (
        "experiments.trial_rng",
        "experiments.initial_mobiles",
        "experiments.resolve_limits",
    )
    experiments_s = sum(t.total[s] for s in (*steps, "experiments.summarize"))
    out = {
        "experiments.trial_rng_us": (t.mean_us(steps[0]), "us"),
        "experiments.initial_mobiles_us": (t.mean_us(steps[1]), "us"),
        "experiments.resolve_limits_us": (t.mean_us(steps[2]), "us"),
        "experiments.fixed_cost_us": (sum(map(t.mean_us, steps)), "us"),
        "experiments.summarize_ms": (t.mean_us("experiments.summarize") / 1e3, "ms"),
        "experiments.self_share": (experiments_s / traced_wall_s, "ratio"),
    }
    for name in KERNEL_NAMES:
        span = f"kernels.{name}"
        out[f"{span}.interactions_per_s"] = (t.rate(span, "interactions"), "1/s")
        out[f"{span}.bst_events_per_s"] = (t.rate(span, "bst_events"), "1/s")
        out[f"{span}.calls"] = (t.calls[span], "count")
        out[f"{span}.self_s"] = (t.self_s(span), "s")
    out["kernels.gros_adversarial.transitions_per_s"] = (
        t.rate("kernels.gros_adversarial", "transitions"),
        "1/s",
    )
    out["kernels.first_phase.meetings_per_s"] = (
        t.rate("kernels.first_phase", "bst_events"),
        "1/s",
    )
    out["engine.run.interactions_per_s"] = (t.rate("engine.run", "interactions"), "1/s")
    out["engine.run.self_s"] = (t.self_s("engine.run"), "s")
    out["schedulers.next_pair_us"] = (t.mean_us("schedulers.next_pair"), "us")
    out["oracle.calls"] = (t.calls["oracle"], "count")
    out["oracle.self_s"] = (t.self_s("oracle"), "s")
    for step in ACCEPTANCE_STEPS:
        out[f"acceptance.{step}_s"] = (t.total[f"acceptance.{step}"], "s")
    out["cli.overhead_s"] = (t.total["cli.main"] - t.total["acceptance.run_all"], "s")
    return out
