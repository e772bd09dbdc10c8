"""Tests of the benchmark itself, at smoke size.

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from popcountlab import experiments  # noqa: E402
from popcountlab.engine import StopCondition, StopKind  # noqa: E402
from popcountlab.experiments import (  # noqa: E402
    InitPolicy,
    TrialBatchSpec,
    run_trial,
    trial_rng,
)
from popcountlab.protocols import ProtocolId  # noqa: E402
from popcountlab.schedulers import SchedulerKind  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402

P, S, I = ProtocolId, SchedulerKind, InitPolicy


def bench(workload: str, trace: int, **env) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True,
        env={**os.environ, **env},
    )
    *_, report, last = out.stdout.splitlines()
    return json.loads(report.removeprefix("report ")), json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric_and_repeats(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced_report, untraced = bench(workload, 0)
    traced_report, traced = bench(workload, 1)
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared[section]}
    # two runs, each with an untraced and a traced pass, give one fingerprint
    prints = {
        r[key]
        for r in (untraced_report, traced_report)
        for key in ("fingerprint", "traced_fingerprint")
    }
    assert len(prints) == 1


def test_inherited_thread_count_is_ignored():
    report, result = bench("verify-fast", 0, POPCOUNT_THREADS="abc")
    assert result["correct"]
    assert report["env"]["inherited_POPCOUNT_THREADS"] == "abc"
    assert report["env"]["workers"] == 1


BRANCHES = [
    (TrialBatchSpec(protocol=P.FLIP, n=5, trials=4), False),
    (TrialBatchSpec(protocol=P.FLIP, n=5, trials=4, scheduler=S.UNIFORM_PAIR), False),
    (TrialBatchSpec(protocol=P.TIME_OPT, n=9, trials=4, init=I.UNIFORM_RANDOM_MARKS),
     False),
    (
        TrialBatchSpec(
            protocol=P.TIME_OPT, n=9, trials=4, scheduler=S.UNIFORM_PAIR,
            init=I.UNIFORM_RANDOM_MARKS,
        ),
        False,
    ),
    (
        TrialBatchSpec(
            protocol=P.GROS_NAMING, n=5, trials=4, scheduler=S.WEAK_ADVERSARIAL,
            init=I.WORST_CASE_UNNAMED,
        ),
        False,
    ),
    (TrialBatchSpec(protocol=P.GROS_NAMING, n=4, trials=4, scheduler=S.UNIFORM_PAIR),
     False),
    (TrialBatchSpec(protocol=P.TIME_OPT, n=6, trials=4, scheduler=S.ROUND_ROBIN), False),
    (TrialBatchSpec(protocol=P.FLIP, n=5, trials=4), True),
    (
        TrialBatchSpec(
            protocol=P.TIME_OPT, n=6, trials=4,
            stop=StopCondition(StopKind.MAX_INTERACTIONS, 50),
        ),
        False,
    ),
    (
        TrialBatchSpec(
            protocol=P.FLIP, n=6, trials=4, stop=StopCondition(StopKind.COUNT_REACHES_N, 20)
        ),
        False,
    ),
]


@pytest.mark.parametrize("spec, force_engine", BRANCHES)
def test_decomposed_trial_equals_run_trial(spec, force_engine):
    inst = tracing.Instrumentation()
    for index in range(spec.trials):
        traced = inst.trial(spec, index, force_engine)
        assert vars(traced) == vars(run_trial(spec, index, force_engine))
    assert inst.tracer.calls["experiments.trial_rng"] == spec.trials


def test_first_phase_recount_matches_kernel():
    inst = tracing.Instrumentation()
    verdicts = [inst.first_phase(n, trial_rng(7, i)) for n in (1, 2, 8) for i in range(30)]
    assert inst.count_first_phases() == 0
    assert len(verdicts) == 90
    assert inst.tracer.work["kernels.first_phase"]["interactions"] > 90


class CalibrationPass:
    """A pass made of 100 runs of the calibration loop."""

    loop = staticmethod(run.calibration_time)

    def run_pass(self):
        for _ in range(100):
            self.loop()
        return "done"


def test_timed_pass_scales_to_the_reference_speed(monkeypatch):
    samples = []

    def counted():
        samples.append(CalibrationPass.loop())
        return samples[-1]

    monkeypatch.setattr(run, "calibration_time", counted)
    result, measured, scaled = run.timed_pass(CalibrationPass())
    assert result == "done" and measured > 0
    assert len(samples) > 2  # the timer sampled during the pass too
    assert scaled == pytest.approx(100 * run.CALIBRATION_REF_S, rel=0.25)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_patching_is_undone():
    before = experiments.run_trial, experiments.kernels, experiments.summarize
    with tracing.Instrumentation().patched():
        assert experiments.run_trial is not before[0]
    assert (experiments.run_trial, experiments.kernels, experiments.summarize) == before
