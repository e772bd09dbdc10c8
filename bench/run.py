"""popcountlab benchmark: one workload, timed untraced, then traced once.

    python3 bench/run.py --workload kernel-loops --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`.  The run measures set-up time in fresh interpreters,
repeats untraced passes of the workload for about --seconds (at least two)
while sampling the host's speed, then makes one traced pass and replays a
sample of trials on the other simulation path.  Times are reported at a
fixed reference speed (see at_reference_speed).
Every pass is fingerprinted, and any mismatch counts as a failed operation.

The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is the
full report (environment, fingerprints and both metric sets).  See
bench/README.md for the metric table.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("trial-overhead", "kernel-loops", "engine-reference", "verify-fast")

# What a fresh interpreter does before its first trial is ready.
SETUP_CHILD = """\
import popcountlab
from popcountlab.experiments import InitPolicy, TrialBatchSpec, run_trial
spec = TrialBatchSpec(protocol=popcountlab.ProtocolId.TIME_OPT, n=2, trials=1,
                      init=InitPolicy.UNIFORM_RANDOM_MARKS)
run_trial(spec, 0)
print("ready", flush=True)
"""
SETUP_REPEATS = 7
# The calibration loop's iterations, and its time on the host where the
# benchmark was written (2-core x86-64 VM, Python 3.11), at that host's
# fast level.  Timed figures are scaled to this speed; see at_reference_speed.
CALIBRATION_ITERATIONS = 5000
CALIBRATION_REF_S = 0.003
SAMPLE_INTERVAL_S = 0.05


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for testing the benchmark"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import popcountlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "popcountlab" / "__init__.py").is_file():
        sys.exit(f"bench: no popcountlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import popcountlab

    if Path(popcountlab.__file__).resolve().parent != SRC / "popcountlab":
        sys.exit(f"bench: imported popcountlab from {popcountlab.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ, POPCOUNT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def calibration_time() -> float:
    """Seconds one run of the calibration loop takes now.  The loop is a
    fixed piece of pure-Python work that does not touch popcountlab."""
    start = perf_counter()
    x, counts = 1, [0] * 33
    for _ in range(CALIBRATION_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        counts[bin(x).count("1")] += 1
    return perf_counter() - start


def at_reference_speed(seconds: float, calibrations: list[float]) -> float:
    """`seconds` of work, as it would take on a host where the calibration
    loop takes CALIBRATION_REF_S, from loop times taken around it.

    On a shared host the CPU speed drifts by up to 1.7x within minutes, and
    the calibration loop slows with it, so the drift cancels out.
    """
    return seconds * statistics.mean(CALIBRATION_REF_S / c for c in calibrations)


def timed_pass(workload):
    """One untraced pass: (its result, seconds as measured, seconds at the
    reference speed).

    The calibration loop runs just before and after the pass, and every
    SAMPLE_INTERVAL_S during it from a SIGALRM handler; the time of the
    loops inside the pass is taken out of the measured time.
    """
    samples = [calibration_time()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(calibration_time()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf_counter()
    try:
        result = workload.run_pass()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start - sum(samples[1:])
    samples.append(calibration_time())
    return result, wall, at_reference_speed(wall, samples)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to its first trial done:
    (as measured, at the reference speed from calibrations just before and
    after)."""
    times, scaled_times = [], []
    for _ in range(repeats):
        before = calibration_time()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up child failed (exit {code})")
        times.append(elapsed)
        scaled_times.append(at_reference_speed(elapsed, [before, calibration_time()]))
    return times, scaled_times


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, inherited_threads, verify_seed) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "verify_seed": verify_seed,
        "workers": 1,
        "inherited_POPCOUNT_THREADS": inherited_threads,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def timed_passes(workload, seconds: float):
    """Untraced passes until the next one would end after `seconds`; at
    least two.  Returns the results, the pass times as measured and the
    pass times at the reference speed."""
    results, walls, scaled_walls = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        result, wall, scaled_wall = timed_pass(workload)
        if results:
            result.records = None  # only the first pass's records are replayed
        results.append(result)
        walls.append(wall)
        scaled_walls.append(scaled_wall)
        if len(results) >= 2 and perf_counter() - start + (perf_counter() - t0) > seconds:
            return results, walls, scaled_walls


def compare(reference, result) -> int:
    """Operations of `result` that failed or differ from `reference`."""
    differ = sum(
        d is not None and r is not None and d != r
        for d, r in zip(result.digests, reference.digests)
    )
    return result.failed + differ


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_threads = os.environ.get("POPCOUNT_THREADS")
    # verify reads POPCOUNT_THREADS; the benchmark always runs one worker
    os.environ["POPCOUNT_THREADS"] = "1"
    import_package()
    import tracing
    import workloads

    setup, setup_scaled = measure_setup(1 if args.smoke else SETUP_REPEATS)
    factory = workloads.WORKLOADS[args.workload]
    workload = factory(args.seed, args.smoke)
    env = environment(args, inherited_threads, workload.verify_seed)
    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))

    with workload.prepared():
        results, walls, scaled_walls = timed_passes(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        inst = tracing.Instrumentation()
        t0 = perf_counter()
        with inst.patched():
            traced = workload.run_pass()
        traced_wall = perf_counter() - t0
    first_phase_mismatches = inst.count_first_phases()
    replay_attempted, replay_failed, replayed = workload.replay(results[0], args.seed)

    reference = results[0]
    attempted = sum(len(r.digests) for r in results) + len(traced.digests)
    failed = sum(compare(reference, r) for r in results) + compare(reference, traced)
    attempted += replay_attempted + bool(inst.tracer.calls["kernels.first_phase"])
    failed += replay_failed + bool(first_phase_mismatches)

    pool_speedup = 0.0
    wall = statistics.median(scaled_walls)
    measured_wall = statistics.median(walls)
    if args.trace and args.workload == "trial-overhead":
        pool_speedup, same = workload.pool_speedup()
        attempted += 1
        failed += not same

    work = inst.tracer.work
    interactions = sum(w["interactions"] for w in work.values())
    bst_events = sum(w["bst_events"] for w in work.values())
    end_to_end = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (wall, "s"),
        "trials_per_s": (reference.trials / wall, "1/s"),
        "interactions_per_s": (interactions / wall, "1/s"),
        "bst_events_per_s": (bst_events / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = tracing.layer_metrics(inst.tracer, traced_wall)
    per_layer["experiments.pool_speedup_2w"] = (pool_speedup, "ratio")
    per_layer["trace_overhead_ratio"] = (traced_wall / statistics.median(walls), "ratio")

    report = {
        "env": env,
        "fingerprint": reference.fingerprint,
        "traced_fingerprint": traced.fingerprint,
        "passes": len(results),
        "pass_walls_s": walls,
        "pass_walls_scaled_s": scaled_walls,
        "measured_wall_s": measured_wall,
        "wall_scale": wall / measured_wall,
        "setup_runs_s": setup,
        "setup_runs_scaled_s": setup_scaled,
        "trials_per_pass": reference.trials,
        "interactions_per_pass": interactions,
        "replayed_trials": replayed,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44} {failed / attempted:>16.6g} ({failed}/{attempted})")
    print(f"  fingerprint {reference.fingerprint} traced {traced.fingerprint}")
    print("report " + json.dumps(report))
    chosen = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
