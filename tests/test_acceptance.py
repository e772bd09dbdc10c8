"""The acceptance gate: every headline property at full workload, plus the
byte-determinism of the verification report.

Each criterion prints one PASS/FAIL line on the terminal (bypassing
capture) so a test run doubles as a readable report.
"""

import dataclasses
import hashlib
import re
import subprocess
import sys

import pytest

from popcountlab import acceptance, cli, kernels, oracle
from popcountlab.engine import InvariantViolation
from popcountlab.experiments import (
    AllTrialsTruncated,
    exact_mean,
    run_batch,
    subset_start,
    sweep_n,
    sweep_worst_unnamed,
    worst_unnamed_start,
)
from popcountlab.protocols import ProtocolId

SEED = 42
LEVEL = "full"
# sha256 of `popcountlab verify --level fast --seed 3` stdout: a change that
# keeps the simulated results must keep the report byte for byte
FAST_SEED3_REPORT_SHA256 = (
    "acd947d2dc71ab8f0dc3f5b1ce2360f97cd51f3411ed14ca59454921f424f33b"
)
# sha256 of `popcountlab verify --level fast --seed 42` stdout
FAST_SEED42_REPORT_SHA256 = (
    "41f00f4dc26e9002a8ed1bddff02c544db65a4330347ceb19e2653d6f905b0bb"
)
# sha256 of `popcountlab verify --level full --seed 42` stdout, the report
# of the results below
FULL_SEED42_REPORT_SHA256 = (
    "ea6dd847cc30eb5e5598e96c87d3c90a66b9404ffbe5885ef217d3e8c25feabb"
)


@pytest.fixture(scope="module")
def results():
    by_name = {r.name: r for r in acceptance.run_all(LEVEL, SEED)}
    assert set(by_name) == set(acceptance.CHECK_NAMES)
    return by_name


def _report(capsys, name, passed, detail):
    with capsys.disabled():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")


@pytest.mark.parametrize("name", acceptance.CHECK_NAMES)
def test_criterion(results, capsys, name):
    result = results[name]
    _report(capsys, name, result.passed, result.detail)
    assert result.passed, f"{name}: {result.detail}"


def test_full_report_is_pinned(results):
    ordered = [results[name] for name in acceptance.CHECK_NAMES]
    report = acceptance.format_report(ordered, LEVEL, SEED)
    assert hashlib.sha256(report.encode()).hexdigest() == FULL_SEED42_REPORT_SHA256


def test_verification_report_is_deterministic(capsys):
    argv = [sys.executable, "-m", "popcountlab", "verify", "--level", "fast", "--seed", "3"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    passed = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith("acceptance checks  level=fast  seed=3\n")
        and first.stdout.count("PASS") == len(acceptance.CHECK_NAMES) + 1
    )
    _report(
        capsys,
        "report-determinism",
        passed,
        "two seeded verify runs produced byte-identical passing reports",
    )
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.count("PASS") == len(acceptance.CHECK_NAMES) + 1
    digest = hashlib.sha256(first.stdout.encode()).hexdigest()
    assert digest == FAST_SEED3_REPORT_SHA256


def test_expected_means_come_from_exact_mean(monkeypatch):
    # the report's expected means follow one rule, the one behind the CSV's
    # oracle_value: exact_mean of the very spec the check runs
    ran, expected = [], []

    def spy_run_batch(spec):
        ran.append(spec)
        return run_batch(spec)

    def spy_exact_mean(spec):
        expected.append((spec, exact_mean(spec)))
        return expected[-1][1]

    monkeypatch.setattr(acceptance, "run_batch", spy_run_batch)
    monkeypatch.setattr(acceptance, "exact_mean", spy_exact_mean)
    report = acceptance.format_report(acceptance.run_all("fast", SEED), "fast", SEED)
    assert hashlib.sha256(report.encode()).hexdigest() == FAST_SEED42_REPORT_SHA256
    params = acceptance.PARAMS["fast"]
    assert len(ran) == len(params.flip_ns) + len(params.exact_ns)
    assert [spec for spec, _ in expected] == ran
    # and exact_mean picked the oracle each check means
    for spec, value in expected:
        if spec.protocol is ProtocolId.FLIP:
            assert value == oracle.flip_expected_recurrence(spec.n)
        else:
            assert value == oracle.timeopt_exact_expected(spec.n)


# every check still runs, at sizes that take a second or two
TINY = dataclasses.replace(
    acceptance.PARAMS["fast"],
    identity_max_n=4,
    flip_ns=(2,),
    flip_trials_small=50,
    flip_trials_large=50,
    timeopt_ns=(8, 16),
    timeopt_trials=20,
    harmonic_ns=(16,),
    allflip_ns=(2,),
    allflip_trials=100,
    exact_ns=(1,),
    exact_trials=100,
    gros_ns=(2, 3),
    sequence_expansion_depth=3,
    sequence_length_max=4,
    sequence_prefix_max=3,
)


@pytest.mark.parametrize(
    "error,tally",
    [(AllTrialsTruncated, "2 truncated batches"), (InvariantViolation, "2 violations")],
    ids=["AllTrialsTruncated", "InvariantViolation"],
)
def test_a_run_that_raises_fails_its_check(monkeypatch, error, tally):
    monkeypatch.setitem(acceptance.PARAMS, "tiny", TINY)
    clean = {r.name: r for r in acceptance.run_all("tiny", 1)}
    assert clean["run-invariants"].passed

    def raising(spec):
        raise error("planted")

    monkeypatch.setattr(acceptance, "run_batch", raising)
    results = acceptance.run_all("tiny", 1)
    assert [r.name for r in results] == list(acceptance.CHECK_NAMES)
    failed = {r.name: r for r in results if r != clean[r.name]}
    assert {name: (r.passed, r.detail) for name, r in failed.items()} == {
        "flip-mean-vs-exact": (False, "flip n=2: planted"),
        "timeopt-exact-vs-montecarlo": (False, "exact-vs-mc n=1: planted"),
        "run-invariants": (False, f"{tally}, first: flip n=2: planted"),
    }


def test_a_first_phase_past_its_bound_fails_its_check(monkeypatch, capsys):
    # with the bound cut to n meetings every first phase outlives it: an
    # invariant violation, which verify reports on the allflip line
    monkeypatch.setitem(acceptance.PARAMS, "tiny", TINY)
    monkeypatch.setattr(kernels, "_first_phase_length", lambda n: n)
    assert cli.main(["verify", "--level", "tiny", "--seed", "1"]) == 1
    detail = "first phase n=2: first phase still running after 2 meetings"
    assert re.search(
        f"^allflip-probability +FAIL +{detail}$", capsys.readouterr().out, re.M
    )


def test_naming_sequence_lengths_follow_the_recurrence(monkeypatch):
    # the check derives L_m = 2 L_(m-1) + 1 itself, so an oracle that goes
    # wrong only past the depths it expands still fails
    true_length = oracle.gros_length
    monkeypatch.setattr(oracle, "gros_length", lambda d: true_length(d) + (d >= 20))
    params = acceptance.PARAMS[LEVEL]
    passed, detail = acceptance._check_naming_sequence(params, SEED, None, {})
    assert (passed, detail) == (False, "length mismatch at depth 20")


def _tiny_run(monkeypatch, params):
    monkeypatch.setitem(acceptance.PARAMS, "tiny", params)
    return {r.name: r for r in acceptance.run_all("tiny", 1)}


def _truncated_at_16(base, n_values):
    return [
        (n, dataclasses.replace(s, truncated=1) if n == 16 else s)
        for n, s in sweep_n(base, n_values)
    ]


def _above_range_at_3(n):
    sweep = sweep_worst_unnamed(n)
    return dataclasses.replace(sweep, worst_non_null=2 ** (n + 1) + 1) if n == 3 else sweep


# Each plant makes one reference wrong, and only the check that reads it
# fails, with its own detail: (params, attribute owner, name, stand-in,
# check, detail)
_PLANTS = {
    "recurrence off by one at n=3": (
        TINY, oracle, "flip_expected_recurrence",
        lambda n, true=oracle.flip_expected_recurrence: true(n) + (n == 3),
        "oracle-identity", "closed form and recurrence differ at n=3",
    ),
    "truncated sweep": (
        TINY, acceptance, "sweep_n", _truncated_at_16,
        "timeopt-convergence-scaling", "truncated=1, doubling ratios [2.40]",
    ),
    "count above 2^(n+1)": (
        TINY, acceptance, "sweep_worst_unnamed", _above_range_at_3,
        "adversarial-worst-case-range", "worst run outside range at n in [3]",
    ),
    # the all-sink start at n = 4 makes 13 non-null transitions, below 2^4 - 1
    "spot run below 2^n - 1": (
        dataclasses.replace(TINY, gros_spot_ns=(4,)), acceptance, "worst_unnamed_start",
        lambda n: subset_start(n, 0) if n == 4 else worst_unnamed_start(n),
        "adversarial-worst-case-range", "worst run outside range at n in [4]",
    ),
    "wrong term": (
        TINY, oracle, "gros_term",
        lambda k, true=oracle.gros_term: true(k) + (k == 5),
        "naming-sequence", "ruler term 5 mismatch",
    ),
    # below the expansion depth 3, so the term check still passes
    "wrong length": (
        TINY, oracle, "gros_sequence",
        lambda d, true=oracle.gros_sequence: true(d) + [1] * (d == 1),
        "naming-sequence", "expansion length mismatch at 1",
    ),
    "wrong multiplicity": (
        TINY, oracle, "gros_sequence",
        lambda d, true=oracle.gros_sequence: [1, 2, 2] if d == 2 else true(d),
        "naming-sequence", "name 1 multiplicity wrong at depth 2",
    ),
    "broken silence": (
        TINY, acceptance, "_silence_broken", lambda names: True,
        "terminal-naming", "run from [0, 0] ended with names [1, 2]",
    ),
}


@pytest.mark.parametrize(
    "params,owner,attr,stand_in,name,detail", _PLANTS.values(), ids=list(_PLANTS)
)
def test_a_wrong_reference_fails_its_check_alone(
    monkeypatch, params, owner, attr, stand_in, name, detail
):
    clean = _tiny_run(monkeypatch, params)
    assert all(r.passed for r in clean.values())
    monkeypatch.setattr(owner, attr, stand_in)
    failed = {
        n: (r.passed, r.detail)
        for n, r in _tiny_run(monkeypatch, params).items()
        if r != clean[n]
    }
    assert failed == {name: (False, detail)}


def test_the_floor_check_fails_without_sweep_data():
    # the scaling check leaves no summaries when its sweep raises
    assert acceptance._check_harmonic_floor(TINY, 1, None, {}) == (
        False, "no sweep data (see scaling check)"
    )


def test_an_unknown_level_is_refused():
    with pytest.raises(ValueError) as caught:
        acceptance.run_all("nope", 1)
    assert str(caught.value) == "unknown level 'nope', pick one of ['fast', 'full']"
