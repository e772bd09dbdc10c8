"""Command line behaviour: output formats, frozen oracle strings, exit
codes, and reproducibility."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from popcountlab import cli, oracle
from popcountlab.engine import StopCondition, StopKind


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOracleCommand:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--which", "flip-closed", "--n", "4"], "64/3 ~= 21.333333333333333333"),
            (["--which", "flip-recurrence", "--n", "3"], "10"),
            (
                ["--which", "harmonic", "--n", "10"],
                "7381/252 ~= 29.289682539682539683",
            ),
            (["--which", "gros-term", "--k", "12"], "3"),
            (["--which", "gros-length", "--n", "3"], "7"),
            (
                ["--which", "timeopt-exact", "--n", "2"],
                "4739/508 ~= 9.3287401574803149606",
            ),
        ],
    )
    def test_frozen_outputs(self, capsys, argv, expected):
        code, out, _ = invoke(capsys, "oracle", *argv)
        assert code == 0
        assert out == expected + "\n"

    def test_missing_operand_fails(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--which", "gros-term")
        assert code == 1 and "--k" in err
        code, _, err = invoke(capsys, "oracle", "--which", "harmonic")
        assert code == 1 and "--n" in err

    def test_out_of_range_exact_solve_fails(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--which", "timeopt-exact", "--n", "9")
        assert code == 1 and "exact solve" in err

    # the first five values are past Python's default 4300 digits by a
    # proven bound and are refused before they are computed, which would
    # take from seconds (2^(10^9) - 1: 5 s at a 449 MB peak) to far longer; the
    # flip value at n = 14000 by either route is past the limit but below
    # the bound, so it is computed and refused in one line: computing it
    # takes about a second (on a 2-core x86-64 machine), so it gets 5 s; a
    # value under the limit prints
    @pytest.mark.parametrize(
        "argv,code,stdout,seconds",
        [
            (["flip-closed", "--n", "100000"], 1, "", 2.0),
            (["flip-recurrence", "--n", "20000"], 1, "", 2.0),
            (["harmonic", "--n", "100000000"], 1, "", 2.0),
            (["gros-length", "--n", "20000"], 1, "", 2.0),
            (["gros-length", "--n", "1000000000"], 1, "", 2.0),
            (["flip-closed", "--n", "14000"], 1, "", 5.0),
            (["flip-recurrence", "--n", "14000"], 1, "", 5.0),
            (
                ["flip-closed", "--n", "10"],
                0,
                "74752/63 ~= 1186.5396825396825397\n",
                2.0,
            ),
        ],
        ids=[
            "flip-closed",
            "flip-recurrence",
            "harmonic",
            "gros-length",
            "gros-length-huge",
            "flip-closed-computed",
            "flip-recurrence-computed",
            "printed",
        ],
    )
    def test_values_past_the_digit_limit_end_at_once(self, argv, code, stdout, seconds):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        command = [sys.executable, "-m", "popcountlab", "oracle", "--which", *argv]
        started = time.perf_counter()
        result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - started < seconds
        assert (result.returncode, result.stdout) == (code, stdout)
        if code:
            assert result.stderr == (
                "popcountlab oracle: error: the value has more than 4300 digits; "
                "PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
            )

    def test_the_digit_limit_is_read_when_the_command_runs(self, capsys):
        # 2^2200 > 10^660: refused under the smallest limit, printed with
        # the limit lifted
        argv = ("oracle", "--which", "flip-recurrence", "--n", "2200")
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, "") and "more than 640 digits" in err
            sys.set_int_max_str_digits(0)
            code, out, _ = invoke(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(default)
        assert code == 0 and len(out.split("/")[0]) > 660

    def test_flip_numerator_bound_holds(self):
        for n in range(1, 40):
            value = oracle.flip_expected_closed_form(n)
            assert value.numerator >= 2 ** cli._flip_numerator_bits(n)

    def test_harmonic_denominator_bound_holds(self):
        top = 60000
        sieve = bytearray([1]) * top
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top, p)))
        for n in range(1, top, 1009):
            primes = [p for p in range(n // 2 + 1, n) if sieve[p]]
            assert math.prod(primes) >= 2 ** cli._harmonic_denominator_bits(n)
        # and through the value itself, where the bound is positive
        for n in (1000, 3000):
            value = oracle.harmonic_bound(n)
            assert value.denominator >= 2 ** cli._harmonic_denominator_bits(n) > 1


SIMULATE_ARGS = [
    "simulate",
    "--protocol",
    "flip",
    "--n",
    "4",
    "--trials",
    "50",
    "--scheduler",
    "bst",
    "--seed",
    "7",
]


SCHEMA_V1_HEAD = (
    "schema_version,command,protocol,n,p,trials,scheduler,init,seed,rng,"
    "max_interactions,converged_trials,truncated_trials"
)
SCHEMA_V1_STATS = ",".join(
    f"{prefix}_{stat}"
    for prefix in ("bst", "total", "nonnull")
    for stat in ("mean", "stddev", "se", "min", "max")
)
SCHEMA_V1_CSV = f"{SCHEMA_V1_HEAD},{SCHEMA_V1_STATS},oracle_value"

# every protocol/scheduler pairing simulate accepts
PAIRINGS = [
    ("flip", "bst"),
    ("flip", "uniform"),
    ("flip", "roundrobin"),
    ("timeopt", "bst"),
    ("timeopt", "uniform"),
    ("timeopt", "roundrobin"),
    ("gros", "adversarial"),
    ("gros", "uniform"),
    ("gros", "roundrobin"),
]
# simulate's flags in the parser's order, the order the command column uses
SIMULATE_FLAGS = [
    "--protocol", "--n", "--trials", "--scheduler", "--init", "--seed", "--format",
    "--max-interactions", "--p",
]


class TestSimulateCommand:
    def test_schema_v1_column_order(self, capsys):
        _, out, _ = invoke(capsys, *SIMULATE_ARGS)
        header = out.splitlines()[0]
        assert header == f"{SCHEMA_V1_HEAD},{SCHEMA_V1_STATS},oracle_value"
        _, raw, _ = invoke(capsys, *SIMULATE_ARGS, "--format", "json")
        (payload,) = json.loads(raw)
        # the JSON rows list oracle_value ahead of the stats
        assert ",".join(payload) == f"{SCHEMA_V1_HEAD},oracle_value,{SCHEMA_V1_STATS}"

    def test_csv_shape_and_values(self, capsys):
        code, out, _ = invoke(capsys, *SIMULATE_ARGS)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert ",".join(row) == SCHEMA_V1_CSV
        assert row["schema_version"] == "1"
        assert row["protocol"] == "flip"
        assert row["rng"] == "numpy-pcg64"
        assert int(row["converged_trials"]) + int(row["truncated_trials"]) == 50
        assert row["oracle_value"] == "64/3"

    def test_csv_floats_round_trip_through_repr(self, capsys):
        _, out, _ = invoke(capsys, *SIMULATE_ARGS)
        row = next(csv.DictReader(io.StringIO(out)))
        _, raw, _ = invoke(capsys, *SIMULATE_ARGS, "--format", "json")
        (payload,) = json.loads(raw)
        for field in ("bst_mean", "bst_stddev", "bst_se", "total_mean"):
            assert float(row[field]) == float(payload[field])

    def test_csv_reserializes_byte_identically(self, capsys):
        _, out, _ = invoke(capsys, *SIMULATE_ARGS)
        rows = list(csv.DictReader(io.StringIO(out)))
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=SCHEMA_V1_CSV.split(","), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
        assert buffer.getvalue() == out

    # flags in another order than the parser's, and every optional one
    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["--format", fmt, "--scheduler", scheduler, "--protocol", protocol]
                for protocol, scheduler in PAIRINGS
                for fmt in ("csv", "json")
            ),
            ["--init", "vector=1,0,1,1", "--protocol", "flip"],
            ["--protocol", "timeopt", "--init", "vector=0,1,1,0", "--format", "json"],
            ["--p", "9", "--protocol", "gros", "--scheduler", "uniform"],
            ["--max-interactions", "40", "--protocol", "flip", "--seed", "5"],
            [
                "--protocol", "gros", "--scheduler", "roundrobin", "--init", "worst",
                "--max-interactions", "3000", "--p", "6", "--format", "json",
            ],
        ],
    )
    def test_command_column_reruns_the_same_bytes(self, capsys, argv):
        code, out, err = invoke(capsys, "simulate", "--n", "4", "--trials", "3", *argv)
        assert (code, err) == (0, "")
        if "json" in argv:
            (row,) = json.loads(out)
        else:
            row = next(csv.DictReader(io.StringIO(out)))
        command = row["command"].split()
        flags = command[1::2]
        assert command[0] == "simulate"
        assert flags == sorted(flags, key=SIMULATE_FLAGS.index)
        assert set(SIMULATE_FLAGS[:7]) <= set(flags)
        assert invoke(capsys, *command) == (0, out, "")

    def test_output_is_deterministic(self, capsys):
        _, first, _ = invoke(capsys, *SIMULATE_ARGS)
        _, second, _ = invoke(capsys, *SIMULATE_ARGS)
        assert first == second

    def test_seed_changes_the_measurements(self, capsys):
        _, first, _ = invoke(capsys, *SIMULATE_ARGS)
        _, other, _ = invoke(capsys, *SIMULATE_ARGS[:-1], "8")
        assert first != other

    def test_adversarial_worst_case_is_reproducible_text(self, capsys):
        args = [
            "simulate",
            "--protocol",
            "gros",
            "--n",
            "3",
            "--scheduler",
            "adversarial",
            "--init",
            "worst",
            "--format",
            "json",
        ]
        code, out, _ = invoke(capsys, *args)
        (payload,) = json.loads(out)
        assert code == 0
        assert payload["nonnull_mean"] == "10.0"
        assert payload["oracle_value"] == "10"
        assert payload["p"] == 4

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["timeopt", "--n", "4", "--init", "zeros"],
                "161447498990645958090157576/19333150094051269159305285",
            ),
            (["flip", "--n", "6", "--init", "random"], ""),
            (
                ["gros", "--n", "4", "--scheduler", "roundrobin", "--init",
                 "vector=1,1,0,2"],
                "",
            ),
            # a bounded batch's mean covers only the trials that converged
            # within the bound (here 862 of 2000), so no oracle describes it
            (["flip", "--n", "4", "--max-interactions", "12"], ""),
            (
                ["gros", "--n", "3", "--scheduler", "adversarial", "--init",
                 "worst", "--max-interactions", "1000"],
                "",
            ),
        ],
    )
    def test_oracle_value_is_exact_for_the_start_or_empty(self, capsys, argv, expected):
        code, out, _ = invoke(
            capsys, "simulate", "--protocol", *argv, "--trials", "2000", "--format", "json"
        )
        (payload,) = json.loads(out)
        assert code == 0
        assert payload["oracle_value"] == expected
        if expected:
            gap = float(payload["bst_mean"]) - float(Fraction(expected))
            assert abs(gap) <= 4 * float(payload["bst_se"])

    @pytest.mark.parametrize("n,solved", [(5, True), (9, False)])
    def test_timeopt_oracle_value_is_solved_up_to_eight_agents(self, capsys, n, solved):
        code, out, _ = invoke(
            capsys, "simulate", "--protocol", "timeopt", "--n", str(n), "--trials", "20",
            "--format", "json",
        )
        (payload,) = json.loads(out)
        assert code == 0
        expected = str(oracle.timeopt_exact_expected(n, 0)) if solved else ""
        assert payload["oracle_value"] == expected

    def test_explicit_vector_init(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate",
            "--protocol",
            "flip",
            "--n",
            "3",
            "--init",
            "vector=1,1,1",
            "--trials",
            "5",
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["init"] == "vector=1,1,1"

    def test_incompatible_init_exits_one(self, capsys):
        code, _, err = invoke(
            capsys, "simulate", "--protocol", "flip", "--n", "3", "--init", "worst"
        )
        assert code == 1 and "naming-protocol only" in err

    def test_naming_under_bst_only_exits_one(self, capsys):
        code, _, err = invoke(capsys, "simulate", "--protocol", "gros", "--n", "12")
        assert code == 1 and "pairs mobiles" in err

    def test_unparseable_inits_exit_one(self, capsys):
        for init in ("vector=1,a", "bogus"):
            code, _, err = invoke(
                capsys, "simulate", "--protocol", "flip", "--n", "3", "--init", init
            )
            assert code == 1 and "error" in err

    def test_name_space_overflow_exits_one(self, capsys):
        code, _, err = invoke(
            capsys,
            "simulate",
            "--protocol",
            "gros",
            "--n",
            "4",
            "--p",
            "3",
            "--scheduler",
            "adversarial",
        )
        assert code == 1 and "bound" in err

    def test_worst_start_outside_the_bound_exits_one(self, capsys):
        code, _, err = invoke(
            capsys,
            "simulate",
            "--protocol",
            "gros",
            "--n",
            "5",
            "--p",
            "3",
            "--scheduler",
            "adversarial",
            "--init",
            "worst",
        )
        assert code == 1 and "outside" in err

    def test_fully_truncated_batch_exits_two(self, capsys):
        code, _, err = invoke(
            capsys,
            "simulate",
            "--protocol",
            "flip",
            "--n",
            "8",
            "--trials",
            "2",
            "--max-interactions",
            "3",
        )
        assert code == 2 and "converged" in err

    @pytest.mark.parametrize("scheduler", ["roundrobin", "uniform", "adversarial"])
    def test_bounded_naming_run_at_large_n_ends_at_once(self, scheduler):
        # a bounded run costs what its bound allows, whatever n: the
        # round-robin pairs are worked out from their slots, never from
        # the cycle's 5 * 10^11 pairs.  The address-space limit makes a
        # run that builds the cycle fail at once rather than fill memory
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        command = [
            sys.executable, "-m", "popcountlab", "simulate", "--protocol", "gros",
            "--scheduler", scheduler, "--n", "1000000", "--max-interactions", "5",
        ]
        started = time.perf_counter()
        result = subprocess.run(
            command, capture_output=True, text=True, preexec_fn=limit, timeout=60
        )
        assert time.perf_counter() - started < 2
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.count("\n") == 1 and "converged" in result.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batch_too_large_to_allocate_exits_one(self, capsys, monkeypatch, threads):
        # 7 int16 rows of 10^14 trials pass any 64-bit address space, so
        # the columns' allocation fails at once, before any trial runs
        monkeypatch.setenv("POPCOUNT_THREADS", threads)
        code, out, err = invoke(
            capsys,
            "simulate",
            "--protocol",
            "timeopt",
            "--n",
            "2",
            "--trials",
            str(10**14),
        )
        assert code == 1 and out == ""
        assert err.startswith("popcountlab simulate: error: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            # a list of 2^62 agents or name counts is refused at once,
            # before anything is allocated, by a MemoryError with no text
            (
                ["--protocol", "flip", "--n", str(2**62), "--max-interactions", "5"],
                f"out of memory at n = {2**62}",
            ),
            (
                ["--protocol", "gros", "--scheduler", "uniform", "--n", "4",
                 "--p", str(2**62)],
                f"out of memory at n = 4, p = {2**62}",
            ),
            # past sys.maxsize no list length is possible at all
            (
                ["--protocol", "flip", "--n", str(10**20), "--max-interactions", "5"],
                f"n = {10**20} is past the list size limit, {sys.maxsize}",
            ),
            (
                ["--protocol", "gros", "--scheduler", "uniform", "--n", "4",
                 "--p", str(10**20)],
                f"the name bound p = {10**20} is past the list size limit, {sys.maxsize}",
            ),
        ],
        ids=["n-2^62", "p-2^62", "n-10^20", "p-10^20"],
    )
    def test_population_or_name_bound_too_large_to_hold_exits_one(
        self, capsys, argv, message
    ):
        started = time.perf_counter()
        code, out, err = invoke(capsys, "simulate", *argv)
        assert time.perf_counter() - started < 2
        assert code == 1 and out == ""
        assert err == f"popcountlab simulate: error: {message}\n"

    @pytest.mark.parametrize(
        "protocol,scheduler,stop",
        [
            ("gros", "adversarial", StopCondition(StopKind.COUNT_REACHES_N, 500)),
            ("flip", "bst", StopCondition(StopKind.COUNT_REACHES_N, 500)),
            ("timeopt", "uniform", StopCondition(StopKind.COUNT_REACHES_N, 500)),
            ("flip", "bst", None),
        ],
    )
    def test_max_interactions_sets_the_protocol_stop(
        self, capsys, monkeypatch, protocol, scheduler, stop
    ):
        specs = []
        real_run_batch = cli.run_batch

        def spy(spec):
            specs.append(spec)
            return real_run_batch(spec)

        monkeypatch.setattr(cli, "run_batch", spy)
        argv = ["simulate", "--protocol", protocol, "--n", "2"]
        argv += ["--scheduler", scheduler]
        if stop is not None:
            argv += ["--max-interactions", str(stop.bound)]
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        assert [spec.stop for spec in specs] == [stop]

    def test_max_interactions_echoes_in_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate",
            "--protocol",
            "flip",
            "--n",
            "2",
            "--trials",
            "20",
            "--max-interactions",
            "500",
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["max_interactions"] == "500"


class TestEnvironmentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "flip", "--n", "2"],
            ["verify", "--level", "fast"],
        ],
    )
    def test_bad_thread_count_exits_one(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("POPCOUNT_THREADS", "abc")
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "POPCOUNT_THREADS" in err and "'abc'" in err
        assert "Traceback" not in err


class TestArgumentErrors:
    def test_bad_flag_values_exit_one(self):
        for argv in (
            ["simulate", "--protocol", "nope", "--n", "2"],
            ["simulate", "--protocol", "flip", "--n", "0"],
            ["simulate", "--protocol", "flip", "--n", "2", "--seed", str(2 ** 64)],
            ["verify", "--level", "bogus"],
            ["nosuch"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1

    @pytest.mark.parametrize("scheduler", ["bst", "uniform", "roundrobin"])
    def test_flip_above_63_agents_exits_one(self, capsys, scheduler):
        # from random marks a run could last its whole 64 * 2^65 budget
        code, out, err = invoke(
            capsys, "simulate", "--protocol", "flip", "--scheduler", scheduler,
            "--n", "64", "--init", "random",
        )
        assert code == 1 and out == ""
        assert "n > 63" in err and "--max-interactions" in err and "2^65" in err
        assert "Traceback" not in err

    def test_flip_above_63_agents_runs_with_a_bound_under_bst(self, capsys):
        # the count rises by at most one a meeting, so 50 meetings cannot
        # reach 64: the trial is truncated (exit 2), with no hang
        code, out, err = invoke(
            capsys, "simulate", "--protocol", "flip", "--n", "64",
            "--max-interactions", "50",
        )
        assert code == 2 and out == ""
        assert "none of the 1 trials converged" in err

    def test_roundrobin_flip_above_63_agents_runs_with_a_bound(self, capsys):
        # from zeros the cycle's first 64 meetings converge; from random
        # marks every trial reaches the bound (exit 2), with no hang
        argv = ("simulate", "--protocol", "flip", "--scheduler", "roundrobin",
                "--n", "64", "--trials", "2", "--max-interactions", "1000")
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[11:17] == ["2", "0", "64.0", "0.0", "0.0", "64"]
        code, out, err = invoke(capsys, *argv, "--init", "random")
        assert code == 2 and "none of the 2 trials converged" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "--protocol", "flip", "--n", "2", "--seed", "abc"], "--seed"),
            (["simulate", "--protocol", "flip", "--n", "2", "--trials", "abc"], "--trials"),
            (["simulate", "--protocol", "flip", "--n", "abc"], "--n"),
            (["verify", "--seed", "abc"], "--seed"),
        ],
    )
    def test_non_integer_values_say_so(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer, got 'abc'" in err

    def test_format_exact_renders_integers_bare(self):
        assert cli.format_exact(Fraction(10)) == "10"
        assert cli.format_exact(Fraction(1, 2)) == "1/2 ~= 0.5"
