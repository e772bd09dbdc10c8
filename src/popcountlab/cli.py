"""Command line interface: simulate batches, query exact values, verify.

Exit codes: 0 on success, 1 for bad flags or invalid parameter combinations
(and for failed verification), 2 when a simulation batch was entirely
truncated by its interaction cap.
"""

import argparse
import csv
import io
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

from . import acceptance, oracle
from .engine import StopCondition, StopKind
from .experiments import (
    AllTrialsTruncated,
    InitPolicy,
    TrialBatchSpec,
    exact_mean,
    run_batch,
)
from .protocols import ProtocolId
from .schedulers import RNG_ALGORITHM, SchedulerKind

SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _seed(text: str) -> int:
    value = _integer(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="popcountlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    simulate = commands.add_parser("simulate", help="run a batch of seeded trials")
    simulate.add_argument(
        "--protocol", required=True, choices=[p.value for p in ProtocolId]
    )
    simulate.add_argument("--n", required=True, type=_positive, help="population size")
    simulate.add_argument("--trials", type=_positive, default=1)
    simulate.add_argument(
        "--scheduler",
        choices=[s.value for s in SchedulerKind],
        default=SchedulerKind.BST_ONLY.value,
    )
    simulate.add_argument(
        "--init",
        default=InitPolicy.ALL_ZERO.value,
        help="zeros | ones | random | worst | vector=v0,v1,...",
    )
    simulate.add_argument("--seed", type=_seed, default=0)
    simulate.add_argument("--format", choices=["csv", "json"], default="csv")
    simulate.add_argument(
        "--max-interactions",
        type=_positive,
        default=None,
        help="truncate each trial after this many interactions",
    )
    simulate.add_argument(
        "--p",
        type=_positive,
        default=None,
        help="name-space bound of the naming protocol (default n + 1)",
    )
    simulate.set_defaults(handler=cmd_simulate)

    oracle_cmd = commands.add_parser("oracle", help="print one exact reference value")
    oracle_cmd.add_argument("--which", required=True, choices=list(_ORACLES))
    oracle_cmd.add_argument("--n", type=_positive, default=None)
    oracle_cmd.add_argument("--k", type=_positive, default=None)
    oracle_cmd.set_defaults(handler=cmd_oracle)

    verify = commands.add_parser("verify", help="run the acceptance checks")
    verify.add_argument("--level", choices=sorted(acceptance.PARAMS), default="fast")
    verify.add_argument("--seed", type=_seed, default=42)
    verify.set_defaults(handler=cmd_verify)

    return parser


def _parse_init(text: str) -> tuple[InitPolicy, tuple[int, ...] | None]:
    if text.startswith("vector="):
        body = text[len("vector=") :]
        try:
            vector = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise ValueError(f"cannot parse vector {body!r}")
        return InitPolicy.EXPLICIT_VECTOR, vector
    for policy in InitPolicy:
        if policy.value == text and policy is not InitPolicy.EXPLICIT_VECTOR:
            return policy, None
    raise ValueError(f"unknown init {text!r}")


def _echo_command(args) -> str:
    """The command line that reproduces a batch: every flag that has a
    value, in the parser's order (argparse enters each flag's default into
    the namespace in that order before it parses)."""
    flags = (
        f"--{name.replace('_', '-')} {value}"
        for name, value in vars(args).items()
        if name not in ("command", "handler") and value is not None
    )
    return " ".join([args.command, *flags])


# (column prefix, Summary field) of each convergence metric
_METRICS = (
    ("bst", "bst_interactions"),
    ("total", "total_interactions"),
    ("nonnull", "non_null_transitions"),
)


def _summary_row(args, spec: TrialBatchSpec, summary) -> dict:
    """The batch's schema-v1 row in the JSON order, which has oracle_value
    ahead of the stats columns; the CSV puts it last."""
    reference = exact_mean(spec)
    row = {
        "schema_version": SCHEMA_VERSION,
        "command": _echo_command(args),
        "protocol": spec.protocol.value,
        "n": spec.n,
        "p": spec.resolved_bound if spec.protocol is ProtocolId.GROS_NAMING else "",
        "trials": spec.trials,
        "scheduler": spec.scheduler.value,
        "init": args.init,
        "seed": spec.seed,
        "rng": RNG_ALGORITHM,
        "max_interactions": args.max_interactions or "",
        "converged_trials": summary.trials,
        "truncated_trials": summary.truncated,
        "oracle_value": "" if reference is None else str(reference),
    }
    for prefix, field in _METRICS:
        stats = getattr(summary, field)
        row[f"{prefix}_mean"] = repr(stats.mean)
        row[f"{prefix}_stddev"] = repr(stats.stddev)
        row[f"{prefix}_se"] = repr(stats.standard_error)
        row[f"{prefix}_min"] = stats.min
        row[f"{prefix}_max"] = stats.max
    return row


def cmd_simulate(args) -> int:
    protocol = ProtocolId(args.protocol)
    stop = None
    if args.max_interactions is not None:
        stop = StopCondition(StopKind.COUNT_REACHES_N, args.max_interactions)
    try:
        init, vector = _parse_init(args.init)
        spec = TrialBatchSpec(
            protocol=protocol,
            n=args.n,
            trials=args.trials,
            scheduler=SchedulerKind(args.scheduler),
            init=init,
            seed=args.seed,
            vector=vector,
            bound=args.p,
            stop=stop,
        )
        result = run_batch(spec)
    except AllTrialsTruncated as exc:
        print(f"popcountlab simulate: {exc}", file=sys.stderr)
        return 2
    # MemoryError: a batch's columns too large to allocate, with numpy's
    # text, or a list of n agents or p names, with none
    except (ValueError, MemoryError) as exc:
        sizes = f"n = {args.n}" + (f", p = {args.p}" if args.p else "")
        text = str(exc) or f"out of memory at {sizes}"
        print(f"popcountlab simulate: error: {text}", file=sys.stderr)
        return 1

    row = _summary_row(args, spec, result.summary)
    if args.format == "json":
        # an array of rows, mirroring the CSV: one element per batch
        sys.stdout.write(json.dumps([row], indent=2) + "\n")
    else:
        buffer = io.StringIO()
        fields = [*(name for name in row if name != "oracle_value"), "oracle_value"]
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
        sys.stdout.write(buffer.getvalue())
    return 0


def _past_digit_limit() -> ValueError:
    return ValueError(
        f"the value has more than {sys.get_int_max_str_digits()} digits; "
        "PYTHONINTMAXSTRDIGITS=0 lifts the limit"
    )


def format_exact(value) -> str:
    """Integers print bare; other rationals as p/q ~= 20 significant digits.

    Raises ValueError for an integer past Python's int-to-text digit limit.
    """
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        with localcontext() as ctx:
            ctx.prec = 20
            approx = Decimal(value.numerator) / Decimal(value.denominator)
        return f"{value.numerator}/{value.denominator} ~= {approx}"
    except ValueError:
        raise _past_digit_limit() from None


def _flip_numerator_bits(n: int) -> int:
    """For n >= 2 the flip expectation is at least 2^n (in the form
    2^(n-1) * sum_k 1/C(n-1, k), its k = 0 and k = n - 1 terms alone give
    2^(n-1) * 2), so its numerator is too."""
    return n if n >= 2 else 0


def _harmonic_denominator_bits(n: int) -> int:
    """A lower bound on log2 of the reduced denominator of n * H_n.

    Each prime p in (n/2, n) divides exactly one of 1..n, and not n, so it
    divides that denominator; with m = n // 2 those primes include every
    prime in (m, 2m].  Erdos's proof of Bertrand's postulate bounds their
    product from below by 4^(m/3) / ((2m + 1) * (2m)^sqrt(2m)): C(2m, m)
    >= 4^m / (2m + 1), its prime powers are each at most 2m, and its
    primes in (sqrt(2m), 2m/3] have product below 4^(2m/3).
    """
    m = n // 2
    small_prime_powers = isqrt(2 * m) * (2 * m).bit_length()
    return max(2 * m // 3 - (2 * m + 1).bit_length() - small_prime_powers, 0)


def _gros_length_bits(n: int) -> int:
    """2^n - 1 >= 2^(n-1)."""
    return n - 1


def _unbounded(_: int) -> int:
    return 0


# `oracle --which` name -> (exact value function, the operand it takes, a
# lower bound b, in the operand, such that the value prints an integer of
# at least 2^b)
_ORACLES = {
    "flip-closed": (oracle.flip_expected_closed_form, "n", _flip_numerator_bits),
    "flip-recurrence": (oracle.flip_expected_recurrence, "n", _flip_numerator_bits),
    "gros-term": (oracle.gros_term, "k", _unbounded),
    "gros-length": (oracle.gros_length, "n", _gros_length_bits),
    "harmonic": (oracle.harmonic_bound, "n", _harmonic_denominator_bits),
    "timeopt-exact": (oracle.timeopt_exact_expected, "n", _unbounded),
}


def cmd_oracle(args) -> int:
    function, operand, printed_bits = _ORACLES[args.which]
    argument = getattr(args, operand)
    if argument is None:
        print(
            f"popcountlab oracle: error: --{operand} is required for {args.which}",
            file=sys.stderr,
        )
        return 1
    # refuse a value that cannot be printed before computing it, which can
    # take hours (harmonic at n = 10^8); 2^10 > 10^3, so an integer of at least 2^b has more than
    # 3b/10 digits
    limit = sys.get_int_max_str_digits()
    bits = printed_bits(argument)
    if limit and 3 * bits // 10 >= limit:
        print(f"popcountlab oracle: error: {_past_digit_limit()}", file=sys.stderr)
        return 1
    try:
        text = format_exact(function(argument))
    except (ValueError, oracle.Intractable) as exc:
        print(f"popcountlab oracle: error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def cmd_verify(args) -> int:
    try:
        results = acceptance.run_all(args.level, args.seed)
    except ValueError as exc:
        print(f"popcountlab verify: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(acceptance.format_report(results, args.level, args.seed))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
