"""The paper's headline claims against their references.

One row per claim and population size: the measured value, its standard
error, the reference, and the gap in standard errors, or `=` where the two
are equal.  The rows are acceptance's spec templates, seeded and run by its
batch runner, so that their batches and exact references, the CSV's
oracle_value, are the ones `verify` checks.  The n*H_n floor is the paper's
bound, so it is one-sided.

    python3 scripts/paper_claims.py --trials 2000
"""

import argparse
from dataclasses import replace

from popcountlab import harmonic_bound, sweep_worst_unnamed
from popcountlab.acceptance import FLIP, NAMING, PHASED, Instrumentation, run_batches
from popcountlab.cli import _positive, _seed
from popcountlab.experiments import exact_mean, resolve_threads


def batches(template, sizes, args, key):
    """(n, value, se, reference, note) of a batch per size, against its
    exact mean."""
    sizes = [(n, args.trials) for n in sizes]
    runs = run_batches(Instrumentation(), "claims", template, sizes, args.seed, key)
    for n, stats, exact in runs:
        yield n, stats.mean, stats.standard_error, exact, ""


def batches_over_floor(template, sizes, args, key):
    for n, mean, se, _, _ in batches(template, sizes, args, key):
        floor = harmonic_bound(n)
        yield n, mean, se, floor, f"mean/(n*H_n) {mean / floor:.3f}"


def worst_naming_runs(template, sizes, args, key):
    for n in sizes:
        sweep = sweep_worst_unnamed(n)
        note = f"worst start {sorted(sweep.worst_start)}"
        yield n, sweep.worst_non_null, 0, exact_mean(replace(template, n=n)), note


# (claim, rows, spec template, sizes); a claim's index in the table keys
# its batches' seeds
CLAIMS = (
    ("flip from zeros: mean meetings = exact mean, two-sided (lab's exact value; "
     "paper: about 2^n)", batches, FLIP, range(2, 13)),
    ("phased from random marks: mean meetings = exact mean, two-sided (lab's exact "
     "value)", batches, PHASED, range(1, 9)),
    ("phased from random marks: mean meetings above n*H_n, one-sided (paper: "
     "O(n log n) over the n*H_n floor)", batches_over_floor, PHASED,
     (16, 32, 64, 128, 256)),
    ("naming, adversarial schedule: most non-null transitions over every start = "
     "3*2^(n-1) - 2 (lab's exact value; paper: Omega(2^n))", worst_naming_runs,
     NAMING, range(1, 11)),
)


def gap(value, se, reference) -> str:
    if value == reference:
        return "="
    return f"{(value - reference) / se:+.2f}" if se else "!="


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # a bad value fails in one line, without the usage text
    parser.error = lambda message: parser.exit(2, f"{parser.prog}: error: {message}\n")
    parser.add_argument("--trials", type=_positive, default=2000)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--max-n", type=_positive, help="drop the sizes above this")
    args = parser.parse_args()
    try:
        resolve_threads(None)
    except ValueError as exc:
        parser.error(str(exc))
    for key, (claim, rows, template, sizes) in enumerate(CLAIMS):
        print(claim)
        print(f"{'n':>5} {'measured':>12} {'se':>9} {'reference':>12} {'gap/se':>7}")
        sizes = [n for n in sizes if args.max_n is None or n <= args.max_n]
        for n, value, se, exact, note in rows(template, sizes, args, key):
            print(f"{n:>5} {value:>12.6g} {se:>9.4g} {float(exact):>12.6g} "
                  f"{gap(value, se, exact):>7}  {note}".rstrip())


if __name__ == "__main__":
    main()
