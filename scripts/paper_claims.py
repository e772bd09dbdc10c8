"""The paper's headline claims against their references.

One row per claim and population size: the measured value, its standard
error, the reference, and the gap in standard errors, or `=` where the two
are equal.  The exact references are experiments.exact_mean, the CSV's
oracle_value.  The n*H_n floor is the paper's bound, so it is one-sided.

    python3 scripts/paper_claims.py --trials 2000
"""

import argparse
from dataclasses import replace

from popcountlab import InitPolicy, ProtocolId, SchedulerKind, TrialBatchSpec
from popcountlab import derive_seed, harmonic_bound, run_batch, sweep_worst_unnamed
from popcountlab.cli import _positive, _seed
from popcountlab.experiments import exact_mean


def batch(spec):
    stats = run_batch(spec).summary.bst_interactions
    return stats.mean, stats.standard_error, ""


def batch_over_floor(spec):
    mean, se, _ = batch(spec)
    return mean, se, f"mean/(n*H_n) {mean / harmonic_bound(spec.n):.3f}"


def worst_naming_run(spec):
    sweep = sweep_worst_unnamed(spec.n)
    return sweep.worst_non_null, 0, f"worst start {sorted(sweep.worst_start)}"


# the bit protocols run under bst-only pairs, whose meetings follow the
# uniform-pair law; the naming template's trials are unused
FLIP = TrialBatchSpec(ProtocolId.FLIP, 1, 1)
PHASED = TrialBatchSpec(ProtocolId.TIME_OPT, 1, 1, init=InitPolicy.UNIFORM_RANDOM_MARKS)
NAMING = TrialBatchSpec(
    ProtocolId.GROS_NAMING, 1, 1, SchedulerKind.WEAK_ADVERSARIAL,
    InitPolicy.WORST_CASE_UNNAMED,
)
# (claim, measure, reference, spec template, sizes)
CLAIMS = (
    ("flip from zeros: mean meetings = exact mean, two-sided (lab's exact value; "
     "paper: about 2^n)", batch, exact_mean, FLIP, range(2, 13)),
    ("phased from random marks: mean meetings = exact mean, two-sided (lab's exact "
     "value)", batch, exact_mean, PHASED, range(1, 9)),
    ("phased from random marks: mean meetings above n*H_n, one-sided (paper: "
     "O(n log n) over the n*H_n floor)", batch_over_floor,
     lambda spec: harmonic_bound(spec.n), PHASED, (16, 32, 64, 128, 256)),
    ("naming, adversarial schedule: most non-null transitions over every start = "
     "3*2^(n-1) - 2 (lab's exact value; paper: Omega(2^n))", worst_naming_run,
     exact_mean, NAMING, range(1, 11)),
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
    for index, (claim, measure, reference, template, sizes) in enumerate(CLAIMS):
        print(claim)
        print(f"{'n':>5} {'measured':>12} {'se':>9} {'reference':>12} {'gap/se':>7}")
        for n in sizes:
            if args.max_n is None or n <= args.max_n:
                seed = derive_seed(args.seed, index, n)
                spec = replace(template, n=n, trials=args.trials, seed=seed)
                value, se, note = measure(spec)
                exact = reference(spec)
                print(f"{n:>5} {value:>12.6g} {se:>9.4g} {float(exact):>12.6g} "
                      f"{gap(value, se, exact):>7}  {note}".rstrip())


if __name__ == "__main__":
    main()
