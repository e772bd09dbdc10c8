"""Worst starts of the naming protocol under the adversarial schedule.

Exhausts every partially named start (distinct names plus sinks) for each
population size, reporting the maximum number of non-null transitions until
silence.  The maximum lands on 3 * 2^(n-1) - 2, inside the [2^n - 1, 2^(n+1)]
band, and is attained by one sink agent holding court with names {1,..,n-1}.

    python3 scripts/gros_adversarial.py --max-n 10
"""

import argparse

from popcountlab.experiments import sweep_worst_unnamed
from popcountlab.oracle import gros_worst_case


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    print(f"{'n':>4} {'starts':>7} {'worst':>7} {'3*2^(n-1)-2':>12}  worst start names")
    for n in range(1, args.max_n + 1):
        sweep = sweep_worst_unnamed(n)
        names = sorted(sweep.worst_start) or ["-"]
        print(
            f"{n:>4} {sweep.starts_checked:>7} {sweep.worst_non_null:>7} "
            f"{gros_worst_case(n):>12}  {','.join(str(v) for v in names)}"
        )


if __name__ == "__main__":
    main()
