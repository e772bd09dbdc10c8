"""The exact reference values, frozen, plus cross-route identities."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popcountlab import oracle
from popcountlab.oracle import (
    EXACT_TIMEOPT_MAX_N,
    Intractable,
    first_phase_full_conversion,
    flip_expected_closed_form,
    flip_expected_recurrence,
    flip_hitting_law,
    flip_uniform_total_expected,
    gros_length,
    gros_sequence,
    gros_term,
    gros_worst_case,
    harmonic_bound,
    timeopt_exact_expected,
    timeopt_uniform_total_expected,
)
from popcountlab.protocols import phase_threshold


class TestFlipExpectation:
    def test_frozen_small_values(self):
        assert flip_expected_closed_form(1) == 1
        assert flip_expected_closed_form(2) == 4
        assert flip_expected_closed_form(3) == 10
        assert flip_expected_closed_form(4) == Fraction(64, 3)
        assert flip_expected_closed_form(5) == Fraction(128, 3)

    # every t_k at n = 1-10, frozen from a tridiagonal solve
    @pytest.mark.parametrize(
        "n,times",
        [
            (1, "0 1"),
            (2, "0 3 4"),
            (3, "0 7 9 10"),
            (4, "0 15 56/3 61/3 64/3"),
            (5, "0 31 75/2 241/6 125/3 128/3"),
            (6, "0 63 372/5 393/5 404/5 411/5 416/5"),
            (7, "0 127 147 768/5 784/5 2381/15 2401/15 2416/15"),
            (8, "0 255 2032/7 2105/7 10688/35 10781/35 32528/105 32663/105 32768/105"),
            (9, "0 511 2295/4 16531/28 8361/14 42061/70 84447/140 84677/140 "
                "21213/35 21248/35"),
            (10, "0 1023 10220/9 10462/9 73870/63 74189/63 3542/3 24838/21 "
                 "74612/63 74689/63 74752/63"),
        ],
    )
    def test_frozen_hitting_time_vectors(self, n, times):
        # t_n = W_1/D_1 and t_k = t_n - W_(k+1)/D_(k+1), from the sweep's
        # (D_k, W_k) for k = n..1
        tails = [Fraction(w, d) for d, w in oracle._flip_tail_sums(n)]
        t_n = tails[-1]
        assert [t_n - tail for tail in reversed(tails)] + [t_n] == [
            Fraction(t) for t in times.split()
        ]

    def test_frozen_hitting_law(self):
        # n = 3: the first three meetings hit three distinct agents, 3!/3^3
        assert flip_hitting_law(3, 8) == [
            0, 0, 0, Fraction(2, 9), 0, Fraction(14, 81), 0, Fraction(98, 729)
        ]

    # sha256 of repr(flip_hitting_law(n, 200)), taken from the DP over
    # (ones, c0, c1) that restated the flip rule, before the law became the
    # ones walk's first passage
    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "738b38b1928a689d565746c933a50c430942ed6b485ccf75e76e3139ecfcf54e"),
            (2, "1e136f471778cd2e24e6450b81a8845207d77d44fe4019c102f1cc81a4bf2f0f"),
            (3, "79d5619df8540bb23fd2fe955554b3adff4d0d027709342db2482a5639058111"),
            (4, "2461b74bd3c71d25ae9dd09e6ced7bc133f4b0c669794a91250020457d02e751"),
            (5, "df700db613128e2486d94bb6ba5a5f5669ac43966b858066b03c46a571b1b2a2"),
            (6, "54faf9f5b9a04e8a6ae57c6634020d816609d857dcaebf00b1c23d64e990dc2b"),
            (7, "16fa04ad19a8f032e0933aa2a5839aa67fc5e6d264dbb2ea66959e62459ea865"),
            (8, "2eda0a8bffb7511f990cf8294ad2964de8387d4ab453b7acdccd052c7bedc0c9"),
        ],
    )
    def test_hitting_law_matches_the_counter_dp(self, n, digest):
        law = flip_hitting_law(n, 200)
        assert hashlib.sha256(repr(law).encode()).hexdigest() == digest

    def test_closed_form_equals_the_binomial_sum(self):
        # (n/2) sum_k 2^k/k against the form it replaced
        for n in range(1, 301):
            binomial = 2 ** (n - 1) * sum(
                Fraction(1, math.comb(n - 1, k)) for k in range(n)
            )
            assert flip_expected_closed_form(n) == binomial, n

    def test_frozen_uniform_pair_totals(self):
        # E[bst] * (n + 1) / 2; at n = 1 every pair meets the base station
        assert [flip_uniform_total_expected(n) for n in (1, 2, 3, 4, 10)] == [
            1, 6, 20, Fraction(160, 3), Fraction(411136, 63)
        ]

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            flip_expected_closed_form(0)
        with pytest.raises(ValueError):
            next(oracle._flip_tail_sums(0))
        with pytest.raises(ValueError):
            flip_expected_recurrence(0)
        with pytest.raises(ValueError):
            flip_hitting_law(0, 4)
        with pytest.raises(ValueError):
            flip_uniform_total_expected(0)

    def test_closed_form_equals_recurrence(self):
        for n in range(1, 301):
            assert flip_expected_closed_form(n) == flip_expected_recurrence(n), n

    def test_growth_is_eventually_doubling(self):
        # u_n / u_{n-1} -> 2; by n = 30 the ratio is already within 5%
        ratios = [
            flip_expected_closed_form(n) / flip_expected_closed_form(n - 1)
            for n in range(30, 34)
        ]
        assert all(abs(float(r) - 2.0) < 0.1 for r in ratios)


class TestNamingSequence:
    def test_frozen_depth_three(self):
        assert gros_sequence(3) == [1, 2, 1, 3, 1, 2, 1]

    def test_recursive_structure(self):
        for depth in range(2, 10):
            inner = gros_sequence(depth - 1)
            assert gros_sequence(depth) == inner + [depth] + inner

    def test_lengths(self):
        for depth in range(1, 12):
            assert len(gros_sequence(depth)) == gros_length(depth) == 2 ** depth - 1

    def test_closed_form_term_agrees(self):
        seq = gros_sequence(10)
        assert [gros_term(k) for k in range(1, len(seq) + 1)] == seq

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            gros_sequence(0)
        with pytest.raises(Intractable):
            gros_sequence(23)
        with pytest.raises(ValueError):
            gros_length(0)


class TestNamingWorstCase:
    def test_frozen_small_values(self):
        assert [gros_worst_case(n) for n in range(1, 7)] == [1, 4, 10, 22, 46, 94]

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            gros_worst_case(0)


class TestHarmonicBound:
    def test_frozen_values(self):
        assert harmonic_bound(1) == 1
        assert harmonic_bound(2) == 3
        assert harmonic_bound(10) == Fraction(7381, 252)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            harmonic_bound(0)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_between_n_and_n_log_n_plus_n(self, n):
        import math

        value = float(harmonic_bound(n))
        assert n <= value <= n * (math.log(n) + 1)


# sha256 of repr([E(n, 0), .., E(n, n), E(n)]) for timeopt_exact_expected,
# as a state elimination over the lumped chain (ones, c0, c1, cnt, phase)
# solved it; at n = 8 the values run to about 620 digits
ELIMINATION_DIGESTS = {
    1: "a16ccbdfe9b6e187e3db25c0d9d1d955d55c258dc8aba690c0a69b659befaf8c",
    2: "0f047e2903c19c67b185b2b028c6995a7b2168f2129b644e0e0ace5633f9a9ad",
    3: "b7b5d3ca9b6187b18d533ca2e1c79cd6a7c0197238f2f04bff32be93bd188804",
    4: "a44a20a906294b73172d9076a2b1bf50bdc518a65ffa7ef6274c05503c5543c2",
    5: "51de9366a757c8ffe627c430b6ce3511d96061b6699b2d1f66ed480c191d7a64",
    6: "dfc14b3bf3ec24ad3f059f89c19dfd330d63c02999ea163c7b83f21ca6c8f263",
    7: "18e6588d7a9f1386b71cab60aaf6b8eebfec543f71343ee2cd83d0f54d69e1f2",
    8: "03329c66fa50fef08a0c15177b9fb09374e0993b72594b515bea3f50be5bf173",
}


class TestTimeOptExact:
    def test_frozen_single_agent(self):
        # a zero mark converts at the first meeting; a one mark needs the
        # streak to run out (threshold 6) before the phase turns around
        assert timeopt_exact_expected(1, initial_ones=0) == 1
        assert timeopt_exact_expected(1, initial_ones=1) == 8
        assert timeopt_exact_expected(1) == Fraction(9, 2)

    def test_frozen_two_agents(self):
        assert timeopt_exact_expected(2) == Fraction(4739, 508)

    def test_frozen_larger_floats(self):
        assert float(timeopt_exact_expected(3)) == 18.11626241553054
        assert float(timeopt_exact_expected(4)) == 29.85430390080107
        assert float(timeopt_exact_expected(5)) == 43.717869908274245
        assert float(timeopt_exact_expected(6)) == 58.57337124763068
        assert float(timeopt_exact_expected(7)) == 73.84033748153917
        assert float(timeopt_exact_expected(8)) == 89.25553858745312

    @pytest.mark.parametrize("n", sorted(ELIMINATION_DIGESTS))
    def test_every_start_matches_the_state_elimination_solve(self, n):
        values = [timeopt_exact_expected(n, k) for k in range(n + 1)]
        values.append(timeopt_exact_expected(n))
        assert hashlib.sha256(repr(values).encode()).hexdigest() == ELIMINATION_DIGESTS[n]

    def test_uniform_pair_totals_scale_by_walds_identity(self):
        assert timeopt_uniform_total_expected(1, initial_ones=1) == 8
        assert timeopt_uniform_total_expected(2) == Fraction(4739, 508) * Fraction(3, 2)
        assert timeopt_uniform_total_expected(3, 0) == timeopt_exact_expected(3, 0) * 2
        with pytest.raises(Intractable):
            timeopt_uniform_total_expected(EXACT_TIMEOPT_MAX_N + 1)

    def test_mixture_is_binomial_average_of_conditionals(self):
        for n in (1, 2, 3):
            from math import comb

            mixture = sum(
                Fraction(comb(n, k), 2 ** n) * timeopt_exact_expected(n, k)
                for k in range(n + 1)
            )
            assert mixture == timeopt_exact_expected(n)

    def test_range_validation(self):
        with pytest.raises(Intractable):
            timeopt_exact_expected(EXACT_TIMEOPT_MAX_N + 1)
        with pytest.raises(Intractable):
            timeopt_exact_expected(0)
        with pytest.raises(ValueError):
            timeopt_exact_expected(2, initial_ones=3)

    def test_all_values_are_exact_rationals(self):
        for n in range(1, EXACT_TIMEOPT_MAX_N + 1):
            assert isinstance(timeopt_exact_expected(n), Fraction)


def first_phase_by_streaks(n: int) -> Fraction:
    """P(full conversion) by backward induction over (converted k, streak
    s): a converted meeting at s >= phase_threshold(k) flips the phase."""
    success = Fraction(1)  # from (n, 0): everyone is converted
    for k in range(n - 1, 0, -1):
        # from streak ceil(T_k) down to 0; one streak past the top flips
        value = Fraction(0)
        for _ in range(math.ceil(phase_threshold(k)) + 1):
            value = Fraction(n - k, n) * success + Fraction(k, n) * value
        success = value
    return success


class TestFirstPhase:
    def test_frozen_values(self):
        assert first_phase_full_conversion(1) == 1
        assert first_phase_full_conversion(2) == Fraction(127, 128)
        assert abs(float(first_phase_full_conversion(8)) - 0.9999926) < 1e-7
        assert abs(float(first_phase_full_conversion(32)) - 0.999999999) < 1e-9

    @pytest.mark.parametrize("n", range(1, 13))
    def test_product_equals_streak_induction(self, n):
        assert first_phase_full_conversion(n) == first_phase_by_streaks(n)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            first_phase_full_conversion(0)


def test_module_reexports_the_naming_term():
    assert oracle.gros_term(12) == 3
