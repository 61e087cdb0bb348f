import random
from fractions import Fraction
from math import comb, factorial

import pytest

from aplab.patterns import (
    BinomialSystem,
    Pairing,
    PatternSpec,
    a_binomial_system,
    a_coefficients,
    enumerate_pairings,
    is_k_pattern,
    is_symmetric,
    is_trivial_solution,
    symmetric_pairing,
    trivial_solution_count,
    zero_sum_partitions,
    zero_sum_subsets,
)


def random_spec(rng, k_max=10, a_max=30):
    k = rng.randint(3, k_max)
    return PatternSpec(tuple(sorted(rng.sample(range(a_max + 1), k))))


class TestPatternSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternSpec((0, 1))
        with pytest.raises(ValueError):
            PatternSpec((0, 2, 2))
        with pytest.raises(ValueError):
            PatternSpec((3, 2, 1))

    def test_normalized(self):
        assert PatternSpec((5, 7, 11)).normalized().a == (0, 2, 6)

    def test_string_round_trip(self):
        s = PatternSpec((1, 2, 10, 16, 17, 20))
        assert PatternSpec.from_string(str(s)) == s
        assert PatternSpec.from_string("0 1 2 3") == PatternSpec.ap(4)


class TestBinomialSystems:
    def test_k4(self):
        assert a_binomial_system(PatternSpec.ap(4)).e == (1, -3, 3, -1)

    def test_k3(self):
        assert a_binomial_system(PatternSpec.ap(3)).e == (1, -2, 1)

    def test_k5_direct_binomials(self):
        sys5 = a_binomial_system(PatternSpec.ap(5))
        assert sys5.e == (1, -4, 6, -4, 1)
        assert sum(sys5.e) == 0

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            a_binomial_system(PatternSpec.ap(2))

    def test_alternating_binomial_row(self):
        for k in range(3, 21):
            assert a_binomial_system(PatternSpec.ap(k)).e == tuple((-1) ** i * comb(k - 1, i) for i in range(k))

    def test_canonical_invariants(self):
        with pytest.raises(ValueError):
            BinomialSystem((2, -6, 6, -2))  # gcd 2
        with pytest.raises(ValueError):
            BinomialSystem((-1, 3, -3, 1))  # negative lead
        with pytest.raises(ValueError):
            BinomialSystem((1, -3, 3, 1))  # nonzero sum


class TestCoefficients:
    def test_remark_tuple_asymmetric(self):
        spec = PatternSpec((1, 2, 10, 16, 17, 20))
        assert a_coefficients(spec) == (-41040, 30240, -30240, 5040, -5040, 41040)

    def test_remark_tuple_symmetric(self):
        spec = PatternSpec((1, 2, 3, 6, 7, 8))
        assert a_coefficients(spec) == (-420, 120, -120, 120, -120, 420)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_factorial_formula_for_plain_progression(self, k):
        c = a_coefficients(PatternSpec.ap(k))
        expected = tuple(
            (-1) ** (k - i) * factorial(i - 1) * factorial(k - i)
            for i in range(1, k + 1)
        )
        assert c == expected

    def test_reciprocal_sum_vanishes(self):
        rng = random.Random(7)
        for _ in range(60):
            spec = random_spec(rng)
            c = a_coefficients(spec)
            assert sum(Fraction(1, ci) for ci in c) == 0

    def test_power_identity(self):
        # sum over i of (x + a_i y)^(k-2) / c_i == 0 as an exact rational
        rng = random.Random(11)
        for _ in range(200):
            spec = random_spec(rng, k_max=8, a_max=20)
            c = a_coefficients(spec)
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            total = sum(
                (x + ai * y) ** (spec.k - 2) / ci for ai, ci in zip(spec.a, c)
            )
            assert total == 0


class TestABinomialSystem:
    def test_plain_progression_matches_binomial_row(self):
        # c_i = (-1)^(k-1-i) i! (k-1-i)! for offsets 0..k-1, so (k-1)!/c_i is
        # the signed binomial row up to one sign
        for k in range(3, 13):
            row = tuple(factorial(k - 1) // c for c in a_coefficients(PatternSpec.ap(k)))
            assert a_binomial_system(PatternSpec.ap(k)).e in (row, tuple(-x for x in row))

    def test_three_term(self):
        assert a_binomial_system(PatternSpec((0, 1, 2))).e == (1, -2, 1)
        assert a_coefficients(PatternSpec((0, 1, 2))) == (2, -1, 2)

    def test_remark_tuple_scaling(self):
        sys_a = a_binomial_system(PatternSpec((1, 2, 10, 16, 17, 20)))
        assert sys_a.e == (14, -19, 19, -114, 114, -14)
        # exact rational scaling of the reciprocal vector
        c = a_coefficients(PatternSpec((1, 2, 10, 16, 17, 20)))
        ratios = {Fraction(ei) / Fraction(1, ci) for ei, ci in zip(sys_a.e, c)}
        assert len(ratios) == 1

    def test_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            spec = random_spec(rng, k_max=7, a_max=15)
            shifted = PatternSpec(tuple(x + 5 for x in spec.a))
            assert a_binomial_system(spec) == a_binomial_system(shifted)


class TestTrivialSolutions:
    def test_abba_is_trivial(self):
        sys4 = a_binomial_system(PatternSpec.ap(4))
        assert is_trivial_solution(sys4, (7, 2, 2, 7))
        assert is_trivial_solution(sys4, (0, 0, 0, 0))

    def test_k14_exotic_trivial_pattern(self):
        sys14 = a_binomial_system(PatternSpec.ap(14))
        vals = [1, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1]
        assert is_trivial_solution(sys14, vals)

    def test_aabb_not_trivial(self):
        assert not is_trivial_solution(a_binomial_system(PatternSpec.ap(4)), (5, 5, 9, 9))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_trivial_solution(a_binomial_system(PatternSpec.ap(4)), (1, 2, 3))

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
    def test_palindromes_trivial(self, k):
        rng = random.Random(k)
        sysk = a_binomial_system(PatternSpec.ap(k))
        for _ in range(10):
            half = [rng.randint(0, 9) for _ in range(k // 2)]
            assert is_trivial_solution(sysk, half + half[::-1])

    def test_invariant_under_value_permutation(self):
        # relabeling the values preserves triviality
        rng = random.Random(5)
        sys6 = a_binomial_system(PatternSpec.ap(6))
        for _ in range(50):
            vals = [rng.randint(0, 3) for _ in range(6)]
            perm = {v: i for i, v in enumerate({*vals})}
            relabeled = [perm[v] for v in vals]
            assert is_trivial_solution(sys6, vals) == is_trivial_solution(
                sys6, relabeled
            )

    def test_trivial_count_matches_enumeration(self):
        sys4 = a_binomial_system(PatternSpec.ap(4))
        # over t distinct values the trivial solutions are exactly (a, b, b, a)
        for t in range(1, 6):
            assert trivial_solution_count(sys4, t) == t * t
        parts = zero_sum_partitions(sys4)
        assert sorted(len(p) for p in parts) == [1, 2]


class TestZeroSumSubsets:
    def test_k4_only_full(self):
        assert zero_sum_subsets(a_binomial_system(PatternSpec.ap(4))) == [(0, 1, 2, 3)]

    def test_k5_only_full(self):
        assert zero_sum_subsets(a_binomial_system(PatternSpec.ap(5))) == [(0, 1, 2, 3, 4)]

    def test_k14_has_exotic_subset(self):
        subs = zero_sum_subsets(a_binomial_system(PatternSpec.ap(14)))
        assert (3, 4, 7, 8) in subs
        assert comb(13, 3) + comb(13, 7) == comb(13, 4) + comb(13, 8)

    def test_lexicographic_order(self):
        subs = zero_sum_subsets(a_binomial_system(PatternSpec.ap(14)))
        assert subs == sorted(subs)


class TestPairings:
    def test_asymmetric_unique_pairing(self):
        ps = enumerate_pairings(PatternSpec((1, 2, 10, 16, 17, 20)))
        assert [p.pairs for p in ps] == [((0, 5), (1, 2), (3, 4))]

    def test_symmetric_spec_with_two_pairings(self):
        ps = enumerate_pairings(PatternSpec((1, 2, 3, 6, 7, 8)))
        pairs = {p.pairs for p in ps}
        assert ((0, 5), (1, 4), (2, 3)) in pairs  # the symmetric one
        assert ((0, 5), (1, 2), (3, 4)) in pairs
        assert len(pairs) == 2

    def test_plain_4ap_has_only_symmetric(self):
        ps = enumerate_pairings(PatternSpec.ap(4))
        assert [p.pairs for p in ps] == [((0, 3), (1, 2))]

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pairings(PatternSpec((0, 1, 2)))

    def test_symmetric_spec_contains_symmetric_pairing(self):
        rng = random.Random(17)
        found = 0
        while found < 25:
            half = sorted(rng.sample(range(1, 40), rng.choice([2, 3, 4])))
            s = max(half) * 2 + rng.randint(1, 5)
            a = tuple(half + [s - x for x in reversed(half)])
            if len(set(a)) != len(a) or list(a) != sorted(a):
                continue
            spec = PatternSpec(a)
            assert is_symmetric(spec)
            ps = enumerate_pairings(spec)
            assert symmetric_pairing(spec.k) in ps
            found += 1

    def test_pairings_negate_coefficients(self):
        rng = random.Random(23)
        for _ in range(40):
            spec = random_spec(rng, k_max=8)
            if spec.k % 2:
                continue
            c = a_coefficients(spec)
            for p in enumerate_pairings(spec):
                for i, j in p.pairs:
                    assert c[i] == -c[j]

    def test_pairing_validation(self):
        with pytest.raises(ValueError):
            Pairing(((0, 0),))
        with pytest.raises(ValueError):
            Pairing(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            Pairing(((0, 2),))


class TestSymmetry:
    def test_examples(self):
        assert is_symmetric(PatternSpec((0, 1, 2, 3)))
        assert not is_symmetric(PatternSpec((1, 2, 10, 16, 17, 20)))
        assert is_symmetric(PatternSpec((1, 2, 3, 6, 7, 8)))
        assert not is_symmetric(PatternSpec((0, 1, 2)))  # odd length


class TestKPattern:
    def test_examples(self):
        assert is_k_pattern(1, 3, 2, 4, modulus=100)
        assert not is_k_pattern(5, 5, 5, 10)
        # brute scan over a, b <= 2 for (0, 1, 5) mod 7
        expect = any(
            (a * 0 + b * 1 - (a + b) * 5) % 7 == 0
            for a in (1, 2)
            for b in (1, 2)
            if a + b <= 3
        )
        assert is_k_pattern(0, 1, 5, 4, modulus=7) == expect

    def test_integer_ambient(self):
        assert is_k_pattern(0, 2, 1, 3)
        assert not is_k_pattern(0, 1, 5, 3)

