import itertools
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from aplab.colorings import CYCLIC, Coloring, verify_mono_pattern_free
from aplab import sets
from aplab.errors import BUDGETS, BudgetExceededError, FormatError, SelfCheckError
from aplab.patterns import BinomialSystem, PatternSpec, a_binomial_system, is_k_pattern
from aplab.sets import (
    GreedyResult,
    _SolutionCounter,
    _digit_proof,
    ResidueSet,
    base9_set,
    behrend_set,
    greedy_solution_free_set,
    residue_set_from_text,
    residue_set_to_text,
    verify_solution_free,
)


class TestResidueSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueSet(10, (0, 0))
        with pytest.raises(ValueError):
            ResidueSet(10, (0, 10))
        s = ResidueSet(10, (3, 1, 7))
        assert s.elements == (1, 3, 7)

    def test_round_trip(self):
        s = ResidueSet(101, (0, 5, 17, 99))
        assert residue_set_from_text(residue_set_to_text(s)) == s

    def test_format_error(self):
        with pytest.raises(FormatError):
            residue_set_from_text("10 3\n1 2")


def set_pattern_witness(s: ResidueSet, k: int):
    """The mono-pattern witness of the coloring with S as one class and every
    other residue a singleton class: a singleton holds no triple that is not
    all equal, so this checks S alone."""
    colors = Coloring.from_raw(CYCLIC, [-1 if x in s.elements else x for x in range(s.modulus)])
    return verify_mono_pattern_free(colors, k)


class TestBehrend:
    def test_small_modulus_hosts_four_elements(self):
        s = behrend_set(9, 3)
        assert len(s) >= 4
        assert set_pattern_witness(s, 3) is None
        # matches the best any 4-element set can do at this modulus
        assert oracles.max_3ap_free_size(9) == 4

    def test_minimal_modulus(self):
        s = behrend_set(2, 3)
        assert len(s) == 1

    def test_power_of_two_modulus(self):
        s = behrend_set(64, 3)
        assert len(s) >= 8
        assert set_pattern_witness(s, 3) is None

    @pytest.mark.parametrize(
        "N,k",
        [(50, 3), (101, 3), (216, 4), (500, 5), (1000, 3), (2000, 6)],
    )
    def test_pattern_free_across_scales(self, N, k):
        s = behrend_set(N, k)
        assert len(s) >= 1
        assert set_pattern_witness(s, k) is None

    def test_sphere_shell_wins_at_ten_million(self):
        # d = 9, m = 3 in base B = 25 * 8 + 1 = 201: the 18 digit vectors of
        # squared norm 65 beat the {0,1}-cube, which has 16 elements here
        s = behrend_set(10**7, 26)
        digits = [(x % 201, x // 201 % 201, x // 201**2) for x in s.elements]
        assert len(s) == 18 and all(x < 201**3 for x in s.elements)
        assert {sum(d * d for d in v) for v in digits} == {65}
        assert max(max(v) for v in digits) == 8
        S = s.elements
        assert not any(is_k_pattern(x, y, z, 26, s.modulus) for x in S for y in S for z in S)

    def test_cube_wins_at_a_million(self):
        # B = 26 for d = 2; four digits fit below N / 25, and every shell of
        # the larger d is smaller than the 16-element cube
        s = behrend_set(10**6, 26)
        weights = (1, 26, 26**2, 26**3)
        bits = itertools.product((0, 1), repeat=4)
        assert s.elements == tuple(sorted(sum(w * b for w, b in zip(weights, v)) for v in bits))

    def test_set_pattern_verifier_catches_violations(self):
        s = ResidueSet(9, (0, 1, 2))
        w = set_pattern_witness(s, 3)
        assert w is not None
        n1, n2, n3 = w.points
        a, b = w.detail["a"], w.detail["b"]
        assert (a * n1 + b * n2 - (a + b) * n3) % 9 == 0
        assert set(w.points) <= set(s.elements)

    def test_set_pattern_verifier_matches_naive_oracle(self):
        # S as one color class and every other residue a singleton class, so
        # the first monochromatic triple in lex order is the first one in S
        rng = random.Random(5)
        for _ in range(20):
            m = rng.randint(2, 16)
            s = ResidueSet(m, tuple(rng.sample(range(m), rng.randint(1, m))))
            k = rng.randint(3, 6)
            colors = [1 if x in s.elements else 2 + x for x in range(m)]
            w = set_pattern_witness(s, k)
            got = None if w is None else (*w.points, w.detail["a"], w.detail["b"])
            assert got == oracles.naive_mono_pattern_witness(colors, "cyclic", k)


class TestGreedy:
    def test_small_target(self):
        res = greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 1000, 5)
        assert res.complete and len(res.set) == 5
        assert verify_solution_free(res.set, a_binomial_system(PatternSpec.ap(4))) is None

    def test_singleton_zero_accepted(self):
        res = greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 100, 1)
        assert res.set.elements == (0,)

    def test_pair(self):
        res = greedy_solution_free_set(a_binomial_system(PatternSpec.ap(5)), 500, 2)
        assert res.complete and len(res.set) == 2

    def test_infeasible_flag(self):
        res = greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 8, 6)
        assert isinstance(res, GreedyResult)
        assert not res.complete
        assert res.scanned == 8

    @pytest.mark.parametrize(
        "system,m,r",
        [
            (a_binomial_system(PatternSpec.ap(3)), 400, 6),
            (a_binomial_system(PatternSpec.ap(4)), 2000, 10),
            (a_binomial_system(PatternSpec.ap(5)), 4000, 8),
            (a_binomial_system(PatternSpec((0, 1, 2, 4))), 3000, 8),
            (a_binomial_system(PatternSpec((0, 2, 3))), 500, 6),
        ],
    )
    def test_output_always_verifies(self, system, m, r):
        res = greedy_solution_free_set(system, m, r)
        assert res.complete
        assert verify_solution_free(res.set, system) is None

    def test_feasibility_scaling_report(self):
        # find the least power-of-two modulus where greedy reaches r, then
        # check the fitted cubic law is self-consistent for the 4-term system
        system = a_binomial_system(PatternSpec.ap(4))
        fitted = 0.0
        mins = {}
        for r in range(2, 9):
            m = 16
            while True:
                if greedy_solution_free_set(system, m, r).complete:
                    mins[r] = m
                    fitted = max(fitted, m / r**3)
                    break
                m *= 2
        for r, m_min in mins.items():
            m = max(int(fitted * r**3) + 1, m_min)
            assert greedy_solution_free_set(system, m, r).complete
        print(f"greedy 4-term feasibility: fitted C={fitted:.2f}, minima={mins}")

    def test_pipeline_scale_regression(self):
        res = greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 9216, 48)
        assert res.complete

    def test_table_budget(self, lower_budget):
        lower_budget("greedy_table", 10**4)
        with pytest.raises(BudgetExceededError):
            greedy_solution_free_set(a_binomial_system(PatternSpec.ap(6)), 10**6, 50)

    def test_table_memory_budget(self, lower_budget):
        # 2^4 m entries against the budget, checked before any table exists
        m = BUDGETS["greedy_table"].cap // 16 + 1
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"needs {16 * m}, "):
                greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        lower_budget("greedy_table", 1600)
        assert greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 100, 3).complete
        with pytest.raises(BudgetExceededError):
            greedy_solution_free_set(a_binomial_system(PatternSpec.ap(4)), 101, 3)


class TestSolutionCounterTables:
    # each list of accepts has an x with e_i x = 0 (mod m) for some but not
    # every i, so a stage shifts by c = 0 while the others do not
    @pytest.mark.parametrize(
        "system,m,accepts",
        [
            (a_binomial_system(PatternSpec.ap(3)), 12, (5, 6, 0, 11)),  # -2 * 6
            (a_binomial_system(PatternSpec((0, 2, 3))), 9, (3, 1, 7)),  # -3 * 3
            (a_binomial_system(PatternSpec.ap(4)), 12, (7, 4, 0, 10)),  # -3 * 4 and 3 * 4
            (a_binomial_system(PatternSpec((0, 1, 2, 4))), 16, (5, 2, 11, 14)),  # -8 * 2
            (a_binomial_system(PatternSpec.ap(5)), 24, (6, 1, 4, 19)),  # -4 * 6, 6 * 4
            (a_binomial_system(PatternSpec((0, 1, 2, 3, 5))), 20, (3, 1, 12, 2)),  # 20 * 1
            # windowed stages while 2 M top < m, M the positive coefficient
            # mass, then modular ones; top is the running maximum, so the
            # out-of-order accepts keep the window of the largest value
            (a_binomial_system(PatternSpec.ap(4)), 101, (3, 0, 5, 1, 12, 40)),
            (a_binomial_system(PatternSpec.ap(5)), 200, (2, 0, 7, 3, 11, 30)),
            (a_binomial_system(PatternSpec((0, 2, 3))), 64, (1, 4, 0, 9, 20)),
            # 2 M top reaches m - 1, then m, at the accept of 12
            (a_binomial_system(PatternSpec.ap(4)), 97, (0, 12, 5)),
            (a_binomial_system(PatternSpec.ap(4)), 96, (0, 12, 5)),
            (a_binomial_system(PatternSpec.ap(4)), 98, (12, 0, 5)),
        ],
    )
    def test_tables_match_enumerated_histograms(self, system, m, accepts):
        counter = _SolutionCounter(system, m)
        for n in range(1, len(accepts) + 1):
            counter.accept(accepts[n - 1])
            want = oracles.subset_sum_histograms(accepts[:n], system.e, m)
            for u, hist in want.items():
                # column j of a row holds residue (j - m // 2) mod m
                row = np.roll(counter.tables[u], -(m // 2))
                assert row.tolist() == hist, (accepts[:n], u)


AP4, AP5, AP6 = (a_binomial_system(PatternSpec.ap(k)) for k in (4, 5, 6))
# e = (3, -10, 10, -5, 2): not closed under negation, but with the pair 10, -10
NEGATED_PAIR = a_binomial_system(PatternSpec((0, 1, 2, 4, 5)))


class TestSolutionCounterDeltas:
    @pytest.mark.parametrize(
        "system,m,accepts",
        [
            (AP4, 61, (3, 17, 40, 52)),
            (AP4, 120, (0, 5, 1)),  # windowed stages: 2 M top = 40 < m
            (AP5, 53, (2, 9, 30)),
            (AP5, 150, (0, 7, 3)),  # 2 M top = 112 < m
            (AP6, 37, (4, 11, 29)),
            (a_binomial_system(PatternSpec((0, 1, 3))), 50, (1, 6, 22, 31, 44)),
            (a_binomial_system(PatternSpec((0, 1, 2, 4))), 64, (0, 7, 19, 50)),
            (NEGATED_PAIR, 41, (5, 13, 27)),
        ],
    )
    def test_matches_enumeration(self, system, m, accepts):
        counter = _SolutionCounter(system, m)
        for a in accepts:
            counter.accept(a)
        got = np.concatenate([counter.deltas(lo, min(m, lo + 7)) for lo in range(0, m, 7)])
        for x in range(m):
            if x not in accepts:
                assert got[x] == oracles.solutions_using(accepts, x, system.e, m), x

    @pytest.mark.parametrize(
        "system,classes",
        [
            (AP4, 9),
            (AP6, 35),
            (AP5, 17),
            (a_binomial_system(PatternSpec((0, 1, 3))), 7),
            (a_binomial_system(PatternSpec((0, 1, 2, 4))), 15),
            (NEGATED_PAIR, 31),
        ],
    )
    def test_every_term_equals_its_class_representative(self, system, classes):
        m = 53
        counter = _SolutionCounter(system, m)
        for a in random.Random(system.k).sample(range(m), 5):
            counter.accept(a)
        full = (1 << system.k) - 1
        assert len(counter.classes) == classes
        assert sorted(t for ts in counter.classes for t in ts) == list(range(1, full + 1))
        assert counter.weights.tolist() == [len(ts) for ts in counter.classes]
        x = np.arange(m)

        def term(t):
            # the read of term t at every x: row [k] - t, column -e(t) x + off
            shift = -sum(c for i, c in enumerate(system.e) if t >> i & 1) % m
            return counter.tables[full ^ t, (shift * x + m // 2) % m].tolist()

        for ts in counter.classes:
            for t in ts[1:]:
                assert term(t) == term(ts[0]), (ts, t)


SORTED_REFERENCE_CASES = [
    # the five calls of a benchmark round: thm2_7 and lemma7_10 (AP4), and
    # thm2_5's doubling from m = 2500, whose first two scans are incomplete
    (a_binomial_system(PatternSpec.ap(4)), 9216, 48),
    (a_binomial_system(PatternSpec.ap(4)), 20736, 72),
    (a_binomial_system(PatternSpec.ap(5)), 2500, 25),
    (a_binomial_system(PatternSpec.ap(5)), 5000, 25),
    (a_binomial_system(PatternSpec.ap(5)), 10000, 25),
    # TestGreedy's cases
    (a_binomial_system(PatternSpec.ap(4)), 1000, 5),
    (a_binomial_system(PatternSpec.ap(4)), 100, 1),
    (a_binomial_system(PatternSpec.ap(5)), 500, 2),
    (a_binomial_system(PatternSpec.ap(4)), 8, 6),
    (a_binomial_system(PatternSpec.ap(3)), 400, 6),
    (a_binomial_system(PatternSpec.ap(4)), 2000, 10),
    (a_binomial_system(PatternSpec.ap(5)), 4000, 8),
    (a_binomial_system(PatternSpec((0, 1, 2, 4))), 3000, 8),
    (a_binomial_system(PatternSpec((0, 2, 3))), 500, 6),
    # k = 3 and general offsets with scans past 4096 candidates: complete at
    # scanned = 6836, incomplete at 32 of 40 and 113 of 120.  The searches
    # start at a 32-candidate window and double it while it holds no
    # admissible candidate; the complete k = 3 scan's largest gap, from 3280
    # to 6561, takes six doublings, and the 40-element scan tests 4869
    # candidates past its last accept, in windows up to the 4096 cap
    (a_binomial_system(PatternSpec.ap(3)), 20000, 300),
    (a_binomial_system(PatternSpec((0, 1, 2, 4))), 12000, 40),
    (a_binomial_system(PatternSpec((0, 2, 3))), 5000, 120),
    # the first 32 of that scan: complete at scanned = 7131 after a gap of
    # 4242 (2888 to 7130), found in the first window at the cap
    (a_binomial_system(PatternSpec((0, 1, 2, 4))), 12000, 32),
    # the Sidon equation: its terms {0,2}, {0,3}, {1,2}, {1,3} form one class
    # of weight 4 with e(t) = 0, and the set is the start of the Mian-Chowla
    # sequence less one, 0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122
    (BinomialSystem((1, 1, -1, -1)), 1000, 12),
]


class TestGreedyMatchesSortedTables:
    @pytest.mark.parametrize("system,m,r", SORTED_REFERENCE_CASES)
    def test_matches_sorted_reference(self, system, m, r):
        res = greedy_solution_free_set(system, m, r)
        want = oracles.sorted_greedy_solution_free_set(system, m, r)
        assert (res.set.elements, res.complete, res.scanned) == want

    def test_feasibility_scan_matches_sorted_reference(self):
        # the (m, r) grid of TestGreedy.test_feasibility_scaling_report
        system = a_binomial_system(PatternSpec.ap(4))
        for r in range(2, 9):
            for m in (16, 32, 64, 128, 256, 512, 1024, 2048):
                res = greedy_solution_free_set(system, m, r)
                want = oracles.sorted_greedy_solution_free_set(system, m, r)
                assert (res.set.elements, res.complete, res.scanned) == want, (m, r)


class TestBase9:
    def test_first_five(self):
        assert base9_set(5, 36 * 25 + 1).elements == (1, 2, 9, 10, 11)

    def test_singleton(self):
        assert base9_set(1, 37).elements == (1,)

    def test_max_element_bound(self):
        for r in (1, 2, 7, 50, 123, 500, 1000):
            s = base9_set(r, 36 * r * r + 1)
            assert max(s.elements) <= 9 * r * r

    def test_modulus_precondition(self):
        with pytest.raises(ValueError):
            base9_set(10, 3600)

    @pytest.mark.parametrize("r", [3, 10, 25, 48, 77, 100])
    def test_forced_structure(self, r):
        s = base9_set(r, 36 * r * r + 1)
        assert verify_solution_free(s, a_binomial_system(PatternSpec.ap(4))) is None


class TestVerifySolutionFree:
    def test_tiny_examples(self):
        # {0,1,2}: the spread is too small for a nontrivial solution
        s = ResidueSet(100, (0, 1, 2))
        assert verify_solution_free(s, a_binomial_system(PatternSpec.ap(4))) is None
        assert oracles.naive_solution_free((0, 1, 2), (1, -3, 3, -1), 100) is None
        # a full progression is a nontrivial solution of its own system
        s = ResidueSet(100, (0, 1, 2, 3))
        w = verify_solution_free(s, a_binomial_system(PatternSpec.ap(4)))
        expect = oracles.naive_solution_free((0, 1, 2, 3), (1, -3, 3, -1), 100)
        assert w == expect is not None

    def test_singleton_both_modes(self):
        s = ResidueSet(50, (7,))
        assert verify_solution_free(s, a_binomial_system(PatternSpec.ap(4))) is None
        assert oracles.naive_solution_free(s.elements, (1, -3, 3, -1), 50, "abba_only") is None

    def test_matches_naive_scan(self):
        # AP3-AP5, plus (0,1,3) = (2, -3, 1) and (0,1,2,4) = (3, -8, 6, -1),
        # whose |e_i| sum past the 2^(k-1) of AP_k (and k = 3, 5 split
        # into uneven halves)
        rng = random.Random(19)
        systems = [a_binomial_system(PatternSpec.from_string(a)) for a in
                   ("0,1,2", "0,1,2,3", "0,1,2,3,4", "0,1,3", "0,1,2,4")]
        for _ in range(25):
            m = rng.randint(12, 60)
            size = rng.randint(1, 7)
            s = ResidueSet(m, tuple(rng.sample(range(m), size)))
            for system in systems:
                got = verify_solution_free(s, system)
                expect = oracles.naive_solution_free(s.elements, system.e, m)
                assert got == expect, (s, system.e)
                assert got is None or all(type(x) is int for x in got)

    def test_witness_after_the_first_block(self, monkeypatch):
        # the base-9 digits are AP4-free, and the cluster y + D {0, 1, 2, 3}
        # (D above every base-9 difference, no small multiple of y near 0 mod
        # m) adds solutions inside the cluster only; the least is
        # (y, y, y + D, y + 3D), after the 300 * 304 matches (x, b, b, x)
        # with x below y and the 301 matches (y, b, b, y) with b <= y
        y, D, m = 10**9, 10**6, 2**31 - 1
        s = ResidueSet(m, base9_set(300, m).elements + tuple(y + D * i for i in range(4)))
        sys4 = a_binomial_system(PatternSpec.ap(4))
        assert 300 * 304 + 301 > sets._WITNESS_BLOCK
        for block in (sets._WITNESS_BLOCK, 4096, 91501, 91502):
            monkeypatch.setattr(sets, "_WITNESS_BLOCK", block)
            w = verify_solution_free(s, sys4)
            assert str(w) == "(1000000000, 1000000000, 1001000000, 1003000000)", block

    def test_trivial_witness_is_a_self_check_error(self, monkeypatch):
        monkeypatch.setattr(sets, "is_trivial_solution", lambda system, values: True)
        with pytest.raises(SelfCheckError, match="trivial solution"):
            verify_solution_free(ResidueSet(100, (0, 1, 2, 3)), a_binomial_system(PatternSpec.ap(4)))

    def test_count_without_a_nontrivial_match_is_a_self_check_error(self, monkeypatch):
        monkeypatch.setattr(sets, "trivial_solution_count", lambda system, t: 0)
        with pytest.raises(SelfCheckError, match="none is nontrivial"):
            verify_solution_free(ResidueSet(100, (0, 1, 2)), a_binomial_system(PatternSpec.ap(4)))

    def test_abba_matches_naive(self):
        # for AP4 the zero-sum partitions are {0123} and {03}{12}, and
        # n1 = n2 = n3 = n4 is an (a, b, b, a) too, so "nontrivial" and
        # "not of the form (a, b, b, a)" give the same verdict and witness
        rng = random.Random(21)
        sys4 = a_binomial_system(PatternSpec.ap(4))
        for _ in range(25):
            m = rng.randint(12, 60)
            size = rng.randint(1, 7)
            s = ResidueSet(m, tuple(rng.sample(range(m), size)))
            got = verify_solution_free(s, sys4)
            expect = oracles.naive_solution_free(s.elements, sys4.e, m, "abba_only")
            assert got == expect

    def test_budget(self, lower_budget):
        lower_budget("verify_half", 1000)
        s = ResidueSet(10**6, tuple(range(500)))
        with pytest.raises(BudgetExceededError):
            verify_solution_free(s, a_binomial_system(PatternSpec.ap(4)))


AP4 = a_binomial_system(PatternSpec.ap(4))
AP5 = a_binomial_system(PatternSpec.ap(5))


def digit_numbers(base, digits, count):
    """The first ``count`` numbers whose base-``base`` digits all lie in
    ``digits`` (a set of digits that holds 0), in increasing order: the
    base-|digits| expansion of i, read digit by digit through the sorted
    digits in base ``base``."""
    alphabet = sorted(digits)
    out = []
    for i in range(count):
        x, place = 0, 1
        while i:
            i, j = divmod(i, len(alphabet))
            x += alphabet[j] * place
            place *= base
        out.append(x)
    return tuple(out)


class TestDigitProof:
    """``verify_solution_free`` returns None from the digit proof alone only
    where the proof holds; every other set goes to meet in the middle."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: base9_set(48, 36 * 48**2 + 1),  # thm2_6 at ell = 1
            lambda: base9_set(144, 36 * 144**2 + 1),  # thm2_6 at ell = 2
            lambda: greedy_solution_free_set(AP4, 9216, 48).set,  # thm2_7
            lambda: greedy_solution_free_set(AP4, 20736, 72).set,  # lemma7_10
        ],
        ids=["thm2_6-ell1", "thm2_6-ell2", "thm2_7", "lemma7_10"],
    )
    def test_proves_the_ap4_chain_sets(self, build):
        # base 9 = 4 * 2 + 1, digits {0, 1, 2}, m > 4 max(S)
        S = build()
        assert _digit_proof(S, AP4)
        assert verify_solution_free(S, AP4) is None

    @pytest.mark.parametrize(
        "build, system",
        [
            # thm2_5: base-5 digits {0, 1}, but 5 <= 8 = M
            (lambda: greedy_solution_free_set(AP5, 10000, 25).set, AP5),
            # 3 elements: 3^4 column tuples exceed the 3^2 of a half table
            (lambda: ResidueSet(100, (0, 1, 2)), AP4),
            (lambda: ResidueSet(50, (7,)), AP4),
            (lambda: ResidueSet(10, ()), AP4),
        ],
        ids=["thm2_5", "three", "singleton", "empty"],
    )
    def test_leaves_these_free_sets_to_meet_in_the_middle(self, build, system):
        S = build()
        assert not _digit_proof(S, system)
        assert verify_solution_free(S, system) is None

    @pytest.mark.parametrize(
        "S",
        [
            # an element with digit 3: (0, 1, 2, 3) is a progression
            ResidueSet(10**6, digit_numbers(9, {0, 1, 2}, 15) + (3,)),
            # base 5 = M * 1 + 1 read with the digit 2: 0 + 3*2 = 6 carries
            ResidueSet(49, (0, 1, 2, 5, 6, 7, 12)),
            # m = M max(S): (x, 0, x, 0) with x = max(S) wraps to 4x = 0
            ResidueSet(4 * 20, digit_numbers(9, {0, 1, 2}, 9)),
            # base-4 digits {0, 1}, and 4 = M max(A): 4 + 3*0 = 1 + 3*1 carries
            ResidueSet(100, digit_numbers(4, {0, 1}, 4)),
        ],
        ids=["digit-3", "digit-2-in-base-5", "m-equals-M-max-S", "B-equals-M-max-A"],
    )
    def test_sets_past_each_condition_are_not_claimed_free(self, S):
        assert not _digit_proof(S, AP4)
        witness = verify_solution_free(S, AP4)
        assert witness is not None
        assert witness == oracles.naive_solution_free(S.elements, AP4.e, S.modulus)

    def test_proves_a_set_past_the_verify_half_budget(self):
        # 4,473 elements: the half tables would need 4473^2 = 20,007,729
        # sums, over the cap, but the digits prove the set free
        S = ResidueSet(38_290_401, digit_numbers(9, {0, 1, 2}, 4473))
        assert S.modulus == 4 * S.elements[-1] + 1
        assert verify_solution_free(S, AP4) is None
        # 12 has the base-9 digit 3, so the set is left to the budget
        T = ResidueSet(S.modulus, tuple(sorted(set(S.elements) - {9} | {12})))
        with pytest.raises(BudgetExceededError, match="^budget verify_half exceeded: needs 20007729, cap 20000000$"):
            verify_solution_free(T, AP4)

    def test_agrees_with_meet_in_the_middle_up_to_100_elements(self, monkeypatch):
        # digit sets of t <= 100 elements, in bases at and around M d + 1,
        # moduli at and around M max(S); meet in the middle alone is the
        # reference (checked against the naive scan above)
        rng = random.Random(33)
        systems = [a_binomial_system(PatternSpec.from_string(a)) for a in ("0,1,2", "0,1,2,3", "0,1,3", "0,1,2,3,4")]
        cases = []
        for _ in range(60):
            system = rng.choice(systems)
            mass = sum(c for c in system.e if c > 0)
            d = rng.randint(1, 3)
            base = max(d + 1, mass * d + rng.randint(-1, 1))
            digits = {0, *rng.sample(range(1, d + 1), rng.randint(1, d))}
            pool = digit_numbers(base, digits, 200)
            elements = tuple(rng.sample(pool, rng.randint(1, 100)))
            top = max(elements)
            m = max(top + 1, mass * top + rng.randint(-2, 2 * top))
            cases.append((ResidueSet(m, elements), system))
        got = [verify_solution_free(S, system) for S, system in cases]
        proved = sum(_digit_proof(S, system) for S, system in cases)
        monkeypatch.setattr(sets, "_digit_proof", lambda S, system: False)
        assert got == [verify_solution_free(S, system) for S, system in cases]
        assert 0 < proved < len(cases)
