import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from aplab import colorings, scan
from aplab.colorings import (
    CYCLIC,
    INTERVAL,
    Coloring,
    Z22_COLORING,
    _least_hit,
    coloring_from_text,
    coloring_to_text,
    search_coloring,
    tensor_power,
    verify_abab_abba_free,
    verify_binomial_pattern_free,
    verify_mono_pattern_free,
    verify_sym_a_ap_free,
    verify_symmetric_ap_free,
)
from aplab.errors import BudgetExceededError, FormatError
from aplab.patterns import (
    PatternSpec,
    a_binomial_system,
    a_coefficients,
    enumerate_pairings,
    zero_sum_subsets,
)
from aplab.scan import predicate_clauses


def z22():
    return Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))


def random_coloring(rng, ambient=CYCLIC, n_max=30, r_max=6):
    n = rng.randint(5, n_max)
    r = rng.randint(1, min(r_max, n))
    ids = [rng.randint(1, r) for _ in range(n)]
    return Coloring.from_raw(ambient, ids)


class TestColoringType:
    def test_dense_ids_required(self):
        with pytest.raises(ValueError):
            Coloring(CYCLIC, (1, 3))  # id 2 missing
        with pytest.raises(ValueError):
            Coloring(CYCLIC, (0, 1))
        with pytest.raises(ValueError):
            Coloring("ring", (1,))

    def test_from_raw_relabels(self):
        c = Coloring.from_raw(CYCLIC, ["x", "y", "x", "z"])
        assert c.colors == (1, 2, 1, 3)
        assert c.r == 3

    def test_round_trip_base36(self):
        c = z22()
        text = coloring_to_text(c)
        assert text.splitlines()[2] == Z22_COLORING
        assert coloring_from_text(text) == c

    def test_round_trip_wide(self):
        c = Coloring.from_raw(CYCLIC, list(range(40)))
        assert coloring_from_text(coloring_to_text(c)) == c

    @pytest.mark.parametrize("r", [36, 37, 100, 1000, 1234])
    @pytest.mark.parametrize("ambient", [CYCLIC, INTERVAL])
    def test_wide_text_matches_the_decimal_join(self, r, ambient):
        # every id 1..r once, then 3r more drawn at random, shuffled
        rng = random.Random(r)
        ids = list(range(1, r + 1)) + [rng.randint(1, r) for _ in range(3 * r)]
        rng.shuffle(ids)
        c = Coloring(ambient, tuple(ids))
        text = coloring_to_text(c)
        body = " ".join(str(x) for x in ids)
        assert text == f"{ambient}\n{len(ids)} {r}\n{body}\n"
        assert coloring_from_text(text) == c

    def test_format_errors(self):
        with pytest.raises(FormatError):
            coloring_from_text("cyclic\n3 2\n12")  # wrong length
        with pytest.raises(FormatError) as ei:
            coloring_from_text("orbit\n2 1\n11")
        assert ei.value.line == 1
        with pytest.raises(FormatError):
            coloring_from_text("cyclic\n2 5\n11")  # r mismatch


class TestSymmetricVerifier:
    def test_bundled_z22(self):
        assert verify_symmetric_ap_free(z22(), 4) is None

    def test_constant_rejected(self):
        c = Coloring(CYCLIC, (1,) * 8)
        w = verify_symmetric_ap_free(c, 4)
        assert w is not None and (w.n, w.d) == (0, 1)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_all_distinct_odd_modulus(self, n):
        c = Coloring(CYCLIC, tuple(range(1, n + 1)))
        assert verify_symmetric_ap_free(c, 4) is None
        assert oracles.naive_symmetric_witness(c.colors, CYCLIC, range(4)) is None

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            verify_symmetric_ap_free(z22(), 5)

    @pytest.mark.parametrize("ambient", [CYCLIC, INTERVAL])
    @pytest.mark.parametrize("k", [4, 6])
    def test_matches_naive_oracle(self, ambient, k):
        rng = random.Random(k * 101 + (ambient == CYCLIC))
        for _ in range(25):
            c = random_coloring(rng, ambient)
            w = verify_symmetric_ap_free(c, k)
            expect = oracles.naive_symmetric_witness(c.colors, ambient, range(k))
            if expect is None:
                assert w is None
            else:
                assert w is not None and (w.n, w.d) == expect
                # witness re-verifies: the recorded points violate the predicate
                assert all(
                    w.colors[i] == w.colors[k - 1 - i] for i in range(k // 2)
                )


class TestSymmetricSpecVerifier:
    def test_plain_spec_equals_k_verifier(self):
        rng = random.Random(5)
        spec = PatternSpec.ap(4)
        for _ in range(20):
            c = random_coloring(rng)
            w1 = verify_symmetric_ap_free(c, 4)
            w2 = verify_sym_a_ap_free(c, spec)
            assert (w1 is None) == (w2 is None)
            if w1 is not None:
                assert (w1.n, w1.d) == (w2.n, w2.d)

    def test_z22_passes_plain_spec(self):
        assert verify_sym_a_ap_free(z22(), PatternSpec.ap(4)) is None

    def test_constant_rejected_any_symmetric_spec(self):
        c = Coloring(INTERVAL, (1,) * 15)
        assert verify_sym_a_ap_free(c, PatternSpec((0, 2, 3, 5))) is not None

    def test_matches_naive_on_general_spec(self):
        rng = random.Random(9)
        spec = PatternSpec((0, 1, 3, 4))
        for _ in range(20):
            c = random_coloring(rng, INTERVAL)
            w = verify_sym_a_ap_free(c, spec)
            expect = oracles.naive_symmetric_witness(c.colors, INTERVAL, spec.a)
            assert (w is None) == (expect is None)
            if w is not None:
                assert (w.n, w.d) == expect

    def test_asymmetric_spec_rejected(self):
        with pytest.raises(ValueError):
            verify_sym_a_ap_free(z22(), PatternSpec((0, 1, 2, 4)))


class TestMonoPatternVerifier:
    def test_all_distinct_passes(self):
        c = Coloring(CYCLIC, tuple(range(1, 13)))
        assert verify_mono_pattern_free(c, 4) is None

    def test_constant_rejected(self):
        c = Coloring(CYCLIC, (1,) * 9)
        assert verify_mono_pattern_free(c, 3) is not None

    def test_block_coloring_z8(self):
        c = Coloring(CYCLIC, (1, 1, 2, 2, 1, 1, 2, 2))
        w = verify_mono_pattern_free(c, 4)
        expect = oracles.naive_mono_pattern_witness(c.colors, CYCLIC, 4)
        assert (w is None) == (expect is None)
        if w is not None:
            assert w.points == expect[:3]

    @pytest.mark.parametrize("ambient", [CYCLIC, INTERVAL])
    def test_matches_naive_oracle(self, ambient):
        rng = random.Random(31 + (ambient == CYCLIC))
        for _ in range(15):
            c = random_coloring(rng, ambient, n_max=18, r_max=4)
            w = verify_mono_pattern_free(c, 4)
            expect = oracles.naive_mono_pattern_witness(c.colors, ambient, 4)
            assert (w is None) == (expect is None)
            if w is not None:
                assert w.points == expect[:3]
                assert (w.detail["a"], w.detail["b"]) == expect[3:]


class TestBinomialVerifier:
    def test_plain_4_spec_equals_symmetric(self):
        rng = random.Random(77)
        spec = PatternSpec.ap(4)
        for _ in range(30):
            c = random_coloring(rng)
            w1 = verify_binomial_pattern_free(c, spec)
            w2 = verify_symmetric_ap_free(c, 4)
            assert (w1 is None) == (w2 is None)
            if w1 is not None:
                assert (w1.n, w1.d) == (w2.n, w2.d)

    def test_z22_passes(self):
        assert verify_binomial_pattern_free(z22(), PatternSpec.ap(4)) is None

    def test_constant_rejected_whole_set_clause_odd_k(self):
        c = Coloring(CYCLIC, (1,) * 11)
        w = verify_binomial_pattern_free(c, PatternSpec.ap(5))
        assert w is not None
        assert w.detail["clause"] == "subset"
        assert w.detail["subset"] == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("ambient", [CYCLIC, INTERVAL])
    @pytest.mark.parametrize("a", [(0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 6, 7, 8)])
    def test_matches_naive_oracle(self, ambient, a):
        rng = random.Random(len(a) * 13 + (ambient == CYCLIC))
        spec = PatternSpec(a)
        coeffs = a_coefficients(spec)
        e = a_binomial_system(spec).e
        # the clause list in its documented order: pairings, then subsets
        clauses = [("pairing", p.pairs) for p in enumerate_pairings(spec)] if len(a) % 2 == 0 else []
        clauses += [("subset", idx) for idx in zero_sum_subsets(a_binomial_system(spec))]

        def holds(clause, cs):
            kind, data = clause
            if kind == "pairing":
                return all(cs[i] == cs[j] for i, j in data)
            return len({cs[i] for i in data}) == 1

        for _ in range(12):
            c = random_coloring(rng, ambient, n_max=24, r_max=5)
            w = verify_binomial_pattern_free(c, spec)
            expect = oracles.naive_binomial_witness(c.colors, ambient, a, coeffs, e)
            assert (w is None) == (expect is None), (c, a)
            if w is not None:
                assert (w.n, w.d) == expect
                named = (w.detail["clause"], w.detail[w.detail["clause"]])
                first = clauses.index(named)
                assert holds(named, w.colors)
                assert not any(holds(cl, w.colors) for cl in clauses[:first])

    def test_product_with_pattern_free_factor_spec6(self):
        # length-6 check on the bundled coloring refined by a pattern-free
        # factor: behrend_set(22, 6) = {0}, so every point has its own color;
        # compare against the naive scan
        c = Coloring(CYCLIC, tuple(range(1, 23)))
        spec = PatternSpec.ap(6)
        w = verify_binomial_pattern_free(c, spec)
        expect = oracles.naive_binomial_witness(
            c.colors, CYCLIC, spec.a, a_coefficients(spec), a_binomial_system(spec).e
        )
        assert (w is None) == (expect is None)
        if w is not None:
            assert (w.n, w.d) == expect


class TestClausePruning:
    @staticmethod
    def first_holding(clauses, tuples):
        """Index of the first clause that holds on each row of ``tuples``;
        len(clauses) where none holds."""
        first = np.full(len(tuples), len(clauses))
        for idx in reversed(range(len(clauses))):
            kind, data = clauses[idx]
            pairs = data if kind == "pairing" else [(data[0], i) for i in data[1:]]
            first[np.all([tuples[:, i] == tuples[:, j] for i, j in pairs], axis=0)] = idx
        return first

    @pytest.mark.parametrize(
        "a",
        [
            (0, 1, 2, 3),
            (0, 1, 2, 3, 4),
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 4),
            (0, 1, 3, 4),
            (0, 2, 3, 7),
            (1, 2, 3, 6, 7, 8),
        ],
    )
    def test_pruning_keeps_or_and_first_clause(self, a):
        spec = PatternSpec(a)
        k = spec.k
        full = [("pairing", p.pairs) for p in enumerate_pairings(spec)] if k % 2 == 0 else []
        full += [("subset", idx) for idx in zero_sum_subsets(a_binomial_system(spec))]
        pruned = predicate_clauses(spec, "binomial")
        at = [full.index(cl) for cl in pruned]
        assert at == sorted(at)
        # every color tuple in {1..k}^k
        tuples = np.array(list(itertools.product(range(1, k + 1), repeat=k)))
        want = self.first_holding(full, tuples)
        got = np.array(at + [len(full)])[self.first_holding(pruned, tuples)]
        assert np.array_equal(got, want)

    def test_ap4_binomial_is_one_pairing(self):
        assert predicate_clauses(PatternSpec.ap(4), "binomial") == [("pairing", ((0, 3), (1, 2)))]
        assert len(zero_sum_subsets(a_binomial_system(PatternSpec.ap(4)))) == 1

    @pytest.mark.parametrize("predicate", ["binomial", "symmetric", "mono"])
    def test_mutating_a_returned_list_leaves_the_next_call(self, predicate):
        spec = PatternSpec((0, 1, 2, 3, 4, 5))
        first = predicate_clauses(spec, predicate)
        want = list(first)
        first.append(("subset", (0, 1, 2)))
        first.pop(0)
        assert predicate_clauses(spec, predicate) == want

    @pytest.mark.parametrize("name", ["pairing_k", "subset_k"])
    def test_lowered_budget_refuses_a_compiled_predicate(self, lower_budget, name):
        spec = PatternSpec.ap(6)
        predicate_clauses(spec, "binomial")
        lower_budget(name, 5)
        with pytest.raises(BudgetExceededError, match=f"budget {name} exceeded: needs 6, cap 5"):
            predicate_clauses(spec, "binomial")


class TestAbabVerifier:
    def test_constant_rejected(self):
        c = Coloring(CYCLIC, (1,) * 10)
        assert verify_abab_abba_free(c, 5) is not None

    def test_matches_naive(self):
        rng = random.Random(51)
        for _ in range(12):
            c = random_coloring(rng, CYCLIC, n_max=50, r_max=5)
            w = verify_abab_abba_free(c, 6)
            expect = oracles.naive_abab_witness(c.colors, CYCLIC, 6)
            assert (w is None) == (expect is None)
            if w is not None:
                assert (w.n, w.d, w.detail["quad"]) == expect

    def test_no_scan_follows_a_hit_at_0_1(self, monkeypatch):
        # (0, 1) is the least (n, d) an unsigned scan returns, so the quad
        # loop stops there; a witness elsewhere scans every quad
        base = Coloring.from_raw(CYCLIC, [Z22_COLORING[(5 * n + 3) % 22] for n in range(22)])
        far = Coloring.from_raw(CYCLIC, [int(x) for x in "123443211333111344142423333"])
        cases = [
            (tensor_power(base, 2), 8, (0, 1), 6),
            (Coloring(CYCLIC, (1,) * 10), 5, (0, 1), 1),
            (Coloring(INTERVAL, (1, 2) * 9), 8, (0, 1), 1),
            (far, 8, (0, 2), 70),
        ]
        real = colorings._least_hit
        for c, a_bound, nd, calls in cases:
            hits = []
            monkeypatch.setattr(
                colorings, "_least_hit", lambda *a, **kw: hits.append(real(*a, **kw)) or hits[-1]
            )
            w = verify_abab_abba_free(c, a_bound)
            assert (w.n, w.d) == nd and len(hits) == calls
            at = [i for i, h in enumerate(hits) if h is not None and h[:2] == (0, 1)]
            assert at in ([], [len(hits) - 1])
            if c.n <= 30:
                # the witness is the least over every quad
                assert (w.n, w.d, w.detail["quad"]) == oracles.naive_abab_witness(
                    c.colors, c.ambient, a_bound
                )


def _loop_hit(coloring, offsets, clauses, signed=False, bound=None):
    """The one-pass-per-difference scan, restricted to hits below ``bound``."""
    hit = oracles.loop_least_hit(coloring, offsets, clauses, signed)
    return hit if hit is None or bound is None or hit[:2] < bound else None


def _whole(w):
    """A witness with its detail, which ``Witness.__eq__`` leaves out."""
    return None if w is None else (w, w.detail)


class TestBlockedScan:
    """The blocked ``_least_hit`` and the verifiers built on it against the
    one-pass-per-difference loop they replaced, ``oracles.loop_least_hit``:
    equal (n, d), clause, witness and detail."""

    SPECS = [
        (PatternSpec.ap(4), "symmetric"),
        (PatternSpec.ap(6), "symmetric"),
        (PatternSpec.ap(4), "binomial"),
        (PatternSpec.ap(5), "binomial"),
        (PatternSpec((0, 1, 2, 4)), "binomial"),
        (PatternSpec((0, 2, 3, 7)), "binomial"),
        (PatternSpec((1, 2, 3, 6, 7, 8)), "binomial"),
        (PatternSpec.ap(5), "mono"),
    ]

    @staticmethod
    def cases():
        rng = random.Random(10)

        def colored(ambient, n, r):
            return Coloring.from_raw(ambient, [rng.randint(1, r) for _ in range(n)])

        out = []
        # cyclic N sharing factors with the offsets, and N = 1, 2
        out += [colored(CYCLIC, n, r) for n in (1, 2, 6, 12, 14, 21, 28) for r in (2, 3)]
        out += [colored(CYCLIC, 42, 12), colored(CYCLIC, 60, 30)]
        # interval colorings too short for some offsets: no valid d
        out += [colored(INTERVAL, n, 2) for n in (1, 2, 3, 5, 7)]
        out += [colored(INTERVAL, n, r) for n in (30, 64) for r in (3, 20)]
        # several blocks: 2^17 // N rows each, the last one short; a large
        # palette puts the least hit in a later block, r >= 256 takes uint16
        out += [colored(amb, 363, 120) for amb in (CYCLIC, INTERVAL)]
        out += [colored(amb, 1000, r) for amb in (CYCLIC, INTERVAL) for r in (40, 300)]
        return out

    def test_least_hit_matches_loop(self):
        for c in self.cases():
            for spec, predicate in self.SPECS:
                offsets = spec.normalized().a
                clauses = predicate_clauses(spec, predicate)
                for signed in (False, True):
                    want = oracles.loop_least_hit(c, offsets, clauses, signed)
                    got = _least_hit(c, offsets, clauses, signed)
                    assert got == want, (c.ambient, c.n, spec, predicate, signed)

    def test_bound_keeps_only_smaller_hits(self):
        rng = random.Random(11)
        spec = PatternSpec((0, 2, 3, 7))
        offsets = spec.normalized().a
        clauses = predicate_clauses(spec, "binomial")
        seen = 0
        for c in self.cases():
            hit = oracles.loop_least_hit(c, offsets, clauses, signed=True)
            if hit is None:
                continue
            n, d = hit[:2]
            # equal, just above and just below the least hit, and far off
            bounds = [(n, d), (n, d + 1), (n, d - 1), (n + 1, -c.n), (max(n - 1, 0), c.n)]
            bounds.append((rng.randrange(c.n), rng.randrange(-c.n, c.n)))
            for bound in bounds:
                got = _least_hit(c, offsets, clauses, True, bound=bound)
                assert got == _loop_hit(c, offsets, clauses, True, bound), (c.n, hit, bound)
                seen += got is not None
        assert seen

    @pytest.mark.parametrize("a, d_neg", [((0, 1, 2, 4), 200), ((0, 2, 3, 7), 140)])
    def test_signed_scan_puts_negative_d_first(self, a, d_neg):
        # interval N = 1000: -d_neg lies in the second block of the negative
        # differences; every color is distinct except the planted progressions
        spec = PatternSpec(a)
        offsets = spec.normalized().a
        clauses = predicate_clauses(spec, "binomial")
        n0 = offsets[-1] * d_neg + 5

        def planted(*nds):
            ids = list(range(1000))
            for n, d in nds:
                for group in scan._groups(clauses[0]):
                    for i in group:
                        # plants sharing a start point share its label
                        ids[n + offsets[i] * d] = (n, None if 0 in group else d, group)
            return Coloring.from_raw(INTERVAL, ids)

        for c, want in [
            (planted((n0, 2), (n0, -d_neg)), (n0, -d_neg)),
            (planted((n0, 2), (n0 + 1, -d_neg)), (n0, 2)),
            # two hits in one column of one block: the later row has the least d
            (planted((n0, 1 - d_neg), (n0, -d_neg)), (n0, -d_neg)),
        ]:
            hit = _least_hit(c, offsets, clauses, signed=True)
            assert hit == oracles.loop_least_hit(c, offsets, clauses, signed=True)
            assert hit[:2] == want

    @pytest.fixture
    def loop_scan(self, monkeypatch):
        """Runs a verifier with the loop in place of the blocked scan."""

        def run(verify, *args):
            with monkeypatch.context() as m:
                m.setattr(colorings, "_least_hit", _loop_hit)
                return verify(*args)

        return run

    def test_verifiers_match_loop(self, loop_scan):
        calls = [
            (verify_symmetric_ap_free, 4),
            (verify_symmetric_ap_free, 6),
            (verify_sym_a_ap_free, PatternSpec((0, 1, 3, 4))),
            (verify_binomial_pattern_free, PatternSpec.ap(4)),
            (verify_binomial_pattern_free, PatternSpec((0, 1, 2, 4))),
            (verify_binomial_pattern_free, PatternSpec((0, 2, 3, 7))),
            (verify_binomial_pattern_free, PatternSpec((1, 2, 3, 6, 7, 8))),
        ]
        for c in self.cases():
            for verify, arg in calls:
                assert _whole(verify(c, arg)) == _whole(loop_scan(verify, c, arg)), (c, arg)

    def test_abab_matches_loop_with_ties(self, loop_scan):
        abab, abba = ("pairing", ((0, 2), (1, 3))), ("pairing", ((0, 3), (1, 2)))
        cases = [c for c in self.cases() if c.n <= 363]
        cases += [Coloring(CYCLIC, (1,) * 10), Coloring(INTERVAL, (1, 2) * 9)]
        ties = 0
        for c in cases:
            for a_bound in (4, 5, 8):
                got = verify_abab_abba_free(c, a_bound)
                assert _whole(got) == _whole(loop_scan(verify_abab_abba_free, c, a_bound))
                if got is None:
                    continue
                # quads reaching the witness's (n, d); the first one is reported
                tied = []
                for q in itertools.combinations(range(1, a_bound + 1), 4):
                    clauses = [abab, abba] if q[0] + q[3] != q[1] + q[2] else [abab]
                    hit = oracles.loop_least_hit(c, tuple(x - q[0] for x in q), clauses)
                    if hit is not None and hit[:2] == (got.n, got.d):
                        tied.append(q)
                assert tied[0] == got.detail["quad"]
                ties += len(tied) > 1
        assert ties

    def test_benchmark_cube_and_square(self, loop_scan):
        # the Z/22Z coloring under n -> 5n + 3, as the benchmark builds its
        # cube (N = 10648) and square (N = 484)
        base = Coloring.from_raw(CYCLIC, [Z22_COLORING[(5 * n + 3) % 22] for n in range(22)])
        cube, square = tensor_power(base, 3), tensor_power(base, 2)
        for verify, c, arg in [
            (verify_symmetric_ap_free, cube, 4),
            (verify_binomial_pattern_free, cube, PatternSpec.ap(4)),
            (verify_abab_abba_free, square, 8),
        ]:
            # the levelled cube is counted; the loop scans its flat copy
            flat = Coloring(CYCLIC, c.colors)
            assert _whole(verify(c, arg)) == _whole(loop_scan(verify, flat, arg))


def _no_scan(*args, **kwargs):
    raise AssertionError("the flat scan ran")


def _no_count(*args, **kwargs):
    raise AssertionError("the carry automaton ran")


class TestCountedFreeness:
    """Cyclic colorings with two or more digit levels are decided by the
    carry automaton's count, D exactly when free; the witness of a count
    above D, and every other coloring, come from the flat scan."""

    CALLS = [
        (verify_symmetric_ap_free, 4),
        (verify_sym_a_ap_free, PatternSpec((0, 1, 3, 4))),
        (verify_binomial_pattern_free, PatternSpec.ap(4)),
        (verify_binomial_pattern_free, PatternSpec((0, 1, 2, 4))),
    ]

    def test_free_fourth_power_without_a_scan(self, monkeypatch):
        # D = 22^4 = 234,256, where the flat scan would read D^2 = 5.5e10
        # (n, d) pairs
        power = tensor_power(z22(), 4)
        monkeypatch.setattr(colorings, "_least_hit", _no_scan)
        assert verify_symmetric_ap_free(power, 4) is None
        assert verify_sym_a_ap_free(power, PatternSpec.ap(4)) is None
        assert verify_binomial_pattern_free(power, PatternSpec.ap(4)) is None

    @pytest.mark.parametrize("ell", [2, 3])
    def test_free_powers_without_a_scan(self, monkeypatch, ell):
        # the flat copy is scanned free under every call, the power is
        # decided by the count alone
        power = tensor_power(Coloring(CYCLIC, (1, 2, 3)), ell)
        flat = Coloring(CYCLIC, power.colors)
        assert all(verify(flat, arg) is None for verify, arg in self.CALLS)
        monkeypatch.setattr(colorings, "_least_hit", _no_scan)
        assert all(verify(power, arg) is None for verify, arg in self.CALLS)

    @pytest.mark.parametrize(
        "base,ell", [((1, 2, 1, 3), 2), ((1, 2), 3), ((1, 1, 2), 2), ((1, 2, 3), 2), ((1, 2, 2, 1), 2)]
    )
    def test_count_is_D_plus_the_nontrivial_hits(self, base, ell):
        # the d = 0 row is the D constant tuples; each (n, d != 0) at which
        # a clause holds adds one
        power = tensor_power(Coloring.from_raw(CYCLIC, base), ell)
        D = power.n
        for spec, predicate in [
            (PatternSpec.ap(4), "symmetric"),
            (PatternSpec((0, 1, 3, 4)), "symmetric"),
            (PatternSpec((0, 1, 2, 4)), "binomial"),
        ]:
            clauses = predicate_clauses(spec, predicate)
            hits = sum(
                bool(scan.eval_clauses(clauses, [power.colors[(n + a * d) % D] for a in spec.a]))
                for n in range(D)
                for d in range(1, D)
            )
            start = ((0,) * spec.k, Fraction(1))
            assert scan.carry_count(power.levels, spec.a, (start,), clauses) * D * D == D + hits

    def test_witness_at_half_the_modulus(self):
        # the tensor square of (1, 2, 1, 3) (D = 16): its least symmetric
        # witness has 2d = 0 mod D, points n, n + d, n, n + d
        power = tensor_power(Coloring(CYCLIC, (1, 2, 1, 3)), 2)
        w = verify_symmetric_ap_free(power, 4)
        assert (w.n, w.d) == (0, 8) and 2 * w.d % power.n == 0
        assert w == verify_symmetric_ap_free(Coloring(CYCLIC, power.colors), 4)
        assert (w.n, w.d) == oracles.naive_symmetric_witness(power.colors, CYCLIC, range(4))

    @pytest.mark.parametrize("base", [Z22_COLORING, "1213"])
    def test_interval_with_levels_is_scanned(self, monkeypatch, base):
        power = tensor_power(Coloring(CYCLIC, tuple(int(ch) for ch in base)), 2)
        interval = Coloring(INTERVAL, power.colors, power.levels)
        plain = Coloring(INTERVAL, power.colors)
        want = [_whole(verify(plain, arg)) for verify, arg in self.CALLS]
        monkeypatch.setattr(colorings, "carry_count", _no_count)
        assert [_whole(verify(interval, arg)) for verify, arg in self.CALLS] == want
        assert want[0] is None if base == Z22_COLORING else want[0] is not None

    def test_one_level_is_scanned(self, monkeypatch):
        single = tensor_power(z22(), 1)
        assert len(single.levels) == 1
        monkeypatch.setattr(colorings, "carry_count", _no_count)
        assert verify_symmetric_ap_free(single, 4) is None


class TestConstructions:
    def test_tensor_identity_up_to_relabel(self):
        c = z22()
        t = tensor_power(c, 1)
        # same partition into classes
        assert [t.colors[i] == t.colors[j] for i in range(22) for j in range(22)] == [
            c.colors[i] == c.colors[j] for i in range(22) for j in range(22)
        ]

    def test_tensor_square_of_bundled(self):
        t = tensor_power(z22(), 2)
        assert (t.n, t.r) == (484, 9)
        assert verify_symmetric_ap_free(t, 4) is None

    def test_tensor_preserves_witnesses(self):
        c = Coloring(CYCLIC, (1, 2, 1, 2))
        if verify_symmetric_ap_free(c, 4) is not None:
            t = tensor_power(c, 2)
            assert verify_symmetric_ap_free(t, 4) is not None

    def test_tensor_cap(self):
        with pytest.raises(BudgetExceededError):
            tensor_power(z22(), 6)

    def test_tensor_needs_cyclic(self):
        with pytest.raises(ValueError):
            tensor_power(Coloring(INTERVAL, (1, 2)), 2)

    def test_all_distinct_interval_passes_everything(self):
        for n in (10, 30, 50):
            c = Coloring(INTERVAL, tuple(range(1, n + 1)))
            assert verify_symmetric_ap_free(c, 4) is None
            assert verify_mono_pattern_free(c, 5) is None
            assert verify_binomial_pattern_free(c, PatternSpec.ap(4)) is None
            assert verify_abab_abba_free(c, 6) is None


# symmetric offsets: a_i + a_{k-1-i} is the same for every i
SYMMETRIC_OFFSETS = [
    (0, 1, 2, 3),
    (0, 1, 3, 4),
    (0, 2, 3, 5),
    (0, 1, 4, 5),
    (0, 3, 4, 7),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 3, 5, 7, 8),
]


class TestSearch:
    def test_bundled_size_is_reachable(self):
        res = search_coloring(22, 4, 3)
        assert res.status == "found"
        assert verify_symmetric_ap_free(res.coloring, 4) is None

    def test_two_colors_refuted_at_22(self):
        assert search_coloring(22, 4, 2).status == "none_exists"

    def test_single_color_tiny(self):
        assert search_coloring(4, 4, 1).status == "none_exists"

    def test_budget_exhaustion_distinct_from_refutation(self):
        res = search_coloring(22, 4, 3, budget=5)
        assert res.status == "exhausted"

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("budget", [0, 5])
    def test_exhausted_search_reports_its_budget(self, mode, budget):
        res = search_coloring(22, 4, 3, mode=mode, budget=budget, seed=0)
        assert (res.status, res.nodes) == ("exhausted", budget)

    def test_completed_search_counts_are_budget_free(self):
        # a search that ends within its budget counts the same nodes as an
        # unbounded one, down to a budget of exactly that count
        for args, status, nodes in [((22, 4, 3), "found", 49), ((22, 4, 2), "none_exists", 169)]:
            for budget in (None, nodes, 10**6):
                res = search_coloring(*args, budget=budget)
                assert (res.status, res.nodes) == (status, nodes)
            assert search_coloring(*args, budget=nodes - 1).status == "exhausted"

    def test_oracle_equivalence_small(self):
        for n in range(4, 11):
            for r in (1, 2, 3):
                found = search_coloring(n, 4, r).status == "found"
                assert found == oracles.enumerate_satisfiable(n, r, 4), (n, r)

    def test_minimal_r_fixture(self):
        # minimal palette sizes for cyclic length-4 symmetric avoidance
        expected = {5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3, 12: 4}
        for n, r_min in expected.items():
            assert search_coloring(n, 4, r_min).status == "found"
            if r_min > 1:
                assert search_coloring(n, 4, r_min - 1).status == "none_exists"

    def test_randomized_mode(self):
        res = search_coloring(20, 4, 6, mode="randomized", seed=3)
        assert res.status == "found"
        assert verify_symmetric_ap_free(res.coloring, 4) is None
        again = search_coloring(20, 4, 6, mode="randomized", seed=3)
        assert again.coloring == res.coloring

    def test_randomized_exhaustion(self):
        res = search_coloring(12, 4, 1, mode="randomized", budget=20, seed=0)
        assert res.status == "exhausted"

    def test_randomized_zero_budget_runs_no_round(self):
        res = search_coloring(12, 4, 1, mode="randomized", budget=0, seed=0)
        assert (res.status, res.nodes) == ("exhausted", 0)

    def test_interval_search(self):
        res = search_coloring(10, 4, 3, ambient=INTERVAL)
        assert res.status == "found"
        assert verify_symmetric_ap_free(res.coloring, 4) is None

    def test_spec_search(self):
        spec = PatternSpec((0, 1, 3, 4))
        res = search_coloring(12, spec, 4)
        if res.status == "found":
            assert verify_sym_a_ap_free(res.coloring, spec) is None

    def test_exhaustive_cap(self):
        with pytest.raises(BudgetExceededError):
            search_coloring(100, 4, 3)

    @pytest.mark.parametrize("offsets", SYMMETRIC_OFFSETS)
    @pytest.mark.parametrize("ambient", [CYCLIC, INTERVAL])
    def test_always_violated_matches_the_scan(self, offsets, ambient):
        # the closed form against the (n, d) scan; a search there is refuted
        # at once, whatever r and the mode
        spec = PatternSpec(offsets).normalized()
        for n in range(1, 41):
            want = oracles.symmetric_always_violated(n, spec.a, ambient == CYCLIC)
            assert colorings._always_violated(n, spec, ambient) == want, n
            if want:
                for mode in ("exhaustive", "randomized"):
                    res = search_coloring(n, spec, n, ambient=ambient, mode=mode)
                    assert (res.status, res.coloring, res.nodes) == ("none_exists", None, 0)

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_size_below_one_is_refused(self, mode, n):
        with pytest.raises(ValueError, match="^N must be at least 1$"):
            search_coloring(n, 4, 3, mode=mode)

    @pytest.mark.parametrize("n", [9, 10], ids=["searchable", "always_violated"])
    def test_unknown_mode_is_refused(self, n):
        # (0, 1, 3, 4) at even N is decided without a search, but not for
        # a mode that does not exist
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            search_coloring(n, PatternSpec((0, 1, 3, 4)), 3, mode="bogus")
