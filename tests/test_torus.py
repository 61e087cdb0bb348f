import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from aplab import scan, torus
from aplab.colorings import CYCLIC, Coloring, Z22_COLORING, tensor_power
from aplab.errors import BudgetExceededError, SelfCheckError
from aplab.patterns import (
    PatternSpec,
    a_binomial_system,
    a_coefficients,
)
from aplab.scan import carry_count, predicate_clauses
from aplab.sets import ResidueSet, base9_set
from aplab.torus import (
    _frac,
    _sample_blocks,
    ConstantField,
    DiagonalStrip,
    SlabIndicator,
    TorusColoring,
    TorusSet,
    build_torus_set,
    certificate_width,
    interlace_k,
    interlace_m,
    lambda_tilde_certificate,
    lambda_tilde_mc,
    pattern_cells,
    pattern_probability_exact,
    pattern_probability_mc,
    sound_width,
    torus_coloring_from_text,
    torus_coloring_to_text,
    torus_set_from_text,
    torus_set_to_text,
)


def z22():
    return Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))


MC_BLOCK = inspect.signature(_sample_blocks).parameters["block"].default
# sample counts just below, at and just above the first block boundary
BOUNDARY = (MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1)
# the same for the batches of the draw in marked buckets, where every bucket
# is marked (each sample is drawn)
BUCKET_BOUNDARY = (torus._BUCKET_BATCH - 1, torus._BUCKET_BATCH, torus._BUCKET_BATCH + 1)


def random_torus_coloring(rng, d_max=40, r_max=6):
    D = rng.randint(2, d_max)
    r = rng.randint(2, min(r_max, D))
    ids = [rng.randint(1, r) for _ in range(D)]
    # ensure density of ids so r == max
    for j in range(r):
        ids[rng.randrange(D)] = j + 1
    return TorusColoring(tuple(ids))


class TestInterlacing:
    def test_single_point_base(self):
        phi = Coloring(CYCLIC, (1,))
        tc = interlace_k(phi, 4)
        assert tc.D == 16
        assert tc.r == 16
        assert len(set(tc.cell_colors)) == 16

    def test_bundled_coloring_dimensions(self):
        tc = interlace_k(z22(), 4)
        assert (tc.D, tc.r) == (352, 48)

    def test_block_digit_structure(self):
        # inside block a, cells cycle through the k phase palettes while the
        # base coloring advances once per k cells
        phi = z22()
        k, n = 4, phi.n
        tc = interlace_k(phi, k)
        for j in (0, 5, 87, 200, 351):
            a, rem = divmod(j, k * n)
            b, c = divmod(rem, k)
            assert tc.cell_colors[j] == (a * k + c) * phi.r + phi.colors[b]

    def test_interlace_m_step_lift(self):
        phi = z22()
        tc = interlace_m(phi, 1)
        assert tc.D == phi.n
        assert tc.cell_colors == phi.colors

    def test_interlace_m_phase_pattern(self):
        phi = Coloring(CYCLIC, (1, 2, 1))
        tc = interlace_m(phi, 2)
        r = phi.r
        assert tc.cell_colors == (1, 1 + r, 2, 2 + r, 1, 1 + r)

    def test_interlace_m_cap(self):
        import math

        with pytest.raises(BudgetExceededError):
            interlace_m(z22(), math.factorial(8))

    def test_round_trip(self):
        tc = interlace_k(z22(), 4)
        assert torus_coloring_from_text(torus_coloring_to_text(tc)) == tc

    @pytest.mark.parametrize("r", [1, 9, 10, 36, 999, 1000, 4321])
    def test_text_matches_the_decimal_join(self, r):
        # colors need not cover 1..r; the largest is r
        rng = random.Random(r)
        cells = [rng.randint(1, r) for _ in range(2 * r)] + [r]
        rng.shuffle(cells)
        for tc in (TorusColoring(tuple(cells)), TorusColoring(np.array(cells))):
            text = torus_coloring_to_text(tc)
            body = " ".join(str(c) for c in cells)
            assert text == f"{len(cells)} {r}\n{body}\n"
            assert torus_coloring_from_text(text) == tc

    def test_text_of_sparse_ids_past_the_cell_count(self):
        tc = TorusColoring((3, 10**12, 7))
        assert torus_coloring_to_text(tc) == f"3 {10**12}\n3 {10**12} 7\n"
        assert torus_coloring_from_text(torus_coloring_to_text(tc)) == tc

    def test_ids_past_int32_count_as_small_ones(self):
        spec = PatternSpec.ap(4)
        big, small = TorusColoring((1, 3 * 10**9, 1)), TorusColoring((1, 2, 1))
        for predicate in ("binomial", "symmetric", "mono"):
            want = pattern_probability_exact(small, spec, predicate)
            assert pattern_probability_exact(big, spec, predicate) == want
        assert pattern_probability_mc(big, spec, samples=1000) == pattern_probability_mc(
            small, spec, samples=1000
        )


class TestDigitLevels:
    def test_constructions_attach_their_levels(self):
        phase = (4, (0, 1, 2, 3))
        square = tensor_power(z22(), 2)
        assert square.levels == ((22, z22().colors),) * 2
        assert interlace_k(z22(), 4).levels == (phase, (22, z22().colors), phase)
        assert interlace_k(square, 4).levels == (phase, *square.levels, phase)
        assert interlace_m(square, 4).levels == (phase, *square.levels)

    def test_unstructured_colorings_carry_their_own_level(self):
        c = Coloring.from_raw(CYCLIC, [1, 2, 2, 3])
        assert c.levels == ((4, (1, 2, 2, 3)),)
        tc = interlace_k(z22(), 4)
        flat = torus_coloring_from_text(torus_coloring_to_text(tc))
        assert flat.levels == ((tc.D, tc.cell_colors),)

    def test_levels_take_no_part_in_equality(self):
        tc = interlace_k(z22(), 4)
        assert TorusColoring(tc.cell_colors) == tc
        assert hash(TorusColoring(tc.cell_colors)) == hash(tc)

    @pytest.mark.parametrize(
        "cells,levels",
        [
            # one digit color changed
            ((1, 2, 3, 4, 5, 6), ((2, (1, 2)), (3, (1, 2, 2)))),
            # digit colors coarser than the cells: two colors share a key
            ((1, 2, 3, 4), ((4, (1, 1, 2, 2)),)),
            # digit colors finer than the cells: one color has two keys
            ((1, 1, 2, 2), ((4, (1, 2, 3, 4)),)),
            # bases that do not multiply to D, a level of the wrong length
            ((1, 2, 3, 4), ((2, (1, 2)),)),
            ((1, 2, 3, 4), ((4, (1, 2, 3)),)),
        ],
    )
    def test_levels_that_disagree_with_the_cells_raise(self, cells, levels):
        with pytest.raises(SelfCheckError):
            TorusColoring(cells, levels)
        with pytest.raises(SelfCheckError):
            Coloring(CYCLIC, cells, levels)

    @pytest.mark.parametrize("predicate", ["binomial", "symmetric", "mono"])
    def test_one_level_takes_the_flat_scan(self, monkeypatch, predicate):
        # a hand-built one-level coloring: the flat scan gives the loop
        # oracle's value and the automaton's, which is not consulted
        rng = random.Random(11)
        cells = Coloring.from_raw(CYCLIC, [rng.randint(1, 3) for _ in range(30)]).colors
        tc = TorusColoring(cells, ((30, cells),))
        spec = PatternSpec.ap(4)
        counted = carry_count(tc.levels, spec.a, pattern_cells(spec), predicate_clauses(spec, predicate))
        monkeypatch.setattr(torus, "carry_count", lambda *a: pytest.fail("the automaton ran"))
        got = pattern_probability_exact(tc, spec, predicate)
        assert got == oracles.loop_pattern_probability(tc, spec, predicate) == counted

    def test_mutated_interlacing_raises(self):
        tc = interlace_k(tensor_power(z22(), 2), 4)
        (b, dc), *rest = tc.levels[1:]
        mutated = (tc.levels[0], (b, (dc[1], *dc[1:])), *rest)
        TorusColoring(tc.cell_colors, tc.levels)
        with pytest.raises(SelfCheckError):
            TorusColoring(tc.cell_colors, mutated)

    def test_weights_are_exact_past_2_to_63(self):
        # L D^2 = 2^61 * 2^2: the two positions share a color exactly when
        # q = 0, at half of the (p, q) pairs
        clauses = [("subset", (0, 1))]
        got = carry_count(((2, (1, 2)),), (0, 1), [((0, 0), Fraction(1, 2**61))], clauses)
        assert got == Fraction(1, 2**62)

    @pytest.mark.parametrize("ell", [6, 9])
    def test_thm2_6_levels_give_the_cell_collision_floor(self, ell):
        # the levels of interlace_k(tensor_power(z22(), ell), 4), where L D^2
        # is far above 2^63 (D = 16 * 22^ell)
        phase = (4, (0, 1, 2, 3))
        levels = (phase, *((22, z22().colors),) * ell, phase)
        spec = PatternSpec.ap(4)
        clauses = predicate_clauses(spec, "binomial")
        got = carry_count(levels, spec.a, pattern_cells(spec), clauses)
        assert got == Fraction(1, 3 * 16 * 22**ell)

    @pytest.mark.parametrize("predicate", ["binomial", "symmetric", "mono"])
    def test_large_level_runs_in_blocks(self, monkeypatch, predicate):
        # level 1 has 400^2 digit pairs, more than one block of 2^17
        # transitions; each block is merged into the states so far
        merge, merges = scan._merge, []
        monkeypatch.setattr(scan, "_merge", lambda *a: merges.append(1) or merge(*a))
        rng = random.Random(3)
        phi = Coloring.from_raw(CYCLIC, [rng.randint(1, 3) for _ in range(400)])
        tc = interlace_k(phi, 4)
        got = pattern_probability_exact(tc, PatternSpec.ap(4), predicate)
        assert len(merges) > len(tc.levels)
        flat = TorusColoring(tc.cell_colors)
        assert got == pattern_probability_exact(flat, PatternSpec.ap(4), predicate)

    @pytest.mark.parametrize(
        "build,k",
        [
            (lambda: interlace_k(tensor_power(z22(), 2), 4), 4),
            (lambda: interlace_m(z22(), 24), 4),
            (lambda: interlace_k(Coloring(CYCLIC, (1,)), 5), 5),
        ],
        ids=["thm2_6-ell2", "lemma7_10", "thm2_5"],
    )
    def test_file_read_flat_scan_matches_the_automaton(self, build, k):
        tc = build()
        flat = torus_coloring_from_text(torus_coloring_to_text(tc))
        spec = PatternSpec.ap(k)
        assert pattern_probability_exact(flat, spec) == pattern_probability_exact(tc, spec)


class TestPatternCells:
    @pytest.mark.parametrize(
        "a", [(0, 1, 2, 3), (0, 1, 2), (0, 2, 5), (0, 1, 2, 3, 4), (0, 3, 4, 7)]
    )
    def test_areas_sum_to_one(self, a):
        cells = pattern_cells(PatternSpec(a))
        assert sum(area for _, area in cells) == 1
        for g, area in cells:
            assert area > 0
            assert all(0 <= gi <= ai for gi, ai in zip(g, a))

    def test_translation_invariance(self):
        assert pattern_cells(PatternSpec((5, 6, 7, 8))) == pattern_cells(
            PatternSpec((0, 1, 2, 3))
        )

    def test_computed_once_per_offsets(self):
        cells = pattern_cells(PatternSpec((0, 1, 2, 3)))
        assert isinstance(cells, tuple)
        assert all(isinstance(cell, tuple) for cell in cells)
        assert pattern_cells(PatternSpec((5, 6, 7, 8))) is cells


class TestExactProbability:
    def test_constant_coloring_symmetric(self):
        tc = TorusColoring((1,))
        assert pattern_probability_exact(tc, PatternSpec.ap(4), "symmetric") == 1

    def test_bundled_interlacing_regression(self):
        eps = pattern_probability_exact(interlace_k(z22(), 4), PatternSpec.ap(4))
        assert eps == Fraction(1, 1056)

    def test_pattern_bound_for_protected_base(self):
        # bases with no symmetric progressions force patterns into cell
        # coincidences, so the probability is at most C(k,2)/D and k/N
        from aplab.colorings import search_coloring

        for n in (10, 14, 22):
            r = 3
            while (res := search_coloring(n, 4, r)).status != "found":
                r += 1
            phi = res.coloring
            tc = interlace_k(phi, 4)
            eps = pattern_probability_exact(tc, PatternSpec.ap(4))
            assert eps <= Fraction(6, tc.D)
            assert eps <= Fraction(4, n)

    def test_all_distinct_matches_mc(self):
        tc = TorusColoring(tuple(range(1, 13)))
        spec = PatternSpec.ap(4)
        exact = pattern_probability_exact(tc, spec, "symmetric")
        est = pattern_probability_mc(tc, spec, "symmetric", samples=400_000, seed=5)
        assert abs(float(exact) - est.mean) <= 4 * max(est.stderr, 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_colorings_match_mc(self, seed):
        rng = random.Random(seed)
        tc = random_torus_coloring(rng)
        spec = PatternSpec.ap(4)
        exact = pattern_probability_exact(tc, spec)
        est = pattern_probability_mc(tc, spec, samples=300_000, seed=seed)
        assert abs(float(exact) - est.mean) <= 4 * max(est.stderr, 1e-9)

    def test_mono_subset_predicate(self):
        # "mono" is the one subset clause of all positions, which implies the
        # AP4 pairing (0,3)(1,2) of the binomial predicate
        tc = TorusColoring((1, 2, 1, 2))
        spec = PatternSpec.ap(4)
        mono = pattern_probability_exact(tc, spec, "mono")
        assert 0 < mono < pattern_probability_exact(tc, spec, "binomial") < 1

    @pytest.mark.parametrize(
        "a,d_range",
        [((0, 1, 2, 3), (2, 30)), ((0, 1, 2, 4), (2, 20)), ((0, 2, 3, 7), (3, 6))],
    )
    def test_matches_naive_oracle(self, a, d_range):
        # D below a_k makes the floor shifts g_i exceed D
        rng = random.Random(sum(a) * 31 + d_range[1])
        spec = PatternSpec(a)
        coeffs = a_coefficients(spec)
        e = a_binomial_system(spec).e
        cells = pattern_cells(spec)
        for _ in range(6):
            D = rng.randint(*d_range)
            r = rng.randint(1, min(4, D))
            tc = TorusColoring(tuple(rng.randint(1, r) for _ in range(D)))
            for predicate in ("binomial", "symmetric", "mono"):
                got = pattern_probability_exact(tc, spec, predicate)
                want = oracles.naive_pattern_probability(tc.cell_colors, a, coeffs, e, cells, predicate)
                assert got == want, (tc, predicate)

    def test_blocked_matches_loop_reference(self):
        rng = random.Random(6)

        def colored(D, r):
            ids = [rng.randint(1, r) for _ in range(D)]
            ids[rng.randrange(D)] = r
            return TorusColoring(tuple(ids))

        ap4 = PatternSpec.ap(4)
        cases = [
            # the ell=1 interlacing, D = 352
            (interlace_k(z22(), 4), ap4, ("binomial", "symmetric", "mono")),
            # 1000 rows in blocks of 131: the last block is short
            (colored(1000, 5), PatternSpec((0, 1, 2, 4)), ("binomial",)),
            # one block holds every row
            (colored(30, 3), PatternSpec.ap(5), ("binomial", "mono")),
            # r >= 256 takes the uint16 colors
            (colored(401, 300), ap4, ("binomial", "symmetric")),
        ]
        # D < 7: the shifts a_i q + g_i exceed D and the strides wrap
        cases += [(colored(D, 2), PatternSpec((0, 2, 3, 7)), ("binomial", "mono")) for D in (3, 5, 6)]
        for tc, spec, predicates in cases:
            for predicate in predicates:
                got = pattern_probability_exact(tc, spec, predicate)
                want = oracles.loop_pattern_probability(tc, spec, predicate)
                assert got == want, (tc.D, spec, predicate)

    def test_work_cap(self, lower_budget):
        lower_budget("exact_work", 1000)
        tc = TorusColoring((1, 2) * 600)
        with pytest.raises(BudgetExceededError):
            pattern_probability_exact(tc, PatternSpec.ap(4))

    def test_odd_k_no_pairings(self):
        # for odd length only the zero-sum subsets can fire
        tc = TorusColoring((1, 2, 3, 1, 2))
        spec = PatternSpec.ap(5)
        eps = pattern_probability_exact(tc, spec)
        mono = pattern_probability_exact(tc, spec, "mono")
        assert eps == mono


class TestTorusSet:
    def build_simple(self):
        # full circle one color; y-interval [0, 1/32)
        return build_torus_set(TorusColoring((1,)), ResidueSet(2, (0, 1)), 4)

    def test_trivial_slab(self):
        ts = self.build_simple()
        assert ts.width == Fraction(1, 32)
        assert ts.exact_value_at(Fraction(1, 3), Fraction(0)) == 1
        assert ts.exact_value_at(Fraction(1, 3), Fraction(1, 32) - Fraction(1, 1000)) == 1
        assert ts.exact_value_at(Fraction(1, 3), Fraction(1, 32)) == 0

    def test_slice_is_single_interval(self):
        Phi = interlace_k(z22(), 4)
        S = base9_set(Phi.r, 36 * Phi.r**2 + 1)
        ts = build_torus_set(Phi, S, 4)
        rng = random.Random(3)
        for _ in range(20):
            x = Fraction(rng.randint(0, 10**6), 10**6)
            j = ts.base.cell_colors[int(x % 1 * ts.base.D)]
            start = Fraction(ts.slots[j - 1], ts.m)
            assert ts.exact_value_at(x, start) == 1
            assert ts.exact_value_at(x, start + ts.width - Fraction(1, 10**9)) == 1
            assert ts.exact_value_at(x, start + ts.width) == 0
            assert ts.exact_value_at(x, start - Fraction(1, 10**9)) == 0

    def test_needs_enough_residues(self):
        with pytest.raises(ValueError, match="need at least 2 residues, got 1"):
            build_torus_set(TorusColoring((1, 2)), ResidueSet(5, (0,)), 4)

    def test_batch_matches_exact(self):
        ts = self.build_simple()
        rng = np.random.default_rng(0)
        xs = rng.random(500)
        ys = rng.random(500)
        batch = ts.evaluate_batch(xs, ys)
        for x, y, b in zip(xs, ys, batch):
            assert b == ts.exact_value_at(Fraction(float(x)), Fraction(float(y)))

    def test_file_round_trip(self, tmp_path):
        Phi = interlace_k(z22(), 4)
        S = base9_set(Phi.r, 36 * Phi.r**2 + 1)
        ts = build_torus_set(Phi, S, 4)
        (tmp_path / "phi.txt").write_text(torus_coloring_to_text(Phi))
        text = torus_set_to_text(ts, "phi.txt")
        back = torus_set_from_text(
            text, lambda ref: torus_coloring_from_text((tmp_path / ref).read_text())
        )
        assert back == ts


def ulp_walk(v, steps=4):
    """v and the floats up to ``steps`` ulps above and below it."""
    out = [v]
    for direction in (math.inf, -math.inf):
        w = v
        for _ in range(steps):
            w = math.nextafter(w, direction)
            out.append(w)
    return out


def support_edge_ys(m, width, slots):
    """y = 0, y = 1 - 2^-53, and the floats within 4 ulps of s/m and of
    s/m + width for each slot s, kept in [0, 1)."""
    ys = {0.0, 1 - 2.0**-53}
    for s in slots:
        for edge in (Fraction(s, m), Fraction(s, m) + width):
            ys.update(ulp_walk(float(edge)))
    return np.array(sorted(y for y in ys if 0 <= y < 1))


def one_color_per_cell(m, width, slots):
    """A torus set over the coloring 1, 2, ..., r of r cells, so that one x
    per cell meets every color."""
    return TorusSet(TorusColoring(tuple(range(1, len(slots) + 1))), m, width, tuple(slots))


def hit_ys(A, ys):
    """Indices of the ys at which ``evaluate_batch`` is 1 for some x.  The
    value depends on x only through the color of its cell, so one x per
    color, at the middle of the first cell of that color, covers them all."""
    D = A.base.D
    _, first = np.unique(A.base.as_array, return_index=True)
    hit = np.zeros(len(ys), dtype=bool)
    for x in (first + 0.5) / D:
        hit |= A.evaluate_batch(np.full(len(ys), x), ys) == 1
    return np.flatnonzero(hit)


# moduli with slot starts s/m whose float times m rounds below s (1/49 * 49
# is 1 - 2^-53), primes, the chains' moduli and m up to 10^7
SUPPORT_MODULI = (1, 2, 3, 5, 7, 49, 97, 1000, 82945, 746497, 999983, 10**7 - 1, 10**7)


def support_slots(m, ends="both"):
    """Slots 0, 1, m - 2 and m - 1 and a seeded spread between them; without
    slot 0 (``ends="last"``) or without slot m - 1 (``ends="first"``), so
    that a y near 0 or near 1 can meet only the slot at the other end."""
    rng = random.Random(m)
    slots = {0, 1 % m, max(m - 2, 0), m - 1} | {rng.randrange(m) for _ in range(24)}
    slots -= {"both": set(), "last": {0}, "first": {m - 1}}[ends]
    return sorted(slots)


def narrow_set(m):
    return one_color_per_cell(m, Fraction(1, 16 * m), support_slots(m))


NARROW_SETS = {
    "m49": lambda: narrow_set(49),
    "m97": lambda: narrow_set(97),
    "m746497": lambda: narrow_set(746497),
    "thm26_ell2": lambda: thm26_torus_set(2),
}


def near_slot_ys(A, seed, n=1 << 14):
    """Seeded ys within a width of the slot intervals, in [0, 1)."""
    starts = np.array(A.slots, dtype=np.float64) / A.m
    offsets = np.random.default_rng(seed).random(n) * 3 - 1
    ys = (np.resize(starts, n) + offsets * float(A.width)) % 1.0
    ys[ys >= 1] = 0.0  # -tiny % 1.0 rounds to 1.0
    return ys


def bucket_edge_ys(A):
    """The bucket edges b/2^16 within two buckets of an end s/m or s/m +
    width of a slot interval of A, and the floats within 4 ulps of each,
    kept in [0, 1); the edge at 0 is also walked down from 1."""
    ends = [Fraction(s, A.m) + w for s in set(A.slots) for w in (0, A.width)]
    edges = {(math.floor(end * 2**16) + j) % 2**16 for end in ends for j in range(-2, 3)}
    edges = [b / 2**16 for b in edges] + ([1.0] if 0 in edges else [])
    return np.array(sorted({y for edge in edges for y in ulp_walk(edge) if 0 <= y < 1}))


def edge_slots(m):
    """Slots whose intervals start or end on, just below or just above
    bucket edges: for a seeded spread of edges b/2^16, one of the slots
    s - 1, s and s + 1 around s = floor(b m/2^16) each (no neighbour that
    would mark the edge's buckets for it), plus m - 1."""
    edges = random.Random(m).sample(range(1, 2**16), 72)
    return sorted({(b * m >> 16) + j % 3 - 1 for j, b in enumerate(edges)} | {m - 1})


# at m = 3 2^16 and 2^20 every 3rd and every 16th slot starts exactly on a
# bucket edge; at m = 2^49 + 1 the slot starts, and the ends at width 1/m,
# come within 2^-49 of the edges, from either side
EDGE_MODULI = (3 * 2**16, 2**20, 2**49 + 1)


def width_named(name, m):
    return {
        "certificate": certificate_width(PatternSpec.ap(4), m),
        "sound": sound_width(a_binomial_system(PatternSpec.ap(4)), m),
        # width 1/m: y near 0 also meets slot m - 1 in floats
        "full": Fraction(1, m),
    }[name]


def assert_hits_are_marked(A):
    """Every y at the float edges of the slot intervals, at the bucket edges
    near them and within a width of them that some x maps to 1 lies in a
    marked bucket of ``A.y_buckets``; floor(y 2^16) is exact in floats."""
    ys = np.concatenate([support_edge_ys(A.m, A.width, A.slots), bucket_edge_ys(A), near_slot_ys(A, A.m)])
    hits = ys[hit_ys(A, ys)]
    assert len(hits), "no y meets the set"
    unmarked = hits[~A.y_buckets[(hits * 2**16).astype(np.intp)]]
    assert not len(unmarked), f"ys {unmarked.tolist()} meet the set in unmarked buckets"


class TestYBuckets:
    """``TorusSet.y_buckets`` marks the bucket of every y that some x maps
    to 1, which is what the draw in marked buckets rests on."""

    @pytest.mark.parametrize(
        "m, ends",
        # m = 1 has the one slot 0, at both ends
        [(m, ends) for m in SUPPORT_MODULI for ends in ("both", "first", "last") if m > 1 or ends == "both"],
    )
    @pytest.mark.parametrize("width_name", ["certificate", "sound", "full"])
    def test_hits_are_marked_at_the_float_edges(self, m, ends, width_name):
        assert_hits_are_marked(one_color_per_cell(m, width_named(width_name, m), support_slots(m, ends)))

    @pytest.mark.parametrize(
        "m, ends", [(m, ends) for m in SUPPORT_MODULI for ends in ("both", "first", "last") if m > 1 or ends == "both"]
    )
    @pytest.mark.parametrize("width_name", ["certificate", "sound", "full"])
    def test_table_equals_the_exact_one_on_the_edge_tests_sets(self, m, ends, width_name):
        # the int64 steps mark exactly the buckets that the widened slot
        # intervals meet, by ``oracles.exact_y_buckets`` in rationals
        A = one_color_per_cell(m, width_named(width_name, m), support_slots(m, ends))
        assert np.array_equal(A.y_buckets, oracles.exact_y_buckets(A))

    @pytest.mark.parametrize("m", EDGE_MODULI)
    @pytest.mark.parametrize("width_name", ["certificate", "full"])
    def test_hits_are_marked_at_the_bucket_edges(self, m, width_name):
        assert_hits_are_marked(one_color_per_cell(m, width_named(width_name, m), edge_slots(m)))

    @pytest.mark.parametrize("m", EDGE_MODULI)
    @pytest.mark.parametrize("width_name", ["certificate", "full"])
    def test_table_equals_the_exact_one_at_the_bucket_edges(self, m, width_name):
        A = one_color_per_cell(m, width_named(width_name, m), edge_slots(m))
        assert np.array_equal(A.y_buckets, oracles.exact_y_buckets(A))

    def test_hit_past_the_end_of_an_interval_is_marked(self):
        # at m = 2^49 - 1 and width 1/m the end (s + 1)/m of this slot lies
        # 2^-65 below the last bucket edge 1 - 2^-16, and a y on that edge
        # meets the set in floats, one bucket past the interval
        m = 2**49 - 1
        A = one_color_per_cell(m, Fraction(1, m), [((2**16 - 1) * m >> 16) - 1])
        assert len(hit_ys(A, np.array([1 - 2.0**-16]))) == 1
        assert_hits_are_marked(A)
        assert np.array_equal(A.y_buckets, oracles.exact_y_buckets(A))

    @pytest.mark.parametrize("name", sorted(NARROW_SETS))
    def test_hits_are_marked_on_the_narrow_sets(self, name):
        assert_hits_are_marked(NARROW_SETS[name]())

    @pytest.mark.parametrize("ell", [1, 2])
    def test_at_most_two_buckets_per_slot_at_the_chain_width(self, ell):
        # at the chain's width 1/(16m), far below 2^-16, a widened slot
        # interval meets one bucket, or two where it crosses an edge
        A = thm26_torus_set(ell)
        assert 0 < np.count_nonzero(A.y_buckets) <= 2 * len(set(A.slots))

    @pytest.mark.parametrize("m", [2**50, 2**50 + 1, 2**60])
    def test_every_bucket_is_marked_from_two_to_the_fifty(self, m):
        assert one_color_per_cell(m, Fraction(1, m), [0]).y_buckets.all()
        below = 2**50 - 1
        assert not one_color_per_cell(below, Fraction(1, below), [0]).y_buckets.all()


class TestLambdaTildeMC:
    def test_constant_has_zero_variance(self):
        est = lambda_tilde_mc(ConstantField(Fraction(1, 3)), PatternSpec.ap(4), 5000, 0)
        assert est.stderr == 0
        assert est.mean == pytest.approx((1 / 3) ** 4)

    def test_slab_matches_convolution_oracle(self):
        spec = PatternSpec.ap(4)
        est = lambda_tilde_mc(SlabIndicator(Fraction(1, 4)), spec, 1_000_000, 2)
        want = oracles.slab_volume(0.25, a_binomial_system(PatternSpec.ap(4)).e, gridsize=1 << 10)
        assert abs(est.mean - want) <= 4 * est.stderr

    def test_multibranch_system(self):
        # offsets (0, 2, 3) give last coefficient of magnitude 2; compare the
        # branch-sampling estimator against an independent direct sampler
        spec = PatternSpec((0, 2, 3))
        e = a_binomial_system(spec).e
        assert abs(e[-1]) == 2
        alpha = 0.3
        est = lambda_tilde_mc(SlabIndicator(Fraction(3, 10)), spec, 400_000, 3)
        rng = np.random.default_rng(123)
        n = 400_000
        y1 = rng.random(n)
        y2 = rng.random(n)
        acc = (-(e[0] * y1 + e[1] * y2)) % 1.0
        j = rng.integers(0, abs(e[-1]), n)
        y3 = ((acc + j) / e[-1]) % 1.0
        vals = (y1 < alpha) & (y2 < alpha) & (y3 < alpha)
        want = vals.mean()
        sigma = est.stderr + vals.std() / np.sqrt(n)
        assert abs(est.mean - want) <= 4 * sigma

    def test_scaling_with_matched_seeds(self):
        # scaling F by c scales the estimate by c^k exactly, seeds matched
        class Scaled:
            def __init__(self, inner, c):
                self.inner, self.c = inner, c

            def evaluate_batch(self, xs, ys):
                return self.c * self.inner.evaluate_batch(xs, ys)

        F = SlabIndicator(Fraction(1, 3))
        spec = PatternSpec.ap(4)
        base = lambda_tilde_mc(F, spec, 50_000, 9)
        scaled = lambda_tilde_mc(Scaled(F, 0.5), spec, 50_000, 9)
        assert scaled.mean == pytest.approx(base.mean * 0.5**4, rel=1e-12)

    def test_diagonal_strip_marginal(self):
        est = lambda_tilde_mc(DiagonalStrip(Fraction(1, 2)), PatternSpec.ap(4), 200_000, 4)
        assert 0 <= est.mean <= 1

    @pytest.mark.parametrize("name", ["slab", "torus_set_wide"])
    def test_prefix_consistent(self, name):
        # sample j is the same whatever the total, so one more sample adds
        # 0 or 1 hit of the 0/1 product, also across a block boundary; the
        # wide set draws every sample in a marked bucket, so its counts
        # cross a batch of that draw
        F, counts = {
            "slab": (SlabIndicator(Fraction(1, 2)), BOUNDARY),
            "torus_set_wide": (wide_torus_set(), BUCKET_BOUNDARY),
        }[name]
        spec = PatternSpec.ap(4)
        for n in counts:
            hits = [round(lambda_tilde_mc(F, spec, s, 1).mean * s) for s in (n, n + 1)]
            assert hits[1] - hits[0] in (0, 1), (n, hits)


class SmoothField:
    """A field with values strictly inside (0, 1), so no sample is ever
    dropped from the product."""

    def evaluate_batch(self, xs, ys):
        return 0.5 + 0.25 * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)


class RampField:
    """F(x, y) = y mod 1 below 1/2 and 0 above: fractional values, and
    samples dropped at every factor."""

    def evaluate_batch(self, xs, ys):
        y = ys % 1.0
        return np.where(y < 0.5, y, 0.0)


class ReturnsYsField:
    """F(x, y) = y, returned as the ys array itself: a field may hand back
    its input, so the product must not start from or write into it."""

    def evaluate_batch(self, xs, ys):
        return ys


def thm26_torus_set(ell):
    """The torus set of ``run_thm2_6(ell)``, built without its exact stage."""
    Phi = interlace_k(tensor_power(z22(), ell), 4)
    return build_torus_set(Phi, base9_set(Phi.r, 36 * Phi.r**2 + 1), 4)


def wide_torus_set():
    """A torus set over the ell = 1 interlacing with slabs of width 1/2, so
    every bucket is marked, about 2^-k of the samples survive every factor
    and the last factors read rows 3..k+1 at survivors only."""
    Phi = interlace_k(z22(), 4)
    return TorusSet(Phi, 2, Fraction(1, 2), tuple(j % 2 for j in range(Phi.r)))


def mid_torus_set():
    """m = 5, width 1/10 and slots 0, 1, 2 over the ell = 1 interlacing:
    about 3 in 10 buckets are marked, and about 1 in 10^4 samples survives
    every factor."""
    Phi = interlace_k(z22(), 4)
    return TorusSet(Phi, 5, Fraction(1, 10), tuple(j % 3 for j in range(Phi.r)))


SURVIVOR_FIELDS = {
    "thm26_ell1": lambda: thm26_torus_set(1),
    "thm26_ell2": lambda: thm26_torus_set(2),
    "torus_set_wide": wide_torus_set,
    "slab_quarter": lambda: SlabIndicator(Fraction(1, 4)),
    "slab_half": lambda: SlabIndicator(Fraction(1, 2)),
    "strip_quarter": lambda: DiagonalStrip(Fraction(1, 4)),
    "constant_third": lambda: ConstantField(Fraction(1, 3)),
    # no sample of any block survives the first factor
    "zero": lambda: ConstantField(0),
    "smooth": SmoothField,
    "ramp": RampField,
    "returns_ys": ReturnsYsField,
}


class TestSurvivorProduct:
    """The survivor-only product gives the same Estimate, bit for bit, as
    evaluating all k factors for every sample."""

    @pytest.mark.parametrize("field", sorted(SURVIVOR_FIELDS))
    # (0, 2, 3) has |e_k| = 2, so y_k also reads the branch uniform
    @pytest.mark.parametrize(
        "offsets", [(0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, 4), (0, 2, 3)]
    )
    def test_equals_full_product(self, field, offsets):
        # a torus set is drawn in its marked buckets, a plain field in blocks
        F = SURVIVOR_FIELDS[field]()
        spec = PatternSpec(offsets)
        if isinstance(F, TorusSet):
            oracle, counts = oracles.bucket_lambda_tilde_mc, BOUNDARY + BUCKET_BOUNDARY
        else:
            oracle, counts = oracles.full_product_lambda_tilde_mc, BOUNDARY
        for samples in counts:
            assert lambda_tilde_mc(F, spec, samples, 7) == oracle(F, spec, samples, 7), samples


DISTRIBUTION_SETS = {
    "torus_set_wide": wide_torus_set,
    "torus_set_mid": mid_torus_set,
    "thm26_ell1": lambda: thm26_torus_set(1),
}


class TestBucketDraw:
    """The draw in marked buckets has the distribution of the draw of every
    sample, extends a shorter run, and holds no block-sized array."""

    @pytest.mark.parametrize("name", sorted(DISTRIBUTION_SETS))
    def test_agrees_with_every_sample_drawn(self, name):
        A = DISTRIBUTION_SETS[name]()
        spec, n, seed = PatternSpec.ap(4), 400_000, 11
        got = lambda_tilde_mc(A, spec, n, seed)
        want = oracles.full_product_lambda_tilde_mc(A, spec, n, seed)
        assert abs(got.mean - want.mean) <= 5 * math.hypot(got.stderr, want.stderr), (got, want)
        p = np.count_nonzero(A.y_buckets) / 2**16
        drawn = sum(len(idx) for idx, _ in oracles.bucket_draws(A, spec.k, n, seed))
        assert abs(drawn - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (drawn, n * p)

    def test_a_longer_run_extends_a_shorter_one(self):
        # counts just below, at and just past the last sample of the first
        # batch: the rows of each are a prefix of those of a longer run
        A = mid_torus_set()
        last = int(next(oracles.bucket_draws(A, 4, 10**6, 5))[0][-1])

        def rows(count):
            batches = list(torus._bucket_batches(A.y_buckets, 5, count, 5))
            return [np.concatenate([blk[r] for blk in batches]) for r in range(5)]

        longer = rows(last + 4 * torus._BUCKET_BATCH)
        for count, drawn in ((last, torus._BUCKET_BATCH - 1), (last + 1, torus._BUCKET_BATCH)):
            got = rows(count)
            assert len(got[0]) == drawn
            assert all(np.array_equal(g, w[: len(g)]) for g, w in zip(got, longer))

    def test_peak_memory_of_one_call(self):
        # once the bucket table and the cell starts are built, a call at
        # 10^6 samples holds less than one Monte Carlo block row
        A, spec = thm26_torus_set(2), PatternSpec.ap(4)
        lambda_tilde_mc(A, spec, 10**6, 0)
        tracemalloc.start()
        try:
            lambda_tilde_mc(A, spec, 10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MC_BLOCK, f"{peak / 1024:.1f} KiB"


BUILTIN_FIELDS = {
    "torus_set_ell2": lambda: thm26_torus_set(2),
    "slab_quarter": lambda: SlabIndicator(Fraction(1, 4)),
    "strip_quarter": lambda: DiagonalStrip(Fraction(1, 4)),
}


class TestBuiltinFields:
    @pytest.mark.parametrize("name", sorted(BUILTIN_FIELDS))
    def test_peak_memory_of_one_block(self, name):
        # the tracemalloc peak of one call on a full Monte Carlo block, the
        # returned array included: at most about two block-sized arrays at
        # once; the first call fills the cached tables (the cell starts)
        F = BUILTIN_FIELDS[name]()
        rng = np.random.default_rng(2)
        xs, ys = rng.random(MC_BLOCK), rng.random(MC_BLOCK)
        F.evaluate_batch(xs, ys)
        tracemalloc.start()
        try:
            F.evaluate_batch(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * MC_BLOCK, f"{peak / (8 * MC_BLOCK):.2f} block arrays"


class TestSampling:
    @pytest.mark.parametrize("b", [0, 2], ids=["full_block", "short_last_block"])
    def test_blocks_are_the_spawned_children(self, b):
        # block b of seed s is child b of SeedSequence(s).spawn, so a split
        # of the blocks over processes draws the same numbers, and it holds
        # the rows of the eager reference draw
        count = 2 * MC_BLOCK + 7
        blk = list(_sample_blocks(5, count, 4))[b]
        assert blk.shape == (4, MC_BLOCK if b < 2 else 7)
        child = np.random.SeedSequence(5).spawn(b + 1)[b]
        want = np.random.default_rng(child).random((4, MC_BLOCK))[:, : blk.shape[1]]
        assert np.array_equal(blk, want)
        assert np.array_equal(blk, list(oracles.eager_uniform_blocks(5, count, 4, MC_BLOCK))[b])

    def test_pattern_mc_prefix_consistent(self):
        # the mono probability of a nearly constant coloring is large, so
        # most samples hit; one more sample adds 0 or 1 hit
        tc = TorusColoring((1, 1, 1, 1, 1, 1, 1, 2))
        spec = PatternSpec.ap(4)
        for n in BOUNDARY:
            hits = [
                round(pattern_probability_mc(tc, spec, "mono", s, 3).mean * s)
                for s in (n, n + 1)
            ]
            assert hits[0] > n // 4
            assert hits[1] - hits[0] in (0, 1), (n, hits)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_nonpositive_samples(self, samples):
        spec = PatternSpec.ap(3)
        with pytest.raises(ValueError, match="samples must be positive"):
            pattern_probability_mc(TorusColoring((1, 2)), spec, "mono", samples)
        with pytest.raises(ValueError, match="samples must be positive"):
            lambda_tilde_mc(SlabIndicator(Fraction(1, 2)), spec, samples)


def frac_cases():
    """Finite doubles at the edges of the fractional part, and random ones
    of both signs across all exponents."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 1 - 2.0**-53, -(1 - 2.0**-53), 2.0**52 + 0.5,
             -(2.0**52 + 0.5), 2.0**53, -(2.0**53), 1.7e308, -1.7e308]
    for n in range(-50, 51):
        edges += [n, np.nextafter(n, -np.inf), np.nextafter(n, np.inf)]
    rng = np.random.default_rng(0)
    size = 200_000
    mantissas = rng.random(size) + 1.0
    signs = rng.choice([-1.0, 1.0], size)
    spread = signs * np.ldexp(mantissas, rng.integers(-1074, 1024, size))
    near_one = signs * np.ldexp(mantissas, rng.integers(-60, 60, size))
    return np.concatenate([np.array(edges, dtype=np.float64), spread, near_one])


class TestFrac:
    def test_bitwise_equal_to_float_remainder(self):
        v = frac_cases()
        assert np.isfinite(v).all()
        got, want = _frac(v), v % 1.0
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, [(v[i], got[i], want[i]) for i in bad[:5]]


class TestCertificate:
    def test_constant_base(self):
        A = build_torus_set(TorusColoring((1,)), ResidueSet(5, (0, 1, 2)), 4)
        assert lambda_tilde_certificate(A, PatternSpec.ap(4)) == Fraction(1, (16 * 5) ** 3)

    def test_doubling_modulus_scales_bound(self):
        Phi = TorusColoring((1,))
        spec = PatternSpec.ap(4)
        c1 = lambda_tilde_certificate(build_torus_set(Phi, ResidueSet(5, (0,)), 4), spec)
        c2 = lambda_tilde_certificate(build_torus_set(Phi, ResidueSet(10, (0,)), 4), spec)
        assert c1 / c2 == 2 ** (spec.k - 1)

    def test_consistent_with_mc(self):
        Phi = interlace_k(z22(), 4)
        S = base9_set(Phi.r, 36 * Phi.r**2 + 1)
        spec = PatternSpec.ap(4)
        ts = build_torus_set(Phi, S, 4)
        cert = lambda_tilde_certificate(ts, spec)
        est = lambda_tilde_mc(ts, spec, 200_000, 0)
        assert est.mean - 4 * est.stderr <= float(cert)

    def test_unsound_width_rejected(self):
        # offsets (0,1,2,4) carry coefficient mass 9 > 2^(k-1), so the default
        # width cannot give a sound bound
        spec = PatternSpec((0, 1, 2, 4))
        Phi = TorusColoring((1,))
        S = ResidueSet(11, (0, 3))
        with pytest.raises(ValueError, match="width too large"):
            lambda_tilde_certificate(build_torus_set(Phi, S, 4), spec)
        # an explicitly smaller width is accepted
        val = lambda_tilde_certificate(build_torus_set(Phi, S, 4, Fraction(1, 18 * 11)), spec)
        assert val > 0

    @pytest.mark.parametrize("k", range(3, 9))
    def test_certificate_width_of_a_progression_is_the_default(self, k):
        # mass 2^(k-2) puts the sound width at 1/(2^(k-1) m), twice the default
        for m in (5, 97, 82945):
            assert certificate_width(PatternSpec.ap(k), m) == Fraction(1, 2**k * m)

    def test_certificate_width_above_half_mass_is_the_sound_width(self):
        # e = (3, -8, 6, -1) has mass 9 > 2^3: 1/(18 m) < 1/(16 m)
        spec = PatternSpec((0, 1, 2, 4))
        assert certificate_width(spec, 11) == Fraction(1, 18 * 11)
        Phi = TorusColoring((1,))
        S = ResidueSet(11, (0, 3))
        A = build_torus_set(Phi, S, 4, certificate_width(spec, 11))
        assert lambda_tilde_certificate(A, spec) > 0

    def test_slots_with_a_solution_rejected(self):
        # 0..47 mod 97 holds the nontrivial AP4 solution 0 - 3*0 + 3*1 - 3
        A = build_torus_set(interlace_k(z22(), 4), ResidueSet(97, tuple(range(48))), 4)
        with pytest.raises(ValueError, match=r"nontrivial solution \(0, 0, 1, 3\)"):
            lambda_tilde_certificate(A, PatternSpec.ap(4))

    def test_repeated_slots_rejected(self):
        # two colors on one slot: a pattern across them escapes epsilon
        A = TorusSet(TorusColoring((1, 2)), 5, Fraction(1, 80), (0, 0))
        with pytest.raises(ValueError, match="distinct"):
            lambda_tilde_certificate(A, PatternSpec.ap(4))
