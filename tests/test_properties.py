"""Property tests with Hypothesis, derandomized so every run draws the same
examples; skipped when Hypothesis is not installed."""

import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from aplab.colorings import (
    CYCLIC,
    INTERVAL,
    Z22_COLORING,
    Coloring,
    tensor_power,
    verify_abab_abba_free,
    verify_binomial_pattern_free,
    verify_mono_pattern_free,
    verify_sym_a_ap_free,
    verify_symmetric_ap_free,
)
from aplab.patterns import PatternSpec, a_binomial_system, a_coefficients, is_k_pattern
from aplab.scan import predicate_clauses
from aplab.sets import ResidueSet, base9_set, behrend_set, greedy_solution_free_set, verify_solution_free
from aplab.torus import (
    DiagonalStrip,
    SlabIndicator,
    TorusColoring,
    TorusSet,
    _sample_blocks,
    lambda_tilde_mc,
    pattern_cells,
    pattern_probability_exact,
)
from aplab.uniformity import GridFunction, gowers_norm, lambda_exact

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MC_BLOCK = inspect.signature(_sample_blocks).parameters["block"].default


def _levelled(levels):
    """The torus coloring whose cell colors are the digit-color tuples of
    ``levels``, relabelled to 1..r, with those levels attached."""
    keys = []
    for j in range(math.prod(b for b, _ in levels)):
        key = []
        for b, dc in levels:
            j, digit = divmod(j, b)
            key.append(dc[digit])
        keys.append(tuple(key))
    return TorusColoring(Coloring.from_raw(CYCLIC, keys).colors, levels)


@st.composite
def exact_cases(draw):
    """A spec with k <= 5 offsets in 0..7, a coloring of D <= 24 cells with
    r <= 4 colors, and a predicate the spec admits."""
    k = draw(st.integers(3, 5))
    a = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k))))
    D = draw(st.integers(1, 24))
    r = draw(st.integers(1, min(4, D)))
    colors = draw(st.lists(st.integers(1, r), min_size=D, max_size=D))
    predicates = ["binomial", "mono"] + (["symmetric"] if k % 2 == 0 else [])
    predicate = draw(st.sampled_from(predicates))
    return PatternSpec(a), TorusColoring(tuple(colors)), predicate


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(exact_cases())
def test_exact_probability_matches_naive(case):
    spec, tc, predicate = case
    got = pattern_probability_exact(tc, spec, predicate)
    want = oracles.naive_pattern_probability(
        tc.cell_colors,
        spec.a,
        a_coefficients(spec),
        a_binomial_system(spec).e,
        pattern_cells(spec),
        predicate,
    )
    assert got == want


@st.composite
def structured_cases(draw):
    """A coloring of 1-4 digit levels with bases <= 6 (D <= 216), each
    digit colored by one of r <= b colors and each cell by its tuple of
    digit colors; a spec with k <= 5 offsets in 0..7 and a predicate it
    admits."""
    levels, D = [], 1
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.integers(1, min(6, 216 // D)))
        r = draw(st.integers(1, b))
        levels.append((b, tuple(draw(st.lists(st.integers(1, r), min_size=b, max_size=b)))))
        D *= b
    k = draw(st.integers(3, 5))
    a = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k))))
    predicates = ["binomial", "mono"] + (["symmetric"] if k % 2 == 0 else [])
    predicate = draw(st.sampled_from(predicates))
    return PatternSpec(a), _levelled(levels), predicate


# a non-progression spec over D = 6 < 7, a base-1 level, and a spec with
# several binomial clauses (a clause that fails at one level must stay dead)
@hypothesis.example(
    (PatternSpec((0, 1, 4, 5, 8, 9)), _levelled(((2, (1, 2)), (4, (2, 2, 1, 2)))), "binomial")
)
@hypothesis.example((PatternSpec((0, 2, 3, 7)), _levelled(((2, (1, 2)), (3, (1, 1, 2)))), "binomial"))
@hypothesis.example((PatternSpec((0, 2, 3, 7)), _levelled(((2, (1, 2)), (3, (1, 2, 3)))), "symmetric"))
@hypothesis.example((PatternSpec((0, 1, 2, 3)), _levelled(((5, (1, 2, 1, 2, 3)), (1, (1,)))), "mono"))
@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(structured_cases())
def test_carry_automaton_matches_flat_scan_and_loop(case):
    spec, tc, predicate = case
    got = pattern_probability_exact(tc, spec, predicate)
    flat = TorusColoring(tc.cell_colors)
    assert got == pattern_probability_exact(flat, spec, predicate)
    assert got == oracles.loop_pattern_probability(flat, spec, predicate)


@st.composite
def greedy_cases(draw):
    """A binomial system from k <= 5 offsets in 0..7, a modulus m <= 300 and a
    target size r <= 8."""
    k = draw(st.integers(3, 5))
    a = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k))))
    return a_binomial_system(PatternSpec(a)), draw(st.integers(2, 300)), draw(st.integers(1, 8))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(greedy_cases())
def test_greedy_set_is_solution_free_and_maximal(case):
    system, m, r = case
    res = greedy_solution_free_set(system, m, r)
    kept = res.set.elements
    assert (len(kept) == r) if res.complete else (res.scanned == m)
    assert oracles.naive_solution_free(kept, system.e, m) is None
    # every skipped candidate completes a nontrivial solution with the
    # elements kept before it; with y first, the scan starts at tuples using y
    for y in range(res.scanned):
        if y not in kept:
            below = tuple(x for x in kept if x < y)
            assert oracles.naive_solution_free((y, *below), system.e, m) is not None, y


@hypothesis.settings(derandomize=True, max_examples=12, deadline=None)
@hypothesis.given(st.integers(1, 12))
def test_base9_set_is_solution_free(r):
    S = base9_set(r, 36 * r * r + 1)
    assert len(S) == r
    assert oracles.naive_solution_free(S.elements, (1, -3, 3, -1), S.modulus) is None


@st.composite
def solution_free_cases(draw):
    """A spec with k <= 5 and a set of t <= 6 residues, modulo a small m
    (solutions likely) or a large one (solution-free likely)."""
    spec = draw(st.sampled_from(["0,1,2", "0,1,2,3", "0,1,2,3,4", "0,1,3", "0,1,2,4", "0,2,3,7"]))
    m = draw(st.one_of(st.integers(1, 40), st.integers(1000, 10**6)))
    elements = draw(st.sets(st.integers(0, m - 1), max_size=min(m, 6)))
    return a_binomial_system(PatternSpec.from_string(spec)), ResidueSet(m, tuple(elements))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(solution_free_cases())
@hypothesis.example((a_binomial_system(PatternSpec.ap(4)), ResidueSet(97, tuple(range(6)))))
@hypothesis.example((a_binomial_system(PatternSpec.ap(4)), base9_set(6, 1297)))
def test_verify_solution_free_matches_naive_scan(case):
    system, S = case
    got = verify_solution_free(S, system)
    assert got == oracles.naive_solution_free(S.elements, system.e, S.modulus)
    assert got is None or all(type(x) is int for x in got)


@st.composite
def digit_set_cases(draw):
    """A system with k <= 5 and a set of numbers whose base-B digits lie in
    {0, ..., d}, with B drawn at, below and above M d + 1 (M the positive
    coefficient mass), sometimes one element with the digit d + 1, and a
    modulus above, at or below M max(S).  The naive scan reads t^k tuples,
    so t <= 21, 10 and 6 for k = 3, 4 and 5 (about 10^4 tuples at most);
    and t^ceil(k/2) >= (d + 1)^k, so that the digit proof may run."""
    spec = draw(st.sampled_from(["0,1,2", "0,1,3", "0,1,2,3", "0,1,2,4", "0,1,2,3,4"]))
    system = a_binomial_system(PatternSpec.from_string(spec))
    k, mass = system.k, sum(c for c in system.e if c > 0)
    t_max = {3: 21, 4: 10, 5: 6}[k]

    def t_min(d):
        return next(t for t in itertools.count(1) if t ** ((k + 1) // 2) >= (d + 1) ** k)

    d = draw(st.sampled_from([d for d in (1, 2, 3) if t_min(d) <= t_max]))
    base = max(d + 2, mass * d + draw(st.sampled_from([1, 0, -1])))
    places = next(p for p in itertools.count(1) if (d + 1) ** p >= t_max)
    pool = [
        sum(digit * base**j for j, digit in enumerate(digits))
        for digits in itertools.product(range(d + 1), repeat=places)
    ]
    elements = set(draw(st.lists(st.sampled_from(pool), min_size=t_min(d), max_size=t_max, unique=True)))
    if draw(st.sampled_from([False, False, True])):
        elements = set(sorted(elements)[: t_max - 1]) | {(d + 1) * base ** draw(st.integers(0, places - 1))}
    top = max(elements)
    m = max(top + 1, mass * top + draw(st.sampled_from([1, top, 0, -1])))
    return system, ResidueSet(m, tuple(elements))


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None)
@hypothesis.given(digit_set_cases())
@hypothesis.example((a_binomial_system(PatternSpec.ap(4)), base9_set(9, 36 * 81 + 1)))
@hypothesis.example((a_binomial_system(PatternSpec.ap(5)), ResidueSet(10**4, (0, 1, 5, 6, 25, 26))))
def test_digit_proof_matches_naive_scan(case):
    """``verify_solution_free`` on digit sets, both those its digit proof
    decides (the base-9 example) and those it leaves to meet in the middle
    (the base-5 {0, 1} example, where 5 <= M = 8)."""
    system, S = case
    got = verify_solution_free(S, system)
    assert got == oracles.naive_solution_free(S.elements, system.e, S.modulus)


@st.composite
def affine_cases(draw):
    """A set case of ``solution_free_cases`` and an affine map x -> ux + t
    mod m with u a unit."""
    system, S = draw(solution_free_cases())
    m = S.modulus
    u = draw(st.integers(1, m).filter(lambda x: math.gcd(x, m) == 1))
    return system, S, u, draw(st.integers(0, m - 1))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(affine_cases())
def test_solution_freeness_is_affine_invariant(case):
    # sum e_i (u x_i + t) = u sum e_i x_i, since the e_i sum to 0, and u is
    # invertible mod m; x -> ux + t is a bijection, so trivial solutions
    # (equal values on blocks of zero coefficient sum) map to trivial ones
    system, S, u, t = case
    image = ResidueSet(S.modulus, tuple((u * x + t) % S.modulus for x in S.elements))
    assert (verify_solution_free(image, system) is None) == (verify_solution_free(S, system) is None)


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(st.integers(2, 300), st.integers(3, 6))
def test_behrend_set_is_pattern_free(N, k):
    S = behrend_set(N, k).elements
    assert [
        (x, y, z) for x in S for y in S for z in S if is_k_pattern(x, y, z, k, N)
    ] == []


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(st.sets(st.integers(-10, 30), min_size=3, max_size=8))
def test_every_admitted_predicate_has_a_clause(offsets):
    # the binomial system's coefficients sum to 0, so all k positions form
    # a zero-sum subset, and pruning keeps the first clause; "symmetric" is
    # admitted at even k only
    spec = PatternSpec(tuple(sorted(offsets)))
    predicates = ["binomial", "mono"] + (["symmetric"] if spec.k % 2 == 0 else [])
    for predicate in predicates:
        assert predicate_clauses(spec, predicate), (spec, predicate)
    if spec.k % 2:
        with pytest.raises(ValueError):
            predicate_clauses(spec, "symmetric")


@st.composite
def survivor_cases(draw):
    """A spec with k <= 5 offsets in 0..7, a torus set over a coloring of
    D <= 24 cells with r <= 4 slots, a sample count of up to two Monte
    Carlo blocks plus one sample, and a seed.  The set is wide (m <= 12,
    width at least 1/(3m)), so samples survive some factors and die at
    others, or narrow (m <= 10^6 on a log scale, width 1/(16m)), so few
    buckets are marked and most samples are never drawn."""
    k = draw(st.integers(3, 5))
    a = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k))))
    D = draw(st.integers(1, 24))
    r = draw(st.integers(1, min(4, D)))
    colors = list(range(1, r + 1)) + draw(st.lists(st.integers(1, r), min_size=D - r, max_size=D - r))
    if draw(st.booleans()):
        m = draw(st.integers(1, 10 ** draw(st.integers(0, 6))))
        width = Fraction(1, 16 * m)
    else:
        m = draw(st.integers(1, 12))
        width = Fraction(1, m * draw(st.integers(1, 3)))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
    ts = TorusSet(TorusColoring(tuple(colors)), m, width, tuple(slots))
    samples = draw(st.integers(1, 2 * MC_BLOCK + 1))
    return PatternSpec(a), ts, samples, draw(st.integers(0, 2**32 - 1))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(survivor_cases())
def test_survivor_product_matches_full_product(case):
    spec, ts, samples, seed = case
    got = lambda_tilde_mc(ts, spec, samples, seed)
    assert got == oracles.bucket_lambda_tilde_mc(ts, spec, samples, seed)


# x values whose cell needs care: frac(x) * D rounds up to D at 1 - 2^-53
# (and frac(-2^-53) is that value), frac(-5e-324) rounds up to 1.0 itself,
# and negative x or x >= 1 must first be reduced mod 1
X_EDGES = (1 - 2.0**-53, -(2.0**-53), -5e-324, 0.0, -0.0, 1.0, -1.0, 1 + 2.0**-52, -0.5, 2.75)


@st.composite
def field_cases(draw):
    """A built-in field and up to 64 points (x, y): a torus set over a
    coloring of D <= 24 cells with r <= 4 slots mod m <= 12, or a slab or a
    strip of width in (0, 1]; x random in [-3, 3] or from ``X_EDGES``, and y
    random or exactly on an edge, the lower or upper end of the y-interval
    at x (for a strip, x plus that end)."""
    kind = draw(st.sampled_from(["torus_set", "slab", "strip"]))
    if kind == "torus_set":
        D = draw(st.integers(1, 24))
        r = draw(st.integers(1, min(4, D)))
        colors = list(range(1, r + 1)) + draw(st.lists(st.integers(1, r), min_size=D - r, max_size=D - r))
        m = draw(st.integers(1, 12))
        slots = draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
        F = TorusSet(TorusColoring(tuple(colors)), m, Fraction(1, m * draw(st.integers(1, 3))), tuple(slots))
        width = float(F.width)

        def lower(x):
            return slots[colors[min(int((x % 1.0) * D), D - 1)] - 1] / m
    else:
        F = (SlabIndicator if kind == "slab" else DiagonalStrip)(Fraction(draw(st.integers(1, 12)), 12))
        width = float(F.alpha)

        def lower(x):
            return x if kind == "strip" else 0.0
    n = draw(st.integers(1, 64))
    coordinate = st.floats(-3, 3, allow_nan=False)
    xs = draw(st.lists(st.one_of(coordinate, st.sampled_from(X_EDGES)), min_size=n, max_size=n))
    ys = [
        draw(st.one_of(coordinate, st.sampled_from([lower(x), lower(x) + width, lower(x) + width - 1])))
        for x in xs
    ]
    return F, np.array(xs), np.array(ys)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(field_cases())
def test_fields_match_remainder_oracle(case):
    """Each built-in field gives the bits of its ``% 1.0`` expression in
    ``oracles``, in a new array, and writes into neither input (both are
    read-only, so a write raises)."""
    F, xs, ys = case
    want = oracles.field_values(F, xs, ys)
    xs.flags.writeable = False
    ys.flags.writeable = False
    got = F.evaluate_batch(xs, ys)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not np.shares_memory(got, xs) and not np.shares_memory(got, ys)


@st.composite
def verifier_cases(draw):
    """A cyclic or interval coloring of N <= 24 points with r <= 4 colors,
    and an ABAB offset bound in 4..8."""
    ambient = draw(st.sampled_from([CYCLIC, INTERVAL]))
    N = draw(st.integers(1, 24))
    r = draw(st.integers(1, min(4, N)))
    colors = draw(st.lists(st.integers(1, r), min_size=N, max_size=N))
    return Coloring.from_raw(ambient, colors), draw(st.integers(4, 8))



def _located(c, w, offsets):
    """(n, d) of a witness after checking its points and colors against the
    coloring; None for no witness."""
    if w is None:
        return None
    pts = tuple(w.n + o * w.d for o in offsets)
    assert w.points == (tuple(p % c.n for p in pts) if c.ambient == CYCLIC else pts)
    assert w.colors == tuple(c.colors[p] for p in w.points)
    return w.n, w.d


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(verifier_cases())
def test_verifiers_match_naive(case):
    c, a_bound = case
    for k in (4, 6):
        w = verify_symmetric_ap_free(c, k)
        want = oracles.naive_symmetric_witness(c.colors, c.ambient, tuple(range(k)))
        assert _located(c, w, range(k)) == want, k
    for a in ((0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, 4), (0, 2, 3, 7)):
        spec = PatternSpec(a)
        w = verify_binomial_pattern_free(c, spec)
        want = oracles.naive_binomial_witness(
            c.colors, c.ambient, a, a_coefficients(spec), a_binomial_system(spec).e
        )
        assert _located(c, w, a) == want, a
    w = verify_abab_abba_free(c, a_bound)
    want = oracles.naive_abab_witness(c.colors, c.ambient, a_bound)
    if w is None:
        assert want is None
    else:
        quad = w.detail["quad"]
        assert (*_located(c, w, [x - quad[0] for x in quad]), quad) == want


# cyclic bases free of symmetrically colored 4-APs (the least ones
# ``search_coloring`` finds at n = 2..9 with r <= 3, and the bundled Z/22Z)
FREE_BASES = [
    (1, 2),
    (1, 2, 3),
    (1, 1, 2, 3),
    (1, 1, 1, 2, 3),
    (1, 1, 2, 2, 3, 3),
    (1, 1, 1, 2, 2, 3, 3),
    (1, 1, 1, 2, 2, 2, 3, 3),
    (1, 1, 1, 2, 2, 2, 3, 3, 3),
    tuple(int(ch) for ch in Z22_COLORING),
]


@st.composite
def tensor_cases(draw):
    """The tensor power at ell = 2 or 3 (D = n^ell <= 512) of a cyclic base
    of n points with r <= 3 colors, drawn from ``FREE_BASES`` or at random."""
    ell = draw(st.integers(2, 3))
    n_max = 22 if ell == 2 else 8
    free = [b for b in FREE_BASES if len(b) <= n_max]
    n = draw(st.integers(2, n_max))
    r = draw(st.integers(1, 3))
    colors = draw(st.one_of(st.sampled_from(free), st.lists(st.integers(1, r), min_size=n, max_size=n)))
    return tensor_power(Coloring.from_raw(CYCLIC, colors), ell)


@hypothesis.settings(derandomize=True, max_examples=25, deadline=None)
@hypothesis.given(tensor_cases())
def test_counted_verifiers_match_flat_and_naive(power):
    # the levelled power is decided by the carry automaton's count, and
    # named by the scan when the count is not trivial; the same colors
    # as one level are always scanned
    flat = Coloring(CYCLIC, power.colors)
    assert len(power.levels) >= 2 and len(flat.levels) == 1
    sym_a = PatternSpec((0, 1, 3, 4))
    cases = [
        (verify_symmetric_ap_free, 4, range(4), oracles.naive_symmetric_witness),
        (verify_sym_a_ap_free, sym_a, sym_a.a, oracles.naive_symmetric_witness),
    ]
    # the AP4 binomial predicate is the symmetric pairing, so the binomial
    # check takes (0, 1, 2, 4), whose one clause is a subset
    binomial = PatternSpec((0, 1, 2, 4))
    coeffs, e = a_coefficients(binomial), a_binomial_system(binomial).e
    naive = lambda colors, ambient, a: oracles.naive_binomial_witness(colors, ambient, a, coeffs, e)
    cases.append((verify_binomial_pattern_free, binomial, binomial.a, naive))
    for verify, arg, offsets, naive in cases:
        w = verify(power, arg)
        want = verify(flat, arg)
        assert (w, w and w.detail) == (want, want and want.detail), arg
        assert _located(power, w, offsets) == naive(power.colors, CYCLIC, offsets), arg


@st.composite
def mono_cases(draw):
    """A cyclic or interval coloring of N <= 24 points with r <= 4 colors,
    and a k in 3..6."""
    ambient = draw(st.sampled_from([CYCLIC, INTERVAL]))
    N = draw(st.integers(1, 24))
    r = draw(st.integers(1, min(4, N)))
    colors = draw(st.lists(st.integers(1, r), min_size=N, max_size=N))
    return Coloring.from_raw(ambient, colors), draw(st.integers(3, 6))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(mono_cases())
def test_mono_verifier_matches_naive(case):
    c, k = case
    w = verify_mono_pattern_free(c, k)
    want = oracles.naive_mono_pattern_witness(c.colors, c.ambient, k)
    if w is None:
        assert want is None
    else:
        assert w.colors == tuple(c.colors[p] for p in w.points)
        assert (*w.points, w.detail["a"], w.detail["b"]) == want


def _spec(draw):
    k = draw(st.integers(3, 5))
    return PatternSpec(tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k)))))


@st.composite
def indicator_cases(draw):
    """A spec with k <= 5 offsets in 0..7 and one indicator grid of N <= 24
    points, or k of them."""
    spec = _spec(draw)
    N = draw(st.integers(1, 24))
    count = draw(st.sampled_from([1, spec.k]))
    grids = [draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)) for _ in range(count)]
    return spec, grids


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(indicator_cases())
def test_lambda_exact_indicator_matches_naive(case):
    spec, grids = case
    fs = [GridFunction(exact=g) for g in grids]
    got = lambda_exact(fs[0] if len(fs) == 1 else fs, spec)
    want = oracles.naive_lambda(grids * (spec.k // len(grids)), spec.a, len(grids[0]))
    assert isinstance(got, Fraction)
    assert got == want


@st.composite
def rational_cases(draw):
    """A spec with k <= 5 offsets in 0..7 and one grid of N <= 20 values in
    [0, 1], or k of them, mixing 0/1 integers with fractions whose
    denominators reach 10 or 10^30."""
    spec = _spec(draw)
    N = draw(st.integers(1, 20))
    count = draw(st.sampled_from([1, spec.k]))
    value = (
        st.integers(0, 1)
        | st.fractions(0, 1, max_denominator=10)
        | st.fractions(0, 1, max_denominator=10**30)
    )
    grids = [draw(st.lists(value, min_size=N, max_size=N)) for _ in range(count)]
    return spec, grids


_BIG = Fraction(5 * 10**21, 10**22 + 1)


# products of large numerators: N^2 L^3 is above 2^63; and a zero grid
# between two grids whose numerators are above 2^63
@hypothesis.example((PatternSpec.ap(3), [[Fraction(j, 10**30 - 1) for j in range(1, 6)]]))
@hypothesis.example((PatternSpec.ap(3), [[_BIG] * 4, [0] * 4, [_BIG] * 4]))
@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(rational_cases())
def test_lambda_exact_rational_matches_naive(case):
    spec, grids = case
    fs = [GridFunction(exact=g) for g in grids]
    got = lambda_exact(fs[0] if len(fs) == 1 else fs, spec)
    want = oracles.naive_lambda(grids * (spec.k // len(grids)), spec.a, len(grids[0]))
    assert isinstance(got, Fraction)
    assert got == want


@st.composite
def float_cases(draw):
    """A spec with k <= 5 offsets in 0..7 and one float grid, or k of them,
    of N <= 24 points or of 360 <= N <= 420 points (several blocks of
    differences), with values from a seeded generator and some exact 0s and
    1s."""
    spec = _spec(draw)
    N = draw(st.integers(1, 24) | st.integers(360, 420))
    count = draw(st.sampled_from([1, spec.k]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for _ in range(count):
        vals = rng.random(N)
        vals[rng.random(N) < 0.1] = 0.0
        vals[rng.random(N) < 0.1] = 1.0
        grids.append(GridFunction(vals))
    return spec, grids


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(float_cases())
def test_lambda_exact_float_matches_loop(case):
    spec, fs = case
    arg = fs[0] if len(fs) == 1 else fs
    got = lambda_exact(arg, spec)
    assert isinstance(got, float)
    assert got == oracles.loop_lambda_exact(arg, spec)


@st.composite
def u3_grids(draw):
    """A float grid of N <= 13 points, with values from a seeded generator and
    some exact 0s and 1s.  The odd primes 3, 5, 7, 11 and 13 take the Rader
    transform of ``gowers_norm``; the prime 2 and every composite N take the
    direct one."""
    N = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.random(N)
    vals[rng.random(N) < 0.1] = 0.0
    vals[rng.random(N) < 0.1] = 1.0
    return GridFunction(vals)


# N = 11, a Rader-path prime that the drawn examples miss
@hypothesis.example(GridFunction(np.arange(11) / 10))
@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(u3_grids())
def test_u3_matches_naive(f):
    for center, vals in ((False, f.values), (True, f.values - f.mean())):
        got = gowers_norm(f, 3, center=center)
        want = oracles.naive_gowers(vals, 3)
        assert abs(got - want) <= 1e-10 * max(want, 1e-30)


@st.composite
def blocked_u3_grids(draw):
    """A float grid whose order-3 norm takes several transform blocks: N is
    a Rader prime (401, 1009), an even N (600) or an odd composite N
    (1001 = 7 * 11 * 13), values from a seeded generator with some exact 0s
    and 1s, and a centring flag."""
    N = draw(st.sampled_from([401, 1009, 600, 1001]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.random(N)
    vals[rng.random(N) < 0.1] = 0.0
    vals[rng.random(N) < 0.1] = 1.0
    return GridFunction(vals), draw(st.booleans())


# in_place False runs numpy 1's copy-in transforms on any numpy
@pytest.mark.parametrize("in_place", [True, False], ids=["out", "copy"])
@pytest.mark.parametrize("workers", [1, 2, 5])
@hypothesis.settings(derandomize=True, max_examples=12, deadline=None)
@hypothesis.given(blocked_u3_grids())
def test_u3_blocks_sum_to_the_serial_loop_bit_for_bit(workers, in_place, case):
    import aplab.scan
    import aplab.uniformity

    f, center = case
    vals = f.values - f.mean() if center else f.values
    with pytest.MonkeyPatch.context() as m:
        m.setattr(aplab.scan.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        m.setattr(aplab.uniformity, "_FFT_TAKES_OUT", in_place and aplab.uniformity._FFT_TAKES_OUT)
        got = gowers_norm(f, 3, center=center)
    assert got.hex() == oracles.serial_gowers_u3(vals).hex()
