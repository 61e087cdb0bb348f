"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

The paper's claims are asymptotic, so four clauses (07b, 08b, 10b, 11) check
what the mathematics gives at their desk-scale parameters: a threshold
derived from a cell-collision floor, a Parseval floor or the torus limit of
``oracles.slab_volume``, never a value copied from a run.  Each of those
tests carries its derivation in its docstring; the README section
"Acceptance clauses at desk scale" collects them.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from aplab.colorings import (
    CYCLIC,
    Coloring,
    Z22_COLORING,
    search_coloring,
    tensor_power,
    verify_symmetric_ap_free,
)
from aplab.patterns import (
    PatternSpec,
    a_binomial_system,
    a_coefficients,
    is_trivial_solution,
)
from aplab.sets import base9_set, verify_solution_free
from aplab.torus import (
    DiagonalStrip,
    SlabIndicator,
    TorusColoring,
    pattern_cells,
    pattern_probability_exact,
    pattern_probability_mc,
)
from aplab.pipelines import run_thm2_6
from aplab.uniformity import (
    GridFunction,
    extract_coloring,
    gowers_norm,
    lambda_exact,
    quadratic_indicator,
    spectrum,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}")
    return ok


def z22():
    return Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))


@pytest.fixture(scope="module")
def thm26_result():
    return run_thm2_6(ell=1, samples=10_000_000, seed=0)


def test_criterion_01_bundled_witness_and_mutations():
    c = z22()
    t0 = time.monotonic()
    assert verify_symmetric_ap_free(c, 4) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    flagged = 0
    for pos in range(22):
        for new in (1, 2, 3):
            if new == c.colors[pos]:
                continue
            mutated = list(c.colors)
            mutated[pos] = new
            mut = Coloring.from_raw(CYCLIC, mutated)
            w = verify_symmetric_ap_free(mut, 4)
            expect = oracles.naive_symmetric_witness(mut.colors, CYCLIC, range(4))
            assert (w is None) == (expect is None)
            if expect is not None:
                flagged += 1
                assert (w.n, w.d) == expect
    assert report(
        1, True, f"witness verified in {elapsed * 1e3:.1f} ms; {flagged} mutants matched"
    )


def test_criterion_02_search_reproduction():
    t0 = time.monotonic()
    res = search_coloring(22, 4, 3, mode="exhaustive")
    t_found = time.monotonic() - t0
    assert res.status == "found" and t_found < 600
    assert verify_symmetric_ap_free(res.coloring, 4) is None
    t0 = time.monotonic()
    assert search_coloring(4, 4, 1).status == "none_exists"
    t_refute = time.monotonic() - t0
    assert t_refute < 1.0
    for n in range(2, 11):
        for r in (1, 2, 3):
            found = search_coloring(n, 4, r).status == "found"
            assert found == oracles.enumerate_satisfiable(n, r, 4), (n, r)
    assert report(
        2,
        True,
        f"N=22 found in {t_found:.2f}s ({res.nodes} nodes); refutation {t_refute * 1e3:.0f} ms;"
        " enumeration agreement for N <= 10",
    )


def test_criterion_03_coefficient_fixtures():
    assert a_coefficients(PatternSpec((1, 2, 10, 16, 17, 20))) == (
        -41040, 30240, -30240, 5040, -5040, 41040,
    )
    assert a_coefficients(PatternSpec((1, 2, 3, 6, 7, 8))) == (
        -420, 120, -120, 120, -120, 420,
    )
    assert a_binomial_system(PatternSpec((0, 1, 2, 3))).e == (1, -3, 3, -1)
    pattern = [1, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1]
    assert is_trivial_solution(a_binomial_system(PatternSpec.ap(14)), pattern)
    assert report(3, True, "coefficient tuples, system equality, length-14 triviality")


def test_criterion_04_base9_family():
    t0 = time.monotonic()
    sys4 = a_binomial_system(PatternSpec.ap(4))
    for r in range(1, 101):
        s = base9_set(r, 36 * r * r + 1)
        assert max(s.elements) <= 9 * r * r
        assert verify_solution_free(s, sys4) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    assert report(4, True, f"r = 1..100 verified in {elapsed:.1f}s")


def test_criterion_05_tensor_power_preservation():
    t0 = time.monotonic()
    rng = random.Random(2024)
    found = []
    while len(found) < 50:
        n = rng.randint(5, 30)
        r = max(3, n // 3)
        seed = rng.randint(0, 10**6)
        res = search_coloring(n, 4, r, mode="randomized", budget=4000, seed=seed)
        while res.status != "found":
            r += 1
            res = search_coloring(n, 4, r, mode="randomized", budget=4000, seed=seed)
        assert verify_symmetric_ap_free(res.coloring, 4) is None
        found.append(res.coloring)
    found.append(z22())
    for c in found:
        sq = tensor_power(c, 2)
        assert verify_symmetric_ap_free(sq, 4) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    assert report(5, True, f"51 squared colorings verified in {elapsed:.1f}s")


def test_criterion_06_exact_vs_monte_carlo():
    rng = random.Random(99)
    spec = PatternSpec.ap(4)
    assert sum(a for _, a in pattern_cells(spec)) == 1
    worst = 0.0
    for trial in range(10):
        D = rng.randint(3, 40)
        r = rng.randint(2, min(6, D))
        ids = [rng.randint(1, r) for _ in range(D)]
        for j in range(r):
            ids[rng.randrange(D)] = j + 1
        tc = TorusColoring(tuple(ids))
        exact = pattern_probability_exact(tc, spec)
        est = pattern_probability_mc(tc, spec, samples=1_000_000, seed=trial)
        sigma = max(est.stderr, 1e-12)
        pull = abs(float(exact) - est.mean) / sigma
        worst = max(worst, pull)
        assert pull <= 4, (trial, D, float(exact), est.mean)
    assert report(6, True, f"10 colorings, worst deviation {worst:.2f} standard errors")


def test_criterion_07a_certificate_identity_and_mc(thm26_result):
    res = thm26_result
    m = res.residues.modulus
    expect = res.epsilon * Fraction(1, 16 * m) ** 3
    assert res.bound == expect
    assert res.epsilon == pattern_probability_exact(
        res.torus_set.base, PatternSpec.ap(4), "binomial"
    )
    est = res.estimate
    assert est.mean <= float(res.bound) + 4 * est.stderr + 1e-30
    assert report(
        "7a",
        True,
        f"bound = epsilon/(16m)^3 exactly; mc {est.mean:.3g} below bound"
        f" {float(res.bound):.3g} at 1e7 samples",
    )


def test_criterion_07b_certificate_below_random_count(thm26_result):
    """The ell=1 certificate is as close to the random count as any D-cell
    interlacing with modulus m allows.

    Every cell coloring of the circle with D cells of width 1/D has binomial
    pattern probability epsilon >= 1/(3D): the event holds whenever all four
    points x, x+y, x+2y, x+3y lie in one cell, and for |y| < 1/(3D) (y taken
    mod 1) that has chance 1 - 3D|y| over x, which integrates to 1/(3D).
    The rectangle set has marginal w = 1/(16m) and bound = epsilon * w^3,
    so bound / w^4 = epsilon / w >= 16m/(3D).  At ell=1 (D = 352, m = 82945)
    that floor is 82945/66 (about 1256.74): no interlacing at these
    parameters goes below the random count.  Each tensor step divides
    epsilon by 22 and w by about 9 (``test_pipelines::test_ell_2_scaling``),
    so the ratio shrinks by about 9/22 per step and first drops below 1 at
    ell = 9 (D about 1.9e13).
    """
    res = thm26_result
    D = res.torus_set.base.D
    m = res.residues.modulus
    floor = Fraction(1, 3 * D)
    assert res.torus_set.width == Fraction(1, 16 * m)
    assert res.epsilon == floor, (
        f"epsilon = {res.epsilon} is above the cell-collision floor 1/(3D) = {floor}"
    )
    ratio = res.bound / res.torus_set.width**4
    assert ratio == Fraction(16 * m, 3 * D), (
        f"bound/random = {float(ratio):.2f}, expected the floor 16m/(3D)"
        f" = {16 * m / (3 * D):.2f}"
    )
    assert report(
        "7b",
        True,
        f"epsilon = 1/(3D) = {res.epsilon} at D = {D}; bound/random ="
        f" 16m/(3D) = {float(ratio):.2f}, the floor for a {D}-cell interlacing"
        f" with m = {m}",
    )


def test_criterion_08a_slab_convergence():
    spec = PatternSpec.ap(4)
    reference = oracles.slab_volume(0.25, a_binomial_system(PatternSpec.ap(4)).e, gridsize=1 << 10)
    f = quadratic_indicator(4001, Fraction(1, 4))
    lam = float(lambda_exact(f, spec))
    gap = abs(lam - reference)
    assert gap <= 0.01
    assert report(
        "8a", True, f"|lambda - reference| = {gap:.5f} <= 0.01 at N = 4001"
    )


def test_criterion_08b_centered_norm_threshold():
    """The centered order-2 norm of the quarter-density quadratic set is
    within a factor 2 of the Parseval floor at N = 4001.

    For a 0/1 function f of mean mu on Z/NZ, the centered g = f - mu has
    g^(0) = 0 and sum |g^(xi)|^2 = mu(1 - mu) (Parseval), so by
    Cauchy-Schwarz over the N - 1 nonzero frequencies
    ||g||_U2^4 = sum |g^(xi)|^4 >= (mu(1 - mu))^2 / (N - 1).  The floor
    sqrt(mu(1 - mu)) (N - 1)^(-1/4) exceeds 0.02 at N = 4001 for every
    density in [0.026, 0.974], so a fixed 0.02 threshold cannot be met there.
    A flat spectrum sits at the floor, a random set near 2^(1/4) times it
    (the fourth moment of a complex Gaussian), while an interval of the same
    density has one dominant coefficient and sits about 5 times above it.
    """
    N = 4001
    f = quadratic_indicator(N, Fraction(1, 4))
    mu = Fraction(sum(f.exact), N)
    floor = math.sqrt(mu * (1 - mu)) * (N - 1) ** -0.25
    u2 = gowers_norm(f, 2, center=True)
    ok = floor * (1 - 1e-9) <= u2 <= 2 * floor
    report(
        "8b",
        ok,
        f"centered order-2 norm = {u2:.4f} at N = {N}, {u2 / floor:.2f} x the"
        f" Parseval floor {floor:.4f} (density {float(mu):.4f}; allowed <= 2x)",
    )
    assert ok, (
        f"centered U2 = {u2:.4f} is {u2 / floor:.2f} x the Parseval floor"
        f" {floor:.4f}; a Fourier-uniform set stays within 2x"
    )


def test_criterion_09_norm_identities():
    rng = np.random.default_rng(7)
    for n in (5, 16, 33, 64):
        f = GridFunction(rng.random(n))
        fast = gowers_norm(f, 2)
        naive = oracles.naive_gowers(f.values, 2)
        assert abs(fast - naive) <= 1e-10 * max(naive, 1e-30)
    for n in (5, 12, 24):
        f = GridFunction(rng.random(n))
        fast = gowers_norm(f, 3)
        naive = oracles.naive_gowers(f.values, 3)
        assert abs(fast - naive) <= 1e-10 * max(naive, 1e-30)
    for _ in range(10):
        spectrum(GridFunction(rng.random(int(rng.integers(4, 200)))))
    assert report(9, True, "order-2/3 identities and Parseval at 1e-10 relative")


@pytest.fixture(scope="module")
def quadratic_demo_large():
    f = quadratic_indicator(10007, Fraction(1, 2))
    lam = lambda_exact(f, PatternSpec.ap(4))
    return f, lam


def test_criterion_10a_quadratic_demo_fixtures(quadratic_demo_large):
    f, lam = quadratic_demo_large
    t0 = time.monotonic()
    rep = spectrum(f)
    assert rep.max_nonzero <= 0.05
    # pinned after the first exact run: 6936757 progressions over 10007^2
    assert lam == Fraction(6936757, 10007**2)
    elapsed = time.monotonic() - t0
    assert report(
        "10a",
        True,
        f"max nonzero coefficient {rep.max_nonzero:.4f} <= 0.05;"
        f" density pinned at {float(lam):.6f}",
    )


def test_criterion_10b_progression_excess(quadratic_demo_large):
    """The half-density quadratic set at N = 10007 has a strict excess of
    4-term progressions over mu^4, matching the torus limit.

    Squares of a progression have vanishing third difference, so
    (x, x^2/N) discretizes the slab {y < alpha} and the 4-term density tends
    to oracles.slab_volume(alpha, (1, -3, 3, -1)); at alpha = 1/2 that is
    (28/27) alpha^4, an excess of 1/27 (3.7%), not 20%.  The comparison is
    against the set's own density mu = |A|/N: for p = 3 mod 4 more quadratic
    residues lie below p/2 than above, so here mu = 5081/10007, not 1/2, and
    against nominal alpha^4 that offset makes up most of the 10.8%.  The
    remaining deviation from the limit comes from Gauss sums of size
    sqrt(N), so agreement is required within 2 N^(-1/2); the d = 0 diagonal
    adds 1/(N mu^3), under 0.001, and slab_volume at gridsize 2^10 is
    within 1e-6 of 28/27 at alpha = 1/2.  The excess must be at least half
    of the limiting one; a random set of the same density has only the
    d = 0 diagonal.
    """
    f, lam = quadratic_demo_large
    N = f.N
    mu = Fraction(sum(f.exact), N)
    e = a_binomial_system(PatternSpec.ap(4)).e
    limit = oracles.slab_volume(mu, e, gridsize=1 << 10) / float(mu) ** 4
    ratio = float(lam / mu**4)
    tol = 2 / math.sqrt(N)
    ok = ratio - 1 >= (limit - 1) / 2 and abs(ratio - limit) <= tol
    report(
        "10b",
        ok,
        f"density/mu^4 = {ratio:.4f} at mu = {mu}; torus limit {limit:.4f},"
        f" tolerance {tol:.4f} (against nominal (1/2)^4: {float(lam * 16):.4f})",
    )
    assert ok, (
        f"lambda/mu^4 = {ratio:.4f}: needs an excess of at least"
        f" {(limit - 1) / 2:.4f} and agreement with the torus limit {limit:.4f}"
        f" within {tol:.4f}"
    )


def test_criterion_11_extraction():
    """Extraction at alpha = 1/4, k = 4, r = 16, N = 12, seed 0, 10^4
    attempts yields a verified coloring from the moving-slice field, and
    none from the x-independent slab.

    A field whose slices move with x, such as the strip (y - x) mod 1 < 1/4
    (README: ``aplab extract --diag``), can color positions differently.
    The slab T x [0, 1/4) cannot: position i gets the least j with
    y_j < 1/4 whatever x is, so each fully defined attempt is a constant
    coloring of [12], and a constant coloring has symmetric 4-term
    progressions once N >= 4.  An attempt is undefined exactly when all 16
    y_j are >= 1/4, with chance p = (3/4)^16, so the undefined count is
    Binomial(10^4, p): mean about 100, standard deviation about 10.
    """
    alpha = Fraction(1, 4)
    params = dict(k=4, r=16, N=12, seed=0, attempts=10_000)
    res = extract_coloring(DiagonalStrip(alpha), alpha, **params)
    assert res.coloring is not None, (
        f"no coloring from the moving-slice field in {params['attempts']} attempts"
    )
    assert (
        oracles.naive_symmetric_witness(res.coloring.colors, "interval", range(4))
        is None
    )
    slab = extract_coloring(SlabIndicator(alpha), alpha, **params)
    n, p = params["attempts"], (1 - alpha) ** params["r"]
    mean, sigma = float(n * p), math.sqrt(n * p * (1 - p))
    assert slab.coloring is None
    assert slab.undefined_failures + slab.rejected == n
    assert abs(slab.undefined_failures - mean) <= 5 * sigma, (
        f"slab: {slab.undefined_failures} undefined attempts, expected"
        f" {mean:.1f} +- 5 x {sigma:.1f}"
    )
    assert report(
        11,
        True,
        f"moving slice: coloring at attempt {res.succeeded_at}, independently"
        f" verified; slab control: no coloring, undefined {slab.undefined_failures}"
        f" (expected {mean:.1f} +- {sigma:.1f}), rejected {slab.rejected}",
    )
