import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from aplab.colorings import CYCLIC, Coloring, Z22_COLORING, verify_symmetric_ap_free
from aplab.errors import BudgetExceededError, FormatError, SelfCheckError
from aplab.patterns import PatternSpec, a_binomial_system
from aplab.sets import base9_set
from aplab.torus import (
    ConstantField,
    DiagonalStrip,
    SlabIndicator,
    build_torus_set,
    interlace_k,
)
from aplab.uniformity import (
    GridFunction,
    _rader_order,
    _symmetric_ap_rows,
    convergence_experiment,
    discretize,
    extract_coloring,
    gowers_norm,
    grid_from_text,
    grid_to_text,
    lambda_exact,
    quadratic_indicator,
    spectrum,
)


def random_grid(rng, n_max=64, indicator=False):
    n = rng.randint(4, n_max)
    if indicator:
        vals = [rng.randint(0, 1) for _ in range(n)]
        return GridFunction(np.array(vals, dtype=float), vals)
    return GridFunction(np.array([rng.random() for _ in range(n)]))


def thm26_set():
    phi = Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))
    Phi = interlace_k(phi, 4)
    S = base9_set(Phi.r, 36 * Phi.r**2 + 1)
    return build_torus_set(Phi, S, 4)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.5]))
        with pytest.raises(ValueError):
            GridFunction(np.zeros((2, 2)))

    def test_exact_values_must_match_floats(self):
        with pytest.raises(ValueError):
            GridFunction(np.full(5, 0.5), [Fraction(1, 3)] * 5)
        with pytest.raises(ValueError):
            GridFunction(np.full(5, 1.0), [2] * 5)
        with pytest.raises(ValueError):
            GridFunction(np.full(2, 0.5), [0.5, 0.5])

    def test_constant(self):
        f = GridFunction(exact=(Fraction(1, 4),) * 10)
        assert f.mean() == 0.25

    def test_round_trip_exact(self):
        f = GridFunction(exact=(Fraction(2, 3),) * 6)
        back = grid_from_text(grid_to_text(f))
        assert back.exact == f.exact

    def test_round_trip_float(self):
        f = GridFunction(np.array([0.5, 0.25, 0.125]))
        back = grid_from_text(grid_to_text(f))
        assert np.array_equal(back.values, f.values)

    def test_format_error(self):
        with pytest.raises(FormatError):
            grid_from_text("3\n0.5\n0.5")


class TestDiscretize:
    def test_constant_field(self):
        f = discretize(ConstantField(Fraction(1, 3)), 50, 2)
        assert np.allclose(f.values, 1 / 3)

    def test_slab_matches_quadratic_indicator(self):
        f1 = discretize(SlabIndicator(Fraction(1, 4)), 97, 2)
        f2 = quadratic_indicator(97, Fraction(1, 4))
        assert f1.exact == f2.exact

    @pytest.mark.parametrize("N", [1, 2, 97, 1000, 10007])
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(5, 7), Fraction(1)])
    def test_quadratic_indicator_is_the_rational_comparison(self, N, alpha):
        # the definition: 1 where the rational n^2 mod N / N is below alpha
        want = tuple(int(Fraction(pow(n, 2, N), N) < alpha) for n in range(N))
        got = quadratic_indicator(N, alpha).exact
        assert got == want and all(type(v) is int for v in got)

    def test_degree_from_spec_length(self):
        # degree 3 pulls cubes
        f = discretize(SlabIndicator(Fraction(1, 2)), 11, 3)
        expect = [int(pow(n, 3, 11) < 5.5) for n in range(11)]
        assert list(f.exact) == expect

    def test_torus_set_mean_close_to_marginal(self):
        ts = thm26_set()
        f = discretize(ts, 10_000, 2)
        # marginal is tiny, so the discretized mean stays within the
        # boundary-count tolerance of it
        assert abs(f.mean() - float(ts.width)) <= ts.base.D / 10_000

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            discretize(ConstantField(1), 10, 0)


class TestLambdaExact:
    def test_constant_fourth_power(self):
        f = GridFunction(exact=(Fraction(1, 4),) * 30)
        val = lambda_exact(f, PatternSpec.ap(4))
        assert val == Fraction(1, 4) ** 4

    def test_two_element_set_in_z5(self):
        vals = [1, 1, 0, 0, 0]
        f = GridFunction(np.array(vals, dtype=float), vals)
        assert lambda_exact(f, PatternSpec.ap(3)) == Fraction(2, 25)

    def test_matches_naive_oracle(self):
        rng = random.Random(4)
        spec = PatternSpec.ap(4)
        for _ in range(10):
            f = random_grid(rng, n_max=24, indicator=True)
            want = oracles.naive_lambda([f.exact] * 4, spec.a, f.N)
            assert lambda_exact(f, spec) == want

    def test_multilinear(self):
        rng = random.Random(8)
        spec = PatternSpec((0, 1, 3))
        fs = [random_grid(rng, n_max=16, indicator=True) for _ in range(3)]
        n = min(f.N for f in fs)
        fs = [GridFunction(f.values[:n], f.exact[:n]) for f in fs]
        want = oracles.naive_lambda([f.exact for f in fs], spec.a, n)
        assert lambda_exact(fs, spec) == want

    def test_float_path_agrees(self):
        rng = random.Random(12)
        spec = PatternSpec.ap(4)
        vals = [Fraction(rng.randint(0, 8), 8) for _ in range(20)]
        exact_f = GridFunction(np.array([float(v) for v in vals]), vals)
        float_f = GridFunction(np.array([float(v) for v in vals]))
        assert float(lambda_exact(exact_f, spec)) == pytest.approx(
            lambda_exact(float_f, spec), rel=1e-12
        )

    def test_blocked_matches_loop_reference(self):
        # N = 362 is one block, N = 363 two (the second of 2 rows) and
        # N = 1000 blocks of 131 with a short last one; floats must agree bit
        # for bit, so each row is summed alone and rows are added in order
        rng = np.random.default_rng(3)
        for N in (1, 2, 7, 362, 363, 1000):
            for a in ((0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3, 7), (0, 1, 2, 3, 4)):
                spec = PatternSpec(a)
                several = [quadratic_indicator(N, Fraction(j + 1, 7)) for j in range(spec.k)]
                floats = [GridFunction(rng.random(N)) for _ in range(spec.k)]
                for fs in (several[0], several, floats[0], floats, several[:1] + floats[1:]):
                    got = lambda_exact(fs, spec)
                    want = oracles.loop_lambda_exact(fs, spec)
                    assert type(got) is type(want) and got == want, (N, a)

    def test_translation_and_reflection_invariance(self):
        rng = random.Random(6)
        spec = PatternSpec((0, 2, 3))
        f = random_grid(rng, n_max=20, indicator=True)
        n = f.N
        base = lambda_exact(f, spec)
        shifted_vals = [f.exact[(i + 7) % n] for i in range(n)]
        shifted = GridFunction(np.array(shifted_vals, dtype=float), shifted_vals)
        assert lambda_exact(shifted, spec) == base
        reflected_vals = [f.exact[(-i) % n] for i in range(n)]
        reflected = GridFunction(np.array(reflected_vals, dtype=float), reflected_vals)
        mirrored = PatternSpec(tuple(-a for a in reversed(spec.a)))
        assert lambda_exact(reflected, spec) == base
        assert lambda_exact(f, mirrored) == base

    def test_rational_above_512(self):
        f = GridFunction(exact=(Fraction(1, 3),) * 600)
        assert lambda_exact(f, PatternSpec.ap(4)) == Fraction(1, 81)

    def test_quadratic_demo_fixture_small(self):
        # frozen after the first exact run at this size: 5559 progressions
        # counted over 997^2 pairs
        f = quadratic_indicator(997, Fraction(1, 4))
        val = lambda_exact(f, PatternSpec.ap(4))
        assert val == Fraction(5559, 994009)


class TestSpectrum:
    def test_constant(self):
        rep = spectrum(GridFunction(exact=(Fraction(1, 2),) * 32))
        assert rep.alpha == pytest.approx(0.5)
        assert rep.max_nonzero == pytest.approx(0.0, abs=1e-15)

    def test_interval_indicator_closed_form(self):
        n, length = 60, 30
        vals = [1] * length + [0] * (n - length)
        f = GridFunction(np.array(vals, dtype=float), vals)
        rep = spectrum(f)
        # fhat(r) = (1 - w^length) / ((1 - w) n) with w = e(-r/n), r != 0
        closed = []
        for r in range(1, n):
            w = cmath.exp(-2j * cmath.pi * r / n)
            closed.append(abs((1 - w**length) / (1 - w) / n))
        assert abs(rep.alpha - length / n) < 1e-12
        assert abs(rep.max_nonzero - max(closed)) < 1e-12
        # half-density interval peaks near 1/pi
        assert rep.max_nonzero == pytest.approx(1 / np.pi, rel=0.02)

    def test_parseval_self_check(self):
        rng = random.Random(2)
        for _ in range(20):
            spectrum(random_grid(rng))


class TestGowers:
    def test_constant_all_orders(self):
        f = GridFunction(exact=(Fraction(1, 3),) * 16)
        assert gowers_norm(f, 2) == pytest.approx(1 / 3)
        assert gowers_norm(f, 3) == pytest.approx(1 / 3)
        assert gowers_norm(f, 2, center=True) == pytest.approx(0.0, abs=1e-12)

    def test_spectral_identity_matches_naive_u2(self):
        rng = np.random.default_rng(10)
        for n in (8, 17, 32, 64):
            f = GridFunction(rng.random(n))
            fast = gowers_norm(f, 2)
            naive = oracles.naive_gowers(f.values, 2)
            assert abs(fast - naive) <= 1e-10 * max(abs(naive), 1e-30)

    def test_fast_u3_matches_naive(self):
        rng = np.random.default_rng(11)
        # odd N has no weight-1 shift or frequency at N/2; N = 1 and 2 are
        # all weight-1 terms; 3, 5, 7 and 13 take the Rader transform, the
        # others the direct one
        for n in (6, 12, 18, 24, 1, 2, 3, 5, 7, 13):
            f = GridFunction(rng.random(n))
            fast = gowers_norm(f, 3)
            naive = oracles.naive_gowers(f.values, 3)
            assert abs(fast - naive) <= 1e-10 * max(abs(naive), 1e-30)
            fast = gowers_norm(f, 3, center=True)
            naive = oracles.naive_gowers(f.values - f.mean(), 3)
            assert abs(fast - naive) <= 1e-10 * max(abs(naive), 1e-30)

    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
    @pytest.mark.parametrize("n", [97, 256, 1001, 1009, 1019, 4001])
    def test_u3_matches_loop_reference(self, n, center):
        # 97, 1009 and 4001 take the Rader transform; 256, 1001 = 7 * 11 * 13
        # and the prime 1019 (1018 = 2 * 509) the direct one.  A 256 KiB
        # buffer block holds 2 * (2^18 // (16 N)) shifts, so the N//2 + 1
        # shifts end in a partial block on both paths: 49 of 336 at 97, 1 of
        # 128 at 256, 21 and 25 of 32 at 1001 and 1009, 30 of 32 at 1019, and
        # 1 of 8 at 4001.  N = 256 has the weight-1 shift and frequency N/2
        f = quadratic_indicator(n, Fraction(1, 4)) if n == 4001 else GridFunction(
            np.random.default_rng(n).random(n)
        )
        vals = f.values - f.mean() if center else f.values
        fast = gowers_norm(f, 3, center=center)
        ref = oracles.loop_gowers_u3(vals)
        assert abs(fast - ref) <= 1e-12 * ref

    def test_rader_transform_selection(self):
        # odd primes N whose N - 1 is 11-smooth; 47, 53 and 59 are not
        rader = [n for n in range(60) if _rader_order(n) is not None]
        assert rader == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        for n in rader + [97, 1009, 4001]:
            order = _rader_order(n)
            assert sorted(order) == list(range(1, n))
            assert order[(n - 1) // 2] == n - 1

    def test_norm_nesting(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            f = GridFunction(rng.random(int(rng.integers(4, 33))))
            assert gowers_norm(f, 2, center=True) <= gowers_norm(f, 3, center=True) + 1e-12

    def test_quadratic_demo_trend(self):
        vals = []
        for n in (499, 997, 1999, 4001):
            f = quadratic_indicator(n, Fraction(1, 4))
            vals.append(gowers_norm(f, 2, center=True))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_u3_cap(self):
        f = GridFunction(exact=(Fraction(1, 2),) * 8192)
        with pytest.raises(BudgetExceededError):
            gowers_norm(f, 3)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            gowers_norm(GridFunction(exact=(Fraction(1),) * 8), 4)


class TestConvergence:
    def test_constant_rows(self):
        table = convergence_experiment(
            ConstantField(Fraction(1, 3)), PatternSpec.ap(4), [20, 40], mc_samples=2000
        )
        for row in table["rows"]:
            assert row["lambda"] == pytest.approx((1 / 3) ** 4)
            assert row["centered_norm"] == pytest.approx(0.0, abs=1e-10)

    def test_slab_reference_given(self):
        want = oracles.slab_volume(0.25, a_binomial_system(PatternSpec.ap(4)).e, gridsize=1 << 10)
        table = convergence_experiment(
            SlabIndicator(Fraction(1, 4)), PatternSpec.ap(4), [199, 499], reference=want
        )
        assert table["reference_kind"] == "given"
        assert table["rows"][1]["gap"] <= 0.01


class TestExtraction:
    def test_constant_field_rejected_beyond_k(self):
        res = extract_coloring(ConstantField(1), 1, 4, 1, 10, seed=0, attempts=50)
        assert res.coloring is None
        assert res.rejected == 50

    def test_tiny_interval_trivially_passes(self):
        res = extract_coloring(SlabIndicator(Fraction(1, 4)), Fraction(1, 4), 4, 16, 3, seed=0, attempts=50)
        assert res.coloring is not None
        assert verify_symmetric_ap_free(res.coloring, 4) is None

    def test_moving_slices_extract_at_n12(self):
        res = extract_coloring(
            DiagonalStrip(Fraction(1, 4)), Fraction(1, 4), 4, 16, 12, seed=0, attempts=2000
        )
        assert res.coloring is not None
        # independent naive re-verification
        assert (
            oracles.naive_symmetric_witness(res.coloring.colors, "interval", range(4))
            is None
        )

    def test_deterministic(self):
        a = extract_coloring(DiagonalStrip(Fraction(1, 4)), Fraction(1, 4), 4, 8, 10, seed=5, attempts=100)
        b = extract_coloring(DiagonalStrip(Fraction(1, 4)), Fraction(1, 4), 4, 8, 10, seed=5, attempts=100)
        assert a.coloring == b.coloring and a.succeeded_at == b.succeeded_at

    @pytest.mark.parametrize(
        "r,N,seed",
        [
            (16, 12, 0),
            # blocks of 2^16 // (N r) = 4 attempts; the success at 34 lies
            # eight block boundaries in
            (512, 32, 3),
        ],
    )
    def test_prefix_consistent(self, r, N, seed):
        # attempt j depends only on (seed, j): stopping the scan right after
        # the success changes nothing
        quarter = Fraction(1, 4)
        full = extract_coloring(DiagonalStrip(quarter), quarter, 4, r, N, seed, attempts=2000)
        assert full.coloring is not None
        cut = extract_coloring(
            DiagonalStrip(quarter), quarter, 4, r, N, seed, attempts=full.succeeded_at + 1
        )
        assert cut == full

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            extract_coloring(ConstantField(1), 1, 5, 2, 5)

    @pytest.mark.parametrize(
        "k,r,N,seed,attempts,succeeded_at",
        [
            # README `extract --diag`; success at attempt 0
            (4, 16, 12, 0, 1000, 0),
            # blocks of 390; 33 undefined and 5 rejected attempts before the
            # success at 38 in the first block
            (4, 6, 28, 0, 3000, 38),
            # blocks of 136; success at 727 in the sixth of 23 blocks
            (4, 12, 40, 1, 3000, 727),
            # the same success as the last attempt of a short last block
            # (680..727, 48 of 136 attempts)
            (4, 12, 40, 1, 728, 727),
            # blocks of 4; the success at 34 lies eight block boundaries in,
            # in a middle block and then in a short last one
            (4, 512, 32, 3, 2000, 34),
            (4, 512, 32, 3, 35, 34),
            (6, 5, 40, 0, 1000, 263),
            # no success: undefined and rejected attempts in every block
            (4, 5, 40, 0, 1000, None),
        ],
    )
    def test_equals_per_attempt_loop(self, k, r, N, seed, attempts, succeeded_at):
        quarter = Fraction(1, 4)
        got = extract_coloring(DiagonalStrip(quarter), quarter, k, r, N, seed, attempts)
        want = oracles.loop_extract_coloring(DiagonalStrip(quarter), quarter, k, r, N, seed, attempts)
        assert got == want
        assert got.succeeded_at == succeeded_at
        assert got.undefined_failures > 0 or got.rejected > 0 or succeeded_at == 0

    def test_slab_negative_control_equals_per_attempt_loop(self):
        # the acceptance-clause 11 control: every attempt fails
        quarter = Fraction(1, 4)
        args = (SlabIndicator(quarter), quarter, 4, 16, 12, 0, 2000)
        got = extract_coloring(*args)
        assert got == oracles.loop_extract_coloring(*args)
        assert got.coloring is None and got.undefined_failures > 0 and got.rejected > 0

    def test_accepted_coloring_is_reverified(self, monkeypatch):
        # a mask that rejects nothing lets a constant coloring through; the
        # re-verification of the accepted attempt must catch it
        import aplab.uniformity

        monkeypatch.setattr(
            aplab.uniformity, "_symmetric_ap_rows", lambda rows, k: np.zeros(len(rows), dtype=bool)
        )
        with pytest.raises(SelfCheckError):
            extract_coloring(ConstantField(1), 1, 4, 1, 10, seed=0, attempts=50)

    @pytest.mark.parametrize("k", [4, 6])
    def test_rejection_mask_matches_naive(self, k):
        rng = random.Random(k)
        seen = set()
        for _ in range(300):
            N = rng.randint(1, 16)
            r = rng.randint(1, 4)
            rows = np.array([[rng.randint(1, r) for _ in range(N)] for _ in range(5)])
            mask = _symmetric_ap_rows(rows, k)
            for row, bad in zip(rows.tolist(), mask):
                assert bad == (
                    oracles.naive_symmetric_witness(row, "interval", range(k)) is not None
                ), row
            seen.update(mask.tolist())
        assert seen == {False, True}
