from fractions import Fraction

import pytest

from aplab import pipelines, torus
from aplab.colorings import CYCLIC, Coloring, verify_symmetric_ap_free
from aplab.patterns import a_binomial_system
from aplab.pipelines import (
    PIPELINES,
    StageError,
    run_lemma7_10,
    run_pipeline,
    run_thm2_5,
    run_thm2_6,
    run_thm2_7,
)
from aplab.sets import ResidueSet, verify_solution_free
from aplab.torus import lambda_tilde_certificate, pattern_probability_exact


class TestThm26:
    def test_certificate_fields(self):
        res = run_thm2_6(ell=1, samples=50_000, seed=0)
        cert = res.certificate()
        assert cert["epsilon"] == "1/1056"
        assert cert["marginal"] == "1/1327120"
        assert Fraction(cert["bound"]) == res.bound
        assert res.bound == res.epsilon * Fraction(1, 16 * res.residues.modulus) ** 3

    def test_intermediates_verify(self):
        res = run_thm2_6(ell=1, samples=10_000, seed=1)
        assert verify_symmetric_ap_free(res.base, 4) is None
        assert verify_solution_free(res.residues, a_binomial_system(res.spec)) is None
        cert = res.certificate()
        assert Fraction(cert["marginal"]) == res.torus_set.width
        assert (cert["samples"], cert["seed"]) == (res.estimate.samples, res.estimate.seed) == (10_000, 1)

    def test_rejects_bad_base(self):
        bad = Coloring(CYCLIC, (1,) * 10)
        with pytest.raises(StageError) as e:
            run_thm2_6(base=bad, samples=1000)
        assert e.value.stage == "verify-base"

    @pytest.mark.parametrize("run", [run_thm2_6, run_thm2_7])
    def test_rejects_tensor_power_with_a_symmetric_4ap(self, run, monkeypatch):
        monkeypatch.setattr(pipelines, "tensor_power", lambda base, ell: Coloring(CYCLIC, (1,) * 10))
        with pytest.raises(StageError, match="tensor power lost freeness") as e:
            run(samples=1000)
        assert e.value.stage == "verify-tensor"

    def test_rejects_set_with_a_solution_in_the_certificate(self, monkeypatch):
        # 0..r-1 holds (0, 0, 1, 3); the certificate verifies the slots
        monkeypatch.setattr(pipelines, "base9_set", lambda r, m: ResidueSet(m, tuple(range(r))))
        with pytest.raises(StageError, match=r"\(0, 0, 1, 3\)") as e:
            run_thm2_6(samples=1000)
        assert e.value.stage == "exact-probability"

    def test_ell_2_scaling(self):
        # one palette-squaring step multiplies the marginal denominator by
        # (nearly) r^2 and divides the bound by (nearly) N r^6
        r1 = run_thm2_6(ell=1, samples=10_000, seed=0)
        r2 = run_thm2_6(ell=2, samples=10_000, seed=0)
        assert r2.epsilon == Fraction(1, 23232)
        assert r1.epsilon / r2.epsilon == 22
        marg_ratio = r1.torus_set.width / r2.torus_set.width
        assert abs(float(marg_ratio) - 9) < 1e-3
        bound_ratio = float(r1.bound / r2.bound)
        assert abs(bound_ratio - 22 * 3**6) < 1.0


class TestOtherPipelines:
    def test_thm2_7_greedy_route(self):
        res = run_thm2_7(samples=20_000, seed=0)
        assert res.name == "thm2_7"
        assert verify_solution_free(res.residues, a_binomial_system(res.spec)) is None
        assert res.estimate.mean <= float(res.bound) + 4 * res.estimate.stderr + 1e-30

    def test_thm2_5_odd(self):
        res = run_thm2_5(samples=20_000, seed=0)
        assert res.spec.k == 5
        assert res.bound == res.epsilon * res.torus_set.width ** 4
        assert verify_solution_free(res.residues, a_binomial_system(res.spec)) is None

    def test_thm2_5_validates_parity(self):
        with pytest.raises(ValueError):
            run_thm2_5(k=4)

    def test_lemma7_10_factorial_interlacing(self):
        res = run_lemma7_10(samples=20_000, seed=0)
        Phi = res.torus_set.base
        assert Phi.D == 24 * 22
        assert Phi.r == 72
        # pattern probability is pinned to cell collisions
        assert res.epsilon <= Fraction(6, Phi.D)
        assert res.epsilon == pattern_probability_exact(Phi, res.spec, "binomial")

    def test_lemma7_10_rejects_pattern_carrying_base(self):
        bad = Coloring(CYCLIC, (1,) * 8)
        with pytest.raises(StageError):
            run_lemma7_10(base=bad, samples=1000)

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_pipeline("thm9_9")

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_negative_seed_rejected_before_any_stage(self, name, monkeypatch):
        # the CLI refuses a negative --seed while parsing; a library caller
        # meets this check
        stages = []
        monkeypatch.setattr(pipelines, "_stage", lambda stage, *a, **kw: stages.append(stage))
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            run_pipeline(name, seed=-1)
        assert stages == []


class TestStageOrder:
    """Each chain at its defaults runs the stages ``_chain`` documents, in
    order; every doubling of the greedy set's modulus is one more
    "greedy-set"."""

    TAIL = ["torus-set", "exact-probability", "mc-estimate"]
    TENSORED = ["verify-base", "tensor-power", "verify-tensor", "interlace"]
    ORDERS = {
        "thm2_6": [*TENSORED, "residue-set", *TAIL],
        "thm2_7": [*TENSORED, "greedy-set", *TAIL],
        "thm2_5": ["verify-base", "interlace", "greedy-set", "greedy-set", "greedy-set", *TAIL],
        "lemma7_10": ["verify-base", "interlace", "greedy-set", *TAIL],
    }

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_stages_run_in_order(self, name, monkeypatch):
        stages = []
        stage = pipelines._stage
        monkeypatch.setattr(
            pipelines, "_stage", lambda n, *a, **kw: stages.append(n) or stage(n, *a, **kw)
        )
        run_pipeline(name, samples=1000)
        assert stages == self.ORDERS[name]


class TestDeterminism:
    def test_same_seed_same_certificate(self):
        a = run_thm2_6(ell=1, samples=30_000, seed=3).certificate()
        b = run_thm2_6(ell=1, samples=30_000, seed=3).certificate()
        assert a == b


class TestCertificate:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_one_exact_probability_and_bound_is_certificate(self, name, monkeypatch):
        # the exact probability dominates a run, so it must be computed once;
        # the residue set is verified once too, by the certificate
        calls = {"pattern_probability_exact": [], "verify_solution_free": []}
        for fn in (pattern_probability_exact, verify_solution_free):

            def counting(*args, fn=fn, **kwargs):
                calls[fn.__name__].append(args)
                return fn(*args, **kwargs)

            for module in (torus, pipelines):
                monkeypatch.setattr(module, fn.__name__, counting, raising=False)
        res = run_pipeline(name, samples=1000)
        assert len(calls["pattern_probability_exact"]) == 1
        assert [S.elements for S, _ in calls["verify_solution_free"]] == [res.residues.elements]
        monkeypatch.undo()
        assert res.bound == lambda_tilde_certificate(res.torus_set, res.spec)
