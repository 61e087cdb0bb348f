"""End-to-end construction chains: base coloring -> tensor power -> circle
interlacing -> solution-free residue set -> torus rectangle set -> exact
certificate plus Monte Carlo estimate.

No chain takes a pattern-coloring factor: at desk scale the k >= 6 and
factored odd-k palettes give greedy sets far over the ``greedy_table``
budget, so thm2_7 runs at k = 4 and thm2_5 on the one-color base.

Every chain verifies its base against the spec's binomial predicate (for
AP4, no symmetric 4-AP; stage "verify-base"), and every tensored chain also
verifies its power ("verify-tensor"); the bound rests on neither, epsilon
being the exact pattern probability of the interlaced coloring.  The
certificate verifies the residue set, stage failures name their stage, and
all randomness is seeded, so reports are byte-reproducible.  The default
parameters are desk-scale demonstrations; the certificates they emit are
exact and sound at that scale, and the reports include the ratio against
the random count rather than asserting which side it lands on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .colorings import (
    CYCLIC,
    Coloring,
    Z22_COLORING,
    tensor_power,
    verify_binomial_pattern_free,
)
from .patterns import PatternSpec, a_binomial_system
from .sets import ResidueSet, base9_set, greedy_solution_free_set
from .torus import (
    DEFAULT_SAMPLES,
    Estimate,
    TorusSet,
    build_torus_set,
    interlace_k,
    interlace_m,
    lambda_tilde_certificate,
    lambda_tilde_mc,
    certificate_width,
    _rat,
)

__all__ = ["PipelineResult", "StageError", "run_pipeline", "PIPELINES", "z22_coloring"]


class StageError(RuntimeError):
    def __init__(self, stage, original):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {original}")


def z22_coloring() -> Coloring:
    return Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))


@dataclass
class PipelineResult:
    """What a chain built and certified.  The interlaced coloring is
    ``torus_set.base`` and the marginal ``torus_set.width``; ``estimate`` is
    the seeded Monte Carlo cross-check of ``bound``."""

    name: str
    base: Coloring
    residues: ResidueSet
    torus_set: TorusSet
    spec: PatternSpec
    epsilon: Fraction
    bound: Fraction
    estimate: Estimate

    def certificate(self) -> dict:
        """JSON-ready certificate; exact rationals as 'p/q' strings."""
        width, est = self.torus_set.width, self.estimate
        random_count = width ** self.spec.k
        return {
            "pipeline": self.name,
            "spec": str(self.spec),
            "marginal": _rat(width),
            "marginal_float": float(width),
            "epsilon": _rat(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "bound": _rat(self.bound),
            "bound_float": float(self.bound),
            "bound_over_random": float(self.bound / random_count),
            "mc_mean": est.mean,
            "mc_stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        }


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - stage name is the contract
        raise StageError(name, exc) from exc


def _verified(name, message, coloring, spec):
    """Check ``coloring`` against the spec's binomial predicate as stage
    ``name``; a witness fails the stage."""
    if _stage(name, verify_binomial_pattern_free, coloring, spec) is not None:
        raise StageError(name, ValueError(message))


def _greedy_set(spec, r):
    """Greedy set of size r free of the spec's binomial system; the modulus
    starts at max(64, 4 r^2) and doubles until the scan completes."""
    system = a_binomial_system(spec)
    m = max(64, 4 * r * r)
    while True:
        res = _stage("greedy-set", greedy_solution_free_set, system, m, r)
        if res.complete:
            break
        m *= 2
    return res.set


def _chain(name, spec, base, ell, interlace, residue_set, samples, seed):
    """Run one chain and certify what it builds.

    A nonpositive sample count, a negative seed and a non-cyclic base are
    refused before any stage runs.  The stages are "verify-base", then
    "tensor-power" and "verify-tensor" when ``ell`` is given, "interlace",
    the stages of ``residue_set`` (called with the interlaced palette size),
    "torus-set" at ``certificate_width``, "exact-probability" and
    "mc-estimate".
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if base.ambient != CYCLIC:
        raise ValueError("base must be cyclic")
    _verified("verify-base", "base coloring has a binomial pattern for this spec", base, spec)
    psi = base
    if ell is not None:
        psi = _stage("tensor-power", tensor_power, base, ell)
        _verified("verify-tensor", "tensor power lost freeness", psi, spec)
    Phi = _stage("interlace", interlace, psi)
    S = residue_set(Phi.r)
    width = certificate_width(spec, S.modulus)
    A = _stage("torus-set", build_torus_set, Phi, S, spec.k, width)
    # bound = epsilon * width^(k-1) exactly: epsilon is recovered, not recomputed
    bound = _stage("exact-probability", lambda_tilde_certificate, A, spec)
    return PipelineResult(
        name=name,
        base=base,
        residues=S,
        torus_set=A,
        spec=spec,
        epsilon=bound / A.width ** (spec.k - 1),
        bound=bound,
        estimate=_stage("mc-estimate", lambda_tilde_mc, A, spec, samples, seed),
    )


def run_thm2_6(ell: int = 1, base: Coloring | None = None, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> PipelineResult:
    """4-term chain through the base-9 residue set.

    base coloring (default the bundled Z/22Z one, no symmetric 4-APs) ->
    tensor power ell -> 16 N^ell-cell interlacing -> base-9 set of size r ->
    rectangle set with marginal 1/(16 m).
    """
    return _chain(
        "thm2_6", PatternSpec.ap(4), base or z22_coloring(), ell,
        lambda psi: interlace_k(psi, 4),
        lambda r: _stage("residue-set", base9_set, r, 36 * r * r + 1),
        samples, seed,
    )


def run_thm2_7(
    ell: int = 1,
    base: Coloring | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PipelineResult:
    """4-term chain through the greedy solution-free set.

    base coloring (default the bundled Z/22Z one, no symmetric 4-APs) ->
    tensor power ell -> 16 N^ell-cell interlacing -> greedy set free of the
    4-term system.  No pattern-coloring factor is needed at k = 4: the only
    zero-sum coefficient subset is the full one, and full-progression
    monochromatics are already symmetric.
    """
    spec = PatternSpec.ap(4)
    return _chain(
        "thm2_7", spec, base or z22_coloring(), ell,
        lambda psi: interlace_k(psi, 4), lambda r: _greedy_set(spec, r), samples, seed,
    )


def run_thm2_5(k: int = 5, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> PipelineResult:
    """Odd-k chain: the one-color base -> interlacing -> greedy solution-free
    set.

    Odd k has no pairings, so the binomial-pattern predicate reduces to
    monochromatic zero-sum subsets.  The palette is k^2, so for k >= 7 the
    greedy set's count bound r^(k-1) (49^6 at k = 7) exceeds the
    ``greedy_table`` budget and the run stops at stage "greedy-set" with a
    budget error.
    """
    if k % 2 == 0 or k < 5:
        raise ValueError("k must be odd and at least 5")
    spec = PatternSpec.ap(k)
    return _chain(
        "thm2_5", spec, Coloring(CYCLIC, (1,)), None,
        lambda psi: interlace_k(psi, k), lambda r: _greedy_set(spec, r), samples, seed,
    )


def run_lemma7_10(
    a: tuple[int, ...] = (0, 1, 2, 3),
    base: Coloring | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PipelineResult:
    """General-pattern chain via factorial interlacing: the circle is cut into
    m = (a_k - a_1 + 1)! phases so that digit sequences of patterns become
    jump-progressions, then a pattern-free cyclic coloring feeds each phase.

    The default spec (0,1,2,3) has the symmetric pairing only, so the bundled
    Z/22Z coloring (no symmetric 4-APs, hence no monochromatic ones either)
    is a valid base.  Other specs need a base free of the spec's binomial
    patterns; this is verified, not assumed, so with the bundled base a spec
    such as (0,1,3) stops at stage "verify-base" and needs its own ``base``.
    """
    spec = PatternSpec(tuple(a))
    m_phase = math.factorial(spec.a[-1] - spec.a[0] + 1)
    return _chain(
        "lemma7_10", spec, base or z22_coloring(), None,
        lambda psi: interlace_m(psi, m_phase), lambda r: _greedy_set(spec, r), samples, seed,
    )


PIPELINES = {
    "thm2_6": run_thm2_6,
    "thm2_7": run_thm2_7,
    "thm2_5": run_thm2_5,
    "lemma7_10": run_lemma7_10,
}


def run_pipeline(name: str, **kwargs) -> PipelineResult:
    if name not in PIPELINES:
        raise ValueError(f"unknown pipeline {name!r}; choose from {sorted(PIPELINES)}")
    return PIPELINES[name](**kwargs)
