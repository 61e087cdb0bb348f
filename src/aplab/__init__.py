"""aplab: progression-pattern colorings, solution-free sets, torus
constructions, and uniformity statistics over Z/NZ."""

__version__ = "0.1.0"

from .patterns import (
    BinomialSystem,
    Pairing,
    PatternSpec,
    a_binomial_system,
    a_coefficients,
    enumerate_pairings,
    is_k_pattern,
    is_symmetric,
    is_trivial_solution,
    zero_sum_subsets,
)
from .colorings import (
    CYCLIC,
    INTERVAL,
    Coloring,
    SearchResult,
    Witness,
    Z22_COLORING,
    search_coloring,
    tensor_power,
    verify_abab_abba_free,
    verify_binomial_pattern_free,
    verify_mono_pattern_free,
    verify_sym_a_ap_free,
    verify_symmetric_ap_free,
)
from .sets import (
    GreedyResult,
    ResidueSet,
    base9_set,
    behrend_set,
    greedy_solution_free_set,
    verify_solution_free,
)
from .torus import (
    ConstantField,
    DiagonalStrip,
    Estimate,
    SlabIndicator,
    TorusColoring,
    TorusSet,
    build_torus_set,
    interlace_k,
    interlace_m,
    lambda_tilde_certificate,
    lambda_tilde_mc,
    pattern_probability_exact,
    pattern_probability_mc,
)
from .uniformity import (
    ExtractionResult,
    GridFunction,
    SpectrumReport,
    convergence_experiment,
    discretize,
    extract_coloring,
    gowers_norm,
    lambda_exact,
    quadratic_indicator,
    spectrum,
)
from .pipelines import PipelineResult, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
