"""Piecewise-constant circle colorings, rectangle sets in the 2-torus, exact
pattern probabilities, and seeded Monte Carlo estimates of the progression
functional.

The circle is [0, 1) with half-open cells [j/D, (j+1)/D); all constructions
here share a single rational cell width 1/D, which is what makes the pattern
probability computable exactly: writing x = (p+s)/D, y = (q+t)/D with integer
p, q and s, t in [0, 1), the cell of x + a*y is (p + a*q + floor(s + a*t))
mod D, and the floor vector is constant on a fixed rational polygonal
decomposition of the (s, t) unit square that does not depend on (p, q).

Every coloring carries its digit structure (``TorusColoring.levels``).  For
the two or more levels of an interlacing the exact kernel is the carry
automaton ``scan.carry_count``, which counts all cells of the decomposition
in one pass, digit by digit of p, q and the cell indices (its other caller,
by the same rule, is the ``colorings`` verifiers).  A file's coloring has
one level of its own colors and is counted as a flat scan, one cell of the
decomposition and one block of consecutive q rows of ``scan.shift_blocks``
at a time; the tests use that scan as the automaton's cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .colorings import Coloring
from .errors import FormatError, SelfCheckError, check_budget, data_lines, parse_ints
from .patterns import PatternSpec, a_binomial_system
from .scan import carry_count, digit_levels, eval_clauses, predicate_clauses, shift_blocks
from .sets import ResidueSet, verify_solution_free

__all__ = [
    "TorusColoring",
    "TorusSet",
    "Estimate",
    "ConstantField",
    "SlabIndicator",
    "DiagonalStrip",
    "interlace_k",
    "interlace_m",
    "pattern_cells",
    "pattern_probability_exact",
    "pattern_probability_mc",
    "build_torus_set",
    "lambda_tilde_mc",
    "lambda_tilde_certificate",
    "sound_width",
    "certificate_width",
    "torus_coloring_to_text",
    "torus_coloring_from_text",
    "torus_set_to_text",
    "torus_set_from_text",
]

DEFAULT_SAMPLES = 1_000_000


@dataclass(frozen=True)
class TorusColoring:
    """Coloring of the circle, constant on [j/D, (j+1)/D) for j = 0..D-1.

    ``levels`` is the digit structure of the cells: (base, digit colors)
    pairs, least significant digit first, such that two cells share a color
    exactly when every digit color matches.  The interlacings give theirs,
    checked by ``scan.digit_levels``; any other coloring has the one level
    ``((D, cell_colors),)``.  It takes no part in equality, nor does the
    palette size ``r``, the largest color.  The cells are converted once, to
    the int64 array ``as_array``, and ``cell_colors`` is its ``tolist()``.
    """

    cell_colors: tuple[int, ...] | np.ndarray
    levels: tuple | None = field(default=None, compare=False, repr=False)
    r: int = field(init=False, compare=False, repr=False)
    as_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.cell_colors, dtype=np.int64)
        cc = tuple(arr.tolist())
        if not cc or arr.min() < 1:
            raise ValueError("cell colors must be positive ids")
        object.__setattr__(self, "cell_colors", cc)
        object.__setattr__(self, "as_array", arr)
        object.__setattr__(self, "r", int(arr.max()))
        given = self.levels
        levels = ((len(cc), cc),) if given is None else digit_levels(arr, given)
        object.__setattr__(self, "levels", levels)

    @property
    def D(self) -> int:
        return len(self.cell_colors)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate; stderr is the sample standard deviation divided
    by sqrt(sample_count)."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _estimate(total, total_sq, samples: int, seed: int) -> Estimate:
    """Estimate from the sum and the sum of squares of ``samples`` values."""
    if samples < 1:
        raise ValueError("samples must be positive")
    mean = total / samples
    var = (total_sq - samples * mean * mean) / max(samples - 1, 1)
    return Estimate(mean, math.sqrt(max(var, 0.0) / samples), samples, seed)


# The Monte Carlo block: 2^14 samples, as fast as any of 2^12..2^16 and with
# smaller arrays than the larger ones.  Median ms of 7 calls at blocks of
# 2^12, 2^13, 2^14, 2^15 and 2^16 (one process per estimate, 2-CPU Xeon):
# the ell = 2 torus set at 1e6 samples 37, 30, 28, 28, 33; the strip at 2e6
# samples 169, 136, 124, 168, 182; pattern_probability_mc at 2e6 samples
# 103, 85, 76, 85, 82.
_MC_BLOCK = 1 << 14


def _frac(v, out=None):
    """The fractional part v - floor(v) of a float array, bit for bit the
    value of numpy's ``v % 1.0`` at every finite v, at a tenth of its cost.
    It is written into ``out`` when given (which may be v itself), else into
    the one new array that holds floor(v).

    Proof.  floor(v) is exact, and so is fmod(v, 1) = v - trunc(v): it keeps
    the bits of v below the units place, which need no more than v's 53.
    numpy's remainder is fmod(v, 1), moved into [0, 1) by one addition:
    - fmod(v, 1) = 0 (v an integer, or ±0): numpy returns +0.0, and
      v - floor(v) = v - v is +0.0 too (x - x is +0.0 when rounding to
      nearest, also for x = -0.0).
    - v > 0 otherwise: numpy returns fmod(v, 1) = v - floor(v), and the
      subtraction v - floor(v) is exact (its result is that same number).
    - v < 0 otherwise: numpy returns fmod(v, 1) + 1, rounded once.  As a
      real number fmod(v, 1) + 1 = v - trunc(v) + 1 = v - floor(v), and the
      subtraction v - floor(v) rounds that real number once as well.
    So both round the same real number once, or are exact, and agree bitwise;
    both give 1.0 where v - floor(v) rounds up to it (v = -5e-324, say).
    ``test_torus`` checks it at the edge values and across all exponents.
    """
    f = np.floor(v)
    return np.subtract(v, f, out=f if out is None else out)


def _cell_index(z, D: int) -> np.ndarray:
    """The cell min(floor(frac(z) * D), D - 1) of each point z of the circle
    cut into D cells, as a new int64 array; z is not written.  The clamp
    acts where frac(z) * D rounds up to D (z = 1 - 2^-53, say)."""
    t = _frac(z)
    t *= D
    cells = t.astype(np.int64)
    return np.minimum(cells, D - 1, out=cells)


def _sample_blocks(seed: int, count: int, rows: int, block: int = _MC_BLOCK):
    """The uniforms of ``count`` samples, one (rows, n) array per block of
    n <= ``block`` samples: ``random((rows, block))[:, :n]`` of block b's
    default_rng(SeedSequence(seed, spawn_key=(b,))), the b-th child of
    SeedSequence(seed).spawn.  Sample j sees the same uniforms whatever
    ``count`` is, so an estimate depends only on (seed, count).  Yields
    nothing when count < 1.
    """
    for b, start in enumerate(range(0, count, block)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        yield rng.random((rows, block))[:, : min(block, count - start)]


# ---------------------------------------------------------------------------
# interlacings


def interlace_k(phi: Coloring, k: int) -> TorusColoring:
    """Cut the circle into k blocks and fill each with k interlaced copies of
    phi, every copy on its own palette: ``_interlace`` with k phases and k
    blocks.

    A pattern whose colors match forces matching block and phase digits, which
    in turn forces the phi positions to form a matching progression; with a
    pattern-free phi only cell collisions remain, so the pattern probability
    is O(1/N).
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    return _interlace(phi, k, k)


def interlace_m(phi: Coloring, m: int) -> TorusColoring:
    """Interlace m palette-disjoint copies of a cyclic phi: ``_interlace``
    with m phases and one block, so cell j of D = mN gets color
    phi(j // m) + r * (j mod m)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if phi.ambient != "cyclic":
        raise ValueError("interlace_m needs a cyclic coloring")
    return _interlace(phi, m, 1)


def _interlace(phi: Coloring, phases: int, blocks: int) -> TorusColoring:
    """Cell j = a*phases*N + b*phases + c of D = blocks*phases*N gets color
    (a*phases + c)*r + phi(b).  The levels are the phase c, phi's own levels,
    then the block a when there is more than one block."""
    n_amb = phi.n
    D = blocks * phases * n_amb
    check_budget("interlace_cells", D)
    a, rem = np.divmod(np.arange(D), phases * n_amb)
    b, c = np.divmod(rem, phases)
    cells = (a * phases + c) * phi.r + phi.as_array[b]
    block_digit = ((blocks, range(blocks)),) if blocks > 1 else ()
    return TorusColoring(cells, ((phases, range(phases)), *phi.levels, *block_digit))


# ---------------------------------------------------------------------------
# exact pattern probability


def pattern_cells(spec: PatternSpec) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Decompose the (s, t) unit square by the lines s + a_i t = integer into
    regions of constant floor vector (floor(s + a_i t))_i.

    Returns (floor_vector, area) pairs with exact rational areas summing to 1,
    sorted by floor vector.  Regions between consecutive lines inside a strip
    of constant line order are trapezoids, so width times midpoint gap
    integrates them exactly.  The decomposition depends only on the
    normalized offsets and is computed once per offsets.
    """
    return _pattern_cells(spec.normalized().a)


@cache
def _pattern_cells(offsets: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    lines = [(a, c) for a in sorted(set(offsets)) if a > 0 for c in range(1, a + 1)]
    breaks = {Fraction(0), Fraction(1)}
    for idx, (ai, ci) in enumerate(lines):
        for val in (Fraction(ci, ai), Fraction(ci - 1, ai)):
            if 0 <= val <= 1:
                breaks.add(val)
        for aj, cj in lines[idx + 1 :]:
            if ai == aj:
                continue
            t = Fraction(ci - cj, ai - aj)
            if 0 <= t <= 1:
                breaks.add(t)
    cuts = sorted(breaks)
    cells: dict[tuple[int, ...], Fraction] = {}
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = (t0 + t1) / 2
        heights = {Fraction(0), Fraction(1)}
        for a, c in lines:
            s = c - a * tm
            if 0 < s < 1:
                heights.add(s)
        hs = sorted(heights)
        width = t1 - t0
        for lo, hi in zip(hs, hs[1:]):
            sm = (lo + hi) / 2
            g = tuple(math.floor(sm + a * tm) for a in offsets)
            cells[g] = cells.get(g, Fraction(0)) + width * (hi - lo)
    if sum(cells.values()) != 1:
        raise SelfCheckError("cell areas do not sum to 1")
    return tuple(sorted(cells.items()))


def pattern_probability_exact(
    Phi: TorusColoring,
    spec: PatternSpec,
    predicate: str = "binomial",
) -> Fraction:
    """Exact probability over uniform (x, y) on the torus that the colors of
    x + a_1 y, ..., x + a_k y satisfy the predicate.

    Exactness: the (p, q) grid part is a finite count (integers) and the
    (s, t) part contributes the rational cell areas from ``pattern_cells``,
    which are (p, q)-independent.  Two or more ``levels`` are counted by the
    carry automaton ``scan.carry_count``, one level (a file's coloring) cell
    by cell over the blocks of ``scan.shift_blocks``, where position i of
    row q is c[(p + a_i q + g_i) mod D] at column p, with the colors stored
    as the narrowest unsigned integer type that holds the palette; the
    ``exact_work`` budget bounds D^2 times the cell count.  Exceeding the
    budget raises rather than truncating.
    """
    offsets = spec.normalized().a
    D = Phi.D
    cells = pattern_cells(spec)
    if len(Phi.levels) >= 2:
        return carry_count(Phi.levels, offsets, cells, predicate_clauses(spec, predicate))
    check_budget("exact_work", D * D * len(cells))
    clauses = predicate_clauses(spec, predicate)
    colors = Phi.as_array.astype(np.min_scalar_type(Phi.r))
    total = Fraction(0)
    for g, area in cells:
        count = 0
        for _, cols in shift_blocks(colors, offsets, 0, D, shifts=g):
            count += int(np.count_nonzero(eval_clauses(clauses, cols)))
        total += area * count
    return total / (D * D)


def pattern_probability_mc(
    Phi: TorusColoring,
    spec: PatternSpec,
    predicate: str = "binomial",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Estimate:
    """Monte Carlo estimate of the same probability, for cross-checking;
    sample j is (x, y) from the two rows of its ``_sample_blocks`` block."""
    offsets = spec.normalized().a
    clauses = predicate_clauses(spec, predicate)
    colors = Phi.as_array
    D = Phi.D
    hits = 0
    for x, y in _sample_blocks(seed, samples, 2):
        cols = []
        for a in offsets:
            cols.append(colors[_cell_index(x + a * y if a else x, D)])
        hits += int(np.count_nonzero(eval_clauses(clauses, cols)))
    return _estimate(hits, hits, samples, seed)


# ---------------------------------------------------------------------------
# torus sets

# A field is any object with ``evaluate_batch(xs, ys)``, its finite values at
# the points (xs, ys); ``uniformity.discretize`` also reads its
# ``exact_value_at(x, y)``.  The indicator fields
# (TorusSet, SlabIndicator, DiagonalStrip) work in place in the arrays they
# allocate, never in xs or ys, and return a new float64 array: a comparison
# written into a float64 ``out`` stores 1.0 and 0.0, as ``astype(np.float64)``
# would.  A field may also have ``y_buckets``, a table of 2^16 bools in
# which bucket floor(y 2^16) is marked wherever ``evaluate_batch`` can be
# nonzero at y for some x; ``lambda_tilde_mc`` then draws only the samples
# whose y_1 lies in a marked bucket.  TorusSet has it.


@dataclass(frozen=True)
class TorusSet:
    """Union of rectangles {(x, y): y in J_{Phi(x)}} with J_j = [s_j/m,
    s_j/m + width); every vertical slice is one interval, so the first
    marginal is exactly ``width``."""

    base: TorusColoring
    m: int
    width: Fraction
    slots: tuple[int, ...]

    def __post_init__(self):
        slots = tuple(int(s) for s in self.slots)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "width", Fraction(self.width))
        if len(slots) != self.base.r:
            raise ValueError("need one y-interval per color")
        if not (0 < self.width <= Fraction(1, self.m)):
            raise ValueError("width must lie in (0, 1/m]")
        if any(not 0 <= s < self.m for s in slots):
            raise ValueError("slots must be residues mod m")

    @cached_property
    def _cell_starts(self) -> np.ndarray:
        """The start s_j/m of the y-interval of each of the D cells."""
        color_slot = np.zeros(self.base.r + 1, dtype=np.float64)
        for j, s in enumerate(self.slots, start=1):
            color_slot[j] = s / self.m
        return color_slot[self.base.as_array]

    def exact_value_at(self, x: Fraction, y: Fraction) -> Fraction:
        j = self.base.cell_colors[math.floor((x % 1) * self.base.D)]
        start = Fraction(self.slots[j - 1], self.m)
        return Fraction(int((Fraction(y) - start) % 1 < self.width))

    def evaluate_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        t = self._cell_starts[_cell_index(xs, self.base.D)]
        np.subtract(ys, t, out=t)
        _frac(t, out=t)
        return np.less(t, float(self.width), out=t)

    @cached_property
    def y_buckets(self) -> np.ndarray:
        """The bucket table: entry b of 2^16 is True when [b/2^16, (b+1)/2^16)
        meets [s/m - 2^-50, s/m + width + 2^-50) mod 1 for a used slot s, and
        every entry is True when m >= 2^50 (below it, the int64 steps stay
        under 2^58).

        Sound: ``evaluate_batch`` is 1 at (x, y), y in [0, 1), only within
        2^-52 of a used slot interval, so never in an unmarked bucket.  Write
        c = fl(s/m) and W = fl(width) for the floats that it compares, and
        d = fl(y - c), g = _frac(d).  As |y - c| < 1, d is within 2^-54 of
        y - c and lies in (-1, 1); g is d itself when d >= 0 and fl(d + 1),
        within 2^-54 of d + 1, when d < 0.  So g = y - c + n' + e with n' in
        {0, 1} and |e| <= 2^-53, while |c - s/m| <= 2^-54 and W <= width +
        2^-54.  A value 1 needs 0 <= g < W, hence y in [s/m + n - 2^-52, s/m
        + n + width + 2^-52) with n = -n'.

        Exact in int64 over the distinct slots.  Write 2^16 s = A m + R with
        0 <= R < m, in two steps of 2^8 so that no product passes 2^58.  The
        first bucket is floor(2^16 s/m - 2^-34) = A - [R < m 2^-34].  With
        2^16 width + 2^-34 = n + f (n an integer, 0 <= f < 1) the last is
        floor(2^16 (s/m + width) + 2^-34) = A + n + [R >= m (1 - f)]; each
        bracket compares R with an integer threshold, the ceiling of its
        right side.  Buckets are marked from the first to the last, mod 2^16,
        so a slot interval that crosses 1 also marks the buckets at 0.
        """
        m = self.m
        if m >= 2**50:
            return np.ones(2**16, dtype=bool)
        slots = np.array(sorted(set(self.slots)), dtype=np.int64)
        a, rem = np.divmod(slots << 8, m)
        b, rem = np.divmod(rem << 8, m)
        start = (a << 8) + b
        g = 2**16 * self.width + Fraction(1, 2**34)
        n = math.floor(g)
        first = start - (rem < math.ceil(Fraction(m, 2**34)))
        last = start + n + (rem >= math.ceil(m * (1 - (g - n))))
        # first + j for j = 0 .. last - first, clamped at last (already marked)
        marks = np.minimum(first[:, None] + np.arange(n + 3), last[:, None])
        table = np.zeros(2**16, dtype=bool)
        table[marks & (2**16 - 1)] = True
        return table


class ConstantField:
    """F constant equal to alpha."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)

    def evaluate_batch(self, xs, ys):
        return np.full(np.shape(xs), float(self.alpha))

    def exact_value_at(self, x, y):
        return self.alpha


class SlabIndicator:
    """F(x, y) = 1 iff y mod 1 < alpha; constant first marginal alpha with
    x-independent slices."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)

    def evaluate_batch(self, xs, ys):
        t = _frac(ys)
        return np.less(t, float(self.alpha), out=t)

    def exact_value_at(self, x, y):
        return Fraction(int(Fraction(y) % 1 < self.alpha))


class DiagonalStrip:
    """F(x, y) = 1 iff (y - x) mod 1 < alpha; constant first marginal alpha
    with slices that move with x."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)

    def evaluate_batch(self, xs, ys):
        t = np.subtract(ys, xs)
        _frac(t, out=t)
        return np.less(t, float(self.alpha), out=t)

    def exact_value_at(self, x, y):
        return Fraction(int((Fraction(y) - Fraction(x)) % 1 < self.alpha))


def _default_width(k: int, m: int) -> Fraction:
    """The default slab width 1/(2^k m) of a torus set over residues mod m."""
    return Fraction(1, (2**k) * m)


def build_torus_set(Phi: TorusColoring, S: ResidueSet, k: int, width: Fraction | None = None) -> TorusSet:
    """Assign color j the y-interval starting at s_j/m, width 1/(2^k m) by
    default; S must provide at least r residues (taken in sorted order)."""
    if len(S) < Phi.r:
        raise ValueError(f"need at least {Phi.r} residues, got {len(S)}")
    if width is None:
        width = _default_width(k, S.modulus)
    return TorusSet(Phi, S.modulus, Fraction(width), S.elements[: Phi.r])


# ---------------------------------------------------------------------------
# the progression functional


def sound_width(system, m: int) -> Fraction:
    """Largest slab width w with w * m * mass <= 1/2, where mass is the sum
    of the positive e_i (equal to minus the sum of the negative ones, since
    the coefficients sum to zero).

    Up to this width a circle solution of the binomial system rounds to a
    solution mod m of the slot residues, which the certificate relies on.
    """
    mass = sum(x for x in system.e if x > 0)
    return Fraction(1, 2 * mass * m)


def certificate_width(spec: PatternSpec, m: int) -> Fraction:
    """The width of a certified torus set over residues mod m when none is
    chosen: the default 1/(2^k m), or ``sound_width`` where that is
    smaller, which is where the positive coefficient mass exceeds 2^(k-1).
    A k-term progression has mass 2^(k-2), so it always takes 1/(2^k m).
    """
    return min(_default_width(spec.k, m), sound_width(a_binomial_system(spec), m))


# The batch of the samples drawn in marked buckets: 2^10, so that one call
# of ``lambda_tilde_mc`` on a torus set holds about ten arrays of 8 KiB, well
# under one Monte Carlo block row (128 KiB), and a batch draws in about
# 35 us (2-CPU Xeon; 20 us at 2^8, 110 us at 2^12).
_BUCKET_BATCH = 1 << 10


def _bucket_batches(table: np.ndarray, seed: int, count: int, rows: int):
    """The samples among ``count`` whose y_1 lies in a bucket of ``table``,
    as lists of ``rows`` rows of up to ``_BUCKET_BATCH``, like ``_sample_blocks``.

    One stream per call, that of default_rng(SeedSequence(seed)), which is
    none of the ``_sample_blocks`` children.  Each batch draws, in this
    order, ``_BUCKET_BATCH`` each of: geometric gaps with p = marked/2^16
    from one picked sample to the next; y_1 = (b 2^37 + u) 2^-53, with b
    uniform over the marked buckets and then u uniform below 2^37; and
    ``rows`` - 1 rows of uniforms, x0, x1, y_2..y_{k-1} and the branch.  So
    the samples are picked independently with probability p, exactly up to
    the rounding of the geometric draw, and a picked y_1 is uniform on the
    grid of 2^-53 that ``random()`` draws from, restricted to the marked
    buckets.  The batch becomes rows 0 (x0), 1 (x1), 2..k (y_1..y_{k-1})
    and k + 1 (the branch), cut to its samples below count: every batch
    draws the same whatever count is, so a run of more samples extends a
    shorter one.
    """
    marked = np.flatnonzero(table)
    p = len(marked) / 2**16
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    start = 0  # the first sample the batch can pick
    while start < count:
        picked = np.cumsum(rng.geometric(p, _BUCKET_BATCH))
        # sample start - 1 + picked[j] is below count
        n = int(np.searchsorted(picked, count - start, side="right"))
        start += int(picked[-1])
        y1 = marked[rng.integers(0, len(marked), _BUCKET_BATCH)] << 37
        y1 |= rng.integers(0, 2**37, _BUCKET_BATCH)
        x0, x1, *ys = rng.random((rows - 1, _BUCKET_BATCH))[:, :n]
        if n:
            yield [x0, x1, y1[:n] * 2.0**-53, *ys]


def lambda_tilde_mc(
    F,
    spec: PatternSpec,
    samples: int,
    seed: int = 0,
) -> Estimate:
    """Unbiased estimate of the progression functional of F along the solution
    torus of the spec's binomial system.

    Sampling: x_i = x0 + a_i x1 with (x0, x1) uniform; y_1..y_{k-1} uniform
    and y_k drawn among the |e_k| circle solutions of
    e_k y_k = -sum_{i<k} e_i y_i, the branch being floor(|e_k| v) for one
    more uniform v (uniform up to 2^-53).  Sample j takes these k + 2
    uniforms from row 0 (x0), row 1 (x1), rows 2..k (y_1..y_{k-1}) and
    row k + 1 (v, drawn only when |e_k| > 1) of its ``_sample_blocks``
    block, so the estimate depends only on (seed, samples).

    A field with ``y_buckets`` (a TorusSet) is 0 at every x wherever y_1 is
    in an unmarked bucket, so such a sample adds exactly 0 and is not
    drawn: the samples come from ``_bucket_batches`` instead, which picks
    each of the ``samples`` with the probability of a marked bucket and
    draws y_1 in the marked buckets.  The estimate then has the
    distribution of the unconditioned one, and it too depends only on
    (seed, samples), but its values are those of its own stream.

    ``F.evaluate_batch(xs, ys)`` must not write into xs or ys.  A row is
    drawn once per block and the same array is handed to every factor that
    reads it: while all samples survive, x is row 0 itself at a position
    a = 0 and y is row 2 + i itself at positions i < k - 1.  F may return
    one of its inputs; the product is kept in an array of its own, a copy
    of the first factor (1.0 * v is v, bit for bit, for every finite v).

    Only samples that can still change the result are evaluated: the
    product is taken factor by factor, in position order, over the samples
    whose running product is nonzero, and y_k is computed for those alone.
    Each surviving sample goes through the same floating-point operations
    as a full evaluation, and the sums run over the block with the dropped
    samples as zeros (a block where none survives adds nothing, as adding
    +0.0 to a sum that is never -0.0 changes no bit), so the estimate is
    bit-identical to multiplying all k factors for every sample of every
    block (F must take finite values).
    """
    system = a_binomial_system(spec)
    offsets = spec.normalized().a
    e = system.e
    k = system.k
    rows = k + 1 + (abs(e[-1]) > 1)
    if hasattr(F, "y_buckets"):
        blocks = _bucket_batches(F.y_buckets, seed, samples, rows)
    else:
        blocks = _sample_blocks(seed, samples, rows)
    total = 0.0
    total_sq = 0.0
    for blk in blocks:
        # live: block indices of the surviving samples, None while all survive
        live = None
        prod = None

        def row(r):
            return blk[r] if live is None else blk[r][live]

        for i, a in enumerate(offsets):
            if live is not None and not len(live):
                break
            x = row(0)
            if a:
                # a x1 + x0 is x0 + a x1 bit for bit: float + and * commute
                t = np.multiply(row(1), a)
                t += x
                x = _frac(t, out=t)
            if i < k - 1:
                y = row(2 + i)
            else:
                y = np.zeros(len(x))
                t = np.empty(len(x))
                for j, ei in enumerate(e[:-1]):
                    y += np.multiply(row(2 + j), ei, out=t)
                np.negative(y, out=y)
                _frac(y, out=y)
                if abs(e[-1]) > 1:
                    y += np.floor(np.multiply(row(k + 1), abs(e[-1]), out=t), out=t)
                y /= e[-1]
                _frac(y, out=y)
            v = F.evaluate_batch(x, y)
            if prod is None:
                prod = np.array(v, dtype=np.float64)
            else:
                prod *= v
            nonzero = prod != 0
            if not nonzero.all():
                keep = np.flatnonzero(nonzero)
                prod = prod[keep]
                live = keep if live is None else live[keep]
        if live is None:
            full = prod
        elif len(live):
            full = np.zeros(len(blk[0]))
            full[live] = prod
        else:
            continue
        total += float(full.sum())
        total_sq += float((full * full).sum())
    return _estimate(total, total_sq, samples, seed)


def lambda_tilde_certificate(A: TorusSet, spec: PatternSpec) -> Fraction:
    """Rigorous upper bound epsilon * width^(k-1) on the progression
    functional of the torus set A, with epsilon the exact binomial-pattern
    probability of its base coloring.

    The bound rests on two conditions, and a ValueError names the one that
    fails instead of returning an unsound bound: the width is at most
    ``sound_width``, and the slots are distinct residues with no nontrivial
    solution of the spec's binomial system (``sets.verify_solution_free``).

    Proof.  Write y_i = s_{c_i}/m + u_i, with c_i the color of x_i, s_c the
    slot of color c and u_i in [0, w).  On the solution torus sum e_i y_i is
    an integer, so sum e_i s_{c_i} + m sum e_i u_i is a multiple of m.  Then
    m sum e_i u_i is an integer too, and |m sum e_i u_i| < m w mass <= 1/2
    makes it 0: the slots of the colors solve the system mod m.  With no nontrivial solution among the
    slots the solution is trivial, so the positions split into blocks of
    equal slot, each with coefficient sum 0.  Distinct slots make equal
    slots equal colors, and a zero-sum block has at least two positions, so
    either a block has three or more, a monochromatic zero-sum subset (a
    subset clause of the binomial predicate), or every block is a pair, a
    coefficient-negating pairing with paired colors equal (a pairing
    clause).  So the integrand vanishes unless the colors of x_1..x_k form a
    binomial pattern, which has probability epsilon over (x0, x1), and
    given the x_i the y-integral is at most w^(k-1), since y_1..y_{k-1} each
    lie in an interval of length w.
    """
    system = a_binomial_system(spec)
    limit = sound_width(system, A.m)
    if A.width > limit:
        raise ValueError(
            f"width too large for a sound certificate with this system; need width <= {limit}"
        )
    witness = verify_solution_free(ResidueSet(A.m, A.slots), system)
    if witness is not None:
        raise ValueError(f"the slots have the nontrivial solution {witness}; no sound certificate")
    return pattern_probability_exact(A.base, spec, "binomial") * A.width ** (spec.k - 1)


# ---------------------------------------------------------------------------
# file formats


def _rat(x) -> str:
    """Exact rational as 'p/q' (integers too, e.g. '1/1')."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def torus_coloring_to_text(tc: TorusColoring) -> str:
    # one name per distinct id (ids need not be dense), looked up per cell
    names = {c: str(c) for c in set(tc.cell_colors)}
    body = " ".join([names[c] for c in tc.cell_colors])
    return f"{tc.D} {tc.r}\n{body}\n"


def torus_coloring_from_text(text: str) -> TorusColoring:
    rows = data_lines(text)
    if len(rows) < 2:
        raise FormatError("expected 2 lines (sizes, cells)", len(rows))
    (head_no, head), (body_no, _) = rows[:2]
    try:
        D, r = (int(tok) for tok in head.split())
    except ValueError:
        raise FormatError(f"expected 'D r', got {head!r}", head_no) from None
    cells = parse_ints(rows[1:])
    if len(cells) != D:
        raise FormatError(f"header says D={D}, got {len(cells)} cells", body_no)
    tc = TorusColoring(tuple(cells))
    if tc.r != r:
        raise FormatError(f"header says r={r}, max color is {tc.r}", head_no)
    return tc


def torus_set_to_text(ts: TorusSet, coloring_path: str) -> str:
    slots = " ".join(str(s) for s in ts.slots)
    return f"{coloring_path}\n{ts.m} {_rat(ts.width)}\n{slots}\n"


def torus_set_from_text(text: str, load_coloring) -> TorusSet:
    """Parse a torus-set file; ``load_coloring`` maps the referenced path to a
    TorusColoring."""
    rows = data_lines(text)
    if len(rows) < 3:
        raise FormatError("expected 3 lines (coloring path, 'm w', slots)", len(rows))
    (_, path), (width_no, width_line) = rows[:2]
    base = load_coloring(path)
    try:
        m_tok, w_tok = width_line.split()
        m = int(m_tok)
        num, den = (int(x) for x in w_tok.split("/"))
        width = Fraction(num, den)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"expected 'm num/den', got {width_line!r}", width_no) from None
    slots = tuple(parse_ints(rows[2:3]))
    return TorusSet(base, m, width, slots)
