"""Colorings of Z/NZ and of integer intervals, with pattern verifiers and search.

Verifiers return None when the coloring avoids the pattern family and a
Witness locating the lexicographically least violation otherwise.  The
progression verifiers read the blocks of differences of ``scan.shift_blocks``,
one 2-D numpy pass over every start point per block; the test suite
cross-checks them against independent naive loop implementations and against
the one-pass-per-difference loop they replaced.  A cyclic coloring with two or
more digit levels (a tensor power) is first counted by the carry automaton
``scan.carry_count``, the one that also gives ``torus`` its exact pattern
probability: a count of D proves it free without a scan, and any other count
leaves the witness to the scan.

Ambients: "cyclic" quantifies progression differences over nonzero residues;
"interval" quantifies over progressions that fit inside [0, N).  In the
cyclic ambient points of a progression may coincide when N shares factors
with the differences; that is allowed, the only nontriviality condition is
d != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import FormatError, check_budget, data_lines, parse_ints
from .patterns import PatternSpec, is_symmetric
from .scan import carry_count, digit_levels, eval_clauses, predicate_clauses, shift_blocks

__all__ = [
    "CYCLIC",
    "INTERVAL",
    "Coloring",
    "Witness",
    "SearchResult",
    "Z22_COLORING",
    "verify_symmetric_ap_free",
    "verify_sym_a_ap_free",
    "verify_mono_pattern_free",
    "verify_binomial_pattern_free",
    "verify_abab_abba_free",
    "tensor_power",
    "search_coloring",
    "coloring_to_text",
    "coloring_from_text",
]

CYCLIC = "cyclic"
INTERVAL = "interval"

# 3-coloring of Z/22Z with no symmetrically colored 4-term progression
# (recoverable with search_coloring; kept as a regression anchor).
Z22_COLORING = "1333221232131211333233"

_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Coloring:
    """A coloring of Z/NZ or of the interval [0, N).

    Color ids are exactly 1..r with every id used; constructors that produce
    sparse ids must relabel first (see ``Coloring.from_raw``).  ``levels`` is
    the digit structure of the colors: the given levels, checked by
    ``scan.digit_levels``, or else the one level ``((N, colors),)``.  It
    takes no part in equality, nor do ``r`` and the int64 array ``as_array``
    of the colors, which is converted once; ``colors`` is its ``tolist()``.
    """

    ambient: str
    colors: tuple[int, ...] | np.ndarray
    levels: tuple | None = field(default=None, compare=False, repr=False)
    r: int = field(init=False, compare=False, repr=False)
    as_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.colors, dtype=np.int64)
        colors = tuple(arr.tolist())
        object.__setattr__(self, "colors", colors)
        if self.ambient not in (CYCLIC, INTERVAL):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not colors:
            raise ValueError("coloring must be nonempty")
        r = int(arr.max())
        if arr.min() < 1 or r != len(set(colors)):
            raise ValueError("color ids must be exactly 1..r with all used")
        object.__setattr__(self, "as_array", arr)
        object.__setattr__(self, "r", r)
        given = self.levels
        levels = ((len(colors), colors),) if given is None else digit_levels(arr, given)
        object.__setattr__(self, "levels", levels)

    @property
    def n(self) -> int:
        return len(self.colors)

    @classmethod
    def from_raw(cls, ambient, ids) -> "Coloring":
        """Relabel arbitrary hashable labels to dense 1..r by first occurrence."""
        mapping: dict = {}
        out = []
        for x in ids:
            if x not in mapping:
                mapping[x] = len(mapping) + 1
            out.append(mapping[x])
        return cls(ambient, tuple(out))


@dataclass(frozen=True)
class Witness:
    """A concrete pattern violation; re-evaluating the predicate on ``points``
    reproduces it."""

    kind: str
    n: int | None
    d: int | None
    points: tuple[int, ...]
    colors: tuple[int, ...]
    detail: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# file format: line 1 ambient, line 2 "N r", line 3 colors
# (base-36 digits, one per position, when r <= 35; else whitespace-separated)


def coloring_to_text(c: Coloring) -> str:
    r = c.r
    if r <= 35:
        body = "".join(_B36[x] for x in c.colors)
    else:
        body = " ".join(map(str, c.colors))
    return f"{c.ambient}\n{c.n} {r}\n{body}\n"


def coloring_from_text(text: str) -> Coloring:
    rows = data_lines(text)
    if len(rows) < 3:
        raise FormatError("expected 3 lines (ambient, sizes, colors)", len(rows))
    (amb_no, amb), (head_no, head), (body_no, body) = rows[:3]
    ambient = amb.split()[-1].lower()
    if ambient not in (CYCLIC, INTERVAL):
        raise FormatError(f"unknown ambient {amb!r}", amb_no)
    try:
        n, r = (int(tok) for tok in head.split())
    except ValueError:
        raise FormatError(f"expected 'N r', got {head!r}", head_no) from None
    if " " in body or r > 35:
        ids = parse_ints(rows[2:3])
    else:
        try:
            ids = [int(ch, 36) for ch in body]
        except ValueError:
            raise FormatError("invalid base-36 color digit", body_no) from None
    if len(ids) != n:
        raise FormatError(f"expected {n} colors, got {len(ids)}", body_no)
    col = Coloring(ambient, tuple(ids))
    if col.r != r:
        raise FormatError(f"header says r={r} but {col.r} colors used", head_no)
    return col


# ---------------------------------------------------------------------------
# verifiers


def _least_hit(coloring: Coloring, offsets, clauses, signed=False, bound=None):
    """(n, d, clause) for the lexicographically least (n, d) at which some
    clause holds on the colors at n + offsets[i]*d, with the first clause, in
    list order, that holds there; None when no clause holds anywhere.

    offsets must be normalized (first entry 0, increasing).  Cyclic ambient
    scans d over 1..N-1, which already covers negated differences; interval
    scans d >= 1, plus d <= -1 when ``signed`` is set (needed for predicates
    that are not reversal-invariant), each n with every point in [0, N).

    The scan reads the blocks of ``scan.shift_blocks`` (d = -1, -2, ... for
    the negative differences); on an interval a start-point mask drops the
    n whose progression wraps.  A block's hit is its least hit column, then
    the least d in that column.  Only hits below ``bound``, a known (n, d),
    count, and every later block reads only the columns up to the best
    (n, d) so far; when no column is left the scan ends.  None when no hit
    lies below ``bound``.
    """
    n_amb = coloring.n
    amax = offsets[-1]
    cyclic = coloring.ambient == CYCLIC
    colors = coloring.as_array.astype(np.min_scalar_type(coloring.r))
    if cyclic:
        phases = [(1, n_amb - 1)]
    else:
        phases = [(1, (n_amb - 1) // amax)] + ([(-1, (n_amb - 1) // amax)] if signed else [])
    best, hit = bound, None
    for sign, d_max in phases:
        for e0, views in shift_blocks(colors, offsets, 1, d_max + 1, sign=sign):
            b = len(views[0])
            d0 = sign * e0
            lo = amax * e0 if sign < 0 else 0
            hi = n_amb - amax * e0 if not cyclic and sign > 0 else n_amb
            if best is not None:
                # column best[0] still counts while the block has a d below best[1]
                hi = min(hi, best[0] + (min(d0, sign * (e0 + b - 1)) < best[1]))
            if hi <= lo:
                # a later block of the phase starts at least one column
                # further right and ends at most one further right
                break
            mask = eval_clauses(clauses, [v[:, lo:hi] for v in views])
            if not mask.any():
                continue
            if not cyclic:
                e = np.arange(e0, e0 + b)[:, None]
                n = np.arange(lo, hi)
                mask &= n >= amax * e if sign < 0 else n < n_amb - amax * e
            hit_cols = mask.any(axis=0)
            if not hit_cols.any():
                continue
            j = int(np.argmax(hit_cols))
            hit_rows = np.flatnonzero(mask[:, j])
            cand = (lo + j, sign * (e0 + int(hit_rows[0] if sign > 0 else hit_rows[-1])))
            if best is None or cand < best:
                best = hit = cand
    if hit is None:
        return None
    n, d = hit
    at = [coloring.colors[(n + o * d) % n_amb] for o in offsets]
    return n, d, next(cl for cl in clauses if eval_clauses([cl], at))


def _counted_free(coloring: Coloring, offsets, clauses) -> bool:
    """True when the carry automaton ``scan.carry_count`` shows a cyclic
    coloring with two or more digit levels free of the clauses at every
    d != 0; False when it shows a hit, and for every other coloring, which
    the verifier then scans.

    The automaton runs from the one start cell g = 0 of area 1, so D^2
    times its result counts the (n, d) in (Z/DZ)^2 at which some clause
    holds on the colors at n + a_i d.  The row d = 0 adds exactly D: every
    position then reads the color of n, and every clause of
    ``scan.predicate_clauses`` holds on a constant tuple (a pairing asks
    paired colors equal, a subset one color).  The cyclic scan treats every
    d in 1..D-1 as nontrivial, d = D/2 too when D is even, so each further
    count is an (n, d) it reports: the coloring is free exactly when the
    count is D.

    Budget: for k = 4 (the symmetric and the binomial AP4 predicate are
    one pairing each) a state is the carry vector (c_1, c_2, c_3), with
    c_i <= a_i from the start g = 0, and its one live clause: at most
    2 * 3 * 4 = 24 states.  ``tensor_power`` builds ell >= 2 levels of base
    n = D^(1/ell), or finer ones when the factor has several, so the
    transitions are at most 24 * ell * n^2 <= 48 D (ell n^2 <= 2 n^ell at
    n >= 2), at most 4.8e7 under ``tensor_cells`` (D <= 10^6), far below
    ``exact_work`` (2.5e9).
    """
    if coloring.ambient != CYCLIC or len(coloring.levels) < 2:
        return False
    D = coloring.n
    start = ((0,) * len(offsets), Fraction(1))
    return carry_count(coloring.levels, offsets, (start,), clauses) * D * D == D


def _witness_at(coloring, offsets, n, d, kind, detail=None):
    # an interval progression's points already lie in [0, N)
    pts = tuple((n + o * d) % coloring.n for o in offsets)
    cols = tuple(coloring.colors[p] for p in pts)
    return Witness(kind, n, d, pts, cols, detail or {})


def verify_symmetric_ap_free(coloring: Coloring, k: int) -> Witness | None:
    """No k-term progression with d != 0 whose i-th and (k-1-i)-th points share
    a color for every i < k/2.  k must be even."""
    if k % 2 or k < 4:
        raise ValueError("k must be even and at least 4")
    return _scan_symmetric(coloring, PatternSpec.ap(k), "symmetric-ap")


def verify_sym_a_ap_free(coloring: Coloring, spec: PatternSpec) -> Witness | None:
    """Symmetric-coloring check along a-progressions for a symmetric spec."""
    if not is_symmetric(spec):
        raise ValueError("spec must be symmetric (even k, constant a_i + a_{k+1-i})")
    return _scan_symmetric(coloring, spec, "symmetric-a-ap")


def _scan_symmetric(coloring, spec, kind):
    offsets = spec.normalized().a
    clauses = predicate_clauses(spec, "symmetric")
    if _counted_free(coloring, offsets, clauses):
        return None
    hit = _least_hit(coloring, offsets, clauses)
    if hit is None:
        return None
    return _witness_at(coloring, offsets, hit[0], hit[1], kind)


def verify_binomial_pattern_free(coloring: Coloring, spec: PatternSpec) -> Witness | None:
    """No a-progression with d != 0 that either (a) matches colors under some
    coefficient-negating pairing of the spec, or (b) is monochromatic on some
    zero-sum coefficient subset of size >= 3.

    All pairings and all zero-sum subsets are checked.  For interval colorings
    the difference is scanned over both signs, since clause predicates need
    not be reversal-invariant for asymmetric specs.  The witness detail names
    the first clause, pairings before subsets, that holds at the witness.
    """
    offsets = spec.normalized().a
    clauses = predicate_clauses(spec, "binomial")
    if _counted_free(coloring, offsets, clauses):
        return None
    hit = _least_hit(coloring, offsets, clauses, signed=True)
    if hit is None:
        return None
    n, d, (ckind, data) = hit
    return _witness_at(
        coloring, offsets, n, d, "binomial-pattern", {"clause": ckind, ckind: data}
    )


def _least_k_pattern(members: np.ndarray, in_class: np.ndarray, k: int, cyclic: bool):
    """Lexicographically least (n1, n2, n3, a, b) with n1, n2, n3 in the
    sorted int64 array ``members``, not all equal, and a*n1 + b*n2 =
    (a+b)*n3 for positive a, b with a+b <= k-1; the equation holds modulo
    N = len(in_class) when ``cyclic`` and over the integers otherwise.
    ``in_class`` is the membership mask of ``members`` in [0, N).  None when
    no such triple exists."""
    n_amb = len(in_class)
    s1 = members[:, None]
    s2 = members[None, :]
    best = None
    for a in range(1, k - 1):
        for b in range(1, k - a):
            s = a + b
            t = a * s1 + b * s2
            if cyclic:
                # s*n3 = t (mod N) has gcd(s, N) roots in [0, N) when solvable
                g = math.gcd(s, n_amb)
                ng = n_amb // g
                t %= n_amb
                solvable = t % g == 0
                base = ((t // g) * pow(s // g, -1, ng)) % ng
                roots = [base + u * ng for u in range(g)]
            else:
                # a weighted mean of members lies in [0, N)
                solvable = t % s == 0
                roots = [t // s]
            for n3 in roots:
                hits = solvable & in_class[n3] & ~((s1 == s2) & (n3 == s1))
                if hits.any():
                    # members are sorted, so row-major order is lexicographic
                    i, j = np.argwhere(hits)[0]
                    cand = (int(members[i]), int(members[j]), int(n3[i, j]), a, b)
                    if best is None or cand < best:
                        best = cand
    return best


def verify_mono_pattern_free(coloring: Coloring, k: int) -> Witness | None:
    """No monochromatic triple (n1, n2, n3), not all equal, with
    a*n1 + b*n2 = (a+b)*n3 for positive a, b, a+b <= k-1."""
    if k < 3:
        raise ValueError("k must be at least 3")
    col = coloring.as_array
    best = None
    for color in range(1, coloring.r + 1):
        in_class = col == color
        members = np.flatnonzero(in_class).astype(np.int64)
        cand = _least_k_pattern(members, in_class, k, coloring.ambient == CYCLIC)
        if cand is not None and (best is None or cand < best):
            best = cand
    if best is None:
        return None
    n1, n2, n3, a, b = best
    cols = (coloring.colors[n1], coloring.colors[n2], coloring.colors[n3])
    return Witness("mono-pattern", None, None, (n1, n2, n3), cols, {"a": a, "b": b})


def verify_abab_abba_free(coloring: Coloring, a_bound: int) -> Witness | None:
    """No ABAB pattern, and no ABBA pattern with a_1+a_4 != a_2+a_3, along any
    (a_1 < a_2 < a_3 < a_4)-progression with offsets bounded by a_bound.

    The quadruple family is closed under reversal, so interval colorings only
    need d >= 1.

    The quads are scanned in increasing order, each by ``_least_hit`` below
    the least (n, d) found so far, and the scan stops at a hit at (0, 1):
    no later quad can beat it.
    """
    if a_bound < 4:
        raise ValueError("a_bound must be at least 4")
    abab = ("pairing", ((0, 2), (1, 3)))
    abba = ("pairing", ((0, 3), (1, 2)))
    best = None
    for quad in combinations(range(1, a_bound + 1), 4):
        offsets = tuple(x - quad[0] for x in quad)
        asym = quad[0] + quad[3] != quad[1] + quad[2]
        # quads come in increasing order, so an equal (n, d) keeps the first:
        # a later quad counts only below the best (n, d) so far
        hit = _least_hit(
            coloring, offsets, [abab, abba] if asym else [abab], bound=best and best[:2]
        )
        if hit is not None:
            kind = "abab" if hit[2] == abab else "asymmetric-abba"
            best = (hit[0], hit[1], quad, offsets, kind)
            # an unsigned scan reads n >= 0 and d >= 1 on both ambients
            # (cyclic d runs over 1..N-1), so (0, 1) is the least (n, d) it
            # can return, and every later quad, counting only below it,
            # would return None
            if best[:2] == (0, 1):
                break
    if best is None:
        return None
    n, d, quad, offsets, kind = best
    return _witness_at(coloring, offsets, n, d, kind, {"quad": quad})


# ---------------------------------------------------------------------------
# constructions


def tensor_power(coloring: Coloring, ell: int) -> Coloring:
    """Color n in Z/N^ell Z by the tuple of colors of its base-N digits,
    least-significant digit first.

    Each progression's least significant varying digit is itself a
    progression, so freeness from symmetrically colored progressions is
    preserved.  The result's ``levels`` are ell copies of the factor's
    levels.
    """
    if coloring.ambient != CYCLIC:
        raise ValueError("tensor power needs a cyclic coloring")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    n, r = coloring.n, coloring.r
    check_budget("tensor_cells", n**ell)
    # the digit colors of every point as one integer below r^ell <= n^ell
    points = np.arange(n**ell)
    key = np.zeros(n**ell, dtype=np.int64)
    for _ in range(ell):
        key = key * r + coloring.as_array[points % n] - 1
        points //= n
    # relabel 1..r^ell by first occurrence, as Coloring.from_raw does
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    label = np.empty(len(first), dtype=np.int64)
    label[np.argsort(first)] = np.arange(1, len(first) + 1)
    return Coloring(CYCLIC, label[inverse], coloring.levels * ell)


# ---------------------------------------------------------------------------
# search


@dataclass
class SearchResult:
    status: str  # "found" | "none_exists" | "exhausted"
    coloring: Coloring | None
    nodes: int


def _normalized_spec(pattern) -> PatternSpec:
    """The normalized spec of a search pattern, an int k or a PatternSpec."""
    if isinstance(pattern, PatternSpec):
        return pattern.normalized()
    k = int(pattern)
    if k < 3:
        raise ValueError("k must be at least 3")
    return PatternSpec.ap(k)


def _symmetric_constraints(n_amb, spec, ambient):
    """Deduplicated symmetric-coloring constraints as pair lists, one per
    progression of the normalized ``spec``, from the one pairing clause of
    ``scan.predicate_clauses(spec, "symmetric")``.

    Each constraint holds the index pairs that must NOT all be monochromatic.
    Pairs whose two points coincide are dropped (they hold automatically).
    None is left empty: ``search_coloring`` first decides by
    ``_always_violated`` whether some progression has no pair left.
    """
    offsets = spec.a
    amax = offsets[-1]
    [(_, pairing)] = predicate_clauses(spec, "symmetric")
    seen = {}
    if ambient == CYCLIC:
        nds = ((n, d) for n in range(n_amb) for d in range(1, n_amb))
    else:
        nds = (
            (n, d)
            for d in range(1, (n_amb - 1) // amax + 1)
            for n in range(n_amb - amax * d)
        )
    for n, d in nds:
        pts = [(n + o * d) % n_amb for o in offsets]
        pairs = []
        for i, j in pairing:
            p, q = pts[i], pts[j]
            if p != q:
                pairs.append((min(p, q), max(p, q)))
        key = frozenset(pairs)
        if key in seen:
            continue
        seen[key] = tuple(sorted(set(pairs)))
    return list(seen.values())


def _always_violated(n_amb, spec, ambient) -> bool:
    """Whether some progression has all its symmetric pairs on one point
    each, which no coloring avoids: never in the interval, where offsets are
    distinct; mod N, pair (i, k-1-i) is one point iff N/gcd(N, a_{k-1-i} - a_i)
    divides d, so some d in 1..N-1 works iff the lcm of these is below N,
    that is iff N and all the a_{k-1-i} - a_i have a common factor."""
    if ambient != CYCLIC:
        return False
    a = spec.a
    [(_, pairing)] = predicate_clauses(spec, "symmetric")
    return math.gcd(n_amb, *(a[j] - a[i] for i, j in pairing)) > 1


def search_coloring(
    n: int,
    pattern,
    r: int,
    ambient: str = CYCLIC,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = 0,
) -> SearchResult:
    """Find an r-coloring with no symmetrically colored progression.

    ``pattern`` is an even k (plain progressions) or a symmetric PatternSpec.
    Exhaustive mode runs depth-first search with incremental checks and
    canonical color pruning (color j is introduced only after j-1), so
    "none_exists" is a refutation of the whole r^n space.  Randomized mode
    resamples the positions of violated constraints until the budget runs
    out; exhaustion is reported distinctly from refutation.  Deterministic
    for a fixed (seed, budget).
    """
    if n < 1:
        raise ValueError("N must be at least 1")
    if r < 1:
        raise ValueError("r must be at least 1")
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    spec = _normalized_spec(pattern)
    if isinstance(pattern, PatternSpec) and not is_symmetric(pattern):
        raise ValueError("search needs a symmetric spec")
    if spec.k % 2:
        raise ValueError("symmetric patterns need even length")
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if _always_violated(n, spec, ambient):
        return SearchResult("none_exists", None, 0)

    if mode == "exhaustive":
        check_budget("exhaustive_n", n)
        return _search_dfs(n, r, ambient, _symmetric_constraints(n, spec, ambient), budget)
    rounds = 10_000 if budget is None else budget
    constraints = _symmetric_constraints(n, spec, ambient)
    return _search_randomized(n, r, ambient, constraints, rounds, seed)


def _search_dfs(n, r, ambient, constraints, budget):
    by_max = [[] for _ in range(n)]
    for pairs in constraints:
        by_max[max(max(p) for p in pairs)].append(pairs)
    colors = [0] * n
    nodes = 0
    exhausted = False

    def ok(p):
        for pairs in by_max[p]:
            for i, j in pairs:
                if colors[i] != colors[j]:
                    break
            else:
                return False
        return True

    def dfs(p, max_used):
        nonlocal nodes, exhausted
        if p == n:
            return True
        for c in range(1, min(r, max_used + 1) + 1):
            # an exhausted search unwinds without counting, so it reports
            # exactly its budget
            if budget is not None and nodes == budget:
                exhausted = True
                return False
            nodes += 1
            colors[p] = c
            if ok(p) and dfs(p + 1, max(max_used, c)):
                return True
        colors[p] = 0
        return False

    if dfs(0, 0):
        return SearchResult("found", Coloring.from_raw(ambient, colors), nodes)
    return SearchResult("exhausted" if exhausted else "none_exists", None, nodes)


def _search_randomized(n, r, ambient, constraints, budget, seed):
    rng = np.random.default_rng(seed)
    colors = rng.integers(1, r + 1, size=n)
    if constraints:
        pair_i = np.array([i for pairs in constraints for i, _ in pairs])
        pair_j = np.array([j for pairs in constraints for _, j in pairs])
        starts = np.cumsum([0] + [len(pairs) for pairs in constraints])[:-1]
        members = [sorted({x for p in pairs for x in p}) for pairs in constraints]
    rounds = 0
    while True:
        if constraints:
            eq = (colors[pair_i] == colors[pair_j]).astype(np.int8)
            per = np.minimum.reduceat(eq, starts)
            violated = np.flatnonzero(per)
        else:
            violated = []
        if len(violated) == 0:
            return SearchResult(
                "found", Coloring.from_raw(ambient, colors.tolist()), rounds
            )
        if rounds >= budget:
            return SearchResult("exhausted", None, rounds)
        idx = members[int(violated[0])]
        colors[idx] = rng.integers(1, r + 1, size=len(idx))
        rounds += 1
