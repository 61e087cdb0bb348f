"""Progression-free building blocks in Z/mZ.

Three constructions: digit-sphere sets (Behrend-style) that avoid short
weighted patterns, greedy sets avoiding nontrivial solutions of an arbitrary
binomial system, and a base-9 digit set whose only solutions of the 4-term
system are the forced ones.  One verifier certifies the last two, by a
digit proof where the digits decide and by exact counting otherwise; a
digit-sphere set is pattern-free by the argument in ``behrend_set``,
and the tests check it with ``colorings.verify_mono_pattern_free`` on the
coloring with the set as one class and every other residue a class of its
own.  The module builds sets only, so it imports nothing from ``colorings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BUDGETS, FormatError, SelfCheckError, check_budget
from .errors import data_lines, parse_ints
from .patterns import (
    BinomialSystem,
    is_trivial_solution,
    trivial_solution_count,
    zero_sum_partitions,
)

__all__ = [
    "ResidueSet",
    "GreedyResult",
    "behrend_set",
    "greedy_solution_free_set",
    "base9_set",
    "verify_solution_free",
    "residue_set_to_text",
    "residue_set_from_text",
]

@dataclass(frozen=True)
class ResidueSet:
    """Sorted distinct residues modulo m."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(sorted(int(x) for x in self.elements))
        object.__setattr__(self, "elements", elements)
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if len(set(elements)) != len(elements):
            raise ValueError("elements must be distinct")
        if elements and not (0 <= elements[0] and elements[-1] < self.modulus):
            raise ValueError("elements must lie in [0, m)")

    def __len__(self):
        return len(self.elements)


def residue_set_to_text(s: ResidueSet) -> str:
    body = " ".join(str(x) for x in s.elements)
    return f"{s.modulus} {len(s)}\n{body}\n"


def residue_set_from_text(text: str) -> ResidueSet:
    rows = data_lines(text)
    if not rows:
        raise FormatError("empty residue-set file", 1)
    head_no, head = rows[0]
    try:
        m, r = (int(tok) for tok in head.split())
    except ValueError:
        raise FormatError(f"expected 'm r', got {head!r}", head_no) from None
    elems = parse_ints(rows[1:])
    if len(elems) != r:
        raise FormatError(f"header says {r} elements, got {len(elems)}", head_no + 1)
    return ResidueSet(m, tuple(elems))


# ---------------------------------------------------------------------------
# Behrend-style digit-sphere sets


def behrend_set(N: int, k: int) -> ResidueSet:
    """A k-pattern-free subset of Z/NZ from digit vectors on a sphere shell.

    Digit vectors x in {0..d-1}^m are mapped to sum x_i B^i with the no-carry
    base B = (k-1)(d-1)+1, so any relation a*n1 + b*n2 = (a+b)*n3 with
    a+b <= k-1 lifts to the digit lattice, where a common squared norm forces
    all three points equal (strict convexity).  Wraparound is excluded by
    requiring (k-1)*max(S) < N.  For d = 2 the whole cube works: digitwise
    a*x + b*y = (a+b)*z over {0,1} already forces x = y = z.

    Parameters (d, m, shell) are scanned over d^m <= 200,000 digit vectors (a
    search horizon, not a failure cap) to maximize the set size; N too small
    to host anything beyond a singleton yields {0}.
    """
    horizon = 200_000
    if N < 2:
        raise ValueError("N must be at least 2")
    if k < 3:
        raise ValueError("k must be at least 3")
    best = (1, (0,))
    d = 2
    while d <= horizon:
        B = (k - 1) * (d - 1) + 1
        # anything new at dimension m has an element >= B^(m-1), so the
        # wraparound bound (k-1)*max < N prunes (d, m) pairs up front
        if (k - 1) * B >= N:
            break
        m_dim = 2
        while d**m_dim <= horizon and (k - 1) * B ** (m_dim - 1) < N:
            digits = np.indices((d,) * m_dim).reshape(m_dim, -1).T
            weights = B ** np.arange(m_dim, dtype=np.int64)
            values = digits @ weights
            norms = (digits * digits).sum(axis=1)
            feasible = (k - 1) * values < N
            if d == 2:
                # the whole {0,1}-cube is pattern-free, and so is any subset
                vals = values[feasible]
                if len(vals) > best[0]:
                    best = (len(vals), tuple(sorted(int(v) for v in vals)))
            counts = np.bincount(norms[feasible])
            if counts.size and counts.max() > best[0]:
                norm = int(counts.argmax())
                vals = values[feasible & (norms == norm)]
                best = (len(vals), tuple(sorted(int(v) for v in vals)))
            m_dim += 1
        d += 1
    return ResidueSet(N, best[1])


# ---------------------------------------------------------------------------
# greedy solution-free sets


@dataclass
class GreedyResult:
    set: ResidueSet
    complete: bool
    scanned: int


class _SolutionCounter:
    """Counts solutions of sum e_i n_i = 0 (mod m) with entries from a growing
    set S, via dense residue count tables.

    Row u of ``tables`` (a bitmask below 2^k) is T_u: T_u[s] is the number of
    tuples over S on the positions in u whose weighted sum sum_{i in u} e_i n_i
    is s mod m (T_empty is 1 at s = 0).  Rows are stored centred: column j
    holds residue (j - off) mod m with off = m // 2, so residue s sits at
    column (s + off) mod m.  Accepting x updates the rows in place, one
    position at a time, as a subset-product transform:

        for i in 0..k-1, for every v containing i:
            T_v[s] += T_{v - i}[s - e_i x mod m]

    Before stage i, rows count tuples with positions below i drawn from
    S + {x} and the others from S; stage i extends position i.  Bit i splits
    the rows of ``tables.reshape(2^(k-1-i), 2, 2^i, m)``: ``[:, 0]`` holds the
    rows without i (the sources) and ``[:, 1]`` the rows with i (the
    destinations), in matching order, so a stage is one shift of one strided
    view into a disjoint one.  ``stages`` holds the k (source, destination)
    view pairs, built once with the table.

    The window.  Let M be the positive coefficient mass (the sum of the
    positive e_i, equal to minus the sum of the negative ones), top the
    largest value accepted so far (a running maximum, since accepts need not
    come in order) and w = M top.  A tuple over values in [0, top] on the
    positions in any u has an integer weighted sum in [-w, w]: its positive
    terms add to at most M top and its negative ones to at least -M top.
    While 2w < m these 2w + 1 integers are distinct residues, and with
    off = m // 2 they sit at the columns off - w .. off + w, all inside
    [0, m) (w < m/2 gives off - w >= 0 and off + w < m), so every row is
    zero outside that window.  The sources of stage i are rows without bit
    i whose tuples draw from S + {x}, all of whose values are at most top,
    so they lie in the window; a destination's tuples do too, so the shift
    by the integer c = e_i x moves every nonzero source column (off + s, s
    in [-w, w]) to the destination column off + s + c with no wrap, and a
    shifted column outside the window carries a source zero.  So the stage
    is one slice add over the overlap of the window with its shift by c,
    and clipping to that overlap adds only zeros outside it.  Once 2w >= m
    a stage is the cyclic shift by e_i x mod m, two slice adds, which is
    the same update in the centred layout.

    The number of solutions over (S + {x})^k that use x (x not in S) is the
    sum over nonempty t of T_{[k] - t}[-e(t) x mod m], with e(t) the
    coefficient sum over t: t is the set of positions that hold x.

    Classes of equal terms.  T_u depends on u only through the multiset of
    its coefficients: renaming positions with equal coefficients maps tuples
    to tuples with the same weighted sum.  The multiset of [k] - t is that
    of the system less that of t, and the coefficients sum to zero, so
    -e(t) = e([k] - t): terms t and t' with equal coefficient multisets are
    equal at every x.  When the multiset of the system is closed under
    negation (AP4, AP6) and t' has the negation of t's multiset, [k] - t'
    has the negation of that of [k] - t, so T_{[k] - t'}(s) =
    T_{[k] - t}(-s); term t' reads it at -e(t') x = e(t) x, which is
    T_{[k] - t} read at -e(t) x, the term of t.  So t and t' share a class
    when their multisets are equal or, for a closed system only, negations
    of each other.  Without closure negated terms may differ: the pattern
    (0,1,2,4,5) gives e = (3,-10,10,-5,2), where t = {1} and t' = {2} have
    negated multisets, but [k] - t has {3,10,-5,2} and [k] - t' has
    {3,-10,-5,2}, not its negation.  ``deltas`` reads one term per class,
    the one with the least t, and weights it by the class size: AP4 goes
    from 15 terms to 9, AP5 from 31 to 17 and AP6 from 63 to 35.

    The columns.  A term t reads column (-e(t) mod m) x + off mod m of row
    [k] - t, found in the flattened ``tables`` at ([k] - t) m plus that
    column, so a window of consecutive candidates costs one ``take``.  The
    indices are computed in int64: -e(t) mod m, x and off are all below m,
    so the column before reduction is below m^2 + m, and the flat index is
    below 2^k m; both stay below 2^63 for every m up to 3e9, far past any
    table that the ``greedy_table`` budget admits.

    Only proper rows are read.  Each of their counts is at most |S|^(|u|)
    <= |S|^(k-1), which the ``greedy_table`` budget bounds, so with that
    budget below 2^31 ``tables`` is exact in int32.  The full row T_[k] is
    written by every stage and never read: it is scratch, its counts reach
    |S|^k, and they may wrap.  ``tables`` holds 2^k m entries, which the
    budget also bounds.
    """

    def __init__(self, system: BinomialSystem, m: int):
        k = system.k
        check_budget("greedy_table", (1 << k) * m)
        self.e = system.e
        self.m = m
        self.mass = sum(c for c in self.e if c > 0)
        self.top = 0
        self.off = m // 2
        full = (1 << k) - 1
        dtype = np.int32 if BUDGETS["greedy_table"].cap < 2**31 else np.int64
        self.tables = np.zeros((full + 1, m), dtype=dtype)
        self.tables[0, self.off] = 1
        self.stages = []
        for i in range(k):
            stage = self.tables.reshape(-1, 2, 1 << i, m)
            self.stages.append((stage[:, 0], stage[:, 1]))
        closed = sorted(self.e) == sorted(-c for c in self.e)
        classes: dict[tuple[int, ...], list[int]] = {}
        for t in range(1, full + 1):
            key = tuple(sorted(self.e[i] for i in range(k) if t >> i & 1))
            if closed:
                key = min(key, tuple(sorted(-c for c in key)))
            classes.setdefault(key, []).append(t)
        # the terms of each class, least first; deltas reads the least
        self.classes = list(classes.values())
        self.weights = np.array([len(ts) for ts in self.classes], dtype=np.int64)
        reps = [ts[0] for ts in self.classes]
        self.shifts = np.array(
            [-sum(self.e[i] for i in range(k) if t >> i & 1) % m for t in reps], dtype=np.int64
        )[:, None]
        self.rows = np.array([(full ^ t) * m for t in reps], dtype=np.int64)[:, None]
        self.flat = self.tables.reshape(-1)

    def accept(self, x: int):
        m, off = self.m, self.off
        self.top = max(self.top, x)
        w = self.mass * self.top
        for e_i, (src, dst) in zip(self.e, self.stages):
            if 2 * w < m:
                c = e_i * x
                lo, hi = off + max(-w, c - w), off + min(w, c + w) + 1
                dst[..., lo:hi] += src[..., lo - c : hi - c]
            else:
                c = e_i * x % m
                dst[..., c:] += src[..., : m - c]
                dst[..., :c] += src[..., m - c :]

    def deltas(self, lo: int, hi: int) -> np.ndarray:
        """For each candidate x in lo..hi-1 (none of them in S), the number of
        solutions over (S + {x})^k that use x at least once."""
        cols = (self.shifts * np.arange(lo, hi) + self.off) % self.m + self.rows
        return self.weights @ self.flat.take(cols)


def greedy_solution_free_set(
    system: BinomialSystem,
    m: int,
    r: int,
) -> GreedyResult:
    """Scan 0, 1, ..., m-1, keeping a candidate iff it creates no nontrivial
    solution among the kept values (repetitions included).

    A candidate is admissible iff the solutions it creates (``_SolutionCounter``)
    number exactly the new trivial ones.  Those follow in closed form from the
    zero-sum partitions of the positions, enumerated once: a partition with b
    blocks gives perm(t, b) trivial solutions over t values.

    Returns a complete flag; an incomplete result means the scan ran out of
    residues, and the caller may retry with a larger modulus.  After each
    accept the search for the next one tests a window of 32 candidates, and
    doubles the window (up to 4096) each time it holds no admissible one:
    gaps between accepts are short, so this tests few candidates past the
    one accepted.  The first admissible candidate in scan order does not
    depend on the windows, so neither does the result.

    Two checks of the ``greedy_table`` budget run before any table is
    allocated: r^(k-1) bounds every table count (and fails fast for the
    odd-k chain at k >= 7), and 2^k m bounds the table memory.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    check_budget("greedy_table", r ** (system.k - 1))
    counter = _SolutionCounter(system, m)
    blocks = [len(p) for p in zero_sum_partitions(system)]
    elements: list[int] = []
    x = 0
    window = 32
    while x < m and len(elements) < r:
        hi = min(m, x + window)
        t = len(elements)
        need = sum(math.perm(t + 1, b) - math.perm(t, b) for b in blocks)
        good = np.flatnonzero(counter.deltas(x, hi) == need)
        if len(good) == 0:
            x = hi
            window = min(2 * window, 4096)
            continue
        accepted = x + int(good[0])
        elements.append(accepted)
        counter.accept(accepted)
        x = accepted + 1
        window = 32
    return GreedyResult(ResidueSet(m, tuple(elements)), len(elements) >= r, x)


# ---------------------------------------------------------------------------
# base-9 digit set


def base9_set(r: int, m: int) -> ResidueSet:
    """The first r positive integers whose base-9 digits are all 0, 1 or 2,
    as residues mod m with m > 36 r^2.

    If a - 3b + 3c - d = 0 mod m with a, b, c, d in the set, then comparing
    a + 3c = d + 3b digit by digit in base 3 (no carries occur) forces a = d
    and b = c.  The size bound on m rules out wraparound: the largest element
    is at most 9 r^2.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if m <= 36 * r * r:
        raise ValueError("m must exceed 36 r^2")
    elems = []
    for j in range(1, r + 1):
        x, val, w = j, 0, 1
        while x:
            val += (x % 3) * w
            x //= 3
            w *= 9
        elems.append(val)
    return ResidueSet(m, tuple(elems))


# ---------------------------------------------------------------------------
# verification


_WITNESS_BLOCK = 1 << 16  # matches read at a time in the witness search


def _tuple_sums(values: np.ndarray, coefs, m=None) -> np.ndarray:
    """sum_i coefs[i] v_i over all tuples v of the values, in lexicographic
    tuple order, reduced mod m when m is given."""
    sums = np.zeros(1, dtype=np.int64)
    for c in coefs:
        sums = (sums[:, None] + c * values[None, :]).ravel()
        if m is not None:
            sums %= m
    return sums


def _digit_proof(S: ResidueSet, system: BinomialSystem) -> bool:
    """Whether the base-B digits of S prove it free of nontrivial solutions.

    Let M be the positive coefficient mass (sum of the positive e_i, equal
    to minus the sum of the negative ones), and suppose:
    - every element of S has base-B digits in an alphabet A;
    - B > M max(A) and m > M max(S);
    - the common refinement of the equal-value partitions of all solutions
      of the system in A^k has only blocks of zero coefficient sum.
    Then S is free.  No wrap: for x in S^k, |sum e_i x_i| <= M max(S) < m,
    so a solution mod m is one over Z.  No carry: with x_i = sum_j d_ij B^j,
    sum e_i x_i = sum_j c_j B^j with column sums c_j = sum_i e_i d_ij and
    |c_j| <= M max(A) < B; the least j with c_j != 0 would have B | c_j, so
    every c_j is 0, and every digit column (d_1j, ..., d_kj) is a solution
    in A^k.  Columns: x_i = x_l exactly when every column has d_ij = d_lj,
    so the equal-value partition of x is the common refinement of its
    columns' partitions, which is coarser than that of all solutions in
    A^k.  Its blocks are unions of zero-sum blocks, so x is trivial.

    The rule for B and A: B = M d + 1, the least base in which digits up to
    d cannot carry, for the least d >= 1 at which the digits of S are at
    most d, and A the digits that occur (padded to the length of max(S)).
    d is tried only while (d + 1)^k, which bounds |A|^k, is at most
    min(t^ceil(k/2), the ``verify_half`` cap): the column enumeration costs
    no more than a half table of the meet in the middle it spares, nor than
    the budget admits.  False means undecided, not that S has a solution.
    """
    e, k, t = system.e, system.k, len(S)
    mass = sum(c for c in e if c > 0)
    top = S.elements[-1] if t else 0
    if mass * top >= S.modulus:
        return False
    cap = min(t ** ((k + 1) // 2), BUDGETS["verify_half"].cap)
    arr = np.asarray(S.elements, dtype=np.int64)
    d = 1
    while (d + 1) ** k <= cap:
        base = mass * d + 1
        # the last digits alone rule out most bases, in one pass over S
        if (arr % base).max() > d:
            d += 1
            continue
        places = 1
        while base**places <= top:
            places += 1
        digits = arr[:, None] // base ** np.arange(places, dtype=np.int64) % base
        if digits.max() <= d:
            alphabet = np.flatnonzero(np.bincount(digits.ravel()))
            solutions = np.flatnonzero(_tuple_sums(alphabet, e) == 0)
            cols = alphabet[np.stack(np.unravel_index(solutions, (len(alphabet),) * k), axis=1)]
            same = (cols[:, :, None] == cols[:, None, :]).all(axis=0)
            return not (same @ np.asarray(e)).any()
        d += 1
    return False


def verify_solution_free(S: ResidueSet, system: BinomialSystem):
    """Certify that S holds no nontrivial solution of the system (entries
    may repeat): None, else the lexicographically first one.

    ``verify_half`` bounds the work.  First the digit proof
    (``_digit_proof``), whose enumeration the budget bounds too: where the
    digits of S prove it free, the answer is None, also for a set too
    large for the half tables.  Every set it leaves undecided is counted
    exactly by meet in the middle, once the budget admits its half tables.
    These (first ceil(k/2) positions, the rest) are in lexicographic tuple
    order and the second is sorted stably, so their matches (sums
    cancelling mod m) read back in blocks come in full-tuple order.  S is
    free iff they number the trivial solutions, a closed form.
    """
    m, t, e, k = S.modulus, len(S), system.e, system.k
    if _digit_proof(S, system):
        return None
    half = (k + 1) // 2
    check_budget("verify_half", t**half)
    arr = np.asarray(S.elements, dtype=np.int64)
    sums_a, sums_b = _tuple_sums(arr, e[:half], m), _tuple_sums(arr, e[half:], m)
    order = np.argsort(sums_b, kind="stable")
    sb = sums_b[order]
    targets = (-sums_a) % m
    lo, hi = (np.searchsorted(sb, targets, side=side) for side in ("left", "right"))
    total = int((hi - lo).sum())
    if total == trivial_solution_count(system, t):
        return None
    ends = np.cumsum(hi - lo)
    for start in range(0, total, _WITNESS_BLOCK):
        j = np.arange(start, min(start + _WITNESS_BLOCK, total))
        a = np.searchsorted(ends, j, side="right")
        b = order[hi[a] - (ends[a] - j)]
        values = arr[np.stack(np.unravel_index(a * t ** (k - half) + b, (t,) * k), axis=1)]
        # nontrivial: some position's value class has a nonzero coefficient sum
        same = values[:, :, None] == values[:, None, :]
        rows = np.flatnonzero((same @ np.asarray(e)).any(axis=1))
        if len(rows):
            witness = tuple(int(x) for x in values[rows[0]])
            if is_trivial_solution(system, witness):
                raise SelfCheckError(f"the match {witness} is a trivial solution")
            return witness
    raise SelfCheckError(f"{total} matches exceed the trivial count, but none is nontrivial")
