"""Progression-free building blocks in Z/mZ.

Three constructions: digit-sphere sets (Behrend-style) that avoid short
weighted patterns, greedy sets avoiding nontrivial solutions of an arbitrary
binomial system, and a base-9 digit set whose only solutions of the 4-term
system are the forced ones.  A counting-based verifier certifies each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .colorings import CYCLIC, Coloring, _least_k_pattern
from .errors import BudgetExceededError, FormatError
from .patterns import (
    BinomialSystem,
    trivial_solution_count,
)

__all__ = [
    "ResidueSet",
    "GreedyResult",
    "behrend_set",
    "covering_coloring",
    "greedy_solution_free_set",
    "base9_set",
    "verify_solution_free",
    "verify_set_pattern_free",
    "residue_set_to_text",
    "residue_set_from_text",
]

GREEDY_TABLE_BUDGET = 20_000_000
VERIFY_HALF_BUDGET = 20_000_000


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
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise FormatError("empty residue-set file", 1)
    try:
        m, r = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise FormatError(f"expected 'm r', got {lines[0]!r}", 1) from None
    elems = [int(tok) for ln in lines[1:] for tok in ln.split()]
    if len(elems) != r:
        raise FormatError(f"header says {r} elements, got {len(elems)}", 2)
    return ResidueSet(m, tuple(elems))


# ---------------------------------------------------------------------------
# Behrend-style digit-sphere sets


def behrend_set(N: int, k: int, digit_budget: int = 200_000) -> ResidueSet:
    """A k-pattern-free subset of Z/NZ from digit vectors on a sphere shell.

    Digit vectors x in {0..d-1}^m are mapped to sum x_i B^i with the no-carry
    base B = (k-1)(d-1)+1, so any relation a*n1 + b*n2 = (a+b)*n3 with
    a+b <= k-1 lifts to the digit lattice, where a common squared norm forces
    all three points equal (strict convexity).  Wraparound is excluded by
    requiring (k-1)*max(S) < N.  For d = 2 the whole cube works: digitwise
    a*x + b*y = (a+b)*z over {0,1} already forces x = y = z.

    Parameters (d, m, shell) are scanned within the digit budget to maximize
    the set size; N too small to host anything beyond a singleton yields {0}.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if k < 3:
        raise ValueError("k must be at least 3")
    best = (1, (0,))
    d = 2
    while d <= digit_budget:
        B = (k - 1) * (d - 1) + 1
        # anything new at dimension m has an element >= B^(m-1), so the
        # wraparound bound (k-1)*max < N prunes (d, m) pairs up front
        if (k - 1) * B >= N:
            break
        m_dim = 2
        while d**m_dim <= digit_budget and (k - 1) * B ** (m_dim - 1) < N:
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


def verify_set_pattern_free(S: ResidueSet, k: int):
    """None if no triple (n1, n2, n3) in S^3, not all equal, satisfies
    a*n1 + b*n2 = (a+b)*n3 mod m with positive a, b, a+b <= k-1; else the
    first offending (n1, n2, n3, a, b) in lexicographic order."""
    elems = np.asarray(S.elements, dtype=np.int64)
    member = np.zeros(S.modulus, dtype=bool)
    member[elems] = True
    return _least_k_pattern(elems, member, k, cyclic=True)


# ---------------------------------------------------------------------------
# covering colorings


def covering_coloring(S: ResidueSet, seed: int = 0, max_translates: int | None = None) -> Coloring:
    """Color Z/mZ by the first random translate of S that covers each point.

    Every color class is a subset of one translate, so it inherits any
    translation-invariant freeness property of S.  Deterministic for a fixed
    seed; raises when the translate budget runs out before coverage.
    """
    if len(S) == 0:
        raise ValueError("S must be nonempty")
    m = S.modulus
    rng = np.random.default_rng(seed)
    elems = np.asarray(S.elements, dtype=np.int64)
    cap = max_translates or max(64, int(8 * m / len(S) * (math.log(m) + 1)))
    ids = np.zeros(m, dtype=np.int64)
    uncovered = m
    used = 0
    while uncovered:
        if used >= cap:
            raise BudgetExceededError(f"{cap} translates did not cover Z/{m}Z")
        t = int(rng.integers(m))
        pos = (elems + t) % m
        fresh = pos[ids[pos] == 0]
        ids[fresh] = used + 1
        uncovered -= len(fresh)
        used += 1
    return Coloring.from_raw(CYCLIC, ids.tolist())


# ---------------------------------------------------------------------------
# greedy solution-free sets


@dataclass
class GreedyResult:
    set: ResidueSet
    complete: bool
    scanned: int


class _SolutionCounter:
    """Counts solutions of sum e_i n_i = 0 (mod m) with entries from a growing
    set, via sorted partial-sum tables for every proper position subset.

    A candidate x is admissible iff the number of solutions it creates equals
    the number of new trivial solutions, which is known in closed form from
    the zero-sum partitions of the coefficients.  Tables are rebuilt only on
    accept, so rejected candidates cost 2^k binary searches.
    """

    def __init__(self, system: BinomialSystem, m: int, budget: int = GREEDY_TABLE_BUDGET):
        self.e = system.e
        self.k = system.k
        self.m = m
        self.budget = budget
        self.subsets = [
            u for size in range(self.k) for u in combinations(range(self.k), size)
        ]
        self.coef_sum = {}
        for size in range(1, self.k + 1):
            for t in combinations(range(self.k), size):
                self.coef_sum[t] = sum(self.e[i] for i in t)
        self.tables = {u: np.zeros(1, dtype=np.int64) for u in self.subsets}
        self.count = 1 if self.k == 0 else 0
        self.size = 0

    def _check_budget(self, t):
        if t ** (self.k - 1) > self.budget:
            raise BudgetExceededError(
                f"partial-sum tables need {t}^{self.k - 1} entries, over budget"
            )

    def rebuild(self, elements):
        self._check_budget(len(elements))
        arr = np.asarray(elements, dtype=np.int64)
        for u in self.subsets:
            sums = np.zeros(1, dtype=np.int64)
            for i in u:
                sums = (sums[:, None] + self.e[i] * arr[None, :]) % self.m
                sums = sums.ravel()
            sums.sort()
            self.tables[u] = sums
        self.size = len(elements)

    def deltas(self, candidates: np.ndarray) -> np.ndarray:
        """For each candidate x, the number of solutions over (S + {x})^k that
        use x at least once."""
        out = np.zeros(len(candidates), dtype=np.int64)
        for tsize in range(1, self.k + 1):
            for t in combinations(range(self.k), tsize):
                u = tuple(i for i in range(self.k) if i not in t)
                targets = (-self.coef_sum[t] * candidates) % self.m
                table = self.tables[u]
                lo = np.searchsorted(table, targets, side="left")
                hi = np.searchsorted(table, targets, side="right")
                out += hi - lo
        return out


def greedy_solution_free_set(
    system: BinomialSystem,
    m: int,
    r: int,
    budget: int = GREEDY_TABLE_BUDGET,
) -> GreedyResult:
    """Scan 0, 1, ..., m-1, keeping a candidate iff it creates no nontrivial
    solution among the kept values (repetitions included).

    Returns a complete flag; an incomplete result means the scan ran out of
    residues, and the caller may retry with a larger modulus.  Candidates are
    tested 4096 at a time; the result does not depend on that.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    counter = _SolutionCounter(system, m, budget)
    counter._check_budget(r)
    elements: list[int] = []
    counter.rebuild(elements)
    x = 0
    while x < m and len(elements) < r:
        hi = min(m, x + 4096)
        cands = np.arange(x, hi, dtype=np.int64)
        deltas = counter.deltas(cands)
        t_now = len(elements)
        need = trivial_solution_count(system, t_now + 1) - trivial_solution_count(
            system, t_now
        )
        good = np.flatnonzero(deltas == need)
        if len(good) == 0:
            x = hi
            continue
        accepted = int(cands[good[0]])
        elements.append(accepted)
        counter.rebuild(elements)
        x = accepted + 1
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


def _half_tables(elements, e, m, budget):
    k = len(e)
    half = (k + 1) // 2
    a_idx = tuple(range(half))
    b_idx = tuple(range(half, k))
    t = len(elements)
    if t ** max(len(a_idx), len(b_idx)) > budget:
        raise BudgetExceededError("solution scan exceeds the half-table budget")
    arr = np.asarray(elements, dtype=np.int64)

    def sums_for(idx):
        sums = np.zeros(1, dtype=np.int64)
        for i in idx:
            sums = ((sums[:, None] + e[i] * arr[None, :]) % m).ravel()
        return sums

    return a_idx, b_idx, sums_for(a_idx), sums_for(b_idx)


def _count_matches(sums_a, sums_b, m):
    order = np.argsort(sums_b, kind="stable")
    sb = sums_b[order]
    targets = (-sums_a) % m
    lo = np.searchsorted(sb, targets, side="left")
    hi = np.searchsorted(sb, targets, side="right")
    return int((hi - lo).sum())


def _find_witness(S, system, reject):
    """First assignment (lex order over tuples) with zero sum that ``reject``
    accepts as a violation.  Meet-in-the-middle with a sum dictionary."""
    e = system.e
    m = S.modulus
    k = system.k
    half = (k + 1) // 2
    b_idx = list(range(half, k))
    table: dict[int, list[tuple[int, ...]]] = {}
    for combo in product(S.elements, repeat=len(b_idx)):
        sm = sum(e[i] * v for i, v in zip(b_idx, combo)) % m
        table.setdefault(sm, []).append(combo)
    for combo_a in product(S.elements, repeat=half):
        target = (-sum(e[i] * v for i, v in enumerate(combo_a))) % m
        for combo_b in table.get(target, ()):
            full = combo_a + combo_b
            if reject(full):
                return full
    return None


def verify_solution_free(S: ResidueSet, system: BinomialSystem, mode: str = "all_nontrivial", budget: int = VERIFY_HALF_BUDGET):
    """Certify solution-freeness by exact counting.

    mode "all_nontrivial": no nontrivial solution of the system exists in S
    (entries may repeat).  mode "abba_only" (4-term systems with e1 = -e4 and
    e2 = -e3): every solution must have n1 = n4 and n2 = n3.  Returns None on
    success, else the lexicographically first offending assignment.

    The decision is made by comparing the total match count from
    meet-in-the-middle partial sums against the closed-form count of allowed
    solutions, so the quadruple scan is exhaustive without enumerating S^k.
    """
    from .patterns import is_trivial_solution

    e = system.e
    m = S.modulus
    t = len(S)
    if t == 0:
        return None
    _, _, sums_a, sums_b = _half_tables(S.elements, e, m, budget)
    total = _count_matches(sums_a, sums_b, m)
    if mode == "all_nontrivial":
        allowed = trivial_solution_count(system, t)
        if total == allowed:
            return None
        return _find_witness(S, system, lambda v: not is_trivial_solution(system, v))
    if mode == "abba_only":
        if system.k != 4 or e[0] != -e[3] or e[1] != -e[2]:
            raise ValueError("abba_only needs a 4-term system with e1=-e4, e2=-e3")
        # conforming assignments are exactly (a, b, b, a); each solves the system
        allowed = t * t
        if total == allowed:
            return None
        return _find_witness(
            S, system, lambda v: not (v[0] == v[3] and v[1] == v[2])
        )
    raise ValueError(f"unknown mode {mode!r}")
