"""Exact integer arithmetic for one-dimensional progression patterns.

A pattern is a strictly increasing integer tuple ``a``; the points
``n + a_1 d, ..., n + a_k d`` form an a-progression.  Each pattern carries
coefficients ``c_i = prod_{j != i} (a_i - a_j)`` whose reciprocals sum to
zero exactly, and clearing denominators yields an integer equation
``sum_i e_i n_i = 0`` (the pattern's binomial system).  For the plain
k-term progression the system is the alternating binomial row.

All positions are 0-based.  Everything here is pure arbitrary-precision
integer/rational arithmetic; coefficients grow factorially, so no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import check_budget

__all__ = [
    "PatternSpec",
    "BinomialSystem",
    "Pairing",
    "a_coefficients",
    "a_binomial_system",
    "is_trivial_solution",
    "zero_sum_subsets",
    "zero_sum_partitions",
    "trivial_solution_count",
    "enumerate_pairings",
    "symmetric_pairing",
    "is_symmetric",
    "is_k_pattern",
]


@dataclass(frozen=True)
class PatternSpec:
    """Strictly increasing integer offsets (a_1, ..., a_k) with k >= 3."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if len(a) < 3:
            raise ValueError("a pattern needs at least 3 offsets")
        if any(x >= y for x, y in zip(a, a[1:])):
            raise ValueError("offsets must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.a)

    def normalized(self) -> "PatternSpec":
        """Translate offsets so the first is 0.

        All pattern predicates are invariant under translating ``a`` by a
        constant, so this is the canonical representative.
        """
        return PatternSpec(tuple(x - self.a[0] for x in self.a))

    @classmethod
    def ap(cls, k: int) -> "PatternSpec":
        """The plain k-term progression (0, 1, ..., k-1)."""
        return cls(tuple(range(k)))

    @classmethod
    def from_string(cls, text: str) -> "PatternSpec":
        """Offsets separated by commas or whitespace, such as "0,1,3"."""
        try:
            a = tuple(int(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            raise ValueError("offsets must be integers") from None
        return cls(a)

    def __str__(self):
        return ",".join(str(x) for x in self.a)


@dataclass(frozen=True)
class BinomialSystem:
    """Canonical integer equation ``sum_i e_i n_i = 0``.

    Canonical means: all e_i nonzero, sum zero, gcd of |e_i| equal to 1, and
    e_1 > 0.
    """

    e: tuple[int, ...]

    def __post_init__(self):
        e = tuple(int(x) for x in self.e)
        object.__setattr__(self, "e", e)
        if len(e) < 3:
            raise ValueError("system needs at least 3 coefficients")
        if any(x == 0 for x in e):
            raise ValueError("coefficients must be nonzero")
        if sum(e) != 0:
            raise ValueError("coefficients must sum to zero")
        if math.gcd(*(abs(x) for x in e)) != 1:
            raise ValueError("coefficients must have gcd 1")
        if e[0] <= 0:
            raise ValueError("leading coefficient must be positive")

    @property
    def k(self) -> int:
        return len(self.e)


def a_coefficients(spec: PatternSpec) -> tuple[int, ...]:
    """c_i = prod over j != i of (a_i - a_j), as exact integers."""
    a = spec.a
    out = []
    for i, ai in enumerate(a):
        prod = 1
        for j, aj in enumerate(a):
            if j != i:
                prod *= ai - aj
        out.append(prod)
    return tuple(out)


def a_binomial_system(spec: PatternSpec) -> BinomialSystem:
    """Clear denominators in ``sum_i n_i / c_i = 0`` and canonicalize.

    The reciprocals of the c_i sum to zero, which ``BinomialSystem`` checks.
    """
    c = a_coefficients(spec)
    lcm = 1
    for ci in c:
        lcm = math.lcm(lcm, abs(ci))
    e = tuple(lcm // ci for ci in c)
    g = math.gcd(*e)
    sign = 1 if e[0] > 0 else -1
    return BinomialSystem(tuple(sign * x // g for x in e))


def is_trivial_solution(system: BinomialSystem, values) -> bool:
    """True iff, for every distinct value among ``values``, the coefficients
    at the positions carrying that value sum to zero."""
    values = tuple(values)
    if len(values) != system.k:
        raise ValueError(f"expected {system.k} values, got {len(values)}")
    sums: dict = {}
    for ei, v in zip(system.e, values):
        sums[v] = sums.get(v, 0) + ei
    return all(s == 0 for s in sums.values())


def zero_sum_subsets(system: BinomialSystem) -> list[tuple[int, ...]]:
    """All index subsets I with |I| >= 3 and sum of e_i over I zero.

    0-based positions, output in lexicographic order.  Deliberately returns
    every zero-sum subset, including those whose monochromatic event implies
    a pairing; clauses that are implied are pruned only when the clause
    compiler (``scan.predicate_clauses``) builds a predicate.
    """
    k = system.k
    check_budget("subset_k", k)
    out = []
    for size in range(3, k + 1):
        for idx in combinations(range(k), size):
            if sum(system.e[i] for i in idx) == 0:
                out.append(idx)
    out.sort()
    return out


def zero_sum_partitions(system: BinomialSystem) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of the positions in which every block has zero
    coefficient sum.

    A solution of the system is trivial exactly when its equal-value classes
    form such a partition, so these index the trivial solutions.
    """
    k = system.k
    e = system.e
    found = []

    def rec(i, blocks):
        if i == k:
            if all(sum(e[j] for j in b) == 0 for b in blocks):
                found.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return found


def trivial_solution_count(system: BinomialSystem, t: int) -> int:
    """Number of trivial solutions with entries drawn from a set of t distinct
    values (counting assignments, not value-sets)."""
    return sum(math.perm(t, len(p)) for p in zero_sum_partitions(system))


@dataclass(frozen=True)
class Pairing:
    """Fixed-point-free involution on 0-based positions, as sorted disjoint pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(tuple(int(x) for x in p) for p in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        seen = set()
        for i, j in pairs:
            if i >= j:
                raise ValueError("each pair must be (low, high)")
            if i in seen or j in seen:
                raise ValueError("pairs must be disjoint")
            seen.update((i, j))
        if sorted(seen) != list(range(2 * len(pairs))):
            raise ValueError("pairs must cover positions 0..k-1")
        if list(pairs) != sorted(pairs):
            raise ValueError("pairs must be sorted")

    @property
    def k(self) -> int:
        return 2 * len(self.pairs)


def symmetric_pairing(k: int) -> Pairing:
    """i paired with k-1-i."""
    if k % 2:
        raise ValueError("k must be even")
    return Pairing(tuple((i, k - 1 - i) for i in range(k // 2)))


def is_symmetric(spec: PatternSpec) -> bool:
    """k even and a_1 + a_k = a_2 + a_{k-1} = ..."""
    a = spec.a
    k = spec.k
    if k % 2:
        return False
    s = a[0] + a[-1]
    return all(a[i] + a[k - 1 - i] == s for i in range(k // 2))


def enumerate_pairings(spec: PatternSpec) -> list[Pairing]:
    """Every perfect matching f on positions with c_i = -c_{f(i)}.

    Exhaustive matching; the candidate count is at most (k-1)!!, so the
    ``pairing_k`` budget keeps this instant at desk scale.  May be empty.
    """
    k = spec.k
    if k % 2:
        raise ValueError("pairings need even k")
    check_budget("pairing_k", k)
    c = a_coefficients(spec)
    out = []

    def rec(free, acc):
        if not free:
            out.append(Pairing(tuple(acc)))
            return
        i = free[0]
        for j in free[1:]:
            if c[i] == -c[j]:
                acc.append((i, j))
                rec([x for x in free if x != i and x != j], acc)
                acc.pop()

    rec(list(range(k)), [])
    out.sort(key=lambda p: p.pairs)
    return out


def is_k_pattern(n1: int, n2: int, n3: int, k: int, modulus: int | None = None) -> bool:
    """True iff (n1, n2, n3) are not all equal and a*n1 + b*n2 = (a+b)*n3 for
    some positive integers a, b with a + b <= k - 1.

    ``modulus`` selects arithmetic in Z/mZ; None means plain integers.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if n1 == n2 == n3:
        return False
    for a in range(1, k - 1):
        for b in range(1, k - a):
            lhs = a * n1 + b * n2 - (a + b) * n3
            if (lhs % modulus == 0) if modulus else (lhs == 0):
                return True
    return False

