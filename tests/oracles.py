"""Independent naive implementations used as oracles by the test suite.

Everything here is deliberately written with plain loops and without reusing
the library's scan machinery, so agreement is meaningful.  Conventions match
the library contracts: witnesses are lexicographically least, cyclic scans
run d over 1..N-1, interval scans over positive d (both signs for the
binomial predicate).
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np


def sym_pairs(k):
    return [(i, k - 1 - i) for i in range(k // 2)]


def _points(n, d, offsets, N, cyclic):
    pts = [n + o * d for o in offsets]
    if cyclic:
        return [p % N for p in pts]
    if any(p < 0 or p >= N for p in pts):
        return None
    return pts


def _nd_candidates(N, offsets, cyclic, signed=False):
    if cyclic:
        for n in range(N):
            for d in range(1, N):
                yield n, d
    else:
        ds = list(range(1, N))
        if signed:
            ds = sorted(ds + [-d for d in ds])
        for n in range(N):
            for d in ds:
                yield n, d


def symmetric_always_violated(N, offsets, cyclic):
    """Does some progression (n, d) of ``offsets`` in [N] have every pair of
    the symmetric pairing on one point?  Direct scan over (n, d)."""
    for n, d in _nd_candidates(N, offsets, cyclic):
        pts = _points(n, d, offsets, N, cyclic)
        if pts is not None and all(pts[i] == pts[j] for i, j in sym_pairs(len(offsets))):
            return True
    return False


def naive_symmetric_witness(colors, ambient, offsets):
    """First (n, d) in lex order whose pattern is symmetrically colored."""
    N = len(colors)
    cyclic = ambient == "cyclic"
    k = len(offsets)
    for n, d in _nd_candidates(N, offsets, cyclic):
        pts = _points(n, d, offsets, N, cyclic)
        if pts is None:
            continue
        if all(colors[pts[i]] == colors[pts[k - 1 - i]] for i, _ in sym_pairs(k)):
            return (n, d)
    return None


def brute_pairings(coeffs):
    """All coefficient-negating perfect matchings, by filtering involutions."""
    k = len(coeffs)
    out = set()
    for perm in permutations(range(k)):
        if any(perm[perm[i]] != i or perm[i] == i for i in range(k)):
            continue
        if any(coeffs[i] != -coeffs[perm[i]] for i in range(k)):
            continue
        out.add(tuple(sorted((min(i, perm[i]), max(i, perm[i])) for i in range(k))))
    return sorted(out)


def naive_binomial_witness(colors, ambient, spec_offsets, coeffs, e):
    """First (n, d) carrying a pairing match or a monochromatic zero-sum
    subset; pairings and subsets recomputed here from scratch."""
    N = len(colors)
    cyclic = ambient == "cyclic"
    k = len(spec_offsets)
    offsets = tuple(o - spec_offsets[0] for o in spec_offsets)
    pairings = brute_pairings(coeffs) if k % 2 == 0 else []
    subsets = [
        idx
        for size in range(3, k + 1)
        for idx in combinations(range(k), size)
        if sum(e[i] for i in idx) == 0
    ]
    for n, d in _nd_candidates(N, offsets, cyclic, signed=True):
        pts = _points(n, d, offsets, N, cyclic)
        if pts is None:
            continue
        cs = [colors[p] for p in pts]
        for pairing in pairings:
            if all(cs[i] == cs[j] for i, j in pairing):
                return (n, d)
        for idx in subsets:
            if len({cs[i] for i in idx}) == 1:
                return (n, d)
    return None


def naive_pattern_probability(cell_colors, spec_offsets, coeffs, e, cells, predicate):
    """Exact probability over uniform (x, y) on the circle that the colors at
    x + a_i y satisfy the predicate, for a coloring constant on the D cells
    [j/D, (j+1)/D).

    Takes the (s, t) decomposition ``cells`` (floor vector, area) as given
    and counts every (p, q) cell pair with plain loops: with x = (p+s)/D and
    y = (q+t)/D the cell of x + a_i y is (p + a_i q + g_i) mod D.  Pairings
    and zero-sum subsets are recomputed here from scratch.
    """
    D = len(cell_colors)
    k = len(spec_offsets)
    offsets = tuple(o - spec_offsets[0] for o in spec_offsets)
    if predicate == "binomial":
        pairings = brute_pairings(coeffs) if k % 2 == 0 else []
        subsets = [
            idx
            for size in range(3, k + 1)
            for idx in combinations(range(k), size)
            if sum(e[i] for i in idx) == 0
        ]
    elif predicate == "symmetric":
        pairings, subsets = [sym_pairs(k)], []
    else:
        pairings, subsets = [], [tuple(range(k))]
    total = Fraction(0)
    for p in range(D):
        for q in range(D):
            for g, area in cells:
                cs = [cell_colors[(p + o * q + gi) % D] for o, gi in zip(offsets, g)]
                if any(all(cs[i] == cs[j] for i, j in pairing) for pairing in pairings) or any(
                    len({cs[i] for i in idx}) == 1 for idx in subsets
                ):
                    total += area
    return total / (D * D)


def naive_mono_pattern_witness(colors, ambient, k):
    """First monochromatic (n1, n2, n3) in lex order, full triple scan."""
    N = len(colors)
    cyclic = ambient == "cyclic"
    for n1 in range(N):
        for n2 in range(N):
            for n3 in range(N):
                if n1 == n2 == n3:
                    continue
                if not (colors[n1] == colors[n2] == colors[n3]):
                    continue
                for a in range(1, k - 1):
                    for b in range(1, k - a):
                        v = a * n1 + b * n2 - (a + b) * n3
                        if (v % N == 0) if cyclic else (v == 0):
                            return (n1, n2, n3, a, b)
    return None


def naive_abab_witness(colors, ambient, a_bound):
    N = len(colors)
    cyclic = ambient == "cyclic"
    best = None
    for quad in combinations(range(1, a_bound + 1), 4):
        offsets = tuple(x - quad[0] for x in quad)
        for n, d in _nd_candidates(N, offsets, cyclic):
            pts = _points(n, d, offsets, N, cyclic)
            if pts is None:
                continue
            cs = [colors[p] for p in pts]
            hit = None
            if cs[0] == cs[2] and cs[1] == cs[3]:
                hit = "abab"
            elif quad[0] + quad[3] != quad[1] + quad[2] and cs[0] == cs[3] and cs[1] == cs[2]:
                hit = "abba"
            if hit:
                cand = (n, d, quad)
                if best is None or cand < best:
                    best = cand
    return best


def naive_lambda(values_list, offsets, N) -> Fraction:
    total = Fraction(0)
    for n in range(N):
        for d in range(N):
            prod = Fraction(1)
            for vals, o in zip(values_list, offsets):
                prod *= Fraction(vals[(n + o * d) % N])
            total += prod
    return total / (N * N)


def naive_gowers(values, s):
    """Direct multiplicative-derivative average, O(N^{s+1})."""
    f = np.asarray(values, dtype=np.float64)
    N = len(f)
    idx = np.arange(N)
    if s == 2:
        acc = 0.0
        for h1 in range(N):
            for h2 in range(N):
                acc += float(
                    np.sum(
                        f * f[(idx - h1) % N] * f[(idx - h2) % N] * f[(idx - h1 - h2) % N]
                    )
                )
        return (acc / N**3) ** (1 / 4)
    if s == 3:
        acc = 0.0
        for h1 in range(N):
            g1 = f * f[(idx - h1) % N]
            for h2 in range(N):
                g2 = g1 * g1[(idx - h2) % N]
                for h3 in range(N):
                    acc += float(np.sum(g2 * g2[(idx - h3) % N]))
        return (acc / N**4) ** (1 / 8)
    raise ValueError(s)


def loop_gowers_u3(values):
    """Order-3 box norm by the spectral identity, one full complex FFT per
    shift h = 0..N-1 with no symmetry used: the float reference for the
    library's halved and blocked kernel, O(N^2 log N)."""
    vals = np.asarray(values, dtype=np.float64)
    N = len(vals)
    acc = 0.0
    for h in range(N):
        deriv = vals * np.roll(vals, h)
        coeffs = np.fft.fft(deriv) / N
        acc += float(np.sum(np.abs(coeffs) ** 4))
    return float((acc / N) ** (1 / 8))


def serial_gowers_u3(values):
    """Order-3 box norm by the library's halved and blocked kernel, its
    blocks run one after another on one thread into one pair of buffers and
    added in block order: the bit-for-bit reference for the blocks the
    library splits over threads.  The transforms return new arrays, which
    hold the values numpy 2 writes in place."""
    from numpy.lib.stride_tricks import sliding_window_view

    from aplab.uniformity import _rader_order

    vals = np.asarray(values, dtype=np.float64)
    N = len(vals)
    half = N // 2
    pairs = (N - 1) // 2
    shifted = sliding_window_view(np.tile(vals, 2), N)
    order = _rader_order(N)
    if order is not None:
        at_cols = vals[order]
        kernel = np.fft.fft(np.exp(-2j * np.pi / N * order[-np.arange(N - 1)]))
    width = N if order is None else N - 1
    self_cols = (0, half) if order is None and N % 2 == 0 else (0,)
    rows = max(1, (1 << 19) // (16 * N))
    buf = np.empty((rows, width), dtype=np.complex128)
    work = np.empty(2 * rows * width)

    def sum_of_squares(a):
        return float(np.einsum("i,i", a, a))

    acc = 0.0
    for h0 in range(0, half + 1, 2 * rows):
        n = min(2 * rows, half + 1 - h0)
        z = buf[: (n + 1) // 2]
        if order is None:
            rows_at, f_at = shifted[h0 : h0 + n], vals
        else:
            rows_at = shifted[h0 : h0 + n].take(order, axis=1)
            f_at = at_cols
        np.multiply(rows_at[::2], f_at, out=z.real)
        np.multiply(rows_at[1::2], f_at, out=z.imag[: n // 2])
        z.imag[n // 2 :] = 0
        z[...] = np.fft.fft(z)
        selfs = [z[:, c : c + 1].view(np.float64).flatten()[:n] for c in self_cols]
        if order is None:
            pos, neg = z[:, 1 : pairs + 1], z[:, N - 1 : N - 1 - pairs : -1]
        else:
            at_zero = vals[0] * vals[h0 : h0 + n]
            selfs[0] += at_zero
            z *= kernel
            z.real[:, 0] += (N - 1) * at_zero[::2]
            z.imag[: n // 2, 0] += (N - 1) * at_zero[1::2]
            z[...] = np.fft.ifft(z)
            pos, neg = z[:, :pairs], z[:, pairs:]
        flat = work[: 2 * len(z) * 2 * pairs]
        uv = flat.view(np.complex128).reshape(len(z), 2, pairs)
        np.conjugate(neg, out=neg)
        np.add(pos, neg, out=uv[:, 0])
        np.subtract(pos, neg, out=uv[:, 1])
        np.multiply(uv, uv, out=uv)
        squares = [a * a for a in selfs]
        total = 2 * (2 * sum_of_squares(flat) + 16 * sum(sum_of_squares(q) for q in squares))
        for j in (-h0, N - half - h0):
            if 0 <= j < n:
                row = flat[2 * pairs * j : 2 * pairs * (j + 1)]
                total -= 2 * sum_of_squares(row) + 16 * sum(q[j] * q[j] for q in squares)
        acc += total
    return float((acc / (16 * float(N) ** 5)) ** (1 / 8))


def slab_volume(alpha, e, gridsize=1 << 15):
    """Numeric convolution value of the slab functional: alpha^(k-1) times the
    chance that the coefficient combination of uniform [0, alpha) variables
    lands back in [0, alpha) mod 1.

    Solves for the last variable; e must have |e_k| = 1.
    """
    if abs(e[-1]) != 1:
        raise ValueError("slab_volume needs |e_k| = 1")
    alpha = float(alpha)
    h = alpha / gridsize
    dens = None
    lo = 0.0
    # density of -(e_1 y_1 + ... + e_{k-1} y_{k-1}) / e_k over y_i ~ U[0, alpha)
    for coef in e[:-1]:
        c = -coef / e[-1]
        width = abs(c) * alpha
        n = max(int(round(width / h)), 1)
        part = np.full(n, 1.0 / width)
        dens = part if dens is None else np.convolve(dens, part) * h
        lo += min(c * alpha, 0.0)
    xs = lo + h * (np.arange(len(dens)) + 0.5)
    val = 0.0
    span = int(np.ceil(np.abs(xs).max())) + 2
    for t in range(-span, span + 1):
        mask = (xs >= t) & (xs < t + alpha)
        val += float(np.sum(dens[mask]) * h)
    return alpha ** (len(e) - 1) * val


def enumerate_satisfiable(N, r, k, ambient="cyclic"):
    """Does any coloring of [N] with at most r colors avoid symmetric
    patterns?  Vectorized full enumeration over r^N colorings."""
    offsets = tuple(range(k))
    grids = np.indices((r,) * N).reshape(N, -1).T  # all colorings, rows
    ok = np.ones(len(grids), dtype=bool)
    cyclic = ambient == "cyclic"
    for n in range(N):
        for d in range(1, N):
            pts = [n + o * d for o in offsets]
            if cyclic:
                pts = [p % N for p in pts]
            elif any(p >= N for p in pts):
                continue
            mask = np.ones(len(grids), dtype=bool)
            for i in range(k // 2):
                mask &= grids[:, pts[i]] == grids[:, pts[k - 1 - i]]
            ok &= ~mask
            if not ok.any():
                return False
    return bool(ok.any())


def naive_solution_free(elements, e, m, mode="all_nontrivial"):
    """Direct scan over all assignments; first violation in lex order."""
    k = len(e)
    for combo in product(elements, repeat=k):
        if sum(ci * v for ci, v in zip(e, combo)) % m != 0:
            continue
        if mode == "all_nontrivial":
            sums = {}
            for ci, v in zip(e, combo):
                sums[v] = sums.get(v, 0) + ci
            if any(s != 0 for s in sums.values()):
                return combo
        else:
            if not (combo[0] == combo[3] and combo[1] == combo[2]):
                return combo
    return None


def subset_sum_histograms(elements, e, m):
    """{u: T_u} for every proper position subset u (a bitmask below 2^k - 1):
    T_u[s] counts the tuples over ``elements`` on the positions in u whose
    weighted sum sum_{i in u} e_i n_i is s mod m, by enumerating the tuples."""
    k = len(e)
    out = {}
    for u in range((1 << k) - 1):
        coeffs = [e[i] for i in range(k) if u >> i & 1]
        hist = [0] * m
        for combo in product(elements, repeat=len(coeffs)):
            hist[sum(c * v for c, v in zip(coeffs, combo)) % m] += 1
        out[u] = hist
    return out


def solutions_using(elements, x, e, m):
    """The tuples over (elements + {x})^k that use x at least once and have
    sum_i e_i n_i = 0 mod m, counted by enumerating every tuple (x is not
    one of ``elements``)."""
    count = 0
    for combo in product([*elements, x], repeat=len(e)):
        if x in combo and sum(c * v for c, v in zip(e, combo)) % m == 0:
            count += 1
    return count

def max_3ap_free_size(N):
    """Largest 3-AP-free subset of Z/NZ by depth-first search (small N)."""
    best = 0

    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for x in range(start, N):
            good = True
            for a in chosen:
                for b in chosen:
                    if (a + b - 2 * x) % N == 0 or (a + x - 2 * b) % N == 0 or (x + b - 2 * a) % N == 0:
                        if not (a == b == x):
                            good = False
                            break
                if not good:
                    break
            if good:
                extend(chosen + [x], x + 1)

    extend([], 0)
    return best


def _doubled(values) -> np.ndarray:
    """concat(c, c): a length-N cyclic array laid out so that every cyclic
    shift of it is one contiguous slice (see ``_shift_views``)."""
    c = np.asarray(values)
    return np.concatenate((c, c))


def _shift_views(doubled, shifts):
    """Views v_i with v_i[x] = c_i[(x + s_i) mod N], one per pair of a doubled
    array ``doubled[i]`` = concat(c_i, c_i) and a shift ``shifts[i]``."""
    n = len(doubled[0]) // 2
    return [c2[s % n : s % n + n] for c2, s in zip(doubled, shifts)]


def _iter_color_tuples(coloring, offsets, signed=False):
    """Yield (d, lo, cols) with cols[i][j] the color at n + offsets[i]*d for
    the j-th valid start point n = lo + j of difference d.

    offsets must be normalized (first entry 0, increasing).  Cyclic ambient
    scans d over 1..N-1, which already covers negated differences; interval
    scans d >= 1, plus d <= -1 when ``signed`` is set (needed for predicates
    that are not reversal-invariant).
    """
    col = coloring.as_array
    n_amb = coloring.n
    amax = offsets[-1]
    if coloring.ambient == "cyclic":
        doubled = [_doubled(col)] * len(offsets)
        for d in range(1, n_amb):
            yield d, 0, _shift_views(doubled, [o * d for o in offsets])
        return
    ds = list(range(1, (n_amb - 1) // amax + 1)) if amax <= n_amb - 1 else []
    if signed:
        ds = ds + [-d for d in ds]
    for d in ds:
        lo, hi = (0, n_amb - amax * d) if d > 0 else (amax * -d, n_amb)
        yield d, lo, [col[lo + o * d : hi + o * d] for o in offsets]


def loop_least_hit(coloring, offsets, clauses, signed=False):
    """(n, d, clause) for the lexicographically least (n, d) at which some
    clause holds on the colors at n + offsets[i]*d, with the first clause, in
    list order, that holds there; None when no clause holds anywhere.  One
    1-D pass per difference d: the reference for the library's blocked scan."""
    from aplab.scan import eval_clauses

    best = None
    for d, lo, cols in _iter_color_tuples(coloring, offsets, signed):
        mask = eval_clauses(clauses, cols)
        if mask.any():
            pos = int(np.argmax(mask))
            if best is None or (lo + pos, d) < best[:2]:
                at = [col[pos] for col in cols]
                best = (lo + pos, d, next(cl for cl in clauses if eval_clauses([cl], at)))
    return best


def loop_lambda_exact(fs, spec):
    """lambda_exact on indicator and float grids by one 1-D pass per
    difference d: a Fraction when every grid is an indicator, else a float
    summed per d in increasing d.  Other exact grids are checked against
    ``naive_lambda`` instead."""
    if not isinstance(fs, (list, tuple)):
        fs = [fs] * spec.k
    N = fs[0].N
    offsets = spec.normalized().a
    indicator = all(f.exact is not None and all(v in (0, 1) for v in f.exact) for f in fs)
    if indicator:
        doubled = [_doubled([int(v) for v in f.exact]) for f in fs]
    else:
        doubled = [_doubled(f.values) for f in fs]
    total = 0
    for d in range(N):
        views = _shift_views(doubled, [o * d for o in offsets])
        prod = views[0] * views[1]
        for v in views[2:]:
            prod *= v
        total += prod.sum().item()
    return Fraction(total, N * N) if indicator else total / (N * N)


def loop_pattern_probability(Phi, spec, predicate="binomial"):
    """Exact pattern probability by one 1-D pass per (q, cell) pair: the
    reference for the library's row-blocked kernel, with the same clause
    compiler and the same (s, t) decomposition, O(D^2 * cells)."""
    from aplab.scan import eval_clauses, predicate_clauses
    from aplab.torus import pattern_cells

    offsets = spec.normalized().a
    D = Phi.D
    cells = pattern_cells(spec)
    clauses = predicate_clauses(spec, predicate)
    if not clauses:
        return Fraction(0)
    doubled = [_doubled(Phi.as_array)] * len(offsets)
    counts = [0] * len(cells)
    for q in range(D):
        # cell of x + a_i y over all p at once: (p + a_i q + g_i) mod D
        for j, (g, _) in enumerate(cells):
            cols = _shift_views(doubled, [a * q + gi for a, gi in zip(offsets, g)])
            counts[j] += int(np.count_nonzero(eval_clauses(clauses, cols)))
    return sum(area * cnt for (_, area), cnt in zip(cells, counts)) / (D * D)


class _SortedSolutionCounter:
    """Counts solutions of sum e_i n_i = 0 (mod m) with entries from a growing
    set, via sorted partial-sum tables for every proper position subset:
    rebuilt and re-sorted on every accept, read with 2^k - 1 pairs of binary
    searches per candidate block."""

    def __init__(self, e, m):
        self.e = e
        self.k = len(e)
        self.m = m
        self.subsets = [
            u for size in range(self.k) for u in combinations(range(self.k), size)
        ]
        self.coef_sum = {}
        for size in range(1, self.k + 1):
            for t in combinations(range(self.k), size):
                self.coef_sum[t] = sum(self.e[i] for i in t)
        self.tables = {u: np.zeros(1, dtype=np.int64) for u in self.subsets}

    def rebuild(self, elements):
        arr = np.asarray(elements, dtype=np.int64)
        for u in self.subsets:
            sums = np.zeros(1, dtype=np.int64)
            for i in u:
                sums = (sums[:, None] + self.e[i] * arr[None, :]) % self.m
                sums = sums.ravel()
            sums.sort()
            self.tables[u] = sums

    def deltas(self, candidates):
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


def sorted_greedy_solution_free_set(system, m, r):
    """The greedy scan over sorted partial-sum tables: the reference for the
    library's dense-table kernel.  Same scan order; candidates are tested in
    blocks of 4096, and the result (the first admissible candidate after each
    accept) does not depend on the block size.  Returns (elements, complete,
    scanned).  No budget checks."""
    from aplab.patterns import trivial_solution_count

    counter = _SortedSolutionCounter(system.e, m)
    elements = []
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
    return tuple(elements), len(elements) >= r, x


def eager_uniform_blocks(seed, count, rows, block):
    """The uniforms of ``count`` samples, ``rows`` per sample, drawn eagerly
    as (rows, n) arrays: block b holds samples [b*block, b*block + n) and is
    default_rng(SeedSequence(seed).spawn(...)[b]).random((rows, block))[:, :n],
    the children spawned all at once.  The reference for
    ``torus._sample_blocks``, which builds each child from its spawn key."""
    starts = range(0, count, block)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    for child, start in zip(children, starts):
        n = min(block, count - start)
        yield np.random.default_rng(child).random((rows, block))[:, :n]


def torus_set_values(A, xs, ys):
    """1.0 where (xs, ys) lies in the torus set A, else 0.0: the cell of xs
    mod 1, clamped at D - 1 where (xs mod 1) * D rounds up to D, then the
    slot start s_j/m of its color j, then (ys - start) mod 1 below the width.
    The reference for ``TorusSet.evaluate_batch``."""
    D = A.base.D
    cells = np.minimum(((xs % 1.0) * D).astype(np.int64), D - 1)
    color_slot = np.zeros(A.base.r + 1)
    for j, s in enumerate(A.slots, start=1):
        color_slot[j] = s / A.m
    starts = color_slot[np.asarray(A.base.cell_colors)[cells]]
    return (((ys - starts) % 1.0) < float(A.width)).astype(np.float64)


def slab_values(alpha, xs, ys):
    """1.0 where ys mod 1 < alpha: the reference for
    ``SlabIndicator.evaluate_batch``."""
    return ((ys % 1.0) < float(alpha)).astype(np.float64)


def strip_values(alpha, xs, ys):
    """1.0 where (ys - xs) mod 1 < alpha: the reference for
    ``DiagonalStrip.evaluate_batch``."""
    return (((ys - xs) % 1.0) < float(alpha)).astype(np.float64)


def field_values(F, xs, ys):
    """F at the points (xs, ys): by the references above for the library's
    torus sets, slabs and strips, by F's own ``evaluate_batch`` otherwise."""
    from aplab.torus import DiagonalStrip, SlabIndicator, TorusSet

    if isinstance(F, TorusSet):
        return torus_set_values(F, xs, ys)
    if isinstance(F, SlabIndicator):
        return slab_values(F.alpha, xs, ys)
    if isinstance(F, DiagonalStrip):
        return strip_values(F.alpha, xs, ys)
    return F.evaluate_batch(xs, ys)


def full_product(F, spec, x0, x1, ys, v):
    """The product of the k factors of F at each sample, from its uniforms
    x0, x1, y_1..y_{k-1} and v (the branch, read only when |e_k| > 1), each
    factor evaluated by ``field_values`` for every sample."""
    from aplab.patterns import a_binomial_system

    e = a_binomial_system(spec).e
    acc = np.zeros(len(x0))
    for ei, yi in zip(e[:-1], ys):
        acc += ei * yi
    branch = np.floor(v * abs(e[-1])) if abs(e[-1]) > 1 else 0.0
    yk = (((-acc) % 1.0) + branch) / e[-1] % 1.0
    prod = np.ones(len(x0))
    for a, yi in zip(spec.normalized().a, [*ys, yk]):
        prod *= field_values(F, (x0 + a * x1) % 1.0, yi)
    return prod


def full_product_lambda_tilde_mc(F, spec, samples, seed=0):
    """Monte Carlo progression functional with all k factors evaluated for
    every sample, by ``field_values``: the reference for the library's
    survivor-only product.  Same uniforms, drawn eagerly, and the same sums."""
    from aplab.torus import _MC_BLOCK, _estimate

    k = spec.k
    total = 0.0
    total_sq = 0.0
    for u in eager_uniform_blocks(seed, samples, k + 2, _MC_BLOCK):
        prod = full_product(F, spec, u[0], u[1], u[2:-1], u[-1])
        total += float(prod.sum())
        total_sq += float((prod * prod).sum())
    return _estimate(total, total_sq, samples, seed)


def exact_y_buckets(A):
    """The bucket table of the torus set A in exact rationals: bucket b of
    2^16 is marked when [b/2^16, (b+1)/2^16) meets [s/m - 2^-50, s/m + width
    + 2^-50) mod 1 for a slot s, and every bucket is marked when m >= 2^50.
    The reference for ``TorusSet.y_buckets``."""
    table = np.zeros(2**16, dtype=bool)
    if A.m >= 2**50:
        table[:] = True
        return table
    margin = Fraction(1, 2**50)
    for s in set(A.slots):
        lo = (Fraction(s, A.m) - margin) * 2**16
        hi = (Fraction(s, A.m) + A.width + margin) * 2**16
        # the buckets b with b < hi and b + 1 > lo
        first, last = math.floor(lo), math.ceil(hi) - 1
        for b in range(first, min(last, first + 2**16 - 1) + 1):
            table[b % 2**16] = True
    return table


def bucket_draws(A, rows, samples, seed=0):
    """The samples of the torus set A drawn in marked buckets, drawn
    eagerly: per batch of B = ``torus._BUCKET_BATCH``, the indices below
    ``samples`` of the picked samples and their uniforms x0, x1, y_1 and
    ``rows`` - 2 more rows (y_2..y_{k-1}, and the branch when |e_k| > 1).

    From default_rng(SeedSequence(seed)), per batch: B geometric gaps with
    p = marked/2^16, the first index being the gap minus 1; B buckets b
    drawn among the marked ones, then B offsets u below 2^37, y_1 = (b 2^37
    + u)/2^53 in Python integers; then ``rows`` rows of B uniforms, x0, x1
    and the rest.  The reference for the library's conditioned draw."""
    from aplab.torus import _BUCKET_BATCH as B

    marked = np.flatnonzero(A.y_buckets)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    last = -1
    while last + 1 < samples:
        idx = last + np.cumsum(rng.geometric(len(marked) / 2**16, B))
        last = int(idx[-1])
        buckets = marked[rng.integers(0, len(marked), B)].tolist()
        offsets = rng.integers(0, 2**37, B).tolist()
        y1 = np.array([(b * 2**37 + u) / 2**53 for b, u in zip(buckets, offsets)])
        u = rng.random((rows, B))
        keep = idx < samples
        yield idx[keep], [u[0][keep], u[1][keep], y1[keep], *u[2:, keep]]


def bucket_lambda_tilde_mc(A, spec, samples, seed=0):
    """Monte Carlo progression functional of the torus set A over the
    samples of ``bucket_draws``, all k factors evaluated for every picked
    sample by ``field_values``: the reference for the library's draw in
    marked buckets and its survivor-only product.  The sums run over the
    picked samples of each batch."""
    from aplab.patterns import a_binomial_system
    from aplab.torus import _estimate

    k = spec.k
    branch = abs(a_binomial_system(spec).e[-1]) > 1
    total = 0.0
    total_sq = 0.0
    for _, u in bucket_draws(A, k + branch, samples, seed):
        v = u[-1] if branch else None
        prod = full_product(A, spec, u[0], u[1], u[2 : k + 1], v)
        total += float(prod.sum())
        total_sq += float((prod * prod).sum())
    return _estimate(total, total_sq, samples, seed)


def loop_extract_coloring(F, alpha, k, r, N, seed=0, attempts=1):
    """Randomized extraction with one ``verify_symmetric_ap_free`` call per
    defined attempt: the reference for the library's block-wide rejection.
    Same uniforms, drawn eagerly, and the same blocks; returns the library's
    ``ExtractionResult``."""
    from aplab.colorings import INTERVAL, Coloring, verify_symmetric_ap_free
    from aplab.uniformity import ExtractionResult

    threshold = float(alpha) / 2
    undefined = 0
    rejected = 0
    done = 0
    idx = np.arange(N, dtype=np.float64)
    for u in eager_uniform_blocks(seed, attempts, 2 + r, max(1, (1 << 16) // (N * r))):
        x0, x1, ys = u[0], u[1], u[2:].T
        nb = len(x0)
        xs = (x0[:, None] + idx[None, :] * x1[:, None]) % 1.0
        vals = F.evaluate_batch(
            np.repeat(xs[:, :, None], r, axis=2).ravel(),
            np.repeat(ys[:, None, :], N, axis=1).ravel(),
        ).reshape(nb, N, r)
        hit = vals >= threshold
        defined = hit.any(axis=2)
        first = hit.argmax(axis=2) + 1
        for a in range(nb):
            if not defined[a].all():
                undefined += 1
                continue
            coloring = Coloring.from_raw(INTERVAL, first[a].tolist())
            if verify_symmetric_ap_free(coloring, k) is not None:
                rejected += 1
                continue
            return ExtractionResult(coloring, done + a, done + a + 1, undefined, rejected)
        done += nb
    return ExtractionResult(None, None, attempts, undefined, rejected)
