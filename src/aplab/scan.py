"""The shift-scan kernel over Z/NZ, the pattern predicate compiler and the
carry automaton.

Every exact scan of the package reads the values at n + a_i d for all start
points n and a block of consecutive differences d at once: the exact pattern
probability in ``torus`` (with the cell shifts g_i), the verifiers in
``colorings`` and ``lambda_exact`` in ``uniformity``.  ``shift_blocks`` is
that read, and ``predicate_clauses``/``eval_clauses`` compile and evaluate
the color predicates the scans test.  ``carry_count`` counts the same
clauses digit by digit on the levels that ``digit_levels`` checked, without
reading the cells.  Its two callers, the exact pattern probability of
``torus`` and the ``colorings`` verifiers, send it a cyclic coloring of two
or more levels and scan one of a single level.
``ordered_map`` runs independent blocks of work on every CPU the process
may use, with the results in block order; the order-3 box norm of
``uniformity`` is its caller.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SelfCheckError, check_budget
from .patterns import (
    PatternSpec, a_binomial_system, enumerate_pairings, symmetric_pairing, zero_sum_subsets
)

__all__ = ["shift_blocks", "predicate_clauses", "eval_clauses", "digit_levels", "carry_count", "ordered_map"]


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], computed by W workers, W the number of CPUs
    in the process's affinity mask (``os.cpu_count()`` where the platform
    has no affinity call).

    The calling thread is one of the workers; the other W - 1 are threads
    started by this call and joined before it returns, so no thread
    outlives a call.  Each worker claims the next unclaimed item from a
    shared counter under a lock and stores its result at the item's index,
    so the list is in item order whatever order the items finish in.  The
    first exception raised in a worker stops every worker from claiming
    another item, and is re-raised here once all of them have stopped.
    With one worker, or at most one item, no thread is started and the
    caller runs every item in order.  The workers overlap only where ``fn``
    releases the GIL, as numpy's transforms and array arithmetic do.
    """
    items = list(items)
    results = [None] * len(items)
    claimed = 0
    failed = []
    lock = threading.Lock()

    def work():
        nonlocal claimed
        try:
            while True:
                with lock:
                    if failed or claimed == len(items):
                        return
                    i = claimed
                    claimed += 1
                results[i] = fn(items[i])
        except BaseException as exc:
            with lock:
                failed.append(exc)

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = [threading.Thread(target=work) for _ in range(min(cpus, len(items)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise failed[0]
    return results


def shift_blocks(values, offsets, start, stop, shifts=None, sign=1):
    """Yield (e0, views) for the blocks of differences e0..e0+b-1 that cover
    start..stop-1 in order, where

        views[i][j, n] = values_i[(n + a_i d + g_i) mod N],  d = sign * (e0 + j),

    with a_i = offsets[i] >= 0 and g_i = shifts[i] (0 by default).
    ``values`` is one array, read at every position, or a list with one
    array of length N per position, each distinct object windowed once.

    Each view is a read-only b x N strided view of windows of the values
    repeated periodically: window w holds values[(p + w) mod N] at column
    p, and position i reads windows s, s + a_i, ..., s + a_i (b-1) for some
    s.  A negative step lifts s by whole periods so that every row read is
    a window.  A position with a_i = 0 reads one row, broadcast once.
    """
    if isinstance(values, np.ndarray):
        values = [values] * len(offsets)
    shifts = shifts or [0] * len(offsets)
    n = len(values[0])
    # A block holds at most 2^17 (n, d) pairs: twice that measured 3x slower
    # at N = 7744, its 256 KiB boolean temporaries page-faulting on every
    # allocation.
    rows = max(1, min(n, (1 << 17) // n))
    # windows 0 .. N(reps - 1) hold every row a block reads, lifted or not
    reps = 2 + -(-max(offsets) * (rows - 1) // n)
    distinct = {id(v): v for v in values}
    windows = {key: sliding_window_view(np.tile(v, reps), n) for key, v in distinct.items()}
    plan = []
    for v, a, g in zip(values, offsets, shifts):
        if a == 0:
            plan.append((np.broadcast_to(windows[id(v)][g % n], (rows, n)), 0, 0, 0))
        else:
            lift = n * -(-a * (rows - 1) // n) if sign < 0 else 0
            plan.append((windows[id(v)], sign * a, g, lift))
    for e0 in range(start, stop, rows):
        b = min(rows, stop - e0)
        views = []
        for win, step, g, lift in plan:
            if step == 0:
                views.append(win[:b])
                continue
            s = (step * e0 + g) % n + lift
            end = s + step * b
            views.append(win[s : end if end >= 0 else None : step])
        yield e0, views


def predicate_clauses(spec: PatternSpec, predicate: str):
    """Compile a pattern predicate to a clause list, evaluated as an OR.

    Each clause is ("pairing", pairs), meaning every listed index pair shares
    a color, or ("subset", idx), meaning all listed positions share a color.
    "binomial" lists the coefficient-negating pairings (even k only) and then
    the zero-sum coefficient subsets of size >= 3; "symmetric" is the single
    pairing i <-> k-1-i; "mono" is the one subset of all positions.

    A binomial clause whose equalities imply every equality of an earlier
    clause is dropped (for AP4, subset (0,1,2,3) implies the pairing
    (0,3)(1,2)): wherever it holds the earlier clause holds too, so neither
    the OR nor the first clause that holds at a point changes.

    Each (offsets, predicate) compiles once per process; the ``pairing_k``
    and ``subset_k`` budgets that the compile checks are checked at every
    call, so a lowered cap refuses a cached predicate too.
    """
    if predicate == "binomial":
        if spec.k % 2 == 0:
            check_budget("pairing_k", spec.k)
        check_budget("subset_k", spec.k)
    return list(_predicate_clauses(spec.a, predicate))


@cache
def _predicate_clauses(offsets: tuple[int, ...], predicate: str) -> tuple:
    spec = PatternSpec(offsets)
    k = spec.k
    if predicate == "binomial":
        clauses = []
        if k % 2 == 0:
            clauses += [("pairing", p.pairs) for p in enumerate_pairings(spec)]
        clauses += [("subset", idx) for idx in zero_sum_subsets(a_binomial_system(spec))]
        kept = []
        for cl in clauses:
            if not any(_implies(cl, e) for e in kept):
                kept.append(cl)
        return tuple(kept)
    if predicate == "symmetric":
        return (("pairing", symmetric_pairing(k).pairs),)
    if predicate == "mono":
        return (("subset", tuple(range(k))),)
    raise ValueError(f"unknown predicate {predicate!r}")


def _groups(clause):
    """The disjoint position groups a clause asserts monochromatic."""
    kind, data = clause
    return data if kind == "pairing" else (data,)


def _implies(clause, other):
    """True when every group of ``other`` lies inside a group of ``clause``,
    so that wherever ``clause`` holds ``other`` holds too."""
    groups = [set(g) for g in _groups(clause)]
    return all(any(set(h) <= g for g in groups) for h in _groups(other))


def eval_clauses(clauses, cols):
    """OR of the clauses over the colors ``cols[i]`` at position i; elementwise
    on arrays, a plain truth value on scalars."""
    mask = None
    for kind, data in clauses:
        if kind == "pairing":
            m = cols[data[0][0]] == cols[data[0][1]]
            for i, j in data[1:]:
                m &= cols[i] == cols[j]
        else:
            m = cols[data[0]] == cols[data[1]]
            for i in data[2:]:
                m &= cols[data[0]] == cols[i]
        mask = m if mask is None else (mask | m)
    return mask


def digit_levels(colors: np.ndarray, levels) -> tuple:
    """``levels`` as a tuple of (base, digit colors) pairs, least significant
    digit first, once checked against the cell colors ``colors``.

    Cell j has digits j_0, j_1, ... in the mixed radix of the bases, and
    level l colors digit j_l by its l-th entry.  The check: the bases
    multiply to the cell count, each level has one color per digit, and the
    tuple of a cell's digit colors and the cell's color determine each
    other, so two cells share a color exactly when every digit color
    matches.  The tuple is read as a mixed-radix key below the cell count
    and both maps are written into lookup arrays and read back, O(cells) in
    numpy.  A failure raises ``SelfCheckError`` (a raise, not an assert, so
    it also holds under ``python -O``).  A coloring given no levels has the
    one level of its own colors, which needs no check.
    """
    levels = tuple((int(b), tuple(int(c) for c in dc)) for b, dc in levels)
    n = len(colors)
    if math.prod(b for b, _ in levels) != n or any(len(dc) != b for b, dc in levels):
        raise SelfCheckError("digit levels do not match the number of cells")
    key = np.zeros(n, dtype=np.int64)
    digits = np.arange(n)
    scale = 1
    for b, dc in levels:
        distinct, dense = np.unique(np.asarray(dc), return_inverse=True)
        key += dense[digits % b] * scale
        digits //= b
        scale *= len(distinct)
    colors = np.asarray(colors, dtype=np.int64)
    color_of_key = np.zeros(scale, dtype=np.int64)
    color_of_key[key] = colors
    key_of_color = np.zeros(int(colors.max()) + 1, dtype=np.int64)
    key_of_color[colors] = key
    if not (np.array_equal(color_of_key[key], colors) and np.array_equal(key_of_color[colors], key)):
        raise SelfCheckError("digit colors and cell colors do not determine each other")
    return levels


def carry_count(levels, offsets, cells, clauses) -> Fraction:
    """The weight, over D^2, of the (p, q) in (Z/DZ)^2 at which some clause
    holds on the colors of the cells p + a_i q + g_i mod D, summed over the
    ``cells`` (g, area), for a coloring with digit ``levels``; counted digit
    by digit.  ``offsets`` are the normalized a_i, and 0 <= g_i <= a_i.

    Its two callers: ``torus.pattern_probability_exact`` passes the cells
    of ``torus.pattern_cells``, and the sum is the exact pattern
    probability; the ``colorings`` verifiers pass the one cell g = 0 of
    area 1, and D^2 times the result is the number of (p, q) at which a
    clause holds.

    Write p, q and the cell indices z_i = p + a_i q + g_i in the mixed radix
    of the levels.  Digit l of z_i is (p_l + a_i q_l + c_i) mod b_l, where
    c_i is the carry out of the digits below, and the carry out of digit l
    is the quotient.  Two cells share a color exactly when every digit color
    matches, so a clause holds at (p, q) exactly when its equalities hold at
    every level.  A state is the carry vector plus one 0/1 column per clause
    still alive; each of the b_l^2 digit pairs (p_l, q_l) moves a state to
    its next state, a state with no clause alive is dropped, and equal
    states are merged with their weights summed.  The carries out of the top
    digit are dropped, which is the reduction mod D.  Carries stay in
    [0, a_i + 1]: g_i <= a_i, and c <= a + 1 gives p_l + a q_l + c <=
    b_l (a + 1).

    All cells run in one pass: cell g starts as the state (g, all clauses)
    with weight area * L, where L is the lcm of the area denominators, so
    the accepted weight over L D^2 is the probability.  The weights are
    Python integers (an object array), so they stay exact at any D; the
    weights of a level sum to L times its (p, q) prefixes, at most L D^2.
    Before each level the transitions so far plus states x b_l^2 are
    checked against ``exact_work``, and a level runs in blocks of at most
    2^17 transitions, as ``shift_blocks`` caps a block.
    """
    k = len(offsets)
    D = math.prod(b for b, _ in levels)
    L = math.lcm(*(area.denominator for _, area in cells))
    a = np.asarray(offsets, dtype=np.int64)
    rows = np.array([(*g, *[1] * len(clauses)) for g, _ in cells], dtype=np.int64)
    weights = np.array([int(area * L) for _, area in cells], dtype=object)
    work = 0
    for b, level_colors in levels:
        work += len(rows) * b * b
        check_budget("exact_work", work)
        dc = np.asarray(level_colors)
        alive = rows[:, None, k:].astype(bool)
        step = max(1, (1 << 17) // len(rows))
        merged = rows[:0], weights[:0]
        for start in range(0, b * b, step):
            pairs = np.arange(start, min(b * b, start + step))[:, None]
            z = rows[:, None, :k] + pairs % b + a * (pairs // b)
            digit_colors = dc[z % b]
            cols = [digit_colors[..., i] for i in range(k)]
            live = alive & np.stack([eval_clauses([cl], cols) for cl in clauses], axis=-1)
            keep = live.any(axis=-1).ravel()
            nxt = np.concatenate([z // b, live], axis=-1).reshape(-1, rows.shape[1])
            w = np.broadcast_to(weights[:, None], live.shape[:2]).ravel()
            merged = _merge(
                np.concatenate([merged[0], nxt[keep]]), np.concatenate([merged[1], w[keep]])
            )
        rows, weights = merged
        if not len(rows):
            return Fraction(0)
    return Fraction(int(weights.sum()), L * D * D)


def _merge(rows, weights):
    """The distinct rows of an int64 array, each with the summed weights of
    its copies, in the weights' dtype (exact for Python-integer weights)."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    total = np.zeros(len(first), dtype=weights.dtype)
    np.add.at(total, inverse.ravel(), weights)
    return rows[first], total
