"""The shift-scan kernel against one 1-D view per difference."""

import numpy as np
import pytest

import oracles
from aplab.scan import shift_blocks


def _check(values, offsets, start, stop, shifts=None, sign=1):
    """Every row of every block equals ``oracles._shift_views`` at its d, and
    the blocks cover start..stop-1 in order; returns the block sizes."""
    per_position = values if isinstance(values, list) else [values] * len(offsets)
    doubled = [oracles._doubled(v) for v in per_position]
    g = shifts or [0] * len(offsets)
    n = len(per_position[0])
    sizes = []
    e = start
    for e0, views in shift_blocks(values, offsets, start, stop, shifts, sign):
        assert e0 == e
        b = len(views[0])
        for i, view in enumerate(views):
            assert view.shape == (b, n), (e0, i)
        for j in range(b):
            d = sign * (e0 + j)
            want = oracles._shift_views(doubled, [a * d + gi for a, gi in zip(offsets, g)])
            for i, (view, w) in enumerate(zip(views, want)):
                assert np.array_equal(view[j], w), (e0, j, i)
        sizes.append(b)
        e += b
    assert e == max(start, stop)
    return sizes


def _values(n, seed=0, dtype=np.int64):
    return np.random.default_rng(seed).integers(0, 1000, n).astype(dtype)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_small_n(n, sign):
    for offsets in [(0, 1, 2, 3), (0, 2, 3, 7), (0, 1, 3, 4, 9)]:
        for start in (0, 1):
            _check(_values(n), offsets, start, n, sign=sign)
            _check(_values(n), offsets, start, n, shifts=[1, 5, -2, 8, 3][: len(offsets)], sign=sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_short_last_block(sign):
    # several blocks at N = 1000, the last one shorter than the others
    sizes = _check(_values(1000, 1), (0, 1, 2, 3), 1, 1000, sign=sign)
    assert len(sizes) > 2 and sizes[-1] < sizes[0]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [100, 363])
def test_block_reads_past_two_periods(n, sign):
    # one block spans all differences, so a_max (rows - 1) > N
    offsets = (0, 2, 3, 7)
    sizes = _check(_values(n, 2), offsets, 0, n, sign=sign)
    assert offsets[-1] * (sizes[0] - 1) > n
    _check(_values(n, 2), offsets, 1, n, shifts=[4, 0, n + 2, -9], sign=sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_shifts_at_every_position(sign):
    # the torus cell shifts, plus a shift at the a = 0 position and a zero
    # offset in the middle
    for n in (7, 30, 1000):
        vals = _values(n, 3, np.uint8)
        _check(vals, (0, 1, 2, 3), 0, n, shifts=(0, 1, 2, 3), sign=sign)
        _check(vals, (0, 1, 2, 3), 0, n, shifts=(5, 1, 0, 2), sign=sign)
        _check(vals, (2, 0, 5), 3, n, shifts=(1, 6, -4), sign=sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_list_of_arrays(sign):
    for n in (7, 363, 1000):
        x, y, z = (_values(n, s) for s in (4, 5, 6))
        _check([x, x, x, x], (0, 1, 2, 3), 0, n, sign=sign)
        _check([x, y, x, z], (0, 1, 2, 3), 1, n, shifts=[3, 0, 1, 2], sign=sign)
        _check([x > 500, y > 300, z > 100], (0, 2, 5), 0, n, sign=sign)
        _check([x / 1000.0, y / 1000.0, x / 1000.0], (0, 1, 4), 0, n, sign=sign)
