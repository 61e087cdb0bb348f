"""The shift-scan kernel against one 1-D view per difference, and the
ordered map over the CPUs of the affinity mask."""

import sys
import threading
import time

import numpy as np
import pytest

import oracles
from aplab import scan
from aplab.scan import ordered_map, shift_blocks


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


@pytest.fixture(params=[1, 2, 5])
def workers(request, monkeypatch):
    """W forced through the affinity mask that ``ordered_map`` reads."""
    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    return request.param


def test_ordered_map_is_the_list_comprehension(workers):
    for items in ([], [7], list(range(50))):
        assert ordered_map(lambda x: x * x, items) == [x * x for x in items]
    assert ordered_map(str, iter(range(3))) == ["0", "1", "2"]


def test_every_item_claimed_once_under_fast_switching(monkeypatch):
    # five workers on a shared counter, switching threads every microsecond:
    # a lost update of the counter would run an item twice or skip one
    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            del ran[:]
            assert ordered_map(lambda x: ran.append(x) or -x, range(300)) == [-x for x in range(300)]
            assert sorted(ran) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


def test_threads_start_only_when_two_workers_meet_two_items(workers, monkeypatch):
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    for items in ([], [1], [1, 2], list(range(9))):
        del started[:]
        assert ordered_map(abs, items) == items
        assert len(started) == max(0, min(workers, len(items)) - 1)
        assert not any(t.is_alive() for t in started)


def test_results_in_item_order_when_items_finish_out_of_order(monkeypatch):
    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    second_done = threading.Event()
    finished = []

    def fn(i):
        # item 0 finishes only after item 1, which the other worker runs
        if i == 0 and not second_done.wait(10):
            raise RuntimeError("item 1 never ran beside item 0")
        finished.append(i)
        if i == 1:
            second_done.set()
        return -i

    assert ordered_map(fn, range(6)) == [0, -1, -2, -3, -4, -5]
    assert finished.index(1) < finished.index(0)


def test_first_exception_reraised_after_every_worker_stops(workers):
    started, running = [], set()

    def fn(i):
        started.append(i)
        running.add(i)
        if i == 3:
            raise ValueError("item 3")
        time.sleep(0.02)
        running.discard(i)
        return i

    with pytest.raises(ValueError, match="item 3"):
        ordered_map(fn, range(40))
    # no item is still running, and each worker claimed at most one item
    # after item 3
    assert running == {3}
    assert sorted(started)[:4] == [0, 1, 2, 3] and max(started) < 3 + workers
