"""``_fork.fork_map`` on a host that cannot fork: every item runs in the
caller's process, through the same loop that runs the items of a worker
that sent nothing back. On a host that forks, each worker inherits the
parent's one OpenBLAS thread."""

import os

import numpy as np
import pytest

from ionlattice import _fork


@pytest.fixture
def forks(monkeypatch):
    # a host that cannot fork (no os.fork, one CPU); the list gets one
    # entry per call of _fork._fork
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    forks = []

    def refused():
        forks.append(None)
        raise OSError("this host cannot fork")

    monkeypatch.setattr(_fork, "_fork", refused)
    return forks


def test_values_come_back_in_order(forks):
    ran = []

    def square(x):
        ran.append(x)
        return x * x

    assert _fork.width(4) == 0
    assert _fork.fork_map(square, [3, 1, 4, 1]) == [9, 1, 16, 1]
    assert ran == [3, 1, 4, 1]
    assert forks == []


def test_lowest_index_exception_after_earlier_items(forks):
    ran = []

    def items_1_and_2_raise(i):
        ran.append(i)
        if i in (1, 2):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        _fork.fork_map(items_1_and_2_raise, [0, 1, 2, 3])
    assert ran == [0, 1]
    assert forks == []


def test_one_item_never_forks(monkeypatch):
    # whatever the host, one item runs in process
    monkeypatch.setattr(_fork, "cpus", lambda: 4)
    assert _fork.width(1) == 0
    assert _fork.width(0) == 0


def _blas_getters():
    return [get for _, get in _fork.openblas_threads()]


def _worker_threads(_):
    # a BLAS call, then what the worker's OpenBLAS and kernel report
    a = np.ones((200, 200))
    a @ a
    return (os.getpid(), [get() for get in _blas_getters()],
            len(os.listdir("/proc/self/task")))


@pytest.mark.skipif(_fork.width(2) < 2 or not os.path.isdir("/proc/self/task")
                    or all(get() == 1 for get in _blas_getters()),
                    reason="no forked workers, no /proc/self/task, or "
                           "OpenBLAS already runs one thread")
def test_workers_inherit_one_blas_thread(monkeypatch):
    # the parent's OpenBLAS runs 2 or more threads; each worker inherits
    # one thread and no pool thread from fork_map's parent, and sets no
    # count of its own: a setter called in a worker raises there, and the
    # worker's items would then run in the parent
    parent = os.getpid()
    pairs = _fork.openblas_threads()
    before = [get() for _, get in pairs]

    def parent_only(set_threads):
        def guarded(n):
            if os.getpid() != parent:
                raise AssertionError("a worker set OpenBLAS's thread count")
            set_threads(n)
        return guarded

    monkeypatch.setattr(_fork, "openblas_threads", lambda: tuple(
        (parent_only(set_threads), get) for set_threads, get in pairs))
    reports = _fork.fork_map(_worker_threads, range(_fork.width(2)))
    for pid, counts, tasks in reports:
        assert pid != parent
        assert counts == [1] * len(pairs)
        assert tasks == 1
    assert [get() for _, get in pairs] == before
