"""``_fork.fork_map`` on a host that cannot fork: every item runs in the
caller's process, through the same loop that runs the items of a worker
that sent nothing back."""

import os

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
