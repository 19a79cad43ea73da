"""Independent calls side by side in forked worker processes.

``fork_map(fn, items)`` is ``[fn(x) for x in items]``, with the calls
spread over ``width(len(items))`` forked workers: worker k takes items
k, k + width, .... Whether to fork is decided here alone. A call forks
only where ``os.fork`` exists, this process runs no other Python thread
(a lock held by one would stay held in the child), and both ``cpus()``
and the number of items are at least 2. Otherwise the width is 0 and
every item runs in the caller's process, in item order. ``cpus()`` is 0
where no loaded OpenBLAS has both a thread setter and a getter: without
them no caller could be kept on one BLAS thread.

``one_blas_thread()`` is the library's one writer of OpenBLAS's thread
count: every loaded OpenBLAS on one thread for the span of a ``with``
block, and each library's own count back when the block ends. Its two
parallel regions hold it, so that their BLAS calls do not compete for
the same cores: the overlapped sweep (``crystal._spectra``) and
``fork_map``, from before its first fork until its last worker is
reaped. OpenBLAS shuts its thread pool down at each fork, so a worker
inherits one thread and no pool thread, and makes no OpenBLAS call of
its own; finding the library loads nothing. The parent only waits and
reads, and the result is the one the in-process loop gives:

- the values come back in item order;
- if calls raise, the exception of the lowest-index failing item is
  raised, as the loop would raise it first;
- a worker's results arrive whole or not at all: it runs its items up to
  the first that raises and sends what it got as one pickle. Every item
  of a worker that died or could not be started, or whose pickle does
  not load, is run again in the parent, with its thread count restored.

If anything interrupts the parent while it waits, KeyboardInterrupt
included, every worker is killed and reaped and every pipe is closed.
"""

import ctypes
import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager, suppress
from functools import lru_cache

# the names the thread setter and getter may have: OpenBLAS's exports
# carry one of these prefixes and suffixes, depending on how it was built
# (scipy-openblas: scipy_, 64_)
_SYMBOLS = [[f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_")
             for suffix in ("", "64_", "_64")]
            for name in ("set_num_threads", "get_num_threads")]


@lru_cache(maxsize=1)
def openblas_threads():
    """(set_num_threads, get_num_threads) of each OpenBLAS loaded in
    this process when first asked that has both functions.

    Each library is found by its path in /proc/self/maps and opened with
    RTLD_NOLOAD, as threadpoolctl finds it, so nothing is loaded or
    initialised; empty where there is no /proc or no such OpenBLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()
                            and ".so" in line})
    except OSError:
        return ()
    table = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        set_threads, get_threads = (
            next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
            for symbols in _SYMBOLS)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            table.append((set_threads, get_threads))
    return tuple(table)


@contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS that can say its thread count runs one
    thread inside the block; each one's count before it is restored
    however the block ends."""
    counts = [(set_threads, get_threads())
              for set_threads, get_threads in openblas_threads()]
    try:
        for set_threads, _ in counts:
            set_threads(1)
        yield
    finally:
        for set_threads, count in counts:
            set_threads(count)


def cpus():
    """CPUs this process may run on, or 0 where ``openblas_threads()`` is
    empty (the module's host rule)."""
    if not openblas_threads():
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def width(n_items):
    """Workers for ``n_items`` calls by the module's host rule; 0 runs
    them in process."""
    if (n_items < 2 or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 0
    n_cpus = cpus()
    return min(n_items, n_cpus) if n_cpus >= 2 else 0


def _work(fn, items, mine, read_fd, write_fd, mask):
    # the body of a worker: never returns into the caller's code
    status = 1
    try:
        os.close(read_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        got = []  # (item index, value or exception)
        for i in mine:
            try:
                got.append((i, fn(items[i])))
            except Exception as exc:
                got.append((i, exc))
                break
        with os.fdopen(write_fd, "wb") as out:
            out.write(pickle.dumps(got))
        status = 0
    finally:
        os._exit(status)


def _fork():
    # From Python 3.12 on, fork warns when the process has more than one
    # OS thread, and OpenBLAS's pool threads count. The worker is safe all
    # the same: it runs only numpy and this library's code, and OpenBLAS
    # shuts its pool down around the fork through its own pthread_atfork
    # handler, so the child holds none of its locks.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r"This process \(pid=\d+\) is multi-threaded",
            category=DeprecationWarning)
        return os.fork()


def _read_all(fd):
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _gather(fn, items, n_workers):
    # {item index: value or exception} of what the workers sent, with
    # every OpenBLAS on one thread from the first fork to the last reaping
    workers = {}  # live pid -> read end of its pipe, None once closed
    got = {}
    with one_blas_thread():
        try:
            for k in range(n_workers):
                # signals wait until the worker is registered (parent) or
                # inside its os._exit guard (worker)
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              signal.valid_signals())
                try:
                    read_fd, write_fd = os.pipe()
                    try:
                        pid = _fork()
                        if pid == 0:
                            _work(fn, items, range(k, len(items), n_workers),
                                  read_fd, write_fd, mask)
                        workers[pid] = read_fd
                    except OSError:
                        os.close(read_fd)
                        raise
                    finally:
                        os.close(write_fd)
                except OSError:  # no pipe or no fork: the rest run here
                    break
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for pid, read_fd in list(workers.items()):
                data = _read_all(read_fd)
                os.close(read_fd)
                workers[pid] = None
                with suppress(Exception):  # empty from a dead worker, or
                    # holding what the parent cannot rebuild: its items
                    # run here
                    got.update(pickle.loads(data))
                os.waitpid(pid, 0)
                del workers[pid]
        finally:
            for pid, read_fd in workers.items():
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                if read_fd is not None:
                    os.close(read_fd)
    return got


def fork_map(fn, items):
    """``[fn(x) for x in items]`` over ``width(len(items))`` forked
    workers, or in process where that is 0; the module docstring gives
    the rule."""
    n_workers = width(len(items))
    got = _gather(fn, items, n_workers) if n_workers else {}
    values = []
    for i, item in enumerate(items):
        if i not in got:  # its worker sent nothing that loads
            values.append(fn(item))
        elif isinstance(got[i], BaseException):
            raise got[i]
        else:
            values.append(got[i])
    return values
