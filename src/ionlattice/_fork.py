"""Independent calls side by side in forked worker processes.

``fork_map(fn, items, width)`` is ``[fn(x) for x in items]`` with the
calls spread over ``width`` forked workers: worker k takes items k,
k + width, .... Each worker runs its OpenBLAS on one thread, so that the
workers do not compete with each other's BLAS threads for the same
cores. The parent's BLAS setting is never changed, and finding the
library loads nothing. The parent only waits and reads, and the result
is the one the in-process loop gives:

- the values come back in item order;
- if calls raise, the exception of the lowest-index failing item is
  raised, as the loop would raise it first;
- an item whose worker died or could not be started, or whose exception
  does not survive pickling, is run again in the parent.

If anything interrupts the parent while it waits, KeyboardInterrupt
included, every worker is killed and reaped and every pipe is closed.

``width`` says how many workers pay here: 0 where the process cannot
fork safely or no OpenBLAS thread setter is found, so that the caller
runs in process.
"""

import ctypes
import io
import os
import pickle
import signal
import threading
import warnings
from contextlib import suppress
from functools import lru_cache

# OpenBLAS's exported names carry one of these prefixes and suffixes,
# depending on how it was built (scipy-openblas: scipy_, 64_)
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_", "_64")
# name -> (argtypes, restype) of the functions looked up here
_SIGNATURES = {
    "set_num_threads": ([ctypes.c_int], None),
    "get_num_threads": ([], ctypes.c_int),
}


@lru_cache(maxsize=1)
def _openblas_libraries():
    """Each OpenBLAS loaded in this process when first asked, as a CDLL.

    Found by its path in /proc/self/maps and opened with RTLD_NOLOAD, as
    threadpoolctl finds it, so nothing is loaded or initialised; empty
    where there is no /proc or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()
                            and ".so" in line})
    except OSError:
        return ()
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            pass
    return tuple(libraries)


def openblas_functions(name):
    """Function ``openblas_<name>`` of each loaded OpenBLAS that has it."""
    found = []
    for lib in _openblas_libraries():
        symbol = next((f"{p}openblas_{name}{s}" for p in _PREFIXES
                       for s in _SUFFIXES
                       if hasattr(lib, f"{p}openblas_{name}{s}")), None)
        if symbol is not None:
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = _SIGNATURES[name]
            found.append(fn)
    return found


def _one_blas_thread():
    # Every OpenBLAS here runs on one thread. OpenBLAS's fork handler shut
    # its thread pool down, and the setter starts it again; the new pool
    # thread then busy-waits for work for about 0.1 s (OpenBLAS's default
    # THREAD_TIMEOUT, 2^28 cycles) and takes a core from the worker.
    # blas_thread_shutdown_, the function that fork handler calls, stops
    # it, and on one thread no BLAS call starts it again.
    for set_threads in openblas_functions("set_num_threads"):
        set_threads(1)
    for lib in _openblas_libraries():
        if hasattr(lib, "blas_thread_shutdown_"):
            shutdown = lib.blas_thread_shutdown_
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            shutdown()


def width(n_items):
    """Workers for ``n_items`` calls; fewer than 2 runs them in process.

    Fan out only where ``os.fork`` exists, this process runs no other
    Python thread (a lock held by one would stay held in the child), at
    least two CPUs are usable and the OpenBLAS thread setter is found.
    """
    if (not hasattr(os, "fork") or threading.active_count() != 1
            or not openblas_functions("set_num_threads")):
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(n_items, cpus) if cpus >= 2 else 0


def _work(fn, items, mine, read_fd, write_fd, mask):
    # the body of a worker: never returns into the caller's code
    status = 1
    try:
        os.close(read_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _one_blas_thread()
        with os.fdopen(write_fd, "wb") as out:
            for i in mine:
                try:
                    value = fn(items[i])
                except Exception as exc:
                    try:  # an exception the parent cannot rebuild is
                        # left for the parent to raise itself
                        record = pickle.dumps((i, exc))
                        pickle.loads(record)
                    except Exception:
                        break
                    out.write(record)
                    break
                out.write(pickle.dumps((i, value)))
                out.flush()
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


def _records(data):
    # the (item index, value or exception) pairs of one worker, up to the
    # first one cut short by the worker's death
    stream = io.BytesIO(data)
    while stream.tell() < len(data):
        try:
            yield pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            return


def fork_map(fn, items, width):
    """``[fn(x) for x in items]`` over ``width`` forked workers."""
    workers = {}  # live pid -> read end of its pipe, None once closed
    got = {}
    try:
        for k in range(width):
            # signals wait until the worker is registered (parent) or
            # inside its os._exit guard (worker)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          signal.valid_signals())
            try:
                read_fd, write_fd = os.pipe()
                try:
                    pid = _fork()
                    if pid == 0:
                        _work(fn, items, range(k, len(items), width),
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
            got.update(_records(_read_all(read_fd)))
            os.close(read_fd)
            workers[pid] = None
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
    values = []
    for i, item in enumerate(items):
        if i not in got:  # its worker died or never started
            values.append(fn(item))
        elif isinstance(got[i], BaseException):
            raise got[i]
        else:
            values.append(got[i])
    return values
