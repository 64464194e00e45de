"""Worker threads for shot work, each with one BLAS thread.

numpy releases the GIL inside its kernels, so shards of shots can run side
by side in threads.  OpenBLAS's own thread pool cannot share the CPUs with
them: its spinning threads held the second CPU and two shard threads gained
nothing.  Every worker therefore sets its BLAS to one thread with
``openblas_set_num_threads_local`` (in the pthreads build numpy's wheels
ship, that count holds for the whole process); where the loaded BLAS has no
such function, the pool has one worker.

Importing this module starts no thread and reads nothing: the BLAS is
looked up when the first pool is made.
"""

from __future__ import annotations

import collections
import ctypes
import itertools
import os
from concurrent.futures import CancelledError, ThreadPoolExecutor
from functools import lru_cache

_SETTER = "openblas_set_num_threads_local"


@lru_cache(maxsize=None)
def _blas_setters() -> tuple:
    """The per-thread thread-count setter of every OpenBLAS mapped into this
    process; empty when none is mapped, one lacks the setter, or the process
    maps cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].rstrip("\n") for f in fields
                    if len(f) == 6 and "openblas" in f[5].lower()})
    setters = []
    for path in paths:
        try:
            setter = getattr(ctypes.CDLL(path), _SETTER)
        except (OSError, AttributeError):
            return ()
        setter.argtypes = (ctypes.c_int,)
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


def workers() -> int:
    """Threads a pool runs: the CPUs this process may use when every loaded
    OpenBLAS can be set to one thread per caller, else 1."""
    return len(os.sched_getaffinity(0)) if _blas_setters() else 1


def _start_worker(cpus: list, order) -> None:
    """Pool initializer: one BLAS thread, and the next CPU of ``cpus``."""
    for setter in _blas_setters():
        setter(1)
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[next(order) % len(cpus)]})
        except OSError:
            pass


class _Pool(ThreadPoolExecutor):
    """A thread pool that starts no call once one has raised, and that
    cancels its queued calls when its ``with`` block exits by any exception
    (``KeyboardInterrupt`` included)."""

    _failed = False

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(self._call, fn, *args, **kwargs)

    def _call(self, fn, *args, **kwargs):
        if self._failed:
            raise CancelledError("an earlier call raised")
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self._failed = True
            raise

    def map(self, fn, *iterables):
        """``fn`` over ``iterables`` in order, lazily: at most twice as many
        calls are submitted ahead of the one awaited as there are workers.
        The first exception is raised when its call's turn comes."""
        ahead = collections.deque()
        for args in zip(*iterables):
            ahead.append(self.submit(fn, *args))
            if len(ahead) > 2 * self._max_workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()

    def __exit__(self, exc_type, exc_val, exc_tb):
        self.shutdown(wait=True, cancel_futures=exc_type is not None)
        return False


def pool() -> _Pool:
    """A pool of :func:`workers` threads, each with one BLAS thread; use it
    as a context manager.

    With two or more workers each is pinned to its own CPU of the affinity
    mask, in turn.  Left free, Linux's wake-affine placement stacks threads
    that hand the GIL to each other on one CPU: two unpinned threads of
    numpy ufunc calls on 2^15-element arrays used one CPU between them.
    """
    n = workers()
    cpus = sorted(os.sched_getaffinity(0)) if n > 1 else []
    return _Pool(n, initializer=_start_worker, initargs=(cpus, itertools.count()))
