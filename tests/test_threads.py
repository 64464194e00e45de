import ctypes
import io
import os
import threading
import time
import types
from concurrent.futures import CancelledError

import pytest

from scdec import _threads

_MAPS = ("7f5f58400000-7f5f58689000 r--p 00000000 fe:00 62288      "
         "/usr/lib/libopenblasp-r0.3.so\n"
         "7f5f58700000-7f5f58800000 r-xp 00000000 fe:00 62289      "
         "/usr/lib/libc.so.6\n"
         "7ffd1c5e8000-7ffd1c609000 rw-p 00000000 00:00 0          [stack]\n")


@pytest.fixture(autouse=True)
def fresh_lookup():
    _threads._blas_setters.cache_clear()
    yield
    _threads._blas_setters.cache_clear()


def _maps(text):
    def fake_open(path, *args, **kwargs):
        assert path == "/proc/self/maps"
        return io.StringIO(text)
    return fake_open


def _unreadable(path, *args, **kwargs):
    raise PermissionError(path)


@pytest.mark.parametrize("opener", [_unreadable, _maps(_MAPS.split("\n", 1)[1])],
                         ids=["maps-unreadable", "no-openblas"])
def test_without_an_openblas_mapping_one_worker(monkeypatch, opener):
    monkeypatch.setattr(_threads, "open", opener, raising=False)
    assert _threads.workers() == 1


def _no_library(name):
    raise OSError("cannot load")


@pytest.mark.parametrize("cdll", [_no_library, lambda name: types.SimpleNamespace()],
                         ids=["CDLL-raises", "no-setter"])
def test_openblas_without_the_setter_gives_one_worker(monkeypatch, cdll):
    monkeypatch.setattr(_threads, "open", _maps(_MAPS), raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert _threads.workers() == 1
    with _threads.pool() as ex:
        assert ex.submit(lambda: 7).result() == 7     # the initializer has nothing to pin


@pytest.mark.parametrize("n_workers", [2, 3])
def test_each_worker_pins_its_blas_and_takes_the_next_cpu(monkeypatch, n_workers):
    loaded, blas, cpus = [], [], []

    def setter(n):
        blas.append((threading.get_ident(), n))
        return 2

    def cdll(name):
        loaded.append(name)
        return types.SimpleNamespace(openblas_set_num_threads_local=setter)

    def set_affinity(pid, mask):
        assert pid == 0         # the calling thread
        cpus.append((threading.get_ident(), set(mask)))

    monkeypatch.setattr(_threads, "open", _maps(_MAPS + _MAPS), raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 3})
    monkeypatch.setattr(os, "sched_setaffinity", set_affinity)
    assert _threads.workers() == 2
    assert _threads.workers() == 2
    assert loaded == ["/usr/lib/libopenblasp-r0.3.so"]       # looked up once
    assert setter.argtypes == (ctypes.c_int,) and setter.restype == ctypes.c_int
    monkeypatch.setattr(_threads, "workers", lambda: n_workers)
    barrier = threading.Barrier(n_workers, timeout=10)
    with _threads.pool() as ex:
        ids = list(ex.map(lambda _: (barrier.wait(), threading.get_ident())[1],
                          range(n_workers)))
    assert threading.get_ident() not in ids
    assert sorted(blas) == sorted((i, 1) for i in ids)
    assert sorted(i for i, _ in cpus) == sorted(ids)
    assert all(len(mask) == 1 for _, mask in cpus)
    assert sorted(min(mask) for _, mask in cpus) == sorted([3, 5, 3][:n_workers])


def test_one_worker_keeps_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(_threads, "workers", lambda: 1)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pytest.fail("pinned"))
    with _threads.pool() as ex:
        assert ex.submit(lambda: 7).result() == 7


class _Unwind(BaseException):
    """Like a benchmark probe that unwinds the CLI at its first shot."""


@pytest.mark.parametrize("exc", [KeyboardInterrupt, _Unwind, ValueError])
def test_pool_cancels_queued_work_on_any_exception(monkeypatch, exc):
    monkeypatch.setattr(_threads, "workers", lambda: 1)
    ran = []
    with pytest.raises(exc):
        with _threads.pool() as ex:
            busy = ex.submit(time.sleep, 0.2)
            queued = [ex.submit(ran.append, i) for i in range(3)]
            raise exc
    assert busy.done() and ran == []
    assert all(f.cancelled() for f in queued)


def test_no_call_starts_after_one_raised(monkeypatch):
    monkeypatch.setattr(_threads, "workers", lambda: 1)
    ran = []

    def fail():
        raise ValueError("first call failed")

    with pytest.raises(ValueError, match="first call failed"):
        with _threads.pool() as ex:
            first = ex.submit(fail)
            later = [ex.submit(ran.append, i) for i in range(3)]
            first.result()
    assert ran == []
    for f in later:
        assert f.cancelled() or isinstance(f.exception(), CancelledError)
