"""The one forked worker process, and run_split, the one rule that cuts a
call's items (training's row shards, evaluation's rollout chunks, the
corpus's clips) into contiguous parts between processes: an item's bits
never depend on where it ran.

A part crosses the pipe as one (fn, args) job plus a resident slot, and
its results cross back as one message. The worker keeps one resident
value, training's window set. A worker forked for a call holds that
call's value from the fork, which shares the parent's pages, so nothing
is pickled or copied; a live worker gets another value once, with the
first part that passes it. Later parts only name it. training.train stops
the worker before its first epoch, so a worker left by corpus generation
is not sent the set, and on return, so no process keeps a finished run's
set.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os

from .errors import WorkerDiedError

MAX_PROCESSES = 2   # the caller and its one worker
# names the OpenBLAS builds numpy ships with give their thread-count calls
_BLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                      "openblas_{}_num_threads")


@functools.cache
def _blas_thread_calls():
    """(get, set) thread-count calls of the OpenBLAS numpy loaded, or None
    where none is found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_CALLS:
            get = getattr(handle, name.format("get"), None)
            put = getattr(handle, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _process_count() -> int:
    """Processes the parts of a call run in: one per usable CPU, up to
    MAX_PROCESSES, or one where OpenBLAS's thread count cannot be set; two
    processes each running BLAS threads oversubscribe the cores."""
    if _blas_thread_calls() is None:
        return 1
    return min(MAX_PROCESSES, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS runs one thread inside the block, where its thread count can
    be set: a matmul's bits can depend on it."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


_worker = None   # (owner pid, Process, Connection) of the worker
# the value the worker's resident slot holds; kept referenced here, so its
# id cannot be reused by another object while the worker holds it
_resident = None


def _serve(conn, parent_end) -> None:
    """The worker's loop: run each job it is sent and send back the result
    or the exception; exit once the parent's end is closed.

    The resident starts as the value forked with the worker. A job's slot
    is None for fn(*args), () for fn(resident, *args), and (value,) to make
    value the resident, replacing the one held, first."""
    parent_end.close()
    _blas_thread_calls()[1](1)    # the worker only ever runs jobs
    resident = _resident
    while True:
        try:
            fn, args, slot = conn.recv()
        except EOFError:
            return
        if slot:
            resident, = slot
        try:
            result = fn(*args) if slot is None else fn(resident, *args)
        except Exception as e:    # the parent raises it
            result = e
        conn.send(result)


def _worker_connection(resident):
    """The connection to this process's worker, forked at first use (fork,
    since spawn would re-import __main__) and daemonic, so it ends with the
    interpreter; one that died is replaced. A worker forked here holds
    `resident` from the fork."""
    global _worker, _resident
    if _worker is None or _worker[0] != os.getpid() or not _worker[1].is_alive():
        _resident = resident
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(there, here), daemon=True,
                           name="reachgen-worker")
        proc.start()
        there.close()
        _worker = (os.getpid(), proc, here)
    return _worker[2]


def _stop_worker() -> None:
    """Kill and reap this process's worker and clear its resident slot; the
    next call with more than one part forks a new one."""
    global _worker, _resident
    if _worker is not None and _worker[0] == os.getpid():
        _worker[1].kill()
        _worker[1].join()
        _worker[2].close()
    _worker = _resident = None


def _part(*call) -> list:
    """fn(*lead, *args, item) of each item of one part of a run_split call,
    called as _part(*lead, fn, args, items): the job a part is."""
    *lead, fn, args, items = call
    return [fn(*lead, *args, item) for item in items]


def run_split(fn, args: tuple, items: list, resident=None,
              processes: int = MAX_PROCESSES) -> list:
    """[fn(*args, item) for item in items], or fn(resident, *args, item)
    where a resident is given, in item order, with one BLAS thread in each
    process. The items are cut into at most min(processes,
    _process_count(), len(items)) contiguous parts, the first taking any
    extra item; the first part runs here and each other part in the
    worker, one message each way. `resident` reaches a worker forked for
    this call by the fork, and crosses to a live worker only when it is not
    the object the worker holds. `fn` must be a module-level function, so
    it pickles by reference."""
    global _resident
    lead = () if resident is None else (resident,)
    n_parts = min(processes, _process_count(), len(items))
    with _one_blas_thread():
        if n_parts <= 1:
            return _part(*lead, fn, args, items)
        cuts = [-(-len(items) * p // n_parts) for p in range(n_parts + 1)]
        parts = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        conn = _worker_connection(resident)
        try:
            for part in parts[1:]:
                slot = (None if resident is None
                        else () if resident is _resident else (resident,))
                conn.send((_part, (fn, args, part), slot))
                if slot:
                    _resident = resident
            results = [_part(*lead, fn, args, parts[0])]
            results += [conn.recv() for _ in parts[1:]]
        except BaseException as e:
            proc = _worker[1]
            _stop_worker()   # a live worker's answer may still be in the pipe
            if isinstance(e, (EOFError, OSError)):
                raise WorkerDiedError(f"worker pid {proc.pid} exited "
                                      f"with code {proc.exitcode}") from e
            raise
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return [out for part in results for out in part]
