"""The one forked worker process behind training's row shards and
evaluation's rollout chunks: a job's bits never depend on where it ran.
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
    """Processes the jobs of a call run in: one per usable CPU, up to
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


def _serve(conn, parent_end) -> None:
    """The worker's loop: run each job it is sent and send back the result
    or the exception; exit once the parent's end is closed."""
    parent_end.close()
    _blas_thread_calls()[1](1)    # the worker only ever runs jobs
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            result = fn(*args)
        except Exception as e:    # the parent raises it
            result = e
        conn.send(result)


def _worker_connection():
    """The connection to this process's worker, forked at first use (fork,
    since spawn would re-import __main__) and daemonic, so it ends with the
    interpreter; one that died is replaced."""
    global _worker
    if _worker is None or _worker[0] != os.getpid() or not _worker[1].is_alive():
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(there, here), daemon=True,
                           name="reachgen-worker")
        proc.start()
        there.close()
        _worker = (os.getpid(), proc, here)
    return _worker[2]


def _stop_worker() -> None:
    """Kill and reap this process's worker; the next call with more than
    one job forks a new one."""
    global _worker
    if _worker is not None and _worker[0] == os.getpid():
        _worker[1].kill()
        _worker[1].join()
        _worker[2].close()
    _worker = None


def run_jobs(jobs: list) -> list:
    """fn(*args) of each (fn, args) job, in job order, with one BLAS thread
    in each process. With more than one process, the first job runs here
    and the rest in the worker, one message each way per job; `fn` must be
    a module-level function, so it pickles by reference."""
    with _one_blas_thread():
        if len(jobs) == 1 or _process_count() == 1:
            return [fn(*args) for fn, args in jobs]
        conn = _worker_connection()
        try:
            for job in jobs[1:]:
                conn.send(job)
            fn, args = jobs[0]
            results = [fn(*args)]
            results += [conn.recv() for _ in jobs[1:]]
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
    return results
