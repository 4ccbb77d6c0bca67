"""worker.run_split, the one rule for cutting a call's work: the items are
cut into contiguous parts, the first part, which takes any extra item, runs
in the calling process, and each other part runs in the worker."""
import os

import pytest

from reachgen import worker as wk


def where(*call):
    """(pid, the call's arguments): the process that ran an item, and what
    it was called with."""
    return os.getpid(), call


class MessageCount:
    """The worker's connection, counting the messages each way."""

    def __init__(self, conn, counts):
        self.conn, self.counts = conn, counts

    def send(self, obj):
        self.counts[0] += 1
        self.conn.send(obj)

    def recv(self):
        self.counts[1] += 1
        return self.conn.recv()


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_first_part_runs_here_and_the_rest_in_the_worker(monkeypatch, fresh_worker, n):
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    counts = [0, 0]
    connection = wk._worker_connection
    monkeypatch.setattr(wk, "_worker_connection",
                        lambda resident: MessageCount(connection(resident), counts))
    out = wk.run_split(where, ("a", 1), list(range(n)))
    assert [call for _, call in out] == [("a", 1, i) for i in range(n)]
    here = -(-n // 2)
    pids = [pid for pid, _ in out]
    assert pids[:here] == [os.getpid()] * here
    if n < 2:
        assert wk._worker is None and counts == [0, 0]
    else:
        assert wk._worker[1].pid != os.getpid()
        assert pids[here:] == [wk._worker[1].pid] * (n - here)
        assert counts == [1, 1]     # one part, one message each way


@pytest.mark.parametrize("count,processes", [(1, 2), (2, 1), (1, 1)])
def test_one_process_runs_every_item_here(monkeypatch, fresh_worker, count, processes):
    monkeypatch.setattr(wk, "_process_count", lambda: count)
    out = wk.run_split(where, (), list(range(5)), processes=processes)
    assert out == [(os.getpid(), (i,)) for i in range(5)]
    assert wk._worker is None


def test_resident_reaches_fn_first_in_both_processes(monkeypatch, fresh_worker):
    # the first call forks a worker holding the resident; the second sends
    # a new one to the live worker
    monkeypatch.setattr(wk, "_process_count", lambda: 2)
    for resident in (("first",), ("second",)):
        out = wk.run_split(where, ("a",), [0, 1, 2], resident=resident)
        assert [call for _, call in out] == [(resident, "a", i) for i in range(3)]
        assert out[0][1][0] is resident
        assert [pid for pid, _ in out] == [os.getpid()] * 2 + [wk._worker[1].pid]
        assert wk._resident is resident
