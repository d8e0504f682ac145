"""The open-loop client of ``online_mixed`` against a stand-in server."""

import time
from collections import deque
from types import SimpleNamespace

from perfbench import inputs
from perfbench.online_mixed import drive


class _Future:
    def __init__(self, result):
        self._result = result

    def subscribe(self, callback):
        callback(self._result)


class _Stream:
    def __init__(self, events):
        self._events = deque(events)

    def get(self, timeout=None):
        if self._events:
            return self._events.popleft()
        if timeout:
            time.sleep(timeout)
        return None


class _Server:
    def submit_score(self, pair):
        return _Future(SimpleNamespace(outcome="scored"))

    def submit_stream(self, pair):
        return _Stream([
            ("tokens", [1, 2]), ("tokens", [3]),
            ("done", SimpleNamespace(outcome="revised")),
        ])


def test_every_request_resolves_whatever_kind_comes_last():
    # Scores are last, so no stream is open once the final request is sent.
    schedule = [
        inputs.Request(inputs.KIND_STREAM, 0, due=0.0),
        inputs.Request(inputs.KIND_SCORE, 1, due=0.005),
        inputs.Request(inputs.KIND_STREAM, 0, due=0.010),
        inputs.Request(inputs.KIND_SCORE, 1, due=0.015),
        inputs.Request(inputs.KIND_SCORE, 1, due=0.015),
    ]
    records, start, end = drive(_Server(), ["a", "b"], schedule)
    assert all(rec.ok for rec in records)
    streams = [rec for rec in records if rec.request.kind == inputs.KIND_STREAM]
    assert [rec.tokens for rec in streams] == [[1, 2, 3], [1, 2, 3]]
    assert all(rec.events == 2 and rec.first <= rec.last <= rec.done for rec in streams)
    assert all(rec.sent >= rec.due for rec in records)
    assert start <= end
