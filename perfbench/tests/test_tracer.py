import pytest

from perfbench.tracer import Tracer, by_name, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        # (id, name, start, end, parent, request)
        (1, "outer", 0.0, 10.0, 0, None),
        (2, "child", 1.0, 4.0, 1, None),
        (3, "grandchild", 1.5, 2.5, 2, None),
        (4, "child", 5.0, 9.0, 1, None),
        (5, "other-root", 20.0, 21.0, 0, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)
    assert sorted(by_name(spans)) == ["child", "grandchild", "other-root", "outer"]


class _Layer:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


def test_wrap_records_nesting_and_restores():
    original_outer = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer", request=lambda args: args[1])
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        assert _Layer().outer(3) == [0, 2, 4]
    finally:
        tracer.restore()
    assert _Layer.__dict__["outer"] is original_outer
    spans = tracer.spans
    outer = [s for s in spans if s[1] == "layer.outer"]
    inner = [s for s in spans if s[1] == "layer.inner"]
    assert len(outer) == 1 and len(inner) == 3
    assert outer[0][4] == 0 and outer[0][5] == 3
    assert all(s[4] == outer[0][0] for s in inner)
    selfs = self_times(spans)
    duration = outer[0][3] - outer[0][2]
    children = sum(s[3] - s[2] for s in inner)
    assert selfs[outer[0][0]] == pytest.approx(duration - children)


def test_after_hook_runs_outside_the_span():
    calls = []
    tracer = Tracer()
    tracer.wrap(
        _Layer, "inner", "layer.inner",
        after=lambda args, result: calls.append((len(tracer.spans), result)),
    )
    try:
        result = _Layer().inner(1)
    finally:
        tracer.restore()
    assert calls == [(1, result)]
